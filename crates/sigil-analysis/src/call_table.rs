//! The streaming folds' per-call state, indexed by call number.

use std::collections::BTreeMap;

use sigil_trace::CallNumber;

/// How far past twice its entry count the dense range may reach.
const DENSE_SLACK: usize = 1024;

/// A map from [`CallNumber`] to `V` that costs an array index, not a
/// hash, for the numbers a profiler hands out.
///
/// The profiler numbers calls densely from 1, so entries live in a `Vec`
/// indexed by call number. A number at or past the end of that dense
/// range extends it only while the number stays below `2 × entries +
/// 1024`, counting the new entry; past that bound it goes to an ordered
/// overflow map. The vector therefore stays O(entries) whatever numbers
/// a stream names (call `u64::MAX`, or calls 2^20 apart), and whenever
/// it grows, the overflow entries it now covers move into it. Entries
/// are never removed: the folds keep every call they have seen.
#[derive(Debug, Clone)]
pub(crate) struct CallTable<V> {
    /// The entry of call `i`, at index `i`.
    dense: Vec<Option<V>>,
    /// Entries of calls at or past `dense.len()`, ordered so that growth
    /// moves the ones it covers by popping the smallest keys.
    overflow: BTreeMap<u64, V>,
    /// Entries in `dense` and `overflow` together.
    len: usize,
}

impl<V> Default for CallTable<V> {
    fn default() -> Self {
        CallTable {
            dense: Vec::new(),
            overflow: BTreeMap::new(),
            len: 0,
        }
    }
}

/// The dense index of `call` (past every index on a 32-bit target).
#[inline]
fn slot_of(call: u64) -> usize {
    usize::try_from(call).unwrap_or(usize::MAX)
}

impl<V> CallTable<V> {
    /// The entry of `call`, if it has one.
    #[inline]
    pub(crate) fn get(&self, call: CallNumber) -> Option<&V> {
        match self.dense.get(slot_of(call.as_raw())) {
            Some(entry) => entry.as_ref(),
            None => self.overflow.get(&call.as_raw()),
        }
    }

    /// The entry of `call`, made `V::default()` first if it has none.
    #[inline]
    pub(crate) fn entry(&mut self, call: CallNumber) -> &mut V
    where
        V: Default,
    {
        let i = slot_of(call.as_raw());
        if i < self.dense.len() {
            let len = &mut self.len;
            return self.dense[i].get_or_insert_with(|| {
                *len += 1;
                V::default()
            });
        }
        self.entry_past_dense(call.as_raw())
    }

    /// [`CallTable::entry`] for a call at or past the dense range.
    fn entry_past_dense(&mut self, call: u64) -> &mut V
    where
        V: Default,
    {
        if !self.overflow.contains_key(&call) {
            self.len += 1;
            let bound = self.len.saturating_mul(2).saturating_add(DENSE_SLACK);
            let i = slot_of(call);
            if i < bound {
                self.grow(bound);
                return self.dense[i].insert(V::default());
            }
        }
        self.overflow.entry(call).or_default()
    }

    /// Extends the dense range to `len` slots and moves the overflow
    /// entries it now covers into it.
    fn grow(&mut self, len: usize) {
        self.dense.resize_with(len, || None);
        while let Some(entry) = self.overflow.first_entry() {
            let i = slot_of(*entry.key());
            if i >= len {
                break;
            }
            self.dense[i] = Some(entry.remove());
        }
    }

    /// Slots in the dense range.
    #[cfg(test)]
    pub(crate) fn dense_len(&self) -> usize {
        self.dense.len()
    }

    /// The most slots the dense range may have for the entries held.
    #[cfg(test)]
    pub(crate) fn dense_bound(&self) -> usize {
        self.len * 2 + DENSE_SLACK
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use proptest::prelude::*;

    use super::*;

    fn call(n: u64) -> CallNumber {
        CallNumber::from_raw(n)
    }

    /// Checks the table against `model` entry by entry, and the layout
    /// invariants: the dense range within its bound, every overflow key
    /// past it, and the entry count.
    fn assert_matches(table: &CallTable<u64>, model: &HashMap<u64, u64>) {
        for (&key, value) in model {
            assert_eq!(table.get(call(key)), Some(value), "call {key}");
        }
        assert_eq!(table.len, model.len());
        let present = table.dense.iter().flatten().count() + table.overflow.len();
        assert_eq!(present, model.len());
        assert!(table.dense_len() <= table.dense_bound());
        if let Some((&first, _)) = table.overflow.first_key_value() {
            assert!(slot_of(first) >= table.dense_len(), "{first} is dense");
        }
    }

    #[test]
    fn growth_moves_covered_overflow_entries_into_the_dense_range() {
        let mut table = CallTable::default();
        // Past the first bound (2 + 1024), so it starts in the overflow.
        *table.entry(call(1500)) = 7;
        assert_eq!(table.overflow.len(), 1);
        // 240 dense calls and one more past the dense range make 242
        // entries, so the range grows to 2 × 242 + 1024 = 1508 slots.
        for n in 1..=240 {
            *table.entry(call(n)) = n;
        }
        *table.entry(call(1400)) = 1;
        assert!(table.overflow.is_empty(), "1500 moved into the dense range");
        assert_eq!(table.get(call(1500)), Some(&7));
        assert_eq!(table.dense_len(), 2 * 242 + DENSE_SLACK);
    }

    #[test]
    fn far_apart_calls_stay_out_of_the_dense_range() {
        let mut table = CallTable::default();
        for n in (1..=2000u64).map(|k| k << 20).chain([u64::MAX, 1 << 32]) {
            *table.entry(call(n)) = n;
            assert_eq!(table.get(call(n)), Some(&n));
        }
        assert_eq!(table.dense_len(), 0, "no call fell below the bound");
        assert_eq!(table.get(call(5 << 20 | 1)), None);
        assert_eq!(table.get(call(0)), None);
    }

    #[derive(Debug, Clone)]
    enum Op {
        Get(u64),
        Set(u64, u64),
        Add(u64, u64),
    }

    /// Dense numbers, numbers that start in the overflow and that later
    /// growth covers, and numbers the dense range never reaches.
    fn arb_call() -> impl Strategy<Value = u64> + Clone {
        prop_oneof![
            0..300u64,
            0..300u64,
            0..300u64,
            1000..1700u64,
            1000..1700u64,
            (1..64u64).prop_map(|k| k << 20),
            (0..4u64).prop_map(|k| u64::MAX - k),
            (0..4u64).prop_map(|k| (1 << 32) + k),
        ]
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            arb_call().prop_map(Op::Get),
            (arb_call(), 0..1000u64).prop_map(|(k, v)| Op::Set(k, v)),
            (arb_call(), 0..1000u64).prop_map(|(k, v)| Op::Add(k, v)),
        ]
    }

    proptest! {
        #[test]
        fn table_matches_a_hash_map(ops in prop::collection::vec(arb_op(), 0..600)) {
            let mut table = CallTable::default();
            let mut model: HashMap<u64, u64> = HashMap::new();
            for op in ops {
                match op {
                    Op::Get(k) => prop_assert_eq!(table.get(call(k)), model.get(&k)),
                    Op::Set(k, v) => {
                        *table.entry(call(k)) = v;
                        model.insert(k, v);
                    }
                    Op::Add(k, v) => {
                        *table.entry(call(k)) += v;
                        *model.entry(k).or_default() += v;
                    }
                }
                prop_assert!(table.dense_len() <= table.dense_bound());
            }
            assert_matches(&table, &model);
        }
    }
}
