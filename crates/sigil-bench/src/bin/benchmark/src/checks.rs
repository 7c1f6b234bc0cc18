//! Output checks. Every miss is counted against the operations attempted
//! and named by (workload, input, field), so a wrong profile can never
//! pass as a fast one.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use sigil_core::Profile;

use crate::json::Json;

/// One failed check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    pub workload: String,
    pub input: String,
    pub field: String,
    pub detail: String,
}

impl Failure {
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("workload", self.workload.as_str())
            .with("input", self.input.as_str())
            .with("field", self.field.as_str())
            .with("detail", self.detail.as_str())
    }
}

/// Operations attempted by one workload run and the checks they failed.
/// An operation is one profile, one analysis of a profile, or one served
/// session.
#[derive(Debug)]
pub struct Checks {
    workload: &'static str,
    pub attempted: u64,
    pub failures: Vec<Failure>,
}

impl Checks {
    pub fn new(workload: &'static str) -> Checks {
        Checks {
            workload,
            attempted: 0,
            failures: Vec::new(),
        }
    }

    pub fn attempt(&mut self, operations: u64) {
        self.attempted += operations;
    }

    pub fn fail(&mut self, input: &str, field: impl Into<String>, detail: impl Into<String>) {
        self.failures.push(Failure {
            workload: self.workload.to_owned(),
            input: input.to_owned(),
            field: field.into(),
            detail: detail.into(),
        });
    }

    /// Failed operations: one per miss, never more than were attempted.
    pub fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted.max(1))
    }

    /// Records a miss when `got != want`; `what` names the field.
    pub fn same<T: PartialEq>(&mut self, input: &str, what: &str, got: &T, want: &T) {
        if got != want {
            self.fail(input, what, "differs from the reference");
        }
    }

    /// Records a miss naming the first differing profile field.
    pub fn same_profile(&mut self, input: &str, against: &str, got: &Profile, want: &Profile) {
        if let Some(field) = profile_diff(got, want) {
            self.fail(input, field, format!("differs from {against}"));
        }
    }
}

/// The first top-level field in which two profiles differ.
pub fn profile_diff(a: &Profile, b: &Profile) -> Option<&'static str> {
    if a.callgrind != b.callgrind {
        Some("callgrind")
    } else if a.contexts != b.contexts {
        Some("contexts")
    } else if a.edges != b.edges {
        Some("edges")
    } else if a.reuse != b.reuse {
        Some("reuse")
    } else if a.lines != b.lines {
        Some("lines")
    } else if a.events != b.events {
        Some("events")
    } else if a.phases != b.phases {
        Some("phases")
    } else if a.memory != b.memory {
        Some("memory")
    } else {
        None
    }
}

/// Table-I conservation: every byte read lands in exactly one class;
/// every unique byte a function consumes from another one was produced
/// as someone's unique output; and the edges carry exactly those bytes.
pub fn conservation(checks: &mut Checks, input: &str, profile: &Profile) {
    let mut consumed = 0u64;
    let mut produced = 0u64;
    for row in &profile.contexts {
        let c = row.comm;
        let classified = c.input_unique_bytes
            + c.input_nonunique_bytes
            + c.local_unique_bytes
            + c.local_nonunique_bytes
            + c.inter_thread_unique_bytes
            + c.inter_thread_nonunique_bytes;
        if classified != c.bytes_read {
            checks.fail(
                input,
                format!("contexts[{}].bytes_read", row.ctx.0),
                format!("classified {classified} != bytes_read {}", c.bytes_read),
            );
        }
        consumed += c.input_unique_bytes + c.inter_thread_unique_bytes;
        produced += c.output_unique_bytes;
    }
    if produced != consumed {
        checks.fail(
            input,
            "output_unique_bytes",
            format!("outputs {produced} != cross-function unique inputs {consumed}"),
        );
    }
    let carried: u64 = profile.edges.iter().map(|e| e.unique_bytes).sum();
    if carried != consumed {
        checks.fail(
            input,
            "edges.unique_bytes",
            format!("edges carry {carried} != unique inputs {consumed}"),
        );
    }
}

/// 64-bit FNV-1a, the digest of every projection below.
pub fn fnv(text: &str) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// The Table-I projection of a profile: calls, ops and byte classes per
/// function (by name), then every edge. Independent of the optional
/// reuse/line/event/phase outputs and of shadow-memory statistics.
pub fn projection(profile: &Profile) -> String {
    let mut rows = profile.function_rows();
    rows.sort_by(|a, b| a.name.cmp(&b.name));
    let mut out = String::new();
    for row in &rows {
        let (c, k) = (row.comm, row.costs);
        let _ = writeln!(
            out,
            "fn {} calls={} ir={} ops={:?} in={}/{} local={}/{} out={}/{} it={}/{} r={} w={}",
            row.name,
            row.calls,
            k.ir,
            k.ops,
            c.input_unique_bytes,
            c.input_nonunique_bytes,
            c.local_unique_bytes,
            c.local_nonunique_bytes,
            c.output_unique_bytes,
            c.output_nonunique_bytes,
            c.inter_thread_unique_bytes,
            c.inter_thread_nonunique_bytes,
            c.bytes_read,
            c.bytes_written,
        );
    }
    let name = |ctx: sigil_callgrind::ContextId| {
        profile
            .callgrind
            .tree
            .node(ctx)
            .func
            .and_then(|f| profile.symbols().get_name(f))
            .unwrap_or("<root>")
            .to_owned()
    };
    for e in &profile.edges {
        let _ = writeln!(
            out,
            "edge {}#{} -> {}#{} {}/{}",
            name(e.producer),
            e.producer.0,
            name(e.consumer),
            e.consumer.0,
            e.unique_bytes,
            e.nonunique_bytes
        );
    }
    out
}

/// Digest of [`projection`].
pub fn digest(profile: &Profile) -> String {
    fnv(&projection(profile))
}

/// Expected digests per workload and input, as committed in
/// `expected.json` beside this file.
#[derive(Debug, Clone, Default)]
pub struct Expected(BTreeMap<String, BTreeMap<String, String>>);

impl Expected {
    pub fn load(path: &Path) -> Result<Expected, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut map = BTreeMap::new();
        for (workload, inputs) in json.get("digests").map_or(&[][..], Json::entries) {
            let inputs = inputs
                .entries()
                .iter()
                .filter_map(|(input, d)| Some((input.clone(), d.as_str()?.to_owned())))
                .collect();
            map.insert(workload.clone(), inputs);
        }
        Ok(Expected(map))
    }

    /// Builds the committed file's contents from computed digests.
    pub fn to_json(digests: &[(&str, Vec<(String, String)>)], seed: u64) -> Json {
        let mut all = Json::obj();
        for (workload, inputs) in digests {
            let mut entries = Json::obj();
            for (input, digest) in inputs {
                entries.set(input, digest.as_str());
            }
            all.set(workload, entries);
        }
        Json::obj()
            .with(
                "about",
                "FNV-1a digests of each input's Table-I projection (calls, ops and \
                 byte classes per function, plus edges) at simlarge and the default \
                 seed; regenerate with `benchmark bless`",
            )
            .with("seed", seed)
            .with("digests", all)
    }

    /// Compares one digest, counting a miss when it is absent or differs.
    pub fn check(&self, checks: &mut Checks, workload: &str, input: &str, got: &str) {
        match self.0.get(workload).and_then(|m| m.get(input)) {
            Some(want) if want == got => {}
            Some(want) => checks.fail(input, "digest", format!("{got} != expected {want}")),
            None => checks.fail(input, "digest", "no expected digest committed"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigil_core::SigilConfig;
    use sigil_workloads::{Benchmark, InputSize};

    fn small_profile() -> Profile {
        let input = crate::batch::Input::Suite {
            bench: Benchmark::Blackscholes,
            size: InputSize::SimSmall,
        };
        crate::batch::sigil_arm(&input, SigilConfig::default()).0
    }

    #[test]
    fn flipped_byte_count_is_counted_and_named() {
        let reference = small_profile();
        let mut checks = Checks::new("suite_serial");
        checks.attempt(4);
        conservation(&mut checks, "blackscholes", &reference);
        checks.same_profile("blackscholes", "the first pass", &reference, &reference);
        assert!(checks.failures.is_empty(), "{:?}", checks.failures);

        let mut flipped = reference.clone();
        let row = flipped
            .contexts
            .iter()
            .position(|c| c.comm.bytes_read > 0)
            .expect("some context reads");
        flipped.contexts[row].comm.local_unique_bytes += 1;
        conservation(&mut checks, "blackscholes", &flipped);
        checks.same_profile("blackscholes", "the first pass", &flipped, &reference);
        assert_eq!(checks.failed(), 2, "{:?}", checks.failures);
        let named: Vec<(&str, &str, &str)> = checks
            .failures
            .iter()
            .map(|f| (f.workload.as_str(), f.input.as_str(), f.field.as_str()))
            .collect();
        let bytes_read = format!("contexts[{row}].bytes_read");
        assert!(named.contains(&("suite_serial", "blackscholes", bytes_read.as_str())));
        assert!(named.contains(&("suite_serial", "blackscholes", "contexts")));
        assert_ne!(digest(&flipped), digest(&reference));
    }

    #[test]
    fn conservation_holds_on_threaded_and_limited_profiles() {
        for bench in [Benchmark::Mtpipe, Benchmark::Mtshare, Benchmark::Dedup] {
            let input = crate::batch::Input::Suite {
                bench,
                size: InputSize::SimSmall,
            };
            let limited = SigilConfig::default().with_shadow_limit(4);
            for config in [SigilConfig::default(), limited] {
                let profile = crate::batch::sigil_arm(&input, config).0;
                let mut checks = Checks::new("test");
                conservation(&mut checks, bench.name(), &profile);
                assert!(checks.failures.is_empty(), "{:?}", checks.failures);
            }
        }
    }
}
