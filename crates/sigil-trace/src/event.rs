//! The dynamic execution events exposed by the tracing substrate.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::ids::{FunctionId, ThreadId};

/// A guest (traced-program) memory address.
///
/// Addresses are opaque 64-bit values: the profiler never dereferences
/// them, it only uses them as shadow-memory keys, exactly as Valgrind-based
/// Sigil treats addresses of the instrumented binary.
pub type Addr = u64;

/// Classification of a retired compute operation.
///
/// Callgrind (and therefore Sigil) distinguishes integer from floating
/// point operations when counting the work a function performs; the
/// partitioning case study sums these into a per-function operation count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Integer ALU work (add/sub/logic/shift/compare).
    IntArith,
    /// Integer multiply/divide.
    IntMulDiv,
    /// Floating-point arithmetic.
    FloatArith,
    /// Address computation and other bookkeeping ops.
    Agu,
}

impl OpClass {
    /// All operation classes, in a stable order.
    pub const ALL: [OpClass; 4] = [
        OpClass::IntArith,
        OpClass::IntMulDiv,
        OpClass::FloatArith,
        OpClass::Agu,
    ];

    /// A stable dense index for per-class tables.
    pub const fn index(self) -> usize {
        match self {
            OpClass::IntArith => 0,
            OpClass::IntMulDiv => 1,
            OpClass::FloatArith => 2,
            OpClass::Agu => 3,
        }
    }

    /// Short mnemonic used in reports.
    pub const fn mnemonic(self) -> &'static str {
        match self {
            OpClass::IntArith => "ialu",
            OpClass::IntMulDiv => "imul",
            OpClass::FloatArith => "flop",
            OpClass::Agu => "agu",
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// One memory access: a contiguous byte range touched by the guest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemAccess {
    /// First byte address of the access.
    pub addr: Addr,
    /// Access width in bytes. Never zero for events produced by [`crate::Engine`].
    pub size: u32,
}

impl MemAccess {
    /// Creates a new access descriptor.
    #[inline]
    pub const fn new(addr: Addr, size: u32) -> Self {
        MemAccess { addr, size }
    }

    /// Number of bytes covered, as a slice-friendly `usize`.
    ///
    /// Hot-path fast path: profilers size shadow runs from this without
    /// materializing the [`bytes`](Self::bytes) iterator.
    #[inline]
    pub const fn len(self) -> usize {
        self.size as usize
    }

    /// Whether the access covers zero bytes.
    ///
    /// [`crate::Engine`] never emits empty accesses, but hand-built event
    /// streams can; profilers treat them as no-ops.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.size == 0
    }

    /// Iterates over every byte address covered by this access.
    #[inline]
    pub fn bytes(self) -> impl Iterator<Item = Addr> {
        self.addr..self.addr + u64::from(self.size)
    }

    /// The exclusive end address of the access.
    ///
    /// Meaningful only for accesses whose end fits in 64 bits (see
    /// [`MemAccess::checked_end`]); [`crate::Engine`] and the trace
    /// decoder admit no other.
    #[inline]
    pub const fn end(self) -> Addr {
        self.addr + self.size as u64
    }

    /// The exclusive end address, or `None` when it does not fit in 64
    /// bits: the access runs off the top of the address space.
    #[inline]
    pub const fn checked_end(self) -> Option<Addr> {
        self.addr.checked_add(self.size as u64)
    }
}

impl fmt::Display for MemAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:#x}; {}B]", self.addr, self.size)
    }
}

/// A single dynamic execution event.
///
/// This is the complete vocabulary the profilers consume. It corresponds to
/// the primitives Valgrind's IR exposes to tools: control transfer in and
/// out of functions, data memory traffic, retired compute operations, and
/// conditional-branch outcomes (used by the Callgrind-like cost model for
/// branch-misprediction estimation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RuntimeEvent {
    /// Control enters `callee` via a call instruction.
    Call {
        /// The function being entered.
        callee: FunctionId,
    },
    /// Control returns from the currently executing function to its caller.
    Return,
    /// The guest reads `access.size` bytes starting at `access.addr`.
    Read {
        /// The byte range read.
        access: MemAccess,
    },
    /// The guest writes `access.size` bytes starting at `access.addr`.
    Write {
        /// The byte range written.
        access: MemAccess,
    },
    /// The guest retires `count` compute operations of class `class`.
    Op {
        /// Kind of operation retired.
        class: OpClass,
        /// Number of operations retired (≥ 1).
        count: u32,
    },
    /// The guest executes a conditional branch identified by `site`.
    Branch {
        /// Static identity of the branch site (program counter analogue).
        site: u64,
        /// Whether the branch was taken.
        taken: bool,
    },
    /// The guest enters an operating-system call.
    ///
    /// Sigil "is able to capture the names of system calls and capture the
    /// input and output bytes but not see the detailed memory and
    /// communication used inside the system call"; profilers treat the
    /// region between `SyscallEnter` and `SyscallExit` as opaque apart from
    /// its boundary reads and writes.
    SyscallEnter {
        /// Symbolized name of the system call (interned like a function).
        name: FunctionId,
    },
    /// The guest returns from the current system call.
    SyscallExit,
    /// Execution continues on another thread: subsequent events belong to
    /// `thread`'s call stack until the next switch.
    ThreadSwitch {
        /// The thread now executing.
        thread: ThreadId,
    },
}

impl RuntimeEvent {
    /// Number of retired guest operations this event represents, used to
    /// advance the platform-independent [`crate::OpClock`].
    pub const fn retired_ops(self) -> u64 {
        match self {
            RuntimeEvent::Op { count, .. } => count as u64,
            RuntimeEvent::Read { .. } | RuntimeEvent::Write { .. } => 1,
            RuntimeEvent::Call { .. }
            | RuntimeEvent::Return
            | RuntimeEvent::Branch { .. }
            | RuntimeEvent::SyscallEnter { .. }
            | RuntimeEvent::SyscallExit
            | RuntimeEvent::ThreadSwitch { .. } => 1,
        }
    }

    /// Returns the memory access carried by this event, if any.
    pub const fn access(self) -> Option<MemAccess> {
        match self {
            RuntimeEvent::Read { access } | RuntimeEvent::Write { access } => Some(access),
            _ => None,
        }
    }
}

impl fmt::Display for RuntimeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeEvent::Call { callee } => write!(f, "call {callee}"),
            RuntimeEvent::Return => f.write_str("ret"),
            RuntimeEvent::Read { access } => write!(f, "read {access}"),
            RuntimeEvent::Write { access } => write!(f, "write {access}"),
            RuntimeEvent::Op { class, count } => write!(f, "op {class} x{count}"),
            RuntimeEvent::Branch { site, taken } => {
                write!(f, "br @{site:#x} {}", if *taken { "T" } else { "N" })
            }
            RuntimeEvent::SyscallEnter { name } => write!(f, "syscall {name}"),
            RuntimeEvent::SyscallExit => f.write_str("sysret"),
            RuntimeEvent::ThreadSwitch { thread } => write!(f, "switch {thread}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_access_iterates_every_byte() {
        let a = MemAccess::new(0x100, 4);
        let bytes: Vec<Addr> = a.bytes().collect();
        assert_eq!(bytes, vec![0x100, 0x101, 0x102, 0x103]);
        assert_eq!(a.end(), 0x104);
    }

    #[test]
    fn mem_access_len_matches_byte_iterator() {
        let a = MemAccess::new(0x100, 4);
        assert_eq!(a.len(), 4);
        assert_eq!(a.len(), a.bytes().count());
        assert!(!a.is_empty());
        let empty = MemAccess::new(0x100, 0);
        assert_eq!(empty.len(), 0);
        assert!(empty.is_empty());
        assert_eq!(empty.bytes().count(), 0);
        assert_eq!(empty.end(), empty.addr);
    }

    #[test]
    fn retired_ops_counts_op_batches() {
        let ev = RuntimeEvent::Op {
            class: OpClass::FloatArith,
            count: 17,
        };
        assert_eq!(ev.retired_ops(), 17);
        assert_eq!(RuntimeEvent::Return.retired_ops(), 1);
    }

    #[test]
    fn access_extraction() {
        let acc = MemAccess::new(8, 8);
        assert_eq!(RuntimeEvent::Read { access: acc }.access(), Some(acc));
        assert_eq!(RuntimeEvent::Write { access: acc }.access(), Some(acc));
        assert_eq!(RuntimeEvent::Return.access(), None);
    }

    #[test]
    fn op_class_indices_are_dense_and_unique() {
        let mut seen = [false; OpClass::ALL.len()];
        for class in OpClass::ALL {
            assert!(!seen[class.index()], "duplicate index for {class}");
            seen[class.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn event_display_is_nonempty() {
        let events = [
            RuntimeEvent::Call {
                callee: FunctionId::from_raw(1),
            },
            RuntimeEvent::Return,
            RuntimeEvent::Read {
                access: MemAccess::new(0, 1),
            },
            RuntimeEvent::Branch {
                site: 0x40,
                taken: true,
            },
        ];
        for ev in events {
            assert!(!ev.to_string().is_empty());
        }
    }
}
