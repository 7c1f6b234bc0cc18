//! Error type for the tracing layer.

use std::error::Error;
use std::fmt;

use crate::Addr;

/// Errors produced while driving a trace through [`crate::Engine`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// A `Return` event was emitted with no active function frame.
    ReturnWithoutCall,
    /// A `SyscallExit` event was emitted with no active system call.
    SyscallExitWithoutEnter,
    /// The trace finished while `depth` frames were still open.
    UnbalancedTrace {
        /// Number of frames still open at end of trace.
        depth: usize,
    },
    /// A memory access with zero size was emitted.
    EmptyAccess,
    /// A memory access whose end does not fit in 64 bits was emitted: it
    /// runs off the top of the address space.
    AccessPastAddressSpace {
        /// First byte address of the access.
        addr: Addr,
        /// Access width in bytes.
        size: u32,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::ReturnWithoutCall => f.write_str("return event without an active call"),
            TraceError::SyscallExitWithoutEnter => {
                f.write_str("syscall exit without a matching syscall enter")
            }
            TraceError::UnbalancedTrace { depth } => {
                write!(f, "trace ended with {depth} unclosed call frames")
            }
            TraceError::EmptyAccess => f.write_str("memory access with zero size"),
            TraceError::AccessPastAddressSpace { addr, size } => write!(
                f,
                "memory access [{addr:#x}; {size}B] runs past the end of the 64-bit address space"
            ),
        }
    }
}

impl Error for TraceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_nonempty() {
        let errors = [
            TraceError::ReturnWithoutCall,
            TraceError::SyscallExitWithoutEnter,
            TraceError::UnbalancedTrace { depth: 3 },
            TraceError::EmptyAccess,
            TraceError::AccessPastAddressSpace {
                addr: u64::MAX - 3,
                size: 8,
            },
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }
}
