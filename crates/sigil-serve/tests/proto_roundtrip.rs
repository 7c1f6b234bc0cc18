//! Round-trip and robustness properties of the `sigil-serve` wire
//! protocol, mirroring the contract the repo's event formats already
//! hold: encode → decode → encode must be byte-identical, arbitrary
//! byte soup must never panic, and truncated or bit-flipped frames must
//! fail with an error located at the frame's connection offset.
//!
//! The frame checksum covers the kind/aux/length header prefix *and*
//! the payload, so — unlike the advisory fields of `.evb` files — every
//! single-bit flip anywhere in a frame must be *detected*, not merely
//! harmless.

use proptest::prelude::*;
use sigil_core::events_bin::{decode_chunk_payload, encode_chunk_payload};
use sigil_core::TraceRecord;
use sigil_serve::{Frame, FrameKind, ProtoError, FRAME_HEADER_LEN};
use sigil_trace::{FunctionId, MemAccess, OpClass, RuntimeEvent, ThreadId};

fn kind_strategy() -> impl Strategy<Value = FrameKind> {
    prop_oneof![
        Just(FrameKind::Hello),
        Just(FrameKind::Welcome),
        Just(FrameKind::Chunk),
        Just(FrameKind::Credit),
        Just(FrameKind::Status),
        Just(FrameKind::StatusOk),
        Just(FrameKind::Snapshot),
        Just(FrameKind::SnapshotOk),
        Just(FrameKind::Finish),
        Just(FrameKind::Result),
        Just(FrameKind::Error),
        Just(FrameKind::Shutdown),
        Just(FrameKind::ShutdownOk),
    ]
}

fn frame_strategy() -> impl Strategy<Value = Frame> {
    (
        kind_strategy(),
        any::<u32>(),
        prop::collection::vec(any::<u8>(), 0..200),
    )
        .prop_map(|(kind, aux, payload)| Frame { kind, aux, payload })
}

fn event_strategy() -> impl Strategy<Value = RuntimeEvent> {
    let access = (any::<u64>(), 1u32..256).prop_map(|(addr, size)| MemAccess::new(addr, size));
    prop_oneof![
        (0u32..64).prop_map(|id| RuntimeEvent::Call {
            callee: FunctionId::from_raw(id)
        }),
        Just(RuntimeEvent::Return),
        access
            .clone()
            .prop_map(|access| RuntimeEvent::Read { access }),
        access.prop_map(|access| RuntimeEvent::Write { access }),
        (
            prop_oneof![
                Just(OpClass::IntArith),
                Just(OpClass::IntMulDiv),
                Just(OpClass::FloatArith),
                Just(OpClass::Agu)
            ],
            1u32..1 << 20
        )
            .prop_map(|(class, count)| RuntimeEvent::Op { class, count }),
        (any::<u64>(), any::<bool>())
            .prop_map(|(site, taken)| RuntimeEvent::Branch { site, taken }),
        (0u32..64).prop_map(|id| RuntimeEvent::SyscallEnter {
            name: FunctionId::from_raw(id)
        }),
        Just(RuntimeEvent::SyscallExit),
        (0u32..8).prop_map(|t| RuntimeEvent::ThreadSwitch {
            thread: ThreadId::from_raw(t)
        }),
    ]
}

/// Trace-chunk records with symbol definitions in interning order,
/// the way `Client::stream_trace` produces them.
fn trace_records_strategy() -> impl Strategy<Value = Vec<TraceRecord>> {
    (
        prop::collection::vec(0u64..1_000_000, 0..8),
        prop::collection::vec(event_strategy(), 0..60),
    )
        .prop_map(|(names, events)| {
            let mut out: Vec<TraceRecord> = names
                .into_iter()
                .enumerate()
                .map(|(id, tag)| TraceRecord::Sym {
                    id: id as u32,
                    name: format!("sym_{tag}::f{id}"),
                })
                .collect();
            out.extend(events.into_iter().map(TraceRecord::Event));
            out
        })
}

/// Decodes a trace-session CHUNK payload as the daemon does, errors
/// converted to the wire's.
fn decode_trace(payload: &[u8], count: u32, base: u64) -> Result<Vec<TraceRecord>, ProtoError> {
    Ok(decode_chunk_payload(payload, count, base)?)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// encode → read_from → encode is byte-identical for any frame, and
    /// the connection offset advances by exactly the frame's length.
    #[test]
    fn frame_round_trip_is_byte_identical(frame in frame_strategy(), base in any::<u32>()) {
        let bytes = frame.encode();
        let mut offset = u64::from(base);
        let decoded = Frame::read_from(&mut bytes.as_slice(), &mut offset)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&decoded, &frame, "decode lost information");
        prop_assert_eq!(decoded.encode(), bytes, "re-encode not byte-identical");
        prop_assert_eq!(offset, u64::from(base) + FRAME_HEADER_LEN as u64 + frame.payload.len() as u64);
    }

    /// A stream of frames decodes back frame-for-frame, with offsets
    /// tracking the exact byte position of every frame boundary.
    #[test]
    fn frame_stream_round_trips(frames in prop::collection::vec(frame_strategy(), 1..8)) {
        let mut bytes = Vec::new();
        for frame in &frames {
            bytes.extend_from_slice(&frame.encode());
        }
        let mut cursor = bytes.as_slice();
        let mut offset = 0u64;
        for (i, expected) in frames.iter().enumerate() {
            let decoded = Frame::read_from(&mut cursor, &mut offset)
                .map_err(|e| TestCaseError::fail(format!("frame {i}: {e}")))?;
            prop_assert_eq!(&decoded, expected, "frame {} diverged", i);
        }
        prop_assert_eq!(offset, bytes.len() as u64, "offsets drifted off the byte stream");
    }

    /// `read_from` on arbitrary byte soup returns `Ok` or an error — it
    /// never panics, and format errors are located at the frame start.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let mut offset = 7u64;
        match Frame::read_from(&mut bytes.as_slice(), &mut offset) {
            Ok(frame) => prop_assert!(FRAME_HEADER_LEN + frame.payload.len() <= bytes.len()),
            Err(ProtoError::Format { offset: at, message }) => {
                prop_assert_eq!(at, 7, "format errors locate the frame start");
                prop_assert!(!message.is_empty());
            }
            Err(ProtoError::Io(_)) => {}
        }
    }

    /// Every strict truncation of a valid frame fails with an error
    /// located at the frame's start — a prefix never decodes cleanly.
    #[test]
    fn truncation_is_always_detected(frame in frame_strategy(), cut in any::<usize>()) {
        let bytes = frame.encode();
        let cut = cut % bytes.len();
        let mut offset = 42u64;
        match Frame::read_from(&mut &bytes[..cut], &mut offset) {
            Ok(_) => prop_assert!(false, "truncation at {} decoded cleanly", cut),
            Err(ProtoError::Format { offset: at, message }) => {
                prop_assert_eq!(at, 42);
                prop_assert!(message.contains("truncated") || message.contains("checksum"),
                    "unexpected truncation message: {}", message);
            }
            Err(ProtoError::Io(_)) => {}
        }
    }

    /// Every single-bit flip anywhere in a frame — header, checksum
    /// field, or payload — is detected with a located error. The
    /// checksum covers header prefix and payload, and a flip inside the
    /// stored checksum itself mismatches the recomputation.
    #[test]
    fn bit_flips_are_always_detected(
        frame in frame_strategy(),
        flip in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut bytes = frame.encode();
        let pos = flip % bytes.len();
        bytes[pos] ^= 1 << bit;
        let mut offset = 0u64;
        match Frame::read_from(&mut bytes.as_slice(), &mut offset) {
            Ok(decoded) => prop_assert!(
                false,
                "flip at byte {} bit {} went undetected (decoded {:?})", pos, bit, decoded.kind
            ),
            Err(ProtoError::Format { offset: at, message }) => {
                prop_assert_eq!(at, 0);
                prop_assert!(!message.is_empty());
            }
            Err(ProtoError::Io(_)) => {}
        }
    }

    /// Trace-chunk payloads round-trip record-for-record, and re-encode
    /// byte-identically.
    #[test]
    fn trace_records_round_trip(records in trace_records_strategy()) {
        let payload = encode_chunk_payload(&records);
        let decoded = decode_trace(&payload, records.len() as u32, 0)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&decoded, &records, "decode lost information");
        prop_assert_eq!(encode_chunk_payload(&decoded), payload, "re-encode not byte-identical");
    }

    /// A wrong record count or a truncated trace payload fails with a
    /// located error — never a panic, never a silent partial decode.
    #[test]
    fn trace_payload_corruption_is_located(
        records in trace_records_strategy(),
        cut in any::<usize>(),
        base in any::<u32>(),
    ) {
        if records.is_empty() {
            // Nothing to corrupt; the vendored proptest has no
            // `prop_assume`, so accept the case outright.
            return Ok(());
        }
        let payload = encode_chunk_payload(&records);
        let count = records.len() as u32;
        let base = u64::from(base);
        for wrong in [count - 1, count + 1] {
            match decode_trace(&payload, wrong, base) {
                Ok(_) => prop_assert!(false, "count {} decoded cleanly", wrong),
                Err(ProtoError::Format { offset, message }) => {
                    prop_assert!(offset >= base && offset <= base + payload.len() as u64);
                    prop_assert!(!message.is_empty());
                }
                Err(ProtoError::Io(_)) => {}
            }
        }
        let cut = cut % payload.len();
        if let Err(ProtoError::Format { offset, message }) =
            decode_trace(&payload[..cut], count, base)
        {
            prop_assert!(offset >= base && offset <= base + cut as u64);
            prop_assert!(!message.is_empty());
        } else if decode_trace(&payload[..cut], count, base).is_ok() {
            prop_assert!(false, "truncation at {} decoded cleanly", cut);
        }
    }
}
