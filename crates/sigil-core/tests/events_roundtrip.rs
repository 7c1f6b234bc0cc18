//! Round-trip properties of the event-file text format (paper §II-C2):
//! `to_text` → `from_text` → `to_text` must be byte-identical for any
//! event file, and `from_text` must reject malformed input with a
//! located error — never a panic — on arbitrary garbage.
//!
//! The same contract extends to the chunk-indexed binary container
//! (`events_bin`), for both record kinds it holds: encode → decode →
//! encode must be byte-identical, binary and text must agree
//! record-for-record, the trailer index must match a full scan, and
//! arbitrary or corrupted bytes must fail with a located `BinError` —
//! never a panic.

use std::fmt;

use proptest::prelude::*;
use sigil_callgrind::ContextId;
use sigil_core::events_bin::{
    decode_chunk_payload, decode_events, encode_events_chunked, BinError, BinReader, BinWriter,
    ChunkRecord, ChunkStream, RecordKind,
};
use sigil_core::{EventFile, EventRecord, TraceRecord};
use sigil_trace::{CallNumber, FunctionId, MemAccess, OpClass, RuntimeEvent, ThreadId};

fn record_strategy() -> impl Strategy<Value = EventRecord> {
    // Small call/context spaces so adjacent transfers sometimes share a
    // (from, to) pair and exercise coalescing on re-append.
    let call = (0u64..16).prop_map(CallNumber::from_raw);
    let ctx = (0u32..8).prop_map(ContextId);
    prop_oneof![
        (call.clone(), call.clone(), ctx.clone()).prop_map(|(parent_call, call, ctx)| {
            EventRecord::Call {
                parent_call,
                call,
                ctx,
            }
        }),
        (call.clone(), ctx, 1u64..1 << 40).prop_map(|(call, ctx, ops)| EventRecord::Compute {
            call,
            ctx,
            ops
        }),
        (call.clone(), call, 1u64..1 << 40).prop_map(|(from_call, to_call, bytes)| {
            EventRecord::Transfer {
                from_call,
                to_call,
                bytes,
            }
        }),
    ]
}

fn event_strategy() -> impl Strategy<Value = RuntimeEvent> {
    let access = (any::<u64>(), 1u32..256).prop_map(|(addr, size)| MemAccess::new(addr, size));
    let class = (0usize..4).prop_map(|i| OpClass::ALL[i]);
    prop_oneof![
        (0u32..64).prop_map(|id| RuntimeEvent::Call {
            callee: FunctionId::from_raw(id)
        }),
        Just(RuntimeEvent::Return),
        access
            .clone()
            .prop_map(|access| RuntimeEvent::Read { access }),
        access.prop_map(|access| RuntimeEvent::Write { access }),
        (class, 1u32..1 << 20).prop_map(|(class, count)| RuntimeEvent::Op { class, count }),
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

/// Trace records as `sigil trace` writes them: symbol definitions in
/// interning order, then runtime events.
fn trace_strategy(max_events: usize) -> impl Strategy<Value = Vec<TraceRecord>> {
    (
        prop::collection::vec(0u64..1_000_000, 0..8),
        prop::collection::vec(event_strategy(), 0..max_events),
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

/// Writes `records` as one container of their kind.
fn encode_kind<T: ChunkRecord>(records: &[T], chunk_records: usize) -> Vec<u8> {
    let mut writer = BinWriter::with_chunk_records(Vec::new(), chunk_records).expect("vec");
    for record in records {
        writer.push(record).expect("vec");
    }
    writer.finish().expect("vec").1
}

/// Streams a container of kind `T` back into memory.
fn decode_kind<T: ChunkRecord + Clone>(bytes: &[u8]) -> Result<Vec<T>, BinError> {
    let mut stream = ChunkStream::<_, T>::new(bytes)?;
    let mut out = Vec::new();
    while let Some(records) = stream.next_chunk()? {
        out.extend_from_slice(records);
    }
    Ok(out)
}

/// A corrupted container must fail with an error located inside the
/// input, or (`harmless`) decode to exactly the original records.
fn check_corrupt<T: ChunkRecord + PartialEq + fmt::Debug>(
    result: Result<Vec<T>, BinError>,
    len: usize,
    harmless: Option<&[T]>,
) -> Result<(), TestCaseError> {
    match result {
        Ok(decoded) => match harmless {
            Some(original) => prop_assert_eq!(decoded.as_slice(), original),
            None => prop_assert!(false, "corruption decoded cleanly"),
        },
        Err(BinError::Format {
            offset, message, ..
        }) => {
            prop_assert!(offset <= len as u64, "offset {} past {} bytes", offset, len);
            prop_assert!(!message.is_empty());
        }
        Err(BinError::Io(_)) => {}
    }
    Ok(())
}

/// Builds an [`EventFile`] through the public push API (so adjacent
/// transfers coalesce exactly as production writers produce them).
fn build_file(records: &[EventRecord]) -> EventFile {
    let mut file = EventFile::new();
    for record in records {
        match *record {
            EventRecord::Call {
                parent_call,
                call,
                ctx,
            } => file.push_call(parent_call, call, ctx),
            EventRecord::Compute { call, ctx, ops } => file.push_compute(call, ctx, ops),
            EventRecord::Transfer {
                from_call,
                to_call,
                bytes,
            } => file.push_transfer(from_call, to_call, bytes),
        }
    }
    file
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// write → parse → re-write is byte-identical, and the parsed file
    /// compares equal to the original.
    #[test]
    fn text_round_trip_is_byte_identical(
        records in prop::collection::vec(record_strategy(), 0..120),
    ) {
        let file = build_file(&records);
        let text = file.to_text();
        let parsed = EventFile::from_text(&text)
            .map_err(|(line, msg)| TestCaseError::fail(format!("line {line}: {msg}")))?;
        prop_assert_eq!(&parsed, &file, "parse lost information");
        prop_assert_eq!(parsed.to_text(), text, "re-write not byte-identical");
    }

    /// Parsing tolerates the documented noise (blank lines, `#` comments,
    /// leading/trailing spaces) without changing the payload.
    #[test]
    fn comments_and_whitespace_are_transparent(
        records in prop::collection::vec(record_strategy(), 1..40),
    ) {
        let file = build_file(&records);
        let mut noisy = String::from("# generated by sigil\n\n");
        for line in file.to_text().lines() {
            noisy.push_str("  ");
            noisy.push_str(line);
            noisy.push_str("  \n# trailing comment\n\n");
        }
        let parsed = EventFile::from_text(&noisy)
            .map_err(|(line, msg)| TestCaseError::fail(format!("line {line}: {msg}")))?;
        prop_assert_eq!(parsed, file);
    }

    /// `from_text` on arbitrary byte soup returns `Ok` or a located
    /// `Err` — it never panics, and errors point at a real line.
    #[test]
    fn arbitrary_input_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        match EventFile::from_text(&text) {
            Ok(_) => {}
            Err((line, msg)) => {
                prop_assert!(line >= 1 && line <= text.lines().count().max(1));
                prop_assert!(!msg.is_empty());
            }
        }
    }

    /// A single corrupted line fails with that line's number, whatever
    /// valid records surround it.
    #[test]
    fn corrupted_line_is_located(
        records in prop::collection::vec(record_strategy(), 0..20),
        corrupt_pick in 0usize..6,
        position in 0usize..21,
    ) {
        // Each corruption is known-malformed (covered by the unit test
        // below), so the parser must stop exactly where it is inserted.
        let corrupt = [
            "BOGUS x=1",
            "CALL parent=0 call=1",
            "COMP call=a ctx=0 ops=1",
            "XFER from=1 to=2 bytes=",
            "CALL parent=0 call=1 ctx=99999999999",
            "COMP ctx=0 call=1 ops=1",
        ][corrupt_pick];
        let file = build_file(&records);
        let mut lines: Vec<String> = file.to_text().lines().map(str::to_owned).collect();
        let position = position.min(lines.len());
        lines.insert(position, corrupt.to_owned());
        let (line, msg) = EventFile::from_text(&lines.join("\n"))
            .expect_err("corrupted input must not parse");
        prop_assert_eq!(line, position + 1);
        prop_assert!(!msg.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// encode → decode → encode is byte-identical for any event file and
    /// any chunk size, and the decoded file compares equal (chunking is
    /// framing only — it never leaks into the payload).
    #[test]
    fn binary_round_trip_is_byte_identical(
        records in prop::collection::vec(record_strategy(), 0..160),
        chunk_records in 1usize..64,
    ) {
        let file = build_file(&records);
        let bytes = encode_events_chunked(&file, chunk_records);
        let decoded = decode_events(&bytes)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&decoded, &file, "binary decode lost information");
        prop_assert_eq!(
            encode_events_chunked(&decoded, chunk_records),
            bytes,
            "re-encode not byte-identical"
        );
    }

    /// Binary → text → binary agrees with the direct binary encoding:
    /// both representations carry exactly the same records.
    #[test]
    fn binary_and_text_agree(
        records in prop::collection::vec(record_strategy(), 0..120),
        chunk_records in 1usize..48,
    ) {
        let file = build_file(&records);
        let bytes = encode_events_chunked(&file, chunk_records);
        let via_binary = decode_events(&bytes)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let via_text = EventFile::from_text(&via_binary.to_text())
            .map_err(|(line, msg)| TestCaseError::fail(format!("line {line}: {msg}")))?;
        prop_assert_eq!(&via_text, &file);
        prop_assert_eq!(encode_events_chunked(&via_text, chunk_records), bytes);
    }

    /// The trailer index answers without decoding: per-chunk record,
    /// call, op and byte counts summed over the index must equal a full
    /// scan of the decoded records.
    #[test]
    fn trailer_index_matches_full_scan(
        records in prop::collection::vec(record_strategy(), 0..160),
        chunk_records in 1usize..32,
    ) {
        let file = build_file(&records);
        let bytes = encode_events_chunked(&file, chunk_records);
        let reader = BinReader::parse(&bytes)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let totals = reader.totals();
        let (mut n, mut calls, mut ops, mut xfer) = (0u64, 0u64, 0u64, 0u64);
        for record in file.records() {
            n += 1;
            match *record {
                EventRecord::Call { .. } => calls += 1,
                EventRecord::Compute { ops: o, .. } => ops += o,
                EventRecord::Transfer { bytes: b, .. } => xfer += b,
            }
        }
        prop_assert_eq!(totals.records, n);
        prop_assert_eq!(totals.call_records, calls);
        prop_assert_eq!(totals.compute_ops, ops);
        prop_assert_eq!(totals.transfer_bytes, xfer);
        let streamed = ChunkStream::new(bytes.as_slice())
            .and_then(|stream| stream.for_each(|_: &EventRecord| {}))
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(streamed, totals);
    }

    /// Trace records round-trip through a container of the trace kind,
    /// byte-identically, and the trailer counts them without the event
    /// totals.
    #[test]
    fn trace_round_trip_is_byte_identical(
        records in trace_strategy(160),
        chunk_records in 1usize..64,
    ) {
        let bytes = encode_kind(&records, chunk_records);
        let decoded: Vec<TraceRecord> = decode_kind(&bytes)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&decoded, &records, "decode lost information");
        prop_assert_eq!(encode_kind(&decoded, chunk_records), bytes, "re-encode not byte-identical");
        let reader = BinReader::parse(&bytes).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(reader.kind(), RecordKind::Trace);
        let totals = reader.totals();
        prop_assert_eq!(totals.records, records.len() as u64);
        prop_assert_eq!((totals.call_records, totals.compute_ops, totals.transfer_bytes), (0, 0, 0));
    }

    /// Arbitrary byte soup returns `Ok` or a located `BinError` — it never
    /// panics and never allocates unboundedly — read as a whole container
    /// of either kind, or as one chunk payload of either kind.
    #[test]
    fn arbitrary_binary_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
        count in 0u32..64,
        base in any::<u32>(),
    ) {
        for result in [
            decode_events(&bytes).map(|_| ()),
            decode_kind::<TraceRecord>(&bytes).map(|_| ()),
        ] {
            if let Err(BinError::Format { offset, message, .. }) = result {
                prop_assert!(offset <= bytes.len() as u64);
                prop_assert!(!message.is_empty());
            }
        }
        let base = u64::from(base);
        for result in [
            decode_chunk_payload::<EventRecord>(&bytes, count, base).map(|_| ()),
            decode_chunk_payload::<TraceRecord>(&bytes, count, base).map(|_| ()),
        ] {
            if let Err(BinError::Format { offset, message, .. }) = result {
                prop_assert!(offset >= base && offset <= base + bytes.len() as u64);
                prop_assert!(!message.is_empty());
            }
        }
    }

    /// A single flipped bit anywhere in a valid container of either kind
    /// is either detected (located error) or harmless (decodes to the
    /// identical records — e.g. a flip in the advisory chunk-target
    /// field).
    #[test]
    fn bit_flips_are_detected_or_harmless(
        records in prop::collection::vec(record_strategy(), 1..80),
        trace in trace_strategy(80),
        chunk_records in 1usize..32,
        flip in any::<usize>(),
        bit in 0u8..8,
    ) {
        let file = build_file(&records);
        let mut bytes = encode_events_chunked(&file, chunk_records);
        let pos = flip % bytes.len();
        bytes[pos] ^= 1 << bit;
        let decoded = decode_events(&bytes).map(|f| f.records().to_vec());
        check_corrupt(decoded, bytes.len(), Some(file.records()))?;

        let mut bytes = encode_kind(&trace, chunk_records);
        let pos = flip % bytes.len();
        bytes[pos] ^= 1 << bit;
        check_corrupt(decode_kind(&bytes), bytes.len(), Some(trace.as_slice()))?;
    }

    /// Every truncation of a valid container of either kind fails with a
    /// located error (a prefix must never silently decode as a complete
    /// file).
    #[test]
    fn truncation_is_always_detected(
        records in prop::collection::vec(record_strategy(), 1..60),
        trace in trace_strategy(60),
        chunk_records in 1usize..16,
        cut in any::<usize>(),
    ) {
        let file = build_file(&records);
        let bytes = encode_events_chunked(&file, chunk_records);
        let at = cut % bytes.len();
        let decoded = decode_events(&bytes[..at]).map(|f| f.records().to_vec());
        check_corrupt(decoded, at, None)?;

        let bytes = encode_kind(&trace, chunk_records);
        let at = cut % bytes.len();
        check_corrupt(decode_kind::<TraceRecord>(&bytes[..at]), at, None)?;
    }
}

/// Header damage is located for either kind: the magic at byte 0, the
/// version at byte 4, the record kind at byte 6.
#[test]
fn header_damage_is_located_for_both_kinds() {
    let trace = vec![TraceRecord::Sym {
        id: 0,
        name: "main".to_owned(),
    }];
    let containers = [
        encode_events_chunked(&build_file(&[]), 4),
        encode_kind(&trace, 4),
    ];
    for clean in containers {
        for (at, value, needle) in [
            (0, b'X', "magic"),
            (4, 99, "version"),
            (6, 7, "record kind"),
        ] {
            let mut bytes = clean.clone();
            bytes[at] = value;
            for result in [
                decode_events(&bytes).map(|_| ()),
                decode_kind::<TraceRecord>(&bytes).map(|_| ()),
                BinReader::parse(&bytes).map(|_| ()),
            ] {
                let Err(BinError::Format {
                    offset, message, ..
                }) = result
                else {
                    panic!("damage at byte {at} went undetected");
                };
                assert_eq!(offset, at as u64, "{message}");
                assert!(message.contains(needle), "{message}");
            }
        }
    }
}

/// A recorded trace costs at most its fixed-width records plus a small
/// framing overhead: well under serde_json's footprint.
#[test]
fn trace_encoding_is_compact() {
    let mut engine = sigil_trace::Engine::new(sigil_trace::observer::RecordingObserver::new());
    engine.scoped_named("main", |e| {
        e.write(0xdead_beef_0000, 8);
        e.op(OpClass::FloatArith, 1000);
        e.branch(0x42, true);
        e.syscall("sys_write", |e| e.read(0xdead_beef_0000, 8));
    });
    let (recorder, symbols) = engine.finish_with_symbols();
    let events = recorder.into_events();
    let records: Vec<TraceRecord> = TraceRecord::of_trace(&symbols, &events).collect();
    let bytes = encode_kind(&records, 4096);
    assert!(
        bytes.len() < events.len() * 16 + 128,
        "{} bytes",
        bytes.len()
    );
}

/// Malformed variants of each record kind error (with the offending line
/// number) instead of panicking — the fixed cases the proptests above
/// are unlikely to hit verbatim.
#[test]
fn malformed_lines_error_cleanly() {
    let cases = [
        "CALL parent=0 call=1",                             // missing field
        "CALL parent=0 call=1 ctx=5000000000",              // ctx out of u32 range
        "CALL parent=0 call=1 ctx=-1",                      // negative number
        "COMP call=1 ctx=0 ops=99999999999999999999999999", // overflow
        "COMP call=1 ops=5 ctx=0",                          // fields out of order
        "XFER from=1 to=2 bytes=",                          // empty value
        "XFER from=1 to=2 count=4",                         // wrong key
        "TRANSFER from=1 to=2 bytes=4",                     // unknown record kind
    ];
    for case in cases {
        let input = format!("COMP call=1 ctx=0 ops=1\n{case}\n");
        let (line, msg) = EventFile::from_text(&input).expect_err(case);
        assert_eq!(line, 2, "wrong line for {case:?}: {msg}");
        assert!(!msg.is_empty());
    }
}
