//! Integration test: the chunk-indexed binary event format and the
//! streaming analysis folds, checked against the whole workload suite.
//!
//! For every built-in benchmark (serial and sharded event recording):
//!
//! * text → binary → text and binary → decode → binary are lossless
//!   (byte-identical re-encodings),
//! * the trailer index agrees with a full decode, and no reader accepts
//!   bytes after the footer,
//! * the streaming critical-path fold over binary chunks and the
//!   in-memory [`CriticalPath`] both reproduce the naive reference graph's
//!   numbers ([`OracleGraph`]) exactly, and
//! * the streaming CDFG fold reproduces the in-memory event CDFG —
//!   nodes, edges and inclusive costs — exactly.

use sigil::analysis::critical_path::{CommModel, CriticalPath};
use sigil::analysis::streaming::{
    critical_path_from_bin, event_cdfg_from_bin, phase_profile_from_bin, EventCdfg,
};
use sigil::core::events_bin::{decode_events, encode_events_chunked, BinReader, ChunkStream};
use sigil::core::{EventFile, EventRecord, Profile, SigilConfig, SigilProfiler};
use sigil::trace::Engine;
use sigil::workloads::{Benchmark, InputSize};
use sigil_oracle::OracleGraph;

fn events_profile(bench: Benchmark, config: SigilConfig) -> Profile {
    let mut engine = Engine::new(SigilProfiler::new(config.with_events()));
    bench.run(InputSize::SimSmall, &mut engine);
    let (profiler, symbols) = engine.finish_with_symbols();
    profiler.into_profile(symbols)
}

fn event_file(bench: Benchmark, config: SigilConfig) -> EventFile {
    events_profile(bench, config)
        .events
        .expect("events recording was enabled")
}

/// Chunk sizes stressing the framing: single-record chunks, a size
/// smaller than most files, and one larger than every file (one chunk).
const CHUNK_SIZES: [usize; 3] = [1, 257, 1 << 20];

#[test]
fn binary_round_trip_is_lossless_for_every_benchmark() {
    for bench in Benchmark::ALL {
        let events = event_file(bench, SigilConfig::default());
        let text = events.to_text();
        for chunk in CHUNK_SIZES {
            let bytes = encode_events_chunked(&events, chunk);
            let decoded =
                decode_events(&bytes).unwrap_or_else(|e| panic!("{bench} chunk={chunk}: {e}"));
            assert_eq!(
                decoded, events,
                "{bench} chunk={chunk}: decode lost records"
            );
            assert_eq!(
                decoded.to_text(),
                text,
                "{bench} chunk={chunk}: text differs after binary round trip"
            );
            assert_eq!(
                encode_events_chunked(&decoded, chunk),
                bytes,
                "{bench} chunk={chunk}: re-encode not byte-identical"
            );
        }
    }
}

#[test]
fn trailer_index_matches_decode_for_every_benchmark() {
    for bench in Benchmark::ALL {
        let events = event_file(bench, SigilConfig::default());
        let bytes = encode_events_chunked(&events, 509);
        let reader = BinReader::parse(&bytes).unwrap_or_else(|e| panic!("{bench}: {e}"));
        let totals = reader.totals();
        assert_eq!(totals.records, events.len() as u64, "{bench}");
        // A stream pass checks every index entry and the footer against
        // the records it decoded.
        let streamed = ChunkStream::new(bytes.as_slice())
            .and_then(|stream| stream.for_each(|_: &EventRecord| {}))
            .unwrap_or_else(|e| panic!("{bench}: {e}"));
        assert_eq!(
            streamed, totals,
            "{bench}: full scan disagrees with trailer"
        );
    }
}

#[test]
fn bytes_after_the_footer_fail_every_reader() {
    let events = event_file(Benchmark::Vips, SigilConfig::default());
    let mut bytes = encode_events_chunked(&events, 509);
    bytes.extend_from_slice(&[0u8; 8]);
    assert!(decode_events(&bytes).is_err(), "decode_events");
    assert!(
        critical_path_from_bin(&bytes[..], &CommModel::free()).is_err(),
        "critical_path_from_bin"
    );
    assert!(
        event_cdfg_from_bin(&bytes[..]).is_err(),
        "event_cdfg_from_bin"
    );
    assert!(
        phase_profile_from_bin(&bytes[..], 500).is_err(),
        "phase_profile_from_bin"
    );
}

/// `(serial_ops, length_ops)` of the naive Figure 3 reference graph.
fn reference_path(events: &EventFile) -> (u64, u64) {
    let reference = OracleGraph::build(events.records(), &CommModel::free());
    (reference.serial_ops(), reference.length_ops())
}

#[test]
fn streaming_critical_path_matches_in_memory_for_every_benchmark() {
    for bench in Benchmark::ALL {
        let profile = events_profile(bench, SigilConfig::default());
        let in_memory =
            CriticalPath::from_profile(&profile).unwrap_or_else(|e| panic!("{bench}: {e}"));
        let events = profile.events.as_ref().expect("events recorded");
        let reference = reference_path(events);
        assert_eq!(
            (in_memory.serial_ops, in_memory.length_ops),
            reference,
            "{bench}: in-memory path vs the reference"
        );
        for chunk in CHUNK_SIZES {
            let bytes = encode_events_chunked(events, chunk);
            let streamed = critical_path_from_bin(&bytes[..], &CommModel::free())
                .unwrap_or_else(|e| panic!("{bench} chunk={chunk}: {e}"));
            assert_eq!(
                (streamed.serial_ops, streamed.length_ops),
                reference,
                "{bench} chunk={chunk}: streamed path vs the reference"
            );
        }
    }
}

#[test]
fn streaming_cdfg_matches_in_memory_for_every_benchmark() {
    for bench in Benchmark::ALL {
        let events = event_file(bench, SigilConfig::default());
        let in_memory = EventCdfg::from_records(events.records());
        let bytes = encode_events_chunked(&events, 313);
        let streamed = event_cdfg_from_bin(&bytes[..]).unwrap_or_else(|e| panic!("{bench}: {e}"));
        assert_eq!(streamed, in_memory, "{bench}: streamed CDFG differs");
        assert_eq!(
            streamed.inclusive(),
            in_memory.inclusive(),
            "{bench}: inclusive costs differ"
        );
    }
}

#[test]
fn sharded_event_recording_round_trips_and_matches() {
    for bench in Benchmark::ALL {
        let profile = events_profile(bench, SigilConfig::default().with_shards(4));
        let in_memory =
            CriticalPath::from_profile(&profile).unwrap_or_else(|e| panic!("{bench}: {e}"));
        let events = profile.events.as_ref().expect("events recorded");
        let bytes = encode_events_chunked(events, 127);
        let decoded = decode_events(&bytes).unwrap_or_else(|e| panic!("{bench}: {e}"));
        assert_eq!(&decoded, events, "{bench}: sharded events decode differs");
        let streamed = critical_path_from_bin(&bytes[..], &CommModel::free())
            .unwrap_or_else(|e| panic!("{bench}: {e}"));
        let reference = reference_path(events);
        assert_eq!(
            (in_memory.serial_ops, in_memory.length_ops),
            reference,
            "{bench}"
        );
        assert_eq!(
            (streamed.serial_ops, streamed.length_ops),
            reference,
            "{bench}"
        );
    }
}
