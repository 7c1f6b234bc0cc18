//! Fault injection against a live `sigil-serve` daemon: misbehaving
//! clients — disconnects mid-chunk, half-written frames that stall, a
//! bit-flipped frame, a client that outruns its credit window — must
//! produce *located* errors, must never take a sibling session down with
//! them, and must leave the server serviceable for the next connection.
//!
//! The raw-socket helpers below speak the wire protocol by hand (via the
//! public [`Frame`] codec) precisely so they can stop mid-frame — the
//! real [`Client`] is incapable of these faults by construction.

use std::io::Write;
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use sigil_core::events_bin::encode_chunk_payload;
use sigil_core::{EventRecord, TraceRecord};
use sigil_oracle::harness::{record_benchmark, record_program, TraceBundle};
use sigil_oracle::serve_axis::{batch_outcome, diff_outcomes, online_outcome, serve_config};
use sigil_serve::{
    shutdown_server, Client, Frame, FrameKind, Listen, ServeConfig, Server, SessionSpec, WireError,
    FRAME_HEADER_LEN,
};
use sigil_trace::{CallNumber, FunctionId, MemAccess, OpClass, RuntimeEvent};
use sigil_vm::GenProgram;
use sigil_workloads::{Benchmark, InputSize};

fn hello_frame(spec: &SessionSpec) -> Frame {
    Frame {
        kind: FrameKind::Hello,
        aux: 0,
        payload: serde_json::to_string(spec)
            .expect("spec serializes")
            .into_bytes(),
    }
}

/// Reads frames off a raw connection until an ERROR arrives, absorbing
/// WELCOME and CREDIT frames on the way; panics on anything else.
fn read_error(stream: &TcpStream) -> WireError {
    let mut reader = stream;
    let mut offset = 0u64;
    loop {
        let frame = match Frame::read_from(&mut reader, &mut offset) {
            Ok(frame) => frame,
            Err(e) => panic!("connection died before an ERROR frame arrived: {e}"),
        };
        match frame.kind {
            FrameKind::Welcome | FrameKind::Credit => continue,
            FrameKind::Error => {
                let text = std::str::from_utf8(&frame.payload).expect("error payload is utf8");
                return serde_json::from_str(text).expect("error payload is WireError JSON");
            }
            other => panic!("unexpected frame {other:?} while waiting for ERROR"),
        }
    }
}

/// Runs one well-behaved session and asserts it is byte-identical to the
/// batch pipeline — the serviceability probe used after every fault.
fn assert_session_conforms(address: &str, name: &str, bundle: &TraceBundle) {
    let config = serve_config();
    let batch = batch_outcome(bundle, config);
    let online = online_outcome(address, name, bundle, config, 64)
        .unwrap_or_else(|e| panic!("{name}: post-fault session failed: {e}"));
    let divergences = diff_outcomes(&batch, &online);
    assert!(
        divergences.is_empty(),
        "{name}: post-fault session diverged: {divergences:#?}"
    );
}

/// A bit-flipped chunk frame is rejected with a checksum error located
/// at the frame's exact connection offset, and the server keeps serving.
#[test]
fn bit_flipped_frame_gets_located_error() {
    let server = Server::bind(Listen::parse("127.0.0.1:0"), ServeConfig::default())
        .expect("bind fault server");
    let address = server.address();

    let mut stream = TcpStream::connect(&address).expect("raw connect");
    let hello = hello_frame(&SessionSpec::trace("flipper", serve_config())).encode();
    stream.write_all(&hello).expect("send hello");

    let mut chunk = Frame {
        kind: FrameKind::Chunk,
        aux: 1,
        payload: vec![0x55; 40],
    }
    .encode();
    let last = chunk.len() - 1;
    chunk[last] ^= 0x10; // corrupt the payload after the checksum was computed
    stream.write_all(&chunk).expect("send corrupted chunk");

    let error = read_error(&stream);
    assert_eq!(
        error.offset,
        hello.len() as u64,
        "error not located at the corrupted frame's start"
    );
    assert!(
        error.message.contains("checksum"),
        "unexpected error message: {}",
        error.message
    );
    drop(stream);

    assert_session_conforms(
        &address,
        "after-flip",
        &record_program(&GenProgram::generate(3)),
    );
    drop(server);
}

/// A HELLO whose profiler settings are out of range gets an ERROR naming
/// the setting instead of a WELCOME: no session opens, a sibling session
/// still conforms, and the daemon drains at once on shutdown.
#[test]
fn out_of_range_hello_settings_get_an_error() {
    let server = Server::bind(Listen::parse("127.0.0.1:0"), ServeConfig::default())
        .expect("bind fault server");
    let address = server.address();

    let good = SessionSpec::trace("bad-settings", serve_config());
    let bad = [
        (
            SessionSpec {
                shadow_limit: Some(0),
                ..good.clone()
            },
            "shadow limit",
        ),
        (
            SessionSpec {
                line_size: Some(3),
                ..good.clone()
            },
            "line size",
        ),
        (
            SessionSpec {
                shards: usize::MAX,
                ..good.clone()
            },
            "shard count",
        ),
    ];
    for (spec, setting) in bad {
        let mut stream = TcpStream::connect(&address).expect("raw connect");
        stream
            .write_all(&hello_frame(&spec).encode())
            .expect("send hello");
        let error = read_error(&stream);
        assert_eq!(error.offset, 0, "error not located at the HELLO");
        assert!(
            error.message.contains(setting),
            "error does not name the {setting}: {}",
            error.message
        );
    }

    assert_session_conforms(
        &address,
        "after-bad-hello",
        &record_program(&GenProgram::generate(4)),
    );
    let summary = shutdown_server(&address).expect("shutdown");
    assert!(summary.drained, "sessions left running: {summary:?}");
    assert_eq!(summary.active, 0);
    assert_eq!(summary.opened, 1, "only the conforming session opens");
    server.wait();
}

/// Opens a raw session and sends one CHUNK frame. Returns the stream
/// and the connection offset of the chunk's first payload byte.
fn send_raw_chunk(
    address: &str,
    spec: &SessionSpec,
    aux: u32,
    payload: Vec<u8>,
) -> (TcpStream, u64) {
    let mut stream = TcpStream::connect(address).expect("raw connect");
    let hello = hello_frame(spec).encode();
    stream.write_all(&hello).expect("send hello");
    let chunk = Frame {
        kind: FrameKind::Chunk,
        aux,
        payload,
    };
    stream.write_all(&chunk.encode()).expect("send chunk");
    (stream, (hello.len() + FRAME_HEADER_LEN) as u64)
}

/// A checksum-valid CHUNK whose record count dwarfs its one-byte payload
/// is a located error in both session kinds, raised before the worker
/// reserves room for 4 billion records; a sibling streaming meanwhile
/// finishes byte-identical to batch.
#[test]
fn oversized_record_count_gets_located_error() {
    let server = Server::bind(Listen::parse("127.0.0.1:0"), ServeConfig::default())
        .expect("bind fault server");
    let address = server.address();

    let sibling = {
        let address = address.clone();
        let bundle = record_benchmark(Benchmark::Blackscholes, InputSize::SimSmall);
        thread::spawn(move || {
            let config = serve_config();
            let online = online_outcome(&address, "sibling", &bundle, config, 16)
                .expect("sibling session failed");
            (batch_outcome(&bundle, config), online)
        })
    };
    for spec in [
        SessionSpec::trace("liar", serve_config()),
        SessionSpec::events("liar", None),
    ] {
        let (stream, payload_at) = send_raw_chunk(&address, &spec, u32::MAX, vec![0x02]);
        let error = read_error(&stream);
        assert_eq!(error.offset, payload_at, "{}: {}", spec.mode, error.message);
        assert!(
            error.message.contains("record count"),
            "{}: unexpected error message: {}",
            spec.mode,
            error.message
        );
    }

    let (batch, online) = sibling.join().expect("sibling thread panicked");
    let divergences = diff_outcomes(&batch, &online);
    assert!(
        divergences.is_empty(),
        "sibling diverged beside an oversized record count: {divergences:#?}"
    );
    assert_session_conforms(
        &address,
        "after-count",
        &record_program(&GenProgram::generate(7)),
    );
    drop(server);
}

/// A malformed record inside a chunk is located at its own byte on the
/// connection, in both session kinds — not at the payload's first byte.
/// That covers a well-formed access that runs past the end of the 64-bit
/// address space.
#[test]
fn chunk_decode_error_names_the_bad_byte() {
    let server = Server::bind(Listen::parse("127.0.0.1:0"), ServeConfig::default())
        .expect("bind fault server");
    let address = server.address();

    let call = CallNumber::from_raw;
    let events = encode_chunk_payload(&[
        EventRecord::Call {
            parent_call: CallNumber::ROOT,
            call: call(1),
            ctx: sigil_callgrind::ContextId(1),
        },
        EventRecord::Transfer {
            from_call: call(1),
            to_call: call(2),
            bytes: 64,
        },
    ]);
    let trace = encode_chunk_payload(&[
        TraceRecord::Sym {
            id: 0,
            name: "main".to_owned(),
        },
        TraceRecord::Event(RuntimeEvent::Call {
            callee: FunctionId::from_raw(0),
        }),
    ]);
    for (spec, mut payload) in [
        (SessionSpec::events("bad-tag", None), events),
        (SessionSpec::trace("bad-tag", serve_config()), trace),
    ] {
        let good = payload.len() as u64;
        payload.push(0x7f); // no record kind uses this tag
        let (stream, payload_at) = send_raw_chunk(&address, &spec, 3, payload);
        let error = read_error(&stream);
        assert_eq!(
            error.offset,
            payload_at + good,
            "{}: {}",
            spec.mode,
            error.message
        );
        assert!(
            error.message.contains("unknown record tag"),
            "{}: unexpected error message: {}",
            spec.mode,
            error.message
        );
    }

    let spec = SessionSpec::trace("past-the-top", serve_config());
    let mut records = vec![
        TraceRecord::Sym {
            id: 0,
            name: "main".to_owned(),
        },
        TraceRecord::Event(RuntimeEvent::Call {
            callee: FunctionId::from_raw(0),
        }),
    ];
    let good = encode_chunk_payload(&records).len() as u64;
    records.push(TraceRecord::Event(RuntimeEvent::Write {
        access: MemAccess::new(u64::MAX - 3, 8),
    }));
    let (stream, payload_at) = send_raw_chunk(&address, &spec, 3, encode_chunk_payload(&records));
    let error = read_error(&stream);
    assert_eq!(error.offset, payload_at + good, "{}", error.message);
    assert!(
        error
            .message
            .contains("past the end of the 64-bit address space"),
        "unexpected error message: {}",
        error.message
    );
    drop(server);
}

/// Op and byte counts whose sums pass `u64::MAX` saturate in an events
/// session, with phases and without: each session ends in a RESULT
/// carrying the saturated totals instead of killing its worker, and a
/// sibling session still conforms. A plain session shows the byte total
/// includes a transfer from an undeclared call.
#[test]
fn hostile_counts_saturate_in_events_sessions() {
    let server = Server::bind(Listen::parse("127.0.0.1:0"), ServeConfig::default())
        .expect("bind fault server");
    let address = server.address();

    let call = CallNumber::from_raw(1);
    let ctx = sigil_callgrind::ContextId(1);
    let declare = EventRecord::Call {
        parent_call: CallNumber::ROOT,
        call,
        ctx,
    };
    let compute = |ops| EventRecord::Compute { call, ctx, ops };
    let transfer = |bytes| EventRecord::Transfer {
        from_call: call,
        to_call: call,
        bytes,
    };
    // No Call record declares call 99: the event CDFG leaves its bytes
    // unattributed, and the session total still counts them.
    let undeclared = EventRecord::Transfer {
        from_call: CallNumber::from_raw(99),
        to_call: call,
        bytes: 3,
    };
    let hostile = [
        declare,
        compute(u64::MAX),
        compute(u64::MAX),
        transfer(u64::MAX),
        transfer(u64::MAX),
        undeclared,
    ];
    let plain = [declare, compute(7), transfer(8), undeclared];
    for (records, totals) in [
        (&hostile[..], (u64::MAX, u64::MAX)),
        (&plain[..], (7, 8 + 3)),
    ] {
        for bucket_ops in [Some(1000), None] {
            let mut client = Client::connect(&address, &SessionSpec::events("hostile", bucket_ops))
                .expect("open events session");
            client.stream_events(records).expect("stream records");
            let result = client
                .finish()
                .unwrap_or_else(|e| panic!("bucket_ops {bucket_ops:?}: session failed: {e}"));
            assert_eq!(
                (result.compute_ops, result.transfer_bytes),
                (Some(totals.0), Some(totals.1)),
                "bucket_ops {bucket_ops:?}"
            );
            assert_eq!(result.phases.is_some(), bucket_ops.is_some());
        }
    }

    assert_session_conforms(
        &address,
        "after-saturation",
        &record_program(&GenProgram::generate(11)),
    );
    drop(server);
}

/// A client that dies mid-chunk fails only its own session: a sibling
/// streaming concurrently finishes byte-identical to batch, and the next
/// connection is served normally.
#[test]
fn disconnect_mid_chunk_leaves_siblings_unaffected() {
    let server = Server::bind(Listen::parse("127.0.0.1:0"), ServeConfig::default())
        .expect("bind fault server");
    let address = server.address();

    let sibling_bundle = record_benchmark(Benchmark::Blackscholes, InputSize::SimSmall);
    let sibling = {
        let address = address.clone();
        let bundle = sibling_bundle.clone();
        thread::spawn(move || {
            let config = serve_config();
            let online = online_outcome(&address, "sibling", &bundle, config, 16)
                .expect("sibling session failed");
            (batch_outcome(&bundle, config), online)
        })
    };

    // While the sibling streams, a second connection sends HELLO plus
    // half of a chunk frame and vanishes.
    {
        let mut stream = TcpStream::connect(&address).expect("raw connect");
        stream
            .write_all(&hello_frame(&SessionSpec::trace("quitter", serve_config())).encode())
            .expect("send hello");
        let chunk = Frame {
            kind: FrameKind::Chunk,
            aux: 9,
            payload: vec![0xAB; 64],
        }
        .encode();
        stream
            .write_all(&chunk[..chunk.len() / 2])
            .expect("send half a chunk");
        // Dropped here: the server sees EOF mid-frame.
    }

    let (batch, online) = sibling.join().expect("sibling thread panicked");
    let divergences = diff_outcomes(&batch, &online);
    assert!(
        divergences.is_empty(),
        "sibling diverged after a neighbour's mid-chunk disconnect: {divergences:#?}"
    );

    assert_session_conforms(
        &address,
        "after-quit",
        &record_program(&GenProgram::generate(4)),
    );
    drop(server);
}

/// A connection that stalls halfway through a frame is timed out with a
/// located idle-timeout error rather than pinning a reader thread
/// forever, and the server keeps serving.
#[test]
fn half_written_frame_times_out_with_located_error() {
    let server = Server::bind(
        Listen::parse("127.0.0.1:0"),
        ServeConfig {
            idle_timeout: Duration::from_millis(250),
            ..ServeConfig::default()
        },
    )
    .expect("bind fault server");
    let address = server.address();

    let mut stream = TcpStream::connect(&address).expect("raw connect");
    stream
        .write_all(&hello_frame(&SessionSpec::trace("staller", serve_config())).encode())
        .expect("send hello");
    let chunk = Frame {
        kind: FrameKind::Chunk,
        aux: 2,
        payload: vec![1, 2, 3, 4],
    }
    .encode();
    stream
        .write_all(&chunk[..5])
        .expect("send a partial header");
    // ...and never send the rest.

    let error = read_error(&stream);
    assert!(
        error.message.contains("idle timeout"),
        "unexpected stall error: {}",
        error.message
    );
    drop(stream);

    assert_session_conforms(
        &address,
        "after-stall",
        &record_program(&GenProgram::generate(5)),
    );
    drop(server);
}

/// Opens a session that ignores its credit window of 2: it fires far
/// more chunks than the window without ever reading CREDIT, then reads
/// the daemon's answer. Returns the ERROR with the HELLO and chunk frame
/// lengths, which locate it.
fn flood_until_error(address: &str) -> (WireError, u64, u64) {
    let mut stream = TcpStream::connect(address).expect("raw connect");
    let hello = hello_frame(&SessionSpec::trace("flooder", serve_config())).encode();
    stream.write_all(&hello).expect("send hello");
    // Each chunk carries thousands of valid events so the worker lags
    // behind the reader and the outstanding count genuinely grows.
    let events: Vec<TraceRecord> = (0..5_000)
        .map(|i| {
            TraceRecord::Event(RuntimeEvent::Op {
                class: OpClass::IntArith,
                count: 1 + (i % 7),
            })
        })
        .collect();
    let chunk = Frame {
        kind: FrameKind::Chunk,
        aux: events.len() as u32,
        payload: encode_chunk_payload(&events),
    }
    .encode();
    for _ in 0..64 {
        if stream.write_all(&chunk).is_err() {
            break; // server already cut us off mid-flood
        }
    }
    (read_error(&stream), hello.len() as u64, chunk.len() as u64)
}

/// Asserts `error` is the credit violation, located at the end of one of
/// the flood's chunk frames.
fn assert_credit_violation(error: &WireError, hello_len: u64, chunk_len: u64) {
    assert!(
        error.message.contains("credit violation"),
        "unexpected flood error: {}",
        error.message
    );
    let chunks = error.offset.checked_sub(hello_len).map(|at| at % chunk_len);
    assert_eq!(
        chunks,
        Some(0),
        "error at {} is not a chunk frame's end",
        error.offset
    );
}

fn credit_window_of_two() -> Server {
    Server::bind(
        Listen::parse("127.0.0.1:0"),
        ServeConfig {
            credits: 2,
            ..ServeConfig::default()
        },
    )
    .expect("bind fault server")
}

/// A client that ignores the credit window is cut off with a located
/// credit-violation error — the bounded ingest queue never grows to
/// absorb a flood.
#[test]
fn credit_violation_is_rejected() {
    let server = credit_window_of_two();
    let address = server.address();
    let (error, hello_len, chunk_len) = flood_until_error(&address);
    assert_credit_violation(&error, hello_len, chunk_len);

    assert_session_conforms(
        &address,
        "after-flood",
        &record_program(&GenProgram::generate(6)),
    );
    drop(server);
}

/// The daemon answers a flood and closes while the client is still
/// writing. Its ERROR must reach the client every time: closing with the
/// client's input unread would reset the connection and could discard
/// the frame.
#[test]
fn credit_violation_error_reaches_a_client_still_writing() {
    let server = credit_window_of_two();
    let address = server.address();
    for _ in 0..25 {
        let (error, hello_len, chunk_len) = flood_until_error(&address);
        assert_credit_violation(&error, hello_len, chunk_len);
    }
    assert_session_conforms(
        &address,
        "after-floods",
        &record_program(&GenProgram::generate(6)),
    );
    drop(server);
}

/// With a tiny credit window the real client *waits* instead of
/// violating: backpressure engages (observable as credit waits) and the
/// finished result is still byte-identical to batch.
#[test]
fn backpressure_preserves_identity_under_a_tiny_window() {
    let server = Server::bind(
        Listen::parse("127.0.0.1:0"),
        ServeConfig {
            credits: 1,
            ..ServeConfig::default()
        },
    )
    .expect("bind fault server");
    let address = server.address();

    let bundle = record_benchmark(Benchmark::Blackscholes, InputSize::SimSmall);
    let config = serve_config();
    let batch = batch_outcome(&bundle, config);

    let mut client = Client::connect(&address, &SessionSpec::trace("throttled", config))
        .expect("connect throttled client");
    client.set_chunk_records(8); // many small chunks against a window of 1
    client
        .stream_trace(&bundle.symbols, &bundle.events)
        .expect("stream under backpressure");
    let waits = client.credit_waits();
    let online = client.finish().expect("finish under backpressure");

    assert!(waits > 0, "credit window of 1 never made the client wait");
    let divergences = diff_outcomes(&batch, &online);
    assert!(
        divergences.is_empty(),
        "backpressure changed the result: {divergences:#?}"
    );
    drop(server);
}
