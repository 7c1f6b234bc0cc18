//! End-to-end smoke tests: a real server on a real socket, sessions in
//! both modes, and results identical to the batch pipeline.

use sigil_analysis::streaming::{CriticalPathFold, EventCdfgFold, PhaseFold};
use sigil_core::{EventRecord, SigilConfig, SigilProfiler};
use sigil_serve::{shutdown_server, Client, Listen, ServeConfig, Server, SessionSpec};
use sigil_trace::io::replay;
use sigil_trace::{MemAccess, OpClass, RuntimeEvent, SymbolTable};

/// A small but representative trace: nested calls, compute, memory
/// traffic with cross-function reuse, branches, a thread switch.
fn sample_trace() -> (SymbolTable, Vec<RuntimeEvent>) {
    let mut symbols = SymbolTable::default();
    let main = symbols.intern("main");
    let produce = symbols.intern("produce");
    let consume = symbols.intern("consume");
    let mut events = vec![RuntimeEvent::Call { callee: main }];
    for round in 0..40u64 {
        events.push(RuntimeEvent::Call { callee: produce });
        for i in 0..8u64 {
            let addr = 0x1000 + round * 64 + i * 8;
            events.push(RuntimeEvent::Op {
                class: OpClass::IntArith,
                count: 3,
            });
            events.push(RuntimeEvent::Write {
                access: MemAccess::new(addr, 8),
            });
        }
        events.push(RuntimeEvent::Branch {
            site: 0x40,
            taken: round % 3 == 0,
        });
        events.push(RuntimeEvent::Return);
        events.push(RuntimeEvent::Call { callee: consume });
        for i in 0..8u64 {
            let addr = 0x1000 + round * 64 + i * 8;
            events.push(RuntimeEvent::Read {
                access: MemAccess::new(addr, 8),
            });
            events.push(RuntimeEvent::Op {
                class: OpClass::FloatArith,
                count: 2,
            });
        }
        events.push(RuntimeEvent::Return);
        if round == 20 {
            events.push(RuntimeEvent::ThreadSwitch {
                thread: sigil_trace::ThreadId::from_raw(1),
            });
        }
    }
    events.push(RuntimeEvent::Return);
    (symbols, events)
}

fn batch_profile(
    symbols: &SymbolTable,
    events: &[RuntimeEvent],
    config: SigilConfig,
) -> sigil_core::Profile {
    let mut profiler = SigilProfiler::new(config);
    replay(events, &mut profiler);
    profiler.into_profile(symbols.clone())
}

#[test]
fn trace_session_matches_batch_over_tcp() {
    let server = Server::bind(Listen::parse("127.0.0.1:0"), ServeConfig::default()).expect("bind");
    let address = server.address();
    let (symbols, events) = sample_trace();
    let config = SigilConfig::default()
        .with_reuse_mode()
        .with_line_mode(64)
        .with_events()
        .with_phases(256);
    let batch = batch_profile(&symbols, &events, config);

    let spec = SessionSpec::trace("smoke", config);
    let mut client = Client::connect(&address, &spec).expect("connect");
    client.set_chunk_records(16); // force many chunks through the window
    client.stream_trace(&symbols, &events).expect("stream");
    let status = client.status().expect("status");
    assert_eq!(status.mode, "trace");
    let result = client.finish().expect("finish");

    assert_eq!(result.records, events.len() as u64);
    let online = result.profile.expect("trace sessions return a profile");
    assert_eq!(
        serde_json::to_string(&online).expect("json"),
        serde_json::to_string(&batch).expect("json"),
        "online profile must be byte-identical to batch"
    );
    assert!(result.phases.is_some());
    assert!(result.critpath.is_some());
}

#[test]
fn events_session_matches_streaming_folds() {
    let server = Server::bind(Listen::parse("127.0.0.1:0"), ServeConfig::default()).expect("bind");
    let address = server.address();
    let (symbols, events) = sample_trace();
    let profile = batch_profile(
        &symbols,
        &events,
        SigilConfig::default().with_events().with_phases(128),
    );
    let records = profile.events.as_ref().expect("events recorded").records();

    let bucket_ops = 128;
    let mut phases = PhaseFold::new(bucket_ops);
    let mut critpath = CriticalPathFold::new();
    let mut cdfg = EventCdfgFold::new();
    phases.extend(records);
    critpath.extend(records);
    cdfg.extend(records);
    let want_phases = phases.finish();
    let want_critpath = critpath.finish().expect("balanced stream");
    let want_cdfg = cdfg.finish();

    let spec = SessionSpec::events("smoke-events", Some(bucket_ops));
    let mut client = Client::connect(&address, &spec).expect("connect");
    client.set_chunk_records(32);
    client.stream_events(records).expect("stream");
    let snap = client.snapshot().expect("snapshot");
    assert_eq!(snap.records, records.len() as u64);
    let result = client.finish().expect("finish");

    assert_eq!(result.records, records.len() as u64);
    assert_eq!(
        serde_json::to_string(&result.phases).expect("json"),
        serde_json::to_string(&Some(want_phases)).expect("json")
    );
    assert_eq!(
        serde_json::to_string(&result.critpath).expect("json"),
        serde_json::to_string(&Some(want_critpath)).expect("json")
    );
    assert_eq!(result.cdfg_contexts, Some(want_cdfg.len() as u64));
    assert_eq!(result.cdfg_edges, Some(want_cdfg.edges().len() as u64));
}

#[test]
fn events_snapshots_match_the_folds_over_each_prefix() {
    let server = Server::bind(Listen::parse("127.0.0.1:0"), ServeConfig::default()).expect("bind");
    let address = server.address();
    let (symbols, events) = sample_trace();
    let profile = batch_profile(&symbols, &events, SigilConfig::default().with_events());
    let records = profile.events.as_ref().expect("events recorded").records();

    // Chunks of 7 records end inside runs of transfers between one
    // context pair in one phase bucket, so a snapshot lands while the
    // phase fold holds a pending cell.
    let (bucket_ops, chunk) = (64, 7);
    let spec = SessionSpec::events("snapshots", Some(bucket_ops));
    let mut client = Client::connect(&address, &spec).expect("connect");
    client.set_chunk_records(chunk);
    let mut phases = PhaseFold::new(bucket_ops);
    let mut critpath = CriticalPathFold::new();
    for (k, chunk_records) in records.chunks(chunk).enumerate() {
        client.stream_events(chunk_records).expect("stream");
        phases.extend(chunk_records);
        critpath.extend(chunk_records);
        let snap = client.snapshot().expect("snapshot");
        let prefix = &records[..k * chunk + chunk_records.len()];
        assert_eq!(snap.records, prefix.len() as u64);
        assert_eq!(
            serde_json::to_string(&snap.phases).expect("json"),
            serde_json::to_string(&Some(phases.clone().finish())).expect("json"),
            "phases after chunk {k}"
        );
        assert_eq!(
            snap.critpath,
            critpath.summary().ok(),
            "critpath after chunk {k}"
        );
        // Counted without the folds: every call and transferred byte of
        // the prefix sits in some bucket of the snapshot.
        let buckets = snap
            .phases
            .iter()
            .flat_map(|p| &p.pairs)
            .flat_map(|p| &p.buckets);
        let tallied = buckets.fold((0, 0), |(calls, bytes), b| {
            (calls + b.calls, bytes + b.xfer_bytes)
        });
        let sent = prefix
            .iter()
            .fold((0, 0), |(calls, bytes), record| match *record {
                EventRecord::Call { .. } => (calls + 1, bytes),
                EventRecord::Transfer { bytes: b, .. } => (calls, bytes + b),
                EventRecord::Compute { .. } => (calls, bytes),
            });
        assert_eq!(tallied, sent, "tallies after chunk {k}");
    }
    client.finish().expect("finish");
}

#[test]
fn unix_socket_session_and_shutdown() {
    let dir = std::env::temp_dir().join(format!("sigil-serve-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("sigil.sock");
    let server = Server::bind(
        Listen::parse(path.to_str().expect("utf-8 path")),
        ServeConfig::default(),
    )
    .expect("bind uds");
    let address = server.address();
    let (symbols, events) = sample_trace();
    let config = SigilConfig::default().with_phases(512);
    let batch = batch_profile(&symbols, &events, config);

    let mut client =
        Client::connect(&address, &SessionSpec::trace("uds", config)).expect("connect");
    client.stream_trace(&symbols, &events).expect("stream");
    let result = client.finish().expect("finish");
    assert_eq!(
        serde_json::to_string(&result.profile).expect("json"),
        serde_json::to_string(&Some(batch)).expect("json")
    );

    let summary = shutdown_server(&address).expect("shutdown");
    assert!(summary.drained);
    assert_eq!(summary.active, 0);
    assert_eq!(summary.opened, 1);
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_trace_session_matches_batch() {
    let server = Server::bind(Listen::parse("127.0.0.1:0"), ServeConfig::default()).expect("bind");
    let address = server.address();
    let (symbols, events) = sample_trace();
    let config = SigilConfig::default()
        .with_reuse_mode()
        .with_line_mode(64)
        .with_phases(256)
        .with_shards(4);
    let batch = batch_profile(&symbols, &events, config);

    let mut client =
        Client::connect(&address, &SessionSpec::trace("sharded", config)).expect("connect");
    client.set_chunk_records(64);
    client.stream_trace(&symbols, &events).expect("stream");
    let result = client.finish().expect("finish");
    assert_eq!(
        serde_json::to_string(&result.profile).expect("json"),
        serde_json::to_string(&Some(batch)).expect("json"),
        "sharded server-side replay must match sharded batch"
    );
}
