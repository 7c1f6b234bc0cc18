//! Peak-RSS comparison: streaming a trace into a `sigil-serve` session
//! vs. batch-profiling it from a fully materialized event vector.
//!
//! The batch arm must hold the entire trace in memory before replaying
//! it; the serve arm generates events incrementally and ships them
//! through the socket in bounded chunks, so neither the client half nor
//! the server half of the process ever holds more than a chunk plus the
//! profiler's own state. Peak RSS is a process-wide high-water mark
//! (`VmHWM` in `/proc/self/status`), so each arm runs in its own child
//! process: the orchestrator re-executes itself with `--measure <arm>`.
//!
//! ```text
//! cargo run --release -p sigil-bench --bin serve_rss [rounds]
//! ```
//!
//! Both arms print a digest of the finished profile and the orchestrator
//! requires them to agree, so the RSS gap prices identical work.
//! Results land in `BENCH_serve.json`.

use std::process::Command;

use sigil_core::events_bin::encode_chunk_payload;
use sigil_core::{Profile, SigilConfig, SigilProfiler, TraceRecord};
use sigil_serve::{Client, Listen, ServeConfig, Server, SessionSpec};
use sigil_trace::io::replay;
use sigil_trace::{MemAccess, OpClass, RuntimeEvent, SymbolTable};

const EVENTS_PER_ROUND: usize = 44;
const CHUNK_EVENTS: usize = 4096;

fn config() -> SigilConfig {
    SigilConfig::default().with_reuse_mode().with_line_mode(64)
}

fn symbols() -> (SymbolTable, [sigil_trace::FunctionId; 3]) {
    let mut symbols = SymbolTable::new();
    let main = symbols.intern("main");
    let produce = symbols.intern("produce");
    let consume = symbols.intern("consume");
    (symbols, [main, produce, consume])
}

/// Pushes one producer/consumer round (EVENTS_PER_ROUND events) into `sink`.
fn push_round(
    round: usize,
    [_, produce, consume]: [sigil_trace::FunctionId; 3],
    mut sink: impl FnMut(RuntimeEvent),
) {
    let base = 0x1000 + (round as u64 % 512) * 0x100;
    sink(RuntimeEvent::Call { callee: produce });
    for i in 0..10u64 {
        sink(RuntimeEvent::Write {
            access: MemAccess::new(base + i * 8, 8),
        });
        sink(RuntimeEvent::Op {
            class: OpClass::IntArith,
            count: 3,
        });
    }
    sink(RuntimeEvent::Return);
    sink(RuntimeEvent::Call { callee: consume });
    for i in 0..10u64 {
        sink(RuntimeEvent::Read {
            access: MemAccess::new(base + i * 8, 8),
        });
        sink(RuntimeEvent::Op {
            class: OpClass::FloatArith,
            count: 2,
        });
    }
    sink(RuntimeEvent::Return);
}

/// `VmHWM` (peak resident set) of this process, in KiB.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
        .unwrap_or(0)
}

/// A tiny order-sensitive digest of the finished profile, so the two
/// arms can be checked for identical results across process boundaries.
fn digest(profile: &Profile) -> u64 {
    let json = serde_json::to_string(profile).expect("profile serializes");
    let mut hash = 0xcbf29ce484222325u64;
    for byte in json.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

fn measure(arm: &str, rounds: usize) {
    let (table, ids) = symbols();
    let profile = match arm {
        "batch" => {
            // Materialize the whole trace, then replay it in-process.
            let mut events = vec![RuntimeEvent::Call { callee: ids[0] }];
            for round in 0..rounds {
                push_round(round, ids, |e| events.push(e));
            }
            events.push(RuntimeEvent::Return);
            let mut profiler = SigilProfiler::new(config());
            replay(&events, &mut profiler);
            profiler.into_profile(table)
        }
        "serve" => {
            // Generate rounds on the fly and ship bounded chunks; the
            // full trace never exists on either side of the socket.
            let server = Server::bind(Listen::parse("127.0.0.1:0"), ServeConfig::default())
                .expect("bind server");
            let mut client = Client::connect(
                &server.address(),
                &SessionSpec::trace("serve-rss", config()),
            )
            .expect("connect");
            let mut pending: Vec<TraceRecord> = table
                .iter()
                .map(|(id, name)| TraceRecord::Sym {
                    id: id.as_raw(),
                    name: name.to_owned(),
                })
                .collect();
            pending.push(TraceRecord::Event(RuntimeEvent::Call { callee: ids[0] }));
            for round in 0..rounds {
                push_round(round, ids, |e| pending.push(TraceRecord::Event(e)));
                if pending.len() >= CHUNK_EVENTS {
                    let payload = encode_chunk_payload(&pending);
                    client
                        .send_chunk(payload, pending.len() as u32)
                        .expect("send chunk");
                    pending.clear();
                }
            }
            pending.push(TraceRecord::Event(RuntimeEvent::Return));
            let payload = encode_chunk_payload(&pending);
            client
                .send_chunk(payload, pending.len() as u32)
                .expect("send final chunk");
            let result = client.finish().expect("finish");
            result.profile.expect("trace session returns a profile")
        }
        other => panic!("unknown measure arm `{other}`"),
    };
    println!("{} {}", digest(&profile), peak_rss_kib());
}

/// Runs one arm in a child process, returning (digest, peak KiB).
fn run_arm(arm: &str, rounds: usize) -> (u64, u64) {
    let exe = std::env::current_exe().expect("own path");
    let out = Command::new(exe)
        .args(["--measure", arm, &rounds.to_string()])
        .output()
        .expect("spawn measurement child");
    assert!(
        out.status.success(),
        "{arm} child failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let mut it = text.split_whitespace().map(|f| f.parse().expect("number"));
    (it.next().expect("digest"), it.next().expect("rss"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--measure") {
        let rounds = args[2].parse().expect("round count");
        measure(&args[1], rounds);
        return;
    }
    let rounds: usize = args
        .first()
        .map(|a| a.parse().expect("round count"))
        .unwrap_or(100_000);
    let events = 2 + rounds * EVENTS_PER_ROUND;

    let (batch_digest, batch_rss) = run_arm("batch", rounds);
    let (serve_digest, serve_rss) = run_arm("serve", rounds);
    assert_eq!(
        batch_digest, serve_digest,
        "the two arms disagree on the finished profile"
    );
    println!("events: {events}");
    println!("profile digest (identical across arms): {batch_digest:#018x}");
    println!("peak RSS batch (full trace in memory): {batch_rss} KiB");
    println!("peak RSS serve (chunked over the socket): {serve_rss} KiB");
    println!("ratio: {:.2}", batch_rss as f64 / serve_rss.max(1) as f64);
}
