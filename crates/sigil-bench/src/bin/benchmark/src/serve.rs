//! `serve_two_lanes`: a `sigil-serve` daemon in a child process, fed by
//! two closed-loop lanes over one Unix socket. Lane A streams vips trace
//! sessions; lane B streams dedup's event file as events sessions.

use std::io::{self, BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use sigil_analysis::streaming::{CriticalPathFold, EventCdfgFold, PhaseFold};
use sigil_analysis::PathSummary;
use sigil_callgrind::{CallgrindConfig, CallgrindProfiler};
use sigil_core::{EventRecord, PhaseProfile, Profile, SigilConfig, SigilProfiler};
use sigil_obs::span;
use sigil_serve::{
    shutdown_server, Client, Listen, ServeConfig, Server, SessionResult, SessionSpec,
};
use sigil_trace::io::replay;
use sigil_trace::observer::RecordingObserver;
use sigil_trace::{Engine, RuntimeEvent, SymbolTable};
use sigil_workloads::Benchmark;

use crate::batch::{sigil_arm, Input};
use crate::checks::{self, Checks, Expected};
use crate::harness;
use crate::json::Json;
use crate::speed::RefClock;
use crate::stats::median;
use crate::workload::{Budget, LadderSpec, Scale, Timed, Workload};

const WORKLOAD: &str = "serve_two_lanes";
/// Phase bucket width of lane B's events sessions.
const BUCKET_OPS: u64 = 10_000;
/// Rounds the timed lanes run in. Each round gives one sample of
/// throughput and of added cost, so a brief slowdown of the machine
/// moves one sample rather than the run's only one.
const ROUNDS: usize = 4;

/// `benchmark daemon --listen <socket>`: serves until a SHUTDOWN frame,
/// then prints its peak RSS. Exits at once if its stdin closes, which
/// happens when the benchmark that started it dies.
pub fn daemon_main(args: &[String]) -> ExitCode {
    let [flag, listen] = args else {
        eprintln!("usage: benchmark daemon --listen <socket>");
        return ExitCode::from(2);
    };
    if flag != "--listen" {
        eprintln!("usage: benchmark daemon --listen <socket>");
        return ExitCode::from(2);
    }
    let server = match Server::bind(Listen::parse(listen), ServeConfig::default()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot listen on {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("ready {}", server.address());
    let _ = io::stdout().flush();
    // Deliberately detached: its only job is to end the process when the
    // parent goes away, which joining would defeat.
    std::thread::spawn(|| {
        let _ = io::copy(&mut io::stdin().lock(), &mut io::sink());
        std::process::exit(3);
    });
    server.wait();
    println!("peak_rss_kib {}", harness::peak_rss_kib());
    ExitCode::SUCCESS
}

/// Where the daemon runs: a child process (the benchmark), or a thread
/// of this process (tests, where the executable is the test harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DaemonMode {
    Child,
    InProcess,
}

enum Running {
    Child {
        child: Child,
        stdin: Option<ChildStdin>,
        stdout: BufReader<ChildStdout>,
    },
    InProcess(Server),
}

/// A running daemon and the directory holding its socket. Stopping asks
/// the daemon to shut down over the socket *before* the directory goes:
/// unlinking the socket first leaves the accept loop waiting forever.
pub struct Daemon {
    address: String,
    dir: PathBuf,
    running: Option<Running>,
}

impl Daemon {
    pub fn spawn(mode: DaemonMode) -> Result<Daemon, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = harness::scratch_dir(&format!(
            "serve-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let socket = dir.join("d.sock").display().to_string();
        let mut daemon = Daemon {
            address: socket.clone(),
            dir,
            running: None,
        };
        let running = match mode {
            DaemonMode::InProcess => Server::bind(Listen::parse(&socket), ServeConfig::default())
                .map(Running::InProcess)
                .map_err(|e| format!("cannot listen on {socket}: {e}")),
            DaemonMode::Child => {
                let exe = std::env::current_exe().map_err(|e| e.to_string())?;
                let mut child = Command::new(exe)
                    .args(["daemon", "--listen", &socket])
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped())
                    .spawn()
                    .map_err(|e| format!("cannot start the daemon: {e}"))?;
                let stdin = child.stdin.take();
                let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
                Ok(Running::Child {
                    child,
                    stdin,
                    stdout,
                })
            }
        };
        daemon.running = Some(running?);
        if let Some(Running::Child { stdout, .. }) = &mut daemon.running {
            let mut line = String::new();
            let _ = stdout.read_line(&mut line);
            if !line.starts_with("ready ") {
                return Err(format!("the daemon did not start: {line:?}"));
            }
        }
        Ok(daemon)
    }

    /// Shuts the daemon down, waits for it, then removes its directory.
    /// Returns the daemon's peak RSS in KiB (this process's when the
    /// daemon runs in-process).
    pub fn stop(&mut self) -> Result<u64, String> {
        let Some(running) = self.running.take() else {
            return Err("the daemon was already stopped".to_owned());
        };
        let shutdown = shutdown_server(&self.address).map_err(|e| format!("shutdown: {e}"));
        let peak = match running {
            Running::InProcess(server) => {
                drop(server);
                Ok(harness::peak_rss_kib())
            }
            Running::Child {
                mut child,
                stdin,
                mut stdout,
            } => {
                if shutdown.is_err() {
                    let _ = child.kill();
                }
                let mut rest = String::new();
                let _ = io::Read::read_to_string(&mut stdout, &mut rest);
                let status = child.wait();
                drop(stdin);
                rest.lines()
                    .find_map(|l| l.strip_prefix("peak_rss_kib "))
                    .and_then(|kib| kib.trim().parse().ok())
                    .ok_or_else(|| format!("the daemon exited without its peak RSS ({status:?})"))
            }
        };
        self.remove_dir();
        shutdown?;
        peak
    }

    /// Removes the socket directory, and `run/` too once it is empty.
    fn remove_dir(&self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        if let Some(parent) = self.dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.running.is_some() {
            let _ = self.stop();
        }
        self.remove_dir();
    }
}

/// The fields of an events session's result, comparable as a whole.
#[derive(Debug, Clone, PartialEq)]
struct EventsSummary {
    records: u64,
    phases: Option<PhaseProfile>,
    critpath: Option<PathSummary>,
    cdfg_contexts: Option<u64>,
    cdfg_edges: Option<u64>,
    compute_ops: Option<u64>,
    transfer_bytes: Option<u64>,
}

impl EventsSummary {
    fn from_result(result: SessionResult) -> EventsSummary {
        EventsSummary {
            records: result.records,
            phases: result.phases,
            critpath: result.critpath,
            cdfg_contexts: result.cdfg_contexts,
            cdfg_edges: result.cdfg_edges,
            compute_ops: result.compute_ops,
            transfer_bytes: result.transfer_bytes,
        }
    }

    /// The same folds the daemon runs, in this process.
    fn batch(records: &[EventRecord]) -> EventsSummary {
        let mut phases = PhaseFold::new(BUCKET_OPS);
        let mut critpath = CriticalPathFold::new();
        let mut cdfg = EventCdfgFold::new();
        let (mut compute_ops, mut transfer_bytes) = (0, 0);
        for record in records {
            phases.push(record);
            critpath.push(record);
            cdfg.push(record);
            match record {
                EventRecord::Compute { ops, .. } => compute_ops += ops,
                EventRecord::Transfer { bytes, .. } => transfer_bytes += bytes,
                EventRecord::Call { .. } => {}
            }
        }
        let cdfg = cdfg.finish();
        EventsSummary {
            records: records.len() as u64,
            phases: Some(phases.finish()),
            critpath: critpath.finish().ok(),
            cdfg_contexts: Some(cdfg.len() as u64),
            cdfg_edges: Some(cdfg.edges().len() as u64),
            compute_ops: Some(compute_ops),
            transfer_bytes: Some(transfer_bytes),
        }
    }

    fn digest(&self) -> String {
        checks::fnv(&format!("{self:?}"))
    }
}

/// What one session returned, and how long each stage took.
struct Session<T> {
    wall_s: f64,
    /// `wall_s` in reference seconds, set by the lane that ran it.
    ref_s: f64,
    connect_s: f64,
    stream_s: f64,
    finish_s: f64,
    credit_waits: u64,
    /// Chunks the daemon received (queried only in the traced run).
    chunks: Option<u64>,
    result: Result<T, String>,
}

fn session<T>(
    address: &str,
    spec: &SessionSpec,
    stream: impl FnOnce(&mut Client) -> Result<(), sigil_serve::ClientError>,
    decode: impl FnOnce(SessionResult) -> Result<T, String>,
) -> Session<T> {
    let _span = span("serve.session");
    let start = Instant::now();
    let mut out = Session {
        wall_s: 0.0,
        ref_s: 0.0,
        connect_s: 0.0,
        stream_s: 0.0,
        finish_s: 0.0,
        credit_waits: 0,
        chunks: None,
        result: Err(String::new()),
    };
    let result = (|| {
        let mut client = {
            let _span = span("serve.connect");
            Client::connect(address, spec)?
        };
        out.connect_s = start.elapsed().as_secs_f64();
        {
            let _span = span("serve.stream");
            stream(&mut client)?;
        }
        out.stream_s = start.elapsed().as_secs_f64() - out.connect_s;
        out.credit_waits = client.credit_waits();
        if sigil_obs::is_enabled() {
            out.chunks = Some(client.status()?.chunks);
        }
        let _span = span("serve.finish");
        client.finish()
    })();
    out.wall_s = start.elapsed().as_secs_f64();
    out.finish_s = out.wall_s - out.connect_s - out.stream_s;
    out.result = result.map_err(|e| e.to_string()).and_then(decode);
    out
}

/// One lane's sessions and how long the lane ran.
struct Lane<T> {
    sessions: Vec<Session<T>>,
    wall_s: f64,
}

impl<T> Lane<T> {
    /// Runs sessions back to back: the next starts when the previous
    /// ends, until `seconds` have passed and at least `min` have run. The
    /// lane's thread calibrates its own clock between sessions.
    fn run(seconds: f64, min: usize, session: impl Fn() -> Session<T>) -> Lane<T> {
        let start = Instant::now();
        let mut clock = RefClock::new();
        let mut sessions = Vec::new();
        let mut spans = Vec::new();
        while sessions.len() < min || start.elapsed().as_secs_f64() < seconds {
            clock.calibrate();
            let (session, span) = clock.time(&session);
            sessions.push(session);
            spans.push(span);
        }
        clock.calibrate();
        for (session, span) in sessions.iter_mut().zip(spans) {
            session.ref_s = clock.ref_s(span);
        }
        Lane {
            sessions,
            wall_s: start.elapsed().as_secs_f64(),
        }
    }

    /// Units ingested per second of the lane's own session time, in
    /// reference and in wall seconds, counting the sessions that
    /// succeeded. Summing the lanes' rates, rather than dividing all they
    /// ingested by the longer lane's time, keeps the number independent
    /// of how many sessions of each kind a round happened to fit, and
    /// does not count the time after one lane ended as time the other one
    /// idled.
    fn rates(&self, per_session: usize) -> (f64, f64) {
        let ok = self.sessions.iter().filter(|s| s.result.is_ok()).count();
        let units = (ok * per_session) as f64;
        let ref_s: f64 = self.sessions.iter().map(|s| s.ref_s).sum();
        let wall_s: f64 = self.sessions.iter().map(|s| s.wall_s).sum();
        (units / ref_s, units / wall_s)
    }
}

pub struct Serve {
    symbols: SymbolTable,
    events: Vec<RuntimeEvent>,
    records: Vec<EventRecord>,
    mode: DaemonMode,
    daemon: Daemon,
    expected: Option<Expected>,
    /// Lane A's vips input, for the traced ladder.
    ladder_input: Vec<Input>,
    /// First results of each lane: the reference for every later one.
    reference: Option<(Profile, EventsSummary)>,
}

impl Serve {
    pub fn setup(
        scale: Scale,
        mode: DaemonMode,
        expected: Option<Expected>,
    ) -> Result<Serve, String> {
        let vips = Input::Suite {
            bench: Benchmark::Vips,
            size: scale.size,
        };
        let mut engine = Engine::new(RecordingObserver::new());
        vips.drive(&mut engine);
        let (recorder, symbols) = engine.finish_with_symbols();
        let dedup = Input::Suite {
            bench: Benchmark::Dedup,
            size: scale.size,
        };
        let (profile, _) = sigil_arm(&dedup, SigilConfig::default().with_events());
        let records = profile
            .events
            .map(|file| file.records().to_vec())
            .ok_or("dedup's profile has no event file")?;
        Ok(Serve {
            symbols,
            events: recorder.into_events(),
            records,
            mode,
            daemon: Daemon::spawn(mode)?,
            expected,
            ladder_input: vec![vips],
            reference: None,
        })
    }

    /// Digests of both lanes' batch results, for `expected.json`.
    pub fn digests(&self) -> Vec<(String, String)> {
        vec![
            ("vips".to_owned(), checks::digest(&self.batch_profile())),
            (
                "dedup.events".to_owned(),
                EventsSummary::batch(&self.records).digest(),
            ),
        ]
    }

    fn batch_profile(&self) -> Profile {
        let mut profiler = SigilProfiler::new(SigilConfig::default());
        replay(&self.events, &mut profiler);
        profiler.into_profile(self.symbols.clone())
    }

    fn trace_session(&self) -> Session<Profile> {
        let spec = SessionSpec::trace("bench-trace", SigilConfig::default());
        let sent = self.events.len() as u64;
        session(
            &self.daemon.address,
            &spec,
            |client| client.stream_trace(&self.symbols, &self.events),
            |result| match result.profile {
                Some(profile) if result.records == sent => Ok(profile),
                Some(_) => Err(format!("ingested {} of {sent} events", result.records)),
                None => Err("the RESULT carries no profile".to_owned()),
            },
        )
    }

    fn events_session(&self) -> Session<EventsSummary> {
        let spec = SessionSpec::events("bench-events", Some(BUCKET_OPS));
        session(
            &self.daemon.address,
            &spec,
            |client| client.stream_events(&self.records),
            |result| Ok(EventsSummary::from_result(result)),
        )
    }

    /// Runs the trace lane and the events lane concurrently, each
    /// closed-loop for `seconds` and at least `min` sessions.
    fn lanes(&self, seconds: f64, min: usize) -> (Lane<Profile>, Lane<EventsSummary>) {
        std::thread::scope(|scope| {
            let a = scope.spawn(|| Lane::run(seconds, min, || self.trace_session()));
            let b = scope.spawn(|| Lane::run(seconds, min, || self.events_session()));
            (
                a.join().expect("trace lane panicked"),
                b.join().expect("events lane panicked"),
            )
        })
    }

    /// Counts each session and checks its result against the reference.
    fn check(&self, checks: &mut Checks, a: &[Session<Profile>], b: &[Session<EventsSummary>]) {
        let (profile, summary) = self.reference.as_ref().expect("warm-up ran");
        checks.attempt((a.len() + b.len()) as u64);
        for s in a {
            match &s.result {
                Ok(got) => checks.same_profile("vips", "the first session", got, profile),
                Err(e) => checks.fail("vips", "session", e.as_str()),
            }
        }
        for s in b {
            match &s.result {
                Ok(got) => checks.same("dedup.events", "result", got, summary),
                Err(e) => checks.fail("dedup.events", "session", e.as_str()),
            }
        }
    }
}

/// Stops `daemon` and returns its peak RSS in MiB; a failed shutdown is
/// counted, and this process's peak returned instead.
fn stop_daemon(daemon: &mut Daemon, checks: &mut Checks) -> f64 {
    match daemon.stop() {
        Ok(kib) => kib as f64 / 1024.0,
        Err(e) => {
            checks.fail("daemon", "shutdown", e);
            harness::peak_rss_mib()
        }
    }
}

/// One time (`wall_s` or `ref_s`) of each session that succeeded.
fn ok_times<T>(sessions: &[Session<T>], time: fn(&Session<T>) -> f64) -> Vec<f64> {
    sessions
        .iter()
        .filter(|s| s.result.is_ok())
        .map(time)
        .collect()
}

/// Median of one stage over every session of both lanes.
fn stage<A, B>(a: &[Session<A>], b: &[Session<B>], f: fn(f64, f64, f64) -> f64) -> f64 {
    let times: Vec<f64> = a
        .iter()
        .map(|s| f(s.connect_s, s.stream_s, s.finish_s))
        .chain(b.iter().map(|s| f(s.connect_s, s.stream_s, s.finish_s)))
        .collect();
    median(&times)
}

impl Workload for Serve {
    fn first_pass(&mut self, checks: &mut Checks) -> f64 {
        let start = Instant::now();
        let (mut a, mut b) = self.lanes(0.0, 1);
        let wall = start.elapsed().as_secs_f64();
        checks.attempt(2);
        match (a.sessions.remove(0).result, b.sessions.remove(0).result) {
            (Ok(profile), Ok(summary)) => {
                checks::conservation(checks, "vips", &profile);
                checks.same(
                    "dedup.events",
                    "records",
                    &summary.records,
                    &(self.records.len() as u64),
                );
                self.reference = Some((profile, summary));
            }
            (a, b) => {
                for e in [a.err(), b.err()].into_iter().flatten() {
                    checks.fail("warm-up", "session", e);
                }
                // Keep going against the batch results so every later
                // session is still checked.
                self.reference = Some((self.batch_profile(), EventsSummary::batch(&self.records)));
            }
        }
        wall
    }

    fn timed(&mut self, budget: Budget, clock: &mut RefClock, checks: &mut Checks) -> Timed {
        let round_s = budget.seconds / ROUNDS as f64;
        let min = budget.min.div_ceil(ROUNDS);
        let mut timed = Timed::default();
        let mut trace_p50s = Vec::new();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for _ in 0..ROUNDS {
            let (round_a, round_b) = self.lanes(round_s, min);
            self.check(checks, &round_a.sessions, &round_b.sessions);
            timed.wall_s.push(round_a.wall_s.max(round_b.wall_s));
            let (ref_a, wall_a) = round_a.rates(self.events.len());
            let (ref_b, wall_b) = round_b.rates(self.records.len());
            timed.events_per_s.push(ref_a + ref_b);
            timed.wall_events_per_s.push(wall_a + wall_b);
            timed.slowdown.push((ref_a + ref_b) / (wall_a + wall_b));
            trace_p50s.push(median(&ok_times(&round_a.sessions, |s| s.ref_s)));
            a.extend(round_a.sessions);
            b.extend(round_b.sessions);
        }

        // Local arms on the same vips trace, after the lanes: the
        // Callgrind baseline for the added cost, and the in-process batch
        // profile the served one is compared with.
        let mut callgrind_s = Vec::new();
        let mut batch_s = Vec::new();
        for _ in 0..3 {
            clock.calibrate();
            let ((), callgrind_span) = clock.time(|| {
                let mut profiler = CallgrindProfiler::new(CallgrindConfig::default());
                replay(&self.events, &mut profiler);
                std::hint::black_box(profiler.into_profile(self.symbols.clone()));
            });
            clock.calibrate();
            let (profile, batch_span) = clock.time(|| self.batch_profile());
            std::hint::black_box(profile);
            clock.calibrate();
            callgrind_s.push(clock.ref_s(callgrind_span));
            batch_s.push(clock.ref_s(batch_span));
        }

        let callgrind = median(&callgrind_s);
        timed.sigil_added_ns_per_event = trace_p50s
            .iter()
            .map(|p50| (p50 - callgrind) / self.events.len() as f64 * 1e9)
            .collect();
        let (ok_a, ok_b) = (ok_times(&a, |s| s.wall_s), ok_times(&b, |s| s.wall_s));
        let trace_p50 = median(&ok_a);
        let events_p50 = median(&ok_b);
        timed.op_ms = ok_a.iter().chain(&ok_b).map(|s| s * 1e3).collect();
        let trace_ref_p50 = median(&ok_times(&a, |s| s.ref_s));
        timed
            .layers
            .insert("serve.connect_s", stage(&a, &b, |c, _, _| c));
        timed
            .layers
            .insert("serve.stream_s", stage(&a, &b, |_, s, _| s));
        timed
            .layers
            .insert("serve.finish_s", stage(&a, &b, |_, _, f| f));
        let credit_waits = a
            .iter()
            .map(|s| s.credit_waits)
            .chain(b.iter().map(|s| s.credit_waits));
        timed
            .layers
            .insert("serve.credit_waits", credit_waits.sum::<u64>() as f64);
        let chunks = a
            .iter()
            .filter_map(|s| s.chunks)
            .chain(b.iter().filter_map(|s| s.chunks));
        timed
            .layers
            .insert("serve.chunks", chunks.sum::<u64>() as f64);
        timed
            .layers
            .insert("serve.online_over_batch", trace_ref_p50 / median(&batch_s));
        timed.details = Json::obj()
            .with("trace_sessions", a.len())
            .with("events_sessions", b.len())
            .with("trace_session_p50_s", trace_p50)
            .with("events_session_p50_s", events_p50)
            .with("trace_events_per_session", self.events.len())
            .with("event_records_per_session", self.records.len())
            .with("callgrind_arm_ref_s", callgrind)
            .with("batch_profile_ref_s", median(&batch_s));
        timed
    }

    fn verify(&mut self, checks: &mut Checks) {
        let (profile, summary) = self.reference.as_ref().expect("warm-up ran");
        checks.attempt(2);
        let batch = self.batch_profile();
        checks.same_profile("vips", "the in-process batch profile", profile, &batch);
        let batch_summary = EventsSummary::batch(&self.records);
        checks.same("dedup.events", "batch folds", summary, &batch_summary);
        if let Some(expected) = &self.expected {
            expected.check(checks, WORKLOAD, "vips", &checks::digest(profile));
            expected.check(checks, WORKLOAD, "dedup.events", &summary.digest());
        }
    }

    /// A long-running daemon's peak also holds what its allocator kept
    /// from every earlier session, which varies from run to run. The peak
    /// reported is a fresh daemon's over one round of one session per
    /// lane, checked like every other.
    fn peak_rss_mib(&mut self, checks: &mut Checks) -> (f64, Json) {
        let whole_run = stop_daemon(&mut self.daemon, checks);
        let details = Json::obj().with("whole_run_peak_rss_mib", whole_run);
        match Daemon::spawn(self.mode) {
            Ok(daemon) => self.daemon = daemon,
            Err(e) => {
                checks.fail("daemon", "spawn", e);
                return (whole_run, details);
            }
        }
        let (a, b) = self.lanes(0.0, 1);
        let peak = stop_daemon(&mut self.daemon, checks);
        self.check(checks, &a.sessions, &b.sessions);
        (peak, details)
    }

    fn ladder(&self) -> LadderSpec<'_> {
        LadderSpec {
            inputs: &self.ladder_input,
            config: SigilConfig::default(),
            span_layers: &[],
            models_pass: false,
        }
    }
}
