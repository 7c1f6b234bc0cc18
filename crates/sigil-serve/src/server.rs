//! The daemon: accept loop, per-session reader/worker threads, bounded
//! ingest queues with credit-based backpressure, and live queries.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use sigil_analysis::streaming::{CriticalPathFold, EventCdfgFold, PhaseFold};
use sigil_core::events_bin::decode_chunk_payload;
use sigil_core::{EventRecord, SigilProfiler, TraceRecord};
use sigil_obs::{metrics, obs_info};
use sigil_trace::{ExecutionObserver, SymbolTable};

use crate::proto::{
    from_json_payload, to_json_payload, Frame, FrameKind, ProtoError, SessionResult, SessionSpec,
    ShutdownSummary, SnapshotInfo, StatusInfo, Welcome, WireError, WIRE_VERSION,
};

/// Ingest-lag histogram bounds, microseconds.
const LAG_BOUNDS_US: &[u64] = &[10, 100, 1_000, 10_000, 100_000, 1_000_000];

/// Where the server listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// A TCP address like `127.0.0.1:7077`.
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl Listen {
    /// Parses a `--listen` value: anything containing `/` is a Unix
    /// socket path, everything else a TCP address.
    pub fn parse(value: &str) -> Listen {
        if value.contains('/') {
            Listen::Unix(PathBuf::from(value))
        } else {
            Listen::Tcp(value.to_owned())
        }
    }

    /// The string form clients pass to `--connect`.
    pub fn address(&self) -> String {
        match self {
            Listen::Tcp(addr) => addr.clone(),
            Listen::Unix(path) => path.display().to_string(),
        }
    }
}

/// Server tunables.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Credit window per session: CHUNK frames a client may have in
    /// flight before waiting for CREDIT grants.
    pub credits: u32,
    /// A session whose socket stays silent this long is failed.
    pub idle_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            credits: 8,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// A connected stream, TCP or Unix.
enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn try_clone(&self) -> io::Result<Conn> {
        Ok(match self {
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
        })
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(timeout),
            Conn::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    fn shutdown_write(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Write),
            Conn::Unix(s) => s.shutdown(Shutdown::Write),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Conn> {
        Ok(match self {
            Listener::Tcp(l) => Conn::Tcp(l.accept()?.0),
            Listener::Unix(l) => Conn::Unix(l.accept()?.0),
        })
    }
}

/// State shared between the accept loop, sessions, and shutdown.
struct Shared {
    config: ServeConfig,
    address: Listen,
    stop: AtomicBool,
    next_session: AtomicU64,
    opened: AtomicU64,
    active: AtomicU64,
}

impl Shared {
    fn session_started(&self) -> u64 {
        let id = self.next_session.fetch_add(1, Ordering::SeqCst) + 1;
        self.opened.fetch_add(1, Ordering::SeqCst);
        let active = self.active.fetch_add(1, Ordering::SeqCst) + 1;
        metrics::counter("serve.sessions.opened").inc();
        metrics::gauge("serve.sessions.active").set(active as f64);
        id
    }

    fn session_ended(&self, failed: bool) {
        let active = self.active.fetch_sub(1, Ordering::SeqCst) - 1;
        metrics::gauge("serve.sessions.active").set(active as f64);
        if failed {
            metrics::counter("serve.sessions.failed").inc();
        } else {
            metrics::counter("serve.sessions.finished").inc();
        }
    }
}

/// A running daemon. Bind with [`Server::bind`]; stop programmatically
/// with [`Server::stop`] or over the wire with a SHUTDOWN frame.
pub struct Server {
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and starts the accept loop.
    ///
    /// Binding `127.0.0.1:0` picks a free port; [`Server::address`]
    /// reports the resolved address.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(listen: Listen, config: ServeConfig) -> io::Result<Server> {
        let (listener, address) = match &listen {
            Listen::Tcp(addr) => {
                let listener = TcpListener::bind(addr)?;
                let local = listener.local_addr()?.to_string();
                (Listener::Tcp(listener), Listen::Tcp(local))
            }
            Listen::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                (Listener::Unix(UnixListener::bind(path)?), listen.clone())
            }
        };
        let shared = Arc::new(Shared {
            config,
            address,
            stop: AtomicBool::new(false),
            next_session: AtomicU64::new(0),
            opened: AtomicU64::new(0),
            active: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = thread::Builder::new()
            .name("sigil-serve-accept".to_owned())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawning the accept thread");
        obs_info!(
            "serve: listening on {} (credits {}, idle timeout {:?})",
            shared.address.address(),
            config.credits,
            config.idle_timeout
        );
        Ok(Server {
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The resolved listen address (clients pass this to `--connect`).
    pub fn address(&self) -> String {
        self.shared.address.address()
    }

    /// Blocks until the server shuts down (via SHUTDOWN or [`stop`](Server::stop)).
    pub fn wait(mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }

    /// Requests shutdown and wakes the accept loop. Does not wait for
    /// in-flight sessions; pair with [`wait`](Server::wait).
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        wake_accept(&self.shared.address);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

/// Connects to our own listener so a blocking `accept` returns and the
/// loop can observe the stop flag.
fn wake_accept(address: &Listen) {
    let _ = match address {
        Listen::Tcp(addr) => TcpStream::connect(addr).map(|_| ()),
        Listen::Unix(path) => UnixStream::connect(path).map(|_| ()),
    };
}

fn accept_loop(listener: Listener, shared: Arc<Shared>) {
    loop {
        let conn = match listener.accept() {
            Ok(conn) => conn,
            Err(_) if shared.stop.load(Ordering::SeqCst) => break,
            Err(_) => continue,
        };
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let conn_shared = Arc::clone(&shared);
        let spawned = thread::Builder::new()
            .name("sigil-serve-conn".to_owned())
            .spawn(move || handle_connection(conn, conn_shared));
        if spawned.is_err() {
            // Thread exhaustion: drop the connection; the client sees EOF.
            continue;
        }
    }
    if let Listen::Unix(path) = &shared.address {
        let _ = std::fs::remove_file(path);
    }
    obs_info!("serve: accept loop stopped");
}

/// Sends a frame on a shared writer, ignoring the result (the peer may
/// already be gone when reporting errors).
fn send_frame(writer: &Mutex<Conn>, frame: &Frame) -> io::Result<()> {
    let mut guard = writer.lock().expect("writer lock");
    frame.write_to(&mut *guard)
}

fn send_error(writer: &Mutex<Conn>, offset: u64, message: String) {
    let frame = Frame {
        kind: FrameKind::Error,
        aux: 0,
        payload: to_json_payload(&WireError { offset, message }),
    };
    let _ = send_frame(writer, &frame);
}

/// Input a connection closing after an ERROR still discards, at most.
const DRAIN_CAP_BYTES: usize = 64 << 20;

/// First frame decides: HELLO opens a session on this connection,
/// SHUTDOWN drains and stops the server.
fn handle_connection(mut conn: Conn, shared: Arc<Shared>) {
    let _ = conn.set_read_timeout(Some(shared.config.idle_timeout));
    let mut offset = 0u64;
    let first = match Frame::read_from(&mut conn, &mut offset) {
        Ok(frame) => frame,
        Err(_) => return, // wake-up probe or dead client; nothing to answer
    };
    if first.kind == FrameKind::Shutdown {
        return handle_shutdown(conn, &shared);
    }
    let writer = match conn.try_clone() {
        Ok(clone) => Arc::new(Mutex::new(clone)),
        Err(_) => return,
    };
    let failed = match check_hello(&first) {
        Err(message) => {
            send_error(&writer, 0, message);
            true
        }
        Ok(spec) => {
            let session = shared.session_started();
            let result = run_session(&mut conn, writer, spec, session, &shared, offset);
            shared.session_ended(result.is_err());
            if let Err(message) = &result {
                obs_info!("serve: session {session} failed: {message}");
            }
            result.is_err()
        }
    };
    if failed {
        close_after_error(conn, shared.config.idle_timeout);
    }
}

/// The session a first frame asks for, or why it is refused.
fn check_hello(first: &Frame) -> Result<SessionSpec, String> {
    if first.kind != FrameKind::Hello {
        return Err(format!(
            "expected HELLO or SHUTDOWN as the first frame, got {:?}",
            first.kind
        ));
    }
    let spec: SessionSpec =
        from_json_payload(&first.payload, 0, "HELLO").map_err(|e| e.to_string())?;
    if spec.version != WIRE_VERSION {
        return Err(format!(
            "wire version mismatch: client speaks {}, server speaks {WIRE_VERSION}",
            spec.version
        ));
    }
    if spec.mode != "trace" && spec.mode != "events" {
        return Err(format!(
            "unknown session mode {:?} (expected \"trace\" or \"events\")",
            spec.mode
        ));
    }
    // Out-of-range settings would panic the profiler after WELCOME,
    // leaking the session: refuse them here instead.
    spec.config()
        .validate()
        .map_err(|message| format!("bad HELLO: {message}"))?;
    Ok(spec)
}

/// Closes a connection after an ERROR frame. Closing a socket whose
/// input is still unread sends a reset, which can discard the ERROR
/// before the client reads it. So shut the write half, discard what the
/// client still sends until it closes (at most [`DRAIN_CAP_BYTES`], for
/// at most `idle_timeout`), then close.
fn close_after_error(mut conn: Conn, idle_timeout: Duration) {
    let _ = conn.shutdown_write();
    let deadline = Instant::now() + idle_timeout;
    let mut buf = vec![0u8; 64 << 10];
    let mut drained = 0;
    while drained < DRAIN_CAP_BYTES {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || conn.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match conn.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

fn handle_shutdown(mut conn: Conn, shared: &Arc<Shared>) {
    shared.stop.store(true, Ordering::SeqCst);
    obs_info!("serve: shutdown requested, draining sessions");
    // Wait (bounded) for in-flight sessions to finish.
    let deadline = Instant::now() + shared.config.idle_timeout + Duration::from_secs(5);
    while shared.active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(5));
    }
    let active = shared.active.load(Ordering::SeqCst);
    let summary = ShutdownSummary {
        drained: active == 0,
        active,
        opened: shared.opened.load(Ordering::SeqCst),
    };
    let frame = Frame {
        kind: FrameKind::ShutdownOk,
        aux: 0,
        payload: to_json_payload(&summary),
    };
    let _ = frame.write_to(&mut conn);
    wake_accept(&shared.address);
}

/// Live ingest counters, shared between reader (STATUS) and worker.
struct SessionCounters {
    chunks: AtomicU64,
    processed: AtomicU64,
    records: AtomicU64,
}

/// Work queued from the reader to the worker.
enum WorkItem {
    Chunk {
        payload: Vec<u8>,
        records: u32,
        offset: u64,
        enqueued: Instant,
    },
    Snapshot,
    Finish,
}

/// Events-mode aggregation: the streaming folds.
struct EventFolds {
    phases: Option<PhaseFold>,
    critpath: CriticalPathFold,
    cdfg: EventCdfgFold,
}

/// Per-session aggregation state: the same folds and profiler the batch
/// pipeline uses, fed incrementally. Both payloads are boxed — the enum
/// moves between threads, and the profiler and fold state are large.
enum SessionState {
    Trace {
        profiler: Box<SigilProfiler>,
        symbols: SymbolTable,
    },
    Events(Box<EventFolds>),
}

/// Runs one session to completion. Returns `Err(reason)` if the session
/// failed (protocol error, decode error, disconnect, timeout).
fn run_session(
    conn: &mut Conn,
    writer: Arc<Mutex<Conn>>,
    spec: SessionSpec,
    session: u64,
    shared: &Arc<Shared>,
    mut offset: u64,
) -> Result<(), String> {
    let credits = shared.config.credits.max(1);
    let welcome = Frame {
        kind: FrameKind::Welcome,
        aux: 0,
        payload: to_json_payload(&Welcome {
            version: WIRE_VERSION,
            session,
            credits,
        }),
    };
    send_frame(&writer, &welcome).map_err(|e| format!("sending WELCOME: {e}"))?;
    obs_info!(
        "serve: session {session} opened ({} mode, name {:?})",
        spec.mode,
        spec.name
    );

    let counters = Arc::new(SessionCounters {
        chunks: AtomicU64::new(0),
        processed: AtomicU64::new(0),
        records: AtomicU64::new(0),
    });
    // Slack above the credit window lets SNAPSHOT/FINISH queue behind a
    // full window of chunks without blocking the reader; credit
    // violations are detected on the counters, not on queue capacity.
    let (sender, receiver) = mpsc::sync_channel::<WorkItem>(credits as usize + 4);

    let state = if spec.mode == "trace" {
        SessionState::Trace {
            profiler: Box::new(SigilProfiler::new(spec.config())),
            symbols: SymbolTable::default(),
        }
    } else {
        SessionState::Events(Box::new(EventFolds {
            phases: spec.bucket_ops.map(PhaseFold::new),
            critpath: CriticalPathFold::new(),
            cdfg: EventCdfgFold::new(),
        }))
    };

    let worker_writer = Arc::clone(&writer);
    let worker_counters = Arc::clone(&counters);
    let mode = spec.mode.clone();
    let worker = thread::Builder::new()
        .name(format!("sigil-serve-s{session}"))
        .spawn(move || {
            session_worker(
                receiver,
                state,
                worker_writer,
                worker_counters,
                session,
                mode,
            )
        })
        .map_err(|e| format!("spawning session worker: {e}"))?;

    let read_result = session_read_loop(
        conn,
        &writer,
        &sender,
        &counters,
        credits,
        &mut offset,
        (session, &spec),
    );
    // Dropping the sender lets the worker drain and exit even when the
    // reader bailed out early.
    drop(sender);
    let worker_result = worker
        .join()
        .unwrap_or_else(|_| Err("worker panicked".to_owned()));
    match (read_result, worker_result) {
        (Ok(()), Ok(finished)) => {
            if finished {
                Ok(())
            } else {
                let message = "connection closed before FINISH".to_owned();
                send_error(&writer, offset, message.clone());
                Err(message)
            }
        }
        (Err(e), _) => Err(e),
        (Ok(()), Err(e)) => Err(e),
    }
}

/// Parses frames until FINISH is enqueued, EOF, or a protocol error.
/// STATUS is answered inline from the shared counters; chunk and
/// snapshot work is queued in arrival order.
fn session_read_loop(
    conn: &mut Conn,
    writer: &Mutex<Conn>,
    sender: &SyncSender<WorkItem>,
    counters: &SessionCounters,
    credits: u32,
    offset: &mut u64,
    identity: (u64, &SessionSpec),
) -> Result<(), String> {
    loop {
        let frame = match Frame::read_from(conn, offset) {
            Ok(frame) => frame,
            Err(ProtoError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                let message = format!("session idle timeout at connection offset {offset}");
                send_error(writer, *offset, message.clone());
                return Err(message);
            }
            Err(e) => {
                let at = match &e {
                    ProtoError::Format { offset, .. } => *offset,
                    ProtoError::Io(_) => *offset,
                };
                let message = e.to_string();
                send_error(writer, at, message.clone());
                return Err(message);
            }
        };
        match frame.kind {
            FrameKind::Chunk => {
                let outstanding = counters.chunks.load(Ordering::SeqCst)
                    - counters.processed.load(Ordering::SeqCst);
                if outstanding >= u64::from(credits) {
                    let message = format!(
                        "credit violation: {outstanding} unprocessed chunks with a window of {credits}"
                    );
                    send_error(writer, *offset, message.clone());
                    return Err(message);
                }
                counters.chunks.fetch_add(1, Ordering::SeqCst);
                let chunk_offset = *offset - frame.payload.len() as u64;
                let item = WorkItem::Chunk {
                    payload: frame.payload,
                    records: frame.aux,
                    offset: chunk_offset,
                    enqueued: Instant::now(),
                };
                if sender.send(item).is_err() {
                    // Worker already died; it reported its own error.
                    return Ok(());
                }
            }
            FrameKind::Status => {
                let info = StatusInfo {
                    session: identity.0,
                    name: identity.1.name.clone(),
                    mode: identity.1.mode.clone(),
                    chunks: counters.chunks.load(Ordering::SeqCst),
                    processed: counters.processed.load(Ordering::SeqCst),
                    records: counters.records.load(Ordering::SeqCst),
                };
                let reply = Frame {
                    kind: FrameKind::StatusOk,
                    aux: 0,
                    payload: to_json_payload(&info),
                };
                if send_frame(writer, &reply).is_err() {
                    return Err("client went away while answering STATUS".to_owned());
                }
            }
            FrameKind::Snapshot => {
                if sender.send(WorkItem::Snapshot).is_err() {
                    return Ok(());
                }
            }
            FrameKind::Finish => {
                let _ = sender.send(WorkItem::Finish);
                return Ok(());
            }
            other => {
                let message = format!("unexpected frame {other:?} inside a session");
                send_error(writer, *offset, message.clone());
                return Err(message);
            }
        }
    }
}

/// Decodes queued chunks into the session state, grants one CREDIT per
/// processed chunk, and finalizes on FINISH. Returns `Ok(true)` when a
/// RESULT was sent, `Ok(false)` on a clean early stop (reader closed
/// the queue before FINISH).
fn session_worker(
    receiver: Receiver<WorkItem>,
    mut state: SessionState,
    writer: Arc<Mutex<Conn>>,
    counters: Arc<SessionCounters>,
    session: u64,
    mode: String,
) -> Result<bool, String> {
    let lag = metrics::histogram("serve.ingest_lag_us", LAG_BOUNDS_US);
    let session_records = format!("serve.session.{session}.records");
    let session_chunks = format!("serve.session.{session}.chunks");
    while let Ok(item) = receiver.recv() {
        match item {
            WorkItem::Chunk {
                payload,
                records,
                offset,
                enqueued,
            } => {
                let lag_us = enqueued.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                lag.observe(lag_us);
                let fed = feed_chunk(&mut state, &payload, records, offset).map_err(|e| {
                    let message = e.to_string();
                    send_error(&writer, chunk_error_offset(&e, offset), message.clone());
                    message
                })?;
                counters.records.fetch_add(fed, Ordering::SeqCst);
                counters.processed.fetch_add(1, Ordering::SeqCst);
                metrics::counter("serve.chunks").inc();
                metrics::counter("serve.records").add(fed);
                metrics::counter("serve.bytes").add(payload.len() as u64);
                metrics::counter(&session_records).add(fed);
                metrics::counter(&session_chunks).inc();
                let credit = Frame {
                    kind: FrameKind::Credit,
                    aux: 1,
                    payload: Vec::new(),
                };
                if send_frame(&writer, &credit).is_err() {
                    return Err("client went away while granting credit".to_owned());
                }
            }
            WorkItem::Snapshot => {
                let info = snapshot(&state, counters.records.load(Ordering::SeqCst));
                let reply = Frame {
                    kind: FrameKind::SnapshotOk,
                    aux: 0,
                    payload: to_json_payload(&info),
                };
                if send_frame(&writer, &reply).is_err() {
                    return Err("client went away while answering SNAPSHOT".to_owned());
                }
            }
            WorkItem::Finish => {
                let records = counters.records.load(Ordering::SeqCst);
                let result = finalize(state, mode, records);
                let reply = Frame {
                    kind: FrameKind::Result,
                    aux: 0,
                    payload: to_json_payload(&result),
                };
                send_frame(&writer, &reply).map_err(|e| format!("sending RESULT: {e}"))?;
                obs_info!("serve: session {session} finished ({records} records)");
                return Ok(true);
            }
        }
    }
    Ok(false)
}

fn chunk_error_offset(error: &ProtoError, fallback: u64) -> u64 {
    match error {
        ProtoError::Format { offset, .. } => *offset,
        ProtoError::Io(_) => fallback,
    }
}

/// Decodes one chunk payload into the session state. `offset` is the
/// payload's connection offset, so decode errors name the damaged byte.
/// Returns the number of records fed.
fn feed_chunk(
    state: &mut SessionState,
    payload: &[u8],
    records: u32,
    offset: u64,
) -> Result<u64, ProtoError> {
    match state {
        SessionState::Trace { profiler, symbols } => {
            let decoded: Vec<TraceRecord> = decode_chunk_payload(payload, records, offset)?;
            TraceRecord::apply(&decoded, symbols, profiler.as_mut())
                .map_err(|message| ProtoError::format(offset, message))
        }
        SessionState::Events(folds) => {
            let EventFolds {
                phases,
                critpath,
                cdfg,
            } = folds.as_mut();
            let decoded: Vec<EventRecord> = decode_chunk_payload(payload, records, offset)?;
            for record in &decoded {
                if let Some(fold) = phases.as_mut() {
                    fold.push(record);
                }
                critpath.push(record);
                cdfg.push(record);
            }
            Ok(decoded.len() as u64)
        }
    }
}

/// Point-in-time aggregates for SNAPSHOT.
fn snapshot(state: &SessionState, records: u64) -> SnapshotInfo {
    match state {
        SessionState::Trace { profiler, .. } => SnapshotInfo {
            records,
            phases: profiler.phase_snapshot(),
            critpath: None,
        },
        SessionState::Events(folds) => SnapshotInfo {
            records,
            phases: folds.phases.clone().map(PhaseFold::finish),
            critpath: folds.critpath.summary().ok(),
        },
    }
}

/// Finalizes the session exactly as the batch pipeline would: trace
/// sessions run `on_finish` + `into_profile`, events sessions finish the
/// three folds.
fn finalize(state: SessionState, mode: String, records: u64) -> SessionResult {
    match state {
        SessionState::Trace {
            mut profiler,
            symbols,
        } => {
            profiler.on_finish();
            let profile = profiler.into_profile(symbols);
            let critpath = profile.events.as_ref().and_then(|events| {
                let mut fold = CriticalPathFold::new();
                fold.extend(events.records());
                fold.finish().ok()
            });
            SessionResult {
                mode,
                records,
                phases: profile.phases.clone(),
                critpath,
                profile: Some(profile),
                cdfg_contexts: None,
                cdfg_edges: None,
                compute_ops: None,
                transfer_bytes: None,
            }
        }
        SessionState::Events(folds) => {
            let EventFolds {
                phases,
                critpath,
                cdfg,
            } = *folds;
            let cdfg = cdfg.finish();
            // Every transfer's bytes land on one CDFG edge or in the
            // unattributed share, each a saturating sum, so this equals
            // the saturating sum over all transfers.
            let transfer_bytes = cdfg
                .edges()
                .iter()
                .fold(cdfg.unattributed_bytes(), |sum, edge| {
                    sum.saturating_add(edge.bytes)
                });
            SessionResult {
                mode,
                records,
                profile: None,
                phases: phases.map(PhaseFold::finish),
                compute_ops: Some(critpath.serial_ops()),
                critpath: critpath.finish().ok(),
                cdfg_contexts: Some(cdfg.len() as u64),
                cdfg_edges: Some(cdfg.edges().len() as u64),
                transfer_bytes: Some(transfer_bytes),
            }
        }
    }
}
