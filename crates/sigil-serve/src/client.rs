//! A blocking client for the `sigil-serve` protocol: opens a session,
//! streams chunks under the server's credit window, and runs the
//! STATUS/SNAPSHOT/FINISH queries.

use std::fmt;
use std::io;
use std::net::TcpStream;
use std::os::unix::net::UnixStream;

use sigil_core::events_bin::{encode_chunk_payload, DEFAULT_CHUNK_RECORDS};
use sigil_core::{EventRecord, TraceRecord};
use sigil_trace::{RuntimeEvent, SymbolTable};

use crate::proto::{
    from_json_payload, to_json_payload, Frame, FrameKind, ProtoError, SessionResult, SessionSpec,
    ShutdownSummary, SnapshotInfo, StatusInfo, Welcome, WireError,
};

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket failure.
    Io(io::Error),
    /// The server's bytes were malformed.
    Proto(ProtoError),
    /// The server reported a session error, located on the wire.
    Server {
        /// Connection byte offset the server associated with the failure.
        offset: u64,
        /// The server's description.
        message: String,
    },
    /// The server sent a frame the protocol does not allow here.
    Unexpected(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client I/O error: {e}"),
            ClientError::Proto(e) => write!(f, "client decode error: {e}"),
            ClientError::Server { offset, message } => {
                write!(f, "server error at connection offset {offset}: {message}")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected server frame: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        match e {
            ProtoError::Io(io) => ClientError::Io(io),
            other => ClientError::Proto(other),
        }
    }
}

/// The client side of a connection, TCP or Unix.
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl io::Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// Connects to `address` (a path containing `/` means Unix socket).
fn connect_stream(address: &str) -> io::Result<Stream> {
    if address.contains('/') {
        Ok(Stream::Unix(UnixStream::connect(address)?))
    } else {
        Ok(Stream::Tcp(TcpStream::connect(address)?))
    }
}

/// One open profile session.
pub struct Client {
    stream: Stream,
    /// Connection offset of the next unread server byte (locates decode
    /// errors in the server's responses).
    read_offset: u64,
    /// Server-assigned session id.
    session: u64,
    /// CHUNK frames we may still send before waiting for CREDIT.
    credits: u32,
    /// Times a send had to block on the credit window.
    credit_waits: u64,
    /// Records per CHUNK when streaming whole traces or event files.
    chunk_records: usize,
}

impl Client {
    /// Opens a session: connects, sends HELLO, waits for WELCOME.
    ///
    /// # Errors
    ///
    /// Fails on connection errors or if the server rejects the spec.
    pub fn connect(address: &str, spec: &SessionSpec) -> Result<Client, ClientError> {
        let mut client = Client {
            stream: connect_stream(address)?,
            read_offset: 0,
            session: 0,
            credits: 0,
            credit_waits: 0,
            chunk_records: DEFAULT_CHUNK_RECORDS,
        };
        let hello = Frame {
            kind: FrameKind::Hello,
            aux: 0,
            payload: to_json_payload(spec),
        };
        hello.write_to(&mut client.stream)?;
        let frame = client.wait_for(FrameKind::Welcome)?;
        let welcome: Welcome = from_json_payload(&frame.payload, client.read_offset, "WELCOME")?;
        client.session = welcome.session;
        client.credits = welcome.credits.max(1);
        Ok(client)
    }

    /// The server-assigned session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// How many sends had to block waiting for a CREDIT grant — a
    /// direct observation of backpressure engaging.
    pub fn credit_waits(&self) -> u64 {
        self.credit_waits
    }

    /// Overrides the records-per-chunk used by the streaming helpers.
    pub fn set_chunk_records(&mut self, records: usize) {
        self.chunk_records = records.max(1);
    }

    /// Reads one frame, absorbing CREDIT grants and raising server
    /// ERROR frames, until a frame of `kind` arrives.
    fn wait_for(&mut self, kind: FrameKind) -> Result<Frame, ClientError> {
        loop {
            let frame = Frame::read_from(&mut self.stream, &mut self.read_offset)?;
            match frame.kind {
                FrameKind::Credit => self.credits += frame.aux,
                FrameKind::Error => return Err(self.server_error(&frame)),
                got if got == kind => return Ok(frame),
                other => {
                    return Err(ClientError::Unexpected(format!(
                        "waiting for {kind:?}, got {other:?}"
                    )))
                }
            }
        }
    }

    fn server_error(&self, frame: &Frame) -> ClientError {
        match from_json_payload::<WireError>(&frame.payload, self.read_offset, "ERROR") {
            Ok(err) => ClientError::Server {
                offset: err.offset,
                message: err.message,
            },
            Err(e) => e.into(),
        }
    }

    /// Sends one raw CHUNK frame, blocking on the credit window first.
    ///
    /// # Errors
    ///
    /// Fails on socket errors or a server-reported session error.
    pub fn send_chunk(&mut self, payload: Vec<u8>, records: u32) -> Result<(), ClientError> {
        if self.credits == 0 {
            self.credit_waits += 1;
            while self.credits == 0 {
                let frame = Frame::read_from(&mut self.stream, &mut self.read_offset)?;
                match frame.kind {
                    FrameKind::Credit => self.credits += frame.aux,
                    FrameKind::Error => return Err(self.server_error(&frame)),
                    other => {
                        return Err(ClientError::Unexpected(format!(
                            "waiting for CREDIT, got {other:?}"
                        )))
                    }
                }
            }
        }
        let frame = Frame {
            kind: FrameKind::Chunk,
            aux: records,
            payload,
        };
        frame.write_to(&mut self.stream)?;
        self.credits -= 1;
        Ok(())
    }

    /// Streams a whole trace — symbol table first, then every event —
    /// as trace-mode chunks.
    ///
    /// # Errors
    ///
    /// Propagates [`send_chunk`](Client::send_chunk) failures.
    pub fn stream_trace(
        &mut self,
        symbols: &SymbolTable,
        events: &[RuntimeEvent],
    ) -> Result<(), ClientError> {
        let mut records = TraceRecord::of_trace(symbols, events).peekable();
        let mut chunk = Vec::with_capacity(self.chunk_records);
        while records.peek().is_some() {
            chunk.clear();
            chunk.extend(records.by_ref().take(self.chunk_records));
            self.send_chunk(encode_chunk_payload(&chunk), chunk.len() as u32)?;
        }
        Ok(())
    }

    /// Streams event records as events-mode chunks.
    ///
    /// # Errors
    ///
    /// Propagates [`send_chunk`](Client::send_chunk) failures.
    pub fn stream_events(&mut self, records: &[EventRecord]) -> Result<(), ClientError> {
        for chunk in records.chunks(self.chunk_records) {
            self.send_chunk(encode_chunk_payload(chunk), chunk.len() as u32)?;
        }
        Ok(())
    }

    /// Queries the server's ingest counters (answered without waiting
    /// for queued chunks to drain).
    ///
    /// # Errors
    ///
    /// Fails on socket errors or a server-reported session error.
    pub fn status(&mut self) -> Result<StatusInfo, ClientError> {
        Frame::control(FrameKind::Status).write_to(&mut self.stream)?;
        let frame = self.wait_for(FrameKind::StatusOk)?;
        Ok(from_json_payload(
            &frame.payload,
            self.read_offset,
            "STATUS_OK",
        )?)
    }

    /// Queries a live aggregate snapshot (processed in queue order, so
    /// it reflects every chunk sent before it).
    ///
    /// # Errors
    ///
    /// Fails on socket errors or a server-reported session error.
    pub fn snapshot(&mut self) -> Result<SnapshotInfo, ClientError> {
        Frame::control(FrameKind::Snapshot).write_to(&mut self.stream)?;
        let frame = self.wait_for(FrameKind::SnapshotOk)?;
        Ok(from_json_payload(
            &frame.payload,
            self.read_offset,
            "SNAPSHOT_OK",
        )?)
    }

    /// Ends the stream and collects the finished session's result.
    ///
    /// # Errors
    ///
    /// Fails on socket errors or a server-reported session error.
    pub fn finish(mut self) -> Result<SessionResult, ClientError> {
        Frame::control(FrameKind::Finish).write_to(&mut self.stream)?;
        let frame = self.wait_for(FrameKind::Result)?;
        Ok(from_json_payload(
            &frame.payload,
            self.read_offset,
            "RESULT",
        )?)
    }
}

/// Asks the server at `address` to drain its sessions and shut down.
///
/// # Errors
///
/// Fails on connection errors or a malformed acknowledgement.
pub fn shutdown_server(address: &str) -> Result<ShutdownSummary, ClientError> {
    let mut stream = connect_stream(address)?;
    Frame::control(FrameKind::Shutdown).write_to(&mut stream)?;
    let mut offset = 0u64;
    let frame = Frame::read_from(&mut stream, &mut offset)?;
    if frame.kind != FrameKind::ShutdownOk {
        return Err(ClientError::Unexpected(format!(
            "waiting for SHUTDOWN_OK, got {:?}",
            frame.kind
        )));
    }
    Ok(from_json_payload(&frame.payload, offset, "SHUTDOWN_OK")?)
}
