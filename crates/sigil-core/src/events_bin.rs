//! Chunk-indexed binary container for record streams (`SGEB`).
//!
//! The text format of [`crate::events_out`] is the human-readable
//! exchange representation; at production trace volume (billions of
//! records) it is both bulky (~27 bytes/record) and forces the
//! post-processing passes to hold the whole record list in memory. This
//! module defines the one on-disk container for binary record streams.
//! It holds one of two record kinds, named in the file header:
//!
//! * [`EventRecord`]s (kind 0, `.evb` files): the event file the
//!   streaming analyses consume.
//! * [`TraceRecord`]s (kind 1, `.sgtr` files): a recorded runtime trace
//!   plus its symbol table, which `sigil replay` profiles without
//!   running the workload again.
//!
//! Both kinds share the framing:
//!
//! * **Independently decodable chunks.** Records are grouped into chunks
//!   (default [`DEFAULT_CHUNK_RECORDS`] records, and never more than
//!   [`MAX_PAYLOAD`] bytes); any per-chunk encoder state resets at every
//!   chunk boundary, so any chunk can be decoded without its
//!   predecessors. Each chunk is framed by a fixed header carrying its
//!   payload length, record count, and an FNV-1a checksum — the file is
//!   self-framing and sequentially streamable with memory bounded by one
//!   chunk.
//! * **Trailer index.** After the last chunk, a fixed-width index records
//!   every chunk's file offset, record count, call-record count, compute
//!   ops, and transfer bytes (the last three stay zero for trace chunks),
//!   followed by a footer with the index offset and whole-file totals.
//!   `sigil events stat` answers from the trailer without touching a
//!   single record.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header   "SGEB" | version u16 | kind u16 | chunk_target u32 | reserved u32
//! chunk*   0x01 | record_count u32 | payload_len u32 | fnv1a64 u64 | payload
//! index    0x02 | per chunk: offset u64 | record_count u32 | call_records u32
//!                            | compute_ops u64 | transfer_bytes u64
//! footer   index_offset u64 | chunk_count u64 | total_records u64 | "SGEBIDX\0"
//! ```
//!
//! Event-record payloads (kind 0) are a tag byte plus LEB128 varints; call
//! numbers are zigzag-delta encoded against the previous record's call
//! (`prev` starts at 0 in every chunk):
//!
//! ```text
//! Call     0x00 zz(parent - prev) zz(call - prev) ctx          prev = call
//! Compute  0x01 zz(call - prev)   ctx             ops          prev = call
//! Transfer 0x02 zz(from - prev)   zz(to - from)   bytes        prev = to
//! ```
//!
//! Trace-record payloads (kind 1) are a tag byte plus fixed-width fields:
//!
//! ```text
//! Sym          0x00 id u32 | len u32 | utf-8 name
//! Call         0x01 callee u32        Return       0x02
//! Read         0x03 addr u64 | size u32
//! Write        0x04 addr u64 | size u32
//! Op           0x05 class u8 | count u32
//! Branch       0x06 taken u8 | site u64
//! SyscallEnter 0x07 name u32          SyscallExit  0x08
//! ThreadSwitch 0x09 thread u32
//! ```
//!
//! One loop decodes every payload, for [`ChunkStream`] and for
//! [`decode_chunk_payload`] alike. Lossless round-trips are pinned by the
//! `events_roundtrip` proptests; decoding arbitrary byte soup returns a
//! located [`BinError`], never a panic.

use std::fmt;
use std::io::{self, Read, Write};

use sigil_trace::{
    CallNumber, ExecutionObserver, FunctionId, MemAccess, OpClass, RuntimeEvent, SymbolTable,
    ThreadId, TraceError,
};

use crate::events_out::{EventFile, EventRecord};

/// File magic, first four bytes.
pub const MAGIC: [u8; 4] = *b"SGEB";
/// Footer magic, last eight bytes.
pub const END_MAGIC: [u8; 8] = *b"SGEBIDX\0";
/// Current format version.
pub const VERSION: u16 = 1;
/// Default records per chunk.
pub const DEFAULT_CHUNK_RECORDS: usize = 4096;

/// Tag byte framing a chunk.
const TAG_CHUNK: u8 = 0x01;
/// Tag byte framing the trailer index.
const TAG_INDEX: u8 = 0x02;
/// Byte length of the fixed file header.
const HEADER_LEN: usize = 16;
/// Byte offset of the record kind within the file header.
const KIND_AT: u64 = 6;
/// Byte length of a chunk frame header (after the tag byte).
const CHUNK_HEADER_LEN: usize = 16;
/// Byte length of one trailer-index entry.
const INDEX_ENTRY_LEN: usize = 32;
/// Byte length of the footer.
const FOOTER_LEN: usize = 32;
/// Upper bound on a single chunk payload (corruption guard: never
/// allocate more than this from an untrusted length field). Public so
/// wire protocols framing SGEB chunk payloads enforce the same bound.
pub const MAX_PAYLOAD: u32 = 1 << 26;

/// A decode or I/O failure, located as precisely as the format allows.
#[derive(Debug)]
pub enum BinError {
    /// An underlying I/O error (file readers/writers only).
    Io(io::Error),
    /// Malformed bytes: absolute file `offset`, the chunk being decoded
    /// (`None` for header/trailer damage), and what went wrong.
    Format {
        /// Absolute byte offset of the damage.
        offset: u64,
        /// Index of the chunk being decoded, if any.
        chunk: Option<usize>,
        /// Human-readable description.
        message: String,
    },
}

impl BinError {
    fn format(offset: u64, chunk: Option<usize>, message: impl Into<String>) -> Self {
        BinError::Format {
            offset,
            chunk,
            message: message.into(),
        }
    }
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinError::Io(e) => write!(f, "event file I/O error: {e}"),
            BinError::Format {
                offset,
                chunk,
                message,
            } => match chunk {
                Some(c) => write!(
                    f,
                    "bad event file at offset {offset} (chunk {c}): {message}"
                ),
                None => write!(f, "bad event file at offset {offset}: {message}"),
            },
        }
    }
}

impl std::error::Error for BinError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BinError::Io(e) => Some(e),
            BinError::Format { .. } => None,
        }
    }
}

impl From<io::Error> for BinError {
    fn from(e: io::Error) -> Self {
        BinError::Io(e)
    }
}

/// Per-chunk bookkeeping, as stored in the trailer index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChunkInfo {
    /// Absolute file offset of the chunk's tag byte.
    pub offset: u64,
    /// Records in the chunk.
    pub records: u32,
    /// How many of them are `Call` records.
    pub call_records: u32,
    /// Sum of `Compute::ops` in the chunk.
    pub compute_ops: u64,
    /// Sum of `Transfer::bytes` in the chunk.
    pub transfer_bytes: u64,
}

impl ChunkInfo {
    fn to_bytes(self) -> [u8; INDEX_ENTRY_LEN] {
        let mut out = [0u8; INDEX_ENTRY_LEN];
        out[..8].copy_from_slice(&self.offset.to_le_bytes());
        out[8..12].copy_from_slice(&self.records.to_le_bytes());
        out[12..16].copy_from_slice(&self.call_records.to_le_bytes());
        out[16..24].copy_from_slice(&self.compute_ops.to_le_bytes());
        out[24..].copy_from_slice(&self.transfer_bytes.to_le_bytes());
        out
    }

    fn from_bytes(entry: &[u8]) -> ChunkInfo {
        ChunkInfo {
            offset: read_u64(entry, 0),
            records: read_u32(entry, 8),
            call_records: read_u32(entry, 12),
            compute_ops: read_u64(entry, 16),
            transfer_bytes: read_u64(entry, 24),
        }
    }
}

/// Whole-file totals, computable from the trailer index alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BinTotals {
    /// Number of chunks.
    pub chunks: u64,
    /// Total records.
    pub records: u64,
    /// Total `Call` records.
    pub call_records: u64,
    /// Total compute ops.
    pub compute_ops: u64,
    /// Total transfer bytes.
    pub transfer_bytes: u64,
}

impl BinTotals {
    /// Sums index entries (op and byte sums wrap, as in the index).
    fn of(index: &[ChunkInfo]) -> BinTotals {
        let mut totals = BinTotals::default();
        for info in index {
            totals.chunks += 1;
            totals.records += u64::from(info.records);
            totals.call_records += u64::from(info.call_records);
            totals.compute_ops = totals.compute_ops.wrapping_add(info.compute_ops);
            totals.transfer_bytes = totals.transfer_bytes.wrapping_add(info.transfer_bytes);
        }
        totals
    }
}

// ---------------------------------------------------------------------------
// Record kinds
// ---------------------------------------------------------------------------

/// Which record kind a container holds (the header's kind field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// [`EventRecord`]s: an event file (`.evb`).
    Event = 0,
    /// [`TraceRecord`]s: a recorded runtime trace (`.sgtr`).
    Trace = 1,
}

impl RecordKind {
    /// The kind's name in messages and `sigil events stat`.
    pub fn name(self) -> &'static str {
        match self {
            RecordKind::Event => "event",
            RecordKind::Trace => "trace",
        }
    }
}

mod sealed {
    use sigil_callgrind::ContextId;

    use super::BinError;

    /// Seals [`super::ChunkRecord`]: the container holds only this
    /// module's record kinds.
    pub trait Sealed {}

    /// Reads fields out of one chunk payload, locating damage at
    /// absolute offsets.
    pub struct Cursor<'a> {
        pub(super) data: &'a [u8],
        pub(super) pos: usize,
        /// Absolute offset of `data[0]` (file or connection).
        pub(super) base: u64,
        pub(super) chunk: Option<usize>,
    }

    impl<'a> Cursor<'a> {
        #[inline]
        pub(super) fn offset(&self) -> u64 {
            self.base + self.pos as u64
        }

        pub(super) fn error(&self, at: u64, message: impl Into<String>) -> BinError {
            BinError::format(at, self.chunk, message)
        }

        #[cold]
        fn truncated(&self) -> BinError {
            self.error(self.offset(), "truncated record")
        }

        #[inline]
        pub(super) fn take(&mut self, len: usize) -> Result<&'a [u8], BinError> {
            let Some(bytes) = self.data.get(self.pos..self.pos + len) else {
                return Err(self.truncated());
            };
            self.pos += len;
            Ok(bytes)
        }

        #[inline]
        pub(super) fn array<const N: usize>(&mut self) -> Result<[u8; N], BinError> {
            Ok(self.take(N)?.try_into().expect("took N bytes"))
        }

        #[inline]
        pub(super) fn byte(&mut self) -> Result<u8, BinError> {
            let Some(&byte) = self.data.get(self.pos) else {
                return Err(self.truncated());
            };
            self.pos += 1;
            Ok(byte)
        }

        #[inline]
        pub(super) fn u32(&mut self) -> Result<u32, BinError> {
            Ok(u32::from_le_bytes(self.array()?))
        }

        #[inline]
        pub(super) fn u64(&mut self) -> Result<u64, BinError> {
            Ok(u64::from_le_bytes(self.array()?))
        }

        /// An LEB128 value. Most are one byte below 0x80, which this
        /// returns after one bounds check; longer values and damage take
        /// the out-of-line path.
        #[inline]
        pub(super) fn varint(&mut self) -> Result<u64, BinError> {
            match self.data.get(self.pos) {
                Some(&byte) if byte < 0x80 => {
                    self.pos += 1;
                    Ok(u64::from(byte))
                }
                _ => self.long_varint(),
            }
        }

        /// [`Cursor::varint`] past its one-byte case: errors name the
        /// varint's first byte, or the byte missing from a truncated one.
        #[inline(never)]
        fn long_varint(&mut self) -> Result<u64, BinError> {
            let start = self.offset();
            let mut value = 0u64;
            let mut shift = 0u32;
            loop {
                let byte = self.byte()?;
                if shift == 63 && byte > 1 {
                    return Err(self.error(start, "varint overflows u64"));
                }
                value |= u64::from(byte & 0x7f) << shift;
                if byte & 0x80 == 0 {
                    return Ok(value);
                }
                shift += 7;
                if shift > 63 {
                    return Err(self.error(start, "varint longer than 10 bytes"));
                }
            }
        }

        /// A zigzag-encoded call-number delta from `from`.
        #[inline]
        pub(super) fn delta(&mut self, from: u64) -> Result<u64, BinError> {
            Ok(from.wrapping_add(super::unzigzag(self.varint()?)))
        }

        #[inline]
        pub(super) fn ctx(&mut self) -> Result<ContextId, BinError> {
            let start = self.offset();
            let raw = self.varint()?;
            u32::try_from(raw)
                .map(ContextId)
                .map_err(|_| self.error(start, format!("context id {raw} out of range")))
        }
    }
}

use sealed::Cursor;

/// A record kind the container can hold: [`EventRecord`] or
/// [`TraceRecord`].
pub trait ChunkRecord: Sized + sealed::Sealed {
    /// The kind stored in the file header.
    const KIND: RecordKind;
    /// Encoder and decoder state, reset at every chunk boundary.
    type State: Default;

    /// Appends the record's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>, state: &mut Self::State);

    /// Decodes one record at the cursor.
    fn decode(cursor: &mut Cursor<'_>, state: &mut Self::State) -> Result<Self, BinError>;

    /// Adds the record's share to its chunk's index entry, beyond the
    /// record count.
    fn tally(&self, _info: &mut ChunkInfo) {}
}

/// Appends `value` as LEB128 to `out`.
fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Zigzag-encodes a wrapping u64 difference so small ± deltas stay small.
fn zigzag(delta: u64) -> u64 {
    let d = delta as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(value: u64) -> u64 {
    ((value >> 1) as i64 ^ -((value & 1) as i64)) as u64
}

impl sealed::Sealed for EventRecord {}

impl ChunkRecord for EventRecord {
    const KIND: RecordKind = RecordKind::Event;
    /// The delta baseline: the previous record's call number.
    type State = u64;

    #[inline]
    fn encode(&self, out: &mut Vec<u8>, prev_call: &mut u64) {
        match *self {
            EventRecord::Call {
                parent_call,
                call,
                ctx,
            } => {
                out.push(0);
                put_varint(out, zigzag(parent_call.as_raw().wrapping_sub(*prev_call)));
                put_varint(out, zigzag(call.as_raw().wrapping_sub(*prev_call)));
                put_varint(out, u64::from(ctx.0));
                *prev_call = call.as_raw();
            }
            EventRecord::Compute { call, ctx, ops } => {
                out.push(1);
                put_varint(out, zigzag(call.as_raw().wrapping_sub(*prev_call)));
                put_varint(out, u64::from(ctx.0));
                put_varint(out, ops);
                *prev_call = call.as_raw();
            }
            EventRecord::Transfer {
                from_call,
                to_call,
                bytes,
            } => {
                out.push(2);
                put_varint(out, zigzag(from_call.as_raw().wrapping_sub(*prev_call)));
                put_varint(
                    out,
                    zigzag(to_call.as_raw().wrapping_sub(from_call.as_raw())),
                );
                put_varint(out, bytes);
                *prev_call = to_call.as_raw();
            }
        }
    }

    #[inline]
    fn decode(cursor: &mut Cursor<'_>, prev_call: &mut u64) -> Result<Self, BinError> {
        let at = cursor.offset();
        let record = match cursor.byte()? {
            0 => {
                let parent = cursor.delta(*prev_call)?;
                *prev_call = cursor.delta(*prev_call)?;
                EventRecord::Call {
                    parent_call: CallNumber::from_raw(parent),
                    call: CallNumber::from_raw(*prev_call),
                    ctx: cursor.ctx()?,
                }
            }
            1 => {
                *prev_call = cursor.delta(*prev_call)?;
                EventRecord::Compute {
                    call: CallNumber::from_raw(*prev_call),
                    ctx: cursor.ctx()?,
                    ops: cursor.varint()?,
                }
            }
            2 => {
                let from = cursor.delta(*prev_call)?;
                *prev_call = cursor.delta(from)?;
                EventRecord::Transfer {
                    from_call: CallNumber::from_raw(from),
                    to_call: CallNumber::from_raw(*prev_call),
                    bytes: cursor.varint()?,
                }
            }
            other => return Err(cursor.error(at, format!("unknown record tag {other:#04x}"))),
        };
        Ok(record)
    }

    #[inline]
    fn tally(&self, info: &mut ChunkInfo) {
        // Sums wrap (as in the index) rather than panic on hostile input.
        match *self {
            EventRecord::Call { .. } => info.call_records += 1,
            EventRecord::Compute { ops, .. } => {
                info.compute_ops = info.compute_ops.wrapping_add(ops);
            }
            EventRecord::Transfer { bytes, .. } => {
                info.transfer_bytes = info.transfer_bytes.wrapping_add(bytes);
            }
        }
    }
}

/// One record of a trace: `.sgtr` files and trace-session CHUNK payloads
/// hold these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceRecord {
    /// Defines function id `id` as `name`. Ids arrive in interning order
    /// (0, 1, 2, …), so a reader's sequential [`SymbolTable`] reproduces
    /// them.
    Sym {
        /// The function id being defined.
        id: u32,
        /// Its symbol name.
        name: String,
    },
    /// One runtime event.
    Event(RuntimeEvent),
}

impl TraceRecord {
    /// The records of a recorded trace: every symbol definition in
    /// interning order, then every event — the order a reader's
    /// sequential intern needs to reproduce every id.
    pub fn of_trace<'a>(
        symbols: &'a SymbolTable,
        events: &'a [RuntimeEvent],
    ) -> impl Iterator<Item = TraceRecord> + 'a {
        let symbols = symbols.iter().map(|(id, name)| TraceRecord::Sym {
            id: id.as_raw(),
            name: name.to_owned(),
        });
        symbols.chain(events.iter().map(|&event| TraceRecord::Event(event)))
    }

    /// Replays one decoded chunk: symbol definitions are interned into
    /// `symbols`, events go to `observer`. Returns the number of events
    /// fed.
    ///
    /// # Errors
    ///
    /// Names the record (its index in `records`) whose declared id is not
    /// the id interning assigns it — ids out of order, or a name defined
    /// twice.
    pub fn apply<O: ExecutionObserver + ?Sized>(
        records: &[TraceRecord],
        symbols: &mut SymbolTable,
        observer: &mut O,
    ) -> Result<u64, String> {
        let mut events = 0;
        for (i, record) in records.iter().enumerate() {
            match record {
                TraceRecord::Sym { id, name } => {
                    let assigned = symbols.intern(name).as_raw();
                    if assigned != *id {
                        return Err(format!(
                            "record {i}: symbol {name:?} declared id {id} but interned as {assigned}"
                        ));
                    }
                }
                TraceRecord::Event(event) => {
                    observer.on_event(*event);
                    events += 1;
                }
            }
        }
        Ok(events)
    }
}

impl sealed::Sealed for TraceRecord {}

impl ChunkRecord for TraceRecord {
    const KIND: RecordKind = RecordKind::Trace;
    type State = ();

    #[inline]
    fn encode(&self, out: &mut Vec<u8>, _: &mut ()) {
        let event = match self {
            TraceRecord::Sym { id, name } => {
                out.push(0);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&(name.len() as u32).to_le_bytes());
                out.extend_from_slice(name.as_bytes());
                return;
            }
            TraceRecord::Event(event) => *event,
        };
        match event {
            RuntimeEvent::Call { callee } => {
                out.push(1);
                out.extend_from_slice(&callee.as_raw().to_le_bytes());
            }
            RuntimeEvent::Return => out.push(2),
            RuntimeEvent::Read { access } => {
                out.push(3);
                out.extend_from_slice(&access.addr.to_le_bytes());
                out.extend_from_slice(&access.size.to_le_bytes());
            }
            RuntimeEvent::Write { access } => {
                out.push(4);
                out.extend_from_slice(&access.addr.to_le_bytes());
                out.extend_from_slice(&access.size.to_le_bytes());
            }
            RuntimeEvent::Op { class, count } => {
                out.extend_from_slice(&[5, class.index() as u8]);
                out.extend_from_slice(&count.to_le_bytes());
            }
            RuntimeEvent::Branch { site, taken } => {
                out.extend_from_slice(&[6, u8::from(taken)]);
                out.extend_from_slice(&site.to_le_bytes());
            }
            RuntimeEvent::SyscallEnter { name } => {
                out.push(7);
                out.extend_from_slice(&name.as_raw().to_le_bytes());
            }
            RuntimeEvent::SyscallExit => out.push(8),
            RuntimeEvent::ThreadSwitch { thread } => {
                out.push(9);
                out.extend_from_slice(&thread.as_raw().to_le_bytes());
            }
        }
    }

    #[inline]
    fn decode(cursor: &mut Cursor<'_>, _: &mut ()) -> Result<Self, BinError> {
        let at = cursor.offset();
        let event = match cursor.byte()? {
            0 => {
                let id = cursor.u32()?;
                let len = cursor.u32()? as usize;
                let name = std::str::from_utf8(cursor.take(len)?)
                    .map_err(|e| cursor.error(at, format!("bad symbol utf-8: {e}")))?;
                return Ok(TraceRecord::Sym {
                    id,
                    name: name.to_owned(),
                });
            }
            1 => RuntimeEvent::Call {
                callee: FunctionId::from_raw(cursor.u32()?),
            },
            2 => RuntimeEvent::Return,
            3 => RuntimeEvent::Read {
                access: decode_access(cursor, at)?,
            },
            4 => RuntimeEvent::Write {
                access: decode_access(cursor, at)?,
            },
            5 => {
                let code = cursor.byte()?;
                let Some(&class) = OpClass::ALL.get(usize::from(code)) else {
                    return Err(cursor.error(at + 1, format!("unknown op class {code}")));
                };
                RuntimeEvent::Op {
                    class,
                    count: cursor.u32()?,
                }
            }
            6 => RuntimeEvent::Branch {
                taken: cursor.byte()? != 0,
                site: cursor.u64()?,
            },
            7 => RuntimeEvent::SyscallEnter {
                name: FunctionId::from_raw(cursor.u32()?),
            },
            8 => RuntimeEvent::SyscallExit,
            9 => RuntimeEvent::ThreadSwitch {
                thread: ThreadId::from_raw(cursor.u32()?),
            },
            other => return Err(cursor.error(at, format!("unknown record tag {other:#04x}"))),
        };
        Ok(TraceRecord::Event(event))
    }
}

/// Decodes a Read or Write record's access, which must end inside the
/// 64-bit address space; `at` locates the record.
fn decode_access(cursor: &mut Cursor<'_>, at: u64) -> Result<MemAccess, BinError> {
    let access = MemAccess::new(cursor.u64()?, cursor.u32()?);
    if access.checked_end().is_none() {
        let error = TraceError::AccessPastAddressSpace {
            addr: access.addr,
            size: access.size,
        };
        return Err(cursor.error(at, error.to_string()));
    }
    Ok(access)
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

fn read_u32(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(data[at..at + 4].try_into().expect("4 bytes"))
}

fn read_u64(data: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"))
}

/// FNV-1a 64-bit checksum as used over SGEB chunk payloads — exposed so
/// wire framings reusing the chunk encoding can carry the same checksum.
pub fn payload_checksum(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in data {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Checks the file header: magic, version, and a known record kind —
/// `expect`'s, when the caller reads one kind only. Returns the kind and
/// the writer's chunk target.
fn parse_header(header: &[u8], expect: Option<RecordKind>) -> Result<(RecordKind, u32), BinError> {
    if header[..4] != MAGIC {
        return Err(BinError::format(0, None, "bad magic (not an SGEB file)"));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(BinError::format(
            4,
            None,
            format!("unsupported version {version} (expected {VERSION})"),
        ));
    }
    let kind = match u16::from_le_bytes([header[6], header[7]]) {
        0 => RecordKind::Event,
        1 => RecordKind::Trace,
        other => {
            return Err(BinError::format(
                KIND_AT,
                None,
                format!("unknown record kind {other}"),
            ))
        }
    };
    if let Some(expected) = expect.filter(|&expected| expected != kind) {
        return Err(BinError::format(
            KIND_AT,
            None,
            format!(
                "expected {} records, found {} records",
                expected.name(),
                kind.name()
            ),
        ));
    }
    Ok((kind, read_u32(header, 8)))
}

/// The footer: where the index starts and what it must add up to.
struct Footer {
    index_offset: u64,
    chunks: u64,
    records: u64,
}

impl Footer {
    fn to_bytes(&self) -> [u8; FOOTER_LEN] {
        let mut out = [0u8; FOOTER_LEN];
        out[..8].copy_from_slice(&self.index_offset.to_le_bytes());
        out[8..16].copy_from_slice(&self.chunks.to_le_bytes());
        out[16..24].copy_from_slice(&self.records.to_le_bytes());
        out[24..].copy_from_slice(&END_MAGIC);
        out
    }

    /// Parses the footer found at absolute offset `at`.
    fn parse(footer: &[u8], at: u64) -> Result<Footer, BinError> {
        if footer[24..] != END_MAGIC {
            return Err(BinError::format(
                at + 24,
                None,
                "bad footer magic (truncated file?)",
            ));
        }
        Ok(Footer {
            index_offset: read_u64(footer, 0),
            chunks: read_u64(footer, 8),
            records: read_u64(footer, 16),
        })
    }
}

/// The one decode loop: `count` records of kind `T` from one chunk
/// payload whose first byte sits at absolute offset `base` (in a file or
/// on a connection). Appends them to `out` and returns the chunk's index
/// entry (with `offset` left 0).
fn decode_payload<T: ChunkRecord>(
    payload: &[u8],
    count: u32,
    base: u64,
    chunk: Option<usize>,
    out: &mut Vec<T>,
) -> Result<ChunkInfo, BinError> {
    // The count lies outside the payload checksum. Every record takes at
    // least one byte, so a larger count is damage: reject it before
    // reserving room for it.
    if count as usize > payload.len() {
        return Err(BinError::format(
            base,
            chunk,
            format!(
                "record count {count} exceeds the payload's {} bytes",
                payload.len()
            ),
        ));
    }
    out.reserve(count as usize);
    let mut cursor = Cursor {
        data: payload,
        pos: 0,
        base,
        chunk,
    };
    let mut state = T::State::default();
    let mut info = ChunkInfo {
        records: count,
        ..ChunkInfo::default()
    };
    for _ in 0..count {
        let record = T::decode(&mut cursor, &mut state)?;
        record.tally(&mut info);
        out.push(record);
    }
    if cursor.pos != payload.len() {
        return Err(cursor.error(
            cursor.offset(),
            format!(
                "{} trailing payload bytes after the last record",
                payload.len() - cursor.pos
            ),
        ));
    }
    Ok(info)
}

/// Encodes `records` as one standalone chunk payload: the exact bytes a
/// [`BinWriter`] would emit for a chunk holding these records.
pub fn encode_chunk_payload<T: ChunkRecord>(records: &[T]) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.len() * 8);
    let mut state = T::State::default();
    for record in records {
        record.encode(&mut out, &mut state);
    }
    out
}

/// Decodes one standalone chunk payload of exactly `records` records, as
/// produced by [`encode_chunk_payload`] (or cut from a container).
/// `base` is the absolute offset of the payload's first byte, so errors
/// name the damaged byte.
///
/// # Errors
///
/// Returns a located [`BinError`] on malformed records, a record count
/// mismatch, or trailing payload bytes.
pub fn decode_chunk_payload<T: ChunkRecord>(
    payload: &[u8],
    records: u32,
    base: u64,
) -> Result<Vec<T>, BinError> {
    let mut out = Vec::new();
    decode_payload(payload, records, base, None, &mut out)?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming writer: push records one at a time; chunks flush at the
/// configured record count (or earlier, before a payload would pass
/// [`MAX_PAYLOAD`]) and the trailer index lands on [`finish`].
///
/// The encoder batches records into one reusable per-chunk buffer (the
/// chunk-run idiom: one sink write per chunk, not per record).
///
/// [`finish`]: BinWriter::finish
pub struct BinWriter<W: Write, T: ChunkRecord = EventRecord> {
    sink: W,
    /// Encoded payload of the chunk in progress (reused between chunks).
    buf: Vec<u8>,
    chunk_target: usize,
    /// Records in the chunk in progress.
    pending: ChunkInfo,
    state: T::State,
    index: Vec<ChunkInfo>,
    /// Bytes written to `sink` so far.
    offset: u64,
}

impl<W: Write, T: ChunkRecord> BinWriter<W, T> {
    /// Starts a file with the default chunk size. Writes the header
    /// immediately.
    ///
    /// # Errors
    ///
    /// Fails if the header cannot be written.
    pub fn new(sink: W) -> io::Result<Self> {
        Self::with_chunk_records(sink, DEFAULT_CHUNK_RECORDS)
    }

    /// Starts a file flushing a chunk every `chunk_records` records
    /// (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// Fails if the header cannot be written.
    pub fn with_chunk_records(mut sink: W, chunk_records: usize) -> io::Result<Self> {
        let chunk_target = chunk_records.max(1);
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(&MAGIC);
        header[4..6].copy_from_slice(&VERSION.to_le_bytes());
        header[6..8].copy_from_slice(&(T::KIND as u16).to_le_bytes());
        let target = u32::try_from(chunk_target.min(u32::MAX as usize)).expect("clamped");
        header[8..12].copy_from_slice(&target.to_le_bytes());
        sink.write_all(&header)?;
        Ok(BinWriter {
            sink,
            buf: Vec::with_capacity(64 * chunk_target.min(1 << 16)),
            chunk_target,
            pending: ChunkInfo::default(),
            state: T::State::default(),
            index: Vec::new(),
            offset: HEADER_LEN as u64,
        })
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Fails if a full chunk cannot be flushed to the sink, or if the
    /// record alone encodes to more than [`MAX_PAYLOAD`] bytes.
    pub fn push(&mut self, record: &T) -> io::Result<()> {
        let start = self.buf.len();
        record.encode(&mut self.buf, &mut self.state);
        if self.buf.len() > MAX_PAYLOAD as usize {
            // Readers reject a payload past MAX_PAYLOAD: end the chunk
            // before this record and encode it afresh in the next one.
            self.buf.truncate(start);
            if start == 0 {
                self.state = T::State::default();
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "one record encodes to more than a chunk payload may hold",
                ));
            }
            self.flush_chunk()?;
            return self.push(record);
        }
        self.pending.records += 1;
        record.tally(&mut self.pending);
        if self.pending.records as usize >= self.chunk_target {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.pending.records == 0 {
            return Ok(());
        }
        // `push` keeps the payload within MAX_PAYLOAD.
        let payload_len = self.buf.len() as u32;
        let mut frame = [0u8; 1 + CHUNK_HEADER_LEN];
        frame[0] = TAG_CHUNK;
        frame[1..5].copy_from_slice(&self.pending.records.to_le_bytes());
        frame[5..9].copy_from_slice(&payload_len.to_le_bytes());
        frame[9..17].copy_from_slice(&payload_checksum(&self.buf).to_le_bytes());
        self.sink.write_all(&frame)?;
        self.sink.write_all(&self.buf)?;
        self.pending.offset = self.offset;
        self.index.push(self.pending);
        self.offset += frame.len() as u64 + u64::from(payload_len);
        self.pending = ChunkInfo::default();
        self.buf.clear();
        self.state = T::State::default();
        Ok(())
    }

    /// Flushes the final chunk, writes the trailer index and footer, and
    /// returns the whole-file totals alongside the sink.
    ///
    /// # Errors
    ///
    /// Fails if the trailer cannot be written.
    pub fn finish(mut self) -> io::Result<(BinTotals, W)> {
        self.flush_chunk()?;
        let totals = BinTotals::of(&self.index);
        let mut trailer = Vec::with_capacity(1 + self.index.len() * INDEX_ENTRY_LEN + FOOTER_LEN);
        trailer.push(TAG_INDEX);
        for info in &self.index {
            trailer.extend_from_slice(&info.to_bytes());
        }
        let footer = Footer {
            index_offset: self.offset,
            chunks: totals.chunks,
            records: totals.records,
        };
        trailer.extend_from_slice(&footer.to_bytes());
        self.sink.write_all(&trailer)?;
        self.sink.flush()?;
        Ok((totals, self.sink))
    }

    /// Bytes written to the sink so far (excluding the unflushed chunk).
    pub fn bytes_written(&self) -> u64 {
        self.offset
    }
}

impl<W: Write> BinWriter<W, EventRecord> {
    /// Appends every record of an in-memory event file.
    ///
    /// # Errors
    ///
    /// Fails if a full chunk cannot be flushed to the sink.
    pub fn push_file(&mut self, events: &EventFile) -> io::Result<()> {
        for record in events.records() {
            self.push(record)?;
        }
        Ok(())
    }
}

/// Encodes an in-memory event file to a byte vector.
pub fn encode_events(events: &EventFile) -> Vec<u8> {
    encode_events_chunked(events, DEFAULT_CHUNK_RECORDS)
}

/// Encodes with an explicit chunk size (tests and benches).
pub fn encode_events_chunked(events: &EventFile, chunk_records: usize) -> Vec<u8> {
    let mut writer = BinWriter::with_chunk_records(Vec::new(), chunk_records)
        .expect("writing to a Vec cannot fail");
    writer
        .push_file(events)
        .expect("writing to a Vec cannot fail");
    let (_, bytes) = writer.finish().expect("writing to a Vec cannot fail");
    bytes
}

/// Decodes a whole binary event file into memory: one [`ChunkStream`]
/// pass over the slice.
///
/// # Errors
///
/// Returns a located [`BinError`] on any malformed byte.
pub fn decode_events(data: &[u8]) -> Result<EventFile, BinError> {
    let mut stream = ChunkStream::<_, EventRecord>::new(data)?;
    let mut records = Vec::new();
    while let Some(chunk) = stream.next_chunk()? {
        records.extend_from_slice(chunk);
    }
    Ok(EventFile::from_records(records))
}

// ---------------------------------------------------------------------------
// Trailer reader
// ---------------------------------------------------------------------------

/// Reads a complete container's header and trailer — what `sigil events
/// stat` prints — without decoding a record. Accepts either kind; records
/// are read through [`ChunkStream`].
pub struct BinReader {
    kind: RecordKind,
    index: Vec<ChunkInfo>,
    totals: BinTotals,
    /// Records per chunk the writer was configured with.
    chunk_target: u32,
}

impl BinReader {
    /// Parses the framing of a complete container.
    ///
    /// # Errors
    ///
    /// Returns a located [`BinError`] if the header, footer, index, or a
    /// chunk header the index points at is malformed.
    pub fn parse(data: &[u8]) -> Result<Self, BinError> {
        if data.len() < HEADER_LEN + 1 + FOOTER_LEN {
            return Err(BinError::format(
                0,
                None,
                format!(
                    "file too short ({} bytes) for header and trailer",
                    data.len()
                ),
            ));
        }
        let (kind, chunk_target) = parse_header(&data[..HEADER_LEN], None)?;
        let footer_at = data.len() - FOOTER_LEN;
        let footer = Footer::parse(&data[footer_at..], footer_at as u64)?;
        let index_at = usize::try_from(footer.index_offset)
            .ok()
            .filter(|&at| at >= HEADER_LEN && at < footer_at)
            .ok_or_else(|| {
                BinError::format(
                    footer_at as u64,
                    None,
                    format!("index offset {} out of bounds", footer.index_offset),
                )
            })?;
        if data[index_at] != TAG_INDEX {
            return Err(BinError::format(
                index_at as u64,
                None,
                "index offset does not point at an index tag",
            ));
        }
        let entries = &data[index_at + 1..footer_at];
        if footer.chunks.checked_mul(INDEX_ENTRY_LEN as u64) != Some(entries.len() as u64) {
            return Err(BinError::format(
                index_at as u64,
                None,
                format!("index length does not match {} chunks", footer.chunks),
            ));
        }
        let index: Vec<ChunkInfo> = entries
            .chunks_exact(INDEX_ENTRY_LEN)
            .map(ChunkInfo::from_bytes)
            .collect();
        // Each entry must point at a chunk header that agrees with it,
        // and the chunks must tile the bytes between header and index.
        let mut expect_offset = HEADER_LEN as u64;
        for (i, info) in index.iter().enumerate() {
            let located = |message: String| BinError::format(info.offset, Some(i), message);
            if info.offset != expect_offset {
                return Err(located(format!(
                    "index offset {} disagrees with chunk layout (expected {expect_offset})",
                    info.offset
                )));
            }
            let at = info.offset as usize;
            if at + 1 + CHUNK_HEADER_LEN > index_at {
                return Err(located("chunk header out of bounds".to_owned()));
            }
            if data[at] != TAG_CHUNK {
                return Err(located(
                    "chunk offset does not point at a chunk tag".to_owned(),
                ));
            }
            let records = read_u32(data, at + 1);
            if records != info.records {
                return Err(located(format!(
                    "chunk header record count {records} disagrees with index ({})",
                    info.records
                )));
            }
            let end = at + 1 + CHUNK_HEADER_LEN + read_u32(data, at + 5) as usize;
            if end > index_at {
                return Err(located(
                    "chunk payload overruns the trailer index".to_owned(),
                ));
            }
            expect_offset = end as u64;
        }
        if expect_offset != index_at as u64 {
            return Err(BinError::format(
                expect_offset,
                None,
                "gap between last chunk and trailer index",
            ));
        }
        let totals = BinTotals::of(&index);
        if totals.records != footer.records {
            return Err(BinError::format(
                (footer_at + 16) as u64,
                None,
                format!(
                    "footer total {} disagrees with index sum {}",
                    footer.records, totals.records
                ),
            ));
        }
        Ok(BinReader {
            kind,
            index,
            totals,
            chunk_target,
        })
    }

    /// The record kind the container holds.
    pub fn kind(&self) -> RecordKind {
        self.kind
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.index.len()
    }

    /// The trailer-index entries.
    pub fn index(&self) -> &[ChunkInfo] {
        &self.index
    }

    /// Whole-file totals (from the trailer index — no record decoding).
    pub fn totals(&self) -> BinTotals {
        self.totals
    }

    /// The writer's configured records-per-chunk target.
    pub fn chunk_target(&self) -> u32 {
        self.chunk_target
    }
}

// ---------------------------------------------------------------------------
// Sequential stream: the decoder
// ---------------------------------------------------------------------------

/// Reads exactly `buf.len()` bytes, turning a short read into a located
/// error.
fn read_located<R: Read>(
    source: &mut R,
    buf: &mut [u8],
    at: u64,
    chunk: Option<usize>,
    what: &str,
) -> Result<(), BinError> {
    source.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            BinError::format(at, chunk, what)
        } else {
            BinError::Io(e)
        }
    })
}

/// Sequential reader over any `Read` source, and the container's only
/// decoder: decodes one chunk at a time into a reusable buffer, so peak
/// memory is bounded by one chunk regardless of trace length. On reaching
/// the trailer it checks every index entry and the footer against what
/// it streamed, and that the input ends there.
pub struct ChunkStream<R: Read, T: ChunkRecord = EventRecord> {
    source: R,
    /// Reusable payload buffer.
    payload: Vec<u8>,
    /// Reusable decoded-records buffer.
    records: Vec<T>,
    /// Per-chunk info accumulated while streaming (checked against the
    /// trailer index).
    seen: Vec<ChunkInfo>,
    offset: u64,
    done: bool,
}

impl<R: Read, T: ChunkRecord> ChunkStream<R, T> {
    /// Opens a stream, reading and validating the file header.
    ///
    /// # Errors
    ///
    /// Returns a located [`BinError`] if the header is malformed or names
    /// the other record kind.
    pub fn new(mut source: R) -> Result<Self, BinError> {
        let mut header = [0u8; HEADER_LEN];
        read_located(
            &mut source,
            &mut header,
            0,
            None,
            "file too short for an SGEB header",
        )?;
        parse_header(&header, Some(T::KIND))?;
        Ok(ChunkStream {
            source,
            payload: Vec::new(),
            records: Vec::new(),
            seen: Vec::new(),
            offset: HEADER_LEN as u64,
            done: false,
        })
    }

    /// Decodes the next chunk, returning its records (borrowed from the
    /// internal buffer), or `None` after the trailer validates clean.
    ///
    /// # Errors
    ///
    /// Returns a located [`BinError`] on I/O failure, corruption, or a
    /// trailer that disagrees with the streamed chunks.
    #[allow(clippy::should_implement_trait)] // lending iterator: items borrow self
    pub fn next_chunk(&mut self) -> Result<Option<&[T]>, BinError> {
        if self.done {
            return Ok(None);
        }
        let chunk_at = self.offset;
        let chunk = self.seen.len();
        let mut tag = [0u8; 1];
        read_located(
            &mut self.source,
            &mut tag,
            chunk_at,
            None,
            "truncated file: missing trailer index",
        )?;
        match tag[0] {
            TAG_CHUNK => {}
            TAG_INDEX => {
                self.done = true;
                self.validate_trailer()?;
                return Ok(None);
            }
            other => {
                return Err(BinError::format(
                    chunk_at,
                    Some(chunk),
                    format!("expected a chunk or index tag, found {other:#04x}"),
                ));
            }
        }
        let mut header = [0u8; CHUNK_HEADER_LEN];
        read_located(
            &mut self.source,
            &mut header,
            chunk_at,
            Some(chunk),
            "truncated chunk",
        )?;
        let records = read_u32(&header, 0);
        let payload_len = read_u32(&header, 4);
        if payload_len > MAX_PAYLOAD {
            return Err(BinError::format(
                chunk_at,
                Some(chunk),
                format!("chunk payload length {payload_len} exceeds limit"),
            ));
        }
        self.payload.resize(payload_len as usize, 0);
        read_located(
            &mut self.source,
            &mut self.payload,
            chunk_at,
            Some(chunk),
            "truncated chunk",
        )?;
        if payload_checksum(&self.payload) != read_u64(&header, 8) {
            return Err(BinError::format(
                chunk_at,
                Some(chunk),
                "chunk checksum mismatch (corrupted payload)",
            ));
        }
        self.records.clear();
        let base = chunk_at + 1 + CHUNK_HEADER_LEN as u64;
        let info = decode_payload(&self.payload, records, base, Some(chunk), &mut self.records)?;
        self.seen.push(ChunkInfo {
            offset: chunk_at,
            ..info
        });
        self.offset = base + u64::from(payload_len);
        Ok(Some(&self.records))
    }

    /// Reads the trailer index + footer and checks them against every
    /// streamed chunk — the "trailer totals match a full scan" contract —
    /// then requires the input to end after the footer.
    fn validate_trailer(&mut self) -> Result<(), BinError> {
        let index_at = self.offset;
        let mut entry = [0u8; INDEX_ENTRY_LEN];
        for (i, info) in self.seen.iter().enumerate() {
            let at = index_at + 1 + (i * INDEX_ENTRY_LEN) as u64;
            read_located(
                &mut self.source,
                &mut entry,
                at,
                None,
                "truncated trailer index",
            )?;
            let stored = ChunkInfo::from_bytes(&entry);
            if stored != *info {
                return Err(BinError::format(
                    at,
                    Some(i),
                    format!("index entry {stored:?} disagrees with streamed chunk {info:?}"),
                ));
            }
        }
        let footer_at = index_at + 1 + (self.seen.len() * INDEX_ENTRY_LEN) as u64;
        let mut footer = [0u8; FOOTER_LEN];
        read_located(
            &mut self.source,
            &mut footer,
            footer_at,
            None,
            "truncated footer",
        )?;
        let footer = Footer::parse(&footer, footer_at)?;
        let totals = self.totals();
        if footer.index_offset != index_at
            || footer.chunks != totals.chunks
            || footer.records != totals.records
        {
            return Err(BinError::format(
                footer_at,
                None,
                format!(
                    "footer (index {}, {} chunks, {} records) disagrees with streamed totals \
                     (index {index_at}, {} chunks, {} records)",
                    footer.index_offset,
                    footer.chunks,
                    footer.records,
                    totals.chunks,
                    totals.records
                ),
            ));
        }
        match self.source.read_exact(&mut [0u8; 1]) {
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(()),
            Ok(()) => Err(BinError::format(
                footer_at + FOOTER_LEN as u64,
                None,
                "bytes after the footer",
            )),
            Err(e) => Err(BinError::Io(e)),
        }
    }

    /// Streamed totals so far (complete once `next_chunk` returned
    /// `None`).
    pub fn totals(&self) -> BinTotals {
        BinTotals::of(&self.seen)
    }

    /// Drives the stream to completion, applying `f` to every record.
    ///
    /// # Errors
    ///
    /// Returns the first decode/trailer error.
    pub fn for_each<F: FnMut(&T)>(mut self, mut f: F) -> Result<BinTotals, BinError> {
        while let Some(records) = self.next_chunk()? {
            for record in records {
                f(record);
            }
        }
        Ok(self.totals())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigil_callgrind::ContextId;

    fn call(n: u64) -> CallNumber {
        CallNumber::from_raw(n)
    }

    fn sample() -> EventFile {
        let mut f = EventFile::new();
        f.push_call(CallNumber::ROOT, call(1), ContextId(1));
        f.push_compute(call(1), ContextId(1), 42);
        f.push_call(call(1), call(2), ContextId(2));
        f.push_compute(call(2), ContextId(2), 7);
        f.push_transfer(call(1), call(2), 16);
        f.push_transfer(call(2), call(1), u64::from(u32::MAX) + 5);
        f.push_compute(call(1), ContextId(1), 1);
        f
    }

    /// One symbol and each of the nine event kinds.
    fn trace_sample() -> Vec<TraceRecord> {
        let f = FunctionId::from_raw(0);
        let access = MemAccess::new(0x1122_3344_5566_7788, 8);
        let mut records = vec![TraceRecord::Sym {
            id: 0,
            name: "main".to_owned(),
        }];
        records.extend(
            [
                RuntimeEvent::Call { callee: f },
                RuntimeEvent::Read { access },
                RuntimeEvent::Write { access },
                RuntimeEvent::Op {
                    class: OpClass::FloatArith,
                    count: 1000,
                },
                RuntimeEvent::Branch {
                    site: 0x42,
                    taken: true,
                },
                RuntimeEvent::SyscallEnter { name: f },
                RuntimeEvent::SyscallExit,
                RuntimeEvent::ThreadSwitch {
                    thread: ThreadId::from_raw(3),
                },
                RuntimeEvent::Return,
            ]
            .map(TraceRecord::Event),
        );
        records
    }

    fn stream_all<T: ChunkRecord + Clone>(bytes: &[u8]) -> Result<Vec<T>, BinError> {
        let mut stream = ChunkStream::<_, T>::new(bytes)?;
        let mut all = Vec::new();
        while let Some(records) = stream.next_chunk()? {
            all.extend_from_slice(records);
        }
        Ok(all)
    }

    #[test]
    fn varint_and_zigzag_round_trip() {
        for value in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, value);
            let mut cursor = Cursor {
                data: &buf,
                pos: 0,
                base: 0,
                chunk: None,
            };
            assert_eq!(cursor.varint().expect("valid"), value);
            assert_eq!(cursor.pos, buf.len());
        }
        for delta in [0u64, 1, u64::MAX, u64::MAX - 3, 1 << 40] {
            assert_eq!(unzigzag(zigzag(delta)), delta);
        }
    }

    #[test]
    fn damaged_varints_are_located_at_absolute_offsets() {
        // A Compute record (tag, call delta, context) whose ops varint
        // starts at payload byte 3, in a payload at absolute offset 1000.
        let base = 1000;
        let compute = |ops: &[u8]| [&[1u8, 2, 5][..], ops].concat();
        let cases: [(&str, Vec<u8>, u64, &str); 5] = [
            ("no call delta", vec![1], base + 1, "truncated record"),
            (
                "ends inside a multi-byte varint",
                compute(&[0x80, 0x80]),
                base + 5,
                "truncated record",
            ),
            (
                "11-byte varint",
                compute(&[[0x80; 10].as_slice(), &[0x01]].concat()),
                base + 3,
                "varint overflows u64",
            ),
            (
                "10th byte overflows",
                compute(&[[0xff; 9].as_slice(), &[0x02]].concat()),
                base + 3,
                "varint overflows u64",
            ),
            (
                "context id past u32",
                [&[1u8, 2][..], &[0x80, 0x80, 0x80, 0x80, 0x10], &[0]].concat(),
                base + 2,
                "context id 4294967296 out of range",
            ),
        ];
        for (case, payload, want_offset, want_message) in cases {
            let err = decode_chunk_payload::<EventRecord>(&payload, 1, base)
                .expect_err("damaged payload");
            let BinError::Format {
                offset, message, ..
            } = err
            else {
                panic!("{case}: expected a format error");
            };
            assert_eq!(
                (offset, message.as_str()),
                (want_offset, want_message),
                "{case}"
            );
        }
        // The longest valid varint still decodes.
        let max = compute(&[[0xff; 9].as_slice(), &[0x01]].concat());
        let decoded: Vec<EventRecord> = decode_chunk_payload(&max, 1, base).expect("valid");
        assert_eq!(
            decoded,
            [EventRecord::Compute {
                call: call(1),
                ctx: ContextId(5),
                ops: u64::MAX,
            }]
        );
    }

    #[test]
    fn standalone_chunk_payload_matches_writer_bytes() {
        let file = sample();
        // One chunk holding everything: the standalone payload must be
        // byte-identical to the BinWriter's chunk payload.
        let bytes = encode_events_chunked(&file, file.len());
        let payload = encode_chunk_payload(file.records());
        let chunk_start = HEADER_LEN + 1 + CHUNK_HEADER_LEN;
        assert_eq!(&bytes[chunk_start..chunk_start + payload.len()], &payload);
        let stored_checksum = read_u64(&bytes, HEADER_LEN + 9);
        assert_eq!(payload_checksum(&payload), stored_checksum);
        let decoded: Vec<EventRecord> =
            decode_chunk_payload(&payload, file.len() as u32, 0).expect("standalone decode");
        assert_eq!(decoded.as_slice(), file.records());
        // Count mismatches and trailing bytes are located errors.
        let n = file.len() as u32;
        assert!(decode_chunk_payload::<EventRecord>(&payload, n + 1, 0).is_err());
        assert!(decode_chunk_payload::<EventRecord>(&payload, n - 1, 0).is_err());
    }

    #[test]
    fn trace_payload_bytes_are_pinned() {
        // The trace-session CHUNK payload of WIRE_VERSION 1, byte for byte.
        let golden: &[u8] = &[
            0x00, 0, 0, 0, 0, 4, 0, 0, 0, b'm', b'a', b'i', b'n', // Sym 0 "main"
            0x01, 0, 0, 0, 0, // Call 0
            0x03, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, 8, 0, 0, 0, // Read
            0x04, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, 8, 0, 0, 0, // Write
            0x05, 2, 0xe8, 0x03, 0, 0, // Op flop 1000
            0x06, 1, 0x42, 0, 0, 0, 0, 0, 0, 0, // Branch taken 0x42
            0x07, 0, 0, 0, 0,    // SyscallEnter 0
            0x08, // SyscallExit
            0x09, 3, 0, 0, 0,    // ThreadSwitch 3
            0x02, // Return
        ];
        let records = trace_sample();
        assert_eq!(encode_chunk_payload(&records), golden);
        let decoded: Vec<TraceRecord> =
            decode_chunk_payload(golden, records.len() as u32, 0).expect("decodes");
        assert_eq!(decoded, records);
    }

    #[test]
    fn access_past_the_address_space_is_a_located_error() {
        let call = TraceRecord::Event(RuntimeEvent::Call {
            callee: FunctionId::from_raw(0),
        });
        let top = MemAccess::new(u64::MAX - 3, 8);
        for bad in [
            RuntimeEvent::Read { access: top },
            RuntimeEvent::Write { access: top },
        ] {
            let records = [
                trace_sample()[0].clone(),
                call.clone(),
                TraceRecord::Event(bad),
            ];
            let payload = encode_chunk_payload(&records);
            // Sym (13 bytes) and Call (5) precede the bad record.
            let err = decode_chunk_payload::<TraceRecord>(&payload, 3, 100).expect_err("rejected");
            let BinError::Format {
                offset, message, ..
            } = err
            else {
                panic!("expected a format error, got {err:?}");
            };
            assert_eq!(offset, 100 + 18, "{message}");
            assert!(
                message.contains("past the end of the 64-bit address space"),
                "{message}"
            );
        }
        // An access whose end still fits in 64 bits decodes.
        let last = TraceRecord::Event(RuntimeEvent::Read {
            access: MemAccess::new(u64::MAX - 8, 8),
        });
        let payload = encode_chunk_payload(std::slice::from_ref(&last));
        let decoded: Vec<TraceRecord> = decode_chunk_payload(&payload, 1, 0).expect("in range");
        assert_eq!(decoded, [last]);
    }

    #[test]
    fn apply_interns_symbols_in_order() {
        use sigil_trace::observer::CountingObserver;
        let records = trace_sample();
        let mut symbols = SymbolTable::new();
        let mut counts = CountingObserver::new();
        let events = TraceRecord::apply(&records, &mut symbols, &mut counts).expect("in order");
        assert_eq!(events, records.len() as u64 - 1);
        assert_eq!(symbols.get_name(FunctionId::from_raw(0)), Some("main"));
        // A name defined twice, or an id out of order, names its record.
        let dup = TraceRecord::Sym {
            id: 1,
            name: "main".to_owned(),
        };
        let err = TraceRecord::apply(&[dup], &mut symbols, &mut counts).expect_err("dup");
        assert!(err.starts_with("record 0:"), "{err}");
    }

    #[test]
    fn the_other_kind_is_rejected_at_byte_6() {
        let evb = encode_events(&sample());
        let mut writer = BinWriter::new(Vec::new()).expect("vec");
        writer.push(&trace_sample()[0]).expect("vec");
        let (_, sgtr) = writer.finish().expect("vec");
        for err in [
            ChunkStream::<_, TraceRecord>::new(evb.as_slice()).err(),
            ChunkStream::<_, EventRecord>::new(sgtr.as_slice()).err(),
        ] {
            let Some(BinError::Format {
                offset, message, ..
            }) = err
            else {
                panic!("expected a format error, got {err:?}");
            };
            assert_eq!(offset, 6);
            assert!(message.contains("expected"), "{message}");
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let file = sample();
        let bytes = encode_events(&file);
        let decoded = decode_events(&bytes).expect("valid file");
        assert_eq!(decoded, file);
    }

    #[test]
    fn empty_file_round_trips() {
        let file = EventFile::new();
        let bytes = encode_events(&file);
        let reader = BinReader::parse(&bytes).expect("valid file");
        assert_eq!(reader.chunk_count(), 0);
        assert_eq!(reader.totals().records, 0);
        assert_eq!(decode_events(&bytes).expect("decodes"), file);
        let (_, empty_trace) = BinWriter::<_, TraceRecord>::new(Vec::new())
            .expect("vec")
            .finish()
            .expect("vec");
        assert_eq!(
            stream_all::<TraceRecord>(&empty_trace).expect("decodes"),
            []
        );
    }

    #[test]
    fn small_chunks_split_and_round_trip() {
        let file = sample();
        let bytes = encode_events_chunked(&file, 2);
        let reader = BinReader::parse(&bytes).expect("valid file");
        assert_eq!(reader.chunk_count(), file.len().div_ceil(2));
        // Each chunk decodes on its own (delta baseline resets).
        let mut stream = ChunkStream::new(bytes.as_slice()).expect("valid header");
        let mut all: Vec<EventRecord> = Vec::new();
        while let Some(records) = stream.next_chunk().expect("chunk decodes") {
            assert!(records.len() <= 2);
            all.extend_from_slice(records);
        }
        assert_eq!(all.as_slice(), file.records());
    }

    #[test]
    fn trailer_index_matches_scan() {
        let file = sample();
        let bytes = encode_events_chunked(&file, 3);
        let reader = BinReader::parse(&bytes).expect("valid file");
        let totals = ChunkStream::new(bytes.as_slice())
            .expect("valid header")
            .for_each(|_: &EventRecord| {})
            .expect("index consistent");
        assert_eq!(totals, reader.totals());
        assert_eq!(totals.records, file.len() as u64);
        assert_eq!(totals.compute_ops, file.total_ops());
        assert_eq!(totals.transfer_bytes, file.total_transfer_bytes());
        assert_eq!(
            totals.call_records,
            file.records()
                .iter()
                .filter(|r| matches!(r, EventRecord::Call { .. }))
                .count() as u64
        );
    }

    #[test]
    fn chunk_stream_matches_slice_reader() {
        let file = sample();
        let bytes = encode_events_chunked(&file, 2);
        let mut stream = ChunkStream::<_, EventRecord>::new(bytes.as_slice()).expect("header");
        let mut streamed = Vec::new();
        while let Some(records) = stream.next_chunk().expect("clean chunks") {
            streamed.extend_from_slice(records);
        }
        assert_eq!(streamed.as_slice(), file.records());
        assert_eq!(
            stream.totals(),
            BinReader::parse(&bytes).expect("valid").totals()
        );
        // Second call after the trailer stays None.
        assert!(stream.next_chunk().expect("done").is_none());
    }

    #[test]
    fn truncation_is_a_located_error() {
        let bytes = encode_events_chunked(&sample(), 2);
        for cut in 0..bytes.len() {
            let truncated = &bytes[..cut];
            assert!(BinReader::parse(truncated).is_err(), "cut at {cut}");
            let mut decoded = 0usize;
            match ChunkStream::<_, EventRecord>::new(truncated) {
                Err(_) => {}
                Ok(mut stream) => loop {
                    match stream.next_chunk() {
                        Ok(Some(records)) => decoded += records.len(),
                        // A truncated trailer must never validate clean.
                        Ok(None) => panic!("cut at {cut} streamed clean"),
                        Err(BinError::Format { .. }) => break,
                        Err(BinError::Io(e)) => panic!("io error at {cut}: {e}"),
                    }
                },
            }
            assert!(decoded <= sample().len());
        }
    }

    #[test]
    fn payload_corruption_is_detected() {
        let file = sample();
        let mut bytes = encode_events_chunked(&file, 64);
        // Flip one byte inside the first chunk's payload.
        let at = HEADER_LEN + 1 + CHUNK_HEADER_LEN;
        bytes[at] ^= 0x40;
        BinReader::parse(&bytes).expect("framing intact");
        let err = decode_events(&bytes).expect_err("checksum must trip");
        let BinError::Format { chunk, message, .. } = err else {
            panic!("expected format error");
        };
        assert_eq!(chunk, Some(0));
        assert!(message.contains("checksum"), "{message}");
    }

    #[test]
    fn every_record_count_bit_flip_is_located() {
        let bytes = encode_events_chunked(&sample(), 64);
        // The first chunk's record count sits right after its tag byte,
        // outside the payload checksum.
        let count_at = HEADER_LEN + 1;
        for bit in 0..32 {
            let mut flipped = bytes.clone();
            flipped[count_at + bit / 8] ^= 1 << (bit % 8);
            let err = stream_all::<EventRecord>(&flipped).expect_err("flip must be caught");
            let BinError::Format { offset, .. } = err else {
                panic!("bit {bit}: expected a format error, got {err}");
            };
            assert!(offset < bytes.len() as u64, "bit {bit}: offset {offset}");
        }
    }

    #[test]
    fn bytes_after_the_footer_are_rejected() {
        let mut bytes = encode_events(&sample());
        let end = bytes.len() as u64;
        bytes.extend_from_slice(&[0u8; 8]);
        let err = stream_all::<EventRecord>(&bytes).expect_err("trailing bytes");
        let BinError::Format {
            offset, message, ..
        } = err
        else {
            panic!("expected a format error");
        };
        assert_eq!(offset, end);
        assert!(message.contains("after the footer"), "{message}");
        assert!(decode_events(&bytes).is_err());
    }

    #[test]
    fn writer_never_emits_a_payload_past_the_limit() {
        // Transfers whose three varints each take 10 bytes: 2.5M of them
        // pass 64 MiB in one chunk unless the writer splits it.
        let record = |i: u64| {
            let from = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1 << 63;
            EventRecord::Transfer {
                from_call: call(from),
                to_call: call(!from),
                bytes: u64::MAX - i,
            }
        };
        let n = 2_500_000u64;
        let mut writer = BinWriter::with_chunk_records(Vec::new(), usize::MAX).expect("vec");
        for i in 0..n {
            writer.push(&record(i)).expect("vec");
        }
        let (totals, bytes) = writer.finish().expect("vec");
        assert!(
            bytes.len() > MAX_PAYLOAD as usize,
            "only {} bytes",
            bytes.len()
        );
        assert!(totals.chunks >= 2, "one {}-byte chunk", bytes.len());
        let mut stream = ChunkStream::<_, EventRecord>::new(bytes.as_slice()).expect("header");
        let mut i = 0u64;
        while let Some(records) = stream.next_chunk().expect("every chunk decodes") {
            for decoded in records {
                assert_eq!(*decoded, record(i));
                i += 1;
            }
        }
        assert_eq!(i, n);
    }

    #[test]
    fn writer_streams_identically_to_encode() {
        let file = sample();
        let mut writer = BinWriter::with_chunk_records(Vec::new(), 3).expect("vec");
        for record in file.records() {
            writer.push(record).expect("vec");
        }
        let (totals, bytes) = writer.finish().expect("vec");
        assert_eq!(bytes, encode_events_chunked(&file, 3));
        assert_eq!(totals.records, file.len() as u64);
        assert_eq!(totals.compute_ops, file.total_ops());
        assert_eq!(totals.transfer_bytes, file.total_transfer_bytes());
    }

    #[test]
    fn stat_needs_no_record_decoding() {
        let file = sample();
        let mut bytes = encode_events_chunked(&file, 2);
        // Corrupt a payload byte: the trailer-only queries still work.
        let clean_totals = BinReader::parse(&bytes).expect("valid").totals();
        let payload_start = HEADER_LEN + 1 + CHUNK_HEADER_LEN;
        bytes[payload_start] ^= 0xff;
        let reader2 = BinReader::parse(&bytes).expect("framing still valid");
        assert_eq!(reader2.totals(), clean_totals);
        assert!(decode_events(&bytes).is_err(), "decode must fail");
    }

    #[test]
    fn binary_is_much_smaller_than_text() {
        let mut f = EventFile::new();
        let mut call_no = 1u64;
        for i in 0..10_000u64 {
            if i % 10 == 0 {
                f.push_call(call(call_no), call(call_no + 1), ContextId((i % 64) as u32));
                call_no += 1;
            }
            f.push_compute(call(call_no), ContextId((i % 64) as u32), 1 + i % 5000);
            if i % 3 == 0 {
                f.push_transfer(call(call_no.saturating_sub(1)), call(call_no), 8 + i % 512);
            }
        }
        let text = f.to_text();
        let bin = encode_events(&f);
        let ratio = text.len() as f64 / bin.len() as f64;
        assert!(ratio >= 3.0, "size ratio {ratio:.2} below 3x");
    }
}
