//! The IFile-style intermediate record format.
//!
//! Hadoop materializes map output as framed `(key, value)` records;
//! "the file format used by Hadoop adds a non-zero overhead per key/value
//! pair" (§IV-D) — overhead the paper's Fig. 8 shows aggregation
//! mitigating. The flat layouts (versions 1 and 2) frame every record,
//! in one of two framings matching the two overheads visible in the
//! paper:
//!
//! * [`Framing::SequenceFile`] — 4-byte record length + key/value vints:
//!   6 bytes/record for small records. With a 6-byte file header this
//!   reproduces the §I arithmetic exactly: a 100³ float grid with
//!   4-int keys gives 26,000,006 bytes; with `windspeed1` keys,
//!   33,000,006 bytes.
//! * [`Framing::IFile`] — key/value vints only: 2 bytes/record, the
//!   1.91 MB "file overhead" bar of Fig. 8 (10⁶ records × 2 B).
//!
//! Version 3 — what [`IFileVersion::default`] selects and every job
//! writes unless told otherwise — has no per-record framing at all:
//! sorted records are cut into CRC'd blocks whose body is column-ordered
//! and stores each distinct key once, front-coded against its
//! predecessor (see [`IFileWriter::v3`] and DESIGN.md §12). A v3 segment
//! is its blocks and nothing else: readers find each block by walking
//! the headers before it. Versions 1 and 2 stay as the explicit
//! constructors the paper's byte tables need.
//!
//! A writer wraps a [`Codec`]: `close()` compresses everything written
//! and reports both raw and materialized sizes.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use crate::error::MrError;
use crate::keysem::KeySemantics;
use crate::record::KvPair;
use scihadoop_compress::{crc32c, Codec, Crc32c};
use std::sync::Arc;

/// File magic ("SciHadoop InterFile") + version + framing byte = 6-byte
/// header, the same for every version and framing.
pub(crate) const HEADER_LEN: usize = 6;
const MAGIC: &[u8; 4] = b"SHIF";
/// Format version without an integrity trailer (the original layout).
const VERSION_PLAIN: u8 = 1;
/// Format version whose raw stream ends in a CRC-32C trailer.
const VERSION_CRC: u8 = 2;
/// Format version 3: sorted records in blocks of key groups with a
/// column-ordered body, each block with its own CRC-32C, followed by the
/// v2 segment trailer. See [`IFileWriter::v3`].
const VERSION_BLOCK: u8 = 3;
/// Big-endian CRC-32C of everything before it (header + records).
const TRAILER_LEN: usize = 4;
/// Per-block CRC-32C field size in a v3 block header.
const BLOCK_CRC_LEN: usize = 4;

/// Default raw-body byte budget per v3 block. Small enough that a
/// contended merge decodes little past what it needs and a corrupt
/// block invalidates only a few KiB; large enough that the per-block
/// header stays well under 1% of the block (see the block-budget sweep
/// in EXPERIMENTS.md).
pub const DEFAULT_BLOCK_BUDGET: usize = 4096;

/// Most records one v3 block may hold. A repeated key with an empty
/// value costs no body bytes, so the byte budget alone would let a block
/// grow without limit; the cap is what bounds a decoder's work per block
/// independently of the block's length.
pub const MAX_BLOCK_RECORDS: u64 = 1 << 16;

/// Which on-disk segment layout an [`IFileWriter`] produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IFileVersion {
    /// Version 1: framed records, no integrity trailer (legacy).
    V1,
    /// Version 2: framed records + CRC-32C segment trailer — the
    /// paper's Hadoop baseline.
    V2,
    /// Version 3: blocks of front-coded key groups + trailer (default).
    #[default]
    V3,
}

/// Record framing variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// 4-byte big-endian record length, then key/value vints.
    SequenceFile,
    /// Key/value vints only (Hadoop's actual IFile framing).
    IFile,
}

impl Framing {
    fn tag(self) -> u8 {
        match self {
            Framing::SequenceFile => 0,
            Framing::IFile => 1,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, MrError> {
        match tag {
            0 => Ok(Framing::SequenceFile),
            1 => Ok(Framing::IFile),
            t => Err(MrError::Intermediate(format!("unknown framing {t}"))),
        }
    }
}

/// Hadoop-compatible vint length (see `scihadoop-grid::writable` for the
/// wire format; duplicated here so the engine stays substrate-free).
pub fn vint_len(v: i64) -> usize {
    if (-112..=127).contains(&v) {
        1
    } else {
        let m = if v < 0 { !v } else { v };
        1 + (8 - (m.leading_zeros() as usize) / 8)
    }
}

fn write_vint(out: &mut Vec<u8>, v: i64) {
    if (-112..=127).contains(&v) {
        out.push(v as u8);
        return;
    }
    let (mut tag, mag) = if v < 0 { (-120i64, !v) } else { (-112i64, v) };
    let data_bytes = (8 - (mag.leading_zeros() as usize) / 8).max(1);
    tag -= data_bytes as i64;
    out.push(tag as u8);
    for i in (0..data_bytes).rev() {
        out.push((mag >> (8 * i)) as u8);
    }
}

fn read_vint(buf: &[u8]) -> Result<(i64, usize), MrError> {
    let first = *buf
        .first()
        .ok_or_else(|| MrError::Intermediate("empty vint".into()))? as i8;
    if first >= -112 {
        return Ok((first as i64, 1));
    }
    let (negative, data_bytes) = if first >= -120 {
        (false, (-113 - first as i64) as usize + 1)
    } else {
        (true, (-121 - first as i64) as usize + 1)
    };
    if buf.len() < 1 + data_bytes {
        return Err(MrError::Intermediate("short vint".into()));
    }
    // Accumulate in u64: 8 data bytes fill exactly 64 bits, so the shift
    // can never overflow. A magnitude above i64::MAX has no i64
    // representation — a malformed encoding, not a panic.
    let mut mag = 0u64;
    for &b in &buf[1..1 + data_bytes] {
        mag = (mag << 8) | b as u64;
    }
    if mag > i64::MAX as u64 {
        return Err(MrError::Intermediate(format!(
            "vint magnitude {mag:#x} out of i64 range"
        )));
    }
    let mag = mag as i64;
    Ok((if negative { !mag } else { mag }, 1 + data_bytes))
}

/// Writes framed records into an in-memory segment, compressing on close.
pub struct IFileWriter {
    framing: Framing,
    codec: Arc<dyn Codec>,
    buf: Vec<u8>,
    records: u64,
    key_bytes: u64,
    value_bytes: u64,
    stored_key_bytes: u64,
    trailer: bool,
    /// `Some` iff this writer emits the version-3 block layout.
    block: Option<BlockState>,
}

/// Column order of a v3 block body, and of [`BlockState::columns`]:
/// `vint shared, vint suffix_len, vint count` per key group; the groups'
/// key suffixes back to back; one vint per record, absent while every
/// value of the block has one length; the values.
const HEADS: usize = 0;
const SUFFIXES: usize = 1;
const VALUE_LENS: usize = 2;
const VALUES: usize = 3;

/// In-flight v3 block-building state. One block's records are staged
/// column by column and flushed to the segment buffer behind a block
/// header once the columns reach the byte budget or the block the record
/// cap. The staging buffers are reused from block to block.
struct BlockState {
    budget: usize,
    columns: [Vec<u8>; 4],
    records: u64,
    key_bytes: u64,
    groups: u64,
    /// The open group's `(shared, suffix_len, count)`: its head is
    /// written when the next key (or the seal) closes it.
    open: [usize; 3],
    /// The value length every record of the open block has had so far.
    uniform: Option<usize>,
    /// First key of the open block (the block's fence key).
    fence: Vec<u8>,
    /// Key of the open group.
    last_key: Vec<u8>,
    /// Blocks sealed or spliced into the segment so far.
    blocks: u64,
}

impl BlockState {
    /// Body bytes staged so far (the open group's head excepted).
    fn staged(&self) -> usize {
        self.columns.iter().map(Vec::len).sum()
    }

    fn close_group(&mut self) {
        for field in self.open {
            write_vint(&mut self.columns[HEADS], field as i64);
        }
        self.groups += 1;
    }

    /// Stage one record: a key byte-identical to its predecessor's only
    /// bumps the open group's count; any other key closes that group and
    /// opens one front-coded against it. The value goes to the value
    /// column either way, its length to the length column only once the
    /// block has seen two different lengths. The previous block is sealed
    /// into `buf` first if it has reached its byte budget or the record
    /// cap. Returns the key bytes stored.
    fn append(&mut self, buf: &mut Vec<u8>, key: &[u8], value: &[u8]) -> usize {
        if self.records > 0 && (self.staged() >= self.budget || self.records >= MAX_BLOCK_RECORDS) {
            self.seal(buf);
        }
        let mut stored = 0;
        if self.records == 0 {
            // Block's first record: its key becomes the fence key, and
            // it front-codes against itself (shared = len, empty suffix)
            // so the decoder needs no special case.
            self.fence.extend_from_slice(key);
            self.last_key.extend_from_slice(key);
            self.open = [key.len(), 0, 1];
            self.uniform = Some(value.len());
        } else if crate::keysem::bytewise_eq(key, &self.last_key) {
            self.open[2] += 1;
        } else {
            self.close_group();
            let shared = common_prefix_len(&self.last_key, key);
            let suffix = &key[shared..];
            self.columns[SUFFIXES].extend_from_slice(suffix);
            self.last_key.truncate(shared);
            self.last_key.extend_from_slice(suffix);
            self.open = [shared, suffix.len(), 1];
            stored = suffix.len();
        }
        if let Some(len) = self.uniform.filter(|&len| len != value.len()) {
            // First odd length: the column starts existing, backfilled.
            (0..self.records).for_each(|_| write_vint(&mut self.columns[VALUE_LENS], len as i64));
            self.uniform = None;
        }
        if self.uniform.is_none() {
            write_vint(&mut self.columns[VALUE_LENS], value.len() as i64);
        }
        self.columns[VALUES].extend_from_slice(value);
        self.records += 1;
        self.key_bytes += key.len() as u64;
        stored
    }

    /// Flush the open block (if any) to `buf` as
    /// `vints(records, key_bytes, stored_key_bytes, value_bytes, groups,
    /// uniform_value_len, fence_len), fence, vint(body_len),
    /// crc32c(body), body` — the body being the four columns, the value
    /// lengths absent when `uniform_value_len >= 0`.
    fn seal(&mut self, buf: &mut Vec<u8>) {
        if self.records == 0 {
            return;
        }
        self.close_group();
        for field in [
            self.records as i64,
            self.key_bytes as i64,
            self.columns[SUFFIXES].len() as i64,
            self.columns[VALUES].len() as i64,
            self.groups as i64,
            self.uniform.map_or(-1, |len| len as i64),
            self.fence.len() as i64,
        ] {
            write_vint(buf, field);
        }
        buf.extend_from_slice(&self.fence);
        write_vint(buf, self.staged() as i64);
        let mut crc = Crc32c::new();
        self.columns.iter().for_each(|column| crc.update(column));
        buf.extend_from_slice(&crc.finish().to_be_bytes());
        for column in &mut self.columns {
            buf.extend_from_slice(column);
            column.clear();
        }
        self.blocks += 1;
        self.fence.clear();
        self.last_key.clear();
        self.records = 0;
        self.key_bytes = 0;
        self.groups = 0;
    }
}

/// Length of the longest common prefix of two byte strings, eight bytes
/// at a step: sorted keys share most of their length, and the writer
/// asks once per key group.
fn common_prefix_len(mut a: &[u8], mut b: &[u8]) -> usize {
    let mut shared = 0;
    while let (Some((x, a_rest)), Some((y, b_rest))) =
        (a.split_first_chunk::<8>(), b.split_first_chunk::<8>())
    {
        let diff = u64::from_le_bytes(*x) ^ u64::from_le_bytes(*y);
        if diff != 0 {
            return shared + diff.trailing_zeros() as usize / 8;
        }
        shared += 8;
        (a, b) = (a_rest, b_rest);
    }
    shared + a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// A closed intermediate segment plus its size accounting.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Compressed (materialized) bytes — what would hit disk and network.
    pub data: Vec<u8>,
    /// Raw framed size before compression.
    pub raw_bytes: u64,
    /// Records contained.
    pub records: u64,
    /// Logical key bytes (excluding framing; pre-front-coding for v3).
    pub key_bytes: u64,
    /// Raw value bytes.
    pub value_bytes: u64,
    /// Key bytes actually stored. Equals `key_bytes` for v1/v2; for v3
    /// only the non-shared key suffixes are stored, so
    /// `key_bytes - stored_key_bytes` is the front-coding saving.
    pub stored_key_bytes: u64,
    /// Blocks written (0 for v1/v2 segments).
    pub blocks: u64,
    /// Nanoseconds spent compressing.
    pub compress_nanos: u64,
}

impl Segment {
    /// Materialized size in bytes.
    pub fn materialized_bytes(&self) -> u64 {
        self.data.len() as u64
    }

    /// Framing overhead bytes: raw size minus stored key/value payload
    /// and the constant file header. For v3 this covers the per-record
    /// group-head vints, value lengths and block headers (fence keys,
    /// per-block CRCs).
    pub fn framing_bytes(&self) -> u64 {
        let payload = self.stored_key_bytes + self.value_bytes + HEADER_LEN as u64;
        debug_assert!(
            self.raw_bytes >= payload,
            "segment accounting invariant violated: raw {} < stored keys {} + values {} + header {}",
            self.raw_bytes,
            self.stored_key_bytes,
            self.value_bytes,
            HEADER_LEN
        );
        self.raw_bytes.saturating_sub(payload)
    }

    /// Key bytes removed by front coding (0 for v1/v2 segments). The
    /// byte-split identity every report builds on is
    /// `key_bytes + value_bytes + framing_bytes() + header ==
    /// raw_bytes + key_saved_bytes()`.
    pub fn key_saved_bytes(&self) -> u64 {
        self.key_bytes - self.stored_key_bytes
    }
}

impl IFileWriter {
    /// Open a writer with the given framing and codec. Segments carry a
    /// CRC-32C trailer (format version 2) so shuffle-side corruption is
    /// detected at open time instead of surfacing as garbage records.
    pub fn new(framing: Framing, codec: Arc<dyn Codec>) -> Self {
        Self::with_trailer(framing, codec, true)
    }

    /// Open a writer that emits the original version-1 layout with no
    /// integrity trailer (legacy format; corruption tests exercise the
    /// parser's behavior without CRC protection through this).
    pub fn without_trailer(framing: Framing, codec: Arc<dyn Codec>) -> Self {
        Self::with_trailer(framing, codec, false)
    }

    fn with_trailer(framing: Framing, codec: Arc<dyn Codec>, trailer: bool) -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(MAGIC);
        buf.push(if trailer { VERSION_CRC } else { VERSION_PLAIN });
        buf.push(framing.tag());
        debug_assert_eq!(buf.len(), HEADER_LEN);
        IFileWriter {
            framing,
            codec,
            buf,
            records: 0,
            key_bytes: 0,
            value_bytes: 0,
            stored_key_bytes: 0,
            trailer,
            block: None,
        }
    }

    /// Open a version-3 writer: records are cut into fixed-budget blocks,
    /// a run of byte-identical keys is stored once as a group whose key
    /// is front-coded against the previous group's, each block carries
    /// its first key and its own CRC-32C in its header, and the v2 CRC
    /// trailer follows the last block.
    ///
    /// Grouping and front coding are order-agnostic: they compare key
    /// *bytes*, so the writer needs no key semantics, and `_ks` is
    /// ignored — the parameter stays for callers written against the
    /// older signature. The merge's block skipping still assumes keys
    /// appended in sort order, which the spill sort guarantees.
    pub fn v3(framing: Framing, codec: Arc<dyn Codec>, _ks: Arc<dyn KeySemantics>) -> Self {
        Self::v3_with_budget(framing, codec, DEFAULT_BLOCK_BUDGET)
    }

    /// [`IFileWriter::v3`] with an explicit per-block raw-body byte
    /// budget ([`DEFAULT_BLOCK_BUDGET`] unless a sweep or a test pins a
    /// small one to force many blocks).
    pub fn v3_with_budget(framing: Framing, codec: Arc<dyn Codec>, budget: usize) -> Self {
        let mut writer = Self::with_trailer(framing, codec, true);
        writer.buf[4] = VERSION_BLOCK;
        writer.block = Some(BlockState {
            budget: budget.max(1),
            columns: Default::default(),
            records: 0,
            key_bytes: 0,
            groups: 0,
            open: [0; 3],
            uniform: None,
            fence: Vec::new(),
            last_key: Vec::new(),
            blocks: 0,
        });
        writer
    }

    /// Append one record.
    pub fn append(&mut self, key: &[u8], value: &[u8]) {
        let stored = match &mut self.block {
            Some(b) => b.append(&mut self.buf, key, value),
            None => {
                if self.framing == Framing::SequenceFile {
                    let body = vint_len(key.len() as i64)
                        + vint_len(value.len() as i64)
                        + key.len()
                        + value.len();
                    self.buf.extend_from_slice(&(body as u32).to_be_bytes());
                }
                write_vint(&mut self.buf, key.len() as i64);
                write_vint(&mut self.buf, value.len() as i64);
                self.buf.extend_from_slice(key);
                self.buf.extend_from_slice(value);
                key.len()
            }
        };
        self.records += 1;
        self.key_bytes += key.len() as u64;
        self.value_bytes += value.len() as u64;
        self.stored_key_bytes += stored as u64;
    }

    /// Splice an already-encoded v3 block (obtained from a
    /// [`BlockCursor`] during a merge) into this segment verbatim — no
    /// decode, no re-encode. Any open partial block is sealed first so
    /// record order is preserved; the copied block is self-contained
    /// (its first group front-codes against its own fence key). The
    /// block's CRC is re-verified before adoption so a copy of corrupt
    /// bytes cannot launder a bad checksum into a fresh trailer.
    ///
    /// A writer of a flat (v1/v2) layout refuses with
    /// [`MrError::Config`].
    pub fn append_encoded_block(&mut self, blk: &EncodedBlock<'_>) -> Result<(), MrError> {
        let Some(b) = self.block.as_mut() else {
            return Err(MrError::Config(
                "append_encoded_block requires a v3 writer".into(),
            ));
        };
        blk.verify()?;
        b.seal(&mut self.buf);
        self.buf.extend_from_slice(blk.bytes);
        b.blocks += 1;
        self.records += blk.records;
        self.key_bytes += blk.key_bytes;
        self.stored_key_bytes += blk.stored_key_bytes;
        self.value_bytes += blk.value_bytes;
        Ok(())
    }

    /// Append a pair.
    pub fn append_pair(&mut self, pair: &KvPair) {
        self.append(&pair.key, &pair.value);
    }

    /// Records appended so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Compress and seal the segment.
    pub fn close(mut self) -> Segment {
        let mut blocks = 0u64;
        if let Some(mut b) = self.block.take() {
            b.seal(&mut self.buf);
            blocks = b.blocks;
        }
        // Size accounting excludes the trailer: `raw_bytes` keeps meaning
        // "header + framed records" (plus block framing for v3), so
        // the paper's byte arithmetic (and every counter invariant built
        // on it) is identical with and without integrity checking.
        let raw_bytes = self.buf.len() as u64;
        if self.trailer {
            let crc = crc32c(&self.buf);
            self.buf.extend_from_slice(&crc.to_be_bytes());
        }
        let t0 = crate::clock::thread_cpu_nanos();
        let data = self.codec.compress(&self.buf);
        let compress_nanos = crate::clock::since(t0);
        Segment {
            data,
            raw_bytes,
            records: self.records,
            key_bytes: self.key_bytes,
            value_bytes: self.value_bytes,
            stored_key_bytes: self.stored_key_bytes,
            blocks,
            compress_nanos,
        }
    }
}

/// A decompressed segment whose records are parsed lazily by cursors —
/// the streaming merge ([`crate::sort::BlockMergeStream`]) reads records
/// straight out of this buffer without materializing owned pairs.
pub struct RawSegment {
    raw: Vec<u8>,
    framing: Framing,
    version: u8,
    /// End of the record region (excludes a version-2 CRC trailer); for
    /// v3, the end of the last block.
    body_end: usize,
    /// Nanoseconds spent decompressing.
    pub decompress_nanos: u64,
}

impl RawSegment {
    /// Decompress a segment, validate its header, and — for version-2
    /// and version-3 segments — verify the CRC-32C trailer over
    /// everything before it. A trailer mismatch is a
    /// [`MrError::Checksum`], distinguishable from structural parse
    /// errors so the runner can count it. A v3 segment's block headers
    /// are checked by the header walk every reader of its blocks takes,
    /// not here.
    pub fn open(segment: &[u8], codec: &dyn Codec) -> Result<Self, MrError> {
        let t0 = crate::clock::thread_cpu_nanos();
        let raw = codec.decompress(segment)?;
        let decompress_nanos = crate::clock::since(t0);
        if raw.len() < HEADER_LEN || &raw[..4] != MAGIC {
            return Err(MrError::Intermediate("bad segment header".into()));
        }
        let version = raw[4];
        let body_end = match version {
            VERSION_PLAIN => raw.len(),
            VERSION_CRC | VERSION_BLOCK => {
                let (body, stored) = raw
                    .split_last_chunk::<TRAILER_LEN>()
                    .filter(|(body, _)| body.len() >= HEADER_LEN)
                    .ok_or_else(|| MrError::Checksum("segment too short for CRC trailer".into()))?;
                let stored = u32::from_be_bytes(*stored);
                let actual = crc32c(body);
                if stored != actual {
                    return Err(MrError::Checksum(format!(
                        "segment CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"
                    )));
                }
                body.len()
            }
            v => return Err(MrError::Intermediate(format!("bad version {v}"))),
        };
        let framing = Framing::from_tag(raw[5])?;
        Ok(RawSegment {
            raw,
            framing,
            version,
            body_end,
            decompress_nanos,
        })
    }

    /// Decompressed length in bytes, trailer included.
    pub fn decompressed_len(&self) -> usize {
        self.raw.len()
    }

    /// Whether this segment uses the version-3 block layout (front-coded
    /// blocks). Such segments are read through
    /// [`RawSegment::block_cursor`]; [`RawSegment::for_each_record`] and
    /// the merge stream take either layout.
    pub fn is_block_format(&self) -> bool {
        self.version == VERSION_BLOCK
    }

    /// Number of blocks (0 for v1/v2 segments), counted by walking the
    /// block headers.
    pub fn blocks(&self) -> Result<usize, MrError> {
        self.headers().try_fold(0, |n, meta| meta.map(|_| n + 1))
    }

    /// Every v3 block header in file order, each parsed by
    /// [`parse_meta`] at the end of the block before it; nothing for a
    /// flat segment. The walk stops after its first error.
    fn headers(&self) -> impl Iterator<Item = Result<BlockMeta, MrError>> + '_ {
        let region = &self.raw[..self.body_end];
        let mut next = self.is_block_format().then_some(HEADER_LEN);
        std::iter::from_fn(move || {
            let meta = parse_meta(region, next?).transpose()?;
            next = meta.as_ref().ok().map(|meta| meta.end);
            Some(meta)
        })
    }

    /// A cursor over the records, borrowing this segment's buffer.
    /// Only valid for flat (v1/v2) segments; on a v3 segment it yields
    /// no records (use [`RawSegment::block_cursor`]).
    pub(crate) fn cursor(&self) -> RecordCursor<'_> {
        debug_assert!(
            !self.is_block_format(),
            "flat cursor over a block-format segment (use block_cursor)"
        );
        RecordCursor {
            raw: &self.raw[..self.body_end],
            framing: self.framing,
            pos: if self.is_block_format() {
                self.body_end
            } else {
                HEADER_LEN
            },
        }
    }

    /// A block-aware cursor over a v3 segment: it walks the block headers
    /// as [`RawSegment::blocks`] does, one block ahead. Panics (debug) on
    /// flat segments — callers dispatch on [`RawSegment::is_block_format`].
    pub fn block_cursor(&self) -> BlockCursor<'_> {
        debug_assert!(
            self.is_block_format(),
            "block cursor over a flat segment (use cursor)"
        );
        BlockCursor {
            region: &self.raw[..self.body_end],
            block: 0,
            entered: false,
            live: true,
            meta: BlockMeta::default(),
            next: None,
            groups: GroupCursor::default(),
            decoded: 0,
            key: Vec::new(),
            value: &[],
        }
    }

    /// Walk every record in file order, dispatching on the segment
    /// version, invoking `f(key, value)` per record.
    pub fn for_each_record(&self, mut f: impl FnMut(&[u8], &[u8])) -> Result<(), MrError> {
        if self.is_block_format() {
            let mut cursor = self.block_cursor();
            while let Some((key, value)) = cursor.next()? {
                f(key, value);
            }
        } else {
            let mut cursor = self.cursor();
            while let Some((key, value)) = cursor.next()? {
                f(key, value);
            }
        }
        Ok(())
    }
}

/// A `(key, value)` record borrowed from a decompressed segment buffer.
pub(crate) type RecordSlices<'a> = (&'a [u8], &'a [u8]);

/// A `(key, value)` record whose key borrows a cursor/stream scratch
/// buffer (`'s`, valid until the next advance) while the value still
/// borrows the segment (`'a`) — the shape every front-coded reader
/// yields, since keys are reconstructed incrementally.
pub type ScratchRecord<'s, 'a> = (&'s [u8], &'a [u8]);

/// Lazy record parser over a [`RawSegment`]'s buffer; yields borrowed
/// `(key, value)` slices in file order.
pub(crate) struct RecordCursor<'a> {
    raw: &'a [u8],
    framing: Framing,
    pos: usize,
}

impl<'a> RecordCursor<'a> {
    /// The next record, or `None` at end of segment.
    // Always inlined: out of line, the 40-byte result comes back through
    // memory, written as 8-byte stores and read back as one 16-byte load
    // — a store-forwarding stall per record, a fifth of a flat merge's
    // time when it was profiled.
    #[inline(always)]
    #[allow(clippy::should_implement_trait)] // fallible, unlike Iterator
    pub(crate) fn next(&mut self) -> Result<Option<RecordSlices<'a>>, MrError> {
        if self.pos >= self.raw.len() {
            return Ok(None);
        }
        let mut rec_len = None;
        if self.framing == Framing::SequenceFile {
            let Some(len) = self.raw[self.pos..].first_chunk::<4>() else {
                return Err(MrError::Intermediate("short record length".into()));
            };
            rec_len = Some(u32::from_be_bytes(*len));
            self.pos += 4;
        }
        let (klen, kused) = read_vint(&self.raw[self.pos..])?;
        self.pos += kused;
        let (vlen, vused) = read_vint(&self.raw[self.pos..])?;
        self.pos += vused;
        let (klen, vlen) = (
            usize::try_from(klen)
                .map_err(|_| MrError::Intermediate("negative key length".into()))?,
            usize::try_from(vlen)
                .map_err(|_| MrError::Intermediate("negative value length".into()))?,
        );
        if let Some(rec_len) = rec_len {
            // The 4-byte record length must agree with the parsed sizes —
            // u64 arithmetic so adversarial lengths cannot overflow here.
            let expected = kused as u64 + vused as u64 + klen as u64 + vlen as u64;
            if rec_len as u64 != expected {
                return Err(MrError::Intermediate(format!(
                    "record length {rec_len} disagrees with key/value sizes ({expected})"
                )));
            }
        }
        let body = klen
            .checked_add(vlen)
            .and_then(|b| b.checked_add(self.pos))
            .ok_or_else(|| MrError::Intermediate("record body length overflows".into()))?;
        if body > self.raw.len() {
            return Err(MrError::Intermediate("short record body".into()));
        }
        let key = &self.raw[self.pos..self.pos + klen];
        self.pos += klen;
        let value = &self.raw[self.pos..self.pos + vlen];
        self.pos += vlen;
        Ok(Some((key, value)))
    }
}

/// Parsed v3 block header: sizes from the header vints plus the byte
/// spans of the block, its fence key, and its body within the segment.
#[derive(Debug, Clone, Copy, Default)]
struct BlockMeta {
    records: u64,
    key_bytes: u64,
    stored_key_bytes: u64,
    value_bytes: u64,
    groups: u64,
    /// The one length every value has; `None`: a length column is stored.
    uniform: Option<usize>,
    /// Block start (the header's first byte) in the segment buffer.
    start: usize,
    /// Block end — exclusive; the next block's start, or the end of the
    /// block region after the last block.
    end: usize,
    fence_start: usize,
    fence_len: usize,
    body_start: usize,
    crc: u32,
}

impl BlockMeta {
    /// The block's fence key, inside the buffer its header was parsed from.
    fn fence<'a>(&self, region: &'a [u8]) -> &'a [u8] {
        &region[self.fence_start..self.fence_start + self.fence_len]
    }
}

/// Parse and bounds-check the header of the v3 block at `start` of the
/// block region (the segment up to its trailer): `None` when `start` is
/// the region's end, an error unless the header and the body it declares
/// lie inside the region. A walk that steps from [`HEADER_LEN`] to each
/// block's `end` therefore either lands exactly on the region's end or
/// fails — no bytes can follow the last block.
fn parse_meta(region: &[u8], start: usize) -> Result<Option<BlockMeta>, MrError> {
    if start == region.len() {
        return Ok(None);
    }
    let mut pos = start;
    let mut fields = [0i64; 7];
    for field in &mut fields {
        let (v, used) = read_vint(&region[pos..])?;
        pos += used;
        *field = v;
    }
    // Six sizes, and before the last the one field that may say -1.
    let uniform_value_len = std::mem::replace(&mut fields[5], 0);
    if uniform_value_len < -1 || fields.iter().any(|&v| v < 0) {
        return Err(MrError::Intermediate("negative block header field".into()));
    }
    let [records, key_bytes, stored_key_bytes, value_bytes, groups, _, fence_len] =
        fields.map(|v| v as u64);
    let fence_len = usize::try_from(fence_len)
        .ok()
        .filter(|&l| l <= region.len() - pos)
        .ok_or_else(|| MrError::Intermediate("fence key runs past the block region".into()))?;
    let fence_start = pos;
    pos += fence_len;
    let (body_len, used) = read_vint(&region[pos..])?;
    pos += used;
    let crc = region[pos..]
        .first_chunk::<BLOCK_CRC_LEN>()
        .ok_or_else(|| MrError::Intermediate("short block CRC".into()))?;
    let body_start = pos + BLOCK_CRC_LEN;
    let end = usize::try_from(body_len)
        .ok()
        .filter(|&l| l <= region.len() - body_start)
        .map(|l| body_start + l)
        .ok_or_else(|| MrError::Intermediate("block body runs past the block region".into()))?;
    // A record may cost no body bytes at all, so the counts are held
    // to the writer's cap, not to the body length.
    if !(1..=MAX_BLOCK_RECORDS).contains(&records) || !(1..=records).contains(&groups) {
        return Err(MrError::Intermediate(
            "implausible block record count".into(),
        ));
    }
    Ok(Some(BlockMeta {
        records,
        key_bytes,
        stored_key_bytes,
        value_bytes,
        groups,
        uniform: usize::try_from(uniform_value_len).ok(),
        start,
        end,
        fence_start,
        fence_len,
        body_start,
        crc: u32::from_be_bytes(*crc),
    }))
}

/// A still-encoded v3 block lifted out of a segment by
/// [`BlockCursor::take_block`], carrying everything a v3
/// [`IFileWriter`] needs to splice it into a new segment verbatim:
/// the raw block bytes and the header's size accounting.
#[derive(Debug, Clone, Copy)]
pub struct EncodedBlock<'a> {
    /// The full encoded block (header + CRC + grouped body).
    pub bytes: &'a [u8],
    /// The block's first key.
    pub fence_key: &'a [u8],
    /// Records in the block.
    pub records: u64,
    /// Logical key bytes in the block.
    pub key_bytes: u64,
    /// Stored (post-front-coding) key bytes in the block.
    pub stored_key_bytes: u64,
    /// Value bytes in the block.
    pub value_bytes: u64,
    body: &'a [u8],
    meta: BlockMeta,
}

impl<'a> EncodedBlock<'a> {
    /// Re-verify the block's CRC-32C over its body.
    pub fn verify(&self) -> Result<(), MrError> {
        let actual = crc32c(self.body);
        if actual != self.meta.crc {
            return Err(MrError::Checksum(format!(
                "block CRC mismatch: stored {:#010x}, computed {actual:#010x}",
                self.meta.crc
            )));
        }
        Ok(())
    }

    /// Decode the block's records (front-coding against the fence key),
    /// invoking `f(key, value)` per record. Used by debug-build merge
    /// cross-checks and tests; the fast path never calls this.
    pub fn for_each_record(&self, mut f: impl FnMut(&[u8], &[u8])) -> Result<(), MrError> {
        let mut key = self.fence_key.to_vec();
        let mut groups = GroupCursor::open(self.body, &self.meta)?;
        for _ in 0..self.records {
            let value = groups.next(&mut key)?;
            f(&key, value);
        }
        groups.finish()
    }
}

/// Parse one group head `(shared, suffix_len, count)` at `pos` of a
/// heads column, returning it plus the position of the next head. Fast
/// path: all three fit single-byte vints (values 0..=127 encode as
/// themselves).
#[inline]
fn read_head(heads: &[u8], pos: usize) -> Result<([usize; 3], usize), MrError> {
    if let Some(&[b0, b1, b2]) = heads.get(pos..pos + 3) {
        if (b0 | b1 | b2) < 0x80 {
            return Ok(([b0 as usize, b1 as usize, b2 as usize], pos + 3));
        }
    }
    let (mut head, mut pos) = ([0usize; 3], pos);
    for field in &mut head {
        let (v, used) = read_vint(&heads[pos..])?;
        pos += used;
        // Negative or past any body's length: the caller's bounds refuse both.
        *field = usize::try_from(v).unwrap_or(usize::MAX);
    }
    Ok((head, pos))
}

/// The read side of one grouped block body: a cursor over each column.
/// [`GroupCursor::open`] derives the column extents from the header and
/// checks that they tile the body; [`GroupCursor::next`] keeps every
/// cursor inside its column, and [`GroupCursor::finish`] checks that all
/// of them and the header's counts were used up exactly — so a header
/// that disagrees with its body fails at the latest when the block ends,
/// never by reading outside it.
#[derive(Default)]
struct GroupCursor<'a> {
    body: &'a [u8],
    /// Read position and end of each column, in body order.
    pos: [usize; 4],
    end: [usize; 4],
    uniform: Option<usize>,
    /// Groups not yet opened and logical key bytes not yet accounted
    /// for; both wrap below zero rather than stop the decode.
    groups_left: u64,
    key_bytes_left: u64,
    /// Records of the current group not yet yielded.
    group_left: u64,
}

impl<'a> GroupCursor<'a> {
    /// Lay the columns over `body`, back to front: the values and the
    /// suffixes are sized by the header; uniform values leave no length
    /// column, so the heads are the rest. Only a block that stores
    /// value lengths needs its heads skipped over to find their end.
    /// `parse_meta` has bounded `groups <= records <= MAX_BLOCK_RECORDS`.
    fn open(body: &'a [u8], meta: &BlockMeta) -> Result<Self, MrError> {
        let bad = || MrError::Intermediate("block columns do not tile the body".into());
        let before = |end: usize, len: u64| {
            usize::try_from(len)
                .ok()
                .and_then(|len| end.checked_sub(len))
                .ok_or_else(bad)
        };
        let values = before(body.len(), meta.value_bytes)?;
        let heads_end = match meta.uniform {
            Some(len) if (len as u64).saturating_mul(meta.records) != meta.value_bytes => {
                return Err(bad())
            }
            Some(_) => before(values, meta.stored_key_bytes)?,
            None => (0..meta.groups).try_fold(0, |pos, _| read_head(body, pos).map(|h| h.1))?,
        };
        let lens = usize::try_from(meta.stored_key_bytes)
            .ok()
            .and_then(|stored| heads_end.checked_add(stored))
            .filter(|&lens| lens <= values)
            .ok_or_else(bad)?;
        Ok(GroupCursor {
            body,
            pos: [0, heads_end, lens, values],
            end: [heads_end, lens, values, body.len()],
            uniform: meta.uniform,
            groups_left: meta.groups,
            key_bytes_left: meta.key_bytes,
            group_left: 0,
        })
    }

    /// Step to the next record: its value, with `key` rebuilt (truncate
    /// to shared, extend with the suffix) only when a new group starts.
    /// The caller stops after the header's record count, whatever the
    /// heads claim, and then calls [`GroupCursor::finish`].
    #[inline(always)]
    fn next(&mut self, key: &mut Vec<u8>) -> Result<&'a [u8], MrError> {
        let bad = |what: &str| MrError::Intermediate(format!("block {what} outside its column"));
        if self.group_left == 0 {
            let ([shared, suffix_len, count], next) =
                read_head(&self.body[..self.end[HEADS]], self.pos[HEADS])?;
            let suffix = suffix_len
                .checked_add(self.pos[SUFFIXES])
                .filter(|&end| end <= self.end[SUFFIXES] && shared <= key.len() && count > 0)
                .map(|end| &self.body[self.pos[SUFFIXES]..end])
                .ok_or_else(|| bad("group head"))?;
            key.truncate(shared);
            key.extend_from_slice(suffix);
            self.pos[HEADS] = next;
            self.pos[SUFFIXES] += suffix_len;
            self.group_left = count as u64;
            self.groups_left = self.groups_left.wrapping_sub(1);
            let key_bytes = (key.len() as u64).wrapping_mul(self.group_left);
            self.key_bytes_left = self.key_bytes_left.wrapping_sub(key_bytes);
        }
        self.group_left -= 1;
        let len = match self.uniform {
            Some(len) => len,
            None => {
                let (len, used) =
                    read_vint(&self.body[self.pos[VALUE_LENS]..self.end[VALUE_LENS]])?;
                self.pos[VALUE_LENS] += used;
                usize::try_from(len).unwrap_or(usize::MAX)
            }
        };
        let value = len
            .checked_add(self.pos[VALUES])
            .and_then(|end| self.body.get(self.pos[VALUES]..end))
            .ok_or_else(|| bad("value"))?;
        self.pos[VALUES] += len;
        Ok(value)
    }

    /// After the last record: every column and every header count must
    /// have been used up exactly.
    fn finish(&self) -> Result<(), MrError> {
        if self.pos != self.end
            || [self.groups_left, self.key_bytes_left, self.group_left] != [0; 3]
        {
            return Err(MrError::Intermediate(
                "block body disagrees with its header".into(),
            ));
        }
        Ok(())
    }
}

/// Streaming cursor over a v3 segment: walks blocks in file order,
/// rebuilding the key once per group in a single reused buffer — an
/// advance inside a group moves only the value slice.
/// Each block's CRC-32C is verified once on entry; a mismatch surfaces
/// as [`MrError::Checksum`] exactly like a v2 trailer failure.
///
/// Values are borrowed straight from the segment (`'a`); the key is
/// borrowed from the cursor's scratch buffer, valid until the next
/// advance.
pub struct BlockCursor<'a> {
    /// The block region: the segment up to its trailer.
    region: &'a [u8],
    /// Index of the current block.
    block: usize,
    /// False until the first `advance`.
    entered: bool,
    live: bool,
    meta: BlockMeta,
    /// Header of the block after the current one, parsed on entering
    /// the current one (`None` past the last block) and kept for
    /// entering that block.
    next: Option<BlockMeta>,
    groups: GroupCursor<'a>,
    /// Records decoded from the current block (the head is number
    /// `decoded`, 1-based).
    decoded: u64,
    key: Vec<u8>,
    value: &'a [u8],
}

impl<'a> BlockCursor<'a> {
    /// Enter the block whose header `next` holds: CRC-check it, parse
    /// the header after it, lay its columns out, seed the key buffer with
    /// its fence key, and decode its first record. Returns `false` when
    /// past the last block.
    fn enter_next(&mut self) -> Result<bool, MrError> {
        let Some(meta) = self.next else {
            self.live = false;
            return Ok(false);
        };
        let region = self.region;
        let body = &region[meta.body_start..meta.end];
        let actual = crc32c(body);
        if actual != meta.crc {
            return Err(MrError::Checksum(format!(
                "block {} CRC mismatch: stored {:#010x}, computed {actual:#010x}",
                self.block, meta.crc
            )));
        }
        self.next = parse_meta(region, meta.end)?;
        self.key.clear();
        self.key.extend_from_slice(meta.fence(region));
        self.groups = GroupCursor::open(body, &meta)?;
        self.meta = meta;
        self.decoded = 0;
        self.decode_next()
    }

    #[inline]
    fn decode_next(&mut self) -> Result<bool, MrError> {
        self.value = self.groups.next(&mut self.key)?;
        self.decoded += 1;
        Ok(true)
    }

    /// Advance to the next record (crossing into the next block as
    /// needed). Returns `false` at end of segment; afterwards
    /// [`BlockCursor::key`]/[`BlockCursor::value`] hold the new head.
    #[inline]
    pub fn advance(&mut self) -> Result<bool, MrError> {
        if !self.entered {
            self.entered = true;
            self.next = parse_meta(self.region, HEADER_LEN)?;
            return self.enter_next();
        }
        if !self.live {
            return Ok(false);
        }
        if self.decoded == self.meta.records {
            self.groups.finish()?;
            self.block += 1;
            return self.enter_next();
        }
        self.decode_next()
    }

    /// Whether a current record exists (false once past the last block).
    pub fn is_live(&self) -> bool {
        self.live
    }

    /// The current record's key, borrowed from the cursor's scratch
    /// buffer — valid until the next advance.
    #[inline]
    pub fn key(&self) -> &[u8] {
        &self.key
    }

    /// The current record's value, borrowed from the segment.
    #[inline]
    pub fn value(&self) -> &'a [u8] {
        self.value
    }

    /// True when the current head is the first record of a block whose
    /// remaining records are all still undecoded — the precondition for
    /// [`BlockCursor::take_block`].
    #[inline]
    pub fn at_block_start(&self) -> bool {
        self.entered && self.live && self.decoded == 1
    }

    /// Records remaining in the current key group, including the head:
    /// the next `group_remaining() - 1` advances keep the key's bytes.
    #[inline]
    pub fn group_remaining(&self) -> u64 {
        self.groups.group_left + 1
    }

    /// The *next* block's fence key, if any, from its header. A sorted
    /// run's blocks are in key order, so every key in the current block
    /// compares `<=` that fence: it upper-bounds the current block's keys
    /// for the merge's skip rule.
    #[inline]
    pub fn next_fence_key(&self) -> Option<&'a [u8]> {
        let region = self.region;
        self.next.as_ref().map(|meta| meta.fence(region))
    }

    /// Lift the current (fully undecoded) block out as an
    /// [`EncodedBlock`] and advance to the first record of the next
    /// block. Callers must check [`BlockCursor::at_block_start`].
    pub fn take_block(&mut self) -> Result<EncodedBlock<'a>, MrError> {
        debug_assert!(self.at_block_start(), "take_block mid-block");
        let (meta, region) = (self.meta, self.region);
        let blk = EncodedBlock {
            bytes: &region[meta.start..meta.end],
            fence_key: meta.fence(region),
            records: meta.records,
            key_bytes: meta.key_bytes,
            stored_key_bytes: meta.stored_key_bytes,
            value_bytes: meta.value_bytes,
            body: &region[meta.body_start..meta.end],
            meta,
        };
        self.block += 1;
        self.enter_next()?;
        Ok(blk)
    }

    /// The next record, or `None` at end of segment.
    #[allow(clippy::should_implement_trait)] // fallible, unlike Iterator
    pub fn next<'s>(&'s mut self) -> Result<Option<ScratchRecord<'s, 'a>>, MrError> {
        if self.advance()? {
            let value = self.value();
            Ok(Some((self.key(), value)))
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scihadoop_compress::{DeflateCodec, IdentityCodec};

    /// Every record of a segment in file order, read back through
    /// [`RawSegment::for_each_record`].
    fn records(segment: &[u8], codec: &dyn Codec) -> Result<Vec<KvPair>, MrError> {
        let raw = RawSegment::open(segment, codec)?;
        let mut out = Vec::new();
        raw.for_each_record(|k, v| out.push(KvPair::new(k, v)))?;
        Ok(out)
    }

    fn roundtrip(framing: Framing, pairs: &[KvPair]) -> Segment {
        let codec: Arc<dyn Codec> = Arc::new(IdentityCodec);
        let mut w = IFileWriter::new(framing, codec.clone());
        for p in pairs {
            w.append_pair(p);
        }
        let seg = w.close();
        assert_eq!(records(&seg.data, codec.as_ref()).unwrap(), pairs);
        seg
    }

    #[test]
    fn empty_segment() {
        let seg = roundtrip(Framing::IFile, &[]);
        assert_eq!(seg.records, 0);
        assert_eq!(seg.raw_bytes, HEADER_LEN as u64);
    }

    #[test]
    fn sequencefile_framing_matches_intro_arithmetic() {
        // One record, 16-byte key + 4-byte value: 6 bytes framing → 26
        // bytes/record, the paper's §I number.
        let pair = KvPair::new(vec![1u8; 16], vec![2u8; 4]);
        let seg = roundtrip(Framing::SequenceFile, std::slice::from_ref(&pair));
        assert_eq!(
            seg.raw_bytes,
            (HEADER_LEN + 26) as u64,
            "16B key + 4B value must cost 26 bytes + header"
        );
        // 23-byte key (windspeed1 layout) → 33 bytes/record.
        let pair = KvPair::new(vec![1u8; 23], vec![2u8; 4]);
        let seg = roundtrip(Framing::SequenceFile, &[pair]);
        assert_eq!(seg.raw_bytes, (HEADER_LEN + 33) as u64);
    }

    #[test]
    fn ifile_framing_is_two_bytes_for_small_records() {
        let pair = KvPair::new(vec![1u8; 12], vec![2u8; 4]);
        let seg = roundtrip(Framing::IFile, &[pair]);
        assert_eq!(seg.raw_bytes, (HEADER_LEN + 18) as u64);
        assert_eq!(seg.framing_bytes(), 2);
    }

    #[test]
    fn accounting_separates_keys_values_framing() {
        let pairs: Vec<KvPair> = (0..100u32)
            .map(|i| KvPair::new(i.to_be_bytes().to_vec(), vec![7u8; 8]))
            .collect();
        let seg = roundtrip(Framing::IFile, &pairs);
        assert_eq!(seg.key_bytes, 400);
        assert_eq!(seg.value_bytes, 800);
        assert_eq!(seg.framing_bytes(), 200);
        assert_eq!(seg.records, 100);
    }

    #[test]
    fn compressing_codec_shrinks_materialized_bytes() {
        let codec: Arc<dyn Codec> = Arc::new(DeflateCodec::new());
        let mut w = IFileWriter::new(Framing::IFile, codec.clone());
        for i in 0..2000u32 {
            w.append(&i.to_be_bytes(), &[0u8; 4]);
        }
        let seg = w.close();
        assert!(seg.materialized_bytes() < seg.raw_bytes / 2);
        assert_eq!(records(&seg.data, codec.as_ref()).unwrap().len(), 2000);
    }

    #[test]
    fn reader_rejects_garbage() {
        let codec = IdentityCodec;
        assert!(records(b"tiny", &codec).is_err());
        let mut w = IFileWriter::new(Framing::IFile, Arc::new(IdentityCodec));
        w.append(b"key", b"value");
        let seg = w.close();
        // Truncated body.
        assert!(records(&seg.data[..seg.data.len() - 2], &codec).is_err());
        // Bad magic.
        let mut bad = seg.data.clone();
        bad[0] = b'X';
        assert!(records(&bad, &codec).is_err());
        // Bad framing tag.
        let mut bad = seg.data.clone();
        bad[5] = 9;
        assert!(records(&bad, &codec).is_err());
    }

    #[test]
    fn cursor_streams_the_records_that_were_written() {
        for framing in [Framing::SequenceFile, Framing::IFile] {
            let codec: Arc<dyn Codec> = Arc::new(DeflateCodec::new());
            let mut w = IFileWriter::new(framing, codec.clone());
            let written: Vec<KvPair> = (0..500u32)
                .map(|i| KvPair::new(i.to_be_bytes().to_vec(), format!("value-{i}").into_bytes()))
                .collect();
            for kv in &written {
                w.append(&kv.key, &kv.value);
            }
            let seg = w.close();
            let raw = RawSegment::open(&seg.data, codec.as_ref()).unwrap();
            let mut cursor = raw.cursor();
            let mut streamed = Vec::new();
            while let Some((k, v)) = cursor.next().unwrap() {
                streamed.push(KvPair::new(k.to_vec(), v.to_vec()));
            }
            assert_eq!(streamed.len(), 500);
            assert_eq!(streamed, written);
        }
    }

    #[test]
    fn cursor_rejects_truncated_segments() {
        let codec = IdentityCodec;
        // With the CRC trailer (default), truncation is caught at open.
        let mut w = IFileWriter::new(Framing::IFile, Arc::new(IdentityCodec));
        w.append(b"key", b"value");
        let seg = w.close();
        assert!(matches!(
            RawSegment::open(&seg.data[..seg.data.len() - 2], &codec),
            Err(MrError::Checksum(_))
        ));
        // Without a trailer, the cursor itself must reject the short body.
        let mut w = IFileWriter::without_trailer(Framing::IFile, Arc::new(IdentityCodec));
        w.append(b"key", b"value");
        let seg = w.close();
        let raw = RawSegment::open(&seg.data[..seg.data.len() - 2], &codec).unwrap();
        let mut cursor = raw.cursor();
        assert!(cursor.next().is_err());
    }

    #[test]
    fn trailer_roundtrips_and_excludes_itself_from_accounting() {
        let codec: Arc<dyn Codec> = Arc::new(IdentityCodec);
        let mut w = IFileWriter::new(Framing::IFile, codec.clone());
        w.append(b"key", b"value");
        let seg = w.close();
        // Materialized bytes include the 4-byte trailer; raw accounting
        // does not, so framing arithmetic is unchanged.
        assert_eq!(seg.data.len() as u64, seg.raw_bytes + TRAILER_LEN as u64);
        assert_eq!(seg.data[4], VERSION_CRC);
        assert_eq!(
            records(&seg.data, codec.as_ref()).unwrap(),
            vec![KvPair::new(b"key".to_vec(), b"value".to_vec())]
        );
    }

    #[test]
    fn trailer_detects_single_bit_flips_anywhere_in_the_body() {
        let codec = IdentityCodec;
        let mut w = IFileWriter::new(Framing::SequenceFile, Arc::new(IdentityCodec));
        for i in 0..20u32 {
            w.append(&i.to_be_bytes(), b"payload");
        }
        let seg = w.close();
        for byte in HEADER_LEN..seg.data.len() {
            let mut corrupt = seg.data.clone();
            corrupt[byte] ^= 0x40;
            assert!(
                RawSegment::open(&corrupt, &codec).is_err(),
                "bit flip at byte {byte} went undetected"
            );
        }
    }

    #[test]
    fn plain_segments_still_open_without_a_trailer() {
        let codec: Arc<dyn Codec> = Arc::new(IdentityCodec);
        let mut w = IFileWriter::without_trailer(Framing::IFile, codec.clone());
        w.append(b"key", b"value");
        let seg = w.close();
        assert_eq!(seg.data[4], VERSION_PLAIN);
        assert_eq!(seg.data.len() as u64, seg.raw_bytes);
        assert_eq!(records(&seg.data, codec.as_ref()).unwrap().len(), 1);
    }

    #[test]
    fn sequencefile_record_length_is_validated() {
        let codec = IdentityCodec;
        let mut w = IFileWriter::without_trailer(Framing::SequenceFile, Arc::new(IdentityCodec));
        w.append(b"key", b"value");
        let seg = w.close();
        // Inflate the 4-byte record length; the parsed vints disagree.
        let mut bad = seg.data.clone();
        bad[HEADER_LEN + 3] ^= 0x01;
        assert!(records(&bad, &codec).is_err());
    }

    #[test]
    fn malformed_vint_magnitude_errors_instead_of_panicking() {
        // Tag -128 → negative, 8 data bytes, all 0xFF: magnitude overflows
        // i64 and must surface as an error.
        let mut buf = vec![0x80u8]; // -128 as u8
        buf.extend_from_slice(&[0xFF; 8]);
        assert!(read_vint(&buf).is_err());
        // Same via the cursor: a hand-built v1 segment with that vint as
        // the key length.
        let mut raw = Vec::new();
        raw.extend_from_slice(MAGIC);
        raw.push(VERSION_PLAIN);
        raw.push(Framing::IFile.tag());
        raw.extend_from_slice(&buf);
        raw.push(0); // value length
        let seg = RawSegment::open(&raw, &IdentityCodec).unwrap();
        let mut cursor = seg.cursor();
        assert!(cursor.next().is_err());
    }

    #[test]
    fn large_keys_use_multibyte_vints() {
        let pair = KvPair::new(vec![1u8; 1000], vec![2u8; 4]);
        let seg = roundtrip(Framing::IFile, &[pair]);
        // vint(1000) = 3 bytes, vint(4) = 1 byte.
        assert_eq!(seg.framing_bytes(), 4);
    }

    #[test]
    fn common_prefix_len_matches_the_bytewise_definition() {
        let stem: Vec<u8> = (0..40u8).collect();
        for split in 0..=stem.len() {
            // Equal up to `split`, then different (or one side ends).
            let (mut a, mut b) = (stem[..split].to_vec(), stem[..split].to_vec());
            assert_eq!(common_prefix_len(&a, &b), split);
            a.extend_from_slice(b"x-left");
            assert_eq!(common_prefix_len(&a, &b), split);
            b.extend_from_slice(b"y-right-and-longer");
            assert_eq!(common_prefix_len(&a, &b), split);
            assert_eq!(common_prefix_len(&b, &a), split);
        }
    }

    // ---- v3 (grouped block) tests ----

    fn sorted_pairs(n: u32) -> Vec<KvPair> {
        (0..n)
            .map(|i| {
                KvPair::new(
                    format!("station-{:06}", i).into_bytes(),
                    i.to_be_bytes().to_vec(),
                )
            })
            .collect()
    }

    /// The records a v3 segment's block headers claim, summed without
    /// decoding a block.
    fn header_records(raw: &RawSegment) -> u64 {
        raw.headers().map(|meta| meta.unwrap().records).sum()
    }

    fn v3_segment(pairs: &[KvPair], budget: usize) -> Segment {
        let mut w = IFileWriter::v3_with_budget(Framing::IFile, Arc::new(IdentityCodec), budget);
        for p in pairs {
            w.append_pair(p);
        }
        w.close()
    }

    #[test]
    fn v3_roundtrips_through_reader_and_block_cursor() {
        let pairs = sorted_pairs(500);
        let seg = v3_segment(&pairs, 256);
        assert_eq!(seg.data[4], VERSION_BLOCK);
        assert!(seg.blocks > 1, "tiny budget must produce many blocks");
        assert_eq!(records(&seg.data, &IdentityCodec).unwrap(), pairs);
        let raw = RawSegment::open(&seg.data, &IdentityCodec).unwrap();
        assert!(raw.is_block_format());
        assert_eq!(raw.blocks().unwrap() as u64, seg.blocks);
        assert_eq!(header_records(&raw), 500);
        let mut cursor = raw.block_cursor();
        let mut streamed = Vec::new();
        while let Some((k, v)) = cursor.next().unwrap() {
            streamed.push(KvPair::new(k.to_vec(), v.to_vec()));
        }
        assert_eq!(streamed, pairs);
    }

    #[test]
    fn v3_decodes_byte_identical_records_to_v2() {
        let pairs = sorted_pairs(300);
        let codec: Arc<dyn Codec> = Arc::new(IdentityCodec);
        let mut v2 = IFileWriter::new(Framing::IFile, codec.clone());
        for p in &pairs {
            v2.append_pair(p);
        }
        let v2 = records(&v2.close().data, codec.as_ref()).unwrap();
        let v3 = v3_segment(&pairs, 512);
        assert_eq!(v2, records(&v3.data, codec.as_ref()).unwrap());
    }

    #[test]
    fn v3_front_coding_shrinks_shared_prefix_keys() {
        let pairs = sorted_pairs(1000);
        let v3 = v3_segment(&pairs, DEFAULT_BLOCK_BUDGET);
        let codec: Arc<dyn Codec> = Arc::new(IdentityCodec);
        let mut v2 = IFileWriter::new(Framing::IFile, codec);
        for p in &pairs {
            v2.append_pair(p);
        }
        let v2 = v2.close();
        assert_eq!(v2.key_saved_bytes(), 0);
        assert!(v3.key_saved_bytes() > 0);
        assert!(
            v3.raw_bytes < v2.raw_bytes,
            "front coding must shrink shared-prefix keys: v3 {} vs v2 {}",
            v3.raw_bytes,
            v2.raw_bytes
        );
        // The byte-split identity the reports build on.
        assert_eq!(
            v3.key_bytes + v3.value_bytes + v3.framing_bytes() + HEADER_LEN as u64,
            v3.raw_bytes + v3.key_saved_bytes()
        );
    }

    #[test]
    fn v3_empty_segment_roundtrips() {
        let seg = v3_segment(&[], DEFAULT_BLOCK_BUDGET);
        assert_eq!(seg.records, 0);
        assert_eq!(seg.blocks, 0);
        let raw = RawSegment::open(&seg.data, &IdentityCodec).unwrap();
        assert_eq!(header_records(&raw), 0);
        let mut cursor = raw.block_cursor();
        assert!(cursor.next().unwrap().is_none());
    }

    #[test]
    fn v3_bit_flips_detected_by_segment_trailer() {
        let seg = v3_segment(&sorted_pairs(50), 128);
        for byte in HEADER_LEN..seg.data.len() {
            let mut corrupt = seg.data.clone();
            corrupt[byte] ^= 0x10;
            assert!(
                RawSegment::open(&corrupt, &IdentityCodec).is_err(),
                "v3 bit flip at byte {byte} went undetected"
            );
        }
    }

    #[test]
    fn v3_block_crc_catches_corruption_behind_a_regenerated_trailer() {
        // An attacker (or a buggy copy path) who fixes up the outer
        // trailer still cannot sneak a corrupted block past the
        // per-block CRC.
        let seg = v3_segment(&sorted_pairs(200), 128);
        let mut corrupt = seg.data[..seg.data.len() - TRAILER_LEN].to_vec();
        let n = corrupt.len();
        corrupt[n / 2] ^= 0x01; // somewhere inside the blocks
        let crc = crc32c(&corrupt);
        corrupt.extend_from_slice(&crc.to_be_bytes());
        let raw = RawSegment::open(&corrupt, &IdentityCodec).unwrap();
        let mut cursor = raw.block_cursor();
        let mut res = Ok(true);
        while let Ok(true) = res {
            res = cursor.advance();
        }
        assert!(res.is_err(), "corrupt block body went undetected");
    }

    #[test]
    fn v3_take_block_splices_into_a_new_segment() {
        let pairs = sorted_pairs(400);
        let seg = v3_segment(&pairs, 256);
        let raw = RawSegment::open(&seg.data, &IdentityCodec).unwrap();
        let mut w = IFileWriter::v3_with_budget(Framing::IFile, Arc::new(IdentityCodec), 256);
        let mut cursor = raw.block_cursor();
        assert!(cursor.advance().unwrap());
        let mut copied_records = 0;
        while cursor.at_block_start() {
            let blk = cursor.take_block().unwrap();
            blk.for_each_record(|_, _| {}).unwrap(); // self-contained
            copied_records += blk.records;
            w.append_encoded_block(&blk).unwrap();
        }
        assert_eq!(copied_records, 400, "every block is liftable in turn");
        let out = w.close();
        assert_eq!(out.records, seg.records);
        assert_eq!(out.key_bytes, seg.key_bytes);
        assert_eq!(out.stored_key_bytes, seg.stored_key_bytes);
        assert_eq!(records(&out.data, &IdentityCodec).unwrap(), pairs);
    }

    #[test]
    fn a_flat_writer_refuses_an_encoded_block() {
        let seg = v3_segment(&sorted_pairs(10), DEFAULT_BLOCK_BUDGET);
        let raw = RawSegment::open(&seg.data, &IdentityCodec).unwrap();
        let mut cursor = raw.block_cursor();
        assert!(cursor.advance().unwrap());
        let blk = cursor.take_block().unwrap();
        let mut w = IFileWriter::new(Framing::IFile, Arc::new(IdentityCodec));
        assert!(matches!(
            w.append_encoded_block(&blk),
            Err(MrError::Config(_))
        ));
        assert_eq!(w.records(), 0);
    }

    #[test]
    fn v3_shared_prefixes_longer_than_255_bytes() {
        let stem = vec![b'p'; 300];
        let pairs: Vec<KvPair> = (0..50u32)
            .map(|i| {
                let mut k = stem.clone();
                k.extend_from_slice(&i.to_be_bytes());
                KvPair::new(k, vec![i as u8])
            })
            .collect();
        let seg = v3_segment(&pairs, 64);
        // 49 non-fence records save ≥ 300 bytes each.
        assert!(seg.key_saved_bytes() >= 300 * 40);
        assert_eq!(records(&seg.data, &IdentityCodec).unwrap(), pairs);
    }

    #[test]
    fn v3_truncations_always_error() {
        let seg = v3_segment(&sorted_pairs(40), 128);
        for keep in 0..seg.data.len() {
            assert!(
                records(&seg.data[..keep], &IdentityCodec).is_err(),
                "truncation to {keep} bytes went undetected"
            );
        }
    }
}
