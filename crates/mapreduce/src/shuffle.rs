//! The job's shuffle store: completed map outputs, indexed by
//! (partition, map task), handed to reduce slots as each map task lands
//! — under a configurable in-memory byte budget, with overflow spilled
//! to per-partition disk files. Every job runs over one: a local job's
//! store is unbounded and raw, a distributed job's takes its budget and
//! codec from [`DistConfig`](crate::dist::DistConfig).
//!
//! A partition's segments are always consumed in map-task-id order,
//! whatever order the maps finished in, so a fault plan's per-index
//! corruption hits the same bytes on every run and on every kind of
//! slot. Whether a segment is resident or spilled is invisible to the
//! reducer: placement changes *where* bytes live, never *which* bytes
//! are served.
//!
//! # Memory budget and spill format
//!
//! Placement is decided once, at `publish`, and never revisited: a
//! segment that fits what is left of the budget stays resident until
//! its partition's reduce commits, one that does not is appended to
//! its partition's spill file — Hadoop's own reduce-side rule. The
//! spill file is raw segment bytes back to back; the slot keeps the
//! `(offset, len, crc)` index entry, and every spill-file read
//! re-verifies the CRC-32C recorded at spill time, so silent disk
//! corruption fails loudly instead of reducing over garbage. A map
//! task's outputs are published once — by the attempt that succeeded —
//! so no slot is ever replaced and no spilled byte orphaned, except by
//! a publish whose spill write failed part-way (its row is emptied for
//! the retry). A spill file is unlinked the moment it is created and
//! lives on only as an open descriptor: the store reads it by fd, its
//! space returns when the last handle to it closes — at its partition's
//! commit, at the store's drop, or when the process dies — and no exit
//! path can leave it behind in the temp dir.
//!
//! A fetch reads a spilled segment whole ([`SegmentHandle::to_vec`], one
//! `pread`) and checks its CRC before handing out a byte. Spilled
//! segments are *not* promoted back to memory on read — a fetch is the
//! last time the coordinator touches those bytes.
//!
//! A partition's segments are retained until its reduce *commits*
//! ([`ShuffleStore::release`]), not freed after a first fetch, so a
//! retried reduce attempt re-fetches the same bytes. A handle already
//! out stays valid after its partition is released: it pins resident
//! bytes by `Arc` and keeps a spilled segment's file open.
//!
//! # Wire/spill compression
//!
//! With [`WireCodec::Lz`] each segment is compressed **once, at
//! publish**, outside the store lock; what the store admits, budgets,
//! spills, and serves afterwards is the compressed frame —
//! spill disk, resident memory, and the wire all see the small bytes,
//! and every reader inflates them with the one `inflate`. A
//! segment the codec cannot shrink is stored raw (`comp == false`), so
//! compression never inflates a segment. Logical (uncompressed)
//! lengths are tracked per slot: [`ShuffleStore::total_bytes`] stays
//! the *logical* shuffle volume, preserving the
//! `ShuffleBytes == MapOutputMaterializedBytes` ledger invariant
//! regardless of codec.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use crate::dist::WireCodec;
use crate::error::MrError;
use scihadoop_compress::checksum::crc32c;
use scihadoop_compress::lz;
use std::borrow::Cow;
use std::fs::File;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Distinguishes concurrently live stores within one process (one test
/// binary runs many coordinators).
static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Fallback in-memory budget when `/proc/meminfo` is unavailable.
const FALLBACK_MEM_BUDGET: usize = 256 << 20;

/// Default in-memory budget, sized from the machine: a quarter of
/// `MemAvailable`, falling back to 256 MiB where that cannot be read.
/// The budget only decides segment *placement*, never the bytes served,
/// so an approximate default is safe.
pub fn auto_shuffle_mem_bytes() -> usize {
    let Ok(meminfo) = std::fs::read_to_string("/proc/meminfo") else {
        return FALLBACK_MEM_BUDGET;
    };
    for line in meminfo.lines() {
        if let Some(rest) = line.strip_prefix("MemAvailable:") {
            let kib: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            if kib > 0 {
                return usize::try_from((kib << 10) / 4).unwrap_or(FALLBACK_MEM_BUDGET);
            }
        }
    }
    FALLBACK_MEM_BUDGET
}

fn pread_exact(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
    }
    #[cfg(not(unix))]
    {
        // Positioned reads via the shared cursor; the distributed
        // runtime is unix-first (no UDS elsewhere either) and this path
        // only keeps the crate compiling.
        use std::io::{Read, Seek, SeekFrom};
        let mut f = file;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)
    }
}

/// One partition's append-only spill file, unlinked at creation. All
/// writes happen under the store lock, so the tracked length is the
/// authoritative append offset; reads are positioned (`pread`) and take
/// no lock at all.
struct SpillFile {
    file: Arc<File>,
    len: u64,
}

impl SpillFile {
    fn create(partition: usize) -> Result<SpillFile, MrError> {
        let path = std::env::temp_dir().join(format!(
            "scihadoop-spill-{}-{}-p{partition}.dat",
            std::process::id(),
            STORE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let file = std::fs::OpenOptions::new()
            .append(true)
            .read(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| MrError::Net(format!("create shuffle spill file {path:?}: {e}")))?;
        std::fs::remove_file(&path)
            .map_err(|e| MrError::Net(format!("unlink shuffle spill file {path:?}: {e}")))?;
        Ok(SpillFile {
            file: Arc::new(file),
            len: 0,
        })
    }

    fn append(&mut self, data: &[u8]) -> Result<u64, MrError> {
        let offset = self.len;
        (&*self.file).write_all(data).map_err(|e| {
            // A write that failed part-way (a full disk) left a tail the
            // tracked length does not cover; cut it off, or the next
            // append would land past the offset its slot records.
            let _ = self.file.set_len(offset);
            MrError::Net(format!("shuffle spill write ({} bytes): {e}", data.len()))
        })?;
        self.len += data.len() as u64;
        Ok(offset)
    }
}

struct StoreState {
    /// `slots[partition][map_task]`; `None` is no data — not yet
    /// published, or the map task emitted nothing for this partition.
    slots: Vec<Vec<Option<SegmentHandle>>>,
    /// Whether each map task's outputs have been committed.
    done: Vec<bool>,
    aborted: bool,
    /// Per-partition spill files, created on first spill.
    spill: Vec<Option<SpillFile>>,
    /// Resident segment bytes right now. Never exceeds `mem_budget`.
    mem_used: usize,
    mem_high_water: u64,
    spilled_bytes: u64,
    spill_reads: u64,
    /// Time spent in publish-side wire-codec compression
    /// (`LzCompressNanos`; 0 under identity).
    compress_nanos: u64,
    /// Logical bytes of segments already released to committed reduces.
    released_bytes: u64,
}

impl StoreState {
    /// Append `data` to `partition`'s spill file (created on first
    /// use) and return the index entry for it, CRC included — bytes
    /// that stay resident are never checksummed.
    fn spill_bytes(
        &mut self,
        partition: usize,
        map_task: usize,
        data: &[u8],
    ) -> Result<SpilledHandle, MrError> {
        let file = match &mut self.spill[partition] {
            Some(file) => file,
            none => none.insert(SpillFile::create(partition)?),
        };
        let offset = file.append(data)?;
        self.spilled_bytes += data.len() as u64;
        Ok(SpilledHandle {
            file: Arc::clone(&file.file),
            offset,
            len: data.len(),
            crc: crc32c(data),
            partition,
            map_task,
        })
    }

    /// Empty `map_task`'s slots after its publish failed part-way,
    /// returning resident bytes to the budget. Bytes it already spilled
    /// stay in the append-only files, unreferenced and uncounted, so
    /// `spilled_bytes` counts each published segment at most once.
    fn clear_row(&mut self, map_task: usize) {
        for row in &mut self.slots {
            match row[map_task].take().map(|slot| slot.repr) {
                Some(SegmentRepr::Mem(data)) => self.mem_used -= data.len(),
                Some(SegmentRepr::Spilled(h)) => self.spilled_bytes -= h.len as u64,
                None => {}
            }
        }
    }
}

/// Shuffle state shared by a job's slots. Public so the bench harness
/// and spill-equivalence tests can drive the store directly; the engine
/// constructs it internally.
pub struct ShuffleStore {
    state: Mutex<StoreState>,
    ready: Condvar,
    mem_budget: usize,
    codec: WireCodec,
}

impl ShuffleStore {
    /// A store for `num_partitions × num_maps` segments holding at most
    /// `mem_budget` resident bytes (0 spills everything, `usize::MAX`
    /// never spills). Stores raw segment bytes; see
    /// [`ShuffleStore::new_with_codec`].
    pub fn new(num_partitions: usize, num_maps: usize, mem_budget: usize) -> ShuffleStore {
        ShuffleStore::new_with_codec(num_partitions, num_maps, mem_budget, WireCodec::Identity)
    }

    /// A store that compresses segments at publish with `codec` —
    /// resident memory, spill files, and served bytes all hold the
    /// compressed frames.
    pub fn new_with_codec(
        num_partitions: usize,
        num_maps: usize,
        mem_budget: usize,
        codec: WireCodec,
    ) -> ShuffleStore {
        ShuffleStore {
            state: Mutex::new(StoreState {
                slots: vec![vec![None; num_maps]; num_partitions],
                done: vec![false; num_maps],
                aborted: false,
                spill: (0..num_partitions).map(|_| None).collect(),
                mem_used: 0,
                mem_high_water: 0,
                spilled_bytes: 0,
                spill_reads: 0,
                compress_nanos: 0,
                released_bytes: 0,
            }),
            ready: Condvar::new(),
            mem_budget,
            codec,
        }
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, StoreState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Commit one map task's segments atomically, once: only the attempt
    /// that succeeds publishes, and a committed task never runs again.
    /// Outputs arrive as `(partition, bytes)` pairs, at most one per
    /// partition. A second publish of a committed task, or a repeated or
    /// unknown partition, is refused before any slot changes. The task
    /// is only marked done once all of its segments are stored, so a
    /// fetcher never observes a partial set. A segment that fits what is
    /// left of the memory budget is admitted; any other goes straight to
    /// its partition's spill file. If a spill write fails, the task's
    /// slots are emptied and their resident bytes returned to the budget,
    /// so the retried attempt publishes into a clean row.
    pub fn publish(&self, map_task: usize, outputs: Vec<(usize, Vec<u8>)>) -> Result<(), MrError> {
        // Compress outside the lock: publishers are concurrent map
        // connections, and codec CPU time must not serialize them.
        // A frame that fails to shrink its segment is discarded and the
        // raw bytes stored, so compression never inflates a segment.
        let mut compress_nanos = 0u64;
        let prepared: Vec<(usize, Vec<u8>, bool, usize)> = outputs
            .into_iter()
            .map(|(partition, data)| {
                let logical_len = data.len();
                if self.codec == WireCodec::Lz && !data.is_empty() {
                    let t0 = Instant::now();
                    let frame = lz::compress(&data);
                    compress_nanos += t0.elapsed().as_nanos() as u64;
                    if frame.len() < data.len() {
                        return (partition, frame, true, logical_len);
                    }
                }
                (partition, data, false, logical_len)
            })
            .collect();
        let mut guard = self.lock_state();
        let state = &mut *guard;
        if state.done[map_task] {
            return Err(MrError::Net(format!("map task {map_task} published twice")));
        }
        let mut seen = vec![false; state.slots.len()];
        for &(partition, ..) in &prepared {
            if partition >= seen.len() || seen[partition] {
                return Err(MrError::Net(format!(
                    "map task {map_task} published partition {partition} twice or out of range"
                )));
            }
            seen[partition] = true;
        }
        state.compress_nanos += compress_nanos;
        for (partition, data, comp, logical_len) in prepared {
            let repr = if data.len() <= self.mem_budget - state.mem_used {
                state.mem_used += data.len();
                state.mem_high_water = state.mem_high_water.max(state.mem_used as u64);
                SegmentRepr::Mem(Arc::new(data))
            } else {
                match state.spill_bytes(partition, map_task, &data) {
                    Ok(spilled) => SegmentRepr::Spilled(spilled),
                    Err(e) => {
                        state.clear_row(map_task);
                        return Err(e);
                    }
                }
            };
            state.slots[partition][map_task] = Some(SegmentHandle {
                comp,
                logical_len,
                repr,
            });
        }
        state.done[map_task] = true;
        self.ready.notify_all();
        Ok(())
    }

    /// Block until `map_task`'s outputs are committed, then return a
    /// handle to its segment for `partition` (`None` if the task
    /// emitted nothing for that partition). Errors out if the job
    /// aborts while waiting. A returned handle stays valid after the
    /// partition is released.
    pub fn segment_when_ready(
        &self,
        partition: usize,
        map_task: usize,
    ) -> Result<Option<SegmentHandle>, MrError> {
        let mut state = self.lock_state();
        loop {
            if state.aborted {
                return Err(MrError::Net("job aborted while awaiting map output".into()));
            }
            if state.done[map_task] {
                let handle = state.slots[partition][map_task].clone();
                if let Some(SegmentRepr::Spilled(_)) = handle.as_ref().map(|h| &h.repr) {
                    state.spill_reads += 1;
                }
                return Ok(handle);
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Drop `partition`'s segments: its reduce committed, and a committed
    /// reduce is never re-fetched. Frees the resident bytes and closes
    /// the store's descriptor of the partition's spill file (handles
    /// already out keep theirs open).
    pub fn release(&self, partition: usize) {
        let mut guard = self.lock_state();
        let state = &mut *guard;
        let slots: Vec<SegmentHandle> = state.slots[partition]
            .iter_mut()
            .filter_map(Option::take)
            .collect();
        for slot in &slots {
            if let SegmentRepr::Mem(data) = &slot.repr {
                state.mem_used -= data.len();
            }
            state.released_bytes += slot.logical_len as u64;
        }
        let file = state.spill[partition].take();
        // Freeing megabytes and closing a file is not work to do under
        // the lock every fetch takes.
        drop(guard);
        drop((slots, file));
    }

    /// Unblock all waiters with an error; called when the job fails.
    pub fn abort(&self) {
        self.lock_state().aborted = true;
        self.ready.notify_all();
    }

    /// Total *logical* (uncompressed) bytes across all committed
    /// segments — resident, spilled or already released (the job's
    /// `ShuffleBytes`). Independent of the wire codec, so the
    /// `ShuffleBytes == MapOutputMaterializedBytes` invariant holds
    /// compressed or not.
    pub fn total_bytes(&self) -> u64 {
        let state = self.lock_state();
        let live: u64 = state
            .slots
            .iter()
            .flat_map(|row| row.iter().flatten())
            .map(|slot| slot.logical_len as u64)
            .sum();
        live + state.released_bytes
    }

    /// Stored bytes of the published segments placed in spill files
    /// (`ShuffleSpilledBytes`): each at most once, so never more than
    /// [`ShuffleStore::total_bytes`].
    pub fn spilled_bytes(&self) -> u64 {
        self.lock_state().spilled_bytes
    }

    /// Segment reads served from a spill file (`ShuffleSpillReads`).
    pub fn spill_reads(&self) -> u64 {
        self.lock_state().spill_reads
    }

    /// High-water mark of resident bytes (`ShuffleMemHighWater`).
    pub fn mem_high_water(&self) -> u64 {
        self.lock_state().mem_high_water
    }

    /// Publish-side compression time (`LzCompressNanos`).
    pub fn compress_nanos(&self) -> u64 {
        self.lock_state().compress_nanos
    }
}

/// One (partition, map task) segment — what a slot of the store holds
/// and, cloned, what a fetch returns: its stored representation plus
/// the codec metadata a server needs to frame it on the wire. Budgets
/// and spill accounting run on stored bytes, job-level `ShuffleBytes`
/// on logical bytes. A handle outlives any store mutation — `Mem` pins
/// the bytes via `Arc`, `Spilled` reads an append-only region of a
/// file the handle keeps open.
#[derive(Clone)]
pub struct SegmentHandle {
    /// Stored bytes are an lz frame the fetching worker must inflate.
    comp: bool,
    /// Uncompressed segment length; equals the stored length when raw.
    logical_len: usize,
    pub repr: SegmentRepr,
}

/// Where a segment's *stored* bytes live, fixed when it is published.
#[derive(Clone)]
pub enum SegmentRepr {
    Mem(Arc<Vec<u8>>),
    Spilled(SpilledHandle),
}

impl SegmentHandle {
    /// Stored length in bytes — what crosses the wire.
    pub fn len(&self) -> usize {
        match &self.repr {
            SegmentRepr::Mem(data) => data.len(),
            SegmentRepr::Spilled(h) => h.len,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the stored bytes are an lz frame.
    pub fn is_comp(&self) -> bool {
        self.comp
    }

    /// Uncompressed segment length.
    pub fn logical_len(&self) -> usize {
        self.logical_len
    }

    /// Materialize the stored bytes (compressed, if the store codec
    /// shrank this segment). Spilled reads verify the spill-time CRC.
    pub fn to_vec(&self) -> Result<Vec<u8>, MrError> {
        let h = match &self.repr {
            SegmentRepr::Mem(data) => return Ok(data.as_ref().clone()),
            SegmentRepr::Spilled(h) => h,
        };
        let mut buf = vec![0u8; h.len];
        pread_exact(&h.file, &mut buf, h.offset).map_err(|e| {
            MrError::Net(format!(
                "shuffle spill read (partition {}, map task {}, {} bytes): {e}",
                h.partition, h.map_task, h.len
            ))
        })?;
        let got = crc32c(&buf);
        if got != h.crc {
            return Err(MrError::Checksum(format!(
                "shuffle spill file corrupt: partition {} map task {} crc {got:#010x} != {:#010x}",
                h.partition, h.map_task, h.crc
            )));
        }
        Ok(buf)
    }

    /// The *logical* segment bytes: borrowed when they are resident and
    /// raw (an in-process reduce merges straight over them), otherwise
    /// materialized by [`SegmentHandle::logical_vec`].
    pub(crate) fn logical_bytes(&self) -> Result<Cow<'_, [u8]>, MrError> {
        match &self.repr {
            SegmentRepr::Mem(data) if !self.comp => Ok(Cow::Borrowed(data.as_slice())),
            _ => self.logical_vec().map(Cow::Owned),
        }
    }

    /// Materialize the *logical* segment bytes, inflating a compressed
    /// store representation — fault-plan corruption addresses logical
    /// bytes whatever the store holds, and tests compare against
    /// published inputs.
    pub fn logical_vec(&self) -> Result<Vec<u8>, MrError> {
        let stored = self.to_vec()?;
        if self.comp {
            inflate(&stored)
        } else {
            Ok(stored)
        }
    }
}

/// Inflate a stored lz frame — the one inflate the store and every
/// fetching worker use. The frame states its own length and
/// `lz::decompress` enforces it; a frame that fails its CRC-32C or its
/// structure is detected corruption, retryable like a bad segment
/// trailer.
pub(crate) fn inflate(frame: &[u8]) -> Result<Vec<u8>, MrError> {
    lz::decompress(frame).map_err(|e| MrError::Checksum(format!("shuffle lz frame corrupt: {e}")))
}

/// Index entry plus file handle for one spilled segment.
#[derive(Clone)]
pub struct SpilledHandle {
    file: Arc<File>,
    offset: u64,
    len: usize,
    crc: u32,
    partition: usize,
    map_task: usize,
}

#[cfg(test)]
pub(crate) mod damage {
    //! A test hook: damage a spilled segment where it lies in its spill
    //! file, as a failing disk would.

    use super::{pread_exact, SegmentRepr, ShuffleStore};
    use std::fs::File;
    use std::io::Write;
    use std::sync::Arc;

    /// What is done to the segment.
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum Damage {
        /// One bit of the segment's last byte flipped: its spill CRC no
        /// longer matches.
        FlipByte,
        /// The file cut one byte short of the segment's end: its `pread`
        /// comes up short.
        Truncate,
    }

    /// Puts a damaged spill file's bytes back when dropped.
    pub(crate) struct Repair {
        file: Arc<File>,
        original: Vec<u8>,
    }

    impl Drop for Repair {
        fn drop(&mut self) {
            // Not a panic in `drop`: a repair that fails shows as the
            // retried attempt failing too.
            let _ = rewrite(&self.file, &self.original);
        }
    }

    /// Replace a spill file's contents through its descriptor (the file
    /// has no name). It is open for appending only, so it is emptied
    /// first and the bytes land at offset 0.
    fn rewrite(mut file: &File, bytes: &[u8]) -> std::io::Result<()> {
        file.set_len(0)?;
        file.write_all(bytes)
    }

    impl ShuffleStore {
        /// Damage `(partition, map_task)`'s segment in its spill file,
        /// until the returned guard is dropped. The file is rewritten in
        /// place, so handles already out see the damage too.
        pub(crate) fn damage_spill(
            &self,
            partition: usize,
            map_task: usize,
            damage: Damage,
        ) -> Repair {
            let state = self.lock_state();
            let slot = state.slots[partition][map_task].as_ref();
            let Some(SegmentRepr::Spilled(h)) = slot.map(|s| &s.repr) else {
                panic!("segment ({partition}, {map_task}) is not spilled");
            };
            let spill = state.spill[partition].as_ref().unwrap();
            let file = Arc::clone(&spill.file);
            let mut original = vec![0; spill.len as usize];
            pread_exact(&file, &mut original, 0).unwrap();
            let mut damaged = original.clone();
            let end = h.offset as usize + h.len;
            match damage {
                Damage::FlipByte => damaged[end - 1] ^= 1,
                Damage::Truncate => damaged.truncate(end - 1),
            }
            rewrite(&file, &damaged).unwrap();
            Repair { file, original }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fetch_all(store: &ShuffleStore, partition: usize, num_maps: usize) -> Vec<Vec<u8>> {
        let mut got = Vec::new();
        for task in 0..num_maps {
            if let Some(seg) = store.segment_when_ready(partition, task).unwrap() {
                got.push(seg.to_vec().unwrap());
            }
        }
        got
    }

    #[test]
    fn fetch_blocks_until_publish_and_preserves_task_order() {
        let store = Arc::new(ShuffleStore::new(2, 3, usize::MAX));
        let fetcher = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || fetch_all(&store, 1, 3))
        };
        // Publish out of order; the fetcher still consumes in task order.
        store.publish(1, vec![(1, b"one".to_vec())]).unwrap();
        store.publish(2, vec![(0, b"zero-only".to_vec())]).unwrap();
        store
            .publish(0, vec![(0, b"z".to_vec()), (1, b"nought".to_vec())])
            .unwrap();
        let got = fetcher.join().unwrap();
        assert_eq!(got, vec![b"nought".to_vec(), b"one".to_vec()]);
        assert_eq!(store.total_bytes(), 3 + 9 + 1 + 6);
        assert_eq!(store.spilled_bytes(), 0);
        assert_eq!(store.mem_high_water(), 3 + 9 + 1 + 6);
    }

    #[test]
    fn a_committed_map_task_is_never_published_again() {
        let store = ShuffleStore::new(1, 1, usize::MAX);
        store.publish(0, vec![(0, b"first".to_vec())]).unwrap();
        let err = store.publish(0, vec![(0, b"second".to_vec())]).unwrap_err();
        assert!(err.to_string().contains("published twice"), "{err}");
        let seg = store.segment_when_ready(0, 0).unwrap().unwrap();
        assert_eq!(seg.to_vec().unwrap(), b"first");
        assert_eq!(store.total_bytes(), 5);
        assert_eq!(store.lock_state().mem_used, 5);
    }

    #[test]
    fn segments_outlive_failed_fetches_and_are_released_on_commit() {
        // Part resident, part spilled: a 12-byte budget holds one of the
        // two 10-byte segments per partition pair.
        let store = ShuffleStore::new(2, 2, 12);
        for task in 0..2 {
            let outputs = (0..2).map(|p| (p, vec![(task * 2 + p) as u8; 10]));
            store.publish(task, outputs.collect()).unwrap();
        }
        // A reduce attempt that fails after fetching leaves the store
        // as it was: the retry is served the same bytes.
        for partition in 0..2 {
            let first = fetch_all(&store, partition, 2);
            assert_eq!(first.len(), 2);
            assert_eq!(fetch_all(&store, partition, 2), first);
        }
        assert!(store.lock_state().mem_used > 0);
        // One that commits takes its partition with it.
        store.release(0);
        assert!(fetch_all(&store, 0, 2).is_empty());
        assert_eq!(fetch_all(&store, 1, 2).len(), 2);
        store.release(1);
        assert_eq!(store.lock_state().mem_used, 0, "nothing stays resident");
        assert!(store.lock_state().spill.iter().all(Option::is_none));
        // The job's shuffle volume still counts what was released.
        assert_eq!(store.total_bytes(), 40);
    }

    #[test]
    fn abort_wakes_blocked_fetchers_with_an_error() {
        let store = Arc::new(ShuffleStore::new(1, 1, usize::MAX));
        let fetcher = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || store.segment_when_ready(0, 0).map(|s| s.is_some()))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        store.abort();
        let err = fetcher.join().unwrap().unwrap_err();
        assert!(err.to_string().contains("aborted"), "{err}");
    }

    #[test]
    fn zero_budget_spills_everything_and_serves_identical_bytes() {
        let bounded = ShuffleStore::new(2, 3, 0);
        let unbounded = ShuffleStore::new(2, 3, usize::MAX);
        let outputs = |task: usize| {
            vec![
                (0, vec![task as u8; 100]),
                (1, format!("seg-{task}").into_bytes()),
            ]
        };
        for task in 0..3 {
            bounded.publish(task, outputs(task)).unwrap();
            unbounded.publish(task, outputs(task)).unwrap();
        }
        for partition in 0..2 {
            assert_eq!(
                fetch_all(&bounded, partition, 3),
                fetch_all(&unbounded, partition, 3)
            );
        }
        assert_eq!(bounded.total_bytes(), unbounded.total_bytes());
        assert_eq!(bounded.spilled_bytes(), bounded.total_bytes());
        assert_eq!(bounded.mem_high_water(), 0);
        assert_eq!(bounded.spill_reads(), 6);
        assert_eq!(unbounded.spilled_bytes(), 0);
        assert_eq!(unbounded.spill_reads(), 0);
    }

    #[test]
    fn tight_budget_spills_the_newcomer_and_never_moves_a_resident_segment() {
        // Budget fits two 10-byte segments: the third finds no room and
        // spills; the first two stay where publish put them.
        let store = ShuffleStore::new(2, 4, 20);
        store.publish(0, vec![(0, vec![b'a'; 10])]).unwrap();
        store.publish(1, vec![(1, vec![b'b'; 10])]).unwrap();
        store.publish(2, vec![(1, vec![b'c'; 10])]).unwrap();
        assert_eq!(store.spilled_bytes(), 10);
        let in_mem = |p: usize, m: usize| {
            matches!(
                store.segment_when_ready(p, m).unwrap().map(|h| h.repr),
                Some(SegmentRepr::Mem(_))
            )
        };
        assert!(in_mem(0, 0));
        assert!(in_mem(1, 1));
        assert!(!in_mem(1, 2), "the newcomer spilled");
        assert_eq!(store.mem_high_water(), 20);
        // The spilled segment still round-trips bit-exactly.
        let seg = store.segment_when_ready(1, 2).unwrap().unwrap();
        assert_eq!(seg.to_vec().unwrap(), vec![b'c'; 10]);
        // A commit frees its partition's bytes for later publishes, but
        // moves nothing already placed.
        store.release(0);
        store.publish(3, vec![(1, vec![b'd'; 10])]).unwrap();
        assert!(in_mem(1, 3), "the later segment fits the freed room");
        assert!(!in_mem(1, 2), "the spilled segment stays spilled");
        assert_eq!(store.spilled_bytes(), 10);
    }

    #[test]
    fn oversized_segment_spills_directly_without_evicting() {
        let store = ShuffleStore::new(1, 2, 16);
        store.publish(0, vec![(0, vec![1u8; 8])]).unwrap();
        store.publish(1, vec![(0, vec![2u8; 64])]).unwrap();
        assert_eq!(store.spilled_bytes(), 64);
        assert_eq!(store.mem_high_water(), 8);
        assert!(matches!(
            store.segment_when_ready(0, 0).unwrap().map(|h| h.repr),
            Some(SegmentRepr::Mem(_))
        ));
        let big = store.segment_when_ready(0, 1).unwrap().unwrap();
        assert_eq!(big.to_vec().unwrap(), vec![2u8; 64]);
    }

    #[cfg(unix)]
    #[test]
    fn spill_files_are_unlinked_while_the_store_serves_them() {
        use std::os::unix::fs::MetadataExt;
        let store = ShuffleStore::new(2, 2, 0);
        store.publish(0, vec![(0, b"first".to_vec())]).unwrap();
        store
            .publish(1, vec![(0, b"second".to_vec()), (1, b"third".to_vec())])
            .unwrap();
        for (partition, task, bytes) in [(0, 0, &b"first"[..]), (0, 1, b"second"), (1, 1, b"third")]
        {
            let seg = store.segment_when_ready(partition, task).unwrap().unwrap();
            let SegmentRepr::Spilled(h) = &seg.repr else {
                panic!("a budget-0 store spills every segment");
            };
            assert_eq!(
                h.file.metadata().unwrap().nlink(),
                0,
                "a name is left behind"
            );
            assert_eq!(seg.to_vec().unwrap(), bytes);
        }
    }

    #[test]
    fn spilled_handles_survive_release() {
        let store = ShuffleStore::new(1, 1, 0);
        store.publish(0, vec![(0, b"first".to_vec())]).unwrap();
        let handle = store.segment_when_ready(0, 0).unwrap().unwrap();
        // The commit drops the store's descriptor; the handle keeps the
        // file open.
        store.release(0);
        assert!(store.lock_state().spill[0].is_none());
        assert_eq!(handle.to_vec().unwrap(), b"first");
    }

    #[test]
    fn lz_store_serves_logical_bytes_and_budgets_stored_bytes() {
        let raw = ShuffleStore::new(1, 2, usize::MAX);
        let lzs = ShuffleStore::new_with_codec(1, 2, usize::MAX, WireCodec::Lz);
        // Compressible segment and an incompressible one.
        let compressible: Vec<u8> = (0..4000u32).flat_map(|i| (i % 13).to_le_bytes()).collect();
        let mut x = 0x1234_5678_9abc_def0u64;
        let random: Vec<u8> = (0..2000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for store in [&raw, &lzs] {
            store.publish(0, vec![(0, compressible.clone())]).unwrap();
            store.publish(1, vec![(0, random.clone())]).unwrap();
        }
        // Logical volume is codec-independent.
        assert_eq!(lzs.total_bytes(), raw.total_bytes());
        assert!(lzs.compress_nanos() > 0);
        assert_eq!(raw.compress_nanos(), 0);

        let seg = lzs.segment_when_ready(0, 0).unwrap().unwrap();
        assert!(seg.is_comp(), "repetitive segment compresses");
        assert!(seg.len() < compressible.len(), "stored bytes shrank");
        assert_eq!(seg.logical_len(), compressible.len());
        assert_eq!(seg.logical_vec().unwrap(), compressible);
        // The stored bytes really are an lz frame.
        assert_eq!(
            lz::decompress(&seg.to_vec().unwrap()).unwrap(),
            compressible
        );

        let seg = lzs.segment_when_ready(0, 1).unwrap().unwrap();
        assert!(!seg.is_comp(), "incompressible segment stays raw");
        assert_eq!(seg.to_vec().unwrap(), random);
        assert_eq!(seg.logical_vec().unwrap(), random);
    }

    #[test]
    fn lz_store_spills_compressed_bytes_and_roundtrips() {
        let store = ShuffleStore::new_with_codec(1, 1, 0, WireCodec::Lz);
        let data: Vec<u8> = (0..5000u32).flat_map(|i| (i % 7).to_le_bytes()).collect();
        store.publish(0, vec![(0, data.clone())]).unwrap();
        // The spill file holds the compressed frame, not logical bytes.
        assert!(store.spilled_bytes() < data.len() as u64);
        assert_eq!(store.total_bytes(), data.len() as u64);
        let seg = store.segment_when_ready(0, 0).unwrap().unwrap();
        assert!(seg.is_comp());
        assert!(matches!(seg.repr, SegmentRepr::Spilled(_)));
        assert_eq!(seg.logical_vec().unwrap(), data);
    }

    #[test]
    fn a_publish_whose_spill_write_fails_leaves_a_clean_row_for_the_retry() {
        // Partition 2's spill file is open read-only, so the first
        // publish admits its 8-byte segment, spills the first 20-byte
        // one and then fails to spill the second.
        let store = ShuffleStore::new(3, 1, 10);
        let path = std::env::temp_dir().join(format!(
            "scihadoop-jammed-{}-{}.dat",
            std::process::id(),
            STORE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        File::create(&path).unwrap();
        let read_only = File::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        store.lock_state().spill[2] = Some(SpillFile {
            file: Arc::new(read_only),
            len: 0,
        });
        let outputs = || vec![(0, vec![1u8; 8]), (1, vec![2u8; 20]), (2, vec![3u8; 20])];
        let err = store.publish(0, outputs()).unwrap_err();
        assert!(err.to_string().contains("spill write"), "{err}");
        {
            let state = store.lock_state();
            assert!(state.slots.iter().all(|row| row[0].is_none()));
            assert_eq!(state.mem_used, 0, "the admitted segment was returned");
            assert!(!state.done[0]);
        }
        assert_eq!(store.spilled_bytes(), 0, "no published segment was spilled");
        // The disk recovers (a fresh file); the retried attempt lands.
        store.lock_state().spill[2] = None;
        store.publish(0, outputs()).unwrap();
        for (partition, data) in outputs() {
            assert_eq!(fetch_all(&store, partition, 1), vec![data]);
        }
        assert_eq!(store.lock_state().mem_used, 8);
        assert_eq!(store.spilled_bytes(), 40);
        assert_eq!(store.total_bytes(), 48);
    }

    #[test]
    fn publish_refuses_a_repeated_or_unknown_partition_before_touching_a_slot() {
        let store = ShuffleStore::new(2, 2, 100);
        store.publish(0, vec![(1, vec![1u8; 10])]).unwrap();
        for outputs in [
            vec![(0, vec![2u8; 10]), (0, vec![3u8; 10])],
            vec![(0, vec![2u8; 10]), (2, vec![4u8; 10])],
        ] {
            let err = store.publish(1, outputs).unwrap_err();
            assert!(
                matches!(&err, MrError::Net(e) if e.contains("partition")),
                "{err}"
            );
            assert_eq!(store.lock_state().mem_used, 10);
            assert_eq!(store.total_bytes(), 10);
        }
        // A refused publish leaves the task free to publish.
        store.publish(1, vec![(0, vec![2u8; 10])]).unwrap();
        assert_eq!(store.lock_state().mem_used, 20);
        store.release(0);
        store.release(1);
        assert_eq!(store.lock_state().mem_used, 0, "the budget is whole again");
    }
}
