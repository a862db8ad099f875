//! Length-prefixed frame protocol between the coordinator's shuffle
//! service and worker processes.
//!
//! Every frame is `u32` little-endian payload length, then the payload:
//! one tag byte followed by the message body. All integers are
//! little-endian and all byte strings are `u32`-length-prefixed. The
//! protocol is strictly structural — no text, no negotiation — because
//! both ends are the *same binary* (workers are re-executions of the
//! coordinator's executable), so schema version skew cannot happen
//! within one job.
//!
//! Segment payloads cross the wire verbatim, CRC-32C trailer included;
//! the receiving worker re-verifies the trailer when it opens the
//! segment ([`crate::ifile::RawSegment::open`]), which is what lets the
//! fault plan's wire-level corruption be *detected* rather than
//! silently reduced over.

use crate::counters::{CounterSnapshot, Counters, ALL_COUNTERS, NUM_COUNTERS};
use crate::error::MrError;
use crate::record::{InputSplit, KvPair};
use std::io::{Read, Write};

/// Upper bound on one frame's payload. Frames carry at most one segment
/// chunk, one map-output segment, one input split, or one reducer's
/// output; anything larger is a corrupt length prefix.
pub(super) const MAX_FRAME_BYTES: usize = 256 << 20;

/// The payload buffer of an incoming frame starts no larger than this
/// and then doubles with the bytes that have actually arrived: a forged
/// length prefix must not size an allocation.
const PAYLOAD_PREALLOC: usize = 1 << 20;

/// Every message either side can send. See the module docs of
/// [`crate::dist`] for who sends what when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Msg {
    /// Worker → coordinator, once per connection.
    Hello { worker: u32 },
    /// Worker → coordinator: ready for the next task.
    TaskRequest,
    /// Coordinator → worker: run one map attempt over the carried split.
    MapTask {
        task: u32,
        attempt: u32,
        split: InputSplit,
    },
    /// Worker → coordinator: one finished map-output segment.
    MapSegment { partition: u32, data: Vec<u8> },
    /// Worker → coordinator: the map attempt succeeded. `local` is the
    /// attempt-local counter bank (absorbed only now, preserving the
    /// retry-counter semantics), `harness` the fault-injection charges.
    MapDone {
        task: u32,
        attempt: u32,
        local: CounterSnapshot,
        harness: CounterSnapshot,
    },
    /// Coordinator → worker: run one reduce attempt.
    ReduceTask { task: u32, attempt: u32 },
    /// Worker → coordinator: the reduce attempt passed its fault gate;
    /// stream this partition's segments.
    FetchStart,
    /// Coordinator → worker: one chunk of segment `index` (canonical
    /// map-task order); `last` closes the segment. `comp` marks the
    /// *segment* (not the chunk) as an lz frame the worker must
    /// decompress after reassembly; `orig_len` is the segment's
    /// uncompressed length (0 when `comp` is false), a pre-allocation
    /// hint and a cross-check against the lz frame's own header. The lz frame carries a CRC over the wire bytes, so
    /// corruption of a compressed stream is caught before inflation.
    SegChunk {
        index: u32,
        last: bool,
        comp: bool,
        orig_len: u32,
        data: Vec<u8>,
    },
    /// Coordinator → worker: the fetch stream is complete; `count`
    /// segments were sent.
    SegmentsDone { count: u32 },
    /// Worker → coordinator: the reduce attempt succeeded.
    ReduceDone {
        task: u32,
        attempt: u32,
        local: CounterSnapshot,
        harness: CounterSnapshot,
        outputs: Vec<KvPair>,
    },
    /// Worker → coordinator: a task attempt failed. `checksum` carries
    /// [`MrError::is_checksum`] across the process boundary so the
    /// coordinator counts detected corruption exactly like the local
    /// runner; the structured error collapses to its display string.
    TaskFailed {
        task: u32,
        attempt: u32,
        reduce: bool,
        checksum: bool,
        error: String,
        harness: CounterSnapshot,
    },
    /// Coordinator → worker: no more work (job complete or aborted).
    Shutdown,
}

impl Msg {
    fn tag(&self) -> u8 {
        match self {
            Msg::Hello { .. } => 1,
            Msg::TaskRequest => 2,
            Msg::MapTask { .. } => 3,
            Msg::MapSegment { .. } => 4,
            Msg::MapDone { .. } => 5,
            Msg::ReduceTask { .. } => 6,
            Msg::FetchStart => 7,
            Msg::SegChunk { .. } => 8,
            Msg::SegmentsDone { .. } => 9,
            Msg::ReduceDone { .. } => 10,
            Msg::TaskFailed { .. } => 11,
            Msg::Shutdown => 12,
        }
    }

    /// Short name for protocol-violation errors.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Msg::Hello { .. } => "Hello",
            Msg::TaskRequest => "TaskRequest",
            Msg::MapTask { .. } => "MapTask",
            Msg::MapSegment { .. } => "MapSegment",
            Msg::MapDone { .. } => "MapDone",
            Msg::ReduceTask { .. } => "ReduceTask",
            Msg::FetchStart => "FetchStart",
            Msg::SegChunk { .. } => "SegChunk",
            Msg::SegmentsDone { .. } => "SegmentsDone",
            Msg::ReduceDone { .. } => "ReduceDone",
            Msg::TaskFailed { .. } => "TaskFailed",
            Msg::Shutdown => "Shutdown",
        }
    }

    fn encode_body(&self, buf: &mut Vec<u8>) {
        match self {
            Msg::Hello { worker } => put_u32(buf, *worker),
            Msg::TaskRequest | Msg::FetchStart | Msg::Shutdown => {}
            Msg::MapTask {
                task,
                attempt,
                split,
            } => {
                put_u32(buf, *task);
                put_u32(buf, *attempt);
                put_pairs(buf, &split.records);
            }
            Msg::MapSegment { partition, data } => {
                put_u32(buf, *partition);
                put_bytes(buf, data);
            }
            Msg::MapDone {
                task,
                attempt,
                local,
                harness,
            } => {
                put_u32(buf, *task);
                put_u32(buf, *attempt);
                put_counters(buf, local);
                put_counters(buf, harness);
            }
            Msg::ReduceTask { task, attempt } => {
                put_u32(buf, *task);
                put_u32(buf, *attempt);
            }
            Msg::SegChunk {
                index,
                last,
                comp,
                orig_len,
                data,
            } => {
                put_u32(buf, *index);
                buf.push(u8::from(*last));
                buf.push(u8::from(*comp));
                put_u32(buf, *orig_len);
                put_bytes(buf, data);
            }
            Msg::SegmentsDone { count } => put_u32(buf, *count),
            Msg::ReduceDone {
                task,
                attempt,
                local,
                harness,
                outputs,
            } => {
                put_u32(buf, *task);
                put_u32(buf, *attempt);
                put_counters(buf, local);
                put_counters(buf, harness);
                put_pairs(buf, outputs);
            }
            Msg::TaskFailed {
                task,
                attempt,
                reduce,
                checksum,
                error,
                harness,
            } => {
                put_u32(buf, *task);
                put_u32(buf, *attempt);
                buf.push(u8::from(*reduce));
                buf.push(u8::from(*checksum));
                put_bytes(buf, error.as_bytes());
                put_counters(buf, harness);
            }
        }
    }

    fn decode(payload: &[u8]) -> Result<Msg, MrError> {
        let mut r = Reader::new(payload);
        let tag = r.u8()?;
        let msg = match tag {
            1 => Msg::Hello { worker: r.u32()? },
            2 => Msg::TaskRequest,
            3 => Msg::MapTask {
                task: r.u32()?,
                attempt: r.u32()?,
                split: InputSplit::new(r.pairs()?),
            },
            4 => Msg::MapSegment {
                partition: r.u32()?,
                data: r.bytes()?,
            },
            5 => Msg::MapDone {
                task: r.u32()?,
                attempt: r.u32()?,
                local: r.counters()?,
                harness: r.counters()?,
            },
            6 => Msg::ReduceTask {
                task: r.u32()?,
                attempt: r.u32()?,
            },
            7 => Msg::FetchStart,
            8 => Msg::SegChunk {
                index: r.u32()?,
                last: r.u8()? != 0,
                comp: r.u8()? != 0,
                orig_len: r.u32()?,
                data: r.bytes()?,
            },
            9 => Msg::SegmentsDone { count: r.u32()? },
            10 => Msg::ReduceDone {
                task: r.u32()?,
                attempt: r.u32()?,
                local: r.counters()?,
                harness: r.counters()?,
                outputs: r.pairs()?,
            },
            11 => Msg::TaskFailed {
                task: r.u32()?,
                attempt: r.u32()?,
                reduce: r.u8()? != 0,
                checksum: r.u8()? != 0,
                error: String::from_utf8_lossy(&r.bytes()?).into_owned(),
                harness: r.counters()?,
            },
            12 => Msg::Shutdown,
            other => {
                return Err(MrError::Net(format!("unknown wire message tag {other}")));
            }
        };
        r.finish(msg.name())?;
        Ok(msg)
    }
}

/// Write one frame. The length prefix and payload go down in a single
/// `write_all` so a frame is one contiguous write into the socket
/// buffer.
pub(crate) fn write_msg(w: &mut impl Write, msg: &Msg) -> Result<(), MrError> {
    write_capped(w, msg, MAX_FRAME_BYTES)
}

fn write_capped(w: &mut impl Write, msg: &Msg, cap: usize) -> Result<(), MrError> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(&[0u8; 4]);
    buf.push(msg.tag());
    msg.encode_body(&mut buf);
    let len = buf.len() - 4;
    if len > cap {
        return Err(MrError::Net(format!(
            "outgoing {} frame of {len} bytes exceeds the {cap}-byte cap",
            msg.name()
        )));
    }
    buf[..4].copy_from_slice(&(len as u32).to_le_bytes());
    w.write_all(&buf)
        .map_err(|e| MrError::Net(format!("write {}: {e}", msg.name())))
}

/// Encode a `SegChunk` frame into `buf` (cleared first), letting `fill`
/// write the payload bytes directly into the frame's data region — the
/// zero-copy serving path: a spilled segment is `pread` straight into
/// the wire frame with no intermediate `Vec`. The produced bytes are
/// identical to `write_msg(&Msg::SegChunk { .. })` for the same data
/// (pinned by a unit test); the caller owns the `write_all`, so one
/// frame buffer is reused across chunks.
pub(crate) fn encode_seg_chunk(
    buf: &mut Vec<u8>,
    index: u32,
    last: bool,
    comp: bool,
    orig_len: u32,
    payload_len: usize,
    fill: impl FnOnce(&mut [u8]) -> Result<(), MrError>,
) -> Result<(), MrError> {
    // Frame payload: tag + index + last + comp + orig_len + data length
    // + data.
    let frame_len = 1 + 4 + 1 + 1 + 4 + 4 + payload_len;
    if frame_len > MAX_FRAME_BYTES {
        return Err(MrError::Net(format!(
            "outgoing SegChunk frame of {frame_len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    buf.clear();
    buf.extend_from_slice(&[0u8; 4]);
    buf.push(8); // SegChunk tag
    put_u32(buf, index);
    buf.push(u8::from(last));
    buf.push(u8::from(comp));
    put_u32(buf, orig_len);
    put_u32(buf, payload_len as u32);
    let data_at = buf.len();
    buf.resize(data_at + payload_len, 0);
    fill(&mut buf[data_at..])?;
    buf[..4].copy_from_slice(&(frame_len as u32).to_le_bytes());
    Ok(())
}

/// Read one frame. A clean EOF before the length prefix reads as a
/// closed connection; anything else short is a protocol error.
pub(crate) fn read_msg(r: &mut impl Read) -> Result<Msg, MrError> {
    read_capped(r, MAX_FRAME_BYTES)
}

fn read_capped(r: &mut impl Read, cap: usize) -> Result<Msg, MrError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)
        .map_err(|e| MrError::Net(format!("read frame length: {e}")))?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 || len > cap {
        return Err(MrError::Net(format!(
            "frame length {len} outside (0, {cap}]"
        )));
    }
    // The peer chose `len`; only bytes that arrive grow the buffer. A
    // frame up to `PAYLOAD_PREALLOC` is one zeroed allocation and one
    // read; a larger one doubles as it fills — one reallocation's worth
    // of copying in total, and never more than twice the bytes received
    // plus the first step.
    let mut payload = vec![0u8; len.min(PAYLOAD_PREALLOC)];
    let mut at = 0;
    loop {
        r.read_exact(&mut payload[at..])
            .map_err(|e| MrError::Net(format!("read frame payload ({len} bytes): {e}")))?;
        at = payload.len();
        if at == len {
            break;
        }
        payload.resize(at + at.min(len - at), 0);
    }
    Msg::decode(&payload)
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

fn put_pairs(buf: &mut Vec<u8>, pairs: &[KvPair]) {
    put_u32(buf, pairs.len() as u32);
    for pair in pairs {
        put_bytes(buf, &pair.key);
        put_bytes(buf, &pair.value);
    }
}

fn put_counters(buf: &mut Vec<u8>, snap: &CounterSnapshot) {
    put_u32(buf, NUM_COUNTERS as u32);
    for c in ALL_COUNTERS {
        put_u64(buf, snap.get(c));
    }
}

/// Bounds-checked cursor over one frame payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], MrError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                MrError::Net(format!(
                    "frame underrun: need {n} bytes at offset {} of {}",
                    self.pos,
                    self.buf.len()
                ))
            })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, MrError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, MrError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, MrError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, MrError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn pairs(&mut self) -> Result<Vec<KvPair>, MrError> {
        let n = self.u32()? as usize;
        // Each record needs two u32 length prefixes: a count the rest of
        // the frame cannot hold is forged, and must not size the vector.
        let remaining = self.buf.len() - self.pos;
        if n > remaining / 8 {
            return Err(MrError::Net(format!(
                "frame announces {n} records in {remaining} bytes"
            )));
        }
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            let key = self.bytes()?;
            let value = self.bytes()?;
            records.push(KvPair { key, value });
        }
        Ok(records)
    }

    fn counters(&mut self) -> Result<CounterSnapshot, MrError> {
        let n = self.u32()? as usize;
        if n != NUM_COUNTERS {
            return Err(MrError::Net(format!(
                "counter bank of {n} slots, expected {NUM_COUNTERS} — \
                 coordinator and worker are different binaries"
            )));
        }
        let bank = Counters::new();
        for c in ALL_COUNTERS {
            let v = self.u64()?;
            if v > 0 {
                bank.add(c, v);
            }
        }
        Ok(bank.snapshot())
    }

    fn finish(self, name: &str) -> Result<(), MrError> {
        if self.pos != self.buf.len() {
            return Err(MrError::Net(format!(
                "{} frame has {} trailing bytes",
                name,
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counter;

    fn roundtrip(msg: Msg) {
        let mut wire = Vec::new();
        write_msg(&mut wire, &msg).unwrap();
        let mut cursor = &wire[..];
        let back = read_msg(&mut cursor).unwrap();
        assert_eq!(back, msg);
        assert!(cursor.is_empty(), "frame fully consumed");
    }

    fn sample_counters() -> CounterSnapshot {
        let c = Counters::new();
        c.add(Counter::MapInputRecords, 7);
        c.add(Counter::ShuffleBytes, u64::MAX);
        c.snapshot()
    }

    #[test]
    fn every_message_roundtrips() {
        roundtrip(Msg::Hello { worker: 3 });
        roundtrip(Msg::TaskRequest);
        roundtrip(Msg::MapTask {
            task: 1,
            attempt: 2,
            split: InputSplit::new(vec![
                KvPair::new(b"k".to_vec(), b"v".to_vec()),
                KvPair::new(Vec::new(), b"only-value".to_vec()),
            ]),
        });
        roundtrip(Msg::MapSegment {
            partition: 9,
            data: vec![0, 1, 2, 255],
        });
        roundtrip(Msg::MapDone {
            task: 1,
            attempt: 0,
            local: sample_counters(),
            harness: Counters::new().snapshot(),
        });
        roundtrip(Msg::ReduceTask {
            task: 0,
            attempt: 1,
        });
        roundtrip(Msg::FetchStart);
        roundtrip(Msg::SegChunk {
            index: 2,
            last: true,
            comp: false,
            orig_len: 0,
            data: vec![42; 100],
        });
        roundtrip(Msg::SegChunk {
            index: 0,
            last: true,
            comp: true,
            orig_len: 4096,
            data: vec![9; 60],
        });
        roundtrip(Msg::SegmentsDone { count: 5 });
        roundtrip(Msg::ReduceDone {
            task: 4,
            attempt: 1,
            local: sample_counters(),
            harness: sample_counters(),
            outputs: vec![KvPair::new(b"a".to_vec(), b"1".to_vec())],
        });
        roundtrip(Msg::TaskFailed {
            task: 2,
            attempt: 3,
            reduce: true,
            checksum: true,
            error: "segment checksum failure: crc".into(),
            harness: sample_counters(),
        });
        roundtrip(Msg::Shutdown);
    }

    #[test]
    fn several_frames_stream_back_to_back() {
        let mut wire = Vec::new();
        write_msg(&mut wire, &Msg::TaskRequest).unwrap();
        write_msg(&mut wire, &Msg::FetchStart).unwrap();
        write_msg(&mut wire, &Msg::Shutdown).unwrap();
        let mut cursor = &wire[..];
        assert_eq!(read_msg(&mut cursor).unwrap(), Msg::TaskRequest);
        assert_eq!(read_msg(&mut cursor).unwrap(), Msg::FetchStart);
        assert_eq!(read_msg(&mut cursor).unwrap(), Msg::Shutdown);
        assert!(read_msg(&mut cursor).is_err(), "EOF is a closed connection");
    }

    #[test]
    fn malformed_frames_error_not_panic() {
        // Truncated payload.
        let mut wire = Vec::new();
        write_msg(
            &mut wire,
            &Msg::MapSegment {
                partition: 0,
                data: vec![1; 50],
            },
        )
        .unwrap();
        wire.truncate(wire.len() - 10);
        assert!(matches!(read_msg(&mut &wire[..]), Err(MrError::Net(_))));

        // Unknown tag.
        let bogus = [1u8, 0, 0, 0, 200u8];
        assert!(matches!(read_msg(&mut &bogus[..]), Err(MrError::Net(_))));

        // Oversized length prefix.
        let huge = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        assert!(matches!(read_msg(&mut &huge[..]), Err(MrError::Net(_))));

        // Trailing garbage after a fixed-size body.
        let mut framed = Vec::new();
        let payload = [2u8, 9, 9]; // TaskRequest tag + 2 stray bytes
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&payload);
        assert!(matches!(read_msg(&mut &framed[..]), Err(MrError::Net(_))));
    }

    #[test]
    fn frame_cap_binds_exactly_on_both_sides() {
        // A MapSegment's payload is tag + partition + data length + data.
        let overhead = 1 + 4 + 4;
        let msg = |n: usize| Msg::MapSegment {
            partition: 0,
            data: vec![7u8; n],
        };
        let cap = overhead + 100;

        // Write side: a frame exactly at the cap goes out; one byte
        // more is rejected before anything hits the socket.
        let mut wire = Vec::new();
        write_capped(&mut wire, &msg(100), cap).unwrap();
        let at_cap = wire.clone();
        let err = write_capped(&mut Vec::new(), &msg(101), cap).unwrap_err();
        assert!(err.to_string().contains("exceeds the"), "{err}");

        // Read side: the at-cap frame parses under the same cap; under
        // a cap one byte smaller its length prefix is rejected.
        assert_eq!(read_capped(&mut &at_cap[..], cap).unwrap(), msg(100));
        let err = read_capped(&mut &at_cap[..], cap - 1).unwrap_err();
        assert!(err.to_string().contains("frame length"), "{err}");
    }

    /// Serves `bytes`, checking the decoder's buffer against what has
    /// arrived: the buffer is at least the delivered bytes plus the tail
    /// `read` is handed, and must stay within twice the delivered bytes
    /// plus `PAYLOAD_PREALLOC`.
    struct Metered<'a> {
        bytes: &'a [u8],
        delivered: usize,
        /// Largest overshoot of that bound seen, in bytes.
        worst_excess: isize,
    }

    impl Read for Metered<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let bound = self.delivered + PAYLOAD_PREALLOC;
            self.worst_excess = self.worst_excess.max(buf.len() as isize - bound as isize);
            let n = self.bytes.read(buf)?;
            self.delivered += n;
            Ok(n)
        }
    }

    fn metered(bytes: &[u8]) -> Metered<'_> {
        Metered {
            bytes,
            delivered: 0,
            worst_excess: isize::MIN,
        }
    }

    #[test]
    fn a_forged_length_prefix_never_sizes_the_payload_buffer() {
        // The largest legal prefix, then ten bytes, then EOF.
        let mut wire = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&[4u8; 10]);
        let mut r = metered(&wire);
        let err = read_msg(&mut r).unwrap_err();
        assert!(err.to_string().contains("read frame payload"), "{err}");
        assert!(r.worst_excess <= 0, "handed {} B too many", r.worst_excess);

        // A legitimate frame of several steps arrives whole under the
        // same bound.
        let msg = Msg::MapSegment {
            partition: 1,
            data: (0..5 * PAYLOAD_PREALLOC + 17).map(|i| i as u8).collect(),
        };
        let mut wire = Vec::new();
        write_msg(&mut wire, &msg).unwrap();
        let mut r = metered(&wire);
        assert_eq!(read_msg(&mut r).unwrap(), msg);
        assert!(r.worst_excess <= 0, "handed {} B too many", r.worst_excess);
    }

    #[test]
    fn a_forged_record_count_is_rejected_before_it_sizes_a_vector() {
        let framed = |body: &[u8]| {
            let mut wire = (body.len() as u32).to_le_bytes().to_vec();
            wire.extend_from_slice(body);
            wire
        };
        // MapTask: tag, task, attempt, then a count with nothing behind it.
        let mut map_task = vec![3u8];
        for v in [0u32, 0, u32::MAX] {
            put_u32(&mut map_task, v);
        }
        // ReduceDone: tag, task, attempt, two counter banks, a count one
        // past what the single empty record behind it could back.
        let mut reduce_done = vec![10u8];
        put_u32(&mut reduce_done, 0);
        put_u32(&mut reduce_done, 0);
        put_counters(&mut reduce_done, &Counters::new().snapshot());
        put_counters(&mut reduce_done, &Counters::new().snapshot());
        put_u32(&mut reduce_done, 2);
        reduce_done.extend_from_slice(&[0u8; 8]);
        for body in [map_task, reduce_done] {
            let err = read_msg(&mut &framed(&body)[..]).unwrap_err();
            assert!(err.to_string().contains("records in"), "{err}");
        }
    }

    #[test]
    fn encode_seg_chunk_matches_write_msg_byte_for_byte() {
        for (len, last, comp, orig_len) in [
            (0usize, true, false, 0u32),
            (100, false, false, 0),
            (100, true, false, 0),
            (100, true, true, 5000),
        ] {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut via_msg = Vec::new();
            write_msg(
                &mut via_msg,
                &Msg::SegChunk {
                    index: 3,
                    last,
                    comp,
                    orig_len,
                    data: data.clone(),
                },
            )
            .unwrap();
            let mut via_fill = Vec::new();
            encode_seg_chunk(&mut via_fill, 3, last, comp, orig_len, len, |buf| {
                buf.copy_from_slice(&data);
                Ok(())
            })
            .unwrap();
            assert_eq!(via_msg, via_fill, "len={len} last={last} comp={comp}");
        }
        // The cap applies to the whole frame, including headers, and is
        // checked before the frame is sized.
        let mut frame = Vec::new();
        let err = encode_seg_chunk(&mut frame, 0, true, false, 0, MAX_FRAME_BYTES, |_| Ok(()))
            .unwrap_err();
        assert!(err.to_string().contains("exceeds the"), "{err}");
        assert_eq!(frame.capacity(), 0);
    }

    #[test]
    fn counter_bank_size_mismatch_is_detected() {
        let mut buf = Vec::new();
        buf.push(5u8); // MapDone tag
        put_u32(&mut buf, 0); // task
        put_u32(&mut buf, 0); // attempt
        put_u32(&mut buf, 3); // wrong bank size
        for _ in 0..3 {
            put_u64(&mut buf, 1);
        }
        let mut framed = Vec::new();
        framed.extend_from_slice(&(buf.len() as u32).to_le_bytes());
        framed.extend_from_slice(&buf);
        let err = read_msg(&mut &framed[..]).unwrap_err();
        assert!(err.to_string().contains("counter bank"), "{err}");
    }
}
