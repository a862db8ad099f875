//! Length-prefixed frame protocol between the coordinator's shuffle
//! service and worker processes.
//!
//! Every frame is `u32` little-endian payload length, then the payload:
//! one tag byte followed by the message's fields in table order. All
//! integers are little-endian and all byte strings are
//! `u32`-length-prefixed. The protocol is strictly structural — no text,
//! no negotiation — because both ends are the *same binary* (workers are
//! re-executions of the coordinator's executable), so schema version
//! skew cannot happen within one job.
//!
//! Segment payloads cross the wire verbatim, CRC-32C trailer included;
//! the receiving worker re-verifies the trailer when it opens the
//! segment ([`crate::ifile::RawSegment::open`]), which is what lets the
//! fault plan's wire-level corruption be *detected* rather than
//! silently reduced over.
//!
//! Twelve messages cross. No fault decision does: the scheduler makes
//! them all in the coordinator, so a finished attempt's frame carries
//! the attempt's one counter bank and nothing else of the fault plan.
use crate::counters::{CounterSnapshot, Counters, ALL_COUNTERS, NUM_COUNTERS};
use crate::error::MrError;
use crate::record::{InputSplit, KvPair};
use std::io::{Read, Write};
use std::sync::Arc;

/// Upper bound on one frame's payload; anything larger is a corrupt
/// length prefix. Frames carry one map-output segment, one fetched
/// segment, one input split, or one reducer's output. Every fetched
/// segment fits in one `FetchSegment` frame because it arrived in one
/// `MapSegment` frame under this same cap: `FetchSegment`'s header
/// (6 bytes) is smaller than `MapSegment`'s (9), the stored bytes are no
/// larger than the logical ones, and a corrupted copy is no larger than
/// its original.
pub(super) const MAX_FRAME_BYTES: usize = 256 << 20;

/// The payload buffer of an incoming frame starts no larger than this
/// and then doubles with the bytes that have actually arrived: a forged
/// length prefix must not size an allocation.
const PAYLOAD_PREALLOC: usize = 1 << 20;

/// The one table of messages: each row is a variant, its tag byte and
/// its fields in wire order. It generates [`Msg`], `Msg::name`, the
/// encoder and the bounded decoder; each field type's rule is its
/// [`Field`] impl.
macro_rules! messages {
    ($(
        $(#[$doc:meta])*
        $variant:ident = $tag:literal $({ $($field:ident: $ty:ty),* $(,)? })?;
    )*) => {
        /// Every message either side can send. See the module docs of
        /// [`crate::dist`] for who sends what when.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub(crate) enum Msg {
            $($(#[$doc])* $variant $({ $($field: $ty),* })?,)*
        }

        impl Msg {
            /// Short name for protocol-violation errors.
            pub(crate) fn name(&self) -> &'static str {
                match self {
                    $(Msg::$variant { .. } => stringify!($variant),)*
                }
            }

            /// Append the tag byte and the fields.
            fn encode_into(&self, buf: &mut Vec<u8>) {
                match self {
                    $(Msg::$variant $({ $($field),* })? => {
                        buf.push($tag);
                        $($(Field::put($field, buf);)*)?
                    })*
                }
            }

            fn decode(payload: &[u8]) -> Result<Msg, MrError> {
                let mut r = Reader::new(payload);
                let [tag] = r.array()?;
                let msg = match tag {
                    $($tag => Msg::$variant $({ $($field: Field::get(&mut r)?),* })?,)*
                    other => {
                        return Err(MrError::Net(format!("unknown wire message tag {other}")))
                    }
                };
                r.finish(msg.name())?;
                Ok(msg)
            }
        }

        #[cfg(test)]
        impl Msg {
            /// Every tag the table lists, in row order.
            const TAGS: &[u8] = &[$($tag),*];

            /// One message per row, in row order, its fields drawn from
            /// `src`.
            pub(super) fn one_of_each(src: &mut tests::Source) -> Vec<Msg> {
                vec![$(Msg::$variant $({ $($field: src.draw()),* })?,)*]
            }
        }
    };
}

messages! {
    /// Worker → coordinator, once per connection.
    Hello = 1 { worker: u32 };
    /// Worker → coordinator: ready for the next task.
    TaskRequest = 2;
    /// Coordinator → worker: run one map attempt over the carried split,
    /// which the coordinator shares with its task queue rather than
    /// copies.
    MapTask = 3 { task: u32, attempt: u32, split: Arc<InputSplit> };
    /// Worker → coordinator: one finished map-output segment.
    MapSegment = 4 { partition: u32, data: Vec<u8> };
    /// Worker → coordinator: the map attempt succeeded. `local` is the
    /// attempt-local counter bank, absorbed only now, preserving the
    /// retry-counter semantics. Boxed, as in `ReduceDone`, so that a bank
    /// does not size every message.
    MapDone = 5 { task: u32, attempt: u32, local: Box<CounterSnapshot> };
    /// Coordinator → worker: run one reduce attempt. The partition's
    /// segments follow at once.
    ReduceTask = 6 { task: u32, attempt: u32 };
    /// Coordinator → worker: the partition's next segment (canonical
    /// map-task order), whole, as the store holds it. `comp` marks an lz
    /// frame the worker inflates before the segment CRC check; the frame
    /// carries its own length and a CRC over the wire bytes, so
    /// corruption of a compressed stream is caught before inflation.
    /// `data` shares a resident segment's bytes with the store, so they
    /// are copied once, into the outgoing frame.
    FetchSegment = 8 { comp: bool, data: Arc<Vec<u8>> };
    /// Coordinator → worker: the fetch stream is complete; `count`
    /// segments were sent.
    SegmentsDone = 9 { count: u32 };
    /// Coordinator → worker: in place of a segment the store could not
    /// serve (its spill read failed); the worker fails the attempt.
    FetchFailed = 13 { checksum: bool, error: String };
    /// Worker → coordinator: the reduce attempt succeeded.
    ReduceDone = 10 {
        task: u32,
        attempt: u32,
        local: Box<CounterSnapshot>,
        outputs: Vec<KvPair>,
    };
    /// Worker → coordinator: a task attempt failed. `checksum` carries
    /// [`MrError::is_checksum`] across the process boundary so the
    /// coordinator counts detected corruption exactly like the local
    /// runner; the structured error collapses to its display string.
    TaskFailed = 11 {
        task: u32,
        attempt: u32,
        reduce: bool,
        checksum: bool,
        error: String,
    };
    /// Coordinator → worker: no more work (job complete or aborted).
    Shutdown = 12;
}

/// How one field type is written into a payload and read back out of
/// one. Reads are bounds-checked: no number the peer chose sizes an
/// allocation before the bytes behind it are known to be there.
trait Field: Sized {
    fn put(&self, buf: &mut Vec<u8>);
    fn get(r: &mut Reader<'_>) -> Result<Self, MrError>;
}

impl Field for u32 {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, MrError> {
        Ok(u32::from_le_bytes(r.array()?))
    }
}

impl Field for bool {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, MrError> {
        let [byte] = r.array()?;
        Ok(byte != 0)
    }
}

impl<T: Field> Field for Box<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        (**self).put(buf);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, MrError> {
        T::get(r).map(Box::new)
    }
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    (b.len() as u32).put(buf);
    buf.extend_from_slice(b);
}

impl Field for Vec<u8> {
    fn put(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, MrError> {
        Ok(r.bytes()?.to_vec())
    }
}

impl Field for Arc<Vec<u8>> {
    fn put(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, MrError> {
        Vec::get(r).map(Arc::new)
    }
}

impl Field for String {
    fn put(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self.as_bytes());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, MrError> {
        Ok(String::from_utf8_lossy(&Vec::get(r)?).into_owned())
    }
}

impl Field for Vec<KvPair> {
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        for pair in self {
            put_bytes(buf, &pair.key);
            put_bytes(buf, &pair.value);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, MrError> {
        let n = u32::get(r)? as usize;
        // Each record needs two u32 length prefixes: a count the rest of
        // the frame cannot hold is forged, and must not size the vector.
        let remaining = r.buf.len() - r.pos;
        if n > remaining / 8 {
            return Err(MrError::Net(format!(
                "frame announces {n} records in {remaining} bytes"
            )));
        }
        // Each key and value is read straight out of the frame: one that
        // fits inline costs no allocation.
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            let key = r.bytes()?;
            let value = r.bytes()?;
            records.push(KvPair::new(key, value));
        }
        Ok(records)
    }
}

impl Field for Arc<InputSplit> {
    fn put(&self, buf: &mut Vec<u8>) {
        self.records.put(buf);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, MrError> {
        Vec::get(r).map(|records| Arc::new(InputSplit::new(records)))
    }
}

impl Field for CounterSnapshot {
    fn put(&self, buf: &mut Vec<u8>) {
        (NUM_COUNTERS as u32).put(buf);
        for c in ALL_COUNTERS {
            buf.extend_from_slice(&self.get(c).to_le_bytes());
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, MrError> {
        let n = u32::get(r)? as usize;
        if n != NUM_COUNTERS {
            return Err(MrError::Net(format!(
                "counter bank of {n} slots, expected {NUM_COUNTERS} — \
                 coordinator and worker are different binaries"
            )));
        }
        let bank = Counters::new();
        for c in ALL_COUNTERS {
            let v = u64::from_le_bytes(r.array()?);
            if v > 0 {
                bank.add(c, v);
            }
        }
        Ok(bank.snapshot())
    }
}

/// Rebuild a failure the peer reported as a structured error. Only the
/// checksum distinction crosses the wire (it drives the corruption
/// counters and nothing else branches on the variant); the display
/// string carries the rest.
pub(crate) fn rebuild_error(checksum: bool, error: String) -> MrError {
    if checksum {
        MrError::Checksum(error)
    } else {
        MrError::TaskFailed(error)
    }
}

/// Encode one frame — length prefix and payload — refusing one whose
/// payload would exceed the cap before anything reaches a socket.
pub(crate) fn encode(msg: &Msg) -> Result<Vec<u8>, MrError> {
    encode_capped(msg, MAX_FRAME_BYTES)
}

fn encode_capped(msg: &Msg, cap: usize) -> Result<Vec<u8>, MrError> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(&[0u8; 4]);
    msg.encode_into(&mut buf);
    let len = buf.len() - 4;
    if len > cap {
        return Err(MrError::Net(format!(
            "outgoing {} frame of {len} bytes exceeds the {cap}-byte cap",
            msg.name()
        )));
    }
    if let Some(prefix) = buf.first_chunk_mut() {
        *prefix = (len as u32).to_le_bytes();
    }
    Ok(buf)
}

/// Write one frame. The length prefix and payload go down in a single
/// `write_all` so a frame is one contiguous write into the socket
/// buffer.
pub(crate) fn write_msg(w: &mut impl Write, msg: &Msg) -> Result<(), MrError> {
    w.write_all(&encode(msg)?)
        .map_err(|e| MrError::Net(format!("write {}: {e}", msg.name())))
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
        r.read_exact(payload.get_mut(at..).unwrap_or_default())
            .map_err(|e| MrError::Net(format!("read frame payload ({len} bytes): {e}")))?;
        at = payload.len();
        if at == len {
            break;
        }
        payload.resize(at + at.min(len - at), 0);
    }
    Msg::decode(&payload)
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
        let end = self.pos.checked_add(n);
        let slice = end.and_then(|end| self.buf.get(self.pos..end));
        let slice = slice.ok_or_else(|| {
            MrError::Net(format!(
                "frame underrun: need {n} bytes at offset {} of {}",
                self.pos,
                self.buf.len()
            ))
        })?;
        self.pos += n;
        Ok(slice)
    }

    /// A `u32`-length-prefixed byte string, borrowed from the payload.
    fn bytes(&mut self) -> Result<&'a [u8], MrError> {
        let len = u32::get(self)? as usize;
        self.take(len)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], MrError> {
        let mut bytes = [0u8; N];
        bytes.copy_from_slice(self.take(N)?);
        Ok(bytes)
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
pub(super) mod tests {
    use super::*;
    use crate::counters::Counter;
    use crate::record::Bytes;
    use proptest::prelude::*;

    /// Field values for the table's generated messages, drawn from a
    /// proptest-chosen byte string (zeros once it runs out), so shrinking
    /// the string shrinks every field.
    pub(in crate::dist) struct Source {
        pub(in crate::dist) bytes: Vec<u8>,
        pub(in crate::dist) at: usize,
    }

    impl Source {
        fn byte(&mut self) -> u8 {
            let b = self.bytes.get(self.at).copied().unwrap_or(0);
            self.at += 1;
            b
        }

        pub(super) fn draw<T: Draw>(&mut self) -> T {
            T::draw(self)
        }
    }

    pub(super) trait Draw {
        fn draw(src: &mut Source) -> Self;
    }

    impl Draw for u32 {
        fn draw(src: &mut Source) -> Self {
            u32::from_le_bytes(std::array::from_fn(|_| src.byte()))
        }
    }

    impl Draw for bool {
        fn draw(src: &mut Source) -> Self {
            src.byte() & 1 == 1
        }
    }

    impl Draw for Vec<u8> {
        fn draw(src: &mut Source) -> Self {
            let len = src.byte() % 48;
            (0..len).map(|_| src.byte()).collect()
        }
    }

    impl Draw for Arc<Vec<u8>> {
        fn draw(src: &mut Source) -> Self {
            Arc::new(src.draw())
        }
    }

    impl Draw for String {
        fn draw(src: &mut Source) -> Self {
            String::from_utf8_lossy(&src.draw::<Vec<u8>>()).into_owned()
        }
    }

    /// A record key or value: 0–47 bytes, so that both sides of the
    /// 22-byte inline bound are drawn.
    impl Draw for Bytes {
        fn draw(src: &mut Source) -> Self {
            Bytes::from(src.draw::<Vec<u8>>())
        }
    }

    impl Draw for Vec<KvPair> {
        fn draw(src: &mut Source) -> Self {
            let n = src.byte() % 4;
            (0..n)
                .map(|_| KvPair {
                    key: src.draw(),
                    value: src.draw(),
                })
                .collect()
        }
    }

    impl<T: Draw> Draw for Box<T> {
        fn draw(src: &mut Source) -> Self {
            Box::new(src.draw())
        }
    }

    impl Draw for Arc<InputSplit> {
        fn draw(src: &mut Source) -> Self {
            Arc::new(InputSplit::new(src.draw()))
        }
    }

    impl Draw for CounterSnapshot {
        fn draw(src: &mut Source) -> Self {
            let bank = Counters::new();
            for c in ALL_COUNTERS {
                if src.byte() & 3 == 0 {
                    let hi = u64::from(src.draw::<u32>());
                    bank.add(c, (hi << 32) | u64::from(src.draw::<u32>()));
                }
            }
            bank.snapshot()
        }
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(payload);
        wire
    }

    proptest! {
        #[test]
        fn every_message_in_the_table_roundtrips(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let msgs = Msg::one_of_each(&mut Source { bytes, at: 0 });
            prop_assert_eq!(msgs.len(), Msg::TAGS.len());
            for (msg, &tag) in msgs.iter().zip(Msg::TAGS) {
                let mut wire = Vec::new();
                write_msg(&mut wire, msg).unwrap();
                prop_assert_eq!(wire[4], tag, "{} is written under its table tag", msg.name());
                let mut cursor = &wire[..];
                prop_assert_eq!(&read_msg(&mut cursor).unwrap(), msg);
                prop_assert!(cursor.is_empty(), "frame fully consumed");
                // Every strict prefix of the payload is refused.
                for cut in 0..wire.len() - 4 {
                    prop_assert!(matches!(Msg::decode(&wire[4..4 + cut]), Err(MrError::Net(_))));
                }
            }
        }

        #[test]
        fn arbitrary_bytes_after_each_tag_decode_or_are_refused(
            row in 0..Msg::TAGS.len(),
            body in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let mut payload = vec![Msg::TAGS[row]];
            payload.extend_from_slice(&body);
            let decoded = read_msg(&mut &framed(&payload)[..]);
            prop_assert!(matches!(decoded, Ok(_) | Err(MrError::Net(_))), "{:?}", decoded);
        }
    }

    #[test]
    fn every_tag_the_table_does_not_list_is_refused() {
        let mut tags = Msg::TAGS.to_vec();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), Msg::TAGS.len(), "tags are unique");
        for tag in (0..=u8::MAX).filter(|t| !Msg::TAGS.contains(t)) {
            for payload in [vec![tag], vec![tag, 0, 0, 0, 0]] {
                let err = read_msg(&mut &framed(&payload)[..]).unwrap_err();
                assert!(
                    matches!(&err, MrError::Net(e) if e.contains("unknown wire message tag")),
                    "{tag}: {err}"
                );
            }
        }
    }

    #[test]
    fn several_frames_stream_back_to_back() {
        let mut wire = Vec::new();
        let reduce = Msg::ReduceTask {
            task: 1,
            attempt: 2,
        };
        write_msg(&mut wire, &Msg::TaskRequest).unwrap();
        write_msg(&mut wire, &reduce).unwrap();
        write_msg(&mut wire, &Msg::Shutdown).unwrap();
        let mut cursor = &wire[..];
        assert_eq!(read_msg(&mut cursor).unwrap(), Msg::TaskRequest);
        assert_eq!(read_msg(&mut cursor).unwrap(), reduce);
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

        // Oversized length prefix.
        let huge = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        assert!(matches!(read_msg(&mut &huge[..]), Err(MrError::Net(_))));

        // Trailing garbage after a fixed-size body: TaskRequest's tag
        // and two stray bytes.
        let err = read_msg(&mut &framed(&[2u8, 9, 9])[..]).unwrap_err();
        assert!(err.to_string().contains("2 trailing bytes"), "{err}");
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

        // Write side: a frame exactly at the cap encodes; one byte more
        // is rejected before anything hits the socket.
        let at_cap = encode_capped(&msg(100), cap).unwrap();
        let err = encode_capped(&msg(101), cap).unwrap_err();
        assert!(err.to_string().contains("exceeds the"), "{err}");

        // Read side: the at-cap frame parses under the same cap; under
        // a cap one byte smaller its length prefix is rejected.
        assert_eq!(read_capped(&mut &at_cap[..], cap).unwrap(), msg(100));
        let err = read_capped(&mut &at_cap[..], cap - 1).unwrap_err();
        assert!(err.to_string().contains("frame length"), "{err}");

        // A fetched segment's header is smaller than a map segment's,
        // so whatever arrived as a MapSegment leaves as one FetchSegment.
        let fetched = Msg::FetchSegment {
            comp: false,
            data: Arc::new(vec![7u8; 100]),
        };
        assert_eq!(
            encode_capped(&fetched, cap).unwrap().len(),
            at_cap.len() - 3
        );
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
        // MapTask: tag, task, attempt, then a count with nothing behind it.
        let mut map_task = vec![3u8];
        for v in [0u32, 0, u32::MAX] {
            v.put(&mut map_task);
        }
        // ReduceDone: tag, task, attempt, counter bank, a count one past
        // what the single empty record behind it could back.
        let mut reduce_done = vec![10u8];
        0u32.put(&mut reduce_done);
        0u32.put(&mut reduce_done);
        Counters::new().snapshot().put(&mut reduce_done);
        2u32.put(&mut reduce_done);
        reduce_done.extend_from_slice(&[0u8; 8]);
        for body in [map_task, reduce_done] {
            let err = read_msg(&mut &framed(&body)[..]).unwrap_err();
            assert!(err.to_string().contains("records in"), "{err}");
        }
    }

    #[test]
    fn counter_bank_size_mismatch_is_detected() {
        let mut buf = vec![5u8]; // MapDone tag
        0u32.put(&mut buf); // task
        0u32.put(&mut buf); // attempt
        3u32.put(&mut buf); // wrong bank size
        buf.extend_from_slice(&[1u8; 24]);
        let err = read_msg(&mut &framed(&buf)[..]).unwrap_err();
        assert!(err.to_string().contains("counter bank"), "{err}");
        // A full bank survives the trip, extreme values included.
        let c = Counters::new();
        c.add(Counter::MapInputRecords, 7);
        c.add(Counter::ShuffleBytes, u64::MAX);
        let msg = Msg::MapDone {
            task: 1,
            attempt: 0,
            local: Box::new(c.snapshot()),
        };
        assert_eq!(read_msg(&mut &encode(&msg).unwrap()[..]).unwrap(), msg);
    }
}
