//! Records, input splits, and the user-function traits.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// Bytes a [`Bytes`] holds without touching the allocator: a 2-D
/// indexed grid key (12 B), a 3-D one (16 B) and any 4-byte value fit;
/// a 3-D `Named` key (23 B), an aggregate key (28 B) and a packed run of
/// cell values do not.
pub const INLINE_BYTES: usize = 22;

/// Byte storage. Strings of up to [`INLINE_BYTES`] are always `Inline`,
/// so building, cloning and dropping one costs no allocation.
/// `Box<[u8]>` rather than `Vec<u8>` keeps the whole string at 24 bytes,
/// the size of the `Vec` it replaced.
#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [u8; INLINE_BYTES] },
    Heap(Box<[u8]>),
}

/// An immutable byte string: one record key or value.
///
/// Equality, ordering, hashing and `Debug` are those of the byte slice,
/// so a [`KvPair`] sorts, hashes and prints as it did over `Vec<u8>`.
#[derive(Clone)]
pub struct Bytes(Repr);

impl Bytes {
    /// The bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(b) => b,
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::from(&[][..])
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<&[u8]> for Bytes {
    #[inline]
    fn from(v: &[u8]) -> Self {
        if v.len() <= INLINE_BYTES {
            let mut buf = [0; INLINE_BYTES];
            buf[..v.len()].copy_from_slice(v);
            Bytes(Repr::Inline {
                len: v.len() as u8,
                buf,
            })
        } else {
            Bytes(Repr::Heap(v.into()))
        }
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(v: &[u8; N]) -> Self {
        Bytes::from(&v[..])
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        if v.len() <= INLINE_BYTES {
            Bytes::from(v.as_slice())
        } else {
            Bytes(Repr::Heap(v.into_boxed_slice()))
        }
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Self {
        match b.0 {
            Repr::Inline { len, buf } => buf[..len as usize].to_vec(),
            Repr::Heap(b) => b.into_vec(),
        }
    }
}

impl PartialEq for Bytes {
    #[inline]
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    #[inline]
    fn cmp(&self, other: &Bytes) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

/// One key/value pair, both raw byte strings (Hadoop serializes keys the
/// moment they are emitted — §II-B assumption *b* — and this engine keeps
/// that behaviour so the paper's byte accounting is honest).
#[derive(Debug, Default, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KvPair {
    /// Serialized key.
    pub key: Bytes,
    /// Serialized value.
    pub value: Bytes,
}

// Two `Vec`-sized strings: the pair is no bigger than it was over `Vec<u8>`.
const _: () = assert!(std::mem::size_of::<KvPair>() == 48);

impl KvPair {
    /// Construct a pair.
    pub fn new(key: impl Into<Bytes>, value: impl Into<Bytes>) -> Self {
        KvPair {
            key: key.into(),
            value: value.into(),
        }
    }

    /// Serialized payload size (key + value, no framing).
    pub fn payload_len(&self) -> usize {
        self.key.len() + self.value.len()
    }
}

/// One mapper's input: a batch of records (the engine's analogue of an
/// HDFS block + `RecordReader`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InputSplit {
    /// The records of this split.
    pub records: Vec<KvPair>,
}

impl InputSplit {
    /// A split over the given records.
    pub fn new(records: Vec<KvPair>) -> Self {
        InputSplit { records }
    }

    /// Total payload bytes.
    pub fn bytes(&self) -> u64 {
        self.records.iter().map(|r| r.payload_len() as u64).sum()
    }
}

/// Emission sink handed to map/reduce functions.
pub trait Emit {
    /// Emit one key/value pair.
    fn emit(&mut self, key: &[u8], value: &[u8]);
}

impl<F: FnMut(&[u8], &[u8])> Emit for F {
    fn emit(&mut self, key: &[u8], value: &[u8]) {
        self(key, value)
    }
}

/// The user map function, shared by every task of a job.
pub trait Mapper: Send + Sync {
    /// A fresh task for one map attempt, which the engine feeds every
    /// record of the split and then finishes: Hadoop's one Mapper object
    /// per task. State the task owns (e.g. the §IV aggregation library's
    /// buffer) lives exactly as long as the attempt, so what a failed
    /// attempt held is dropped with it. The default maps through `self`:
    /// [`Mapper::map`] per record, then [`Mapper::finish`].
    fn task(&self) -> Box<dyn MapTask + '_> {
        Box::new(Through(self))
    }

    /// Called once per input record by the default task.
    fn map(&self, key: &[u8], value: &[u8], out: &mut dyn Emit);

    /// Called once after the last record by the default task.
    fn finish(&self, _out: &mut dyn Emit) {}
}

/// One map attempt's state, built by [`Mapper::task`].
pub trait MapTask {
    /// Called once per input record.
    fn map(&mut self, key: &[u8], value: &[u8], out: &mut dyn Emit);

    /// Called once after the last record, so user-level buffering can
    /// flush. An attempt that fails is dropped without it.
    fn finish(self: Box<Self>, _out: &mut dyn Emit) {}
}

/// The default [`Mapper::task`]: the mapper's own functions.
struct Through<'a, M: ?Sized>(&'a M);

impl<M: Mapper + ?Sized> MapTask for Through<'_, M> {
    fn map(&mut self, key: &[u8], value: &[u8], out: &mut dyn Emit) {
        self.0.map(key, value, out)
    }

    fn finish(self: Box<Self>, out: &mut dyn Emit) {
        self.0.finish(out)
    }
}

/// The user reduce function. Also used for combiners.
pub trait Reducer: Send + Sync {
    /// Called once per key group with all values for that key.
    fn reduce(&self, key: &[u8], values: &[&[u8]], out: &mut dyn Emit);
}

/// Adapter: build a [`Mapper`] from a plain function.
pub struct FnMapper<F>(pub F);

impl<F> Mapper for FnMapper<F>
where
    F: Fn(&[u8], &[u8], &mut dyn Emit) + Send + Sync,
{
    fn map(&self, key: &[u8], value: &[u8], out: &mut dyn Emit) {
        (self.0)(key, value, out)
    }
}

/// Adapter: build a [`Reducer`] from a plain function.
pub struct FnReducer<F>(pub F);

impl<F> Reducer for FnReducer<F>
where
    F: Fn(&[u8], &[&[u8]], &mut dyn Emit) + Send + Sync,
{
    fn reduce(&self, key: &[u8], values: &[&[u8]], out: &mut dyn Emit) {
        (self.0)(key, values, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    /// Byte strings on both sides of the inline bound, the bound itself
    /// included, and well past it.
    fn byte_string() -> impl Strategy<Value = Vec<u8>> {
        let len = prop_oneof![
            Just(0usize),
            Just(1),
            Just(INLINE_BYTES - 1),
            Just(INLINE_BYTES),
            Just(INLINE_BYTES + 1),
            0usize..300,
        ];
        // A small alphabet, so that equal strings and shared prefixes
        // turn up.
        (len, proptest::collection::vec(0u8..3, 300)).prop_map(|(n, bytes)| bytes[..n].to_vec())
    }

    proptest! {
        #[test]
        fn bytes_behave_exactly_as_the_vec_they_replace(a in byte_string(), b in byte_string()) {
            let (x, y) = (Bytes::from(a.as_slice()), Bytes::from(b.clone()));
            prop_assert_eq!(Vec::from(x.clone()), a.clone());
            prop_assert_eq!(Vec::from(y.clone()), b.clone());
            prop_assert_eq!(Bytes::from(a.clone()), x.clone());
            prop_assert_eq!(x.to_vec(), a.clone());
            prop_assert_eq!(x.len(), a.len());
            prop_assert!(x == a);
            prop_assert!(a == x);
            prop_assert!(x == *a.as_slice());
            prop_assert!(*a.as_slice() == x);
            prop_assert_eq!(x == y, a == b);
            prop_assert_eq!(x.cmp(&y), a.cmp(&b));
            prop_assert_eq!(hash_of(&x), hash_of(&a));
            prop_assert_eq!(format!("{x:?}"), format!("{a:?}"));
            // A pair orders and hashes as it did over two `Vec<u8>`s.
            let (p, q) = (KvPair::new(x.clone(), y.clone()), KvPair::new(y, x));
            prop_assert_eq!(p.cmp(&q), (&a, &b).cmp(&(&b, &a)));
            prop_assert_eq!(hash_of(&p), hash_of(&(&a, &b)));
        }
    }

    #[test]
    fn short_strings_stay_inline_and_long_ones_take_one_heap_block() {
        let at_bound = Bytes::from(&[7u8; INLINE_BYTES]);
        assert!(matches!(at_bound.0, Repr::Inline { .. }));
        let past = Bytes::from(vec![7u8; INLINE_BYTES + 1]);
        assert!(matches!(past.0, Repr::Heap(_)));
        assert!(matches!(Bytes::default().0, Repr::Inline { len: 0, .. }));
    }

    #[test]
    fn kvpair_sizes() {
        let p = KvPair::new(b"key".to_vec(), b"value".to_vec());
        assert_eq!(p.payload_len(), 8);
        let split = InputSplit::new(vec![p.clone(), p]);
        assert_eq!(split.bytes(), 16);
    }

    #[test]
    fn fn_adapters_work() {
        let m = FnMapper(|k: &[u8], v: &[u8], out: &mut dyn Emit| {
            out.emit(v, k); // swap
        });
        let mut collected = Vec::new();
        m.map(b"a", b"b", &mut |k: &[u8], v: &[u8]| {
            collected.push(KvPair::new(k.to_vec(), v.to_vec()));
        });
        assert_eq!(collected, vec![KvPair::new(b"b".to_vec(), b"a".to_vec())]);

        let r = FnReducer(|key: &[u8], values: &[&[u8]], out: &mut dyn Emit| {
            let total: usize = values.iter().map(|v| v.len()).sum();
            out.emit(key, &total.to_be_bytes());
        });
        let mut collected = Vec::new();
        r.reduce(b"k", &[b"aa", b"bbb"], &mut |k: &[u8], v: &[u8]| {
            collected.push(KvPair::new(k.to_vec(), v.to_vec()));
        });
        assert_eq!(collected[0].value, 5usize.to_be_bytes().to_vec());
    }

    #[test]
    fn mapper_finish_default_is_noop() {
        struct Nop;
        impl Mapper for Nop {
            fn map(&self, _: &[u8], _: &[u8], _: &mut dyn Emit) {}
        }
        let mut emitted = 0usize;
        Nop.finish(&mut |_: &[u8], _: &[u8]| emitted += 1);
        assert_eq!(emitted, 0);
    }
}
