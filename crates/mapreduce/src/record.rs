//! Records, input splits, and the user-function traits.

/// One key/value pair, both raw byte strings (Hadoop serializes keys the
/// moment they are emitted — §II-B assumption *b* — and this engine keeps
/// that behaviour so the paper's byte accounting is honest).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KvPair {
    /// Serialized key.
    pub key: Vec<u8>,
    /// Serialized value.
    pub value: Vec<u8>,
}

impl KvPair {
    /// Construct a pair.
    pub fn new(key: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>) -> Self {
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

/// The user map function.
pub trait Mapper: Send + Sync {
    /// Called once per map task attempt before its first record, on the
    /// thread that runs the attempt. An attempt that fails never reaches
    /// `finish`, so task-local state left by it is dropped here.
    fn start(&self) {}

    /// Called once per input record.
    fn map(&self, key: &[u8], value: &[u8], out: &mut dyn Emit);

    /// Called once per map task after the last record, so user-level
    /// buffering (e.g. the §IV aggregation library) can flush.
    fn finish(&self, _out: &mut dyn Emit) {}
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
