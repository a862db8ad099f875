//! Engine integration tests: failure injection, determinism, key
//! semantics hooks.

use scihadoop_compress::{Codec, CompressError, IdentityCodec};
use scihadoop_mapreduce::{
    Counter, Emit, FnMapper, FnReducer, InputSplit, Job, JobConfig, KeySemantics, KvPair, MrError,
};
use std::cmp::Ordering;
use std::sync::Arc;

fn word_splits(n: u32, per_split: usize) -> Vec<InputSplit> {
    let pairs: Vec<KvPair> = (0..n)
        .map(|i| KvPair::new((i % 37).to_be_bytes().to_vec(), vec![1u8]))
        .collect();
    pairs
        .chunks(per_split)
        .map(|c| InputSplit::new(c.to_vec()))
        .collect()
}

fn identity_mapper() -> Arc<dyn scihadoop_mapreduce::Mapper> {
    Arc::new(FnMapper(|k: &[u8], v: &[u8], out: &mut dyn Emit| {
        out.emit(k, v)
    }))
}

fn count_reducer() -> Arc<dyn scihadoop_mapreduce::Reducer> {
    Arc::new(FnReducer(
        |k: &[u8], values: &[&[u8]], out: &mut dyn Emit| {
            out.emit(k, &(values.len() as u64).to_be_bytes());
        },
    ))
}

/// A codec that corrupts its own output, so decompression at the reducer
/// must fail — the engine has to surface the error, not hang or panic.
struct SabotagedCodec;

impl Codec for SabotagedCodec {
    fn name(&self) -> &str {
        "sabotaged"
    }
    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let mut out = input.to_vec();
        if let Some(b) = out.first_mut() {
            *b ^= 0xFF;
        }
        out
    }
    fn decompress(&self, _input: &[u8]) -> Result<Vec<u8>, CompressError> {
        Err(CompressError::Corrupt("sabotaged".into()))
    }
}

#[test]
fn decompression_failure_fails_the_job() {
    let result = Job::new(JobConfig::default().with_codec(Arc::new(SabotagedCodec))).run(
        word_splits(100, 25),
        identity_mapper(),
        count_reducer(),
    );
    assert!(matches!(result, Err(MrError::Codec(_))));
}

#[test]
fn byte_counters_are_deterministic_across_runs_and_parallelism() {
    let run = |map_slots: usize| {
        Job::new(
            JobConfig::default()
                .with_reducers(4)
                .with_slots(map_slots, 2),
        )
        .run(word_splits(500, 50), identity_mapper(), count_reducer())
        .unwrap()
    };
    let a = run(1);
    let b = run(8);
    for counter in [
        Counter::MapOutputBytes,
        Counter::MapOutputMaterializedBytes,
        Counter::MapOutputRecords,
        Counter::MapOutputKeyBytes,
        Counter::ReduceInputGroups,
        Counter::ReduceOutputRecords,
    ] {
        assert_eq!(
            a.counters.get(counter),
            b.counters.get(counter),
            "{counter:?} differs between 1-slot and 8-slot runs"
        );
    }
}

/// Custom comparator: sort keys in *reverse* order; outputs must follow.
struct ReverseOrder;

impl KeySemantics for ReverseOrder {
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
        b.cmp(a)
    }
    // A non-bytewise comparator must ship a matching sort prefix: the
    // bitwise complement of the bytewise prefix is order-preserving for
    // reverse bytewise order.
    fn sort_prefix_wide(&self, key: &[u8]) -> u128 {
        !scihadoop_mapreduce::bytewise_sort_prefix_wide(key)
    }
    fn partition(&self, _key: &[u8], _parts: usize) -> usize {
        0
    }
}

#[test]
fn custom_comparator_controls_output_order() {
    let result = Job::new(
        JobConfig::default()
            .with_reducers(1)
            .with_key_semantics(Arc::new(ReverseOrder)),
    )
    .run(word_splits(200, 40), identity_mapper(), count_reducer())
    .unwrap();
    let keys: Vec<Vec<u8>> = result.outputs[0].iter().map(|p| p.key.to_vec()).collect();
    let mut sorted = keys.clone();
    sorted.sort_by(|a, b| b.cmp(a));
    assert_eq!(keys, sorted, "outputs must follow the custom comparator");
}

/// Grouping comparator: group by the first byte only.
struct PrefixGrouping;

impl KeySemantics for PrefixGrouping {
    fn partition(&self, _key: &[u8], _parts: usize) -> usize {
        0
    }
    fn group_eq(&self, a: &[u8], b: &[u8]) -> bool {
        a.first() == b.first()
    }
}

#[test]
fn grouping_comparator_merges_key_families() {
    let pairs = vec![
        KvPair::new(b"a1".to_vec(), vec![1]),
        KvPair::new(b"a2".to_vec(), vec![1]),
        KvPair::new(b"b1".to_vec(), vec![1]),
    ];
    let result = Job::new(
        JobConfig::default()
            .with_reducers(1)
            .with_key_semantics(Arc::new(PrefixGrouping)),
    )
    .run(
        vec![InputSplit::new(pairs)],
        identity_mapper(),
        count_reducer(),
    )
    .unwrap();
    assert_eq!(result.counters.get(Counter::ReduceInputGroups), 2);
    let counts: Vec<u64> = result.outputs[0]
        .iter()
        .map(|p| u64::from_be_bytes(p.value.as_slice().try_into().unwrap()))
        .collect();
    let mut sorted = counts.clone();
    sorted.sort();
    assert_eq!(sorted, vec![1, 2]);
}

#[test]
fn mapper_finish_emissions_are_processed() {
    // A buffering mapper that emits everything at finish (the §IV
    // aggregation library's pattern).
    struct BufferingMapper {
        buffered: parking_lot::Mutex<Vec<KvPair>>,
    }
    impl scihadoop_mapreduce::Mapper for BufferingMapper {
        fn map(&self, key: &[u8], value: &[u8], _out: &mut dyn Emit) {
            self.buffered
                .lock()
                .push(KvPair::new(key.to_vec(), value.to_vec()));
        }
        fn finish(&self, out: &mut dyn Emit) {
            for p in self.buffered.lock().drain(..) {
                out.emit(&p.key, &p.value);
            }
        }
    }
    let mapper = Arc::new(BufferingMapper {
        buffered: parking_lot::Mutex::new(Vec::new()),
    });
    let result = Job::new(JobConfig::default().with_slots(1, 1))
        .run(word_splits(60, 60), mapper, count_reducer())
        .unwrap();
    let total: u64 = result.outputs[0]
        .iter()
        .map(|p| u64::from_be_bytes(p.value.as_slice().try_into().unwrap()))
        .sum();
    assert_eq!(total, 60);
}

#[test]
fn mapper_task_is_built_for_every_attempt() {
    // A buffering task whose job's third record fails its first attempt.
    // The retry runs on the same (only) map slot: were the two records the
    // failed attempt buffered not dropped with its task, they would be
    // emitted twice.
    use scihadoop_mapreduce::MapTask;
    use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
    struct BufferingMapper {
        tasks: AtomicU32,
        maps: AtomicU32,
    }
    struct BufferingTask<'a> {
        mapper: &'a BufferingMapper,
        buffered: Vec<KvPair>,
    }
    impl scihadoop_mapreduce::Mapper for BufferingMapper {
        fn task(&self) -> Box<dyn MapTask + '_> {
            self.tasks.fetch_add(1, Relaxed);
            Box::new(BufferingTask {
                mapper: self,
                buffered: Vec::new(),
            })
        }
        fn map(&self, key: &[u8], value: &[u8], out: &mut dyn Emit) {
            let mut task = self.task();
            task.map(key, value, out);
            task.finish(out);
        }
    }
    impl MapTask for BufferingTask<'_> {
        fn map(&mut self, key: &[u8], value: &[u8], _out: &mut dyn Emit) {
            if self.mapper.maps.fetch_add(1, Relaxed) == 2 {
                panic!("injected mapper panic");
            }
            self.buffered
                .push(KvPair::new(key.to_vec(), value.to_vec()));
        }
        fn finish(self: Box<Self>, out: &mut dyn Emit) {
            for p in &self.buffered {
                out.emit(&p.key, &p.value);
            }
        }
    }
    let mapper = Arc::new(BufferingMapper {
        tasks: AtomicU32::new(0),
        maps: AtomicU32::new(0),
    });
    let config = JobConfig::default().with_slots(1, 1).with_retries(1);
    let result = Job::new(config)
        .run(word_splits(60, 20), mapper.clone(), count_reducer())
        .unwrap();
    // Three splits, one of them attempted twice.
    assert_eq!(mapper.tasks.load(Relaxed), 4);
    assert_eq!(result.counters.get(Counter::MapOutputRecords), 60);
}

#[test]
fn zero_record_splits_are_harmless() {
    let splits = vec![InputSplit::new(vec![]), InputSplit::new(vec![])];
    let result = Job::new(JobConfig::default().with_codec(Arc::new(IdentityCodec)))
        .run(splits, identity_mapper(), count_reducer())
        .unwrap();
    assert!(result.all_outputs().is_empty());
}

/// Splits marker keys at sort time: `S<n>` becomes `A<n>` + `Z<n>` with
/// the value halved between them — the reducer's lazy sort-split flush
/// must count the extra records and re-sort the disturbed window.
struct MarkerSplit;

impl KeySemantics for MarkerSplit {
    fn partition(&self, _key: &[u8], _parts: usize) -> usize {
        0
    }
    fn sort_split(&self, records: Vec<KvPair>) -> Vec<KvPair> {
        let mut out = Vec::new();
        for r in records {
            if r.key.first() == Some(&b'S') {
                let mid = r.value.len() / 2;
                let mut a_key = r.key.to_vec();
                a_key[0] = b'A';
                let mut z_key = r.key.to_vec();
                z_key[0] = b'Z';
                out.push(KvPair::new(a_key, &r.value[..mid]));
                out.push(KvPair::new(z_key, &r.value[mid..]));
            } else {
                out.push(r);
            }
        }
        out
    }
}

#[test]
fn sort_split_counter_tracks_split_and_clean_paths() {
    let run = |pairs: Vec<KvPair>| {
        Job::new(
            JobConfig::default()
                .with_reducers(1)
                .with_key_semantics(Arc::new(MarkerSplit)),
        )
        .run(
            vec![InputSplit::new(pairs)],
            identity_mapper(),
            count_reducer(),
        )
        .unwrap()
    };

    // No marker keys: sort_split is the identity, the flush skips its
    // re-sort, and the counter stays zero.
    let clean = run(vec![
        KvPair::new(b"B1".to_vec(), vec![1, 2]),
        KvPair::new(b"C2".to_vec(), vec![3, 4]),
    ]);
    assert_eq!(clean.counters.get(Counter::SortSplitRecords), 0);
    assert_eq!(clean.counters.get(Counter::ReduceInputGroups), 2);

    // Two marker records each split in two: two extra records counted,
    // and the pieces regroup under their new keys in sorted positions.
    let split = run(vec![
        KvPair::new(b"S1".to_vec(), vec![1, 2]),
        KvPair::new(b"B1".to_vec(), vec![5]),
        KvPair::new(b"S2".to_vec(), vec![3, 4]),
    ]);
    assert_eq!(split.counters.get(Counter::SortSplitRecords), 2);
    assert_eq!(split.counters.get(Counter::ReduceInputGroups), 5);
    let keys: Vec<&[u8]> = split.outputs[0].iter().map(|p| p.key.as_slice()).collect();
    assert_eq!(
        keys,
        vec![b"A1".as_slice(), b"A2", b"B1", b"Z1", b"Z2"],
        "split pieces must land in sorted order"
    );
}

/// Counts decompression attempts before failing them all.
struct CountingSabotage(Arc<std::sync::atomic::AtomicUsize>);

impl Codec for CountingSabotage {
    fn name(&self) -> &str {
        "counting-sabotage"
    }
    fn compress(&self, input: &[u8]) -> Vec<u8> {
        input.to_vec()
    }
    fn decompress(&self, _input: &[u8]) -> Result<Vec<u8>, CompressError> {
        self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        Err(CompressError::Corrupt("sabotaged".into()))
    }
}

#[test]
fn map_failure_aborts_remaining_tasks_and_keeps_all_errors() {
    // Tiny spill buffer → every map task multi-spills → its final merge
    // must decompress, which fails. With one slot, the abort flag raised
    // by the first failure must drain the queue before the other five
    // splits run: the codec is touched exactly once.
    let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let result = Job::new(
        JobConfig::default()
            .with_slots(1, 1)
            .with_spill_buffer(64)
            .with_codec(Arc::new(CountingSabotage(calls.clone()))),
    )
    .run(word_splits(300, 50), identity_mapper(), count_reducer());
    let err = result.err().expect("job must fail");
    assert_eq!(err.task_errors().len(), 1);
    assert!(matches!(err.task_errors()[0], MrError::Codec(_)));
    assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 1);
}

#[test]
fn multi_spill_maps_deliver_one_segment_per_reducer() {
    // A tiny spill buffer forces many spills; the final merge must leave
    // each reducer with exactly one sorted run per map, identical in
    // content to a single-spill run.
    let run = |spill_bytes: usize| {
        Job::new(
            JobConfig::default()
                .with_reducers(3)
                .with_slots(1, 1)
                .with_spill_buffer(spill_bytes),
        )
        .run(word_splits(300, 300), identity_mapper(), count_reducer())
        .unwrap()
    };
    let many_spills = run(64);
    let one_spill = run(1 << 20);
    assert!(many_spills.counters.get(Counter::Spills) > 5);
    assert_eq!(one_spill.counters.get(Counter::Spills), 1);
    // Same final answers.
    let to_map = |r: &scihadoop_mapreduce::JobResult| {
        r.all_outputs()
            .into_iter()
            .map(|p| (p.key, p.value))
            .collect::<std::collections::BTreeMap<_, _>>()
    };
    assert_eq!(to_map(&many_spills), to_map(&one_spill));
    // After the merge, materialized map output is identical: one segment
    // per (map, reducer) regardless of spill count.
    assert_eq!(
        many_spills.counters.get(Counter::MapOutputBytes),
        one_spill.counters.get(Counter::MapOutputBytes)
    );
    assert_eq!(
        many_spills
            .counters
            .get(Counter::MapOutputMaterializedBytes),
        one_spill.counters.get(Counter::MapOutputMaterializedBytes)
    );
}

/// Distinct 4-byte keys, one value each: `n` reduce groups.
fn distinct_splits(n: u32) -> Vec<InputSplit> {
    let pairs: Vec<KvPair> = (0..n)
        .map(|i| KvPair::new(i.to_be_bytes().to_vec(), vec![1u8]))
        .collect();
    pairs
        .chunks(100)
        .map(|c| InputSplit::new(c.to_vec()))
        .collect()
}

#[test]
fn reducer_cpu_lands_in_reduce_fn_nanos() {
    use scihadoop_mapreduce::clock::{clock_kind, thread_cpu_nanos, ClockKind};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    if clock_kind() != ClockKind::ThreadCpu {
        return; // on the wall-clock fallback a descheduled thread is charged too
    }
    // 300 groups — several clock-read batches — each spinning 100 µs of
    // thread CPU inside the reduce function. One reducer on one slot, so
    // the reduce thread's clock at the last call's end is (within the few
    // instructions that follow it) the whole CPU of the reduce task.
    const GROUPS: u32 = 300;
    const SPIN_NANOS: u64 = 100_000;
    let spun = Arc::new(AtomicU64::new(0));
    let thread_cpu_at_last_call = Arc::new(AtomicU64::new(0));
    let (spun_in, last_in) = (spun.clone(), thread_cpu_at_last_call.clone());
    let reducer = Arc::new(FnReducer(
        move |k: &[u8], _: &[&[u8]], out: &mut dyn Emit| {
            let t0 = thread_cpu_nanos();
            let mut now = t0;
            while now - t0 < SPIN_NANOS {
                std::hint::spin_loop();
                now = thread_cpu_nanos();
            }
            spun_in.fetch_add(now - t0, Relaxed);
            last_in.store(now, Relaxed);
            out.emit(k, b"");
        },
    ));
    let result = Job::new(JobConfig::default().with_reducers(1).with_slots(2, 1))
        .run(distinct_splits(GROUPS), identity_mapper(), reducer)
        .unwrap();
    assert_eq!(
        result.counters.get(Counter::ReduceInputGroups),
        GROUPS as u64
    );

    let spun = spun.load(Relaxed);
    let reduce_fn = result.counters.get(Counter::ReduceFnNanos);
    let merge = result.counters.get(Counter::MergeNanos);
    assert!(spun >= GROUPS as u64 * SPIN_NANOS);
    assert!(
        reduce_fn >= spun,
        "the reducer burned {spun} ns but ReduceFnNanos is {reduce_fn}"
    );
    assert!(
        merge < spun / 4,
        "reducer CPU leaked into MergeNanos: merge {merge} ns, reducer {spun} ns"
    );
    // No nanosecond is charged twice: the two phases together fit inside
    // what the thread had burned when the last group finished, give or
    // take the loop's tail.
    let task_cpu = thread_cpu_at_last_call.load(Relaxed);
    assert!(
        reduce_fn + merge <= task_cpu + 2_000_000,
        "ReduceFnNanos {reduce_fn} + MergeNanos {merge} exceed the task's thread CPU {task_cpu}"
    );
}

#[test]
fn panicking_attempts_charge_nothing() {
    // Per-record tallies reach the counter bank when a task succeeds. A
    // map attempt that dies at its 50th record and a reduce attempt that
    // dies at its 100th group — after a full batch of groups already ran
    // — must leave every record counter as a clean run leaves it.
    use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
    let run = |panic_at: Option<(u32, u32)>| {
        let (map_calls, reduce_calls) = (Arc::new(AtomicU32::new(0)), Arc::new(AtomicU32::new(0)));
        let mapper = Arc::new(FnMapper(move |k: &[u8], v: &[u8], out: &mut dyn Emit| {
            let call = map_calls.fetch_add(1, Relaxed) + 1;
            if panic_at.is_some_and(|(at, _)| call == at) {
                panic!("injected mapper panic");
            }
            out.emit(k, v);
        }));
        let reducer = Arc::new(FnReducer(
            move |k: &[u8], values: &[&[u8]], out: &mut dyn Emit| {
                let call = reduce_calls.fetch_add(1, Relaxed) + 1;
                if panic_at.is_some_and(|(_, at)| call == at) {
                    panic!("injected reducer panic");
                }
                out.emit(k, &(values.len() as u64).to_be_bytes());
            },
        ));
        Job::new(
            JobConfig::default()
                .with_reducers(1)
                .with_slots(1, 1)
                .with_retries(1),
        )
        .run(distinct_splits(300), mapper, reducer)
        .unwrap()
    };
    let clean = run(None);
    let retried = run(Some((50, 100)));
    assert_eq!(retried.counters.get(Counter::TaskRetries), 2);
    assert_eq!(clean.outputs, retried.outputs);
    for counter in [
        Counter::MapInputRecords,
        Counter::MapOutputRecords,
        Counter::RouteSplitRecords,
        Counter::ReduceInputGroups,
        Counter::ReduceInputRecords,
        Counter::ReduceOutputRecords,
        Counter::ReduceOutputBytes,
    ] {
        assert_eq!(
            clean.counters.get(counter),
            retried.counters.get(counter),
            "{counter:?} was charged by a failed attempt"
        );
    }
    assert_eq!(clean.counters.get(Counter::ReduceInputGroups), 300);
}
