//! Spill-equivalence properties for the coordinator's shuffle store.
//!
//! The memory budget decides *where* a segment waits (resident or in a
//! spill file), never *what* is served: a store forced to spill every
//! byte (budget 0) must hand back segment streams byte-identical to an
//! unbounded store over the same publishes, with the semantic counters
//! (total bytes) agreeing and the placement counters (spilled bytes,
//! spill reads, high water) reflecting full spill. A second property
//! holds the store to one publish per map task: a second publish of a
//! committed task is refused, writes nothing, and leaves both the
//! handles already out and later fetches serving the first bytes. A
//! third drives a store under an arbitrary budget between the two
//! extremes through an arbitrary interleaving of publishes, fetches and
//! commits, against a model of the placement rule: a segment is placed
//! once, at publish, and never moves.

use proptest::prelude::*;
use scihadoop_mapreduce::dist::{SegmentRepr, ShuffleStore};

const PARTITIONS: usize = 3;

/// Deterministic segment payload, distinct per (map, partition, seed).
fn segment(seed: u64, map: usize, partition: usize, len: usize) -> Vec<u8> {
    let mut state = seed ^ ((map as u64) << 32) ^ ((partition as u64) << 16) ^ len as u64;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 56) as u8
        })
        .collect()
}

/// One map task's outputs: non-empty segments only, like the engine's
/// staged map outputs.
fn outputs(seed: u64, map: usize, lens: &[usize]) -> Vec<(usize, Vec<u8>)> {
    lens.iter()
        .enumerate()
        .filter(|(_, &len)| len > 0)
        .map(|(partition, &len)| (partition, segment(seed, map, partition, len)))
        .collect()
}

/// Fetch every segment of every partition in canonical order.
fn drain(store: &ShuffleStore, num_maps: usize) -> Vec<Vec<Vec<u8>>> {
    (0..PARTITIONS)
        .map(|partition| {
            (0..num_maps)
                .filter_map(|map| {
                    store
                        .segment_when_ready(partition, map)
                        .expect("store not aborted")
                        .map(|handle| handle.to_vec().expect("segment reads back"))
                })
                .collect()
        })
        .collect()
}

/// The placement rule, restated: what each slot holds as
/// `(stored length, resident)`, and the counters that follow from it.
struct Model {
    budget: usize,
    slots: Vec<Vec<Option<(usize, bool)>>>,
    used: usize,
    high_water: u64,
    spilled: u64,
    reads: u64,
}

impl Model {
    fn publish(&mut self, map: usize, lens: &[usize]) {
        for (partition, &len) in lens.iter().enumerate().filter(|(_, &len)| len > 0) {
            let resident = len <= self.budget - self.used;
            if resident {
                self.used += len;
                self.high_water = self.high_water.max(self.used as u64);
            } else {
                self.spilled += len as u64;
            }
            self.slots[partition][map] = Some((len, resident));
        }
    }

    fn release(&mut self, partition: usize) {
        for slot in &mut self.slots[partition] {
            if let Some((len, true)) = slot.take() {
                self.used -= len;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn zero_budget_store_serves_byte_identical_streams(
        // Per map task: a segment length per partition (0 = emitted
        // nothing for that partition).
        layout in proptest::collection::vec(
            proptest::collection::vec(0usize..700, PARTITIONS..PARTITIONS + 1),
            1..6,
        ),
        seed in any::<u64>(),
    ) {
        let num_maps = layout.len();
        let unbounded = ShuffleStore::new(PARTITIONS, num_maps, usize::MAX);
        let spilling = ShuffleStore::new(PARTITIONS, num_maps, 0);
        for (map, lens) in layout.iter().enumerate() {
            unbounded.publish(map, outputs(seed, map, lens)).unwrap();
            spilling.publish(map, outputs(seed, map, lens)).unwrap();
        }

        prop_assert_eq!(drain(&unbounded, num_maps), drain(&spilling, num_maps));

        let total: u64 = layout.iter().flatten().map(|&len| len as u64).sum();
        let segments: u64 = layout.iter().flatten().filter(|&&len| len > 0).count() as u64;
        prop_assert_eq!(unbounded.total_bytes(), total);
        prop_assert_eq!(spilling.total_bytes(), total);
        // Placement counters: everything spilled on one side, nothing
        // on the other; every fetch on the bounded side hit the disk.
        prop_assert_eq!(spilling.spilled_bytes(), total);
        prop_assert_eq!(spilling.mem_high_water(), 0);
        prop_assert_eq!(spilling.spill_reads(), segments);
        prop_assert_eq!(unbounded.spilled_bytes(), 0);
        prop_assert_eq!(unbounded.spill_reads(), 0);
        prop_assert_eq!(unbounded.mem_high_water(), total);
    }

    #[test]
    fn a_second_publish_is_refused_and_the_first_stays_served(
        layout in proptest::collection::vec(
            proptest::collection::vec(1usize..500, PARTITIONS..PARTITIONS + 1),
            2..5,
        ),
        victim_pick in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let num_maps = layout.len();
        let victim = (victim_pick % num_maps as u64) as usize;
        let store = ShuffleStore::new(PARTITIONS, num_maps, 0);
        for (map, lens) in layout.iter().enumerate() {
            store.publish(map, outputs(seed, map, lens)).unwrap();
        }
        // Handles taken before the second publish — already spilled.
        let before: Vec<_> = (0..PARTITIONS)
            .map(|p| store.segment_when_ready(p, victim).unwrap().unwrap())
            .collect();
        let spilled = store.spilled_bytes();

        // Other bytes under the same task id: refused, and not written.
        let other = outputs(seed.wrapping_add(1), victim, &layout[victim]);
        prop_assert!(store.publish(victim, other).is_err());
        prop_assert_eq!(store.spilled_bytes(), spilled);

        for (partition, handle) in before.into_iter().enumerate() {
            let expect = segment(seed, victim, partition, layout[victim][partition]);
            // The handle already out still reads the first bytes...
            prop_assert_eq!(handle.to_vec().unwrap(), expect.clone());
            // ...and so does a fresh fetch.
            let fresh = store.segment_when_ready(partition, victim).unwrap().unwrap();
            prop_assert_eq!(fresh.to_vec().unwrap(), expect);
        }
    }

    #[test]
    fn any_budget_places_each_segment_once_and_serves_identical_streams(
        layout in proptest::collection::vec(
            proptest::collection::vec(0usize..700, PARTITIONS..PARTITIONS + 1),
            1..6,
        ),
        budget in 0usize..2500,
        // (kind, a, b): 0|1 publish map a unless it was published
        // before; 2 fetch (partition a, map b) if published; 3 commit
        // partition a's reduce.
        ops in proptest::collection::vec((0u8..4, any::<u8>(), any::<u8>()), 0..40),
        seed in any::<u64>(),
    ) {
        let num_maps = layout.len();
        let unbounded = ShuffleStore::new(PARTITIONS, num_maps, usize::MAX);
        // One map task more than the layout has: the probe at the end.
        let bounded = ShuffleStore::new(PARTITIONS, num_maps + 1, budget);
        let mut model = Model {
            budget,
            slots: vec![vec![None; num_maps]; PARTITIONS],
            used: 0,
            high_water: 0,
            spilled: 0,
            reads: 0,
        };
        let mut published_maps = vec![false; num_maps];
        // Stored bytes handed to `publish`, and those of them a fetch
        // right after the publish found resident.
        let (mut published, mut admitted) = (0u64, 0u64);

        // Fetch one slot from both stores: same bytes, and the bounded
        // store's segment is where the model placed it at publish.
        let fetch = |model: &mut Model, partition: usize, map: usize| -> Result<bool, TestCaseError> {
            let want = unbounded.segment_when_ready(partition, map).unwrap();
            let got = bounded.segment_when_ready(partition, map).unwrap();
            let Some(got) = got else {
                prop_assert!(want.is_none());
                prop_assert!(model.slots[partition][map].is_none());
                return Ok(false);
            };
            prop_assert_eq!(got.to_vec().unwrap(), want.expect("same slots").to_vec().unwrap());
            let resident = matches!(got.repr, SegmentRepr::Mem(_));
            prop_assert_eq!(Some((got.len(), resident)), model.slots[partition][map]);
            model.reads += u64::from(!resident);
            Ok(resident)
        };

        let everything = (0..num_maps).map(|map| (0, map as u8, 0));
        for (kind, a, b) in ops.into_iter().chain(everything) {
            match kind {
                0 | 1 => {
                    let map = a as usize % num_maps;
                    if std::mem::replace(&mut published_maps[map], true) {
                        continue;
                    }
                    let lens = &layout[map];
                    unbounded.publish(map, outputs(seed, map, lens)).unwrap();
                    bounded.publish(map, outputs(seed, map, lens)).unwrap();
                    model.publish(map, lens);
                    for (partition, &len) in lens.iter().enumerate() {
                        published += len as u64;
                        if fetch(&mut model, partition, map)? {
                            admitted += len as u64;
                        }
                    }
                }
                2 => {
                    let (partition, map) = (a as usize % PARTITIONS, b as usize % num_maps);
                    if published_maps[map] {
                        fetch(&mut model, partition, map)?;
                    }
                }
                _ => {
                    let partition = a as usize % PARTITIONS;
                    unbounded.release(partition);
                    bounded.release(partition);
                    model.release(partition);
                }
            }
            prop_assert!(bounded.mem_high_water() <= budget as u64);
        }
        // Every map has landed. Whatever was placed in memory along the
        // way is still there, whatever spilled is still on disk.
        for partition in 0..PARTITIONS {
            for map in 0..num_maps {
                fetch(&mut model, partition, map)?;
            }
        }

        // A segment is written to disk at most once, and never after it
        // was admitted: every stored byte went to exactly one place.
        prop_assert_eq!(bounded.spilled_bytes() + admitted, published);
        prop_assert_eq!(bounded.spilled_bytes(), model.spilled);
        prop_assert_eq!(bounded.spill_reads(), model.reads);
        prop_assert_eq!(bounded.mem_high_water(), model.high_water);
        prop_assert_eq!(bounded.total_bytes(), unbounded.total_bytes());

        for partition in 0..PARTITIONS {
            bounded.release(partition);
        }
        // Nothing is resident: a segment as large as the whole budget
        // is admitted.
        if budget > 0 {
            bounded.publish(num_maps, vec![(0, segment(seed, num_maps, 0, budget))]).unwrap();
            let probe = bounded.segment_when_ready(0, num_maps).unwrap().unwrap();
            prop_assert!(matches!(probe.repr, SegmentRepr::Mem(_)));
        }
    }
}
