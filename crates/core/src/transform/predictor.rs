//! The stride-predictor state machine shared by the forward and inverse
//! transforms (§III-A, §III-B, §III-C).
//!
//! # Hot-path layout
//!
//! The detector's definition visits every stride at every byte. Only the
//! strides in a compact `active_list` (stride-list order, so the "first
//! strictly-better run wins" and `max_by_key` tie-breaks hold) can change
//! or predict, and the list only grows at a selection boundary, so the
//! input is taken in *runs* that end at the next boundary, in one of
//! three modes by the length of the list: none active — a copy plus the
//! history ring; one active — that stride's state in registers for the
//! run; several — two passes over the list per byte, predict then update.
//! Phases are counters, the history ring is a power of two, and how many
//! observations count toward a hit rate follows from the position, so
//! nothing divides and nothing is counted per byte but hits. The
//! definition itself lives on as the test oracle
//! (`tests/reference/mod.rs`), held byte-identical by property tests.

/// Tuning knobs of the detector. Defaults are the paper's values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransformConfig {
    /// The full set is every stride in `1..=max_stride` (paper: 100,
    /// with 1000 in the brute-force comparison).
    pub max_stride: usize,
    /// If set, the full set is exactly these strides instead (the
    /// "user specifies lengths" alternative of §III, used by the stride
    /// ablation experiment with a single stride of 12).
    pub explicit_strides: Option<Vec<usize>>,
    /// If false, every stride stays active forever — the brute-force
    /// detector §III-A compares against (4× slower at max stride 100,
    /// 17× at 1000).
    pub adaptive: bool,
    /// Bytes per selection cycle (paper: 256 — "large enough to reduce
    /// CPU overhead and small enough to quickly react to input changes").
    pub selection_cycle: usize,
    /// Hit-rate eviction threshold, as a fraction (paper: 5/6).
    pub hit_rate_num: u32,
    /// Denominator of the eviction threshold.
    pub hit_rate_den: u32,
    /// A prediction is emitted only when the best run length exceeds this
    /// (paper: 2).
    pub run_threshold: u32,
}

impl Default for TransformConfig {
    fn default() -> Self {
        TransformConfig {
            max_stride: 100,
            explicit_strides: None,
            adaptive: true,
            selection_cycle: 256,
            hit_rate_num: 5,
            hit_rate_den: 6,
            run_threshold: 2,
        }
    }
}

impl TransformConfig {
    /// The paper's adaptive detector with the given maximum stride.
    pub fn adaptive(max_stride: usize) -> Self {
        TransformConfig {
            max_stride,
            ..Default::default()
        }
    }

    /// The brute-force baseline: every stride considered at every byte.
    pub fn brute_force(max_stride: usize) -> Self {
        TransformConfig {
            max_stride,
            adaptive: false,
            ..Default::default()
        }
    }

    /// A fixed set of user-specified strides (no adaptation needed —
    /// nothing to evict when the user already chose).
    pub fn fixed(strides: Vec<usize>) -> Self {
        assert!(!strides.is_empty(), "need at least one stride");
        let max = *strides.iter().max().expect("non-empty");
        TransformConfig {
            max_stride: max,
            explicit_strides: Some(strides),
            adaptive: false,
            ..Default::default()
        }
    }

    pub(crate) fn stride_list(&self) -> Vec<usize> {
        let strides = match &self.explicit_strides {
            Some(v) => v.clone(),
            None => (1..=self.max_stride).collect(),
        };
        assert!(
            strides.iter().all(|&s| s >= 1 && s <= self.max_stride),
            "strides must lie in 1..=max_stride"
        );
        strides
    }
}

/// Per-stride diagnostic snapshot (see
/// [`StridePredictor::stride_reports`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideReport {
    /// The stride length.
    pub stride: usize,
    /// Whether it is currently in the active set.
    pub active: bool,
    /// Correct predictions since (re)activation.
    pub hits: u64,
    /// Counted observations since (re)activation.
    pub observations: u64,
    /// Longest current run among this stride's phases.
    pub best_run: u32,
}

impl StrideReport {
    /// Hit rate in [0, 1]; 0 when nothing was observed.
    pub fn hit_rate(&self) -> f64 {
        if self.observations == 0 {
            0.0
        } else {
            self.hits as f64 / self.observations as f64
        }
    }
}

/// One tracked sequence: a (stride, phase) cell of the sequence table.
#[derive(Debug, Clone, Copy, Default)]
struct Sequence {
    /// The difference δ of equation (1).
    delta: u8,
    /// "the number of times in a row that the sequence has predicted the
    /// correct value"
    run: u32,
}

/// Per-stride bookkeeping for the active-set policy.
#[derive(Debug, Clone, Copy)]
struct StrideState {
    stride: usize,
    /// Index into the flat sequence table where this stride's `stride`
    /// phases begin.
    table_offset: usize,
    active: bool,
    /// Current phase (`pos % stride`), maintained incrementally while
    /// the stride is active and recomputed on re-activation, so the hot
    /// loop never divides.
    phase: u32,
    /// Correct predictions among the counted observations since
    /// (re)activation.
    hits: u64,
    /// Position of the first counted observation. An activated stride
    /// observes every byte once it has `stride` bytes to look back to;
    /// the first `stride` observations (one per phase) are a warm-up that
    /// updates deltas and runs but not the hit rate, giving it "a chance
    /// to settle" (§III-A). So the counted total is a function of the
    /// position and no per-byte counter.
    count_from: u64,
    /// Position from which the eviction rule applies: active for at
    /// least `2 * stride` bytes, and at least one counted observation.
    evict_from: u64,
    /// Position at which the stride was evicted (valid when inactive).
    evicted_at: u64,
    /// Selection cycle in which the stride was evicted (valid when
    /// inactive).
    removed_at_cycle: u64,
    /// Selection cycle in which the stride was last re-admitted.
    last_selected_cycle: u64,
}

/// What a run reads of the predictor besides the stride it is updating.
struct View {
    /// `history.len() - 1`.
    mask: usize,
    run_threshold: u32,
    adaptive: bool,
    hit_rate_num: u64,
    hit_rate_den: u64,
    cycle: u64,
}

impl View {
    fn of(p: &StridePredictor) -> Self {
        View {
            mask: p.hist_mask,
            run_threshold: p.config.run_threshold,
            adaptive: p.config.adaptive,
            hit_rate_num: p.config.hit_rate_num as u64,
            hit_rate_den: p.config.hit_rate_den as u64,
            cycle: p.cycle,
        }
    }
}

impl StrideState {
    /// (Re)start the hit-rate accounting of a stride activated at `pos`.
    fn activate(&mut self, pos: u64) {
        let s = self.stride as u64;
        self.active = true;
        self.phase = (pos % s) as u32;
        self.hits = 0;
        self.count_from = pos.max(s) + s;
        self.evict_from = self.count_from.max(pos + 2 * s - 1);
    }

    /// Counted observations since (re)activation, as of position `pos`.
    fn total(&self, pos: u64) -> u64 {
        let until = if self.active { pos } else { self.evicted_at };
        until.saturating_sub(self.count_from)
    }

    /// The run length of this stride's current cell and the byte it
    /// predicts at `pos` (run 0 until the stride has a byte to look back
    /// to, so it never wins).
    #[inline(always)]
    fn guess(&self, table: &[Sequence], history: &[u8], view: &View, pos: u64) -> (u32, u8) {
        if self.stride as u64 > pos {
            return (0, 0);
        }
        let seq = &table[self.table_offset + self.phase as usize];
        let prev = history[(pos as usize).wrapping_sub(self.stride) & view.mask];
        (seq.run, prev.wrapping_add(seq.delta))
    }

    /// Feed the byte `x` found at `pos`, where this stride's current cell
    /// predicted `guess`, to that cell and move to the next phase; true
    /// if that evicted the stride. Whether a cell predicted right is what
    /// the input decides byte by byte, so the update selects rather than
    /// branches.
    #[inline(always)]
    fn observe(&mut self, table: &mut [Sequence], view: &View, pos: u64, guess: u8, x: u8) -> bool {
        let s = self.stride;
        let mut evict = false;
        if s as u64 <= pos {
            let seq = &mut table[self.table_offset + self.phase as usize];
            let hit = guess == x;
            seq.run = if hit { seq.run + 1 } else { 0 };
            // The new delta is `x` minus the byte one stride back, which
            // is the old delta off by what the guess was off by.
            seq.delta = seq.delta.wrapping_add(x.wrapping_sub(guess));
            self.hits += (hit && pos >= self.count_from) as u64;
            // Eviction: hit rate below threshold.
            evict = view.adaptive
                && pos >= self.evict_from
                && self.hits * view.hit_rate_den < (pos + 1 - self.count_from) * view.hit_rate_num;
            if evict {
                self.active = false;
                self.evicted_at = pos + 1;
                self.removed_at_cycle = view.cycle;
            }
        }
        self.phase += 1;
        if self.phase as usize >= s {
            self.phase = 0;
        }
        evict
    }
}

/// Write the output byte for input `b` under `predicted` (0 = none) and
/// return the actual byte: `b` itself forward, the reconstruction inverse.
#[inline(always)]
fn emit<const FORWARD: bool>(b: u8, predicted: u8, out: &mut u8) -> u8 {
    *out = if FORWARD {
        b.wrapping_sub(predicted)
    } else {
        b.wrapping_add(predicted)
    };
    if FORWARD {
        b
    } else {
        *out
    }
}

/// The predictor: feed it bytes via [`StridePredictor::forward`] /
/// [`StridePredictor::inverse`]; both directions evolve identical state,
/// which is what makes the transform invertible without side information.
#[derive(Debug, Clone)]
pub struct StridePredictor {
    config: TransformConfig,
    strides: Vec<StrideState>,
    /// Indices of active strides, in stride-list order (the order the
    /// original implementation visited them, which the prediction and
    /// selection tie-breaks depend on).
    active_list: Vec<u32>,
    /// Flat sequence table; stride `s` with phase `φ` lives at
    /// `table_offset(s) + φ`.
    table: Vec<Sequence>,
    /// Ring buffer of the last `max_stride` original (reconstructed)
    /// bytes, power-of-two sized.
    history: Vec<u8>,
    /// `history.len() - 1`.
    hist_mask: usize,
    /// Total bytes processed.
    pos: u64,
    /// Current selection cycle number.
    cycle: u64,
    /// Scratch of the several-strides loop: what each active stride's
    /// cell predicted for the current byte, in `active_list` order.
    guesses: Vec<u8>,
    /// Bytes until the next selection; never reaches 0 when the detector
    /// does not select (brute force, or a cycle length of 0).
    until_selection: usize,
}

impl StridePredictor {
    /// Fresh predictor state.
    pub fn new(config: TransformConfig) -> Self {
        let stride_list = config.stride_list();
        let mut table_len = 0usize;
        let strides: Vec<StrideState> = stride_list
            .iter()
            .map(|&s| {
                let mut st = StrideState {
                    stride: s,
                    table_offset: table_len,
                    active: true,
                    phase: 0,
                    hits: 0,
                    count_from: 0,
                    evict_from: 0,
                    evicted_at: 0,
                    removed_at_cycle: 0,
                    last_selected_cycle: 0,
                };
                st.activate(0);
                table_len += s;
                st
            })
            .collect();
        let hist_len = config.max_stride.max(1).next_power_of_two();
        StridePredictor {
            until_selection: match config.selection_cycle {
                cycle if config.adaptive && cycle > 0 => cycle,
                _ => usize::MAX,
            },
            active_list: (0..strides.len() as u32).collect(),
            guesses: vec![0; strides.len()],
            history: vec![0u8; hist_len],
            hist_mask: hist_len - 1,
            config,
            strides,
            table: vec![Sequence::default(); table_len],
            pos: 0,
            cycle: 0,
        }
    }

    /// The configuration this predictor runs.
    pub fn config(&self) -> &TransformConfig {
        &self.config
    }

    /// Run mode with no active stride: nothing predicts, so the output
    /// is the input and the only state that moves is the history ring.
    fn copy_run(&mut self, input: &[u8], out: &mut [u8]) -> usize {
        out.copy_from_slice(input);
        let tail = &input[input.len().saturating_sub(self.history.len())..];
        let start = self.pos as usize + (input.len() - tail.len());
        for (k, &x) in tail.iter().enumerate() {
            self.history[(start + k) & self.hist_mask] = x;
        }
        self.pos += input.len() as u64;
        input.len()
    }

    /// Run mode with one active stride — what a stream no stride fits
    /// spends its time in: each selection admits one stride, which lives
    /// for about `2s` bytes. Same steps as [`Self::predict_run`], with
    /// the stride's counters in registers for the length of the run.
    /// Returns how many bytes it took: fewer than `input` holds when the
    /// stride was evicted.
    fn single_stride_run<const FORWARD: bool>(&mut self, input: &[u8], out: &mut [u8]) -> usize {
        let ai = self.active_list[0] as usize;
        let view = View::of(self);
        let mut st = self.strides[ai];
        let mut pos = self.pos;
        let mut taken = input.len();
        for (k, (&b, o)) in input.iter().zip(out.iter_mut()).enumerate() {
            let (run, guess) = st.guess(&self.table, &self.history, &view, pos);
            let predicted = if run > view.run_threshold { guess } else { 0 };
            let x = emit::<FORWARD>(b, predicted, o);
            let evict = st.observe(&mut self.table, &view, pos, guess, x);
            self.history[pos as usize & view.mask] = x;
            pos += 1;
            if evict {
                self.active_list.clear();
                taken = k + 1;
                break;
            }
        }
        self.strides[ai] = st;
        self.pos = pos;
        taken
    }

    /// Run mode with several active strides (the Fig. 3 regime): per
    /// byte, predict (§III-B: the first strictly-longer run above the
    /// threshold wins, in stride-list order), emit, then feed the actual
    /// byte `x` (original on the forward path, reconstructed on the
    /// inverse path) to every active stride and drop the evicted ones
    /// from the list in place. Returns how many bytes it took: fewer
    /// than `input` holds when fewer than two strides were left.
    fn predict_run<const FORWARD: bool>(&mut self, input: &[u8], out: &mut [u8]) -> usize {
        let view = View::of(self);
        let mut pos = self.pos;
        let mut taken = input.len();
        for (k, (&b, o)) in input.iter().zip(out.iter_mut()).enumerate() {
            let mut best_run = view.run_threshold;
            // "No prediction" is a prediction of 0: the byte passes through.
            let mut predicted = 0u8;
            for (&ai, slot) in self.active_list.iter().zip(&mut self.guesses) {
                let (run, guess) =
                    self.strides[ai as usize].guess(&self.table, &self.history, &view, pos);
                *slot = guess;
                let better = run > best_run;
                best_run = if better { run } else { best_run };
                predicted = if better { guess } else { predicted };
            }
            let x = emit::<FORWARD>(b, predicted, o);
            let mut evicted = false;
            for (&ai, &guess) in self.active_list.iter().zip(&self.guesses) {
                let st = &mut self.strides[ai as usize];
                evicted |= st.observe(&mut self.table, &view, pos, guess, x);
            }
            self.history[pos as usize & view.mask] = x;
            pos += 1;
            if evicted {
                let strides = &self.strides;
                self.active_list.retain(|&ai| strides[ai as usize].active);
                if self.active_list.len() < 2 {
                    taken = k + 1;
                    break;
                }
            }
        }
        self.pos = pos;
        taken
    }

    /// Selection, once per cycle: re-admit the eligible stride that has
    /// been out of the active set the longest (`max_by_key`: the last
    /// such stride on a tie), at its place in stride-list order.
    fn select(&mut self) {
        self.cycle += 1;
        let (cycle, pos) = (self.cycle, self.pos);
        if let Some((idx, st)) = self
            .strides
            .iter_mut()
            .enumerate()
            .filter(|(_, st)| !st.active && cycle - st.last_selected_cycle >= st.stride as u64)
            .max_by_key(|(_, st)| cycle - st.removed_at_cycle)
        {
            st.activate(pos);
            st.last_selected_cycle = cycle;
            let at = self.active_list.partition_point(|&ai| (ai as usize) < idx);
            self.active_list.insert(at, idx as u32);
        }
    }

    /// Both directions: the input is taken in runs that end where the
    /// next selection is due, so no byte pays for finding that boundary.
    fn transform<const FORWARD: bool>(&mut self, input: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; input.len()];
        let mut done = 0;
        while done < input.len() {
            let end = input.len().min(done.saturating_add(self.until_selection));
            let (run, out) = (&input[done..end], &mut out[done..end]);
            let taken = match self.active_list.len() {
                0 => self.copy_run(run, out),
                1 => self.single_stride_run::<FORWARD>(run, out),
                _ => self.predict_run::<FORWARD>(run, out),
            };
            done += taken;
            self.until_selection -= taken;
            if self.until_selection == 0 {
                self.select();
                self.until_selection = self.config.selection_cycle;
            }
        }
        out
    }

    /// Forward transform (§III-B): returns the delta stream `y`.
    pub fn forward(&mut self, input: &[u8]) -> Vec<u8> {
        self.transform::<true>(input)
    }

    /// Inverse transform (§III-C): reconstructs `x` from the delta stream.
    pub fn inverse(&mut self, input: &[u8]) -> Vec<u8> {
        self.transform::<false>(input)
    }

    /// Number of currently active strides (observability for tests and
    /// the tuning bench).
    pub fn active_strides(&self) -> usize {
        self.active_list.len()
    }

    /// Per-stride diagnostics, most-effective strides first (by hit rate
    /// among active strides, then by stride). Lets tooling answer the
    /// §III-A question "which strides matter for this input" — typically
    /// "one or two linear sequences are enough".
    pub fn stride_reports(&self) -> Vec<StrideReport> {
        let mut out: Vec<StrideReport> = self
            .strides
            .iter()
            .map(|st| StrideReport {
                stride: st.stride,
                active: st.active,
                hits: st.hits,
                observations: st.total(self.pos),
                best_run: (0..st.stride)
                    .map(|phi| self.table[st.table_offset + phi].run)
                    .max()
                    .unwrap_or(0),
            })
            .collect();
        out.sort_by(|a, b| {
            b.active
                .cmp(&a.active)
                .then(b.hit_rate().total_cmp(&a.hit_rate()))
                .then(a.stride.cmp(&b.stride))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_stream(n: i32) -> Vec<u8> {
        let mut data = Vec::new();
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    data.extend_from_slice(&x.to_be_bytes());
                    data.extend_from_slice(&y.to_be_bytes());
                    data.extend_from_slice(&z.to_be_bytes());
                }
            }
        }
        data
    }

    fn roundtrip(config: &TransformConfig, data: &[u8]) -> Vec<u8> {
        let t = StridePredictor::new(config.clone()).forward(data);
        let back = StridePredictor::new(config.clone()).inverse(&t);
        assert_eq!(back, data, "inverse(forward(x)) != x");
        t
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        let c = TransformConfig::default();
        roundtrip(&c, b"");
        roundtrip(&c, b"a");
        roundtrip(&c, b"ab");
        roundtrip(&c, &[0u8; 10]);
    }

    #[test]
    fn roundtrip_grid_stream() {
        let c = TransformConfig::default();
        roundtrip(&c, &grid_stream(12));
    }

    #[test]
    fn roundtrip_random_data() {
        let mut state = 5u64;
        let data: Vec<u8> = (0..30_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        roundtrip(&TransformConfig::default(), &data);
        roundtrip(&TransformConfig::brute_force(20), &data);
        roundtrip(&TransformConfig::fixed(vec![12]), &data);
    }

    #[test]
    fn grid_stream_becomes_mostly_zero() {
        // The whole point of the transform: on a regular grid walk, almost
        // every byte is predicted and the delta stream is almost all 0.
        let c = TransformConfig::default();
        let data = grid_stream(16); // records of 12 bytes
        let t = roundtrip(&c, &data);
        let zeros = t.iter().filter(|&&b| b == 0).count();
        // Wrap rows (the z coordinate resets every 16 records, a stride of
        // 192 > max_stride) stay unpredictable; everything else zeroes.
        assert!(
            zeros as f64 > 0.92 * t.len() as f64,
            "only {zeros}/{} zero bytes after transform",
            t.len()
        );
    }

    #[test]
    fn fixed_stride_matches_record_size_predicts_well() {
        let data = grid_stream(16);
        let c = TransformConfig::fixed(vec![12]);
        let t = roundtrip(&c, &data);
        let zeros = t.iter().filter(|&&b| b == 0).count();
        assert!(
            zeros as f64 > 0.9 * t.len() as f64,
            "stride-12 should predict a 12-byte-record stream: {zeros}/{}",
            t.len()
        );
    }

    #[test]
    fn wrong_fixed_stride_predicts_poorly() {
        let data = grid_stream(16);
        let good = TransformConfig::fixed(vec![12]);
        let bad = TransformConfig::fixed(vec![7]);
        let tg = roundtrip(&good, &data);
        let tb = roundtrip(&bad, &data);
        let zg = tg.iter().filter(|&&b| b == 0).count();
        let zb = tb.iter().filter(|&&b| b == 0).count();
        assert!(
            zg > zb,
            "stride 12 ({zg} zeros) must beat stride 7 ({zb} zeros)"
        );
    }

    #[test]
    fn adaptive_evicts_useless_strides() {
        let c = TransformConfig::adaptive(50);
        let mut p = StridePredictor::new(c);
        let data = grid_stream(12);
        let _ = p.forward(&data);
        // On a perfectly regular stream most strides mispredict (only
        // multiples of 12 survive); the active set must have shrunk.
        assert!(
            p.active_strides() < 50,
            "active set did not shrink: {}",
            p.active_strides()
        );
    }

    #[test]
    fn brute_force_never_evicts() {
        let c = TransformConfig::brute_force(50);
        let mut p = StridePredictor::new(c);
        let _ = p.forward(&grid_stream(10));
        assert_eq!(p.active_strides(), 50);
    }

    #[test]
    fn streaming_chunks_equal_one_shot() {
        // Feeding the data in chunks must produce the identical stream
        // (constant-size state, no lookahead — §III-D).
        let data = grid_stream(10);
        let c = TransformConfig::default();
        let one = StridePredictor::new(c.clone()).forward(&data);
        let mut p = StridePredictor::new(c);
        let mut chunked = Vec::new();
        for chunk in data.chunks(997) {
            chunked.extend_from_slice(&p.forward(chunk));
        }
        assert_eq!(one, chunked);
    }

    #[test]
    fn linear_counter_stream_is_predicted() {
        // A pure 32-bit counter: low byte advances by 1 with stride 4
        // (the Fig. 2 pattern with δ=1).
        let data: Vec<u8> = (0..4000u32).flat_map(|i| i.to_be_bytes()).collect();
        let c = TransformConfig::adaptive(16);
        let t = roundtrip(&c, &data);
        let zeros = t.iter().filter(|&&b| b == 0).count();
        assert!(
            zeros as f64 > 0.95 * t.len() as f64,
            "counter stream should be almost fully predicted: {zeros}/{}",
            t.len()
        );
    }

    #[test]
    #[should_panic(expected = "need at least one stride")]
    fn fixed_requires_strides() {
        let _ = TransformConfig::fixed(vec![]);
    }

    #[test]
    fn stride_reports_identify_the_record_size() {
        // §III-A: "one or two linear sequences are enough to achieve most
        // of the compression ... typically equal to, or a small multiple
        // of, the size of the serialized key/value pair." The top report
        // on a 12-byte-record stream must be a multiple of 12.
        let mut p = StridePredictor::new(TransformConfig::adaptive(50));
        let _ = p.forward(&grid_stream(12));
        let reports = p.stride_reports();
        let top = &reports[0];
        assert!(top.active);
        assert_eq!(top.stride % 12, 0, "top stride {}", top.stride);
        assert!(top.hit_rate() > 0.9, "hit rate {}", top.hit_rate());
        assert!(top.best_run > 100);
        // Reports cover the full stride universe.
        assert_eq!(reports.len(), 50);
    }

    #[test]
    fn adapts_across_multi_variable_streams() {
        // §III: "If multiple variables are output ... they may have
        // different stride lengths due to different shapes." A stream that
        // switches from 12-byte records (3-D keys) to 8-byte records
        // (2-D keys) defeats any single fixed stride, but the adaptive
        // detector re-tunes after the switch.
        let mut data = Vec::new();
        for x in 0..20i32 {
            for y in 0..20i32 {
                for z in 0..20i32 {
                    data.extend_from_slice(&x.to_be_bytes());
                    data.extend_from_slice(&y.to_be_bytes());
                    data.extend_from_slice(&z.to_be_bytes());
                }
            }
        }
        let switch = data.len();
        for x in 0..90i32 {
            for y in 0..90i32 {
                data.extend_from_slice(&x.to_be_bytes());
                data.extend_from_slice(&y.to_be_bytes());
            }
        }
        let adaptive = TransformConfig::default();
        let t = roundtrip(&adaptive, &data);
        // Both halves should end up mostly predicted (skip a re-learning
        // window after the switch).
        let head_zeros = t[..switch].iter().filter(|&&b| b == 0).count();
        let tail = &t[switch + 8192..];
        let tail_zeros = tail.iter().filter(|&&b| b == 0).count();
        assert!(
            head_zeros as f64 > 0.9 * switch as f64,
            "head {head_zeros}/{switch}"
        );
        assert!(
            tail_zeros as f64 > 0.9 * tail.len() as f64,
            "tail {tail_zeros}/{}",
            tail.len()
        );
        // A fixed stride tuned to the first variable does much worse on
        // the second half.
        let fixed = TransformConfig::fixed(vec![12]);
        let tf = roundtrip(&fixed, &data);
        let fixed_tail_zeros = tf[switch + 8192..].iter().filter(|&&b| b == 0).count();
        assert!(
            tail_zeros > fixed_tail_zeros,
            "adaptive tail {tail_zeros} must beat fixed-12 tail {fixed_tail_zeros}"
        );
    }

    #[test]
    fn delta_zero_counts_as_valid_prediction() {
        // §III-A: "a value of 0 for δ is still valid" — constant bytes
        // must be predicted too. All-constant stream → all zeros out
        // (after warm-up).
        let data = vec![0xABu8; 2000];
        let c = TransformConfig::adaptive(8);
        let t = roundtrip(&c, &data);
        let tail = &t[64..];
        assert!(
            tail.iter().all(|&b| b == 0),
            "constant stream not predicted"
        );
    }
}
