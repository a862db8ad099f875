//! The original per-byte, per-stride predictor, retained verbatim as an
//! executable specification: every byte scans the full stride set — once
//! to predict, once to update, once to check eviction — and divides for
//! each phase. `core_prop.rs` holds
//! [`StridePredictor`](scihadoop_core::transform::StridePredictor)
//! byte-identical to it on arbitrary inputs and configs.

use scihadoop_core::transform::TransformConfig;

#[derive(Debug, Clone, Copy, Default)]
struct Sequence {
    delta: u8,
    run: u32,
}

#[derive(Debug, Clone)]
struct StrideState {
    stride: usize,
    table_offset: usize,
    active: bool,
    hits: u64,
    total: u64,
    activated_at: u64,
    warmup: u64,
    removed_at_cycle: u64,
    last_selected_cycle: u64,
}

/// The pre-optimization predictor: every byte scans the full stride set.
#[derive(Debug, Clone)]
pub struct ReferencePredictor {
    config: TransformConfig,
    strides: Vec<StrideState>,
    table: Vec<Sequence>,
    history: Vec<u8>,
    pos: u64,
    cycle: u64,
}

impl ReferencePredictor {
    /// Fresh predictor state.
    pub fn new(config: TransformConfig) -> Self {
        let stride_list: Vec<usize> = match &config.explicit_strides {
            Some(v) => v.clone(),
            None => (1..=config.max_stride).collect(),
        };
        let mut table_len = 0usize;
        let strides = stride_list
            .iter()
            .map(|&s| {
                let st = StrideState {
                    stride: s,
                    table_offset: table_len,
                    active: true,
                    hits: 0,
                    total: 0,
                    activated_at: 0,
                    warmup: s as u64,
                    removed_at_cycle: 0,
                    last_selected_cycle: 0,
                };
                table_len += s;
                st
            })
            .collect();
        ReferencePredictor {
            history: vec![0u8; config.max_stride.max(1)],
            config,
            strides,
            table: vec![Sequence::default(); table_len],
            pos: 0,
            cycle: 0,
        }
    }

    #[inline]
    fn hist(&self, back: usize) -> u8 {
        let idx = (self.pos as usize - back) % self.history.len();
        self.history[idx]
    }

    #[inline]
    fn predict(&self) -> Option<u8> {
        let mut best_run = self.config.run_threshold;
        let mut best: Option<u8> = None;
        for st in &self.strides {
            if !st.active || (st.stride as u64) > self.pos {
                continue;
            }
            let phase = (self.pos % st.stride as u64) as usize;
            let seq = &self.table[st.table_offset + phase];
            if seq.run > best_run {
                best_run = seq.run;
                best = Some(self.hist(st.stride).wrapping_add(seq.delta));
            }
        }
        best
    }

    fn advance(&mut self, x: u8) {
        for st in &mut self.strides {
            let s = st.stride;
            if !st.active || (s as u64) > self.pos {
                continue;
            }
            let idx = (self.pos as usize - s) % self.history.len();
            let prev = self.history[idx];
            let phase = (self.pos % s as u64) as usize;
            let seq = &mut self.table[st.table_offset + phase];
            let counted = if st.warmup > 0 {
                st.warmup -= 1;
                false
            } else {
                st.total += 1;
                true
            };
            if prev.wrapping_add(seq.delta) == x {
                seq.run += 1;
                if counted {
                    st.hits += 1;
                }
            } else {
                seq.delta = x.wrapping_sub(prev);
                seq.run = 0;
            }
        }

        let idx = (self.pos as usize) % self.history.len();
        self.history[idx] = x;
        self.pos += 1;

        if !self.config.adaptive {
            return;
        }

        let cycle = self.cycle;
        let pos = self.pos;
        let (num, den) = (
            self.config.hit_rate_num as u64,
            self.config.hit_rate_den as u64,
        );
        for st in &mut self.strides {
            if st.active
                && pos - st.activated_at >= 2 * st.stride as u64
                && st.total > 0
                && st.hits * den < st.total * num
            {
                st.active = false;
                st.removed_at_cycle = cycle;
            }
        }

        if self.pos.is_multiple_of(self.config.selection_cycle as u64) {
            self.cycle += 1;
            let cycle = self.cycle;
            if let Some(st) = self
                .strides
                .iter_mut()
                .filter(|st| !st.active && cycle - st.last_selected_cycle >= st.stride as u64)
                .max_by_key(|st| cycle - st.removed_at_cycle)
            {
                st.active = true;
                st.hits = 0;
                st.total = 0;
                st.activated_at = pos;
                st.warmup = st.stride as u64;
                st.last_selected_cycle = cycle;
            }
        }
    }

    /// Forward transform: returns the delta stream `y`.
    pub fn forward(&mut self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len());
        for &x in input {
            let y = match self.predict() {
                Some(p) => x.wrapping_sub(p),
                None => x,
            };
            out.push(y);
            self.advance(x);
        }
        out
    }

    /// Inverse transform: reconstructs `x` from the delta stream.
    pub fn inverse(&mut self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len());
        for &y in input {
            let x = match self.predict() {
                Some(p) => y.wrapping_add(p),
                None => y,
            };
            out.push(x);
            self.advance(x);
        }
        out
    }

    /// Number of currently active strides.
    pub fn active_strides(&self) -> usize {
        self.strides.iter().filter(|s| s.active).count()
    }
}
