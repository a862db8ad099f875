//! Deterministic fault injection for the shuffle pipeline.
//!
//! Production Hadoop jobs see transient task failures, segment bit-rot,
//! and stragglers; Herodotou's performance models (PAPERS.md) show
//! failure/retry behavior dominating runtime variance. This module
//! injects those faults *reproducibly*: every decision is a pure
//! function of `(seed, fault kind, task id, attempt, index)` hashed
//! through splitmix64 — no wall clock, no global RNG — so a failing run
//! replays bit-for-bit from its seed, and tests can assert exact
//! behavior.
//!
//! The [`FaultPlan`] is consulted by the scheduler alone, at three
//! points: before a map or reduce attempt is handed to a slot (a
//! slow-down, then an injected task error), and as each segment is
//! fetched for a reduce (corruption of its logical bytes).
//! `attempt_cap` bounds injection to the first N attempts of a task,
//! which guarantees a job with `retries >= attempt_cap` always completes
//! — the property the `fault_storm` experiment asserts.
//!
//! A plan's text form ([`FaultConfig::parse`], and back through
//! `Display`) is what the command line takes, what a ledger record
//! keeps and what a worker process reads in its job payload.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use crate::error::MrError;
use std::fmt;
use std::time::Duration;

/// Fixed-point scale for fault rates: decisions compare 53 hash bits
/// against `rate * 2^53`, exactly representable for any `f64` rate.
const RATE_BITS: u32 = 53;

/// splitmix64 — the finalizer used by `SplitMix64`; passes BigCrush as a
/// mixing function and is a pure, allocation-free way to turn a decision
/// coordinate into uniform bits.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Kinds of injectable fault; feeds the hash so the same task/attempt
/// coordinate draws independent decisions per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    MapError = 1,
    ReduceError = 2,
    Corrupt = 3,
    Slow = 4,
}

/// Rates and bounds for a fault plan. Construct via [`FaultConfig::parse`]
/// or struct update syntax over [`FaultConfig::default`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed every decision derives from; same seed → same faults.
    pub seed: u64,
    /// Probability a map task attempt fails before running.
    pub map_error_rate: f64,
    /// Probability a reduce task attempt fails before running.
    pub reduce_error_rate: f64,
    /// Probability a fetched segment is corrupted before opening.
    pub corrupt_rate: f64,
    /// Probability a task attempt is artificially delayed.
    pub slow_rate: f64,
    /// Delay applied to slow tasks.
    pub slow_millis: u64,
    /// Attempts 0..cap are eligible for injection; later attempts run
    /// clean. `retries >= attempt_cap` therefore guarantees completion.
    pub attempt_cap: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            map_error_rate: 0.0,
            reduce_error_rate: 0.0,
            corrupt_rate: 0.0,
            slow_rate: 0.0,
            slow_millis: 1,
            attempt_cap: 1,
        }
    }
}

impl FaultConfig {
    /// Parse a `--faults` spec: comma-separated `key=value` pairs with
    /// keys `seed`, `map`, `reduce`, `corrupt`, `slow`, `slow_ms`, `cap`.
    ///
    /// Example: `seed=42,map=0.15,reduce=0.1,corrupt=0.08,cap=2`.
    pub fn parse(spec: &str) -> Result<Self, MrError> {
        let mut config = FaultConfig::default();
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| MrError::Config(format!("fault spec `{part}` is not key=value")))?;
            let bad =
                |what: &str| MrError::Config(format!("fault spec {key}: bad {what} `{value}`"));
            match key.trim() {
                "seed" => config.seed = value.parse().map_err(|_| bad("integer"))?,
                "map" => config.map_error_rate = parse_rate(value)?,
                "reduce" => config.reduce_error_rate = parse_rate(value)?,
                "corrupt" => config.corrupt_rate = parse_rate(value)?,
                "slow" => config.slow_rate = parse_rate(value)?,
                "slow_ms" => config.slow_millis = value.parse().map_err(|_| bad("integer"))?,
                "cap" => config.attempt_cap = value.parse().map_err(|_| bad("integer"))?,
                other => return Err(MrError::Config(format!("unknown fault spec key `{other}`"))),
            }
        }
        Ok(config)
    }
}

/// All seven keys in [`FaultConfig::parse`]'s order, which reads the
/// text back to an equal value: `f64`'s `Display` is the shortest string
/// that parses to the same rate.
impl fmt::Display for FaultConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={},map={},reduce={},corrupt={},slow={},slow_ms={},cap={}",
            self.seed,
            self.map_error_rate,
            self.reduce_error_rate,
            self.corrupt_rate,
            self.slow_rate,
            self.slow_millis,
            self.attempt_cap,
        )
    }
}

fn parse_rate(value: &str) -> Result<f64, MrError> {
    let rate: f64 = value
        .parse()
        .map_err(|_| MrError::Config(format!("fault rate `{value}` is not a number")))?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(MrError::Config(format!("fault rate {rate} outside [0, 1]")));
    }
    Ok(rate)
}

/// A corruption to apply to a segment's materialized bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Flip one bit of the payload.
    BitFlip {
        /// Bit offset, taken modulo the payload's bit length.
        bit: u64,
    },
    /// Truncate the payload to a fraction of its length.
    Truncate {
        /// Per-mille of the payload to keep (0..1000).
        keep_permille: u16,
    },
}

impl Corruption {
    /// Apply the corruption in place. Empty payloads are left unchanged —
    /// there is nothing to corrupt.
    pub fn apply(&self, data: &mut Vec<u8>) {
        if data.is_empty() {
            return;
        }
        match *self {
            Corruption::BitFlip { bit } => {
                let bit = bit % (data.len() as u64 * 8);
                data[(bit / 8) as usize] ^= 1u8 << (bit % 8);
            }
            Corruption::Truncate { keep_permille } => {
                let keep = (data.len() as u64 * keep_permille.min(999) as u64 / 1000) as usize;
                data.truncate(keep);
            }
        }
    }
}

/// A sealed fault plan: pure decision functions over task coordinates.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
}

impl FaultPlan {
    /// Seal a configuration into a plan.
    pub fn new(config: FaultConfig) -> Self {
        FaultPlan { config }
    }

    /// The configuration this plan was sealed from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Uniform bits for a decision coordinate.
    fn bits(&self, kind: Kind, task: u64, attempt: u32, index: u64) -> u64 {
        let mut h = splitmix64(self.config.seed ^ (kind as u64).wrapping_mul(0xA5A5_A5A5));
        h = splitmix64(h ^ task);
        h = splitmix64(h ^ attempt as u64);
        splitmix64(h ^ index)
    }

    /// Decide a rate-gated event; attempts at or past the cap never fire.
    fn decide(&self, kind: Kind, task: u64, attempt: u32, index: u64, rate: f64) -> bool {
        if rate <= 0.0 || attempt >= self.config.attempt_cap {
            return false;
        }
        let draw = self.bits(kind, task, attempt, index) >> (64 - RATE_BITS);
        (draw as f64) < rate * (1u64 << RATE_BITS) as f64
    }

    /// Should this map task attempt fail with an injected error?
    pub fn map_error(&self, task: u64, attempt: u32) -> bool {
        self.decide(Kind::MapError, task, attempt, 0, self.config.map_error_rate)
    }

    /// Should this reduce task attempt fail with an injected error?
    pub fn reduce_error(&self, task: u64, attempt: u32) -> bool {
        self.decide(
            Kind::ReduceError,
            task,
            attempt,
            0,
            self.config.reduce_error_rate,
        )
    }

    /// Corruption (if any) for segment `index` fetched by reduce task
    /// `task` on `attempt`.
    pub fn corruption(&self, task: u64, attempt: u32, index: u64) -> Option<Corruption> {
        if !self.decide(
            Kind::Corrupt,
            task,
            attempt,
            index,
            self.config.corrupt_rate,
        ) {
            return None;
        }
        // Independent bits (different index stream) choose the shape.
        let shape = self.bits(Kind::Corrupt, task, attempt, index ^ 0x5EED_0000_0000);
        Some(if shape & 1 == 0 {
            Corruption::BitFlip { bit: shape >> 1 }
        } else {
            Corruption::Truncate {
                keep_permille: ((shape >> 1) % 1000) as u16,
            }
        })
    }

    /// Artificial delay (if any) for this task attempt.
    pub fn slow(&self, task: u64, attempt: u32) -> Option<Duration> {
        if self.decide(Kind::Slow, task, attempt, 0, self.config.slow_rate) {
            Some(Duration::from_millis(self.config.slow_millis))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn plan(config: FaultConfig) -> FaultPlan {
        FaultPlan::new(config)
    }

    #[test]
    fn decisions_are_deterministic_across_plans() {
        let config = FaultConfig {
            seed: 42,
            map_error_rate: 0.3,
            reduce_error_rate: 0.2,
            corrupt_rate: 0.25,
            slow_rate: 0.1,
            ..FaultConfig::default()
        };
        let a = plan(config.clone());
        let b = plan(config);
        for task in 0..50u64 {
            assert_eq!(a.map_error(task, 0), b.map_error(task, 0));
            assert_eq!(a.reduce_error(task, 0), b.reduce_error(task, 0));
            assert_eq!(a.corruption(task, 0, 3), b.corruption(task, 0, 3));
            assert_eq!(a.slow(task, 0), b.slow(task, 0));
        }
    }

    #[test]
    fn different_seeds_draw_different_faults() {
        let mk = |seed| {
            plan(FaultConfig {
                seed,
                map_error_rate: 0.5,
                ..FaultConfig::default()
            })
        };
        let (a, b) = (mk(1), mk(2));
        let differs = (0..200u64).any(|t| a.map_error(t, 0) != b.map_error(t, 0));
        assert!(differs, "seeds 1 and 2 produced identical fault patterns");
    }

    #[test]
    fn observed_rate_tracks_configured_rate() {
        let p = plan(FaultConfig {
            seed: 7,
            map_error_rate: 0.25,
            ..FaultConfig::default()
        });
        let hits = (0..10_000u64).filter(|&t| p.map_error(t, 0)).count();
        // 4σ band around 2500 for p=0.25, n=10000 (σ ≈ 43).
        assert!((2300..=2700).contains(&hits), "observed {hits}/10000");
    }

    #[test]
    fn attempt_cap_silences_later_attempts() {
        let p = plan(FaultConfig {
            seed: 9,
            map_error_rate: 1.0,
            corrupt_rate: 1.0,
            slow_rate: 1.0,
            attempt_cap: 2,
            ..FaultConfig::default()
        });
        for task in 0..20u64 {
            assert!(p.map_error(task, 0));
            assert!(p.map_error(task, 1));
            assert!(!p.map_error(task, 2), "attempt at cap must run clean");
            assert!(p.corruption(task, 2, 0).is_none());
            assert!(p.slow(task, 2).is_none());
        }
    }

    #[test]
    fn zero_rates_never_fire() {
        let p = plan(FaultConfig {
            seed: 3,
            ..FaultConfig::default()
        });
        for task in 0..100u64 {
            assert!(!p.map_error(task, 0));
            assert!(!p.reduce_error(task, 0));
            assert!(p.corruption(task, 0, task).is_none());
            assert!(p.slow(task, 0).is_none());
        }
    }

    #[test]
    fn corruption_shapes_cover_both_variants() {
        let p = plan(FaultConfig {
            seed: 11,
            corrupt_rate: 1.0,
            ..FaultConfig::default()
        });
        let shapes: Vec<Corruption> = (0..50u64).filter_map(|i| p.corruption(0, 0, i)).collect();
        assert!(shapes
            .iter()
            .any(|c| matches!(c, Corruption::BitFlip { .. })));
        assert!(shapes
            .iter()
            .any(|c| matches!(c, Corruption::Truncate { .. })));
    }

    #[test]
    fn corruption_applies_in_place() {
        let original = vec![0xAAu8; 64];
        let mut flipped = original.clone();
        Corruption::BitFlip { bit: 13 }.apply(&mut flipped);
        assert_ne!(flipped, original);
        assert_eq!(flipped.len(), original.len());

        let mut truncated = original.clone();
        Corruption::Truncate { keep_permille: 500 }.apply(&mut truncated);
        assert_eq!(truncated.len(), 32);

        // keep_permille is clamped below 1000 — truncation always drops
        // at least one byte, so it is never a no-op.
        let mut clamped = original.clone();
        Corruption::Truncate {
            keep_permille: 1000,
        }
        .apply(&mut clamped);
        assert!(clamped.len() < original.len());

        let mut empty: Vec<u8> = Vec::new();
        Corruption::BitFlip { bit: 5 }.apply(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn parse_roundtrips_a_full_spec() {
        let config = FaultConfig::parse(
            "seed=42,map=0.15,reduce=0.1,corrupt=0.08,slow=0.05,slow_ms=2,cap=2",
        )
        .unwrap();
        assert_eq!(config.seed, 42);
        assert_eq!(config.map_error_rate, 0.15);
        assert_eq!(config.reduce_error_rate, 0.1);
        assert_eq!(config.corrupt_rate, 0.08);
        assert_eq!(config.slow_rate, 0.05);
        assert_eq!(config.slow_millis, 2);
        assert_eq!(config.attempt_cap, 2);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultConfig::parse("map").is_err());
        assert!(FaultConfig::parse("map=2.0").is_err());
        assert!(FaultConfig::parse("map=-0.1").is_err());
        assert!(FaultConfig::parse("map=abc").is_err());
        assert!(FaultConfig::parse("bogus=1").is_err());
        assert!(FaultConfig::parse("seed=notanumber").is_err());
        // Empty spec is a valid no-fault plan.
        assert_eq!(FaultConfig::parse("").unwrap(), FaultConfig::default());
    }

    /// A rate anywhere in [0, 1], its ends and the smallest positive
    /// `f64`s (whose decimal spelling runs to hundreds of digits)
    /// included.
    fn rate() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(1.0),
            Just(f64::MIN_POSITIVE),
            Just(f64::from_bits(1)),
            0.0f64..1.0,
        ]
    }

    fn fault_config() -> impl Strategy<Value = FaultConfig> {
        let knobs = (any::<u64>(), any::<u64>(), any::<u32>());
        (knobs, (rate(), rate(), rate(), rate())).prop_map(
            |((seed, slow_millis, attempt_cap), (map, reduce, corrupt, slow))| FaultConfig {
                seed,
                map_error_rate: map,
                reduce_error_rate: reduce,
                corrupt_rate: corrupt,
                slow_rate: slow,
                slow_millis,
                attempt_cap,
            },
        )
    }

    proptest! {
        #[test]
        fn display_is_read_back_by_parse(config in fault_config()) {
            prop_assert_eq!(FaultConfig::parse(&config.to_string()), Ok(config));
        }
    }
}
