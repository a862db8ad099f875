//! §III — Semantically-informed byte-level compression.
//!
//! A stream of serialized grid keys is almost periodic: walking a regular
//! grid produces records whose bytes repeat with a stride equal to (a
//! small multiple of) the record size, except for a few counter bytes
//! that advance linearly (Fig. 2 highlights one such sequence with
//! δ=0x0a, s=47, φ=34). Generic compressors stumble on those changing
//! bytes; this transform predicts them and emits deltas from the
//! prediction, after which the stream is mostly zeros and compresses by
//! orders of magnitude (Fig. 3).
//!
//! The adaptive detector maintains a *full set* of strides (all strides
//! up to a maximum) and an *active set* that is actually consulted each
//! byte. Strides whose hit rate falls below 5/6 after at least `2s` bytes
//! of residency are evicted; every 256-byte *selection cycle* one evicted
//! stride is re-admitted, each stride eligible once every `s` cycles
//! (§III-A). The forward and inverse transforms share the predictor state
//! machine, so the inverse needs no side information (§III-C).

mod analyze;
mod codec;
mod predictor;

pub use analyze::{detect_sequences, SequenceReport};
pub use codec::TransformCodec;
pub use predictor::{StridePredictor, StrideReport, TransformConfig};

/// Forward-transform a whole buffer with a fresh predictor.
pub fn forward(config: &TransformConfig, data: &[u8]) -> Vec<u8> {
    let mut p = StridePredictor::new(config.clone());
    p.forward(data)
}

/// Inverse-transform a whole buffer with a fresh predictor.
pub fn inverse(config: &TransformConfig, data: &[u8]) -> Vec<u8> {
    let mut p = StridePredictor::new(config.clone());
    p.inverse(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_level_helpers_roundtrip() {
        let config = TransformConfig::default();
        let data: Vec<u8> = (0..2000u32).flat_map(|i| i.to_be_bytes()).collect();
        let t = forward(&config, &data);
        assert_eq!(inverse(&config, &t), data);
        assert_eq!(t.len(), data.len(), "transform is size-preserving");
    }
}
