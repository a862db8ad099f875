//! The transform as a pluggable codec: transform, then hand the residual
//! stream to a generic compressor ("by running on top of a generic
//! compression scheme, we retain the ability to compress other data in
//! the stream such as values", §III).

use super::predictor::{StridePredictor, TransformConfig};
use scihadoop_compress::{Codec, CompressError};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"SXF1";

/// `TransformCodec` = stride-predictive transform ∘ inner codec.
///
/// This is the "custom compression module" of §III: it can be dropped
/// anywhere a [`Codec`] is accepted (in particular the MapReduce engine's
/// intermediate-data codec slot), matching how the paper plugs its module
/// into Hadoop's pluggable compression.
#[derive(Clone)]
pub struct TransformCodec {
    config: TransformConfig,
    inner: Arc<dyn Codec>,
    name: String,
}

impl TransformCodec {
    /// Wrap `inner` with the transform using `config`.
    pub fn new(config: TransformConfig, inner: Arc<dyn Codec>) -> Self {
        // Compose the name from the actual inner codec so wrapped
        // block/pooled codecs stay distinguishable in counters and
        // reports (the old static-name fallback collapsed them all to
        // "transform+inner").
        let name = match inner.name() {
            "identity" => "transform".to_string(),
            other => format!("transform+{other}"),
        };
        TransformCodec {
            config,
            inner,
            name,
        }
    }

    /// The paper's default: adaptive detector, max stride 100.
    pub fn with_defaults(inner: Arc<dyn Codec>) -> Self {
        TransformCodec::new(TransformConfig::default(), inner)
    }

    /// Access the inner codec.
    pub fn inner(&self) -> &Arc<dyn Codec> {
        &self.inner
    }
}

impl std::fmt::Debug for TransformCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransformCodec")
            .field("config", &self.config)
            .field("inner", &self.inner.name())
            .finish()
    }
}

impl Codec for TransformCodec {
    fn name(&self) -> &str {
        &self.name
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let transformed = StridePredictor::new(self.config.clone()).forward(input);
        let compressed = self.inner.compress(&transformed);
        let mut out = Vec::with_capacity(compressed.len() + 8);
        out.extend_from_slice(MAGIC);
        // Record the stride universe so decompression reconstructs the
        // same predictor. (Selection-cycle etc. are compile-time defaults
        // in this reproduction; max_stride is the knob experiments vary.)
        out.extend_from_slice(&(self.config.max_stride as u32).to_le_bytes());
        out.extend_from_slice(&compressed);
        out
    }

    fn decompress(&self, input: &[u8]) -> Result<Vec<u8>, CompressError> {
        if input.len() < 8 || &input[..4] != MAGIC {
            return Err(CompressError::BadMagic { expected: "SXF1" });
        }
        let max_stride = u32::from_le_bytes(input[4..8].try_into().unwrap()) as usize;
        if max_stride != self.config.max_stride {
            return Err(CompressError::Corrupt(format!(
                "stream used max_stride {max_stride}, codec configured {}",
                self.config.max_stride
            )));
        }
        let transformed = self.inner.decompress(&input[8..])?;
        Ok(StridePredictor::new(self.config.clone()).inverse(&transformed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scihadoop_compress::{BzipCodec, DeflateCodec, IdentityCodec};

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

    #[test]
    fn roundtrip_over_all_inner_codecs() {
        let data = grid_stream(15);
        for inner in [
            Arc::new(IdentityCodec) as Arc<dyn Codec>,
            Arc::new(DeflateCodec::new()),
            Arc::new(BzipCodec::with_level(1)),
        ] {
            let c = TransformCodec::with_defaults(inner);
            let z = c.compress(&data);
            assert_eq!(c.decompress(&z).unwrap(), data, "codec {}", c.name());
        }
    }

    #[test]
    fn transform_improves_deflate_on_key_streams() {
        // Fig. 3's headline: transform+gzip beats gzip by ~50x on a grid
        // key stream. Require at least 4x here on a small grid.
        let data = grid_stream(20);
        let plain = DeflateCodec::new();
        let wrapped = TransformCodec::with_defaults(Arc::new(DeflateCodec::new()));
        let z_plain = plain.compress(&data).len();
        let z_wrapped = wrapped.compress(&data).len();
        assert!(
            z_wrapped * 4 < z_plain,
            "transform+deflate {z_wrapped} should be <1/4 of deflate {z_plain}"
        );
    }

    #[test]
    fn transform_improves_bzip_on_key_streams() {
        let data = grid_stream(20);
        let plain = BzipCodec::with_level(1);
        let wrapped = TransformCodec::with_defaults(Arc::new(BzipCodec::with_level(1)));
        let z_plain = plain.compress(&data).len();
        let z_wrapped = wrapped.compress(&data).len();
        assert!(
            z_wrapped < z_plain,
            "transform+bzip {z_wrapped} should beat bzip {z_plain}"
        );
    }

    #[test]
    fn mismatched_config_is_rejected() {
        let data = grid_stream(8);
        let a = TransformCodec::new(TransformConfig::adaptive(100), Arc::new(IdentityCodec));
        let b = TransformCodec::new(TransformConfig::adaptive(50), Arc::new(IdentityCodec));
        let z = a.compress(&data);
        assert!(b.decompress(&z).is_err());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let c = TransformCodec::with_defaults(Arc::new(IdentityCodec));
        assert!(c.decompress(b"nope").is_err());
        let mut z = c.compress(b"hello hello hello");
        z[0] = b'Z';
        assert!(c.decompress(&z).is_err());
    }

    #[test]
    fn names_reflect_inner_codec() {
        assert_eq!(
            TransformCodec::with_defaults(Arc::new(DeflateCodec::new())).name(),
            "transform+deflate"
        );
        assert_eq!(
            TransformCodec::with_defaults(Arc::new(BzipCodec::new())).name(),
            "transform+bzip"
        );
        assert_eq!(
            TransformCodec::with_defaults(Arc::new(IdentityCodec)).name(),
            "transform"
        );
        // Non-builtin inner codecs keep their identity instead of
        // collapsing to a "transform+inner" fallback.
        assert_eq!(
            TransformCodec::with_defaults(Arc::new(scihadoop_compress::LzCodec)).name(),
            "transform+lz"
        );
    }
}
