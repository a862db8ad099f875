//! Codec-by-name factory for the `repro` CLI and experiment configs.
//!
//! The grammar composes the workspace's codecs the same way the paper
//! plugs its compression module into Hadoop's pluggable codec slot —
//! one whole-buffer codec per segment, optionally behind the §III
//! stride transform:
//!
//! ```text
//! name      := "transform+" name        stride transform ∘ inner
//!            | "transform"              stride transform alone
//!            | "identity" | "lz" | "deflate" | "bzip"
//! ```
//!
//! so `--codec transform+deflate` builds `TransformCodec(DeflateCodec)`,
//! the paper's §III-E configuration. Every name parses to a codec whose
//! [`Codec::name`](scihadoop_compress::Codec::name) round-trips to the
//! requested string.

use scihadoop_compress::{BzipCodec, CodecHandle, DeflateCodec, IdentityCodec, LzCodec};
use scihadoop_core::transform::TransformCodec;
use std::sync::Arc;

/// Build a codec from its composed name.
pub fn codec_by_name(name: &str) -> Result<CodecHandle, String> {
    if let Some(rest) = name.strip_prefix("transform+") {
        let inner = codec_by_name(rest)?;
        return Ok(Arc::new(TransformCodec::with_defaults(inner)));
    }
    match name {
        "transform" => Ok(Arc::new(TransformCodec::with_defaults(Arc::new(
            IdentityCodec,
        )))),
        "identity" => Ok(Arc::new(IdentityCodec)),
        "lz" => Ok(Arc::new(LzCodec)),
        "deflate" => Ok(Arc::new(DeflateCodec::new())),
        "bzip" => Ok(Arc::new(BzipCodec::new())),
        other => Err(format!(
            "unknown codec {other:?}; grammar: [transform+](identity|lz|deflate|bzip)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every name the grammar generates (the optional prefix crossed
    /// with every base codec) must build, round-trip its own name, and
    /// round-trip data — so a new base codec cannot be half-wired into
    /// the factory the way a static `name()` once collapsed wrapped
    /// codecs together.
    #[test]
    fn the_full_grammar_round_trips_names_and_data() {
        let data: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_be_bytes()).collect();
        for base in ["identity", "lz", "deflate", "bzip"] {
            for prefix in ["", "transform+"] {
                let name = format!("{prefix}{base}");
                let codec = codec_by_name(&name).expect(&name);
                // "transform+identity" normalizes to "transform" — the
                // one composed name the grammar spells differently.
                let expect = if name == "transform+identity" {
                    "transform"
                } else {
                    name.as_str()
                };
                assert_eq!(codec.name(), expect, "{name}");
                let z = codec.compress(&data);
                assert_eq!(codec.decompress(&z).expect(&name), data, "{name}");
            }
        }
        assert_eq!(codec_by_name("transform").unwrap().name(), "transform");
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(codec_by_name("gzip").is_err());
        assert!(codec_by_name("transform+lzma").is_err());
        // The parallel block frame and the run-length base are gone;
        // their spellings get the factory's ordinary error, which names
        // the grammar.
        for name in [
            "rle",
            "transform+rle",
            "block-",
            "block-lz",
            "block-transform+deflate",
            "transform+block-deflate",
        ] {
            let err = codec_by_name(name).err().expect(name);
            assert!(
                err.contains("grammar: [transform+](identity|lz|deflate|bzip)"),
                "{name}: {err}"
            );
        }
    }
}
