//! Every codec × every framing through the full engine, plus corruption
//! behaviour at the engine boundary.

use scihadoop::compress::{BzipCodec, Codec, CompressError, DeflateCodec, IdentityCodec};
use scihadoop::core::transform::{TransformCodec, TransformConfig};
use scihadoop::mapreduce::{
    Counter, Emit, FnMapper, FnReducer, Framing, InputSplit, Job, JobConfig, KvPair,
};
use std::collections::HashMap;
use std::sync::Arc;

fn codecs() -> Vec<Arc<dyn Codec>> {
    vec![
        Arc::new(IdentityCodec),
        Arc::new(DeflateCodec::new()),
        Arc::new(BzipCodec::with_level(1)),
        Arc::new(TransformCodec::with_defaults(Arc::new(DeflateCodec::new()))),
        Arc::new(TransformCodec::with_defaults(Arc::new(
            BzipCodec::with_level(1),
        ))),
        Arc::new(TransformCodec::new(
            TransformConfig::fixed(vec![12]),
            Arc::new(IdentityCodec),
        )),
    ]
}

fn run_count_job(codec: Arc<dyn Codec>, framing: Framing) -> HashMap<Vec<u8>, u64> {
    // Grid-walk shaped keys so compressing codecs have structure to find.
    let pairs: Vec<KvPair> = (0..600u32)
        .map(|i| {
            let key: Vec<u8> = [
                (i / 100).to_be_bytes(),
                ((i / 10) % 10).to_be_bytes(),
                (i % 10).to_be_bytes(),
            ]
            .concat();
            KvPair::new(key, vec![1u8])
        })
        .collect();
    let splits: Vec<InputSplit> = pairs
        .chunks(150)
        .map(|c| InputSplit::new(c.to_vec()))
        .collect();
    let mapper = Arc::new(FnMapper(|k: &[u8], v: &[u8], out: &mut dyn Emit| {
        out.emit(k, v)
    }));
    let reducer = Arc::new(FnReducer(
        |k: &[u8], values: &[&[u8]], out: &mut dyn Emit| {
            out.emit(k, &(values.len() as u64).to_be_bytes());
        },
    ));
    let result = Job::new(
        JobConfig::default()
            .with_reducers(3)
            .with_codec(codec)
            .with_framing(framing),
    )
    .run(splits, mapper, reducer)
    .unwrap();
    assert!(result.counters.get(Counter::MapOutputMaterializedBytes) > 0);
    result
        .all_outputs()
        .into_iter()
        .map(|p| {
            (
                p.key.to_vec(),
                u64::from_be_bytes(p.value[..].try_into().unwrap()),
            )
        })
        .collect()
}

#[test]
fn every_codec_and_framing_produces_identical_answers() {
    let reference = run_count_job(Arc::new(IdentityCodec), Framing::SequenceFile);
    assert_eq!(reference.len(), 600);
    for codec in codecs() {
        for framing in [Framing::SequenceFile, Framing::IFile] {
            let name = codec.name();
            let got = run_count_job(codec.clone(), framing);
            assert_eq!(got, reference, "codec {name} framing {framing:?}");
        }
    }
}

#[test]
fn transform_codecs_decompress_each_others_rejections() {
    // A stream produced by one transform config must be refused by a
    // codec with a different stride universe instead of corrupting data.
    let a = TransformCodec::new(TransformConfig::adaptive(100), Arc::new(IdentityCodec));
    let b = TransformCodec::new(TransformConfig::adaptive(64), Arc::new(IdentityCodec));
    let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_be_bytes()).collect();
    let z = a.compress(&data);
    assert!(matches!(b.decompress(&z), Err(CompressError::Corrupt(_))));
    assert_eq!(a.decompress(&z).unwrap(), data);
}

#[test]
fn codec_throughput_counters_are_populated() {
    let pairs: Vec<KvPair> = (0..2000u32)
        .map(|i| KvPair::new(i.to_be_bytes().to_vec(), vec![0u8; 16]))
        .collect();
    let splits = vec![InputSplit::new(pairs)];
    let mapper = Arc::new(FnMapper(|k: &[u8], v: &[u8], out: &mut dyn Emit| {
        out.emit(k, v)
    }));
    let reducer = Arc::new(FnReducer(
        |k: &[u8], _values: &[&[u8]], out: &mut dyn Emit| out.emit(k, b"done"),
    ));
    let result = Job::new(JobConfig::default().with_codec(Arc::new(DeflateCodec::new())))
        .run(splits, mapper, reducer)
        .unwrap();
    assert!(result.stats.compress_nanos > 0);
    assert!(result.stats.decompress_nanos > 0);
    assert!(result.stats.spill_nanos > 0);
    assert!(result.stats.merge_nanos > 0);
    assert!(
        result.stats.map_output_materialized_bytes < result.stats.map_output_bytes,
        "deflate should compress 16-byte-constant values"
    );
}
