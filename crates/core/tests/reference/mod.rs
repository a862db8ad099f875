//! Pre-optimization implementations kept as test oracles.

mod aggregator;
mod predictor;

pub use aggregator::ReferenceAggregator;
pub use predictor::ReferencePredictor;
