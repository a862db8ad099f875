//! In-memory scientific datasets: the NetCDF-shaped inputs the paper's
//! queries read.
//!
//! The paper runs against NetCDF files holding regular grids of named
//! variables. We keep the same logical model — a named variable is an
//! n-D array of a fixed element type — in memory, with deterministic
//! synthetic generators for the evaluation workloads.

use crate::bbox::BoundingBox;
use crate::coord::Coord;
use crate::error::GridError;
use crate::shape::Shape;
use crate::value::{DataType, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One named variable: an n-D array of `dtype` elements.
#[derive(Debug, Clone)]
pub struct Variable {
    name: String,
    dtype: DataType,
    shape: Shape,
    /// Row-major cell data, stored as raw big-endian bytes so any dtype
    /// shares one allocation strategy.
    data: Vec<u8>,
}

impl Variable {
    /// Create a variable filled with zeros.
    pub fn zeros(name: &str, dtype: DataType, shape: Shape) -> Result<Self, GridError> {
        if shape.is_empty() {
            return Err(GridError::EmptyShape);
        }
        let len = shape.num_cells() as usize * dtype.size_bytes();
        Ok(Variable {
            name: name.to_string(),
            dtype,
            shape,
            data: vec![0u8; len],
        })
    }

    /// Create a variable by evaluating `f` at every cell (row-major order).
    pub fn generate(
        name: &str,
        dtype: DataType,
        shape: Shape,
        mut f: impl FnMut(&Coord) -> Value,
    ) -> Result<Self, GridError> {
        let mut v = Variable::zeros(name, dtype, shape)?;
        // Values are appended in the row-major order the cells are walked
        // in, straight into the variable's own buffer.
        v.data.clear();
        for cell in v.bounds().cells() {
            let val = f(&cell);
            assert_eq!(val.data_type(), dtype, "generator returned wrong data type");
            val.write_be(&mut v.data);
        }
        Ok(v)
    }

    /// Deterministic pseudo-random integer field in `[0, max)`.
    pub fn random_i32(name: &str, shape: Shape, max: i32, seed: u64) -> Result<Self, GridError> {
        let mut rng = StdRng::seed_from_u64(seed);
        Variable::generate(name, DataType::I32, shape, |_| {
            Value::I32(rng.random_range(0..max))
        })
    }

    /// Deterministic smooth float field (sum of per-dimension ramps plus
    /// small noise) — a stand-in for fields like wind speed.
    pub fn smooth_f32(name: &str, shape: Shape, seed: u64) -> Result<Self, GridError> {
        let mut rng = StdRng::seed_from_u64(seed);
        Variable::generate(name, DataType::F32, shape, |c| {
            let base: f32 = c
                .components()
                .iter()
                .enumerate()
                .map(|(d, &x)| (x as f32) * 0.1 / (d + 1) as f32)
                .sum();
            Value::F32(base + rng.random_range(-0.05f32..0.05f32))
        })
    }

    /// Variable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Element type.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Grid shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The box covering the whole variable, anchored at the origin.
    pub fn bounds(&self) -> BoundingBox {
        BoundingBox::at_origin(self.shape.clone())
    }

    /// Raw big-endian cell bytes (row-major).
    pub fn raw_data(&self) -> &[u8] {
        &self.data
    }

    /// Total payload bytes (what the paper calls "the data").
    pub fn data_bytes(&self) -> u64 {
        self.data.len() as u64
    }

    /// Read the value at a coordinate.
    pub fn get(&self, coord: &Coord) -> Result<Value, GridError> {
        let idx = self.shape.linearize(coord)?;
        let off = idx as usize * self.dtype.size_bytes();
        let (v, _) = Value::read_be(self.dtype, &self.data[off..])?;
        Ok(v)
    }

    /// Write the value at a coordinate.
    pub fn set(&mut self, coord: &Coord, value: Value) -> Result<(), GridError> {
        if value.data_type() != self.dtype {
            return Err(GridError::Deserialize(format!(
                "value type {} does not match variable type {}",
                value.data_type().name(),
                self.dtype.name()
            )));
        }
        let idx = self.shape.linearize(coord)?;
        let off = idx as usize * self.dtype.size_bytes();
        let mut buf = Vec::with_capacity(self.dtype.size_bytes());
        value.write_be(&mut buf);
        self.data[off..off + buf.len()].copy_from_slice(&buf);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_then_set_get() {
        let mut v = Variable::zeros("t", DataType::I32, Shape::new(vec![4, 4])).unwrap();
        let c = Coord::new(vec![2, 3]);
        assert_eq!(v.get(&c).unwrap(), Value::I32(0));
        v.set(&c, Value::I32(-5)).unwrap();
        assert_eq!(v.get(&c).unwrap(), Value::I32(-5));
    }

    #[test]
    fn set_rejects_type_mismatch_and_oob() {
        let mut v = Variable::zeros("t", DataType::I32, Shape::new(vec![2, 2])).unwrap();
        assert!(v.set(&Coord::new(vec![0, 0]), Value::F32(1.0)).is_err());
        assert!(v.set(&Coord::new(vec![2, 0]), Value::I32(1)).is_err());
        assert!(v.get(&Coord::new(vec![0, 5])).is_err());
    }

    #[test]
    fn generate_visits_every_cell_in_row_major_order() {
        let mut seen = Vec::new();
        let v = Variable::generate("g", DataType::I32, Shape::new(vec![2, 3]), |c| {
            seen.push(c.clone());
            Value::I32(c[0] * 10 + c[1])
        })
        .unwrap();
        assert_eq!(seen.len(), 6);
        assert_eq!(seen[0].components(), &[0, 0]);
        assert_eq!(seen[5].components(), &[1, 2]);
        assert_eq!(v.get(&Coord::new(vec![1, 2])).unwrap(), Value::I32(12));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = Variable::random_i32("r", Shape::new(vec![8, 8]), 100, 42).unwrap();
        let b = Variable::random_i32("r", Shape::new(vec![8, 8]), 100, 42).unwrap();
        let c = Variable::random_i32("r", Shape::new(vec![8, 8]), 100, 43).unwrap();
        assert_eq!(a.raw_data(), b.raw_data());
        assert_ne!(a.raw_data(), c.raw_data());
    }

    #[test]
    fn generated_bytes_are_pinned() {
        // CRC-32C of the 64×64 fields as the per-cell generator (boxed
        // `Value`, scratch copy) produced them: bulk generation must not
        // change a byte for a given seed.
        use scihadoop_compress::crc32c;
        let shape = Shape::new(vec![64, 64]);
        let ints = Variable::random_i32("r", shape.clone(), 1_000_000, 42).unwrap();
        assert_eq!(crc32c(ints.raw_data()), 0x635f_c28b);
        let floats = Variable::smooth_f32("s", shape, 42).unwrap();
        assert_eq!(crc32c(floats.raw_data()), 0x78ec_9ae8);
    }

    #[test]
    fn data_bytes_counts_payload_only() {
        // The paper's 100^3 float grid is 4,000,000 bytes of payload.
        let v = Variable::zeros("w", DataType::F32, Shape::cube(100, 3)).unwrap();
        assert_eq!(v.data_bytes(), 4_000_000);
    }

    #[test]
    fn empty_shape_is_rejected() {
        assert!(Variable::zeros("e", DataType::I32, Shape::new(vec![0, 3])).is_err());
    }
}
