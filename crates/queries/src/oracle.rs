//! The direct sequential implementation the MapReduce answers are
//! checked against.

use scihadoop_grid::{Coord, DataType, GridError, Variable};
use std::collections::HashMap;

/// Sliding median, computed directly: for every window centre in the
/// dilated grid (each centre whose window covers at least one grid
/// cell), the lower median of the grid cells its window covers. An even
/// window is an error.
pub fn sliding_median(var: &Variable, window: u32) -> Result<HashMap<Coord, i32>, GridError> {
    if window.is_multiple_of(2) {
        return Err(GridError::OutOfBounds {
            coord: vec![window as i32],
            context: "a sliding-median window, which must be odd".into(),
        });
    }
    if var.dtype() != DataType::I32 {
        return Err(GridError::Deserialize(format!(
            "oracle expects i32 cells, got {}",
            var.dtype().name()
        )));
    }
    let cells: Vec<i32> = var
        .raw_data()
        .chunks_exact(4)
        .map(|be| i32::from_be_bytes([be[0], be[1], be[2], be[3]]))
        .collect();
    let h = (window as i32 - 1) / 2;
    let extents = var.shape().extents();
    let strides = var.shape().strides();
    let ndims = extents.len();
    // The window clipped to the grid is a box `lo..=hi`; its rows along
    // the last dimension are contiguous in the row-major cells, so the
    // walk steps only the dimensions before it.
    let walked = ndims.saturating_sub(1);
    let (mut lo, mut hi, mut at) = (vec![0i32; ndims], vec![0i32; ndims], vec![0i32; ndims]);
    let mut values = Vec::with_capacity((window as usize).pow(ndims as u32));
    let centres = var.bounds().dilate(h);
    let mut medians = Vec::with_capacity(centres.num_cells() as usize);
    for centre in centres.cells() {
        for (d, &c) in centre.components().iter().enumerate() {
            lo[d] = (c - h).max(0);
            hi[d] = (c + h).min(extents[d] as i32 - 1);
        }
        let run = lo
            .last()
            .zip(hi.last())
            .map_or(1, |(first, last)| (last - first + 1) as usize);
        values.clear();
        at.copy_from_slice(&lo);
        'rows: loop {
            let start: u64 = at.iter().zip(&strides).map(|(&a, s)| a as u64 * s).sum();
            values.extend_from_slice(&cells[start as usize..][..run]);
            let mut d = walked;
            loop {
                if d == 0 {
                    break 'rows;
                }
                d -= 1;
                if at[d] < hi[d] {
                    at[d] += 1;
                    break;
                }
                at[d] = lo[d];
            }
        }
        values.sort_unstable();
        medians.push((centre, values[(values.len() - 1) / 2]));
    }
    let decoded = |(centre, median): &(Coord, i32)| Ok((centre.clone(), *median));
    crate::fill::fill(&[medians], 1, decoded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scihadoop_grid::{Shape, Value};

    fn tiny() -> Variable {
        // 3x3 grid:
        // 1 2 3
        // 4 5 6
        // 7 8 9
        Variable::generate("t", DataType::I32, Shape::new(vec![3, 3]), |c| {
            Value::I32(c[0] * 3 + c[1] + 1)
        })
        .unwrap()
    }

    /// The oracle's first definition: every cell scatters its value to
    /// each centre its window reaches, and each centre takes the lower
    /// median of what it received.
    fn scattered(var: &Variable, window: u32) -> HashMap<Coord, i32> {
        let h = (window as i32 - 1) / 2;
        let mut acc: HashMap<Coord, Vec<i32>> = HashMap::new();
        for cell in var.bounds().cells() {
            let Value::I32(v) = var.get(&cell).unwrap() else {
                panic!("an i32 grid")
            };
            let ndims = cell.ndims();
            let mut off = vec![-h; ndims];
            'window: loop {
                let centre: Vec<i32> = cell
                    .components()
                    .iter()
                    .zip(&off)
                    .map(|(c, o)| c + o)
                    .collect();
                acc.entry(Coord::new(centre)).or_default().push(v);
                // Odometer increment; falls off the end when exhausted.
                let mut d = ndims;
                loop {
                    if d == 0 {
                        break 'window;
                    }
                    d -= 1;
                    if off[d] < h {
                        off[d] += 1;
                        for o in off.iter_mut().skip(d + 1) {
                            *o = -h;
                        }
                        break;
                    }
                }
            }
        }
        acc.into_iter()
            .map(|(c, mut vals)| {
                vals.sort_unstable();
                (c, vals[(vals.len() - 1) / 2])
            })
            .collect()
    }

    #[test]
    fn center_cell_median_of_full_window() {
        let m = sliding_median(&tiny(), 3).unwrap();
        // Centre (1,1) sees 1..9 → median 5.
        assert_eq!(m[&Coord::new(vec![1, 1])], 5);
    }

    #[test]
    fn halo_centres_exist_with_partial_windows() {
        let m = sliding_median(&tiny(), 3).unwrap();
        // Centre (-1,-1) sees only cell (0,0) = 1.
        assert_eq!(m[&Coord::new(vec![-1, -1])], 1);
        // Dilated 3x3 → 5x5 centres.
        assert_eq!(m.len(), 25);
    }

    #[test]
    fn reads_the_grid_as_the_scatter_did() {
        for (shape, seed) in [
            (vec![17], 1),
            (vec![1], 2),
            (vec![9, 13], 3),
            (vec![2, 1], 4),
            (vec![4, 6, 5], 5),
        ] {
            let var = Variable::random_i32("r", Shape::new(shape.clone()), 50, seed).unwrap();
            for window in [1, 3, 5] {
                let direct = sliding_median(&var, window).unwrap();
                let dilated: usize = shape
                    .iter()
                    .map(|&e| e as usize + window as usize - 1)
                    .product();
                assert_eq!(direct.len(), dilated, "{shape:?} window {window}");
                assert_eq!(direct, scattered(&var, window), "{shape:?} window {window}");
            }
        }
    }

    #[test]
    fn rejects_an_even_window_and_a_non_i32_grid() {
        let var = tiny();
        for window in [0, 2, 4] {
            assert!(matches!(
                sliding_median(&var, window),
                Err(GridError::OutOfBounds { .. })
            ));
        }
        let floats = Variable::smooth_f32("f", Shape::new(vec![3, 3]), 1).unwrap();
        let err = sliding_median(&floats, 3).unwrap_err();
        assert!(
            err.to_string().contains("expects i32 cells, got f32"),
            "{err}"
        );
    }
}
