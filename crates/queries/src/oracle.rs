//! The direct sequential implementation the MapReduce answers are
//! checked against.

use scihadoop_grid::{Coord, GridError, Variable};
use std::collections::HashMap;

/// Sliding median, computed directly: for every window centre in the
/// dilated grid (centres receive contributions from grid cells within
/// the window), the lower median of the contributing values.
pub fn sliding_median(var: &Variable, window: u32) -> Result<HashMap<Coord, i32>, GridError> {
    assert!(window % 2 == 1, "window must be odd");
    let h = (window as i32 - 1) / 2;
    let mut acc: HashMap<Coord, Vec<i32>> = HashMap::new();
    for cell in var.bounds().cells() {
        let v = match var.get(&cell)? {
            scihadoop_grid::Value::I32(v) => v,
            other => {
                return Err(GridError::Deserialize(format!(
                    "oracle expects i32 cells, got {}",
                    other.data_type().name()
                )))
            }
        };
        // The cell contributes to every centre within the window.
        let ndims = cell.ndims();
        let mut off = vec![-h; ndims];
        'window: loop {
            let centre = Coord::new(
                cell.components()
                    .iter()
                    .zip(&off)
                    .map(|(c, o)| c + o)
                    .collect(),
            );
            acc.entry(centre).or_default().push(v);
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
    Ok(acc
        .into_iter()
        .map(|(c, mut vals)| {
            vals.sort_unstable();
            (c, vals[(vals.len() - 1) / 2])
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scihadoop_grid::{DataType, Shape, Value};

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
}
