//! Complete-data dominance and skyline computation.
//!
//! The paper evaluates accuracy against "the query result derived based on
//! the corresponding *complete* data", so this module is the ground-truth
//! oracle of the whole reproduction. Two independent algorithms are provided
//! (block-nested-loop and sort-filter-skyline) and cross-checked by property
//! tests.

use crate::dataset::Dataset;
use crate::domain::Value;
use crate::error::DataError;
use crate::ids::ObjectId;
use std::cmp::Reverse;

/// Dominance over complete rows (Definition 1): `a` dominates `b` iff `a` is
/// not worse anywhere and strictly better somewhere. Larger is better.
#[inline]
pub fn dominates(a: &[Value], b: &[Value]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strictly_better = false;
    for (&x, &y) in a.iter().zip(b) {
        if x < y {
            return false;
        }
        if x > y {
            strictly_better = true;
        }
    }
    strictly_better
}

/// The cells of a complete dataset, row after row in one buffer: object
/// `i`'s row is `cells[i * d..(i + 1) * d]` for `d` attributes.
fn dense_cells(data: &Dataset) -> Result<Vec<Value>, DataError> {
    let mut cells = Vec::with_capacity(data.n_objects() * data.n_attrs());
    for o in data.objects() {
        for &cell in data.row(o) {
            cells.push(cell.ok_or(DataError::IncompleteData {
                operation: "skyline",
            })?);
        }
    }
    Ok(cells)
}

/// Skyline by block-nested-loop over a complete dataset (Definition 2).
///
/// ```
/// use bc_data::{Dataset, ObjectId, domain::uniform_domains, skyline::skyline_bnl};
///
/// // The paper's intro example: m2 and m3 are the skyline movies.
/// let movies = Dataset::from_complete_rows(
///     "movies",
///     uniform_domains(3, 10).unwrap(),
///     vec![vec![3, 2, 1], vec![4, 2, 3], vec![2, 3, 2]],
/// )
/// .unwrap();
/// assert_eq!(skyline_bnl(&movies).unwrap(), vec![ObjectId(1), ObjectId(2)]);
/// ```
///
/// # Errors
///
/// Returns [`DataError::IncompleteData`] if any cell is missing.
pub fn skyline_bnl(data: &Dataset) -> Result<Vec<ObjectId>, DataError> {
    let (n, d) = (data.n_objects(), data.n_attrs());
    let cells = dense_cells(data)?;
    let row = |i: usize| &cells[i * d..(i + 1) * d];
    let mut out = Vec::new();
    'outer: for i in 0..n {
        for j in 0..n {
            if i != j && dominates(row(j), row(i)) {
                continue 'outer;
            }
        }
        out.push(ObjectId(i as u32));
    }
    Ok(out)
}

/// Skyline by sort-filter-skyline: rows are visited in descending order of
/// coordinate sum, so a row can only be dominated by an earlier-visited row.
/// Much faster than [`skyline_bnl`] when the skyline is small.
///
/// # Errors
///
/// Returns [`DataError::IncompleteData`] if any cell is missing.
pub fn skyline_sfs(data: &Dataset) -> Result<Vec<ObjectId>, DataError> {
    let (n, d) = (data.n_objects(), data.n_attrs());
    let cells = dense_cells(data)?;
    let row = |i: usize| &cells[i * d..(i + 1) * d];
    // Descending sum, each computed once; ties broken by index for
    // determinism.
    let mut order: Vec<(Reverse<u64>, usize)> = (0..n)
        .map(|i| (Reverse(row(i).iter().map(|&v| u64::from(v)).sum()), i))
        .collect();
    order.sort_unstable();

    let mut window: Vec<usize> = Vec::new();
    'outer: for &(_, i) in &order {
        for &w in &window {
            if dominates(row(w), row(i)) {
                continue 'outer;
            }
        }
        window.push(i);
    }
    let mut out: Vec<ObjectId> = window.into_iter().map(|i| ObjectId(i as u32)).collect();
    out.sort_unstable();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::uniform_domains;

    fn ds(rows: Vec<Vec<Value>>) -> Dataset {
        let d = rows[0].len();
        Dataset::from_complete_rows("t", uniform_domains(d, 16).unwrap(), rows).unwrap()
    }

    #[test]
    fn dominance_definition() {
        assert!(dominates(&[4, 2, 3], &[3, 2, 1]));
        assert!(!dominates(&[3, 2, 1], &[4, 2, 3]));
        assert!(!dominates(&[1, 2], &[1, 2])); // equal: no strict better
        assert!(!dominates(&[5, 0], &[0, 5])); // incomparable
    }

    #[test]
    fn intro_movie_example() {
        // m1=(3,2,1), m2=(4,2,3), m3=(2,3,2): skyline is {m2, m3}.
        let data = ds(vec![vec![3, 2, 1], vec![4, 2, 3], vec![2, 3, 2]]);
        let sky = skyline_bnl(&data).unwrap();
        assert_eq!(sky, vec![ObjectId(1), ObjectId(2)]);
        assert_eq!(skyline_sfs(&data).unwrap(), sky);
    }

    #[test]
    fn duplicate_rows_all_survive() {
        // Neither of two equal rows dominates the other.
        let data = ds(vec![vec![2, 2], vec![2, 2], vec![1, 1]]);
        let sky = skyline_bnl(&data).unwrap();
        assert_eq!(sky, vec![ObjectId(0), ObjectId(1)]);
        assert_eq!(skyline_sfs(&data).unwrap(), sky);
    }

    #[test]
    fn single_dominant_point() {
        let data = ds(vec![vec![9, 9], vec![1, 2], vec![3, 0]]);
        assert_eq!(skyline_bnl(&data).unwrap(), vec![ObjectId(0)]);
        assert_eq!(skyline_sfs(&data).unwrap(), vec![ObjectId(0)]);
    }

    #[test]
    fn incomplete_data_is_rejected() {
        let data = Dataset::from_rows(
            "t",
            uniform_domains(2, 4).unwrap(),
            vec![vec![Some(1), None]],
        )
        .unwrap();
        assert!(matches!(
            skyline_bnl(&data),
            Err(DataError::IncompleteData { .. })
        ));
        assert!(skyline_sfs(&data).is_err());
    }
}
