//! Dominator-set derivation (Definition 5 / Eq. 1–2 of the paper).
//!
//! For an object `o`, the dominator set `D(o)` contains every object that
//! could possibly dominate `o` under *some* completion of the missing
//! values:
//!
//! ```text
//! D(o)   = ∩_i D_i(o)
//! D_i(o) = { p ≠ o | o[i] ≤ p[i] } ∪ O_i   if o[i] observed
//!          O − {o}                          otherwise
//! ```
//!
//! Two derivations are provided: [`DominatorIndex`] — the paper's fast path
//! (sort each dimension once, then answer every `D_i(o)` with precomputed
//! bitsets and combine with bitwise AND/OR) — and
//! [`baseline_dominator_set`], the pairwise-comparison baseline the paper
//! benchmarks against in Figure 2.

use crate::bitset::BitSet;
use bc_data::{Dataset, ObjectId};

/// Precomputed per-dimension bitsets enabling `D(o)` in
/// `O(d · |O| / 64)` word operations per object.
pub struct DominatorIndex {
    n: usize,
    /// `geq[a][v]` = objects whose value in attribute `a` is observed and
    /// `>= v`.
    geq: Vec<Vec<BitSet>>,
    /// `missing[a]` = objects whose value in attribute `a` is missing
    /// (the paper's `O_i`).
    missing: Vec<BitSet>,
}

impl DominatorIndex {
    /// Builds the index: one descending sweep per attribute.
    pub fn build(data: &Dataset) -> DominatorIndex {
        let n = data.n_objects();
        let mut geq = Vec::with_capacity(data.n_attrs());
        let mut missing = Vec::with_capacity(data.n_attrs());
        for a in data.attrs() {
            let card = data.domain(a).cardinality() as usize;
            let mut miss = BitSet::empty(n);
            // Bucket objects by value.
            let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); card];
            for o in data.objects() {
                match data.get(o, a) {
                    Some(v) => buckets[v as usize].push(o.index()),
                    None => miss.insert(o.index()),
                }
            }
            // Accumulate from the top value downwards: geq[v] ⊇ geq[v+1].
            let mut acc = BitSet::empty(n);
            let mut per_value = vec![BitSet::empty(0); card];
            for v in (0..card).rev() {
                for &i in &buckets[v] {
                    acc.insert(i);
                }
                per_value[v] = acc.clone();
            }
            geq.push(per_value);
            missing.push(miss);
        }
        DominatorIndex { n, geq, missing }
    }

    /// The dominator set `D(o)` as a bitset over object indices.
    pub fn dominator_set(&self, data: &Dataset, o: ObjectId) -> BitSet {
        let mut result = BitSet::full(self.n);
        let row = data.row(o);
        for (a, cell) in row.iter().enumerate() {
            if let Some(v) = cell {
                // D_i(o) = geq[v] ∪ O_i.
                result.intersect_with_union(&self.geq[a][*v as usize], &self.missing[a]);
            }
            // Missing o[i]: D_i(o) is the full universe — no-op.
        }
        result.remove(o.index());
        result
    }
}

/// The baseline derivation: a pairwise scan testing, for every other object
/// `p`, whether `p` can possibly dominate `o` (`p` not observed-worse than
/// `o` in any attribute).
pub fn baseline_dominator_set(data: &Dataset, o: ObjectId) -> BitSet {
    let mut result = BitSet::empty(data.n_objects());
    let o_row = data.row(o);
    for p in data.objects() {
        if p == o {
            continue;
        }
        let p_row = data.row(p);
        let possible = o_row.iter().zip(p_row).all(|(oc, pc)| match (oc, pc) {
            (Some(ov), Some(pv)) => ov <= pv,
            _ => true,
        });
        if possible {
            result.insert(p.index());
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_data::generators::sample::paper_dataset;
    use bc_data::missing::inject_mcar;

    /// Table 4 of the paper: the dominator sets over the sample dataset.
    #[test]
    fn paper_table_4() {
        let data = paper_dataset();
        let idx = DominatorIndex::build(&data);
        let sets: Vec<Vec<usize>> = data
            .objects()
            .map(|o| idx.dominator_set(&data, o).iter().collect())
            .collect();
        assert_eq!(sets[0], vec![4], "D(o1) = {{o5}}");
        assert_eq!(sets[1], Vec::<usize>::new(), "D(o2) = {{}}");
        assert_eq!(sets[2], Vec::<usize>::new(), "D(o3) = {{}}");
        assert_eq!(sets[3], vec![1, 4], "D(o4) = {{o2, o5}}");
        assert_eq!(sets[4], vec![0, 1], "D(o5) = {{o1, o2}}");
    }

    #[test]
    fn fast_index_agrees_with_baseline() {
        let complete = bc_data::generators::classic::independent(300, 5, 10, 77);
        let (data, _) = inject_mcar(&complete, 0.15, 78);
        let idx = DominatorIndex::build(&data);
        for o in data.objects() {
            assert_eq!(
                idx.dominator_set(&data, o),
                baseline_dominator_set(&data, o),
                "mismatch at {o}"
            );
        }
    }

    #[test]
    fn fully_missing_object_has_universe_dominator_set() {
        let complete = bc_data::generators::classic::independent(20, 3, 8, 5);
        let mut data = complete.clone();
        for a in data.attrs() {
            data.set(ObjectId(0), a, None).unwrap();
        }
        let idx = DominatorIndex::build(&data);
        assert_eq!(idx.dominator_set(&data, ObjectId(0)).count(), 19);
    }
}
