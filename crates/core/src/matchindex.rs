//! Sorted-projection index for rule matching.
//!
//! Matching a condition against the training set is the engine's hottest
//! loop: `O(N·D)` per offspring, once per generation. Most *evolved* rules
//! are selective — some bounded gene admits only a small slice of the data —
//! so a per-position sorted projection lets us binary-search that gene's
//! interval and verify only the candidates:
//!
//! * **build** (once per run): sort `(value, window)` pairs per position —
//!   `O(D · N log N)`,
//! * **query** (per offspring): estimate each bounded gene's selectivity by
//!   two binary searches, scan only the most selective gene's candidate
//!   range, verify the full condition on each candidate — `O(D log N + K·D)`
//!   for `K` candidates.
//!
//! Broad conditions (best selectivity worse than [`SCAN_FRACTION`] of the
//! data) fall back to the plain linear scan, which is faster there and
//! keeps the worst case unchanged. Results are always sorted ascending and
//! bit-identical to the scan — the tests pin that.

use crate::bitset::MatchBitset;
use crate::dataset::ExampleSet;
use crate::rule::Condition;
use evoforecast_linalg::regression::{NormalEqAccumulator, RegressionOptions};

/// Fall back to a linear scan when the most selective gene still admits
/// more than this fraction of the windows.
pub const SCAN_FRACTION: f64 = 0.5;

/// [`MatchIndex::toggle_gene_bitset`] declines when more than this fraction
/// of the windows would flip: past it, scattering that many random bit flips
/// costs more than a fresh range fill or columnar sweep (measured crossover,
/// DESIGN.md §10).
pub const TOGGLE_FRACTION: f64 = 0.25;

/// Per-position sorted projections of an example set.
#[derive(Debug, Clone)]
pub struct MatchIndex {
    /// `projections[p]` = `(value at position p, window id)` sorted by value.
    projections: Vec<Vec<(f64, u32)>>,
    examples: usize,
}

impl MatchIndex {
    /// Build the index. `O(D · N log N)`; windows must fit in `u32`
    /// (4 × 10⁹ — far beyond any series here).
    ///
    /// # Panics
    /// Panics when the dataset exceeds `u32::MAX` examples.
    pub fn build<E: ExampleSet>(data: &E) -> MatchIndex {
        let n = data.len();
        assert!(u32::try_from(n).is_ok(), "dataset too large for the index");
        let d = data.feature_len();
        let mut projections = Vec::with_capacity(d);
        for p in 0..d {
            let mut column: Vec<(f64, u32)> =
                (0..n).map(|i| (data.features(i)[p], i as u32)).collect();
            column.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            projections.push(column);
        }
        MatchIndex {
            projections,
            examples: n,
        }
    }

    /// Number of indexed examples.
    pub fn len(&self) -> usize {
        self.examples
    }

    /// True when the index covers no examples.
    pub fn is_empty(&self) -> bool {
        self.examples == 0
    }

    /// Candidate range `[lo, hi)` in the position-`p` projection for values
    /// inside `[lo_v, hi_v]`.
    fn range_of(&self, p: usize, lo_v: f64, hi_v: f64) -> (usize, usize) {
        let column = &self.projections[p];
        let start = column.partition_point(|&(v, _)| v < lo_v);
        let end = column.partition_point(|&(v, _)| v <= hi_v);
        (start, end)
    }

    /// Indices of the examples matched by `condition`, ascending — identical
    /// to a full scan, computed via the most selective bounded gene when one
    /// is selective enough.
    ///
    /// # Panics
    /// Panics in debug builds when the condition length differs from the
    /// indexed feature length.
    pub fn match_indices<E: ExampleSet>(&self, condition: &Condition, data: &E) -> Vec<usize> {
        debug_assert_eq!(condition.len(), self.projections.len());
        debug_assert_eq!(data.len(), self.examples);

        // Find the most selective bounded gene: (candidate count, position,
        // candidate range).
        struct BestGene {
            count: usize,
            position: usize,
            range: (usize, usize),
        }
        let mut best: Option<BestGene> = None;
        for (p, lo, hi) in condition.bounded() {
            let range = self.range_of(p, lo, hi);
            let count = range.1 - range.0;
            if best.as_ref().is_none_or(|b| count < b.count) {
                best = Some(BestGene {
                    count,
                    position: p,
                    range,
                });
            }
        }

        match best {
            Some(b) if (b.count as f64) < SCAN_FRACTION * self.examples as f64 => {
                let column = &self.projections[b.position];
                let mut out: Vec<usize> = column[b.range.0..b.range.1]
                    .iter()
                    .map(|&(_, id)| id as usize)
                    .filter(|&i| condition.matches(data.features(i)))
                    .collect();
                out.sort_unstable();
                out
            }
            // All-wildcard or broad condition: plain scan.
            _ => (0..self.examples)
                .filter(|&i| condition.matches(data.features(i)))
                .collect(),
        }
    }

    /// Like [`MatchIndex::match_indices`], but broad conditions fall back to
    /// the (possibly rayon-parallel) scan of [`crate::parallel`] instead of
    /// a sequential one — the right default inside the engine, where large
    /// datasets and broad early-generation rules coexist.
    pub fn match_indices_with_parallel_fallback<E: ExampleSet>(
        &self,
        condition: &Condition,
        data: &E,
        parallel_threshold: usize,
    ) -> Vec<usize> {
        // Re-run the selectivity probe; cheap (two binary searches per gene).
        if self.probe_is_selective(condition) {
            self.match_indices(condition, data)
        } else {
            crate::parallel::match_indices(condition, data, parallel_threshold)
        }
    }

    /// Selectivity probe shared by the fallback entry points: `true` when
    /// some bounded gene admits fewer than [`SCAN_FRACTION`] of the windows,
    /// i.e. the sorted-projection route is worth taking.
    fn probe_is_selective(&self, condition: &Condition) -> bool {
        let mut best_count = usize::MAX;
        let mut found_bounded = false;
        for (p, lo, hi) in condition.bounded() {
            found_bounded = true;
            let (start, end) = self.range_of(p, lo, hi);
            best_count = best_count.min(end - start);
        }
        found_bounded && (best_count as f64) < SCAN_FRACTION * self.examples as f64
    }

    /// Fused-path twin of
    /// [`MatchIndex::match_indices_with_parallel_fallback`]: emit the match
    /// set as a bitset *and* the accumulated normal equations. Selective
    /// conditions go through the index (`O(D log N + K·D)` matching, then
    /// `O(K·p²)` accumulation over just the `K` hits); broad ones fall back
    /// to the chunked (possibly parallel) fused scan. Both routes follow the
    /// same chunk/merge discipline, so the result is bit-identical either
    /// way.
    pub fn match_accumulate_with_parallel_fallback<E: ExampleSet>(
        &self,
        condition: &Condition,
        data: &E,
        opts: RegressionOptions,
        parallel_threshold: usize,
    ) -> (MatchBitset, NormalEqAccumulator) {
        if self.probe_is_selective(condition) {
            let indices = self.match_indices(condition, data);
            crate::parallel::accumulate_sorted_indices(&indices, data, opts)
        } else {
            crate::parallel::match_and_accumulate(condition, data, opts, parallel_threshold)
        }
    }

    /// Fill `out` with the windows whose position-`p` value lies inside
    /// `[lo, hi]`, via a range query over the sorted projection. Returns
    /// `false` — leaving `out` untouched — when the interval admits
    /// [`SCAN_FRACTION`] of the windows or more: there the columnar sweep
    /// ([`crate::dataset::fill_gene_bitset`]) is cheaper than scattering that
    /// many random bits, and the caller should fall back to it.
    ///
    /// # Panics
    /// Panics when `out`'s universe differs from the indexed example count.
    pub fn fill_gene_bitset(&self, p: usize, lo: f64, hi: f64, out: &mut MatchBitset) -> bool {
        assert_eq!(out.len(), self.examples, "bitset universe mismatch");
        let (start, end) = self.range_of(p, lo, hi);
        if ((end - start) as f64) >= SCAN_FRACTION * self.examples as f64 {
            return false;
        }
        out.clear();
        for &(_, id) in &self.projections[p][start..end] {
            out.set(id as usize);
        }
        true
    }

    /// Derive the member set of `[lo, hi]` at position `p` from `from`, the
    /// member set of `old = (old_lo, old_hi)` at the same position, by
    /// flipping only the windows whose membership differs. Writes the result
    /// to `out` and returns how many windows flipped; returns `None` —
    /// leaving `out` untouched — when more than [`TOGGLE_FRACTION`] of the
    /// windows would flip, where a fresh fill is cheaper.
    ///
    /// Both intervals are position ranges of the sorted projection:
    /// `[a0, a1)` for the old one and `[b0, b1)` for the new one. Their
    /// symmetric difference is the XOR of `[min(a0, b0), max(a0, b0))` and
    /// `[min(a1, b1), max(a1, b1))`, whether the intervals overlap, touch or
    /// are disjoint; flipping the ids of both ranges therefore yields the
    /// exact [`MatchIndex::fill_gene_bitset`] member set.
    ///
    /// # Panics
    /// Panics when a bitset's universe differs from the indexed example
    /// count. The result is only meaningful when `from` is the member set of
    /// `old`.
    pub fn toggle_gene_bitset(
        &self,
        p: usize,
        old: (f64, f64),
        new: (f64, f64),
        from: &MatchBitset,
        out: &mut MatchBitset,
    ) -> Option<usize> {
        assert_eq!(from.len(), self.examples, "bitset universe mismatch");
        assert_eq!(out.len(), self.examples, "bitset universe mismatch");
        let (a0, a1) = self.range_of(p, old.0, old.1);
        let (b0, b1) = self.range_of(p, new.0, new.1);
        let spans = [(a0.min(b0), a0.max(b0)), (a1.min(b1), a1.max(b1))];
        let flips: usize = spans.iter().map(|&(s, e)| e - s).sum();
        if flips as f64 > TOGGLE_FRACTION * self.examples as f64 {
            return None;
        }
        out.copy_from(from);
        for (s, e) in spans {
            for &(_, id) in &self.projections[p][s..e] {
                out.flip(id as usize);
            }
        }
        Some(flips)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel;
    use crate::rule::Gene;
    use evoforecast_tsdata::gen::venice::VeniceTide;
    use evoforecast_tsdata::window::WindowSpec;
    use proptest::prelude::*;

    fn venice_windows(n: usize) -> (Vec<f64>, WindowSpec) {
        let series = VeniceTide::default().generate(n, 5).into_values();
        (series, WindowSpec::new(6, 1).unwrap())
    }

    #[test]
    fn index_matches_scan_on_selective_condition() {
        let (values, spec) = venice_windows(5_000);
        let ds = spec.dataset(&values).unwrap();
        let index = MatchIndex::build(&ds);
        let cond = Condition::new(vec![
            Gene::bounded(60.0, 80.0), // selective: high tide band
            Gene::Wildcard,
            Gene::bounded(-100.0, 200.0), // broad
            Gene::Wildcard,
            Gene::Wildcard,
            Gene::bounded(50.0, 90.0),
        ]);
        let via_index = index.match_indices(&cond, &ds);
        let via_scan = parallel::match_indices(&cond, &ds, usize::MAX);
        assert_eq!(via_index, via_scan);
        assert!(!via_index.is_empty(), "band should match something");
    }

    #[test]
    fn index_matches_scan_on_broad_and_wildcard_conditions() {
        let (values, spec) = venice_windows(2_000);
        let ds = spec.dataset(&values).unwrap();
        let index = MatchIndex::build(&ds);
        for cond in [
            Condition::all_wildcards(6),
            Condition::new(vec![
                Gene::bounded(-1000.0, 1000.0),
                Gene::Wildcard,
                Gene::Wildcard,
                Gene::Wildcard,
                Gene::Wildcard,
                Gene::Wildcard,
            ]),
        ] {
            let via_index = index.match_indices(&cond, &ds);
            let via_scan = parallel::match_indices(&cond, &ds, usize::MAX);
            assert_eq!(via_index, via_scan);
            assert_eq!(via_index.len(), ds.len());
        }
    }

    #[test]
    fn all_wildcard_condition_falls_back_to_linear_scan() {
        // An all-wildcard condition has no bounded gene to probe, so the
        // index must take the linear-scan fallback and return every window.
        let (values, spec) = venice_windows(1_500);
        let ds = spec.dataset(&values).unwrap();
        let index = MatchIndex::build(&ds);
        let cond = Condition::all_wildcards(6);
        let via_index = index.match_indices(&cond, &ds);
        assert_eq!(via_index.len(), ds.len(), "wildcards match everything");
        assert_eq!(via_index, (0..ds.len()).collect::<Vec<_>>());
        // Same through the parallel-fallback and fused entry points.
        assert_eq!(
            index.match_indices_with_parallel_fallback(&cond, &ds, usize::MAX),
            via_index
        );
        let opts = RegressionOptions::fast();
        let (bits, acc) =
            index.match_accumulate_with_parallel_fallback(&cond, &ds, opts, usize::MAX);
        assert_eq!(bits.count_ones(), ds.len());
        assert_eq!(acc.count(), ds.len());
    }

    #[test]
    fn fused_index_route_is_bit_identical_to_fused_scan() {
        let (values, spec) = venice_windows(5_000);
        let ds = spec.dataset(&values).unwrap();
        let index = MatchIndex::build(&ds);
        let opts = RegressionOptions::fast();
        for cond in [
            // Selective: goes through the sorted projection.
            Condition::new(vec![
                Gene::bounded(60.0, 80.0),
                Gene::Wildcard,
                Gene::Wildcard,
                Gene::Wildcard,
                Gene::Wildcard,
                Gene::bounded(50.0, 90.0),
            ]),
            // Broad: falls back to the chunked scan.
            Condition::new(vec![
                Gene::bounded(-1000.0, 1000.0),
                Gene::Wildcard,
                Gene::Wildcard,
                Gene::Wildcard,
                Gene::Wildcard,
                Gene::Wildcard,
            ]),
        ] {
            let (idx_bits, idx_acc) =
                index.match_accumulate_with_parallel_fallback(&cond, &ds, opts, usize::MAX);
            let (scan_bits, scan_acc) =
                parallel::match_and_accumulate(&cond, &ds, opts, usize::MAX);
            assert_eq!(idx_bits, scan_bits);
            assert_eq!(idx_acc.count(), scan_acc.count());
            if idx_acc.count() > 1 {
                let a = idx_acc.solve(opts.ridge_lambda).unwrap();
                let b = scan_acc.solve(opts.ridge_lambda).unwrap();
                assert_eq!(a.intercept().to_bits(), b.intercept().to_bits());
                for (x, y) in a.coefficients().iter().zip(b.coefficients()) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    #[test]
    fn gene_bitset_range_query_matches_brute_force() {
        let (values, spec) = venice_windows(3_000);
        let ds = spec.dataset(&values).unwrap();
        let index = MatchIndex::build(&ds);
        let mut out = MatchBitset::new(ds.len());
        // Selective band: the range query must fill the exact member set.
        assert!(index.fill_gene_bitset(2, 60.0, 80.0, &mut out));
        let expect: Vec<usize> = (0..ds.len())
            .filter(|&i| {
                let v = ds.features(i)[2];
                (60.0..=80.0).contains(&v)
            })
            .collect();
        assert_eq!(out.to_indices(), expect);
        assert!(!expect.is_empty(), "band should match something");
    }

    #[test]
    fn gene_bitset_refill_leaves_no_stale_bits() {
        let (values, spec) = venice_windows(1_000);
        let ds = spec.dataset(&values).unwrap();
        let index = MatchIndex::build(&ds);
        let mut out = MatchBitset::new(ds.len());
        assert!(index.fill_gene_bitset(0, 60.0, 80.0, &mut out));
        // Refill with a disjoint (empty) band: old bits must vanish.
        assert!(index.fill_gene_bitset(0, 1e6, 2e6, &mut out));
        assert_eq!(out.count_ones(), 0);
    }

    #[test]
    fn gene_bitset_declines_broad_intervals() {
        let (values, spec) = venice_windows(1_000);
        let ds = spec.dataset(&values).unwrap();
        let index = MatchIndex::build(&ds);
        let mut out = MatchBitset::from_indices(ds.len(), &[7]);
        // An interval covering everything admits >= SCAN_FRACTION of the
        // windows: the query must decline and leave `out` untouched.
        assert!(!index.fill_gene_bitset(0, -1e6, 1e6, &mut out));
        assert_eq!(out.to_indices(), vec![7]);
    }

    #[test]
    fn empty_interval_matches_nothing() {
        let (values, spec) = venice_windows(1_000);
        let ds = spec.dataset(&values).unwrap();
        let index = MatchIndex::build(&ds);
        let cond = Condition::new(vec![
            Gene::bounded(1e6, 2e6),
            Gene::Wildcard,
            Gene::Wildcard,
            Gene::Wildcard,
            Gene::Wildcard,
            Gene::Wildcard,
        ]);
        assert!(index.match_indices(&cond, &ds).is_empty());
    }

    #[test]
    fn boundary_values_included() {
        // Ramp windows: interval [3, 5] on position 0 matches windows 3..=5.
        let values: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let spec = WindowSpec::new(2, 1).unwrap();
        let ds = spec.dataset(&values).unwrap();
        let index = MatchIndex::build(&ds);
        let cond = Condition::new(vec![Gene::bounded(3.0, 5.0), Gene::Wildcard]);
        assert_eq!(index.match_indices(&cond, &ds), vec![3, 4, 5]);
    }

    /// The interval a toggle moves to, in terms of the old one `[lo, hi]`.
    fn moved_interval(kind: usize, lo: f64, hi: f64, step: f64) -> (f64, f64) {
        match kind {
            0 => (lo, hi),                                   // equal
            1 => (hi, hi + step),                            // touching at `hi`
            2 => (hi + step + 0.25, hi + 2.0 * step + 0.25), // disjoint
            3 => (0.5 * (lo + hi), 0.5 * (lo + hi)),         // shrunk to a point
            4 => (lo - 100.0, hi + 100.0),                   // enlarged past the data
            5 => (lo - step, hi - step),                     // moved down
            _ => {
                // shrunk, never past the midpoint (as mutation does)
                let s = step.min(0.5 * (hi - lo));
                (lo + s, hi - s)
            }
        }
    }

    /// One value of a quarter-step grid over [-2, 2]: duplicates galore,
    /// and the zero comes as `+0.0` or `-0.0`.
    fn grid_value(k: u64) -> f64 {
        match k % 18 {
            16 => 0.0,
            17 => -0.0,
            q => (q as f64 - 8.0) / 4.0,
        }
    }

    #[test]
    fn toggled_refill_covers_signed_zero_endpoints() {
        // Windows hold -0.0, +0.0 and neighbours; ±0 endpoints admit both
        // zeros, so moving [-0.0, x] to [+0.0, x] flips nothing.
        let values = [-0.0, 0.0, -0.25, 0.25, 0.0, -0.0, 0.5, -0.5];
        let ds = crate::dataset::TabularExamples::new(
            evoforecast_linalg::Matrix::from_fn(values.len(), 1, |i, _| values[i]),
            vec![1.0; values.len()],
        )
        .unwrap();
        let index = MatchIndex::build(&ds);
        let mut from = MatchBitset::new(values.len());
        let mut out = MatchBitset::new(values.len());
        crate::dataset::fill_gene_bitset(ds.column(0).unwrap(), -0.0, 0.0, &mut from);
        assert_eq!(from.to_indices(), vec![0, 1, 4, 5]);
        assert_eq!(
            index.toggle_gene_bitset(0, (-0.0, 0.0), (0.0, -0.0), &from, &mut out),
            Some(0)
        );
        assert_eq!(out, from);
        assert_eq!(
            index.toggle_gene_bitset(0, (-0.0, 0.0), (-0.0, 0.25), &from, &mut out),
            Some(1)
        );
        assert_eq!(out.to_indices(), vec![0, 1, 3, 4, 5]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn toggled_refill_equals_a_fresh_fill(
            n in 8usize..400,
            seed in 0u64..1_000_000,
            lo_k in 0u64..18,
            width_k in 0u64..12,
            kind in 0usize..7,
            step_k in 1u64..6,
            zero_lo in 0u8..2,
        ) {
            let mut state = seed;
            let values: Vec<f64> = (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    grid_value(state >> 33)
                })
                .collect();
            let ds = crate::dataset::TabularExamples::new(
                evoforecast_linalg::Matrix::from_fn(n, 1, |i, _| values[i]),
                vec![0.0; n],
            )
            .unwrap();
            let index = MatchIndex::build(&ds);
            let mut lo = grid_value(lo_k) - 0.25;
            if zero_lo == 1 && lo == 0.0 {
                lo = -0.0;
            }
            let hi = lo + width_k as f64 / 4.0;
            let new = moved_interval(kind, lo, hi, step_k as f64 / 8.0);
            let fresh = |(a, b): (f64, f64)| {
                let mut bits = MatchBitset::new(n);
                crate::dataset::fill_gene_bitset(ds.column(0).unwrap(), a, b, &mut bits);
                bits
            };
            let from = fresh((lo, hi));
            let expect = fresh(new);
            let mut out = MatchBitset::from_indices(n, &[n - 1]);
            let before = out.clone();
            match index.toggle_gene_bitset(0, (lo, hi), new, &from, &mut out) {
                Some(flips) => {
                    prop_assert_eq!(&out, &expect);
                    prop_assert!(flips as f64 <= TOGGLE_FRACTION * n as f64);
                    let mut differ = from.clone();
                    differ.union_with(&expect);
                    let mut both = from.clone();
                    both.intersect_with(&expect);
                    let symmetric = differ.count_ones() - both.count_ones();
                    prop_assert!(flips >= symmetric);
                }
                None => {
                    prop_assert_eq!(&out, &before, "a declined toggle leaves `out` untouched");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn index_always_agrees_with_scan(
            seed in 0u64..500,
            genes in proptest::collection::vec(
                proptest::option::of((-80.0..120.0f64, 0.1..80.0f64)),
                3..=3,
            ),
        ) {
            let series = VeniceTide::default().generate(800, seed).into_values();
            let spec = WindowSpec::new(3, 1).unwrap();
            let ds = spec.dataset(&series).unwrap();
            let index = MatchIndex::build(&ds);
            let cond = Condition::new(
                genes
                    .iter()
                    .map(|g| match g {
                        Some((lo, width)) => Gene::bounded(*lo, lo + width),
                        None => Gene::Wildcard,
                    })
                    .collect(),
            );
            prop_assert_eq!(
                index.match_indices(&cond, &ds),
                parallel::match_indices(&cond, &ds, usize::MAX)
            );
        }
    }
}
