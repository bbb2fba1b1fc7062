//! Rayon-parallel kernels.
//!
//! Two operations dominate wall-clock time and parallelize cleanly:
//!
//! * **offspring matching** — testing a condition against every training
//!   window (`O(N·D)` with early exit). For the paper's full-scale Venice
//!   runs that is 45 000 windows × 24 taps per offspring.
//! * **batch prediction** — evaluating a whole validation sweep.
//!
//! Both keep sequential fallbacks below a size threshold: rayon's task
//! dispatch costs more than matching a few thousand windows, and the
//! sequential and parallel paths must return *identical* results (rayon's
//! indexed `filter`/`map` preserve order, so they do — the determinism test
//! below pins that). The scanning kernels touch every window, so they
//! compare the dataset length with the threshold; the delta path's Gram
//! accumulation ([`accumulate_from_bitset`]) touches only the matched
//! windows, so it compares the matched-row count.

use crate::bitset::MatchBitset;
use crate::dataset::ExampleSet;
use crate::regress::GRAM_CHUNK;
use crate::rule::Condition;
use evoforecast_linalg::regression::{NormalEqAccumulator, RegressionOptions, RowTile};
use rayon::prelude::*;

/// Indices of the training windows matched by a condition, parallelized when
/// the dataset has at least `threshold` windows.
pub fn match_indices<E: ExampleSet>(
    condition: &Condition,
    data: &E,
    threshold: usize,
) -> Vec<usize> {
    let n = data.len();
    if n < threshold {
        (0..n)
            .filter(|&i| condition.matches(data.features(i)))
            .collect()
    } else {
        (0..n)
            .into_par_iter()
            .filter(|&i| condition.matches(data.features(i)))
            .collect()
    }
}

/// Fused match + normal-equation accumulation over one [`GRAM_CHUNK`] of
/// windows: bits and Gram rows are produced in ascending window order.
fn accumulate_chunk<E: ExampleSet>(
    condition: &Condition,
    data: &E,
    chunk: usize,
    opts: RegressionOptions,
) -> (NormalEqAccumulator, Vec<u64>) {
    let start = chunk * GRAM_CHUNK;
    let end = (start + GRAM_CHUNK).min(data.len());
    let mut acc = NormalEqAccumulator::new(data.feature_len(), opts.intercept);
    let mut words = vec![0u64; (end - start).div_ceil(64)];
    for i in start..end {
        let w = data.features(i);
        if condition.matches(w) {
            debug_assert!(
                w.iter().all(|x| x.is_finite()) && data.target(i).is_finite(),
                "non-finite example at index {i} reached the fused kernel"
            );
            acc.push_row(w, data.target(i));
            let local = i - start;
            words[local / 64] |= 1u64 << (local % 64);
        }
    }
    (acc, words)
}

/// Single-pass evaluation front half: match `condition` against every window
/// *and* accumulate the ridge normal equations over the matches, without
/// materializing a design matrix. Parallelized over [`GRAM_CHUNK`]-sized
/// chunks when the dataset has at least `threshold` windows.
///
/// The chunk structure — not the thread count — determines the
/// floating-point summation order: per-chunk accumulators always merge in
/// ascending chunk order, skipping empty chunks, so the sequential path,
/// the parallel path and the index path
/// ([`crate::matchindex::MatchIndex::match_accumulate_with_parallel_fallback`])
/// return bit-identical results.
pub fn match_and_accumulate<E: ExampleSet>(
    condition: &Condition,
    data: &E,
    opts: RegressionOptions,
    threshold: usize,
) -> (MatchBitset, NormalEqAccumulator) {
    let n = data.len();
    let chunks = n.div_ceil(GRAM_CHUNK);
    let parts: Vec<(NormalEqAccumulator, Vec<u64>)> = if n < threshold {
        (0..chunks)
            .map(|c| accumulate_chunk(condition, data, c, opts))
            .collect()
    } else {
        (0..chunks)
            .into_par_iter()
            .map(|c| accumulate_chunk(condition, data, c, opts))
            .collect()
    };
    stitch_chunks(parts, data.feature_len(), n, opts)
}

/// Merge per-chunk results in ascending chunk order (the canonical reduce).
fn stitch_chunks(
    parts: Vec<(NormalEqAccumulator, Vec<u64>)>,
    d: usize,
    n: usize,
    opts: RegressionOptions,
) -> (MatchBitset, NormalEqAccumulator) {
    let mut bits = MatchBitset::new(n);
    let mut acc = NormalEqAccumulator::new(d, opts.intercept);
    for (chunk, (part, words)) in parts.into_iter().enumerate() {
        if part.count() > 0 {
            acc.merge(&part);
        }
        bits.splice_words(chunk * (GRAM_CHUNK / 64), &words);
    }
    (bits, acc)
}

/// Accumulate the normal equations over an explicit ascending matched-index
/// list — the index-assisted entry into the fused path. Produces exactly the
/// per-chunk accumulate/merge sequence of [`match_and_accumulate`], so the
/// two agree bit-for-bit on the same match set.
///
/// # Panics
/// Panics (in debug builds) when `indices` is not sorted ascending.
pub fn accumulate_sorted_indices<E: ExampleSet>(
    indices: &[usize],
    data: &E,
    opts: RegressionOptions,
) -> (MatchBitset, NormalEqAccumulator) {
    debug_assert!(
        indices.windows(2).all(|w| w[0] < w[1]),
        "indices must be sorted"
    );
    let n = data.len();
    let d = data.feature_len();
    let mut bits = MatchBitset::new(n);
    let mut acc = NormalEqAccumulator::new(d, opts.intercept);
    let mut pos = 0usize;
    while pos < indices.len() {
        let chunk = indices[pos] / GRAM_CHUNK;
        let chunk_end = (chunk + 1) * GRAM_CHUNK;
        let mut part = NormalEqAccumulator::new(d, opts.intercept);
        while pos < indices.len() && indices[pos] < chunk_end {
            let i = indices[pos];
            part.push_row(data.features(i), data.target(i));
            bits.set(i);
            pos += 1;
        }
        acc.merge(&part);
    }
    (bits, acc)
}

/// Reusable buffers of the bitset accumulation: the gathered-row tile, one
/// chunk partial and the total. The engine keeps one in its delta state, so
/// accumulating on the sequential path allocates nothing.
#[derive(Debug)]
pub(crate) struct GramScratch {
    tile: RowTile,
    /// Sum over the current chunk. Always empty between chunks: it is
    /// cleared right after being merged, and a chunk with no rows leaves it
    /// untouched.
    part: NormalEqAccumulator,
    total: NormalEqAccumulator,
}

impl GramScratch {
    pub(crate) fn new(d: usize, intercept: bool) -> GramScratch {
        GramScratch {
            tile: RowTile::new(d, intercept),
            part: NormalEqAccumulator::new(d, intercept),
            total: NormalEqAccumulator::new(d, intercept),
        }
    }
}

/// Push the set bits of chunk `c` into `part` in ascending window order,
/// gathered [`TILE_ROWS`](evoforecast_linalg::regression::TILE_ROWS) rows at
/// a time through `tile`.
fn accumulate_chunk_bits<E: ExampleSet>(
    words: &[u64],
    c: usize,
    data: &E,
    tile: &mut RowTile,
    part: &mut NormalEqAccumulator,
) {
    let n = data.len();
    let words_per_chunk = GRAM_CHUNK / 64;
    let word_start = c * words_per_chunk;
    let word_end = (word_start + words_per_chunk).min(words.len());
    for (wi, &word) in words[word_start..word_end].iter().enumerate() {
        let base = (word_start + wi) * 64;
        let mut w = word;
        while w != 0 {
            let i = base + w.trailing_zeros() as usize;
            debug_assert!(
                i < n,
                "bitset has a set bit at {i} beyond the dataset length {n}"
            );
            debug_assert!(
                data.features(i).iter().all(|x| x.is_finite()) && data.target(i).is_finite(),
                "non-finite example at index {i} reached the delta kernel"
            );
            tile.push(data.features(i), data.target(i));
            if tile.is_full() {
                part.push_tile(tile);
                tile.clear();
            }
            w &= w - 1;
        }
    }
    if !tile.is_empty() {
        part.push_tile(tile);
        tile.clear();
    }
}

/// Accumulate the normal equations over the set bits of an already-known
/// match set — the delta-evaluation entry into the fused path, where the
/// match set was produced by ANDing per-gene bitsets rather than by
/// rescanning rows. Walks each [`GRAM_CHUNK`]'s words (chunk boundaries are
/// word-aligned), pushing rows in ascending window order through the
/// register-blocked tile kernel
/// ([`NormalEqAccumulator::push_tile`], bit-identical to row-by-row
/// pushes), and merges the per-chunk parts in ascending chunk order skipping
/// empty ones — exactly the discipline of [`match_and_accumulate`] /
/// [`accumulate_sorted_indices`], so all three agree bit-for-bit on the same
/// match set. Parallelized over chunks when the match set has at least
/// `threshold` rows.
///
/// # Panics
/// Panics (in debug builds) when the bitset universe differs from the
/// dataset length.
pub fn accumulate_from_bitset<E: ExampleSet>(
    bits: &MatchBitset,
    data: &E,
    opts: RegressionOptions,
    threshold: usize,
) -> NormalEqAccumulator {
    let mut scratch = GramScratch::new(data.feature_len(), opts.intercept);
    accumulate_bitset_into(bits, data, threshold, &mut scratch);
    scratch.total
}

/// [`accumulate_from_bitset`] into reusable buffers; returns the total.
///
/// Unlike the scanning kernels, which touch every row and so gate their
/// fan-out on the dataset length, this one only touches the matched rows:
/// it fans out when the *matched-row count* reaches `threshold`. The chunk
/// structure, not the thread count, fixes the summation order, so both
/// branches return the same bits. The fan-out branch gives every chunk its
/// own tile and partial, because the chunks run concurrently.
pub(crate) fn accumulate_bitset_into<'s, E: ExampleSet>(
    bits: &MatchBitset,
    data: &E,
    threshold: usize,
    scratch: &'s mut GramScratch,
) -> &'s NormalEqAccumulator {
    debug_assert_eq!(bits.len(), data.len(), "bitset universe mismatch");
    let GramScratch { tile, part, total } = scratch;
    let chunks = data.len().div_ceil(GRAM_CHUNK);
    let words = bits.words();
    total.clear();
    if bits.count_ones() >= threshold {
        // `tile` and `part` are empty here: clones give each chunk its own.
        let (empty_tile, empty_part) = (&*tile, &*part);
        let parts: Vec<NormalEqAccumulator> = (0..chunks)
            .into_par_iter()
            .map(|c| {
                let mut tile = empty_tile.clone();
                let mut part = empty_part.clone();
                accumulate_chunk_bits(words, c, data, &mut tile, &mut part);
                part
            })
            .collect();
        for part in parts.iter().filter(|p| p.count() > 0) {
            total.merge(part);
        }
    } else {
        for c in 0..chunks {
            accumulate_chunk_bits(words, c, data, tile, part);
            if part.count() > 0 {
                total.merge(part);
                part.clear();
            }
        }
    }
    total
}

/// `N_R` and `Σy` of a match set without any Gram work — the inputs of the
/// engine's pre-fit crowding decision. The targets are added exactly as the
/// accumulators of [`accumulate_from_bitset`] add them: each [`GRAM_CHUNK`]
/// sums its rows in ascending window order from `+0.0`, and the chunk sums
/// fold into `+0.0` in ascending chunk order, skipping empty chunks. The
/// sum is therefore bit-identical to that accumulation's
/// [`NormalEqAccumulator::sum_targets`], on either side of its fan-out.
pub(crate) fn count_and_sum_targets<E: ExampleSet>(bits: &MatchBitset, data: &E) -> (usize, f64) {
    debug_assert_eq!(bits.len(), data.len(), "bitset universe mismatch");
    let (mut count, mut total) = (0usize, 0.0_f64);
    for (c, words) in bits.words().chunks(GRAM_CHUNK / 64).enumerate() {
        let (mut rows, mut part) = (0usize, 0.0_f64);
        for (wi, &word) in words.iter().enumerate() {
            let base = (c * (GRAM_CHUNK / 64) + wi) * 64;
            let mut w = word;
            while w != 0 {
                part += data.target(base + w.trailing_zeros() as usize);
                rows += 1;
                w &= w - 1;
            }
        }
        if rows > 0 {
            total += part;
            count += rows;
        }
    }
    (count, total)
}

/// Matched windows as a bitset (no regression accumulation) — used for the
/// ensemble's incremental coverage union. Chunked and parallelized like
/// [`match_and_accumulate`].
pub fn match_bitset<E: ExampleSet>(
    condition: &Condition,
    data: &E,
    threshold: usize,
) -> MatchBitset {
    let n = data.len();
    let chunks = n.div_ceil(GRAM_CHUNK);
    let word_chunk = |c: usize| {
        let start = c * GRAM_CHUNK;
        let end = (start + GRAM_CHUNK).min(n);
        let mut words = vec![0u64; (end - start).div_ceil(64)];
        for i in start..end {
            if condition.matches(data.features(i)) {
                let local = i - start;
                words[local / 64] |= 1u64 << (local % 64);
            }
        }
        words
    };
    let parts: Vec<Vec<u64>> = if n < threshold {
        (0..chunks).map(word_chunk).collect()
    } else {
        (0..chunks).into_par_iter().map(word_chunk).collect()
    };
    let mut bits = MatchBitset::new(n);
    for (chunk, words) in parts.into_iter().enumerate() {
        bits.splice_words(chunk * (GRAM_CHUNK / 64), &words);
    }
    bits
}

/// Apply a prediction function over every window of a dataset in parallel.
/// `None` entries are abstentions.
pub fn batch_predict<E, F>(data: &E, threshold: usize, predict: F) -> Vec<Option<f64>>
where
    E: ExampleSet,
    F: Fn(&[f64]) -> Option<f64> + Sync,
{
    let n = data.len();
    if n < threshold {
        (0..n).map(|i| predict(data.features(i))).collect()
    } else {
        (0..n)
            .into_par_iter()
            .map(|i| predict(data.features(i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Gene;
    use evoforecast_tsdata::window::{WindowSpec, WindowedDataset};

    fn dataset(values: &[f64]) -> WindowedDataset<'_> {
        WindowSpec::new(3, 1).unwrap().dataset(values).unwrap()
    }

    fn big_series() -> Vec<f64> {
        (0..20_000)
            .map(|i| (i as f64 * 0.013).sin() * 40.0)
            .collect()
    }

    #[test]
    fn parallel_and_sequential_match_identically() {
        let vals = big_series();
        let ds = dataset(&vals);
        let cond = Condition::new(vec![
            Gene::bounded(-10.0, 10.0),
            Gene::Wildcard,
            Gene::bounded(0.0, 40.0),
        ]);
        let seq = match_indices(&cond, &ds, usize::MAX);
        let par = match_indices(&cond, &ds, 1);
        assert_eq!(seq, par);
        assert!(!seq.is_empty());
    }

    #[test]
    fn match_indices_are_sorted_and_correct() {
        let vals = big_series();
        let ds = dataset(&vals);
        let cond = Condition::new(vec![
            Gene::bounded(0.0, 40.0),
            Gene::Wildcard,
            Gene::Wildcard,
        ]);
        let idx = match_indices(&cond, &ds, 1);
        assert!(
            idx.windows(2).all(|w| w[0] < w[1]),
            "indices must be sorted"
        );
        for &i in &idx {
            assert!(cond.matches(ds.window(i)));
        }
        // Complement check: unmatched windows really fail.
        let matched: std::collections::HashSet<usize> = idx.iter().copied().collect();
        for i in 0..ds.len() {
            if !matched.contains(&i) {
                assert!(!cond.matches(ds.window(i)));
            }
        }
    }

    #[test]
    fn batch_predict_parallel_equals_sequential() {
        let vals = big_series();
        let ds = dataset(&vals);
        let f = |w: &[f64]| {
            if w[0] > 0.0 {
                Some(w.iter().sum::<f64>())
            } else {
                None
            }
        };
        let seq = batch_predict(&ds, usize::MAX, f);
        let par = batch_predict(&ds, 1, f);
        assert_eq!(seq.len(), ds.len());
        assert_eq!(seq, par);
        assert!(seq.iter().any(Option::is_some));
        assert!(seq.iter().any(Option::is_none));
    }

    #[test]
    fn empty_match_set() {
        let vals = big_series();
        let ds = dataset(&vals);
        let cond = Condition::new(vec![
            Gene::bounded(1e6, 2e6),
            Gene::Wildcard,
            Gene::Wildcard,
        ]);
        assert!(match_indices(&cond, &ds, 1).is_empty());
        assert!(match_indices(&cond, &ds, usize::MAX).is_empty());
    }

    #[test]
    fn fused_parallel_and_sequential_are_bit_identical() {
        let vals = big_series();
        let ds = dataset(&vals);
        let cond = Condition::new(vec![
            Gene::bounded(-10.0, 10.0),
            Gene::Wildcard,
            Gene::bounded(0.0, 40.0),
        ]);
        let opts = RegressionOptions::fast();
        let (seq_bits, seq_acc) = match_and_accumulate(&cond, &ds, opts, usize::MAX);
        let (par_bits, par_acc) = match_and_accumulate(&cond, &ds, opts, 1);
        assert_eq!(seq_bits, par_bits);
        assert_eq!(seq_acc.count(), par_acc.count());
        assert_eq!(
            seq_acc.sum_targets().to_bits(),
            par_acc.sum_targets().to_bits()
        );
        let a = seq_acc.solve(opts.ridge_lambda).unwrap();
        let b = par_acc.solve(opts.ridge_lambda).unwrap();
        assert_eq!(a.intercept().to_bits(), b.intercept().to_bits());
        for (x, y) in a.coefficients().iter().zip(b.coefficients()) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "parallel Gram must be bit-identical"
            );
        }
    }

    #[test]
    fn fused_bitset_agrees_with_match_indices() {
        let vals = big_series();
        let ds = dataset(&vals);
        let cond = Condition::new(vec![
            Gene::bounded(0.0, 40.0),
            Gene::Wildcard,
            Gene::Wildcard,
        ]);
        let opts = RegressionOptions::fast();
        let (bits, acc) = match_and_accumulate(&cond, &ds, opts, usize::MAX);
        let indices = match_indices(&cond, &ds, usize::MAX);
        assert_eq!(bits.to_indices(), indices);
        assert_eq!(acc.count(), indices.len());
        assert_eq!(match_bitset(&cond, &ds, usize::MAX), bits);
        assert_eq!(match_bitset(&cond, &ds, 1), bits);
    }

    #[test]
    fn sorted_index_accumulation_matches_fused_scan() {
        // The index path feeds accumulate_sorted_indices; its chunked merge
        // must reproduce the scan's sums bit-for-bit.
        let vals = big_series();
        let ds = dataset(&vals);
        let cond = Condition::new(vec![
            Gene::bounded(-25.0, 25.0),
            Gene::bounded(-40.0, 40.0),
            Gene::Wildcard,
        ]);
        let opts = RegressionOptions::fast();
        let (scan_bits, scan_acc) = match_and_accumulate(&cond, &ds, opts, usize::MAX);
        let indices = match_indices(&cond, &ds, usize::MAX);
        let (idx_bits, idx_acc) = accumulate_sorted_indices(&indices, &ds, opts);
        assert_eq!(scan_bits, idx_bits);
        let a = scan_acc.solve(opts.ridge_lambda).unwrap();
        let b = idx_acc.solve(opts.ridge_lambda).unwrap();
        assert_eq!(a.intercept().to_bits(), b.intercept().to_bits());
        for (x, y) in a.coefficients().iter().zip(b.coefficients()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn bitset_accumulation_matches_fused_scan_bit_for_bit() {
        // The delta path hands an AND-derived bitset to
        // accumulate_from_bitset; its tiled, chunked accumulation must
        // reproduce the fused scan's row-by-row sums exactly, sequentially
        // and under rayon. D = 96 gives ragged 4×4 edge blocks (p = 97), and
        // the match set is large enough that the default threshold fans out.
        let vals = big_series();
        let default_threshold =
            crate::EngineConfig::for_series(&vals, WindowSpec::new(3, 1).unwrap())
                .parallel_threshold;
        for d in [3usize, 96] {
            let ds = WindowSpec::new(d, 1).unwrap().dataset(&vals).unwrap();
            let mut genes = vec![Gene::Wildcard; d];
            genes[0] = Gene::bounded(-30.0, 30.0);
            genes[d - 1] = Gene::bounded(-40.0, 40.0);
            let cond = Condition::new(genes);
            let opts = RegressionOptions::fast();
            let (scan_bits, scan_acc) = match_and_accumulate(&cond, &ds, opts, usize::MAX);
            assert!(scan_acc.count() >= default_threshold);
            for threshold in [usize::MAX, 1, default_threshold] {
                let acc = accumulate_from_bitset(&scan_bits, &ds, opts, threshold);
                assert_eq!(acc.count(), scan_acc.count());
                assert_eq!(
                    acc.sum_targets().to_bits(),
                    scan_acc.sum_targets().to_bits()
                );
                let a = acc.solve(opts.ridge_lambda).unwrap();
                let b = scan_acc.solve(opts.ridge_lambda).unwrap();
                assert_eq!(a.intercept().to_bits(), b.intercept().to_bits());
                for (x, y) in a.coefficients().iter().zip(b.coefficients()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "D = {d}, threshold {threshold}");
                }
            }
        }
    }

    #[test]
    fn bitset_accumulation_of_empty_set_is_empty() {
        let vals = big_series();
        let ds = dataset(&vals);
        let opts = RegressionOptions::fast();
        let empty = MatchBitset::new(ds.len());
        for threshold in [usize::MAX, 1] {
            let acc = accumulate_from_bitset(&empty, &ds, opts, threshold);
            assert_eq!(acc.count(), 0);
        }
    }

    #[test]
    fn fused_empty_match_set() {
        let vals = big_series();
        let ds = dataset(&vals);
        let cond = Condition::new(vec![
            Gene::bounded(1e6, 2e6),
            Gene::Wildcard,
            Gene::Wildcard,
        ]);
        let opts = RegressionOptions::fast();
        let (bits, acc) = match_and_accumulate(&cond, &ds, opts, 1);
        assert_eq!(bits.count_ones(), 0);
        assert_eq!(acc.count(), 0);
        let (bits2, acc2) = accumulate_sorted_indices(&[], &ds, opts);
        assert_eq!(bits2.count_ones(), 0);
        assert_eq!(acc2.count(), 0);
    }

    #[test]
    fn threshold_boundary_behaviour() {
        let vals: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ds = dataset(&vals);
        let cond = Condition::all_wildcards(3);
        // n = 97 windows; thresholds straddling n give identical output.
        assert_eq!(match_indices(&cond, &ds, 97), match_indices(&cond, &ds, 98));
    }
}
