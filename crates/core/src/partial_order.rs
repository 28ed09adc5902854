//! The partial order `⪯` on bucketizations (Section 3.4) and merging.
//!
//! `B ⪯ B′` iff every bucket of `B′` is a union of buckets of `B` — `B` is
//! *finer*, `B′` *coarser*. The bottom element puts one tuple per bucket, the
//! top puts all tuples in one bucket. Theorem 14 (monotonicity): coarsening
//! never increases maximum disclosure, which is what makes lattice search
//! and binary search for minimal (c,k)-safe bucketizations sound.

use std::collections::HashMap;

use wcbk_table::TupleId;

use crate::{Bucket, Bucketization, CoreError, HistogramView, SensitiveHistogram};

/// Whether `fine ⪯ coarse`: the two cover the same tuples and every bucket of
/// `coarse` is a union of buckets of `fine`.
pub fn refines(fine: &Bucketization, coarse: &Bucketization) -> bool {
    let mut coarse_of: HashMap<TupleId, usize> = HashMap::new();
    for (ci, bucket) in coarse.buckets().iter().enumerate() {
        for &t in bucket.members() {
            coarse_of.insert(t, ci);
        }
    }
    let mut fine_count = 0usize;
    for bucket in fine.buckets() {
        let mut target: Option<usize> = None;
        for &t in bucket.members() {
            fine_count += 1;
            match (coarse_of.get(&t), target) {
                (None, _) => return false, // tuple missing from coarse
                (Some(&ci), None) => target = Some(ci),
                (Some(&ci), Some(prev)) if ci != prev => return false, // split
                _ => {}
            }
        }
    }
    // Same universe: counts match (memberships already checked one way).
    fine_count == coarse_of.len()
}

/// Merges buckets `i` and `j` (`i ≠ j`) into one, producing a coarser
/// bucketization (an immediate step up the partial order when `i`, `j` are
/// the only buckets merged).
pub fn merge_buckets(b: &Bucketization, i: usize, j: usize) -> Result<Bucketization, CoreError> {
    let len = b.n_buckets();
    for &x in &[i, j] {
        if x >= len {
            return Err(CoreError::BucketOutOfRange { index: x, len });
        }
    }
    if i == j {
        return Ok(b.clone());
    }
    let (lo, hi) = (i.min(j), i.max(j));
    let mut buckets: Vec<Bucket> = Vec::with_capacity(len - 1);
    for (bi, bucket) in b.buckets().iter().enumerate() {
        if bi == hi {
            continue;
        }
        if bi == lo {
            let merged_members: Vec<TupleId> = bucket
                .members()
                .iter()
                .chain(b.bucket(hi).members())
                .copied()
                .collect();
            let merged_hist = merge_histograms(bucket.histogram(), b.bucket(hi).histogram());
            buckets.push(Bucket::from_histogram(merged_members, merged_hist));
        } else {
            buckets.push(bucket.clone());
        }
    }
    Bucketization::from_buckets(buckets, b.domain_size())
}

/// Collapses everything into a single bucket — the top element `B⊤`.
pub fn merge_all(b: &Bucketization) -> Result<Bucketization, CoreError> {
    let mut members: Vec<TupleId> = Vec::new();
    let mut hist: Option<SensitiveHistogram> = None;
    for bucket in b.buckets() {
        members.extend_from_slice(bucket.members());
        hist = Some(match hist {
            None => bucket.histogram().clone(),
            Some(h) => merge_histograms(&h, bucket.histogram()),
        });
    }
    let hist = hist.ok_or(CoreError::EmptyBucketization)?;
    Bucketization::from_buckets(vec![Bucket::from_histogram(members, hist)], b.domain_size())
}

/// Adds two histograms (the sensitive multiset of a merged bucket).
pub fn merge_histograms<'a, 'b>(
    a: impl Into<HistogramView<'a>>,
    b: impl Into<HistogramView<'b>>,
) -> SensitiveHistogram {
    let mut counts: HashMap<wcbk_table::SValue, u64> = HashMap::new();
    for h in [a.into(), b.into()] {
        for (v, c) in h.iter_counts() {
            *counts.entry(v).or_insert(0) += c;
        }
    }
    SensitiveHistogram::from_counts(counts)
}

/// A chain of bucketizations from `b` up to the single-bucket top element,
/// merging the first two buckets at each step. Useful for binary search
/// demonstrations (each step is a strict coarsening).
pub fn coarsening_chain(b: &Bucketization) -> Result<Vec<Bucketization>, CoreError> {
    let mut chain = vec![b.clone()];
    let mut current = b.clone();
    while current.n_buckets() > 1 {
        current = merge_buckets(&current, 0, 1)?;
        chain.push(current.clone());
    }
    Ok(chain)
}

/// Binary search along a fine→coarse chain of bucketizations for the first
/// (finest) one satisfying a monotone predicate — "logarithmic in the height
/// of the bucketization lattice" per the remark below Definition 13.
///
/// `chain` must be ordered fine→coarse (`chain[i] ⪯ chain[i+1]`, verified in
/// debug builds) and `is_safe` must be monotone under coarsening (e.g. a
/// (c,k)-safety check, by Theorem 14). Returns the index of the finest safe
/// bucketization, or `None` if even the coarsest fails.
pub fn binary_search_coarsening<F>(
    chain: &[Bucketization],
    mut is_safe: F,
) -> Result<Option<usize>, CoreError>
where
    F: FnMut(&Bucketization) -> Result<bool, CoreError>,
{
    #[cfg(debug_assertions)]
    for w in chain.windows(2) {
        debug_assert!(refines(&w[0], &w[1]), "chain must be ordered fine→coarse");
    }
    if chain.is_empty() {
        return Ok(None);
    }
    let mut lo = 0usize;
    let mut hi = chain.len() - 1;
    if !is_safe(&chain[hi])? {
        return Ok(None);
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if is_safe(&chain[mid])? {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(Some(lo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcbk_table::datasets::{hospital_bucket_of, hospital_table};
    use wcbk_table::Table;

    fn table() -> Table {
        hospital_table()
    }

    fn figure3() -> Bucketization {
        Bucketization::from_grouping(&table(), hospital_bucket_of).unwrap()
    }

    fn bottom() -> Bucketization {
        Bucketization::from_grouping(&table(), |t| t).unwrap()
    }

    #[test]
    fn bottom_refines_everything() {
        let b = figure3();
        let bot = bottom();
        assert!(refines(&bot, &b));
        assert!(refines(&bot, &merge_all(&b).unwrap()));
        assert!(!refines(&b, &bot));
    }

    #[test]
    fn refines_is_reflexive() {
        let b = figure3();
        assert!(refines(&b, &b));
    }

    #[test]
    fn merge_produces_coarser() {
        let b = figure3();
        let merged = merge_buckets(&b, 0, 1).unwrap();
        assert_eq!(merged.n_buckets(), 1);
        assert!(refines(&b, &merged));
        assert_eq!(merged.n_tuples(), b.n_tuples());
        // Merged histogram: Flu 4, LC 2, Mumps/BC/OC/HD 1 each.
        assert_eq!(
            merged.bucket(0).histogram().counts_desc(),
            &[4, 2, 1, 1, 1, 1]
        );
    }

    #[test]
    fn merge_same_index_is_identity() {
        let b = figure3();
        assert_eq!(merge_buckets(&b, 1, 1).unwrap(), b);
    }

    #[test]
    fn merge_out_of_range_rejected() {
        let b = figure3();
        assert!(matches!(
            merge_buckets(&b, 0, 9),
            Err(CoreError::BucketOutOfRange { index: 9, len: 2 })
        ));
    }

    #[test]
    fn different_universes_do_not_refine() {
        let t = table();
        let partial = Bucketization::from_partition(&t, &[vec![wcbk_table::TupleId(0)]]).unwrap();
        assert!(!refines(&partial, &figure3()));
        assert!(!refines(&figure3(), &partial));
    }

    #[test]
    fn monotonicity_theorem14_on_hospital() {
        // Coarsening never increases maximum disclosure.
        let b = figure3();
        let merged = merge_all(&b).unwrap();
        for k in 0..=4 {
            let fine = crate::max_disclosure(&b, k).unwrap().value;
            let coarse = crate::max_disclosure(&merged, k).unwrap().value;
            assert!(
                coarse <= fine + 1e-12,
                "k={k}: coarse {coarse} > fine {fine}"
            );
        }
    }

    #[test]
    fn chain_descends_in_disclosure() {
        let chain = coarsening_chain(&bottom()).unwrap();
        assert_eq!(chain.len(), 10);
        for k in [0usize, 2] {
            let values: Vec<f64> = chain
                .iter()
                .map(|b| crate::max_disclosure(b, k).unwrap().value)
                .collect();
            for w in values.windows(2) {
                assert!(
                    w[1] <= w[0] + 1e-12,
                    "chain not monotone at k={k}: {values:?}"
                );
            }
        }
    }

    #[test]
    fn binary_search_finds_first_safe_bucketization() {
        let chain = coarsening_chain(&bottom()).unwrap();
        for (c, k) in [(0.5, 0), (0.7, 1), (0.75, 2)] {
            let safety = crate::CkSafety::new(c, k).unwrap();
            let found = binary_search_coarsening(&chain, |b| safety.is_safe(b)).unwrap();
            // Compare with a linear scan.
            let mut linear = None;
            for (i, b) in chain.iter().enumerate() {
                if safety.is_safe(b).unwrap() {
                    linear = Some(i);
                    break;
                }
            }
            assert_eq!(found, linear, "(c,k)=({c},{k})");
        }
    }

    #[test]
    fn binary_search_none_when_coarsest_unsafe() {
        let chain = coarsening_chain(&bottom()).unwrap();
        // c = 0.2 is below even the fully merged table's top ratio (4/10).
        let safety = crate::CkSafety::new(0.2, 0).unwrap();
        assert_eq!(
            binary_search_coarsening(&chain, |b| safety.is_safe(b)).unwrap(),
            None
        );
        assert_eq!(binary_search_coarsening(&[], |_| Ok(true)).unwrap(), None);
    }

    #[test]
    fn merged_histogram_adds_counts() {
        let a = SensitiveHistogram::from_counts([(wcbk_table::SValue(0), 2)]);
        let b = SensitiveHistogram::from_counts([
            (wcbk_table::SValue(0), 1),
            (wcbk_table::SValue(1), 3),
        ]);
        let m = merge_histograms(&a, &b);
        assert_eq!(m.counts_desc(), &[3, 3]);
        assert_eq!(m.n(), 6);
    }
}
