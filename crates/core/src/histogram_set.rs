//! Histogram-only view of a bucketization — the search-time evaluation
//! surface.
//!
//! Everything the disclosure DP and the diversity criteria look at is the
//! per-bucket sensitive histograms plus the global domain size; bucket
//! *membership* is irrelevant until a chosen bucketization is actually
//! published. [`HistogramSet`] captures exactly that, so lattice search can
//! evaluate nodes from rolled-up histograms (see `wcbk-hierarchy`'s
//! `NodeEvaluator`) without ever materializing a [`Bucketization`].
//!
//! The set is **columnar**: every bucket's descending counts and value codes
//! sit back to back in two flat arrays, delimited by one offset per bucket,
//! and buckets are read through borrowed [`HistogramView`]s. A set is
//! therefore a handful of allocations however many buckets it holds, and
//! the roll-up memo can keep a node's set and hand it out again as is.

use wcbk_table::SValue;

use crate::histogram::sort_desc;
use crate::{Bucketization, CoreError, HistogramView, SensitiveHistogram};

/// The per-bucket sensitive histograms of a (possibly never-materialized)
/// bucketization, in bucket order, plus the sensitive-domain cardinality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSet {
    /// Bucket `b`'s entries are `offsets[b]..offsets[b + 1]`.
    offsets: Vec<usize>,
    /// Bucket sizes `n_b`.
    sizes: Vec<u64>,
    /// Every bucket's frequencies, each bucket in descending order.
    counts_desc: Vec<u64>,
    /// Value codes aligned with `counts_desc` (ties broken by value code).
    values_desc: Vec<SValue>,
    domain_size: u32,
}

impl HistogramSet {
    /// Builds a set from per-bucket histograms. The set must be non-empty
    /// and every histogram must count at least one tuple (mirroring
    /// [`Bucketization`]'s invariants).
    pub fn new(histograms: Vec<SensitiveHistogram>, domain_size: u32) -> Result<Self, CoreError> {
        Self::pack(histograms.iter().map(SensitiveHistogram::view), domain_size)
    }

    /// The histogram view of a materialized bucketization.
    pub fn from_bucketization(b: &Bucketization) -> Self {
        Self::pack(
            b.buckets().iter().map(|x| x.histogram().view()),
            b.domain_size(),
        )
        .expect("a bucketization has at least one bucket and no empty bucket")
    }

    fn pack<'a, I>(views: I, domain_size: u32) -> Result<Self, CoreError>
    where
        I: ExactSizeIterator<Item = HistogramView<'a>> + Clone,
    {
        let entries = views.clone().map(HistogramView::distinct).sum();
        let mut builder = HistogramSetBuilder::with_capacity(domain_size, views.len(), entries);
        for view in views {
            builder.push_view(view);
        }
        builder.finish()
    }

    /// Bucket `i`'s histogram. Panics when `i ≥ n_buckets()`.
    #[inline]
    pub fn bucket(&self, i: usize) -> HistogramView<'_> {
        let range = self.offsets[i]..self.offsets[i + 1];
        HistogramView::new(
            &self.counts_desc[range.clone()],
            &self.values_desc[range],
            self.sizes[i],
        )
    }

    /// Per-bucket histograms in bucket order.
    pub fn buckets(&self) -> impl ExactSizeIterator<Item = HistogramView<'_>> + Clone + '_ {
        (0..self.n_buckets()).map(move |i| self.bucket(i))
    }

    /// Number of buckets `|B|`.
    pub fn n_buckets(&self) -> usize {
        self.sizes.len()
    }

    /// Total tuples across buckets.
    pub fn n_tuples(&self) -> u64 {
        self.sizes.iter().sum()
    }

    /// Global sensitive-domain cardinality `|S|`.
    pub fn domain_size(&self) -> u32 {
        self.domain_size
    }

    /// The `k = 0` maximum disclosure: `max_b n_b(s⁰_b) / n_b`.
    pub fn max_frequency_ratio(&self) -> f64 {
        self.buckets()
            .map(HistogramView::top_ratio)
            .fold(0.0, f64::max)
    }

    /// Minimum per-bucket entropy (natural log).
    pub fn min_bucket_entropy(&self) -> f64 {
        self.buckets()
            .map(HistogramView::entropy)
            .fold(f64::INFINITY, f64::min)
    }

    /// Smallest bucket size (the k-anonymity parameter of the grouping).
    pub fn min_bucket_size(&self) -> u64 {
        self.sizes.iter().copied().min().unwrap_or(0)
    }
}

/// Packs buckets one at a time into a [`HistogramSet`] — how producers that
/// never hold per-bucket [`SensitiveHistogram`]s (the roll-up evaluator)
/// build sets without a per-bucket allocation.
#[derive(Debug)]
pub struct HistogramSetBuilder {
    set: HistogramSet,
    /// Reused sort buffer for [`push_counts`](Self::push_counts).
    scratch: Vec<(SValue, u64)>,
    /// The first bucket pushed with no tuples, reported by `finish`.
    first_empty: Option<usize>,
}

impl HistogramSetBuilder {
    /// An empty builder with room for `buckets` buckets holding `entries`
    /// distinct (bucket, value) pairs in total.
    pub fn with_capacity(domain_size: u32, buckets: usize, entries: usize) -> Self {
        let mut offsets = Vec::with_capacity(buckets + 1);
        offsets.push(0);
        Self {
            set: HistogramSet {
                offsets,
                sizes: Vec::with_capacity(buckets),
                counts_desc: Vec::with_capacity(entries),
                values_desc: Vec::with_capacity(entries),
                domain_size,
            },
            scratch: Vec::new(),
            first_empty: None,
        }
    }

    /// Appends a bucket from `(value, count)` pairs with distinct values, in
    /// any order; zero counts are dropped.
    pub fn push_counts<I: IntoIterator<Item = (SValue, u64)>>(&mut self, pairs: I) {
        self.scratch.clear();
        self.scratch
            .extend(pairs.into_iter().filter(|&(_, count)| count > 0));
        sort_desc(&mut self.scratch);
        let set = &mut self.set;
        set.counts_desc.extend(self.scratch.iter().map(|&(_, c)| c));
        set.values_desc.extend(self.scratch.iter().map(|&(v, _)| v));
        let n = self.scratch.iter().map(|&(_, c)| c).sum();
        self.close_bucket(n);
    }

    /// Appends an already sorted bucket.
    fn push_view(&mut self, view: HistogramView<'_>) {
        self.set.counts_desc.extend_from_slice(view.counts_desc());
        self.set.values_desc.extend_from_slice(view.values_desc());
        self.close_bucket(view.n());
    }

    fn close_bucket(&mut self, n: u64) {
        if n == 0 && self.first_empty.is_none() {
            self.first_empty = Some(self.set.sizes.len());
        }
        self.set.sizes.push(n);
        self.set.offsets.push(self.set.counts_desc.len());
    }

    /// The packed set. Fails when no bucket was pushed or a bucket counts no
    /// tuple.
    pub fn finish(self) -> Result<HistogramSet, CoreError> {
        if self.set.sizes.is_empty() {
            return Err(CoreError::EmptyBucketization);
        }
        if let Some(i) = self.first_empty {
            return Err(CoreError::EmptyBucket(i));
        }
        Ok(self.set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcbk_table::datasets::{hospital_bucket_of, hospital_table};

    fn figure3() -> Bucketization {
        Bucketization::from_grouping(&hospital_table(), hospital_bucket_of).unwrap()
    }

    #[test]
    fn mirrors_bucketization_aggregates() {
        let b = figure3();
        let h = HistogramSet::from_bucketization(&b);
        assert_eq!(h.n_buckets(), b.n_buckets());
        assert_eq!(h.n_tuples(), b.n_tuples());
        assert_eq!(h.domain_size(), b.domain_size());
        assert!((h.max_frequency_ratio() - b.max_frequency_ratio()).abs() < 1e-15);
        assert!((h.min_bucket_entropy() - b.min_bucket_entropy()).abs() < 1e-15);
        assert_eq!(h.min_bucket_size(), b.min_bucket_size());
        for (hist, bucket) in h.buckets().zip(b.buckets()) {
            assert_eq!(hist, bucket.histogram().view());
        }
    }

    /// Packing owned histograms and reading them back through views is the
    /// identity, for buckets over a small domain and one over a >64-value
    /// domain alike; the builder sorts unsorted pairs the same way.
    #[test]
    fn columnar_round_trip() {
        let wide: Vec<(SValue, u64)> = (0..100u32).map(|v| (SValue(v), u64::from(v % 7))).collect();
        let owned = vec![
            SensitiveHistogram::from_counts([(SValue(2), 1u64), (SValue(0), 3), (SValue(1), 3)]),
            SensitiveHistogram::from_counts(wide.iter().copied()),
            SensitiveHistogram::from_counts([(SValue(5), 9u64)]),
        ];
        let set = HistogramSet::new(owned.clone(), 100).unwrap();
        assert_eq!(set.n_buckets(), owned.len());
        assert_eq!(set.buckets().len(), owned.len());
        for (i, h) in owned.iter().enumerate() {
            assert_eq!(set.bucket(i), h.view(), "bucket {i}");
            assert_eq!(set.bucket(i).to_histogram(), *h, "bucket {i}");
        }
        assert_eq!(set.bucket(1).distinct(), 100 - 100 / 7 - 1);
        assert_eq!(
            set.n_tuples(),
            owned.iter().map(SensitiveHistogram::n).sum::<u64>()
        );
        assert_eq!(set.min_bucket_size(), 7);

        let mut builder = HistogramSetBuilder::with_capacity(100, 0, 0);
        builder.push_counts([(SValue(1), 3u64), (SValue(2), 1), (SValue(0), 3)]);
        builder.push_counts(wide.iter().rev().copied());
        builder.push_counts([(SValue(5), 9u64), (SValue(6), 0)]);
        assert_eq!(builder.finish().unwrap(), set);
    }

    #[test]
    fn new_validates() {
        assert!(matches!(
            HistogramSet::new(vec![], 3),
            Err(CoreError::EmptyBucketization)
        ));
        let empty = SensitiveHistogram::from_counts(std::iter::empty());
        assert!(matches!(
            HistogramSet::new(vec![empty.clone()], 3),
            Err(CoreError::EmptyBucket(0))
        ));
        let one = SensitiveHistogram::from_counts([(SValue(0), 1u64)]);
        assert!(matches!(
            HistogramSet::new(vec![one, empty], 3),
            Err(CoreError::EmptyBucket(1))
        ));
    }
}
