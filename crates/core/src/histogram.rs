//! Per-bucket sensitive-value histograms.
//!
//! The disclosure DP never needs to know *which* person holds *which* value —
//! only the bucket's value frequencies in descending order (`s⁰_b, s¹_b, …`
//! in the paper's notation). [`HistogramView`] is that sorted frequency
//! vector, borrowed; it doubles as the memoization key for
//! cross-bucketization caching (two buckets with equal sorted frequency
//! vectors have identical MINIMIZE1 tables). [`SensitiveHistogram`] owns
//! one bucket's vectors.

use wcbk_table::SValue;

/// A borrowed bucket histogram: frequencies in descending order, their value
/// codes, and the bucket size. Every disclosure computation reads buckets
/// through this view, whether they are stored one [`SensitiveHistogram`]
/// per bucket (a [`Bucketization`](crate::Bucketization)) or packed into a
/// columnar [`HistogramSet`](crate::HistogramSet). `Copy`, so passing one
/// around costs two slices and a count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramView<'a> {
    counts_desc: &'a [u64],
    values_desc: &'a [SValue],
    n: u64,
}

impl<'a> HistogramView<'a> {
    /// A view over aligned descending-frequency slices totalling `n`.
    pub(crate) fn new(counts_desc: &'a [u64], values_desc: &'a [SValue], n: u64) -> Self {
        debug_assert_eq!(counts_desc.len(), values_desc.len());
        debug_assert_eq!(counts_desc.iter().sum::<u64>(), n);
        Self {
            counts_desc,
            values_desc,
            n,
        }
    }

    /// Bucket size `n_b`.
    #[inline]
    pub fn n(self) -> u64 {
        self.n
    }

    /// Number of distinct sensitive values `d_b`.
    #[inline]
    pub fn distinct(self) -> usize {
        self.counts_desc.len()
    }

    /// Frequency of the `rank`-th most frequent value (`n_b(s^rank_b)`),
    /// or 0 beyond the distinct count.
    #[inline]
    pub fn frequency(self, rank: usize) -> u64 {
        self.counts_desc.get(rank).copied().unwrap_or(0)
    }

    /// The `rank`-th most frequent value code.
    #[inline]
    pub fn value_at(self, rank: usize) -> Option<SValue> {
        self.values_desc.get(rank).copied()
    }

    /// Sum of the top `j` frequencies, `Σ_{t∈[j]} n_b(s^t_b)`, saturating at
    /// `n_b` for `j ≥ d_b` — exactly the quantity in Lemma 12.
    #[inline]
    pub fn top_sum(self, j: usize) -> u64 {
        self.counts_desc[..j.min(self.distinct())].iter().sum()
    }

    /// Frequencies in descending order.
    pub fn counts_desc(self) -> &'a [u64] {
        self.counts_desc
    }

    /// Value codes in descending-frequency order.
    pub fn values_desc(self) -> &'a [SValue] {
        self.values_desc
    }

    /// The maximum-frequency ratio `n_b(s⁰_b) / n_b` — the `k = 0` disclosure
    /// of the bucket.
    pub fn top_ratio(self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.frequency(0) as f64 / self.n as f64
    }

    /// Shannon entropy (natural log) of the value distribution — the
    /// per-bucket quantity whose minimum over buckets is the x-axis of the
    /// paper's Figure 6 (and the ℓ-diversity entropy criterion).
    pub fn entropy(self) -> f64 {
        let n = self.n as f64;
        if n == 0.0 {
            return 0.0;
        }
        self.counts_desc
            .iter()
            .map(|&c| {
                let p = c as f64 / n;
                -p * p.ln()
            })
            .sum()
    }

    /// Memoization key: the descending frequency vector. Buckets with equal
    /// keys have identical disclosure behaviour.
    pub fn key(self) -> &'a [u64] {
        self.counts_desc
    }

    /// Iterates `(value, count)` pairs in descending-frequency order.
    pub fn iter_counts(self) -> impl Iterator<Item = (SValue, u64)> + 'a {
        self.values_desc
            .iter()
            .copied()
            .zip(self.counts_desc.iter().copied())
    }

    /// An owned copy of the viewed histogram.
    pub fn to_histogram(self) -> SensitiveHistogram {
        SensitiveHistogram {
            counts_desc: self.counts_desc.to_vec(),
            values_desc: self.values_desc.to_vec(),
            n: self.n,
        }
    }
}

impl<'a> From<&'a SensitiveHistogram> for HistogramView<'a> {
    fn from(h: &'a SensitiveHistogram) -> Self {
        h.view()
    }
}

/// Sorts `(value, count)` pairs into histogram order: descending by count,
/// ascending by value code among equal counts.
pub(crate) fn sort_desc(pairs: &mut [(SValue, u64)]) {
    pairs.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
}

/// One bucket's sensitive-value distribution, owned and sorted by
/// descending frequency — the per-bucket storage of a
/// [`Bucketization`](crate::Bucketization). Its read methods are those of
/// its [`HistogramView`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SensitiveHistogram {
    /// Frequencies in descending order (no zero entries).
    counts_desc: Vec<u64>,
    /// Value codes aligned with `counts_desc` (ties broken by value code).
    values_desc: Vec<SValue>,
    /// `Σ counts_desc`.
    n: u64,
}

impl SensitiveHistogram {
    /// Builds a histogram from `(value, count)` pairs with distinct values
    /// (zero counts dropped).
    pub fn from_counts<I: IntoIterator<Item = (SValue, u64)>>(counts: I) -> Self {
        let mut pairs: Vec<(SValue, u64)> = counts.into_iter().filter(|&(_, c)| c > 0).collect();
        sort_desc(&mut pairs);
        Self {
            counts_desc: pairs.iter().map(|&(_, c)| c).collect(),
            values_desc: pairs.iter().map(|&(v, _)| v).collect(),
            n: pairs.iter().map(|&(_, c)| c).sum(),
        }
    }

    /// Builds a histogram by tallying raw values.
    pub fn from_values(values: &[SValue]) -> Self {
        let mut tally: std::collections::HashMap<SValue, u64> = std::collections::HashMap::new();
        for &v in values {
            *tally.entry(v).or_insert(0) += 1;
        }
        Self::from_counts(tally)
    }

    /// The borrowed view every disclosure computation reads.
    #[inline]
    pub fn view(&self) -> HistogramView<'_> {
        HistogramView {
            counts_desc: &self.counts_desc,
            values_desc: &self.values_desc,
            n: self.n,
        }
    }

    /// Bucket size `n_b`.
    #[inline]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// See [`HistogramView::distinct`].
    #[inline]
    pub fn distinct(&self) -> usize {
        self.view().distinct()
    }

    /// See [`HistogramView::frequency`].
    #[inline]
    pub fn frequency(&self, rank: usize) -> u64 {
        self.view().frequency(rank)
    }

    /// See [`HistogramView::value_at`].
    #[inline]
    pub fn value_at(&self, rank: usize) -> Option<SValue> {
        self.view().value_at(rank)
    }

    /// See [`HistogramView::top_sum`].
    pub fn top_sum(&self, j: usize) -> u64 {
        self.view().top_sum(j)
    }

    /// Frequencies in descending order.
    pub fn counts_desc(&self) -> &[u64] {
        &self.counts_desc
    }

    /// Value codes in descending-frequency order.
    pub fn values_desc(&self) -> &[SValue] {
        &self.values_desc
    }

    /// See [`HistogramView::top_ratio`].
    pub fn top_ratio(&self) -> f64 {
        self.view().top_ratio()
    }

    /// See [`HistogramView::entropy`].
    pub fn entropy(&self) -> f64 {
        self.view().entropy()
    }

    /// See [`HistogramView::key`].
    pub fn key(&self) -> &[u64] {
        &self.counts_desc
    }

    /// See [`HistogramView::iter_counts`].
    pub fn iter_counts(&self) -> impl Iterator<Item = (SValue, u64)> + '_ {
        self.view().iter_counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(vals: &[u32]) -> Vec<SValue> {
        vals.iter().map(|&v| SValue(v)).collect()
    }

    #[test]
    fn sorted_descending_with_value_ties_by_code() {
        let h = SensitiveHistogram::from_values(&sv(&[2, 1, 1, 0, 0, 0, 3, 3, 3]));
        assert_eq!(h.counts_desc(), &[3, 3, 2, 1]);
        assert_eq!(h.values_desc(), &sv(&[0, 3, 1, 2])[..]);
        assert_eq!(h.n(), 9);
        assert_eq!(h.distinct(), 4);
    }

    #[test]
    fn prefix_sums_and_top_sum() {
        let h = SensitiveHistogram::from_values(&sv(&[0, 0, 1, 1, 2]));
        assert_eq!(h.top_sum(0), 0);
        assert_eq!(h.top_sum(1), 2);
        assert_eq!(h.top_sum(2), 4);
        assert_eq!(h.top_sum(3), 5);
        assert_eq!(h.top_sum(99), 5); // saturates at n
    }

    #[test]
    fn frequency_beyond_distinct_is_zero() {
        let h = SensitiveHistogram::from_values(&sv(&[5, 5]));
        assert_eq!(h.frequency(0), 2);
        assert_eq!(h.frequency(1), 0);
        assert_eq!(h.value_at(1), None);
    }

    #[test]
    fn zero_counts_dropped() {
        let h = SensitiveHistogram::from_counts([(SValue(0), 3), (SValue(1), 0), (SValue(2), 1)]);
        assert_eq!(h.distinct(), 2);
        assert_eq!(h.counts_desc(), &[3, 1]);
    }

    #[test]
    fn top_ratio() {
        let h = SensitiveHistogram::from_values(&sv(&[0, 0, 1, 1, 2]));
        assert!((h.top_ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn entropy_uniform_and_skewed() {
        let uniform = SensitiveHistogram::from_values(&sv(&[0, 1, 2, 3]));
        assert!((uniform.entropy() - (4.0f64).ln()).abs() < 1e-12);
        let constant = SensitiveHistogram::from_values(&sv(&[7, 7, 7]));
        assert!(constant.entropy().abs() < 1e-12);
        let skewed = SensitiveHistogram::from_values(&sv(&[0, 0, 0, 1]));
        assert!(skewed.entropy() > 0.0 && skewed.entropy() < uniform.entropy());
    }

    #[test]
    fn equal_distributions_share_keys() {
        let a = SensitiveHistogram::from_values(&sv(&[0, 0, 1]));
        let b = SensitiveHistogram::from_values(&sv(&[5, 9, 9]));
        assert_eq!(a.key(), b.key());
    }

    #[test]
    fn from_counts_and_from_values_agree() {
        let a = SensitiveHistogram::from_values(&sv(&[1, 1, 2, 3, 3, 3]));
        let b = SensitiveHistogram::from_counts([(SValue(1), 2), (SValue(2), 1), (SValue(3), 3)]);
        assert_eq!(a, b);
    }
}
