//! A minimality/utility-aware attacker: leakage from publishing the
//! anonymization algorithm itself.

use wcbk_core::{CoreError, HistogramSet, HistogramView};

use crate::{AdversaryModel, ModelWitness};

/// An adversary who knows the published grouping was produced by a
/// *minimal* (utility-maximizing) algorithm.
///
/// Minimality attacks (in the tradition of Wong et al.'s m-confidentiality
/// analysis, arXiv 0909.1127 §2) exploit that a publisher who generalizes
/// as little as possible reveals which sensitive values could **not** have
/// forced the grouping: strength `k` lets the adversary argue away the `k`
/// rarest sensitive values of a bucket (they are too infrequent to have
/// constrained a minimal algorithm), never touching the modal value. The
/// bucket bound is therefore
///
/// ```text
///   f / (n − tail_k)   where tail_k = Σ of the min(k, d−1) smallest
///                      distinct-value counts, d = distinct values,
/// ```
///
/// and the set bound is the maximum over buckets. At `k = 0` this is the
/// no-knowledge ratio `f / n`; once `k ≥ d − 1` only the modal value
/// survives and the bucket discloses fully.
///
/// Unlike the other models, the bound can **rise** when buckets merge (an
/// attacker who knows the algorithm is minimal gains from coarser
/// groupings, arXiv 0905.1755), so the model declares no
/// [`merge_monotone`](AdversaryModel::merge_monotone) law and lattice
/// searches under it evaluate every node.
pub struct MinimalityModel {
    k: usize,
}

impl MinimalityModel {
    /// An adversary who can argue away `k` rare values per bucket.
    pub fn new(k: usize) -> Self {
        Self { k }
    }

    /// How many rare values the adversary eliminates in one bucket.
    fn eliminated(&self, hist: HistogramView<'_>) -> usize {
        self.k.min(hist.distinct().saturating_sub(1))
    }

    /// The per-bucket bound after eliminating the rare tail.
    fn bucket_value(&self, hist: HistogramView<'_>) -> f64 {
        let counts = hist.key();
        let elim = self.eliminated(hist);
        let tail: u64 = counts[counts.len() - elim..].iter().sum();
        hist.frequency(0) as f64 / (hist.n() - tail) as f64
    }

    /// The bucket index attaining the bound (first argmax, deterministic).
    fn argmax(&self, set: &HistogramSet) -> usize {
        let mut best = 0;
        let mut best_v = f64::MIN;
        for (i, hist) in set.buckets().enumerate() {
            let v = self.bucket_value(hist);
            if v > best_v {
                best = i;
                best_v = v;
            }
        }
        best
    }
}

impl AdversaryModel for MinimalityModel {
    fn name(&self) -> &'static str {
        "minimality"
    }

    fn k(&self) -> usize {
        self.k
    }

    fn merge_monotone(&self) -> bool {
        false
    }

    fn max_disclosure(&self, set: &HistogramSet) -> Result<f64, CoreError> {
        if set.n_buckets() == 0 {
            return Err(CoreError::EmptyBucketization);
        }
        Ok(set
            .buckets()
            .map(|h| self.bucket_value(h))
            .fold(0.0, f64::max))
    }

    fn witness(&self, set: &HistogramSet) -> Result<ModelWitness, CoreError> {
        if set.n_buckets() == 0 {
            return Err(CoreError::EmptyBucketization);
        }
        let b = self.argmax(set);
        let hist = set.bucket(b);
        let modal = hist.value_at(0).expect("buckets are non-empty");
        let elim = self.eliminated(hist);
        let knowing = if elim == 0 {
            vec!["no algorithm-publication leverage (k = 0)".to_string()]
        } else {
            vec![format!(
                "the published algorithm is minimal, ruling out the {elim} rarest value(s) \
                 of bucket {b}"
            )]
        };
        Ok(ModelWitness {
            predicts: format!(
                "bucket {b}: t[S] = {modal} (modal value, {} of {} tuples)",
                hist.frequency(0),
                hist.n()
            ),
            knowing,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::figure3_set;
    use proptest::prelude::*;
    use wcbk_core::SensitiveHistogram;
    use wcbk_table::SValue;

    /// Worked example on the Figure 3 histograms. At `k = 1` each bucket
    /// loses its single rarest value: male (2,2,1) → 2/4, female (2,1,1,1)
    /// → 2/4, bound 0.5. At `k = 2` the male bucket argues away both
    /// non-modal values (d − 1 = 2), leaving only the modal value:
    /// 2/2 = 1.0.
    #[test]
    fn figure3_worked_example() {
        let set = figure3_set();
        assert!((MinimalityModel::new(1).max_disclosure(&set).unwrap() - 0.5).abs() < 1e-15);
        assert!((MinimalityModel::new(2).max_disclosure(&set).unwrap() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn k0_is_frequency_ratio() {
        let set = figure3_set();
        let m = MinimalityModel::new(0);
        assert!((m.max_disclosure(&set).unwrap() - set.max_frequency_ratio()).abs() < 1e-15);
    }

    #[test]
    fn elimination_never_touches_the_modal_value() {
        // A two-value bucket: no matter how large k is, at most one value
        // can be argued away, so the bound caps at 1.0 without dividing by
        // zero.
        let hist = SensitiveHistogram::from_counts([(SValue(0), 3u64), (SValue(1), 2)]);
        let set = HistogramSet::new(vec![hist], 2).unwrap();
        for k in 0..10 {
            let v = MinimalityModel::new(k).max_disclosure(&set).unwrap();
            assert!(v.is_finite() && v <= 1.0);
        }
        assert!((MinimalityModel::new(9).max_disclosure(&set).unwrap() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn witness_reports_elimination_count() {
        let set = figure3_set();
        let w = MinimalityModel::new(1).witness(&set).unwrap();
        assert!(w.knowing[0].contains("1 rarest"), "{}", w.knowing[0]);
        let w0 = MinimalityModel::new(0).witness(&set).unwrap();
        assert!(w0.knowing[0].contains("k = 0"), "{}", w0.knowing[0]);
    }

    /// Merging buckets can raise the bound, so the model declares no
    /// merge-monotonicity: {c:1,d:2,e:2} and {c:2,d:1,e:2} each bound at
    /// 2/4 at k = 1, their merge {c:3,d:3,e:4} at 4/7.
    #[test]
    fn merge_can_raise_the_bound() {
        let model = MinimalityModel::new(1);
        assert!(!model.merge_monotone());
        let hist =
            |counts: [u64; 3]| SensitiveHistogram::from_counts((0u32..).map(SValue).zip(counts));
        let split = HistogramSet::new(vec![hist([1, 2, 2]), hist([2, 1, 2])], 3).unwrap();
        let merged = HistogramSet::new(vec![hist([3, 3, 4])], 3).unwrap();
        assert_eq!(model.max_disclosure(&split).unwrap(), 0.5);
        assert!((model.max_disclosure(&merged).unwrap() - 4.0 / 7.0).abs() < 1e-15);
    }

    fn histogram_strategy() -> impl Strategy<Value = SensitiveHistogram> {
        prop::collection::vec((0u32..6, 1u64..9), 1..6).prop_map(|counts| {
            // Collapse duplicate value codes before building — `from_counts`
            // treats each pair as a distinct value.
            let mut tally = std::collections::BTreeMap::<u32, u64>::new();
            for (v, c) in counts {
                *tally.entry(v).or_insert(0) += c;
            }
            SensitiveHistogram::from_counts(tally.into_iter().map(|(v, c)| (SValue(v), c)))
        })
    }

    proptest! {
        /// Bounds stay probabilities and grow with `k`.
        #[test]
        fn bounded_and_monotone_in_k(h in histogram_strategy()) {
            let set = HistogramSet::new(vec![h], 6).unwrap();
            let mut prev = 0.0;
            for k in 0..6 {
                let v = MinimalityModel::new(k).max_disclosure(&set).unwrap();
                prop_assert!((0.0..=1.0).contains(&v));
                prop_assert!(v >= prev - 1e-15);
                prev = v;
            }
        }
    }
}
