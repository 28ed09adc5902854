//! Streaming publication with incremental safety monitoring — histogram-only.
//!
//! A publisher maintains a release while the underlying cohort changes (new
//! patient batches arrive, small buckets get merged). Everything the
//! disclosure DP looks at is per-bucket sensitive histograms, so the monitor
//! never materializes a `Bucketization` (tuple membership) at all: the
//! release lives as a [`HistogramSet`], and the incremental engine
//! (Section 3.3.3's memo-reuse remark) composed on top answers "would this
//! edit stay (c,k)-safe?" in `O(k²)` per what-if query instead of re-running
//! the full `O(|B|·k³)` pipeline.
//!
//! Run: `cargo run --release --example incremental_monitor`

use wcbk::core::partial_order::merge_histograms;
use wcbk::datagen::workload::{random_histogram_set, WorkloadConfig};
use wcbk::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (c, k) = (0.8, 4);
    println!("monitoring a streaming release against ({c},{k})-safety\n");

    // Initial release: 48 buckets of moderately skewed diagnoses, kept as
    // histograms only — no tuple ids anywhere in this example.
    let initial: HistogramSet = random_histogram_set(WorkloadConfig {
        n_buckets: 48,
        bucket_size: (6, 24),
        n_values: 14,
        skew: 0.9,
        seed: 2007,
    });
    let engine = DisclosureEngine::new(k);
    let mut session = engine.incremental_set(&initial)?;
    println!(
        "initial release: {} buckets, max disclosure {:.4} ({})",
        session.n_buckets(),
        session.value(),
        if session.value() < c {
            "safe"
        } else {
            "UNSAFE"
        },
    );

    // Scenario 1: a new batch arrives as its own bucket. Skewed batches can
    // break safety; the monitor checks before committing.
    println!("\n-- scenario 1: appending incoming batches --");
    for (i, skew) in [(1u64, 0.3), (2, 1.8), (3, 3.5)] {
        let batch = random_histogram_set(WorkloadConfig {
            n_buckets: 1,
            bucket_size: (10, 10),
            n_values: 14,
            skew,
            seed: 9000 + i,
        });
        let hist = batch.bucket(0);
        let costs = engine.costs(hist);
        // What-if: session with the batch appended. (The prefix/suffix
        // composition treats an append as replacing the virtual end.)
        let mut probe = engine.incremental_set(&initial)?;
        probe.push(costs.clone());
        let value = probe.value();
        let verdict = if value < c {
            "accept"
        } else {
            "reject (would break safety)"
        };
        println!(
            "  batch {i} (skew {skew:.1}, top value {}/10): disclosure -> {value:.4}  => {verdict}",
            hist.frequency(0)
        );
        if value < c {
            session.push(costs);
        }
    }
    println!(
        "after ingest: {} buckets, max disclosure {:.4}",
        session.n_buckets(),
        session.value()
    );

    // Scenario 2: repairing a risky bucket by merging it with a neighbour —
    // histogram merges compose with the incremental session directly.
    println!("\n-- scenario 2: what-if merges to repair skewed buckets --");
    let current = session.value();
    let mut best: Option<(usize, f64)> = None;
    for i in 0..initial.n_buckets() - 1 {
        let merged = merge_histograms(initial.bucket(i), initial.bucket(i + 1));
        let costs = engine.costs(&merged);
        let v = session.what_if_merge_adjacent(i, &costs)?;
        if best.as_ref().is_none_or(|&(_, bv)| v < bv) {
            best = Some((i, v));
        }
    }
    if let Some((i, v)) = best {
        println!(
            "  best single merge: buckets {i}+{} -> disclosure {v:.4} (now {current:.4})",
            i + 1
        );
    }

    // Scenario 3: audit trail. The histogram surface answers the value
    // directly; witness reconstruction (the actual worst-case implications)
    // needs tuple membership, so a publisher wanting one would bucketize —
    // the monitor itself never has to.
    println!("\n-- scenario 3: audit trail --");
    let audited = engine.max_disclosure_value_set(&initial)?;
    println!("  disclosure (full re-audit): {audited:.4}");
    println!(
        "  incremental session agrees:  {:.4}",
        engine.incremental_set(&initial)?.value()
    );
    let (hits, misses) = engine.cache_stats();
    println!("  engine cache:   {hits} hits / {misses} misses across the session");
    Ok(())
}
