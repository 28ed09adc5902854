//! Property tests pinning the chunked/parallel bottom-scan kernel to the
//! row-at-a-time reference scan: for random tables, **every** lattice node's
//! histograms are identical whichever scan built the evaluator — across
//! chunk sizes (including sizes that split signature groups at chunk
//! boundaries), thread counts, and both the `u64` and `u128` signature
//! representations (the latter crossing the 64-bit packing boundary).

use std::sync::Arc;

use proptest::prelude::*;

use wcbk_hierarchy::{GeneralizationLattice, Hierarchy, NodeEvaluator, ScanOptions};
use wcbk_table::{Attribute, AttributeKind, Schema, Table, TableBuilder};

/// A random table: `qi_cols` quasi-identifier columns drawn from small
/// numeric domains, one sensitive column. Row count ≥ 1.
fn build_table(qi_cols: usize, rows: &[Vec<u8>]) -> Table {
    let mut attributes: Vec<Attribute> = (0..qi_cols)
        .map(|d| Attribute::new(format!("Q{d}"), AttributeKind::QuasiIdentifier))
        .collect();
    attributes.push(Attribute::new("S", AttributeKind::Sensitive));
    let schema = Schema::new(attributes).unwrap();
    let mut b = TableBuilder::new(schema);
    for row in rows {
        let fields: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        b.push_row(&fields).unwrap();
    }
    b.build()
}

/// A lattice mixing hierarchy shapes: suppression-only on even dimensions,
/// 2-then-4-wide intervals on odd ones.
fn build_lattice(table: &Table, qi_cols: usize) -> GeneralizationLattice {
    let dims = (0..qi_cols)
        .map(|d| {
            let dict = table.column(d).dictionary();
            let h = if d % 2 == 1 {
                Hierarchy::intervals(format!("Q{d}"), dict, &[2, 4]).unwrap()
            } else {
                Hierarchy::suppression(format!("Q{d}"), dict)
            };
            (d, h)
        })
        .collect();
    GeneralizationLattice::new(dims).unwrap()
}

/// Strategy: (qi_cols, rows) with each row holding qi values in 0..6 and a
/// sensitive value in 0..4, appended as the last field.
fn row_strategy(qi_cols: usize) -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(
        prop::collection::vec(0u8..6, qi_cols + 1).prop_map(move |mut row| {
            row[qi_cols] %= 4; // sensitive domain 0..4
            row
        }),
        1..40,
    )
}

/// Every node's histograms from `eval` equal those from `baseline`.
fn assert_nodes_equal(
    eval: &NodeEvaluator,
    baseline: &NodeEvaluator,
    lattice: &GeneralizationLattice,
    label: &str,
) -> Result<(), TestCaseError> {
    for node in lattice.nodes() {
        let got = eval.histograms(&node).unwrap();
        let want = baseline.histograms(&node).unwrap();
        prop_assert_eq!(
            got.n_buckets(),
            want.n_buckets(),
            "{}: node {}",
            label,
            &node
        );
        prop_assert_eq!(got.domain_size(), want.domain_size());
        for i in 0..want.n_buckets() {
            prop_assert_eq!(
                got.bucket(i),
                want.bucket(i),
                "{}: node {} bucket {}",
                label,
                &node,
                i
            );
        }
    }
    prop_assert_eq!(eval.stats().table_scans, 1);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The chunked columnar kernel equals the reference scan at every
    /// lattice node, across chunk sizes — including `chunk_rows` of 1–3,
    /// which split every multi-row signature group across chunk boundaries
    /// and so exercise the cross-chunk merge on every group — and thread
    /// counts above the machine's core count.
    #[test]
    fn chunked_parallel_scan_equals_reference(
        qi_cols in 1usize..=3,
        seed_rows in row_strategy(3),
    ) {
        let rows: Vec<Vec<u8>> = seed_rows
            .into_iter()
            .map(|r| {
                let mut row = r[..qi_cols].to_vec();
                row.push(r[3]);
                row
            })
            .collect();
        let table = build_table(qi_cols, &rows);
        let lattice = Arc::new(build_lattice(&table, qi_cols));
        let reference = NodeEvaluator::shared_with_scan(
            &table,
            Arc::clone(&lattice),
            None,
            ScanOptions { reference: true, ..ScanOptions::default() },
        )
        .unwrap();
        for chunk_rows in [1usize, 2, 3, 7, 16, 1000] {
            for threads in [1usize, 2, 4] {
                let eval = NodeEvaluator::shared_with_scan(
                    &table,
                    Arc::clone(&lattice),
                    None,
                    ScanOptions { threads, chunk_rows, reference: false },
                )
                .unwrap();
                assert_nodes_equal(
                    &eval,
                    &reference,
                    &lattice,
                    &format!("chunk_rows={chunk_rows} threads={threads}"),
                )?;
            }
        }
    }

    /// Tables whose packed signature crosses the 64-bit boundary run the
    /// `u128` kernel; it too equals the reference scan — with chunk sizes
    /// small enough to split groups — on a lattice of 22 3-bit dimensions
    /// (66 bits total).
    #[test]
    fn u128_scan_equals_reference_across_packing_boundary(
        seed_rows in row_strategy(1),
    ) {
        // Guarantee the full 6-value QI domain is observed, so the bottom
        // level really needs 3 bits per dimension (22 × 3 = 66 packed).
        let mut rows = seed_rows;
        for v in 0..6u8 {
            rows.push(vec![v, v % 4]);
        }
        let table = build_table(1, &rows);
        let dict = table.column(0).dictionary().clone();
        // 22 copies of a ≤6-value suppression dimension: 3 bits each at the
        // bottom level, 66 bits packed — just past the u64 boundary.
        let dims: Vec<(usize, Hierarchy)> = (0..22)
            .map(|_| (0usize, Hierarchy::suppression("Q0", &dict)))
            .collect();
        let lattice = Arc::new(GeneralizationLattice::new(dims).unwrap());
        let reference = NodeEvaluator::shared_with_scan(
            &table,
            Arc::clone(&lattice),
            None,
            ScanOptions { reference: true, ..ScanOptions::default() },
        )
        .unwrap();
        prop_assert!(!reference.is_narrow(), "66 bits must select the u128 engine");
        let eval = NodeEvaluator::shared_with_scan(
            &table,
            Arc::clone(&lattice),
            None,
            ScanOptions { threads: 2, chunk_rows: 3, reference: false },
        )
        .unwrap();
        // The full 2^22-node lattice is unenumerable; spot-check a mixed
        // sample against the reference evaluator and the row-scanning
        // bucketize baseline.
        let mut nodes = vec![lattice.bottom(), lattice.top()];
        nodes.push(wcbk_hierarchy::GenNode(
            (0..22).map(|d| usize::from(d % 2 == 0)).collect(),
        ));
        nodes.push(wcbk_hierarchy::GenNode(
            (0..22).map(|d| usize::from(d == 21)).collect(),
        ));
        for node in &nodes {
            let got = eval.histograms(node).unwrap();
            let want = reference.histograms(node).unwrap();
            prop_assert_eq!(got.n_buckets(), want.n_buckets(), "node {}", node);
            for i in 0..want.n_buckets() {
                prop_assert_eq!(got.bucket(i), want.bucket(i));
            }
            let scanned = lattice.bucketize(&table, node).unwrap();
            prop_assert_eq!(got.n_buckets(), scanned.n_buckets());
            for (i, bucket) in scanned.buckets().iter().enumerate() {
                prop_assert_eq!(got.bucket(i), bucket.histogram().view());
            }
        }
        prop_assert_eq!(eval.stats().table_scans, 1);
    }
}
