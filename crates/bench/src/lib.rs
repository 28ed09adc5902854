//! # wcbk-bench — experiment harness
//!
//! Shared experiment logic behind the figure-regeneration binaries
//! (`fig5`, `fig6`, `example_tables`, `safe_search`) and the Criterion
//! benches. Each experiment corresponds to a row of the per-experiment index
//! in `DESIGN.md` and a section of `EXPERIMENTS.md`.

use std::io::Write;
use std::path::Path;

use wcbk_core::{max_disclosure, negation_max_disclosure, Bucketization, DisclosureEngine};
use wcbk_hierarchy::adult::{adult_lattice, figure5_node};
use wcbk_hierarchy::{GenNode, HierarchyError, NodeEvaluator};
use wcbk_table::Table;

/// Any harness error, stringly typed — the binaries only print it.
pub type HarnessError = Box<dyn std::error::Error>;

/// One row of the Figure 5 series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5Row {
    /// Number of pieces of background knowledge `k`.
    pub k: usize,
    /// Maximum disclosure for `k` basic implications (solid line).
    pub implication: f64,
    /// Maximum disclosure for `k` negated atoms (dotted line).
    pub negation: f64,
}

/// Regenerates Figure 5: maximum disclosure vs. `k` for both languages on
/// the paper's anonymization (Age → 20-year intervals, all other
/// quasi-identifiers suppressed).
pub fn figure5(table: &Table, k_max: usize) -> Result<Vec<Fig5Row>, HarnessError> {
    let lattice = adult_lattice(table)?;
    let b = lattice.bucketize(table, &figure5_node())?;
    figure5_on(&b, k_max)
}

/// Figure 5 series on an explicit bucketization.
pub fn figure5_on(b: &Bucketization, k_max: usize) -> Result<Vec<Fig5Row>, HarnessError> {
    let mut rows = Vec::with_capacity(k_max + 1);
    for k in 0..=k_max {
        rows.push(Fig5Row {
            k,
            implication: max_disclosure(b, k)?.value,
            negation: negation_max_disclosure(b, k)?.value,
        });
    }
    Ok(rows)
}

/// One point of a Figure 6 series: a distinct min-entropy value and the
/// least maximum disclosure among anonymized tables attaining it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig6Point {
    /// Minimum per-bucket entropy `h` of the anonymized table (natural log).
    pub entropy: f64,
    /// `w(T(h), k)`: least maximum disclosure among tables with this `h`.
    pub disclosure: f64,
}

/// Per-node statistics collected by the Figure 6 sweep (also reused by the
/// lattice-profiling bench).
#[derive(Debug, Clone)]
pub struct NodeProfile {
    /// The lattice node.
    pub node: GenNode,
    /// Buckets induced.
    pub n_buckets: usize,
    /// Minimum per-bucket entropy.
    pub min_entropy: f64,
    /// Maximum disclosure per requested `k` (aligned with the `ks` input).
    pub disclosures: Vec<f64>,
}

/// Sweeps the full 72-node Adult lattice, computing min-entropy and maximum
/// disclosure for each `k` in `ks` at every node.
///
/// Runs on the roll-up pipeline — one table scan, every node evaluated from
/// merged histograms — falling back to per-node `bucketize` only when the
/// packed signature overflows.
pub fn profile_adult_lattice(
    table: &Table,
    ks: &[usize],
) -> Result<Vec<NodeProfile>, HarnessError> {
    let lattice = adult_lattice(table)?;
    let engines: Vec<DisclosureEngine> = ks.iter().map(|&k| DisclosureEngine::new(k)).collect();
    let evaluator = match NodeEvaluator::new(table, &lattice) {
        Ok(eval) => Some(eval),
        Err(HierarchyError::SignatureOverflow { .. }) => None,
        Err(e) => return Err(e.into()),
    };
    let mut out = Vec::with_capacity(lattice.n_nodes());
    for node in lattice.nodes() {
        let h = match &evaluator {
            Some(eval) => eval.histograms(&node)?,
            None => std::sync::Arc::new(wcbk_core::HistogramSet::from_bucketization(
                &lattice.bucketize(table, &node)?,
            )),
        };
        let disclosures = engines
            .iter()
            .map(|e| e.max_disclosure_value_set(&h))
            .collect::<Result<Vec<f64>, _>>()?;
        out.push(NodeProfile {
            node,
            n_buckets: h.n_buckets(),
            min_entropy: h.min_bucket_entropy(),
            disclosures,
        });
    }
    Ok(out)
}

/// Regenerates Figure 6 from a lattice profile: for each `k`, the
/// min-entropy → least-max-disclosure curve (entropy rounded to
/// `precision` decimals to group nodes attaining "the same" `h`).
pub fn figure6(
    profiles: &[NodeProfile],
    ks: &[usize],
    precision: u32,
) -> Vec<(usize, Vec<Fig6Point>)> {
    let scale = 10f64.powi(precision as i32);
    ks.iter()
        .enumerate()
        .map(|(ki, &k)| {
            let mut best: std::collections::BTreeMap<i64, f64> = std::collections::BTreeMap::new();
            for p in profiles {
                let key = (p.min_entropy * scale).round() as i64;
                let d = p.disclosures[ki];
                best.entry(key)
                    .and_modify(|cur| {
                        if d < *cur {
                            *cur = d;
                        }
                    })
                    .or_insert(d);
            }
            let points = best
                .into_iter()
                .map(|(key, disclosure)| Fig6Point {
                    entropy: key as f64 / scale,
                    disclosure,
                })
                .collect();
            (k, points)
        })
        .collect()
}

/// Writes rows as CSV under `results/` (creating the directory), returning
/// the path written.
pub fn write_csv<P: AsRef<Path>>(
    path: P,
    header: &[&str],
    rows: &[Vec<String>],
) -> Result<std::path::PathBuf, HarnessError> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let file = std::fs::File::create(path)?;
    let mut w = wcbk_table::csv::CsvWriter::new(std::io::BufWriter::new(file));
    w.write_record(header)?;
    for row in rows {
        w.write_record(row)?;
    }
    w.flush()?;
    Ok(path.to_path_buf())
}

/// Prints an aligned two-dimensional table to any writer.
pub fn print_aligned<W: Write>(
    out: &mut W,
    header: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut line = String::new();
    for (i, h) in header.iter().enumerate() {
        line.push_str(&format!("{:>width$}  ", h, width = widths[i]));
    }
    writeln!(out, "{}", line.trim_end())?;
    for row in rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            line.push_str(&format!("{:>width$}  ", cell, width = widths[i]));
        }
        writeln!(out, "{}", line.trim_end())?;
    }
    Ok(())
}

/// The default synthetic Adult table used by the experiment binaries.
pub fn default_adult() -> Table {
    wcbk_datagen::adult::synthetic_adult(wcbk_datagen::adult::AdultConfig::default())
}

/// Resolves the experiment binaries' common argument forms into a table:
///
/// * `--adult-csv <path>` — load the genuine UCI `adult.data` file;
/// * `[n_rows] [seed]` — generate synthetic Adult (defaults 45,222 /
///   the crate default seed).
pub fn load_table_arg(args: &[String]) -> Result<Table, HarnessError> {
    if let Some(pos) = args.iter().position(|a| a == "--adult-csv") {
        let path = args.get(pos + 1).ok_or("--adult-csv needs a file path")?;
        eprintln!("loading real Adult data from {path}…");
        let file = std::fs::File::open(path)?;
        let table = wcbk_datagen::adult::adult_from_reader(std::io::BufReader::new(file))?;
        return Ok(table);
    }
    let n_rows: usize = args
        .first()
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(45_222);
    let seed: u64 = args
        .get(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or_else(|| wcbk_datagen::adult::AdultConfig::default().seed);
    eprintln!("generating synthetic Adult ({n_rows} rows, seed {seed})…");
    Ok(wcbk_datagen::adult::synthetic_adult(
        wcbk_datagen::adult::AdultConfig { n_rows, seed },
    ))
}

/// A smaller Adult table for quick benches.
pub fn small_adult(n_rows: usize) -> Table {
    wcbk_datagen::adult::synthetic_adult(wcbk_datagen::adult::AdultConfig {
        n_rows,
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_shape_holds_on_small_adult() {
        let t = small_adult(4000);
        let rows = figure5(&t, 13).unwrap();
        assert_eq!(rows.len(), 14);
        // Monotone in k; implication dominates negation; reaches 1 at k=13.
        for w in rows.windows(2) {
            assert!(w[1].implication >= w[0].implication - 1e-12);
            assert!(w[1].negation >= w[0].negation - 1e-12);
        }
        for r in &rows {
            assert!(
                r.implication >= r.negation - 1e-12,
                "k={}: imp {} < neg {}",
                r.k,
                r.implication,
                r.negation
            );
        }
        assert!((rows[13].implication - 1.0).abs() < 1e-9);
        assert!((rows[13].negation - 1.0).abs() < 1e-9);
        assert!(rows[0].implication < 0.8, "k=0 should not be disclosive");
    }

    #[test]
    fn figure6_series_decrease_with_entropy() {
        let t = small_adult(4000);
        let ks = [1usize, 5, 11];
        let profiles = profile_adult_lattice(&t, &ks).unwrap();
        assert_eq!(profiles.len(), 72);
        let series = figure6(&profiles, &ks, 2);
        assert_eq!(series.len(), 3);
        for (k, points) in &series {
            assert!(!points.is_empty(), "k={k} empty");
            // Broad trend: the best disclosure at the highest entropy is no
            // worse than at the lowest entropy.
            let first = points.first().unwrap();
            let last = points.last().unwrap();
            assert!(
                last.disclosure <= first.disclosure + 1e-9,
                "k={k}: {first:?} -> {last:?}"
            );
        }
        // Larger k ⇒ pointwise larger disclosure at equal entropy keys.
        let by_k: std::collections::HashMap<usize, &Vec<Fig6Point>> =
            series.iter().map(|(k, v)| (*k, v)).collect();
        for (p1, p11) in by_k[&1].iter().zip(by_k[&11].iter()) {
            assert!(p11.disclosure >= p1.disclosure - 1e-9);
        }
    }

    #[test]
    fn load_table_arg_forms() {
        // Positional n_rows/seed.
        let t = load_table_arg(&["300".into(), "5".into()]).unwrap();
        assert_eq!(t.n_rows(), 300);
        // --adult-csv path.
        let dir = std::env::temp_dir().join("wcbk_load_arg");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("adult.data");
        std::fs::write(
            &path,
            "39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical, \
             Not-in-family, White, Male, 2174, 0, 40, United-States, <=50K\n",
        )
        .unwrap();
        let t = load_table_arg(&["--adult-csv".into(), path.display().to_string()]).unwrap();
        assert_eq!(t.n_rows(), 1);
        assert_eq!(t.value(0, 4), "Adm-clerical");
        // Missing path errors.
        assert!(load_table_arg(&["--adult-csv".into()]).is_err());
    }

    #[test]
    fn csv_and_table_output() {
        let dir = std::env::temp_dir().join("wcbk_bench_test");
        let path = dir.join("out.csv");
        let rows = vec![vec!["1".to_owned(), "0.5".to_owned()]];
        let written = write_csv(&path, &["k", "v"], &rows).unwrap();
        let content = std::fs::read_to_string(written).unwrap();
        assert_eq!(content, "k,v\n1,0.5\n");
        let mut buf = Vec::new();
        print_aligned(&mut buf, &["k", "value"], &rows).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("value"));
        assert!(text.contains("0.5"));
    }
}
