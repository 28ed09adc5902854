//! `wcbench --workload NAME --seed N --seconds S --trace 0|1 --server BIN`
//!
//! Prints a run-context JSON line, then the result line (`correct`,
//! `attempted`, `failed`, `metrics`) last. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` the per-layer metrics of a separate
//! traced run with the same seed and op sequence.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use wcbench::plan::{self, Plan, Workload};
use wcbench::run::{self, Pass};
use wcbench::server;
use wcbench::stats::{median, percentile, Metrics};
use wcbench::{replay, trace};
use wcbk_serve::Json;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    Ok(Args {
        workload: Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
        seed: value("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: value("--seconds")?.parse().map_err(|_| "bad --seconds")?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        server: PathBuf::from(value("--server")?),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wcbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = PathBuf::from(".bench_run").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let outcome = std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("creating {}: {e}", scratch.display()))
        .and_then(|()| bench(&args, &scratch));
    let _ = std::fs::remove_dir_all(&scratch);
    // Succeeds only once no other run is using the scratch root.
    let _ = std::fs::remove_dir(".bench_run");
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wcbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Blocks of each segment's ops for throughput: the rate is taken per
/// block and reported as the median over blocks, so a burst of
/// interference from outside the benchmark moves a few blocks, not the
/// figure.
const RATE_BLOCKS: usize = 20;

/// Block `b` of `n` of `ops`.
fn block<T>(ops: &[T], b: usize, n: usize) -> &[T] {
    &ops[b * ops.len() / n..(b + 1) * ops.len() / n]
}

/// The end-to-end metrics of an untraced pass.
fn end_to_end(pass: &Pass) -> Metrics {
    let segs = &pass.segments;
    let walls: Vec<f64> = segs
        .iter()
        .flat_map(|s| s.timed.iter().flatten())
        .map(|o| ms(o.wall_ns))
        .collect();
    // Ops per second of busy time: per connection, a block's ops over the
    // sum of their op times (inputs generated between ops are excluded);
    // the connections' rates add up.
    let rates: Vec<f64> = segs
        .iter()
        .flat_map(|s| {
            (0..RATE_BLOCKS).map(|b| {
                s.timed
                    .iter()
                    .map(|ops| {
                        let ops = block(ops, b, RATE_BLOCKS);
                        ops.len() as f64 / ops.iter().map(|o| o.wall_ns as f64 / 1e9).sum::<f64>()
                    })
                    .sum::<f64>()
            })
        })
        .collect();
    let setups: Vec<f64> = segs.iter().map(|s| s.setup_s).collect();
    let rss: Vec<f64> = segs.iter().map(|s| s.peak_rss_mb).collect();
    let mut m = Metrics::default();
    m.put("ops_per_s", median(&rates), "1/s");
    m.put("p50_ms", percentile(&walls, 0.50), "ms");
    m.put("setup_s", median(&setups), "s");
    m.put("peak_rss_mb", median(&rss), "MiB");
    m
}

/// Figures reported for reading but not gated: on the reference box the
/// latency tail and the fsynced write path swing with host load far more
/// than any bound allows (see `NOTES.md`).
fn ungated(plan: &Plan, pass: &Pass) -> Vec<(&'static str, Json)> {
    let segs = &pass.segments;
    let ops: usize = segs.iter().flat_map(|s| &s.timed).map(Vec::len).sum();
    let releases = run::release_rtts_ms(plan, pass);
    let cpu: f64 = segs.iter().map(|s| s.cpu_s).sum();
    let tails = segs
        .iter()
        .map(|s| {
            percentile(
                &s.timed
                    .iter()
                    .flatten()
                    .map(|o| ms(o.wall_ns))
                    .collect::<Vec<_>>(),
                0.99,
            )
            .into()
        })
        .collect();
    let mut fields = vec![("p99_ms_by_lifetime", Json::Array(tails))];
    // `audit-mix` only: the other workload's timed ops never release.
    if !releases.is_empty() {
        fields.push(("release_p50_ms", median(&releases).into()));
    }
    fields.extend([
        (
            "server_cpu_ms_per_op",
            (cpu * 1e3 / ops.max(1) as f64).into(),
        ),
        (
            "host_steal_pct",
            (segs.iter().map(|s| s.host_ticks.0).sum::<u64>() as f64 * 100.0
                / segs.iter().map(|s| s.host_ticks.1).sum::<u64>().max(1) as f64)
                .into(),
        ),
        // Checkpoints run when the WAL passes 1 MiB, which only large
        // registrations reach; lifetime totals, set-up included.
        (
            "store_checkpoint_us_per_op",
            (segs
                .iter()
                .map(|s| server::family(&s.metrics_after, "wcbk_store_checkpoint_micros_total"))
                .sum::<f64>()
                / ops.max(1) as f64)
                .into(),
        ),
    ]);
    fields
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unavailable".into())
}

/// The run context line: machine, server flags, flush policy, seed, cache
/// ratios at the start and end of the timed interval.
fn context(
    args: &Args,
    plan: &Plan,
    pass: &Pass,
    scratch: &Path,
    failed: usize,
    wrong: usize,
) -> String {
    let attempted = plan.ops();
    let per_segment = |f: &dyn Fn(&run::SegmentPass) -> f64| {
        Json::Array(pass.segments.iter().map(|s| f(s).into()).collect())
    };
    // Round trips by request kind: [count, p50 ms, p99 ms].
    let mut by_kind: Vec<(&str, Vec<f64>)> = Vec::new();
    for (req, got) in pass
        .ops(plan)
        .flat_map(|(op, out)| op.reqs.iter().zip(&out.reqs))
    {
        let name = req.call.name();
        let rtt = ms(got.rtt_ns);
        match by_kind.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => v.push(rtt),
            None => by_kind.push((name, vec![rtt])),
        }
    }
    let by_kind = Json::Object(
        by_kind
            .iter()
            .map(|(n, v)| {
                let stats = vec![
                    v.len().into(),
                    percentile(v, 0.5).into(),
                    percentile(v, 0.99).into(),
                ];
                (n.to_string(), Json::Array(stats))
            })
            .collect(),
    );
    let mut fields = vec![
        ("workload", args.workload.name().into()),
        ("seed", args.seed.into()),
        ("trace", args.trace.into()),
        (
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()).into(),
        ),
        ("rustc", command_output("rustc", &["--version"]).as_str().into()),
        ("commit", command_output("git", &["rev-parse", "HEAD"]).as_str().into()),
        (
            "server_flags",
            Json::Array(pass.flags.iter().map(|f| f.as_str().into()).collect()),
        ),
        ("data_dir_fs", server::filesystem(scratch).as_str().into()),
        (
            "flush_policy",
            "fsync-before-ack: registrations and releases are fdatasync'd to the WAL before the response"
                .into(),
        ),
        ("timed_ops", plan.ops().into()),
        ("server_lifetimes", pass.segments.len().into()),
        ("error_rate", (failed as f64 / attempted.max(1) as f64).into()),
        ("wrong_answers", wrong.into()),
        ("minimize1_hit_ratio_start", per_segment(&|s| s.ratios_start.0)),
        ("minimize1_hit_ratio_end", per_segment(&|s| s.ratios_end.0)),
        ("memo_hit_ratio_start", per_segment(&|s| s.ratios_start.1)),
        ("memo_hit_ratio_end", per_segment(&|s| s.ratios_end.1)),
        ("request_ms", by_kind),
    ];
    fields.extend(ungated(plan, pass));
    Json::object(fields).to_string()
}

fn bench(args: &Args, scratch: &Path) -> Result<String, String> {
    let plan = plan::build(args.workload, args.seed, args.seconds);
    let attempted = plan.ops();
    if !args.trace {
        let pass = run::http_pass(&args.server, &plan, scratch, false)?;
        let (failed, wrong) = run::check_pass(&plan, &pass);
        println!("{}", context(args, &plan, &pass, scratch, failed, wrong));
        return Ok(end_to_end(&pass).result_line(wrong == 0, attempted, failed));
    }
    // The traced run: an untraced pass for the overhead baseline, a traced
    // pass, then the in-process replay of the same ops.
    let plain = run::http_pass(&args.server, &plan, scratch, false)?;
    let traced = run::http_pass(&args.server, &plan, scratch, true)?;
    let (f1, w1) = run::check_pass(&plan, &plain);
    let (f2, w2) = run::check_pass(&plan, &traced);
    println!(
        "{}",
        context(args, &plan, &traced, scratch, f1 + f2, w1 + w2)
    );
    let mut metrics = Metrics::default();
    let http = trace::http_layers(&plan, &traced, &plain, &mut metrics);
    let replayed = replay::layers(&plan, &traced, scratch, &mut metrics)?;
    // Per op, layer self times plus the unattributed remainder must equal
    // the op's wall time; these are the largest deviations.
    println!(
        "{}",
        Json::object(vec![
            ("http_identity_error_ns", http.identity_error_ns().into()),
            (
                "replay_identity_error_ns",
                replayed.identity_error_ns().into()
            ),
        ])
    );
    Ok(metrics.result_line(w1 + w2 == 0, 2 * attempted, f1 + f2))
}
