//! The in-process replay of a plan's first server lifetime: the same ops,
//! in the same order, as direct calls into each crate's public entry
//! points, each wrapped in a span. Counters the crates already keep (roll-up derive time, MINIMIZE1
//! build time, memo and cache hits) become derived child spans or ratios.
//!
//! Counter-derived metrics (derive time, MINIMIZE1 build time, hit ratios)
//! cover the timed ops only: the lifetime's set-up is excluded, as it is
//! from the end-to-end figures, and set-up costs show in `setup_s` and in
//! the per-call ingest, scan and register spans.
//!
//! Layers a workload's ops never reach are measured by a probe on the
//! workload's own data (listed in the `probes` context line), so every
//! per-layer metric is a measurement on every workload.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use wcbk_anonymize::{AnonymizeError, DatasetSession, ModelId, PrivacyCriterion, SearchConfig};
use wcbk_core::{CacheStats, EngineRegistry, HistogramSet};
use wcbk_hierarchy::{GenNode, NodeEvaluator};
use wcbk_serve::service::CsvUpload;
use wcbk_serve::{persist, AuditService, Json, ServiceLimits};
use wcbk_store::DatasetStore;

use crate::data::{self, QI, SENSITIVE, UPLOAD_PATH};
use crate::plan::{coarse_nodes, Call, Plan, Req, Segment, KS};
use crate::run::{wire, Pass};
use crate::stats::{mean, Metrics};
use crate::trace::Trace;

/// Times every `is_satisfied_hist` call of the criterion it wraps.
struct Timed<'a> {
    inner: &'a dyn PrivacyCriterion,
    /// Σ call ns.
    calls: Mutex<u64>,
}

impl PrivacyCriterion for Timed<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn is_satisfied_hist(&self, h: &HistogramSet) -> Result<bool, AnonymizeError> {
        let started = Instant::now();
        let out = self.inner.is_satisfied_hist(h);
        *self.calls.lock().expect("criterion timer poisoned") +=
            started.elapsed().as_nanos() as u64;
        out
    }
}

/// One replayed dataset.
struct Live {
    session: DatasetSession,
    fingerprint: u64,
}

/// Counter snapshots the replay turns into derived spans and ratios.
#[derive(Clone, Copy, Default)]
struct Counters {
    derive_us: u64,
    memo_hits: u64,
    derived: u64,
    cache_hits: u64,
    cache_misses: u64,
    build_us: u64,
}

fn counters(live: &[Option<Live>], engines: &EngineRegistry) -> Counters {
    let cache: CacheStats = engines.stats().totals();
    let mut c = Counters {
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        build_us: cache.build_micros,
        ..Counters::default()
    };
    for s in live
        .iter()
        .flatten()
        .filter_map(|l| l.session.rollup_stats())
    {
        c.derive_us += s.derive_micros;
        c.memo_hits += s.memo_hits;
        c.derived += s.derived;
    }
    c
}

impl Counters {
    /// The growth since `before`.
    fn minus(self, before: Counters) -> Counters {
        Counters {
            derive_us: self.derive_us - before.derive_us,
            memo_hits: self.memo_hits - before.memo_hits,
            derived: self.derived - before.derived,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            build_us: self.build_us - before.build_us,
        }
    }
}

struct Replay<'a> {
    plan: &'a Plan,
    engines: Arc<EngineRegistry>,
    store: DatasetStore,
    live: Vec<Option<Live>>,
    t: Trace,
    searches: Vec<(ModelId, usize)>,
    rows: usize,
    bottom_groups: Vec<f64>,
}

impl Replay<'_> {
    fn totals(&self) -> Counters {
        counters(&self.live, &self.engines)
    }

    /// Replays one op as a span tree rooted at `op`.
    fn op(&mut self, op: usize, reqs: &[(usize, &Call)]) -> Result<(), String> {
        // Inputs are generated before the op's clock starts, as on the wire.
        let csvs: Vec<Option<Vec<u8>>> = reqs
            .iter()
            .map(|(d, call)| {
                matches!(call, Call::Register).then(|| {
                    let ds = &self.plan.datasets[*d];
                    data::csv_bytes(ds.rows, ds.seed)
                })
            })
            .collect();
        let start = self.t.clock_ns();
        let root = self.t.root(op, start, start);
        for ((d, call), csv) in reqs.iter().zip(csvs) {
            self.call(op, root, *d, call, csv)?;
        }
        let end = self.t.clock_ns();
        self.t.spans[root].end_ns = end;
        Ok(())
    }

    fn call(
        &mut self,
        op: usize,
        root: usize,
        d: usize,
        call: &Call,
        csv: Option<Vec<u8>>,
    ) -> Result<(), String> {
        let before = self.totals();
        let parent = Some(root);
        match call {
            Call::Register => {
                let csv = csv.expect("registrations carry a dataset");
                let (_, table) = self
                    .t
                    .span("table.ingest", op, parent, || data::ingest(&csv));
                self.rows += table.n_rows();
                let engines = Arc::clone(&self.engines);
                let (_, session) = self.t.span("anonymize.register", op, parent, || {
                    data::session(table, &engines)
                });
                self.t
                    .span("hierarchy.scan", op, parent, || session.has_evaluator());
                let (_, fingerprint) = self.t.span("hierarchy.fingerprint", op, parent, || {
                    session.fingerprint()
                });
                let qi: Vec<String> = QI.iter().map(|s| s.to_string()).collect();
                let (_, payload) = self.t.span("serve.persist_encode", op, parent, || {
                    persist::encode_session(&session, &qi, SENSITIVE)
                });
                let (_, stored) = self.t.span("store.register", op, parent, || {
                    self.store.register(fingerprint, &payload)
                });
                stored.map_err(|e| format!("store register: {e}"))?;
                self.bottom_groups
                    .push(session.rollup_stats().map_or(0, |s| s.bottom_groups) as f64);
                if self.live.len() <= d {
                    self.live.resize_with(d + 1, || None);
                }
                self.live[d] = Some(Live {
                    session,
                    fingerprint,
                });
            }
            Call::Search { c, k, model } => {
                let live = self.live[d].as_ref().ok_or("search before register")?;
                let criterion = crate::oracle::criterion(&live.session, *c, *k, *model);
                let timed = Timed {
                    inner: &*criterion,
                    calls: Mutex::new(0),
                };
                let config = SearchConfig {
                    threads: 1,
                    ..SearchConfig::default()
                };
                let (span, report) = self.t.span("anonymize.search", op, parent, || {
                    live.session.search(&timed, &config)
                });
                let report = report.map_err(|e| format!("search: {e}"))?;
                self.searches.push((*model, report.outcome.evaluated));
                let crit_ns = *timed.calls.lock().expect("criterion timer poisoned");
                let name = if *model == ModelId::Conjunction {
                    "core.criterion"
                } else {
                    "adversary.bound"
                };
                let crit = self.t.derived(name, span, crit_ns);
                let after = self.totals();
                self.t.derived(
                    "core.minimize1_build",
                    crit,
                    (after.build_us - before.build_us) * 1000,
                );
                self.t.derived(
                    "hierarchy.derive",
                    span,
                    (after.derive_us - before.derive_us) * 1000,
                );
            }
            Call::Audit { c, k } => {
                let live = self.live[d].as_ref().ok_or("audit before register")?;
                let (span, report) = self.t.span("core.audit", op, parent, || {
                    live.session.audit(Some(*c), *k)
                });
                report.map_err(|e| format!("audit: {e}"))?;
                let after = self.totals();
                self.t.derived(
                    "core.minimize1_build",
                    span,
                    (after.build_us - before.build_us) * 1000,
                );
            }
            Call::Release { node } => {
                let live = self.live[d].as_ref().ok_or("release before register")?;
                let record = persist::encode_release(&GenNode(node.clone()), ModelId::Conjunction);
                let (_, appended) = self.t.span("store.append", op, parent, || {
                    self.store.append_release(live.fingerprint, &record)
                });
                appended.map_err(|e| format!("store append: {e}"))?;
                let (span, report) = self.t.span("anonymize.release", op, parent, || {
                    live.session.release(&GenNode(node.clone()))
                });
                report.map_err(|e| format!("release: {e}"))?;
                let after = self.totals();
                self.t.derived(
                    "hierarchy.derive",
                    span,
                    (after.derive_us - before.derive_us) * 1000,
                );
            }
            Call::Composition { c, k } => {
                let live = self.live[d].as_ref().ok_or("composition before register")?;
                let (span, report) = self.t.span("anonymize.composition", op, parent, || {
                    live.session.audit_composition(Some(*c), *k)
                });
                report.map_err(|e| format!("composition: {e}"))?;
                let after = self.totals();
                self.t.derived(
                    "core.minimize1_build",
                    span,
                    (after.build_us - before.build_us) * 1000,
                );
            }
        }
        Ok(())
    }
}

/// Replays `plan` in-process and reports every per-layer metric it can
/// measure; `dir` holds the replay's own durable store.
pub fn layers(plan: &Plan, traced: &Pass, dir: &Path, m: &mut Metrics) -> Result<Trace, String> {
    let store =
        DatasetStore::open(&dir.join("store")).map_err(|e| format!("opening replay store: {e}"))?;
    let mut r = Replay {
        plan,
        engines: Arc::new(EngineRegistry::new()),
        store,
        live: Vec::new(),
        t: Trace::default(),
        searches: Vec::new(),
        rows: 0,
        bottom_groups: Vec::new(),
    };
    // The first server lifetime: its set-up, then its timed ops. One
    // lifetime's ops are plenty for per-call means, and keep the traced run
    // within its time limit.
    let segment = &plan.segments[0];
    let mut op = 0;
    for req in &segment.setup {
        r.op(op, &[(req.dataset, &req.call)])?;
        op += 1;
    }
    let before = r.totals();
    for o in segment.conns.iter().flatten() {
        let calls: Vec<(usize, &Call)> = o.reqs.iter().map(|r| (r.dataset, &r.call)).collect();
        r.op(op, &calls)?;
        op += 1;
    }
    // Counter growth over the timed ops only.
    let timed = r.totals().minus(before);
    let n_ops = segment.conns.iter().map(Vec::len).sum::<usize>() as f64;

    // Probes for layers the ops never reached, on the lifetime's first
    // dataset.
    let d = segment.setup[0].dataset;
    let mut probes: Vec<&str> = Vec::new();
    let mut probe: Vec<Call> = Vec::new();
    let names = r.t.by_name();
    let reached = |n: &str| names.contains_key(n);
    if !reached("core.audit") {
        probes.push("core.audit");
        probe.extend(KS.iter().map(|&k| Call::Audit { c: 0.7, k }));
    }
    if !reached("anonymize.search") {
        probes.extend(["core.criterion", "adversary.bound", "anonymize.search"]);
        for &k in &KS[..3] {
            for model in [ModelId::Conjunction, ModelId::Distribution] {
                probe.push(Call::Search { c: 0.7, k, model });
            }
        }
    } else if !reached("adversary.bound") {
        probes.push("adversary.bound");
        probe.extend(KS[..3].iter().map(|&k| Call::Search {
            c: 0.7,
            k,
            model: ModelId::Distribution,
        }));
    }
    if !reached("anonymize.release") {
        probes.extend(["anonymize.release", "store.append"]);
        let live = r.live[d]
            .as_ref()
            .ok_or("the probed dataset is not registered")?;
        let nodes = coarse_nodes(live.session.lattice());
        probe.extend(nodes.into_iter().map(|node| Call::Release { node }));
    }
    if !reached("anonymize.composition") {
        probes.push("anonymize.composition");
        probe.extend(KS.iter().map(|&k| Call::Composition { c: 0.7, k }));
    }
    for call in &probe {
        r.op(op, &[(d, call)])?;
        op += 1;
    }

    let names = r.t.by_name();
    let per_call_ms = |n: &str| {
        names
            .get(n)
            .map_or(0.0, |e| e.1 as f64 / e.2.max(1) as f64 / 1e6)
    };
    let self_ms = |n: &str| {
        names
            .get(n)
            .map_or(0.0, |e| e.0 as f64 / e.2.max(1) as f64 / 1e6)
    };
    let ingest_s = names.get("table.ingest").map_or(0.0, |e| e.1 as f64 / 1e9);
    m.put("table.ingest_ms", per_call_ms("table.ingest"), "ms");
    m.put(
        "table.rows_per_s",
        if ingest_s > 0.0 {
            r.rows as f64 / ingest_s
        } else {
            0.0
        },
        "1/s",
    );
    m.put("hierarchy.scan_ms", per_call_ms("hierarchy.scan"), "ms");
    m.put("hierarchy.bottom_groups", mean(&r.bottom_groups), "count");
    m.put(
        "hierarchy.fingerprint_ms",
        per_call_ms("hierarchy.fingerprint"),
        "ms",
    );
    m.put(
        "hierarchy.derive_ms",
        timed.derive_us as f64 / 1e3 / n_ops,
        "ms",
    );
    let ratio = |a: u64, b: u64| {
        if a + b > 0 {
            a as f64 / (a + b) as f64
        } else {
            0.0
        }
    };
    m.put(
        "hierarchy.memo_hit_ratio",
        ratio(timed.memo_hits, timed.derived),
        "ratio",
    );
    m.put("hierarchy.histograms_us", histograms_probe(&r)?, "us");
    // Criterion time per search op that judged under that criterion.
    let per_search = |n: &str, model: ModelId| {
        let searches = r
            .searches
            .iter()
            .filter(|(m, _)| (*m == ModelId::Conjunction) == (model == ModelId::Conjunction))
            .count();
        names
            .get(n)
            .map_or(0.0, |e| e.1 as f64 / searches.max(1) as f64 / 1e6)
    };
    m.put(
        "core.criterion_ms",
        per_search("core.criterion", ModelId::Conjunction),
        "ms",
    );
    m.put(
        "core.minimize1_build_ms",
        timed.build_us as f64 / 1e3 / n_ops,
        "ms",
    );
    m.put(
        "core.minimize1_hit_ratio",
        ratio(timed.cache_hits, timed.cache_misses),
        "ratio",
    );
    m.put("core.audit_ms", per_call_ms("core.audit"), "ms");
    m.put(
        "adversary.bound_ms",
        per_search("adversary.bound", ModelId::Distribution),
        "ms",
    );
    m.put("anonymize.search_ms", per_call_ms("anonymize.search"), "ms");
    m.put(
        "anonymize.search_self_ms",
        self_ms("anonymize.search"),
        "ms",
    );
    let evaluated: Vec<f64> = r.searches.iter().map(|(_, e)| *e as f64).collect();
    m.put("anonymize.nodes_evaluated", mean(&evaluated), "count");
    m.put(
        "anonymize.evaluated_ratio",
        mean(&evaluated) / plan.lattice_nodes.max(1) as f64,
        "ratio",
    );
    m.put(
        "anonymize.release_ms",
        per_call_ms("anonymize.release"),
        "ms",
    );
    m.put(
        "anonymize.composition_ms",
        per_call_ms("anonymize.composition"),
        "ms",
    );
    m.put("store.register_ms", per_call_ms("store.register"), "ms");
    m.put("store.append_ms", per_call_ms("store.append"), "ms");
    let (_, checkpoint) = r.t.span("store.checkpoint", usize::MAX, None, || {
        r.store.checkpoint()
    });
    checkpoint.map_err(|e| format!("store checkpoint: {e}"))?;
    m.put(
        "store.checkpoint_ms",
        per_call_ms_of(&r.t, "store.checkpoint"),
        "ms",
    );
    m.put("serve.json_ms", json_ms(plan, traced), "ms");

    m.put(
        "serve.service_ms",
        service_ms(plan, &dir.join("service"))?,
        "ms",
    );
    m.put("trace.replay_unattributed_ms", r.t.unattributed_ms(), "ms");
    println!(
        "{}",
        Json::object(vec![(
            "probes",
            Json::Array(probes.iter().map(|&p| p.into()).collect())
        )])
    );
    Ok(r.t)
}

fn per_call_ms_of(t: &Trace, name: &str) -> f64 {
    t.by_name()
        .get(name)
        .map_or(0.0, |e| e.1 as f64 / e.2.max(1) as f64 / 1e6)
}

/// `NodeEvaluator::histograms` per call with a warm memo: every lattice
/// node of the first replayed dataset, repeated.
fn histograms_probe(r: &Replay<'_>) -> Result<f64, String> {
    let ds = &r.plan.datasets[0];
    let table = data::ingest(&data::csv_bytes(ds.rows, ds.seed));
    let lattice = data::lattice(&table);
    let eval = NodeEvaluator::new(&table, &lattice).map_err(|e| format!("evaluator: {e}"))?;
    let nodes = lattice.nodes();
    for n in &nodes {
        eval.histograms(n).map_err(|e| format!("histograms: {e}"))?;
    }
    let rounds = 20;
    let started = Instant::now();
    for _ in 0..rounds {
        for n in &nodes {
            std::hint::black_box(eval.histograms(n).map_err(|e| format!("histograms: {e}"))?);
        }
    }
    Ok(started.elapsed().as_secs_f64() * 1e6 / (rounds * nodes.len()) as f64)
}

/// `Json::parse` of each op's request bodies and recorded response bodies
/// plus the render of the parsed responses, per op.
fn json_ms(plan: &Plan, traced: &Pass) -> f64 {
    let mut per_op = Vec::new();
    for (op, out) in traced.ops(plan) {
        let bodies: Vec<Vec<u8>> = op
            .reqs
            .iter()
            .filter(|r| !matches!(r.call, Call::Register))
            .map(|r| wire(plan, r, true).body)
            .collect();
        let started = Instant::now();
        for b in &bodies {
            std::hint::black_box(Json::parse(std::str::from_utf8(b).unwrap_or("")).ok());
        }
        for got in &out.reqs {
            if let Ok(j) = Json::parse(std::str::from_utf8(&got.body).unwrap_or("")) {
                std::hint::black_box(j.to_string());
            }
        }
        per_op.push(started.elapsed().as_secs_f64() * 1e3);
    }
    mean(&per_op)
}

/// The first lifetime's ops through an in-process [`AuditService`] with a
/// durable store, as the server's handlers call it: per op, mean
/// milliseconds. One lifetime's ops are plenty for a mean, and keep the
/// traced run within its time limit.
fn service_ms(plan: &Plan, dir: &Path) -> Result<f64, String> {
    let store = DatasetStore::open(&dir.join("service"))
        .map_err(|e| format!("opening service store: {e}"))?;
    let service = AuditService::with_store(ServiceLimits::default(), Arc::new(store));
    let mut per_op = Vec::new();
    service_segment(plan, &plan.segments[0], &service, &mut per_op)?;
    Ok(mean(&per_op))
}

fn service_segment(
    plan: &Plan,
    segment: &Segment,
    service: &AuditService,
    per_op: &mut Vec<f64>,
) -> Result<(), String> {
    let run = |req: &Req, csv: Option<Vec<u8>>| -> Result<(), String> {
        let id = plan.datasets[req.dataset].id.as_str();
        let body = || -> Result<Json, String> {
            let b = wire(plan, req, false).body;
            Json::parse(std::str::from_utf8(&b).unwrap_or("")).map_err(|e| e.to_string())
        };
        let out = match &req.call {
            Call::Register => {
                let mut upload = CsvUpload::new(UPLOAD_PATH);
                upload.push(&csv.expect("registrations carry a dataset"));
                upload.finish();
                service.register_upload(upload)
            }
            Call::Search { .. } => service.session_search(id, &body()?),
            Call::Audit { .. } => service.session_audit(id, &body()?),
            Call::Release { .. } => service.session_release(id, &body()?),
            Call::Composition { .. } => service.session_composition(id, &body()?),
        };
        out.map(|_| ())
            .map_err(|e| format!("service {}: {e}", req.call.name()))
    };
    let csv_of = |req: &Req| {
        matches!(req.call, Call::Register).then(|| {
            let ds = &plan.datasets[req.dataset];
            data::csv_bytes(ds.rows, ds.seed)
        })
    };
    for req in &segment.setup {
        run(req, csv_of(req))?;
    }
    for op in segment.conns.iter().flatten() {
        let csvs: Vec<_> = op.reqs.iter().map(csv_of).collect();
        let started = Instant::now();
        for (req, csv) in op.reqs.iter().zip(csvs) {
            run(req, csv)?;
        }
        per_op.push(started.elapsed().as_secs_f64() * 1e3);
    }
    Ok(())
}
