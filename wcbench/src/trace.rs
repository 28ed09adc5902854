//! Spans: name, start, end, parent and op id, kept in memory until the
//! run ends. A span's self time is its duration minus its children's;
//! children never exceed their parent (derived child durations are capped
//! at the parent's remaining time), so per op the self times of all its
//! spans sum exactly to the op's wall time. The op's root span is not a
//! layer: its self time is the op's unattributed remainder.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::plan::{Call, Plan};
use crate::run::Pass;
use crate::stats::{mean, Metrics};

/// Name of every op's root span.
pub const OP: &str = "op";

pub struct Span {
    pub name: &'static str,
    pub op: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Σ durations of the children recorded so far.
    children_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn self_ns(&self) -> u64 {
        self.dur_ns() - self.children_ns
    }
}

pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    /// Nanoseconds since the trace began.
    pub fn clock_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span covering the call `f`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start_ns = self.clock_ns();
        let out = f();
        let end_ns = self.clock_ns();
        (self.push(name, op, parent, start_ns, end_ns), out)
    }

    /// Records a span of known bounds.
    pub fn push(
        &mut self,
        name: &'static str,
        op: usize,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        if let Some(p) = parent {
            self.spans[p].children_ns += end_ns - start_ns;
        }
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
            children_ns: 0,
        });
        self.spans.len() - 1
    }

    /// A child of `parent` whose duration was measured elsewhere (a server
    /// profile field, a counter delta), placed after the parent's recorded
    /// children and capped at the parent's remaining time.
    pub fn derived(&mut self, name: &'static str, parent: usize, dur_ns: u64) -> usize {
        let p = &self.spans[parent];
        let dur = dur_ns.min(p.self_ns());
        let start = p.start_ns + p.children_ns;
        let op = p.op;
        self.push(name, op, Some(parent), start, start + dur)
    }

    /// A root span for op `op` covering `[start_ns, end_ns]`.
    pub fn root(&mut self, op: usize, start_ns: u64, end_ns: u64) -> usize {
        self.push(OP, op, None, start_ns, end_ns)
    }

    /// Per span name: (Σ self ns, Σ duration ns, count).
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64, usize)> {
        let mut out: BTreeMap<&'static str, (u64, u64, usize)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += s.self_ns();
            e.1 += s.dur_ns();
            e.2 += 1;
        }
        out
    }

    /// The largest per-op gap between the op's wall time and the sum of
    /// its spans' self times (0 when the attribution is exact).
    pub fn identity_error_ns(&self) -> u64 {
        let mut wall: BTreeMap<usize, u64> = BTreeMap::new();
        let mut selfs: BTreeMap<usize, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent.is_none() {
                *wall.entry(s.op).or_default() += s.dur_ns();
            }
            *selfs.entry(s.op).or_default() += s.self_ns();
        }
        wall.iter()
            .map(|(op, w)| w.abs_diff(selfs.get(op).copied().unwrap_or(0)))
            .max()
            .unwrap_or(0)
    }

    /// Mean self time per op of the root spans: the unattributed remainder.
    pub fn unattributed_ms(&self) -> f64 {
        let roots: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == OP)
            .map(|s| s.self_ns() as f64 / 1e6)
            .collect();
        mean(&roots)
    }
}

/// A `"profile"` object's phase micros.
fn profile_field(body: &[u8], key: &str) -> Option<u64> {
    let json = wcbk_serve::Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    let profile = json.get("profile")?;
    profile
        .get(key)
        .or_else(|| profile.get("detail")?.get(key))
        .and_then(wcbk_serve::Json::as_u64)
}

/// Per-layer metrics of the traced HTTP pass: each timed op becomes a span
/// tree — op → request (client round trip; self time is the wire) →
/// parse, queue wait and compute from the server's `"profile"` → scan,
/// derive and MINIMIZE1 build from its detail. Requests without a profile
/// (registrations, releases, compositions) stay whole, as
/// `serve.unprofiled`. Returns the trace for the identity check.
pub fn http_layers(plan: &Plan, traced: &Pass, plain: &Pass, m: &mut Metrics) -> Trace {
    let mut t = Trace::default();
    let (mut parse, mut wire) = (Vec::new(), Vec::new());
    for (i, (op, out)) in traced.ops(plan).enumerate() {
        let root = t.root(i, 0, out.wall_ns);
        for (req, got) in op.reqs.iter().zip(&out.reqs) {
            let profiled = matches!(req.call, Call::Search { .. } | Call::Audit { .. });
            let total = profile_field(&got.body, "total_micros").filter(|_| profiled);
            let Some(total) = total else {
                let start = t.spans[root].start_ns + t.spans[root].children_ns;
                t.push(
                    "serve.unprofiled",
                    i,
                    Some(root),
                    start,
                    start + got.rtt_ns.min(t.spans[root].self_ns()),
                );
                continue;
            };
            let start = t.spans[root].start_ns + t.spans[root].children_ns;
            let request = t.push(
                "serve.wire",
                i,
                Some(root),
                start,
                start + got.rtt_ns.min(t.spans[root].self_ns()),
            );
            let micros = |k: &str| profile_field(&got.body, k).unwrap_or(0) * 1000;
            t.derived("serve.parse", request, micros("parse_micros"));
            t.derived("serve.queue_wait", request, micros("queue_wait_micros"));
            let compute = t.derived("serve.compute", request, micros("compute_micros"));
            t.derived("hierarchy.scan", compute, micros("scan_micros"));
            t.derived("hierarchy.derive", compute, micros("derive_micros"));
            t.derived(
                "core.minimize1_build",
                compute,
                micros("minimize1_build_micros"),
            );
            parse.push(micros("parse_micros") as f64 / 1e6);
            wire.push(got.rtt_ns.saturating_sub(total * 1000) as f64 / 1e6);
        }
    }
    let delta = |name: &str| -> f64 {
        traced
            .segments
            .iter()
            .map(|s| {
                crate::server::family(&s.metrics_after, name)
                    - crate::server::family(&s.metrics_before, name)
            })
            .sum()
    };
    let waits = delta("wcbk_http_queue_wait_micros_count");
    let n_ops = plan.ops() as f64;
    let wall = |p: &Pass| {
        mean(
            &p.ops(plan)
                .map(|(_, o)| o.wall_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    m.put("serve.parse_ms", mean(&parse), "ms");
    m.put(
        "serve.queue_wait_ms",
        if waits > 0.0 {
            delta("wcbk_http_queue_wait_micros_sum") / waits / 1e3
        } else {
            0.0
        },
        "ms",
    );
    m.put("serve.wire_ms", mean(&wire), "ms");
    // Per WAL append over each server's lifetime, set-up included: the
    // cost of one durable commit, whether or not the timed ops write.
    let lifetime = |name: &str| -> f64 {
        traced
            .segments
            .iter()
            .map(|s| crate::server::family(&s.metrics_after, name))
            .sum()
    };
    m.put(
        "store.wal_fsync_us",
        lifetime("wcbk_store_wal_fsync_micros_total")
            / lifetime("wcbk_store_wal_appends_total").max(1.0),
        "us",
    );
    m.put(
        "store.wal_appends_per_op",
        delta("wcbk_store_wal_appends_total") / n_ops,
        "count",
    );
    m.put("trace.http_op_ms", wall(traced), "ms");
    m.put("trace.http_unattributed_ms", http_unattributed(&t), "ms");
    m.put("trace.overhead_ms", wall(traced) - wall(plain), "ms");
    t
}

/// Mean per op of the HTTP time no layer accounts for: the op root's own
/// time, handler compute outside the profile's detail, and requests that
/// carry no profile.
fn http_unattributed(t: &Trace) -> f64 {
    let mut per_op: BTreeMap<usize, u64> = BTreeMap::new();
    for s in &t.spans {
        if matches!(s.name, OP | "serve.compute" | "serve.unprofiled") {
            *per_op.entry(s.op).or_default() += s.self_ns();
        }
    }
    mean(
        &per_op
            .values()
            .map(|&ns| ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    )
}
