//! Drives a plan against a live server over keep-alive connections, closed
//! loop, recording every response for the oracle check afterwards.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use wcbk_serve::Json;

use crate::data::{self, UPLOAD_PATH};
use crate::http::Conn;
use crate::oracle::{self, Verdict};
use crate::plan::{Call, Op, Plan, Req, Segment};
use crate::server::Server;

/// One request as sent and answered. `status` 0 is an I/O failure.
pub struct ReqOutcome {
    pub status: u16,
    pub body: Vec<u8>,
    /// Send of the first byte to receipt of the last.
    pub rtt_ns: u64,
}

/// One op: its wall time (first send to last byte) and its requests.
pub struct OpOutcome {
    pub wall_ns: u64,
    pub reqs: Vec<ReqOutcome>,
}

/// The wire form of one request: method, path, content type, body.
pub struct Wire {
    pub method: &'static str,
    pub path: String,
    pub content_type: &'static str,
    pub body: Vec<u8>,
}

/// Renders `req` for the wire; with `profile`, searches and audits ask
/// for the server's phase profile.
pub fn wire(plan: &Plan, req: &Req, profile: bool) -> Wire {
    let ds = &plan.datasets[req.dataset];
    let base = format!("/tables/{}", ds.id);
    let prof = if profile { ",\"profile\":true" } else { "" };
    let json = |path: String, body: String| Wire {
        method: "POST",
        path,
        content_type: "application/json",
        body: body.into_bytes(),
    };
    match &req.call {
        Call::Register => Wire {
            method: "POST",
            path: UPLOAD_PATH.to_owned(),
            content_type: "text/csv",
            body: data::csv_bytes(ds.rows, ds.seed),
        },
        Call::Search { c, k, model } => {
            let model = match model.name() {
                "conjunction" => String::new(),
                name => format!(",\"model\":\"{name}\""),
            };
            json(
                format!("{base}/search"),
                format!("{{\"c\":{c},\"k\":{k}{model}{prof}}}"),
            )
        }
        Call::Audit { c, k } => json(
            format!("{base}/audit"),
            format!("{{\"c\":{c},\"k\":{k}{prof}}}"),
        ),
        Call::Release { node } => {
            let levels: Vec<String> = node.iter().map(usize::to_string).collect();
            json(
                format!("{base}/release"),
                format!("{{\"node\":[{}]}}", levels.join(",")),
            )
        }
        Call::Composition { c, k } => json(
            format!("{base}/composition"),
            format!("{{\"c\":{c},\"k\":{k}}}"),
        ),
    }
}

/// A connection that reconnects after an I/O failure.
pub struct Client<'a> {
    server: &'a Server,
    conn: Option<Conn>,
}

impl<'a> Client<'a> {
    pub fn new(server: &'a Server) -> Client<'a> {
        Client { server, conn: None }
    }

    fn send(&mut self, w: &Wire) -> ReqOutcome {
        let started = Instant::now();
        let result = match &mut self.conn {
            Some(c) => c.request(w.method, &w.path, w.content_type, &w.body),
            None => match Conn::connect(&self.server.addr) {
                Ok(c) => self
                    .conn
                    .insert(c)
                    .request(w.method, &w.path, w.content_type, &w.body),
                Err(e) => Err(e),
            },
        };
        let rtt_ns = started.elapsed().as_nanos() as u64;
        match result {
            Ok(resp) => ReqOutcome {
                status: resp.status,
                body: resp.body,
                rtt_ns,
            },
            Err(e) => {
                self.conn = None;
                ReqOutcome {
                    status: 0,
                    body: e.to_string().into_bytes(),
                    rtt_ns,
                }
            }
        }
    }

    /// Runs `reqs` back to back as one op. Bodies are rendered (datasets
    /// generated) before the op's clock starts.
    pub fn op(&mut self, plan: &Plan, reqs: &[Req], profile: bool) -> OpOutcome {
        let wires: Vec<Wire> = reqs.iter().map(|r| wire(plan, r, profile)).collect();
        let started = Instant::now();
        let reqs = wires.iter().map(|w| self.send(w)).collect();
        OpOutcome {
            wall_ns: started.elapsed().as_nanos() as u64,
            reqs,
        }
    }

    /// Runs a segment's set-up requests one by one.
    pub fn setup(&mut self, plan: &Plan, segment: &Segment) -> Vec<OpOutcome> {
        segment
            .setup
            .iter()
            .map(|r| self.op(plan, std::slice::from_ref(r), false))
            .collect()
    }
}

/// Runs every connection's ops concurrently, one thread per connection.
pub fn timed(
    server: &Server,
    plan: &Plan,
    segment: &Segment,
    profile: bool,
) -> Vec<Vec<OpOutcome>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = segment
            .conns
            .iter()
            .map(|ops: &Vec<Op>| {
                scope.spawn(move || {
                    let mut client = Client::new(server);
                    ops.iter()
                        .map(|op| client.op(plan, &op.reqs, profile))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a load thread panicked"))
            .collect()
    })
}

/// Responses of one server lifetime.
pub struct SegmentPass {
    pub setup_s: f64,
    pub setup: Vec<OpOutcome>,
    pub timed: Vec<Vec<OpOutcome>>,
    /// Server CPU seconds (all threads) over the timed ops.
    pub cpu_s: f64,
    /// Host `(steal, total)` CPU ticks over the timed ops.
    pub host_ticks: (u64, u64),
    pub peak_rss_mb: f64,
    /// MINIMIZE1 and memo hit ratios from `/stats` at the start and end of
    /// the timed interval.
    pub ratios_start: (f64, f64),
    pub ratios_end: (f64, f64),
    pub metrics_before: HashMap<String, f64>,
    pub metrics_after: HashMap<String, f64>,
}

/// Responses of one HTTP pass over every segment of a plan.
pub struct Pass {
    pub segments: Vec<SegmentPass>,
    pub flags: Vec<String>,
}

impl Pass {
    /// Every timed op with its outcome, in plan order.
    pub fn ops<'a>(&'a self, plan: &'a Plan) -> impl Iterator<Item = (&'a Op, &'a OpOutcome)> + 'a {
        plan.segments
            .iter()
            .zip(&self.segments)
            .flat_map(|(seg, out)| seg.conns.iter().zip(&out.timed))
            .flat_map(|(ops, outs)| ops.iter().zip(outs))
    }
}

/// MINIMIZE1 and roll-up memo hit ratios, cumulative, from `/stats`.
fn hit_ratios(server: &Server) -> Result<(f64, f64), String> {
    let mut conn = server.connect()?;
    let resp = conn
        .request("GET", "/stats", "application/json", b"")
        .map_err(|e| format!("GET /stats: {e}"))?;
    let stats = Json::parse(&String::from_utf8_lossy(&resp.body))
        .map_err(|e| format!("/stats body: {e}"))?;
    let num = |j: Option<&Json>| j.and_then(Json::as_f64).unwrap_or(0.0);
    let cache = stats.get("engine_cache");
    let (hits, misses) = (
        num(cache.and_then(|c| c.get("hits"))),
        num(cache.and_then(|c| c.get("misses"))),
    );
    let (mut memo_hits, mut derived) = (0.0, 0.0);
    for s in stats
        .get("sessions")
        .and_then(|s| s.get("per_session"))
        .and_then(Json::as_array)
        .unwrap_or(&[])
    {
        memo_hits += num(s.get("rollup").and_then(|r| r.get("memo_hits")));
        derived += num(s.get("rollup").and_then(|r| r.get("derived")));
    }
    let ratio = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { 0.0 };
    Ok((ratio(hits, misses), ratio(memo_hits, derived)))
}

/// Runs every segment on its own freshly spawned server: set-up (timed
/// from spawn to ready), then the timed ops.
pub fn http_pass(bin: &Path, plan: &Plan, scratch: &Path, profile: bool) -> Result<Pass, String> {
    let data_dir = scratch.join("data");
    let mut segments = Vec::new();
    let mut flags = Vec::new();
    for segment in &plan.segments {
        let started = Instant::now();
        let server = Server::spawn(bin, &data_dir)?;
        let setup = Client::new(&server).setup(plan, segment);
        let setup_s = started.elapsed().as_secs_f64();
        let ratios_start = hit_ratios(&server)?;
        let metrics_before = server.metrics()?;
        let cpu_before = server.cpu_s()?;
        let ticks_before = crate::server::cpu_ticks();
        let timed = timed(&server, plan, segment, profile);
        let cpu_s = server.cpu_s()? - cpu_before;
        let ticks_after = crate::server::cpu_ticks();
        let host_ticks = (
            ticks_after.0.saturating_sub(ticks_before.0),
            ticks_after.1.saturating_sub(ticks_before.1),
        );
        let metrics_after = server.metrics()?;
        let ratios_end = hit_ratios(&server)?;
        let peak_rss_mb = server.peak_rss_mb()?;
        flags.clone_from(&server.flags);
        server.stop()?;
        segments.push(SegmentPass {
            setup_s,
            setup,
            timed,
            cpu_s,
            host_ticks,
            peak_rss_mb,
            ratios_start,
            ratios_end,
            metrics_before,
            metrics_after,
        });
    }
    Ok(Pass { segments, flags })
}

/// The oracle check of every response of a pass: `(failed ops, wrong answers)`.
pub fn check_pass(plan: &Plan, pass: &Pass) -> (usize, usize) {
    let setup_ops = plan
        .segments
        .iter()
        .zip(&pass.segments)
        .flat_map(|(seg, out)| seg.setup.iter().map(std::slice::from_ref).zip(&out.setup));
    let other_ops = pass.ops(plan).map(|(op, out)| (op.reqs.as_slice(), out));
    let (mut failed, mut wrong) = (0, 0);
    for (reqs, out) in setup_ops.chain(other_ops) {
        let mut op_failed = false;
        for (req, got) in reqs.iter().zip(&out.reqs) {
            match oracle::check(&req.expect, got.status, &got.body) {
                Verdict::Pass => {}
                Verdict::Failed(why) => {
                    if failed < 5 {
                        eprintln!("wcbench: {} failed: {why}", req.call.name());
                    }
                    op_failed = true;
                }
                Verdict::Wrong(why) => {
                    if wrong < 5 {
                        eprintln!("wcbench: wrong {} answer: {why}", req.call.name());
                    }
                    wrong += 1;
                }
            }
        }
        failed += usize::from(op_failed);
    }
    (failed, wrong)
}

/// Round-trip times (ms) of the release requests among the timed ops.
pub fn release_rtts_ms(plan: &Plan, pass: &Pass) -> Vec<f64> {
    pass.ops(plan)
        .flat_map(|(op, out)| op.reqs.iter().zip(&out.reqs))
        .filter(|(req, _)| matches!(req.call, Call::Release { .. }))
        .map(|(_, got)| got.rtt_ns as f64 / 1e6)
        .collect()
}
