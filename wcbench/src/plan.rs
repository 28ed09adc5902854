//! Workloads: the seeded op sequence of each, with every expected answer
//! computed in-process before anything is timed.
//!
//! A run is a fixed number of ops (`seconds ×` the workload's nominal rate
//! on the reference 2-core box), so every run of a workload does identical
//! work — release histories in particular grow by the same amount. The ops
//! are split over [`SEGMENTS`] consecutive server lifetimes: each segment
//! starts a fresh server, registers datasets of its own, sets them up, and
//! runs its share of the ops, so a run's figures are not those of one
//! process's luck (its memory layout, where its threads landed) nor of one
//! dataset's.

use std::collections::HashMap;
use std::sync::Arc;

use wcbk_anonymize::{DatasetSession, ModelId};
use wcbk_core::EngineRegistry;
use wcbk_hierarchy::{GenNode, GeneralizationLattice};

use crate::data::{self, Rng};
use crate::oracle::{self, Expect};

/// Disclosure thresholds the workloads draw from.
pub const CS: [f64; 10] = [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95];
/// Attacker powers the workloads draw from.
pub const KS: [usize; 5] = [1, 2, 3, 5, 8];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WarmSearch,
    AuditMix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "warm-search" => Some(Workload::WarmSearch),
            "audit-mix" => Some(Workload::AuditMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmSearch => "warm-search",
            Workload::AuditMix => "audit-mix",
        }
    }

    /// Ops per second of `--seconds` (the reference box's closed-loop rate).
    fn nominal_rate(self) -> usize {
        match self {
            Workload::WarmSearch => 130,
            Workload::AuditMix => 5000,
        }
    }
}

/// Server lifetimes per run; `setup_s` is the median of their set-ups.
pub const SEGMENTS: usize = 5;

/// One registered dataset.
pub struct Dataset {
    pub rows: usize,
    pub seed: u64,
    pub id: String,
}

/// What a request asks, independent of its wire form.
#[derive(Clone, Debug)]
pub enum Call {
    Register,
    Search { c: f64, k: usize, model: ModelId },
    Audit { c: f64, k: usize },
    Release { node: Vec<usize> },
    Composition { c: f64, k: usize },
}

impl Call {
    pub fn name(&self) -> &'static str {
        match self {
            Call::Register => "register",
            Call::Search { .. } => "search",
            Call::Audit { .. } => "audit",
            Call::Release { .. } => "release",
            Call::Composition { .. } => "composition",
        }
    }
}

/// One request: the dataset it targets, the call, and its answer.
pub struct Req {
    pub dataset: usize,
    pub call: Call,
    pub expect: Expect,
}

/// One op: the requests a client issues back to back.
pub struct Op {
    pub reqs: Vec<Req>,
}

/// One server lifetime: set-up, then timed ops.
#[derive(Default)]
pub struct Segment {
    /// Registrations and the warm-up pass, in order, on one connection.
    pub setup: Vec<Req>,
    /// The timed ops of each connection.
    pub conns: Vec<Vec<Op>>,
}

pub struct Plan {
    pub datasets: Vec<Dataset>,
    pub segments: Vec<Segment>,
    pub lattice_nodes: usize,
}

impl Plan {
    /// Timed ops across segments.
    pub fn ops(&self) -> usize {
        self.segments
            .iter()
            .flat_map(|s| &s.conns)
            .map(Vec::len)
            .sum()
    }
}

/// Chunk `i` of `SEGMENTS` of `items`.
fn chunk<T>(items: &[T], i: usize) -> &[T] {
    &items[i * items.len() / SEGMENTS..(i + 1) * items.len() / SEGMENTS]
}

/// The seed of item `i` of input stream `stream` in a run seeded `seed`.
pub fn sub_seed(seed: u64, stream: u64, i: u64) -> u64 {
    Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (stream << 56) ^ i).next_u64()
}

/// The nodes of the two coarsest heights of `lattice`, which releases draw
/// from: folding a released bucket into a composition costs O(history), so
/// fine-node releases would make a fixed-length run quadratic.
pub fn coarse_nodes(lattice: &GeneralizationLattice) -> Vec<Vec<usize>> {
    let top = lattice.max_height();
    lattice
        .nodes()
        .into_iter()
        .filter(|n| n.height() + 1 >= top)
        .map(|n| n.0)
        .collect()
}

/// The oracle side of one dataset: its session and memoized answers.
struct Truth {
    session: DatasetSession,
    id: String,
    searches: HashMap<(u64, usize, ModelId), Vec<Vec<usize>>>,
    audits: HashMap<(u64, usize), (f64, bool)>,
}

impl Truth {
    fn new(rows: usize, seed: u64, engines: &Arc<EngineRegistry>) -> Truth {
        let table = data::ingest(&data::csv_bytes(rows, seed));
        let session = data::session(table, engines);
        let id = data::handle_id(&session);
        Truth {
            session,
            id,
            searches: HashMap::new(),
            audits: HashMap::new(),
        }
    }

    fn minimal(&mut self, c: f64, k: usize, model: ModelId) -> Vec<Vec<usize>> {
        let session = &self.session;
        self.searches
            .entry((c.to_bits(), k, model))
            .or_insert_with(|| {
                oracle::minimal_safe(session, &*oracle::criterion(session, c, k, model))
            })
            .clone()
    }

    fn expect(&mut self, call: &Call) -> Expect {
        let id = self.id.clone();
        match call {
            Call::Register => Expect::Register { id },
            Call::Search { c, k, model } => Expect::Search {
                minimal: self.minimal(*c, *k, *model),
                id,
            },
            Call::Audit { c, k } => {
                let session = &self.session;
                let (max_disclosure, safe) =
                    *self.audits.entry((c.to_bits(), *k)).or_insert_with(|| {
                        let report = session
                            .audit(Some(*c), *k)
                            .expect("auditing the oracle session");
                        (report.disclosure.value, report.safe.expect("c was given"))
                    });
                Expect::Audit {
                    id,
                    max_disclosure,
                    safe,
                }
            }
            Call::Release { node } => {
                let report = self
                    .session
                    .release(&GenNode(node.clone()))
                    .expect("releasing a lattice node");
                Expect::Release {
                    id,
                    node: node.clone(),
                    index: report.index,
                    buckets: report.buckets,
                    total_buckets: report.total_buckets,
                }
            }
            Call::Composition { c, k } => {
                let report = self
                    .session
                    .audit_composition(Some(*c), *k)
                    .expect("composing recorded releases");
                Expect::Composition {
                    id,
                    releases: report.releases,
                    buckets: report.buckets,
                    max_disclosure: report.value,
                    safe: report.safe.expect("c was given"),
                }
            }
        }
    }
}

/// Builds the seeded plan of `workload` and its expected answers.
pub fn build(workload: Workload, seed: u64, seconds: u64) -> Plan {
    let n_ops = workload.nominal_rate() * seconds.max(1) as usize;
    let engines = Arc::new(EngineRegistry::new());
    let mut rng = Rng::new(seed);
    let mut plan = Plan {
        datasets: Vec::new(),
        segments: Vec::new(),
        lattice_nodes: 0,
    };
    let add = |plan: &mut Plan, rows: usize, seed: u64| -> (usize, Truth) {
        let truth = Truth::new(rows, seed, &engines);
        plan.lattice_nodes = truth.session.lattice().n_nodes();
        plan.datasets.push(Dataset {
            rows,
            seed,
            id: truth.id.clone(),
        });
        (plan.datasets.len() - 1, truth)
    };
    let req = |truth: &mut Truth, dataset: usize, call: Call| Req {
        expect: truth.expect(&call),
        dataset,
        call,
    };
    let one = |r: Req| Op { reqs: vec![r] };
    match workload {
        Workload::WarmSearch => {
            let calls: Vec<Call> = (0..n_ops)
                .map(|_| {
                    let c = rng.pick(&CS);
                    let k = rng.pick(&KS);
                    let model = if rng.below(4) == 0 {
                        ModelId::Distribution
                    } else {
                        ModelId::Conjunction
                    };
                    Call::Search { c, k, model }
                })
                .collect();
            // The warm-up pass: every distinct search of the run once.
            let mut warm: Vec<(u64, usize, usize, &Call)> = calls
                .iter()
                .map(|call| match call {
                    Call::Search { c, k, model } => (c.to_bits(), *k, model.index(), call),
                    _ => unreachable!("warm-search issues searches only"),
                })
                .collect();
            warm.sort_by_key(|w| (w.0, w.1, w.2));
            warm.dedup_by_key(|w| (w.0, w.1, w.2));
            for i in 0..SEGMENTS {
                let (d, mut truth) = add(&mut plan, 100_000, sub_seed(seed, 1, i as u64));
                let mut setup = vec![req(&mut truth, d, Call::Register)];
                setup.extend(warm.iter().map(|w| req(&mut truth, d, w.3.clone())));
                let ops = chunk(&calls, i)
                    .iter()
                    .map(|c| one(req(&mut truth, d, c.clone())))
                    .collect();
                plan.segments.push(Segment {
                    setup,
                    conns: vec![ops],
                });
            }
        }
        Workload::AuditMix => {
            let mut crngs: Vec<Rng> = (0..2).map(|c| Rng::new(sub_seed(seed, 4, c))).collect();
            let per_conn = n_ops / 2 / SEGMENTS;
            for i in 0..SEGMENTS {
                let mut truths: Vec<(usize, Truth)> = (0..8)
                    .map(|h| add(&mut plan, 2_000, sub_seed(seed, 3, (i * 8 + h) as u64)))
                    .collect();
                // Compositions draw from the three smallest attacker powers.
                let coarse = coarse_nodes(truths[0].1.session.lattice());
                let mut segment = Segment::default();
                for (d, truth) in truths.iter_mut() {
                    segment.setup.push(req(truth, *d, Call::Register));
                }
                for (d, truth) in truths.iter_mut() {
                    for &k in &KS {
                        segment
                            .setup
                            .push(req(truth, *d, Call::Audit { c: CS[0], k }));
                    }
                }
                // Each connection owns half the handles, so every handle
                // sees its releases and compositions in one fixed order.
                for (conn, crng) in crngs.iter_mut().enumerate() {
                    let mut ops = Vec::with_capacity(per_conn);
                    for _ in 0..per_conn {
                        let (d, truth) = &mut truths[conn * 4 + crng.below(4)];
                        let roll = crng.below(100);
                        let call = if roll < 85 {
                            Call::Audit {
                                c: crng.pick(&CS),
                                k: crng.pick(&KS),
                            }
                        } else if roll < 95 || truth.session.releases() == 0 {
                            // (A composition needs a recorded release.)
                            Call::Release {
                                node: coarse[crng.below(coarse.len())].clone(),
                            }
                        } else {
                            Call::Composition {
                                c: crng.pick(&CS),
                                k: crng.pick(&KS[..3]),
                            }
                        };
                        ops.push(one(req(truth, *d, call)));
                    }
                    segment.conns.push(ops);
                }
                plan.segments.push(segment);
            }
        }
    }
    plan
}
