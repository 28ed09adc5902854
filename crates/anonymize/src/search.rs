//! Lattice search for minimal safe generalizations — sequential,
//! level-parallel, and work-stealing whole-lattice, over the one-scan
//! roll-up pipeline.
//!
//! All searches share the same monotone-pruning contract: a node with a
//! known-safe predecessor is safe by monotonicity and never evaluated; a
//! node whose predecessors are all unsafe must be. Two parallel schedules
//! implement it (see [`Schedule`]):
//!
//! * **Level-synchronous** — each height level's unpruned nodes are dealt
//!   round-robin across scoped worker threads sharing one `&C` criterion
//!   (hence [`PrivacyCriterion`]`: Send + Sync`), with verdicts merged in
//!   item order. Every level waits on its slowest node.
//! * **Work-stealing** (the default) — the whole lattice is handed to
//!   [`wcbk_core::sched`]'s scheduler: a node becomes runnable the moment
//!   its last predecessor's verdict lands, safe verdicts prune entire
//!   up-sets immediately through the generalization partial order, and idle
//!   workers speculatively evaluate still-pending nodes (discarding the
//!   work if the node gets pruned). No level barriers.
//!
//! Either way the outcome is **bit-for-bit identical** to the sequential
//! search — same minimal antichain in the same order, same `evaluated` and
//! `satisfied` counts, same first-error semantics (pinned by
//! `tests/parallel_search.rs` and `tests/rollup_equivalence.rs`).
//!
//! Pruning is sound only for a criterion preserved by coarsening. One that
//! declares otherwise ([`PrivacyCriterion::monotone`] is `false`, e.g.
//! safety under the minimality adversary) is evaluated at **every** node,
//! under any schedule, and its minimal nodes are the safe nodes with no safe
//! node below them.
//!
//! **Evaluation never re-scans the table.** A [`NodeEvaluator`] scans it
//! once at search start; every node is then judged from rolled-up
//! [`HistogramSet`](wcbk_core::HistogramSet)s via
//! [`PrivacyCriterion::is_satisfied_hist`], and a full
//! `Bucketization` is only materialized (by callers such as the
//! [`pipeline`](crate::pipeline)) for chosen minimal nodes. Tables whose
//! packed quasi-identifier signature exceeds 128 bits fall back to the
//! legacy `*_rescan` path, which bucketizes per node. On deep lattices the
//! evaluator's memo can be capped via [`SearchConfig::memo_capacity`].

use std::collections::{HashMap, HashSet};
use std::num::NonZeroUsize;

use wcbk_adversary::ModelId;
use wcbk_core::sched::{evaluate_work_stealing, MonotoneDag};
use wcbk_hierarchy::{
    GenNode, GeneralizationLattice, HierarchyError, NodeEvaluator, RollupStats, ScanOptions,
};
use wcbk_table::Table;

use crate::{AnonymizeError, PrivacyCriterion};

/// How a parallel lattice search spreads node evaluations across workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// One fan-out per height level; the level is a barrier.
    LevelSync,
    /// Whole-lattice work stealing with speculative evaluation — see the
    /// module docs. The default.
    #[default]
    WorkStealing,
}

impl std::str::FromStr for Schedule {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "level" | "level-sync" => Ok(Schedule::LevelSync),
            "steal" | "work-stealing" => Ok(Schedule::WorkStealing),
            other => Err(format!("unknown schedule {other:?} (want level|steal)")),
        }
    }
}

/// Knobs for the parallel searches ([`find_minimal_safe_with`],
/// [`crate::incognito::incognito_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchConfig {
    /// Worker threads: `0` = all available cores, `1` = sequential.
    pub threads: usize,
    /// Parallel schedule (ignored at 1 thread).
    pub schedule: Schedule,
    /// Group budget for the roll-up evaluator's memo (`None` = unbounded):
    /// retained node tables may total at most this many groups, weighed by
    /// actual size; see [`NodeEvaluator::with_memo_capacity`].
    pub memo_capacity: Option<usize>,
    /// Worker threads for the evaluator's one bottom scan (`0` = all
    /// available cores, `1` = in-thread). Bit-neutral: the scan's output is
    /// identical at any thread count — see [`ScanOptions`].
    pub scan_threads: usize,
    /// The adversary model the caller judges safety under (the default is
    /// the paper's conjunction language). The search machinery itself is
    /// model-agnostic — the criterion carries the actual bound — but the
    /// selection rides here so services and reports can thread it alongside
    /// the other search knobs.
    pub model: ModelId,
}

impl SearchConfig {
    /// A config running `threads` workers under the default schedule.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }

    /// The effective worker count (`0` resolved to all cores).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            default_threads()
        } else {
            self.threads
        }
    }

    /// The bottom-scan tuning this config implies.
    pub fn scan_options(&self) -> ScanOptions {
        ScanOptions {
            threads: self.scan_threads,
            ..ScanOptions::default()
        }
    }
}

/// Outcome of a bottom-up lattice search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchOutcome {
    /// All ⪯-minimal nodes satisfying the criterion (antichain).
    pub minimal_nodes: Vec<GenNode>,
    /// Nodes whose criterion was actually evaluated (≤ lattice size; the
    /// rest were inferred safe by monotonicity). Every node when the
    /// criterion is not monotone.
    pub evaluated: usize,
    /// Nodes known safe (evaluated or inferred; evaluated only when the
    /// criterion is not monotone).
    pub satisfied: usize,
}

/// The number of worker threads the parallel search uses by default: the
/// machine's available parallelism (1 when that cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Builds the roll-up evaluator, or `None` when the table's packed signature
/// does not fit (the caller then takes the legacy re-scanning path). Shared
/// with [`crate::incognito`] so the fallback policy lives in one place.
pub(crate) fn try_evaluator(
    table: &Table,
    lattice: &GeneralizationLattice,
) -> Result<Option<NodeEvaluator>, AnonymizeError> {
    try_evaluator_capped(table, lattice, None, ScanOptions::default())
}

/// [`try_evaluator`] with a memo entry cap (see
/// [`NodeEvaluator::with_memo_capacity`]) and explicit bottom-scan tuning.
pub(crate) fn try_evaluator_capped(
    table: &Table,
    lattice: &GeneralizationLattice,
    memo_capacity: Option<usize>,
    scan: ScanOptions,
) -> Result<Option<NodeEvaluator>, AnonymizeError> {
    try_evaluator_shared(
        table,
        std::sync::Arc::new(lattice.clone()),
        memo_capacity,
        scan,
    )
}

/// Builds a **shared** evaluator over an `Arc`-held lattice, with the same
/// overflow-fallback policy: `None` means the packed signature does not fit
/// and callers must re-scan per node. The session constructor uses this.
pub(crate) fn try_evaluator_shared(
    table: &Table,
    lattice: std::sync::Arc<GeneralizationLattice>,
    memo_capacity: Option<usize>,
    scan: ScanOptions,
) -> Result<Option<NodeEvaluator>, AnonymizeError> {
    match NodeEvaluator::shared_with_scan(table, lattice, memo_capacity, scan) {
        Ok(eval) => Ok(Some(eval)),
        Err(HierarchyError::SignatureOverflow { .. }) => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// The monotone-pruned BFS skeleton, generic over how a node is judged.
fn minimal_safe_with<E>(
    lattice: &GeneralizationLattice,
    mut eval: E,
) -> Result<SearchOutcome, AnonymizeError>
where
    E: FnMut(&GenNode) -> Result<bool, AnonymizeError>,
{
    let mut safe: HashSet<GenNode> = HashSet::new();
    let mut minimal: Vec<GenNode> = Vec::new();
    let mut evaluated = 0usize;

    for level in lattice.nodes_by_height() {
        for node in level {
            let inherited = lattice
                .predecessors(&node)
                .into_iter()
                .any(|p| safe.contains(&p));
            if inherited {
                safe.insert(node);
                continue;
            }
            evaluated += 1;
            if eval(&node)? {
                minimal.push(node.clone());
                safe.insert(node);
            }
        }
    }
    Ok(SearchOutcome {
        minimal_nodes: minimal,
        evaluated,
        satisfied: safe.len(),
    })
}

/// Bottom-up breadth-first search (Incognito-style) for **all minimal safe
/// nodes** of the lattice under a monotone criterion.
///
/// Nodes are visited by increasing height. A node with a known-safe
/// predecessor is safe by monotonicity and skipped (it cannot be minimal);
/// otherwise the criterion is evaluated — on rolled-up histograms, after a
/// single table scan. Evaluated-safe nodes are exactly the minimal ones: all
/// their predecessors were found unsafe.
pub fn find_minimal_safe<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    criterion: &C,
) -> Result<SearchOutcome, AnonymizeError> {
    find_minimal_safe_with(table, lattice, criterion, &SearchConfig::with_threads(1))
}

/// [`find_minimal_safe`] over the legacy per-node `bucketize` path (one full
/// table scan per evaluated node). Kept public as the fallback for
/// signature-overflow tables and as the baseline the equivalence tests and
/// `bench_report` compare against.
pub fn find_minimal_safe_rescan<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    criterion: &C,
) -> Result<SearchOutcome, AnonymizeError> {
    minimal_safe_over(
        table,
        lattice,
        None,
        criterion,
        &SearchConfig::with_threads(1),
    )
}

/// The level-synchronous parallel BFS skeleton, generic over a `Sync` judge.
fn minimal_safe_parallel_with<E>(
    lattice: &GeneralizationLattice,
    threads: usize,
    eval: E,
) -> Result<SearchOutcome, AnonymizeError>
where
    E: Fn(&GenNode) -> Result<bool, AnonymizeError> + Sync,
{
    let mut safe: HashSet<GenNode> = HashSet::new();
    let mut minimal: Vec<GenNode> = Vec::new();
    let mut evaluated = 0usize;

    for level in lattice.nodes_by_height() {
        // Partition the level: inherited-safe vs. needs-evaluation. The
        // order of `to_eval` is the sequential visit order.
        let mut to_eval: Vec<GenNode> = Vec::new();
        for node in level {
            let inherited = lattice
                .predecessors(&node)
                .into_iter()
                .any(|p| safe.contains(&p));
            if inherited {
                safe.insert(node);
            } else {
                to_eval.push(node);
            }
        }
        if to_eval.is_empty() {
            continue;
        }
        evaluated += to_eval.len();
        let verdicts = parallel_verdicts(&to_eval, threads, &eval)?;
        for (node, ok) in to_eval.into_iter().zip(verdicts) {
            if ok {
                minimal.push(node.clone());
                safe.insert(node);
            }
        }
    }
    Ok(SearchOutcome {
        minimal_nodes: minimal,
        evaluated,
        satisfied: safe.len(),
    })
}

/// The work-stealing whole-lattice skeleton: hands the lattice (nodes in
/// sequential visit order — by height, mixed-radix within a height) to
/// [`wcbk_core::sched::evaluate_work_stealing`] and maps the resolutions
/// back onto a [`SearchOutcome`]. Outcome-equivalent to the sequential
/// skeleton by the scheduler's contract.
fn minimal_safe_steal_with<E>(
    lattice: &GeneralizationLattice,
    threads: usize,
    eval: E,
) -> Result<SearchOutcome, AnonymizeError>
where
    E: Fn(&GenNode) -> Result<bool, AnonymizeError> + Sync,
{
    let nodes: Vec<GenNode> = lattice.nodes_by_height().into_iter().flatten().collect();
    let index: HashMap<&GenNode, u32> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (n, i as u32))
        .collect();
    let preds: Vec<Vec<u32>> = nodes
        .iter()
        .map(|n| {
            lattice
                .predecessors(n)
                .iter()
                .map(|p| index[p])
                .collect::<Vec<u32>>()
        })
        .collect();
    let dag = MonotoneDag::new(preds);
    let outcome = evaluate_work_stealing(&dag, threads, true, |i| eval(&nodes[i]))?;
    Ok(SearchOutcome {
        minimal_nodes: outcome
            .evaluated_safe()
            .into_iter()
            .map(|i| nodes[i].clone())
            .collect(),
        evaluated: outcome.evaluated,
        satisfied: outcome.safe_count(),
    })
}

/// Parallel variant of [`find_minimal_safe`] with explicit [`SearchConfig`]
/// — thread count, schedule, and evaluator memo cap.
///
/// Whatever the configuration, `minimal_nodes`, `evaluated`, and
/// `satisfied` are exactly what the sequential search produces:
///
/// * under [`Schedule::LevelSync`], each level's unpruned nodes are dealt
///   round-robin to scoped workers sharing `criterion` (and therefore its
///   memoization cache) and one roll-up evaluator, with verdicts merged in
///   item order;
/// * under [`Schedule::WorkStealing`], the whole lattice drains through
///   per-worker deques with stealing, immediate up-set pruning on safe
///   verdicts, and speculative evaluation on idle workers — required
///   evaluations, and therefore outcomes, are scheduling-independent.
pub fn find_minimal_safe_with<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    criterion: &C,
    config: &SearchConfig,
) -> Result<SearchOutcome, AnonymizeError> {
    Ok(find_minimal_safe_report(table, lattice, criterion, config)?.outcome)
}

/// A [`SearchOutcome`] together with the roll-up evaluator's work counters —
/// what long-running callers (the `wcbk-serve` audit service) aggregate
/// across searches. `rollup` is `None` when the signature-overflow fallback
/// re-scanned the table per node instead.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReport {
    /// The search result, identical to [`find_minimal_safe_with`]'s.
    pub outcome: SearchOutcome,
    /// The evaluator's counters at the end of the search.
    pub rollup: Option<RollupStats>,
}

/// [`find_minimal_safe_with`], also reporting the roll-up evaluator's
/// counters (table scans, derivations, memo traffic) for this search.
pub fn find_minimal_safe_report<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    criterion: &C,
    config: &SearchConfig,
) -> Result<SearchReport, AnonymizeError> {
    let evaluator =
        try_evaluator_capped(table, lattice, config.memo_capacity, config.scan_options())?;
    let outcome = minimal_safe_over(table, lattice, evaluator.as_ref(), criterion, config)?;
    Ok(SearchReport {
        outcome,
        rollup: evaluator.as_ref().map(NodeEvaluator::stats),
    })
}

/// The schedule dispatcher over an **injected** evaluator (`None` = the
/// signature-overflow re-scanning fallback). This is the primitive both the
/// one-shot entry points and [`crate::DatasetSession`] (which owns a
/// long-lived evaluator shared across many searches) run on; outcomes are
/// identical either way.
pub(crate) fn minimal_safe_over<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    evaluator: Option<&NodeEvaluator>,
    criterion: &C,
    config: &SearchConfig,
) -> Result<SearchOutcome, AnonymizeError> {
    let threads = config.effective_threads();
    let judge = |node: &GenNode| -> Result<bool, AnonymizeError> {
        match evaluator {
            Some(eval) => criterion.is_satisfied_hist(&*eval.histograms(node)?),
            None => criterion.is_satisfied(&lattice.bucketize(table, node)?),
        }
    };
    if !criterion.monotone() {
        let nodes: Vec<GenNode> = lattice.nodes_by_height().into_iter().flatten().collect();
        let verdicts = parallel_verdicts(&nodes, threads, judge)?;
        return Ok(exhaustive_outcome(lattice, nodes, &verdicts));
    }
    if threads == 1 {
        minimal_safe_with(lattice, judge)
    } else {
        match config.schedule {
            Schedule::LevelSync => minimal_safe_parallel_with(lattice, threads, judge),
            Schedule::WorkStealing => minimal_safe_steal_with(lattice, threads, judge),
        }
    }
}

/// The outcome of evaluating every node (`nodes` in height order, with
/// their `verdicts`) under a criterion that is not monotone: the minimal
/// nodes are the safe nodes with no safe node anywhere below them, and only
/// nodes evaluated safe count as satisfied.
fn exhaustive_outcome(
    lattice: &GeneralizationLattice,
    nodes: Vec<GenNode>,
    verdicts: &[bool],
) -> SearchOutcome {
    // Nodes that are safe or sit above a safe node.
    let mut reached: HashSet<GenNode> = HashSet::new();
    let mut minimal = Vec::new();
    let evaluated = nodes.len();
    for (node, &safe) in nodes.into_iter().zip(verdicts) {
        let above_safe = lattice
            .predecessors(&node)
            .iter()
            .any(|p| reached.contains(p));
        if safe && !above_safe {
            minimal.push(node.clone());
        }
        if safe || above_safe {
            reached.insert(node);
        }
    }
    SearchOutcome {
        minimal_nodes: minimal,
        evaluated,
        satisfied: verdicts.iter().filter(|&&safe| safe).count(),
    }
}

/// The exhaustive sweep over an injected evaluator — the session-owned
/// counterpart of [`sweep_all`].
pub(crate) fn sweep_over<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    evaluator: Option<&NodeEvaluator>,
    criterion: &C,
) -> Result<Vec<(GenNode, bool)>, AnonymizeError> {
    let mut out = Vec::with_capacity(lattice.n_nodes());
    for node in lattice.nodes() {
        let ok = match evaluator {
            Some(eval) => criterion.is_satisfied_hist(&*eval.histograms(&node)?)?,
            None => criterion.is_satisfied(&lattice.bucketize(table, &node)?)?,
        };
        out.push((node, ok));
    }
    Ok(out)
}

/// Parallel variant of [`find_minimal_safe`] under the default
/// (work-stealing) schedule — see [`find_minimal_safe_with`] for the full
/// contract and [`Schedule`] for the alternatives.
///
/// `threads == 0` selects [`default_threads`]; `threads == 1` degenerates to
/// the sequential algorithm (without spawning).
pub fn find_minimal_safe_parallel<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    criterion: &C,
    threads: usize,
) -> Result<SearchOutcome, AnonymizeError> {
    find_minimal_safe_with(
        table,
        lattice,
        criterion,
        &SearchConfig::with_threads(threads),
    )
}

/// Maps `eval` over `items` on up to `threads` scoped worker threads,
/// returning results aligned with `items`. Work is dealt **round-robin**
/// (worker `w` takes items `w, w + workers, w + 2·workers, …`) rather than
/// in contiguous chunks, so expensive neighbouring items — e.g. the slow
/// top-of-lattice nodes, which sit together in level order — spread across
/// all workers instead of piling onto one. The error reported is the first
/// one in item order. Shared by the parallel BFS and parallel Incognito.
pub(crate) fn parallel_verdicts<T, F>(
    items: &[T],
    threads: usize,
    eval: F,
) -> Result<Vec<bool>, AnonymizeError>
where
    T: Sync,
    F: Fn(&T) -> Result<bool, AnonymizeError> + Sync,
{
    let workers = threads.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().map(eval).collect();
    }
    type WorkerResult = Result<Vec<(usize, bool)>, (usize, AnonymizeError)>;
    let mut worker_results: Vec<WorkerResult> = Vec::new();
    std::thread::scope(|scope| {
        let eval = &eval;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || -> WorkerResult {
                    let mut out = Vec::with_capacity(items.len() / workers + 1);
                    for (i, item) in items.iter().enumerate().skip(w).step_by(workers) {
                        match eval(item) {
                            Ok(v) => out.push((i, v)),
                            Err(e) => return Err((i, e)),
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        worker_results = handles
            .into_iter()
            .map(|h| h.join().expect("search worker panicked"))
            .collect();
    });
    let mut verdicts = vec![false; items.len()];
    let mut first_err: Option<(usize, AnonymizeError)> = None;
    for r in worker_results {
        match r {
            Ok(pairs) => {
                for (i, v) in pairs {
                    verdicts[i] = v;
                }
            }
            Err((i, e)) => {
                if first_err.as_ref().is_none_or(|(fi, _)| i < *fi) {
                    first_err = Some((i, e));
                }
            }
        }
    }
    match first_err {
        Some((_, e)) => Err(e),
        None => Ok(verdicts),
    }
}

/// Exhaustive sweep evaluating the criterion on **every** node — the
/// unpruned baseline (used by benches to quantify the pruning win and by the
/// Figure 6 experiment which needs per-node statistics anyway). Runs on the
/// roll-up pipeline: one table scan total.
pub fn sweep_all<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    criterion: &C,
) -> Result<Vec<(GenNode, bool)>, AnonymizeError> {
    let evaluator = try_evaluator(table, lattice)?;
    sweep_over(table, lattice, evaluator.as_ref(), criterion)
}

/// [`sweep_all`] over the legacy per-node `bucketize` path — the
/// fallback for signature-overflow tables and the `bench_report` baseline.
pub fn sweep_all_rescan<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    criterion: &C,
) -> Result<Vec<(GenNode, bool)>, AnonymizeError> {
    sweep_over(table, lattice, None, criterion)
}

/// Binary search along a fine→coarse chain for the first (finest) safe node
/// — logarithmic in the chain length thanks to monotonicity (Theorem 14).
/// A criterion that is not monotone is checked node by node from the finest
/// instead.
///
/// Returns `None` when no node of the chain is safe.
pub fn binary_search_chain<C: PrivacyCriterion>(
    table: &Table,
    lattice: &GeneralizationLattice,
    chain: &[GenNode],
    criterion: &C,
) -> Result<Option<GenNode>, AnonymizeError> {
    for (i, w) in chain.windows(2).enumerate() {
        if !w[0].le(&w[1]) {
            return Err(AnonymizeError::ChainNotMonotone { at: i });
        }
    }
    if chain.is_empty() {
        return Ok(None);
    }
    let evaluator = try_evaluator(table, lattice)?;
    let check = |node: &GenNode| -> Result<bool, AnonymizeError> {
        match &evaluator {
            Some(eval) => criterion.is_satisfied_hist(&*eval.histograms(node)?),
            None => criterion.is_satisfied(&lattice.bucketize(table, node)?),
        }
    };
    if !criterion.monotone() {
        for node in chain {
            if check(node)? {
                return Ok(Some(node.clone()));
            }
        }
        return Ok(None);
    }
    // Invariant: everything below `lo` is unsafe; if `hi_safe` then chain[hi]
    // is safe.
    let mut lo = 0usize;
    let mut hi = chain.len() - 1;
    if !check(&chain[hi])? {
        return Ok(None);
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if check(&chain[mid])? {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(Some(chain[lo].clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criteria::{CkSafetyCriterion, KAnonymity, PrivacyCriterion};
    use wcbk_hierarchy::Hierarchy;
    use wcbk_table::datasets::hospital_table;

    fn lattice(table: &Table) -> GeneralizationLattice {
        let zip = table.column(1).dictionary().clone();
        let age = table.column(2).dictionary().clone();
        let sex = table.column(3).dictionary().clone();
        GeneralizationLattice::new(vec![
            (1, Hierarchy::suppression("Zip", &zip)),
            (2, Hierarchy::intervals("Age", &age, &[5]).unwrap()),
            (3, Hierarchy::suppression("Sex", &sex)),
        ])
        .unwrap()
    }

    /// Independent check of minimality against the exhaustive sweep.
    fn assert_minimal_consistent<C: PrivacyCriterion>(
        table: &Table,
        lattice: &GeneralizationLattice,
        make: impl Fn() -> C,
    ) {
        let outcome = find_minimal_safe(table, lattice, &make()).unwrap();
        let sweep = sweep_all(table, lattice, &make()).unwrap();
        let safe: HashSet<GenNode> = sweep
            .iter()
            .filter(|(_, ok)| *ok)
            .map(|(n, _)| n.clone())
            .collect();
        // 1. Search count of safe nodes matches sweep.
        assert_eq!(outcome.satisfied, safe.len());
        // 2. Every reported minimal node is safe with no safe predecessor.
        for m in &outcome.minimal_nodes {
            assert!(safe.contains(m), "{m} not actually safe");
            for p in lattice.predecessors(m) {
                assert!(!safe.contains(&p), "{m} has safe predecessor {p}");
            }
        }
        // 3. Every safe node with no safe predecessor is reported.
        for s in &safe {
            let has_safe_pred = lattice.predecessors(s).iter().any(|p| safe.contains(p));
            if !has_safe_pred {
                assert!(outcome.minimal_nodes.contains(s), "{s} missing");
            }
        }
    }

    #[test]
    fn k_anonymity_search_matches_sweep() {
        let t = hospital_table();
        let l = lattice(&t);
        for k in [2u64, 3, 5, 10] {
            assert_minimal_consistent(&t, &l, || KAnonymity::new(k));
        }
    }

    #[test]
    fn ck_safety_search_matches_sweep() {
        let t = hospital_table();
        let l = lattice(&t);
        for (c, k) in [(0.5, 0), (0.7, 1), (0.9, 1), (1.0, 2)] {
            assert_minimal_consistent(&t, &l, || CkSafetyCriterion::new(c, k).unwrap());
        }
    }

    #[test]
    fn rollup_search_matches_rescan_search() {
        let t = hospital_table();
        let l = lattice(&t);
        for (c, k) in [(0.5, 0), (0.7, 1), (0.9, 1), (1.0, 2), (0.41, 0)] {
            let rollup = find_minimal_safe(&t, &l, &CkSafetyCriterion::new(c, k).unwrap()).unwrap();
            let rescan =
                find_minimal_safe_rescan(&t, &l, &CkSafetyCriterion::new(c, k).unwrap()).unwrap();
            assert_eq!(rollup, rescan, "(c,k)=({c},{k})");
        }
        for k in [2u64, 5, 11] {
            let rollup = find_minimal_safe(&t, &l, &KAnonymity::new(k)).unwrap();
            let rescan = find_minimal_safe_rescan(&t, &l, &KAnonymity::new(k)).unwrap();
            assert_eq!(rollup, rescan, "k={k}");
        }
    }

    #[test]
    fn sweep_matches_rescan_sweep() {
        let t = hospital_table();
        let l = lattice(&t);
        let a = sweep_all(&t, &l, &CkSafetyCriterion::new(0.7, 1).unwrap()).unwrap();
        let b = sweep_all_rescan(&t, &l, &CkSafetyCriterion::new(0.7, 1).unwrap()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn pruning_saves_evaluations() {
        let t = hospital_table();
        let l = lattice(&t);
        let outcome = find_minimal_safe(&t, &l, &KAnonymity::new(2)).unwrap();
        assert!(outcome.evaluated < l.n_nodes(), "no pruning happened");
        assert!(!outcome.minimal_nodes.is_empty());
    }

    #[test]
    fn impossible_criterion_yields_empty() {
        let t = hospital_table();
        let l = lattice(&t);
        // 11-anonymity is impossible for a 10-row table.
        let outcome = find_minimal_safe(&t, &l, &KAnonymity::new(11)).unwrap();
        assert!(outcome.minimal_nodes.is_empty());
        assert_eq!(outcome.satisfied, 0);
    }

    #[test]
    fn binary_search_finds_first_safe_on_chain() {
        let t = hospital_table();
        let l = lattice(&t);
        let chain = l.maximal_chain();
        let criterion = KAnonymity::new(5);
        let found = binary_search_chain(&t, &l, &chain, &criterion)
            .unwrap()
            .expect("top is 5-anonymous");
        // Verify: found is safe, its chain predecessor is not.
        let idx = chain.iter().position(|n| *n == found).unwrap();
        assert!(KAnonymity::new(5)
            .is_satisfied(&l.bucketize(&t, &chain[idx]).unwrap())
            .unwrap());
        if idx > 0 {
            assert!(!KAnonymity::new(5)
                .is_satisfied(&l.bucketize(&t, &chain[idx - 1]).unwrap())
                .unwrap());
        }
    }

    #[test]
    fn binary_search_none_when_even_top_fails() {
        let t = hospital_table();
        let l = lattice(&t);
        let chain = l.maximal_chain();
        let found = binary_search_chain(&t, &l, &chain, &KAnonymity::new(11)).unwrap();
        assert_eq!(found, None);
    }

    #[test]
    fn binary_search_rejects_bad_chain() {
        let t = hospital_table();
        let l = lattice(&t);
        let mut chain = l.maximal_chain();
        chain.reverse();
        let err = binary_search_chain(&t, &l, &chain, &KAnonymity::new(2)).unwrap_err();
        assert!(matches!(err, AnonymizeError::ChainNotMonotone { at: 0 }));
    }

    #[test]
    fn binary_search_matches_linear_scan() {
        let t = hospital_table();
        let l = lattice(&t);
        let chain = l.maximal_chain();
        for (c, k) in [(0.5, 0), (0.5, 1), (0.9, 2), (0.41, 0)] {
            let criterion = CkSafetyCriterion::new(c, k).unwrap();
            let binary = binary_search_chain(&t, &l, &chain, &criterion).unwrap();
            let mut linear = None;
            for node in &chain {
                let b = l.bucketize(&t, node).unwrap();
                if CkSafetyCriterion::new(c, k)
                    .unwrap()
                    .is_satisfied(&b)
                    .unwrap()
                {
                    linear = Some(node.clone());
                    break;
                }
            }
            assert_eq!(binary, linear, "c={c} k={k}");
        }
    }

    #[test]
    fn report_carries_outcome_and_rollup_stats() {
        let t = hospital_table();
        let l = lattice(&t);
        let criterion = CkSafetyCriterion::new(0.7, 1).unwrap();
        let config = SearchConfig::default();
        let report = find_minimal_safe_report(&t, &l, &criterion, &config).unwrap();
        let direct = find_minimal_safe_with(&t, &l, &criterion, &config).unwrap();
        assert_eq!(report.outcome, direct);
        let rollup = report.rollup.expect("hospital packs into u64 signatures");
        assert_eq!(rollup.table_scans, 1);
        assert!(rollup.derived > 0);
    }

    #[test]
    fn strided_verdicts_align_with_items() {
        // Verdicts must land at their item's index no matter the stride.
        let items: Vec<u32> = (0..37).collect();
        for threads in [2usize, 3, 4, 8, 64] {
            let verdicts = parallel_verdicts(&items, threads, |&x| Ok(x % 3 == 0)).unwrap();
            let expected: Vec<bool> = items.iter().map(|&x| x % 3 == 0).collect();
            assert_eq!(verdicts, expected, "threads={threads}");
        }
    }

    #[test]
    fn strided_verdicts_report_first_error_in_item_order() {
        let items: Vec<u32> = (0..20).collect();
        let err = parallel_verdicts(&items, 4, |&x| {
            if x >= 7 {
                Err(AnonymizeError::InvalidParameter(format!("item {x}")))
            } else {
                Ok(true)
            }
        })
        .unwrap_err();
        // Items 7, 8, 9, … all fail on different workers; item order wins.
        assert!(err.to_string().contains("item 7"), "{err}");
    }

    use wcbk_table::Table;
}
