//! Expected answers and the response checker.
//!
//! Only semantic fields are compared: the handle id, the minimal-safe set
//! (as a sorted set), verdicts exactly, disclosure values within
//! [`TOLERANCE`], and the release and composition bookkeeping (counts of
//! releases and buckets) exactly. `rollup`, `evaluated`,
//! `satisfied`, `profile` and trace ids legitimately change with memo state
//! and pruning, so they are never compared.

use std::collections::BTreeSet;

use wcbk_anonymize::{
    CkSafetyCriterion, DatasetSession, ModelId, ModelSafetyCriterion, PrivacyCriterion,
};
use wcbk_hierarchy::GenNode;
use wcbk_serve::Json;

/// Absolute tolerance on disclosure values.
pub const TOLERANCE: f64 = 1e-9;

/// What one request must answer.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    Register {
        id: String,
    },
    Search {
        id: String,
        minimal: Vec<Vec<usize>>,
    },
    Audit {
        id: String,
        max_disclosure: f64,
        safe: bool,
    },
    Release {
        id: String,
        node: Vec<usize>,
        index: usize,
        buckets: usize,
        total_buckets: usize,
    },
    Composition {
        id: String,
        releases: usize,
        buckets: usize,
        max_disclosure: f64,
        safe: bool,
    },
}

/// How a response fell short.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Pass,
    /// Non-2xx status or unparsable body: the op failed (an error).
    Failed(String),
    /// A well-formed answer that disagrees with the oracle.
    Wrong(String),
}

/// Checks one response against its expected answer.
pub fn check(expect: &Expect, status: u16, body: &[u8]) -> Verdict {
    if !(200..300).contains(&status) {
        return Verdict::Failed(format!("status {status}"));
    }
    let Ok(text) = std::str::from_utf8(body) else {
        return Verdict::Failed("body is not UTF-8".into());
    };
    let Ok(json) = Json::parse(text) else {
        return Verdict::Failed("body is not JSON".into());
    };
    if json.as_object().is_none() {
        return Verdict::Failed("body is not a JSON object".into());
    }
    match compare(expect, &json) {
        Ok(()) => Verdict::Pass,
        Err(e) => Verdict::Wrong(e),
    }
}

fn compare(expect: &Expect, json: &Json) -> Result<(), String> {
    let id = match expect {
        Expect::Register { id }
        | Expect::Search { id, .. }
        | Expect::Audit { id, .. }
        | Expect::Release { id, .. }
        | Expect::Composition { id, .. } => id,
    };
    let got_id = json.get("id").and_then(Json::as_str);
    if got_id != Some(id.as_str()) {
        return Err(format!("id {got_id:?}, expected {id}"));
    }
    match expect {
        Expect::Register { .. } => Ok(()),
        Expect::Search { minimal, .. } => {
            let got = json
                .get("minimal")
                .and_then(Json::as_array)
                .ok_or("no \"minimal\" array")?
                .iter()
                .map(levels)
                .collect::<Result<BTreeSet<_>, _>>()?;
            let want: BTreeSet<Vec<usize>> = minimal.iter().cloned().collect();
            if got != want {
                return Err(format!("minimal {got:?}, expected {want:?}"));
            }
            let safe = json.get("safe").and_then(Json::as_bool);
            if safe != Some(!want.is_empty()) {
                return Err(format!("safe {safe:?} with {} minimal nodes", want.len()));
            }
            Ok(())
        }
        Expect::Audit {
            max_disclosure,
            safe,
            ..
        } => disclosure(json, *max_disclosure, *safe),
        Expect::Composition {
            releases,
            buckets,
            max_disclosure,
            safe,
            ..
        } => {
            counts(json, &[("releases", *releases), ("buckets", *buckets)])?;
            disclosure(json, *max_disclosure, *safe)
        }
        Expect::Release {
            node,
            index,
            buckets,
            total_buckets,
            ..
        } => {
            let got_node = levels(json.get("node").ok_or("no \"node\"")?)?;
            if &got_node != node {
                return Err(format!("node {got_node:?}, expected {node:?}"));
            }
            counts(
                json,
                &[
                    ("index", *index),
                    ("buckets", *buckets),
                    ("total_buckets", *total_buckets),
                ],
            )
        }
    }
}

/// `max_disclosure` within [`TOLERANCE`] and the `safe` verdict exactly.
fn disclosure(json: &Json, max_disclosure: f64, safe: bool) -> Result<(), String> {
    let got = json
        .get("max_disclosure")
        .and_then(Json::as_f64)
        .ok_or("no \"max_disclosure\"")?;
    if (got - max_disclosure).abs() > TOLERANCE {
        return Err(format!("max_disclosure {got}, expected {max_disclosure}"));
    }
    let got_safe = json.get("safe").and_then(Json::as_bool);
    if got_safe != Some(safe) {
        return Err(format!("safe {got_safe:?}, expected {safe}"));
    }
    Ok(())
}

/// Integer fields, each exactly.
fn counts(json: &Json, fields: &[(&str, usize)]) -> Result<(), String> {
    for &(key, want) in fields {
        let got = json.get(key).and_then(Json::as_u64);
        if got != Some(want as u64) {
            return Err(format!("{key} {got:?}, expected {want}"));
        }
    }
    Ok(())
}

fn levels(node: &Json) -> Result<Vec<usize>, String> {
    node.as_array()
        .ok_or("a node is not an array")?
        .iter()
        .map(|l| {
            l.as_u64()
                .map(|v| v as usize)
                .ok_or("a level is not an integer".to_owned())
        })
        .collect()
}

/// The criterion a search at `(c, k)` under `model` is judged by: the
/// classic (c,k)-safety criterion for the paper's conjunction language,
/// the plugin criterion otherwise — the same pair the server picks.
pub fn criterion(
    session: &DatasetSession,
    c: f64,
    k: usize,
    model: ModelId,
) -> Box<dyn PrivacyCriterion> {
    if model == ModelId::Conjunction {
        Box::new(CkSafetyCriterion::with_engine(c, session.engine(k)).expect("c is in (0,1]"))
    } else {
        Box::new(
            ModelSafetyCriterion::new(c, model.resolve(session.engine(k))).expect("c is in (0,1]"),
        )
    }
}

/// The minimal-safe set from the **unpruned** sweep: safe nodes with no
/// safe node strictly below them, sorted. It never relies on the search's
/// monotonicity pruning, so a pruning defect cannot hide in it.
pub fn minimal_safe(session: &DatasetSession, criterion: &dyn PrivacyCriterion) -> Vec<Vec<usize>> {
    let swept = session
        .sweep(&criterion)
        .expect("sweeping a registered session");
    let safe: Vec<&GenNode> = swept.iter().filter(|(_, s)| *s).map(|(n, _)| n).collect();
    let mut minimal: Vec<Vec<usize>> = safe
        .iter()
        .filter(|&&n| !safe.iter().any(|&m| m != n && GenNode::le(m, n)))
        .map(|n| n.0.clone())
        .collect();
    minimal.sort();
    minimal
}
