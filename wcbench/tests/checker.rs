//! The oracle checker must catch every perturbation of a correct answer
//! and pass the correct answer itself.

use wcbench::oracle::{check, Expect, Verdict};

const ID: &str = "00c0ffee00c0ffee";

fn search_expect() -> Expect {
    Expect::Search {
        id: ID.into(),
        minimal: vec![vec![0, 1, 1, 0], vec![3, 1, 0, 0]],
    }
}

fn audit_expect() -> Expect {
    Expect::Audit {
        id: ID.into(),
        max_disclosure: 0.625,
        safe: true,
    }
}

fn search_body(minimal: &str, safe: bool, id: &str) -> String {
    // `evaluated`, `satisfied`, `rollup` and `profile` carry arbitrary
    // values: the checker must ignore them.
    format!(
        "{{\"op\":\"search\",\"evaluated\":17,\"satisfied\":3,\"safe\":{safe},\"minimal\":{minimal},\
         \"rollup\":{{\"memo_hits\":99}},\"profile\":{{\"total_micros\":5}},\"id\":\"{id}\"}}"
    )
}

fn audit_body(value: f64, safe: bool, id: &str) -> String {
    format!("{{\"op\":\"audit\",\"max_disclosure\":{value},\"safe\":{safe},\"id\":\"{id}\"}}")
}

fn verdict(expect: &Expect, body: &str) -> Verdict {
    check(expect, 200, body.as_bytes())
}

fn is_wrong(v: Verdict) -> bool {
    matches!(v, Verdict::Wrong(_))
}

#[test]
fn unperturbed_answers_pass() {
    // Minimal nodes may come in any order.
    let body = search_body("[[3,1,0,0],[0,1,1,0]]", true, ID);
    assert_eq!(verdict(&search_expect(), &body), Verdict::Pass);
    assert_eq!(
        verdict(&audit_expect(), &audit_body(0.625, true, ID)),
        Verdict::Pass
    );
    // Within tolerance.
    assert_eq!(
        verdict(&audit_expect(), &audit_body(0.625 + 1e-12, true, ID)),
        Verdict::Pass
    );
}

#[test]
fn dropped_minimal_node_is_caught() {
    let body = search_body("[[0,1,1,0]]", true, ID);
    assert!(is_wrong(verdict(&search_expect(), &body)));
}

#[test]
fn extra_minimal_node_is_caught() {
    let body = search_body("[[0,1,1,0],[3,1,0,0],[4,0,1,0]]", true, ID);
    assert!(is_wrong(verdict(&search_expect(), &body)));
}

#[test]
fn disclosure_off_by_1e6_is_caught() {
    for value in [0.625 + 1e-6, 0.625 - 1e-6] {
        assert!(is_wrong(verdict(
            &audit_expect(),
            &audit_body(value, true, ID)
        )));
    }
    assert!(is_wrong(verdict(
        &composition_expect(),
        &composition_body(3, 120, 0.5 + 1e-6)
    )));
}

fn composition_expect() -> Expect {
    Expect::Composition {
        id: ID.into(),
        releases: 3,
        buckets: 120,
        max_disclosure: 0.5,
        safe: false,
    }
}

fn composition_body(releases: u64, buckets: u64, value: f64) -> String {
    format!(
        "{{\"op\":\"composition\",\"id\":\"{ID}\",\"releases\":{releases},\"buckets\":{buckets},\
         \"k\":2,\"max_disclosure\":{value},\"c\":0.5,\"safe\":false}}"
    )
}

#[test]
fn composition_counts_are_compared() {
    let expect = composition_expect();
    assert_eq!(
        verdict(&expect, &composition_body(3, 120, 0.5)),
        Verdict::Pass
    );
    // A composition that skipped a recorded release can keep the value.
    assert!(is_wrong(verdict(&expect, &composition_body(2, 120, 0.5))));
    assert!(is_wrong(verdict(&expect, &composition_body(3, 119, 0.5))));
    assert!(is_wrong(verdict(&expect, &composition_body(4, 121, 0.5))));
}

#[test]
fn flipped_verdict_is_caught() {
    assert!(is_wrong(verdict(
        &audit_expect(),
        &audit_body(0.625, false, ID)
    )));
    let body = search_body("[[3,1,0,0],[0,1,1,0]]", false, ID);
    assert!(is_wrong(verdict(&search_expect(), &body)));
}

#[test]
fn wrong_id_is_caught() {
    let other = "00c0ffee00c0fff0";
    assert!(is_wrong(verdict(
        &audit_expect(),
        &audit_body(0.625, true, other)
    )));
    let body = search_body("[[3,1,0,0],[0,1,1,0]]", true, other);
    assert!(is_wrong(verdict(&search_expect(), &body)));
    let register = Expect::Register { id: ID.into() };
    let body = format!("{{\"op\":\"register\",\"id\":\"{other}\",\"created\":true}}");
    assert!(is_wrong(verdict(&register, &body)));
}

#[test]
fn release_bookkeeping_is_compared() {
    let expect = Expect::Release {
        id: ID.into(),
        node: vec![1, 0, 1, 0],
        index: 2,
        buckets: 40,
        total_buckets: 95,
    };
    let body = |node: &str, index: u64, buckets: u64| {
        format!(
            "{{\"op\":\"release\",\"id\":\"{ID}\",\"index\":{index},\"node\":{node},\"buckets\":{buckets},\"total_buckets\":95}}"
        )
    };
    assert_eq!(verdict(&expect, &body("[1,0,1,0]", 2, 40)), Verdict::Pass);
    assert!(is_wrong(verdict(&expect, &body("[1,0,1,1]", 2, 40))));
    assert!(is_wrong(verdict(&expect, &body("[1,0,1,0]", 3, 40))));
    assert!(is_wrong(verdict(&expect, &body("[1,0,1,0]", 2, 41))));
}

#[test]
fn errors_are_failures_not_wrong_answers() {
    let expect = audit_expect();
    assert!(matches!(
        check(&expect, 500, audit_body(0.625, true, ID).as_bytes()),
        Verdict::Failed(_)
    ));
    assert!(matches!(
        check(&expect, 200, b"{\"op\":"),
        Verdict::Failed(_)
    ));
    assert!(matches!(
        check(&expect, 0, b"connection reset"),
        Verdict::Failed(_)
    ));
}
