//! Property tests for the plan search: the memoized Pareto-frontier DP in
//! `best_assignment` must agree with the exhaustive cross-product reference
//! on every randomly generated candidate lattice — same winning cost, same
//! feasibility verdict — and the chosen plan's cost must be minimal over
//! every feasible assignment when enumerated by hand.

use lingua_ml::check::{check, Gen};
use lingua_plan::{
    best_assignment, exhaustive_assignment, Candidate, CostEstimate, Objective, PhysicalAlt,
    PlanError,
};

const EPS: f64 = 1e-9;

/// Build a candidate from integer knobs so generated floats are tame.
fn candidate(usd: u32, ms: u32, setup_usd: u32, setup_ms: u32, acc: u32) -> Candidate {
    Candidate {
        alt: PhysicalAlt::DirectLlm,
        estimate: CostEstimate {
            usd_per_record: usd as f64 * 1e-4,
            ms_per_record: ms as f64,
            setup_usd: setup_usd as f64 * 1e-3,
            setup_ms: setup_ms as f64,
            accuracy: 0.5 + acc as f64 * 0.005,
        },
        fallback: false,
    }
}

fn any_candidate(g: &mut Gen) -> Candidate {
    candidate(g.int(0..=100), g.int(0..=500), g.int(0..=20), g.int(0..=1000), g.int(0..=100))
}

fn any_objective(g: &mut Gen) -> Objective {
    let base = if g.bool() { Objective::lowest_latency() } else { Objective::cheapest_dollars() };
    base.with_floor(g.int(0u32..=100) as f64 * 0.01)
}

type SearchCase = (Vec<Vec<Candidate>>, Vec<f64>, Objective);

/// 1–4 operators with 1–4 candidates each, a record count per operator, and
/// an objective.
fn search_case(g: &mut Gen) -> SearchCase {
    let ops = g.int(1usize..=4);
    (
        g.vec(ops..=ops, |g| g.vec(1..=4, any_candidate)),
        g.vec(ops..=ops, |g| f64::from(g.int(1u32..=1000))),
        any_objective(g),
    )
}

/// Enumerate every assignment with an odometer (independently of
/// `exhaustive_assignment`, so the reference is not testing itself) and
/// yield `(cost, accuracy)` per assignment. Sums are right-associated to
/// match the DP's arithmetic.
fn enumerate(
    candidates: &[Vec<Candidate>],
    records: &[f64],
    objective: &Objective,
) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    let mut choice = vec![0usize; candidates.len()];
    loop {
        let mut cost = 0.0;
        let mut accuracy = 1.0;
        for i in (0..candidates.len()).rev() {
            let est = &candidates[i][choice[i]].estimate;
            cost += est.score(objective, records[i]);
            accuracy *= est.accuracy;
        }
        out.push((cost, accuracy));
        let mut i = 0;
        loop {
            if i == candidates.len() {
                return out;
            }
            choice[i] += 1;
            if choice[i] < candidates[i].len() {
                break;
            }
            choice[i] = 0;
            i += 1;
        }
    }
}

/// Memoization never changes the winner: the Pareto-frontier DP and the
/// unmemoized cross-product agree on cost and feasibility everywhere.
#[test]
fn memoized_search_equals_exhaustive() {
    check(
        "memoized_search_equals_exhaustive",
        512,
        search_case,
        |(candidates, records, objective)| {
            let fast = best_assignment(&candidates, &records, &objective);
            let slow = exhaustive_assignment(&candidates, &records, &objective);
            match (&fast, &slow) {
                (Ok(fast), Ok(slow)) => {
                    assert_eq!(fast.cost, slow.cost, "winning costs must match bit-for-bit");
                    assert!(fast.accuracy >= objective.accuracy_floor - EPS);
                    assert!(slow.accuracy >= objective.accuracy_floor - EPS);
                    assert!(fast.choices.len() == candidates.len());
                }
                (
                    Err(PlanError::Infeasible { best_accuracy: a, .. }),
                    Err(PlanError::Infeasible { best_accuracy: b, .. }),
                ) => {
                    assert!((a - b).abs() <= EPS, "best achievable accuracy {a} vs {b}");
                }
                _ => panic!("verdicts disagree: {fast:?} vs {slow:?}"),
            }
        },
    );
}

/// The chosen plan's estimated cost is minimal over *all* enumerated
/// assignments (checked against a hand-rolled odometer enumeration).
#[test]
fn winner_is_minimal_over_all_feasible() {
    check(
        "winner_is_minimal_over_all_feasible",
        512,
        search_case,
        |(candidates, records, objective)| {
            let every = enumerate(&candidates, &records, &objective);
            match best_assignment(&candidates, &records, &objective) {
                Ok(outcome) => {
                    // The winner's (cost, accuracy) corresponds to a real
                    // assignment...
                    let mut cost = 0.0;
                    let mut accuracy = 1.0;
                    for i in (0..candidates.len()).rev() {
                        let est = &candidates[i][outcome.choices[i]].estimate;
                        cost += est.score(&objective, records[i]);
                        accuracy *= est.accuracy;
                    }
                    assert_eq!(cost, outcome.cost);
                    assert_eq!(accuracy, outcome.accuracy);
                    // ...and no feasible assignment beats it.
                    for (other_cost, other_accuracy) in &every {
                        if *other_accuracy >= objective.accuracy_floor - EPS {
                            assert!(
                                outcome.cost <= other_cost + EPS,
                                "winner {} beaten by feasible assignment {}",
                                outcome.cost,
                                other_cost
                            );
                        }
                    }
                }
                Err(PlanError::Infeasible { .. }) => {
                    // Infeasible must mean *nothing* met the floor (under the
                    // same epsilon the DP itself applies).
                    for (_, accuracy) in &every {
                        assert!(*accuracy < objective.accuracy_floor - EPS);
                    }
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        },
    );
}

/// Running the search twice on identical inputs returns the identical
/// winner: the memo is deterministic.
#[test]
fn search_is_deterministic() {
    check("search_is_deterministic", 512, search_case, |(candidates, records, objective)| {
        let first = best_assignment(&candidates, &records, &objective);
        let second = best_assignment(&candidates, &records, &objective);
        match (first, second) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.choices, b.choices);
                assert_eq!(a.cost, b.cost);
                assert_eq!(a.kept, b.kept);
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            _ => panic!("determinism violated"),
        }
    });
}
