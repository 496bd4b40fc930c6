//! Determinism and deadline guarantees of the engine on the real parallel
//! backend:
//!
//! * batch reports must be **bit-identical** across `threads = 1, 2, 8`
//!   (property-tested over random corpora; only `wall_micros` may differ);
//! * a configured deadline must bound every member's runtime, with
//!   interrupted members reported as `timed_out`.

use std::time::{Duration, Instant};

use msrs_core::{validate, Instance, Time};
use msrs_engine::{
    Engine, EngineConfig, ExactPolicy, RunStatus, SolveReport, SolveRequest, SolverKind,
};
use proptest::prelude::*;

fn arb_corpus() -> impl Strategy<Value = Vec<Instance>> {
    prop::collection::vec(
        (
            1usize..=4,
            prop::collection::vec(prop::collection::vec(0u64..=30, 1..=4), 1..=6),
        )
            .prop_map(|(m, classes)| Instance::from_classes(m, &classes).expect("valid")),
        1..=24,
    )
}

fn engine_with_threads(threads: usize) -> Engine {
    Engine::new(EngineConfig {
        threads,
        ..EngineConfig::default()
    })
}

/// Everything except the timings, in a directly comparable form. The JSON
/// serialization covers every report field but `wall_micros`-like timings
/// and the schedule, so compare the redacted JSON plus the schedule.
fn comparable(report: &SolveReport) -> (String, Vec<(usize, Time)>) {
    let mut json = report.to_json();
    redact_timings(&mut json);
    let schedule = (0..report.schedule.len())
        .map(|j| {
            let a = report.schedule.assignment(j);
            (a.machine, a.start)
        })
        .collect();
    (json.to_string(), schedule)
}

fn redact_timings(json: &mut msrs_engine::json::Json) {
    use msrs_engine::json::Json;
    match json {
        Json::Obj(pairs) => {
            for (k, v) in pairs.iter_mut() {
                if k == "wall_micros" {
                    *v = Json::Num(0);
                } else {
                    redact_timings(v);
                }
            }
        }
        Json::Arr(items) => items.iter_mut().for_each(redact_timings),
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_reports_are_bit_identical_across_thread_counts(corpus in arb_corpus()) {
        let reqs: Vec<SolveRequest> = corpus
            .into_iter()
            .enumerate()
            .map(|(i, inst)| SolveRequest::with_id(format!("i{i}"), inst))
            .collect();
        let baseline: Vec<_> = engine_with_threads(1)
            .solve_batch(&reqs)
            .iter()
            .map(comparable)
            .collect();
        for threads in [2usize, 8] {
            let got: Vec<_> = engine_with_threads(threads)
                .solve_batch(&reqs)
                .iter()
                .map(comparable)
                .collect();
            prop_assert_eq!(&got, &baseline, "thread count {} diverged", threads);
        }
    }
}

#[test]
fn portfolio_deadline_is_respected_with_timed_out_member() {
    // Parity-gap partition (see msrs_gen::parity_gap_partition): OPT = T+1
    // and the unbounded exact proof needs minutes; the 50 ms deadline must
    // cut it off cooperatively.
    let inst = msrs_gen::parity_gap_partition(21);
    let deadline = Duration::from_millis(50);
    for threads in [1usize, 4] {
        let engine = Engine::new(EngineConfig {
            threads,
            deadline: Some(deadline),
            exact: ExactPolicy {
                max_jobs: 32,
                max_classes: 32,
                max_nodes: u64::MAX,
            },
            ..EngineConfig::default()
        });
        let started = Instant::now();
        let report = engine.solve_instance(&inst);
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(3),
            "threads={threads}: portfolio overshot the deadline: {elapsed:?}"
        );
        // Each member finished within deadline + slack — in particular the
        // interrupted exact member reports its true (bounded) wall time.
        for run in &report.runs {
            assert!(
                run.wall_micros < 3_000_000,
                "threads={threads}: member {} reports {} µs",
                run.solver,
                run.wall_micros
            );
        }
        assert!(
            report.runs.iter().any(|r| r.status == RunStatus::TimedOut),
            "threads={threads}: expected a timed-out member"
        );
        assert_eq!(validate(&inst, &report.schedule), Ok(()));
        assert!(report.makespan <= report.certified_horizon);
    }
}

/// An exact member cut off by its node budget reports the same status,
/// node count and report at every thread count: the engine pins the
/// branch-and-bound to one thread, so the budget always buys the same
/// search.
#[test]
fn node_budget_exhaustion_is_identical_across_thread_counts() {
    // Parity-gap partition: no perfect split, so 500 nodes cannot prove
    // the optimum and the exact member stops at its budget.
    let inst = msrs_gen::parity_gap_partition(13);
    let solve = |threads: usize| {
        let report = Engine::new(EngineConfig {
            threads,
            exact: ExactPolicy {
                max_jobs: 32,
                max_classes: 32,
                max_nodes: 500,
            },
            ..EngineConfig::default()
        })
        .solve_instance(&inst);
        let exact = report
            .runs
            .iter()
            .find(|run| run.solver == SolverKind::Exact)
            .expect("the exact member is planned");
        (exact.status.clone(), exact.nodes, comparable(&report))
    };
    let baseline = solve(1);
    assert_eq!(baseline.0, RunStatus::Exhausted, "the budget must bind");
    assert!(
        baseline.1.is_some(),
        "the exact member reports its node count"
    );
    for threads in [2usize, 8] {
        assert_eq!(solve(threads), baseline, "thread count {threads} diverged");
    }
}
