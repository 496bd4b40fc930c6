//! End-to-end observability acceptance: a `traffic` batch pushed through
//! the serving data plane leaves a registry snapshot with nonzero stage
//! histograms for every data-plane hop and a per-(profile, member) outcome
//! row for every portfolio member that raced.
//!
//! It also pins request accounting across entry points: `Engine::solve`
//! is a one-request `Engine::solve_batch`, report and counters alike.
//!
//! Everything is asserted as a *delta* against a pre-run snapshot. The
//! registry is process-global, so the tests of this file take `SERIAL`
//! to keep each other's requests out of their deltas.

use std::sync::Mutex;
use std::time::Duration;

use msrs_engine::stream::serve_jsonl;
use msrs_engine::telemetry::{self, Stage};
use msrs_engine::{classify, jsonl, plan, Engine, EngineConfig, SolveReport, SolveRequest};

static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn traffic_batch_populates_stages_and_outcome_table() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Production-shaped duplicate-heavy traffic, rendered as JSONL.
    let instances: Vec<_> = (0..64).map(|seed| msrs_gen::traffic(seed, 3, 6)).collect();
    let mut corpus = String::new();
    for (i, inst) in instances.iter().enumerate() {
        corpus.push_str(&jsonl::write_instance_line(Some(&format!("t-{i}")), inst));
        corpus.push('\n');
    }

    let cfg = EngineConfig {
        threads: 2,
        cache_capacity: 1024,
        ..EngineConfig::default()
    };
    // The members the planner will race, per instance profile — collected
    // up front so the outcome-table assertion below covers *every* raced
    // (tier, member) pair, not a hand-picked sample.
    let mut raced: Vec<(usize, usize)> = Vec::new();
    for inst in &instances {
        let profile = classify(inst);
        for member in plan(&profile, &cfg).members {
            let pair = (profile.tier.index(), member.index());
            if !raced.contains(&pair) {
                raced.push(pair);
            }
        }
    }
    assert!(!raced.is_empty());

    let engine = Engine::new(cfg);
    let before = telemetry::snapshot();
    let runs_before: Vec<u64> = raced
        .iter()
        .map(|&(p, m)| telemetry::registry().outcomes.runs(p, m))
        .collect();
    let mut out = Vec::new();
    let outcome = serve_jsonl(&engine, corpus.as_bytes(), &mut out, 16).expect("serve");
    assert!(outcome.error.is_none());
    assert_eq!(outcome.stats.instances, 64);
    let after = telemetry::snapshot();

    // Every data-plane hop of the byte-level serve path recorded samples.
    for stage in [
        Stage::Decode,
        Stage::Canonicalize,
        Stage::CacheLookup,
        Stage::Plan,
        Stage::MemberRace,
        Stage::Serialize,
    ] {
        let delta = after.stage(stage).count - before.stage(stage).count;
        assert!(delta > 0, "stage {} recorded no samples", stage.label());
    }
    // Decode and serialize fire once per line.
    assert!(after.stage(Stage::Decode).count - before.stage(Stage::Decode).count >= 64);
    assert!(after.stage(Stage::Serialize).count - before.stage(Stage::Serialize).count >= 64);

    // Every (tier, member) pair the planner raced has outcome rows.
    for (&(p, m), &prior) in raced.iter().zip(&runs_before) {
        let now = telemetry::registry().outcomes.runs(p, m);
        assert!(now > prior, "no outcome recorded for cell ({p}, {m})");
    }
    // And the snapshot carries them with real labels.
    assert!(
        after
            .outcomes
            .iter()
            .any(|o| o.member == "five_thirds" && o.runs > 0),
        "five_thirds races on every non-trivial instance"
    );

    // Request accounting: every line counted exactly once, fast-path lines
    // flagged as such.
    let requests = after.counter("msrs_requests_total") - before.counter("msrs_requests_total");
    assert_eq!(requests, 64, "each line counts as exactly one request");
    let fast =
        after.counter("msrs_serve_fast_path_total") - before.counter("msrs_serve_fast_path_total");
    assert_eq!(fast as usize, outcome.stats.fast_path_hits);

    // The rendered forms carry the same story.
    let json = after.to_json_string();
    assert!(json.contains("msrs_stage_member_race_nanos"));
    assert!(json.contains("\"outcomes\":[{"));
    let prom = after.to_prometheus();
    assert!(prom.contains("msrs_outcome_runs_total{profile="));
}

/// The request and cache counters one call moves: requests, cache hits,
/// cache misses.
fn counted<T>(call: impl FnOnce() -> T) -> (T, [u64; 3]) {
    const NAMES: [&str; 3] = [
        "msrs_requests_total",
        "msrs_cache_hits_total",
        "msrs_cache_misses_total",
    ];
    let before = telemetry::snapshot();
    let value = call();
    let after = telemetry::snapshot();
    (value, NAMES.map(|n| after.counter(n) - before.counter(n)))
}

/// A report's JSON with every `wall_micros` zeroed.
fn timeless(mut report: SolveReport) -> String {
    report.wall_micros = 0;
    for run in &mut report.runs {
        run.wall_micros = 0;
    }
    report.to_json().to_string()
}

#[test]
fn solve_is_a_one_request_batch() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let off = EngineConfig {
        cache_capacity: 0,
        ..EngineConfig::default()
    };
    let on = EngineConfig {
        cache_capacity: 64,
        ..EngineConfig::default()
    };
    // Long enough never to fire, so the reports stay deterministic; a
    // deadline bypasses the cache all the same.
    let deadline = EngineConfig {
        deadline: Some(Duration::from_secs(600)),
        ..on.clone()
    };
    let requests = [
        SolveRequest::with_id("photo", msrs_gen::photolithography(3, 3, 9, 6)),
        SolveRequest::with_id("tiny", msrs_gen::uniform(2, 2, 6, 3, 1, 9)),
    ];
    for (label, cfg, caches) in [
        ("off", off, false),
        ("on", on, true),
        ("deadline", deadline, false),
    ] {
        let single = Engine::new(cfg.clone());
        let batch = Engine::new(cfg);
        for req in &requests {
            // Cold, then again: a hit when the cache is active.
            for round in 0..2 {
                let (a, a_counts) = counted(|| single.solve(req));
                let (mut b, b_counts) = counted(|| batch.solve_batch(std::slice::from_ref(req)));
                assert_eq!(b.len(), 1);
                let b = b.pop().unwrap();
                let ctx = format!("cache {label}, {:?}, round {round}", req.id);
                assert_eq!(a.cache_hit, caches && round == 1, "{ctx}");
                assert_eq!(timeless(a), timeless(b), "{ctx}");
                assert_eq!(a_counts, b_counts, "{ctx}");
                let expected = match (caches, round) {
                    (false, _) => [1, 0, 0],
                    (true, 0) => [1, 0, 1],
                    (true, _) => [1, 1, 0],
                };
                assert_eq!(a_counts, expected, "{ctx}");
            }
        }
    }
}
