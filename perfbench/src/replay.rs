//! The traced replay: a workload's corpus run in-process, line by line,
//! through the public functions of each layer, with a span around every
//! call. It does the engine's work, not an approximation of it: members
//! run on the canonical instance in plan order on a one-thread pool, the
//! exact solver is warm-started from the best earlier member, and every
//! report it emits must equal the system's report once timings and cache
//! provenance are blanked.

use std::collections::HashSet;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use msrs_core::{validate, CanonicalForm, CanonicalScratch, Instance, Schedule};
use msrs_engine::cachestore::CacheStore;
use msrs_engine::{
    classify, plan, CacheKey, EngineConfig, InstanceProfile, LineDecoder, ReportCache, RunStatus,
    SolveReport, SolverKind, SolverRun,
};
use msrs_exact::{SolveLimits, SolveOutcome};
use msrs_ptas::EptasConfig;

use crate::gate::{normalize, Reference};
use crate::trace::{self_times, Layer, Tracer, LAYERS};

/// Members in [`SolverKind::index`] order.
pub const MEMBERS: usize = 7;

/// What one replay pass did and how long each layer took.
#[derive(Debug, Clone)]
pub struct ReplayStats {
    /// The whole pass, corpus lines and store reopen included.
    pub wall: Duration,
    /// Self time per [`Layer`] slot (zero when untraced).
    pub self_ns: [u64; LAYERS],
    pub lines: usize,
    /// Distinct canonical fingerprints among the lines.
    pub distinct: usize,
    /// Lines answered by `cache.get`.
    pub hits: usize,
    /// Lines solved afresh.
    pub fresh: usize,
    pub member_runs: [u64; MEMBERS],
    /// Fresh solves each member won (the report's `winner`).
    pub member_wins: [u64; MEMBERS],
    /// Branch-and-bound nodes explored by fresh exact runs.
    pub exact_nodes: u64,
    /// Σ over lines of the exact nodes in each emitted report.
    pub line_exact_nodes: u64,
    /// Lines whose emitted report differs from the reference.
    pub mismatches: usize,
    /// Lines whose makespan differs from the reference.
    pub makespan_mismatches: usize,
    pub store_records_loaded: usize,
    pub store_bytes: u64,
}

/// Everything a member hands back, as the engine records it.
struct Outcome {
    kind: SolverKind,
    status: RunStatus,
    schedule: Option<Schedule>,
    makespan: Option<u64>,
    horizon: Option<u64>,
    nodes: Option<u64>,
    wall_micros: u64,
}

/// A member's answer: its schedule with the horizon it certifies, or its
/// terminal status; and the exact solver's node count.
type Answer = (Result<(Schedule, Option<u64>), RunStatus>, Option<u64>);

/// Calls one member's public entry point.
fn call_member(
    kind: SolverKind,
    inst: &Instance,
    cfg: &EngineConfig,
    warm: Option<&Schedule>,
) -> Answer {
    match kind {
        SolverKind::FiveThirds => {
            let r = msrs_approx::five_thirds(inst);
            (Ok((r.schedule, Some(r.horizon))), None)
        }
        SolverKind::ThreeHalves => {
            let r = msrs_approx::three_halves(inst);
            (Ok((r.schedule, Some(r.horizon))), None)
        }
        SolverKind::HebrardGreedy => (
            Ok((msrs_approx::baselines::hebrard_greedy(inst).schedule, None)),
            None,
        ),
        SolverKind::ListScheduler => (
            Ok((msrs_approx::baselines::list_scheduler(inst).schedule, None)),
            None,
        ),
        SolverKind::MergedLpt => (
            Ok((msrs_approx::baselines::merged_lpt(inst).schedule, None)),
            None,
        ),
        SolverKind::Exact => {
            let limits = SolveLimits {
                max_nodes: cfg.exact.max_nodes,
            };
            let outcome = match warm {
                Some(schedule) => msrs_exact::solve_warm(inst, limits, None, schedule),
                None => msrs_exact::solve(inst, limits, None),
            };
            match outcome {
                SolveOutcome::Optimal(res) => {
                    (Ok((res.schedule, Some(res.makespan))), Some(res.nodes))
                }
                SolveOutcome::Exhausted { nodes } => (Err(RunStatus::Exhausted), Some(nodes)),
                SolveOutcome::Cancelled { nodes } => (Err(RunStatus::TimedOut), Some(nodes)),
            }
        }
        SolverKind::Eptas => {
            let eptas = EptasConfig {
                eps_k: cfg.eptas.eps_k,
                node_budget: cfg.eptas.node_budget,
            };
            (
                Ok((msrs_ptas::eptas_fixed_m(inst, eptas).schedule, None)),
                None,
            )
        }
    }
}

/// The best completed schedule so far (least makespan, earliest on ties):
/// the exact solver's warm start.
fn best_schedule(outcomes: &[Outcome]) -> Option<&Schedule> {
    let mut best: Option<(u64, &Schedule)> = None;
    for o in outcomes {
        if let (RunStatus::Completed, Some(m), Some(s)) =
            (&o.status, o.makespan, o.schedule.as_ref())
        {
            if best.is_none_or(|(b, _)| m < b) {
                best = Some((m, s));
            }
        }
    }
    best.map(|(_, s)| s)
}

/// Builds the canonical report from the member outcomes: winner is the
/// least makespan (earliest on ties), the certificate the tightest
/// horizon, optimality proven by a completed exact run or by meeting the
/// lower bound.
fn assemble(profile: &InstanceProfile, outcomes: Vec<Outcome>, started: Instant) -> SolveReport {
    let mut winner: Option<(SolverKind, u64)> = None;
    let mut certificate: Option<(SolverKind, u64)> = None;
    let mut exact_done = false;
    for o in &outcomes {
        if o.status != RunStatus::Completed {
            continue;
        }
        let m = o.makespan.expect("completed runs carry a makespan");
        if winner.is_none_or(|(_, b)| m < b) {
            winner = Some((o.kind, m));
        }
        if let Some(h) = o.horizon {
            if certificate.is_none_or(|(_, b)| h < b) {
                certificate = Some((o.kind, h));
            }
        }
        exact_done |= o.kind == SolverKind::Exact;
    }
    let (winner, makespan) = winner.expect("the 5/3 member always completes");
    let (certified_by, certified_horizon) = certificate.expect("the 5/3 member certifies");
    let schedule = outcomes
        .iter()
        .find(|o| o.kind == winner && o.status == RunStatus::Completed)
        .and_then(|o| o.schedule.clone())
        .expect("the winner carries its schedule");
    SolveReport {
        id: None,
        jobs: profile.jobs,
        machines: profile.machines,
        classes: profile.classes,
        lower_bound: profile.lower_bound,
        makespan,
        winner,
        certified_horizon,
        certified_by,
        proven_optimal: exact_done || makespan == profile.lower_bound,
        cache_hit: false,
        wall_micros: started.elapsed().as_micros() as u64,
        runs: outcomes
            .into_iter()
            .map(|o| SolverRun {
                solver: o.kind,
                status: o.status,
                makespan: o.makespan,
                certified_horizon: o.horizon,
                nodes: o.nodes,
                wall_micros: o.wall_micros,
            })
            .collect(),
        schedule,
    }
}

fn exact_nodes(report: &SolveReport) -> u64 {
    report
        .runs
        .iter()
        .filter(|r| r.solver == SolverKind::Exact)
        .filter_map(|r| r.nodes)
        .sum()
}

/// Replays `lines` (with their reference) once. The cache starts empty,
/// as in a fresh process; every fresh report is appended to a new store
/// at `store_path` and made durable at once (the write-through flusher
/// fsyncs each record when solves are slower than an fsync), and the
/// store is reopened at the end as a warm restart would.
pub fn replay(
    lines: &[String],
    reference: &Reference,
    cfg: &EngineConfig,
    store_path: &Path,
    tracer: &mut Tracer,
) -> io::Result<ReplayStats> {
    let config_fp = cfg.content_fingerprint();
    let cache = ReportCache::new(cfg.cache_capacity);
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool handles are always constructible");
    match std::fs::remove_file(store_path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    let (mut store, _, _) = CacheStore::open(store_path, config_fp)?;
    let mut decoder = LineDecoder::new();
    let mut scratch = CanonicalScratch::new();
    let mut out = Vec::new();
    let mut seen: HashSet<u128> = HashSet::new();
    let mut s = ReplayStats {
        wall: Duration::ZERO,
        self_ns: [0; LAYERS],
        lines: lines.len(),
        distinct: 0,
        hits: 0,
        fresh: 0,
        member_runs: [0; MEMBERS],
        member_wins: [0; MEMBERS],
        exact_nodes: 0,
        line_exact_nodes: 0,
        mismatches: 0,
        makespan_mismatches: 0,
        store_records_loaded: 0,
        store_bytes: 0,
    };
    let started = Instant::now();
    for (i, line) in lines.iter().enumerate() {
        let result = tracer.span(Layer::Line, |t| -> io::Result<()> {
            let line_started = Instant::now();
            let req = t.span(Layer::Decode, |_| {
                decoder
                    .decode(i + 1, line)
                    .map(|()| decoder.build_request())
            });
            let req = req.map_err(|e| io::Error::other(e.to_string()))?;
            let form = t.span(Layer::Canonical, |_| {
                CanonicalForm::of_with(&req.instance, &mut scratch)
            });
            let key = CacheKey {
                instance: form.fingerprint(),
                config: config_fp,
            };
            seen.insert(key.instance);
            let (report, hit) = match t.span(Layer::CacheGet, |_| cache.get(&key)) {
                Some(report) => (report, true),
                None => {
                    let inst = form.instance();
                    let profile = t.span(Layer::Classify, |_| classify(inst));
                    let portfolio = t.span(Layer::Plan, |_| plan(&profile, cfg));
                    let solve_started = Instant::now();
                    let mut outcomes: Vec<Outcome> = Vec::with_capacity(portfolio.members.len());
                    for &kind in &portfolio.members {
                        let member_started = Instant::now();
                        let warm = if kind == SolverKind::Exact {
                            best_schedule(&outcomes).cloned()
                        } else {
                            None
                        };
                        let (answer, nodes) = t.span(Layer::Member(kind.index()), |_| {
                            one.install(|| call_member(kind, inst, cfg, warm.as_ref()))
                        });
                        let mut o = Outcome {
                            kind,
                            status: RunStatus::Completed,
                            schedule: None,
                            makespan: None,
                            horizon: None,
                            nodes,
                            wall_micros: 0,
                        };
                        match answer {
                            Err(status) => o.status = status,
                            Ok((schedule, horizon)) => {
                                t.span(Layer::Validate, |_| match validate(inst, &schedule) {
                                    Ok(()) => {
                                        o.makespan = Some(schedule.makespan(inst));
                                        o.horizon = horizon;
                                        o.schedule = Some(schedule);
                                    }
                                    Err(e) => o.status = RunStatus::Invalid(e.to_string()),
                                });
                            }
                        }
                        o.wall_micros = member_started.elapsed().as_micros() as u64;
                        s.member_runs[kind.index()] += 1;
                        if kind == SolverKind::Exact {
                            s.exact_nodes += nodes.unwrap_or(0);
                        }
                        outcomes.push(o);
                    }
                    let report = Arc::new(assemble(&profile, outcomes, solve_started));
                    s.member_wins[report.winner.index()] += 1;
                    t.span(Layer::CacheInsert, |_| {
                        cache.insert(key, Arc::clone(&report))
                    });
                    let payload = report.to_store_json().to_string();
                    t.span(Layer::StoreAppend, |_| {
                        store.append(key.instance, config_fp, &payload)
                    })?;
                    t.span(Layer::StoreSync, |_| store.sync())?;
                    (report, false)
                }
            };
            if hit {
                s.hits += 1;
            } else {
                s.fresh += 1;
            }
            let wall = line_started.elapsed().as_micros() as u64;
            t.span(Layer::WriteJson, |_| {
                report.write_json_line_as(req.id.as_deref(), hit, wall, &mut out)
            });
            let expected = &reference.lines[i];
            if normalize(&out) != expected.normalized {
                s.mismatches += 1;
            }
            if report.makespan != expected.makespan {
                s.makespan_mismatches += 1;
            }
            s.line_exact_nodes += exact_nodes(&report);
            Ok(())
        });
        result?;
    }
    drop(store);
    let (_, entries, _) = tracer.span(Layer::StoreOpen, |_| {
        CacheStore::open(store_path, config_fp)
    })?;
    s.wall = started.elapsed();
    s.store_records_loaded = entries.len();
    s.store_bytes = std::fs::metadata(store_path)?.len();
    s.distinct = seen.len();
    s.self_ns = self_times(tracer.spans());
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::engine_config;

    #[test]
    fn replay_reproduces_the_engine_reports_exactly() {
        // Tiny and small slices race the exact solver and the EPTAS.
        let corpus = crate::corpus::cold_mix(11);
        let pick: Vec<usize> = (0..corpus.lines.len()).step_by(40).collect();
        let sub = crate::corpus::Corpus {
            lines: pick.iter().map(|&i| corpus.lines[i].clone()).collect(),
        };
        let reference = Reference::solve(&sub);
        let dir = std::env::temp_dir().join(format!("perfbench-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut tracer = Tracer::new(true);
        let s = replay(
            &sub.lines,
            &reference,
            &engine_config(1),
            &dir.join("store"),
            &mut tracer,
        )
        .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!((s.mismatches, s.makespan_mismatches), (0, 0));
        let want: u64 = msrs_engine::Engine::new(engine_config(2))
            .solve_batch(&crate::corpus::requests(&sub.lines))
            .iter()
            .map(exact_nodes)
            .sum();
        assert!(want > 0);
        assert_eq!(s.line_exact_nodes, want);
        assert!(s.member_runs[SolverKind::Exact.index()] > 0);
        assert!(s.member_runs[SolverKind::Eptas.index()] > 0);
        assert_eq!(s.store_records_loaded, s.fresh);
        assert!(s.self_ns[Layer::Member(0).slot()] > 0);
    }
}
