//! perfbench — the msrs benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload <cold_mix|hot_serve|fleet_restart> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it drives the real `msrs` binary from outside and
//! prints the end-to-end metrics; with `--trace 1` it prints the
//! per-layer metrics of a traced in-process replay of the same corpus,
//! plus the dispatch and serve figures that need the binary. Every run
//! checks every report against an in-process reference; the last line
//! of standard output is the result object, and any failed check makes
//! the exit code non-zero. See `perfbench/README.md`.

mod corpus;
mod gate;
mod loadgen;
mod probe;
mod record;
mod replay;
mod stats;
mod sut;
mod trace;

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use corpus::Corpus;
use gate::{Checked, Reference};
use probe::RATE_LABELS;
use record::{Header, Metrics};
use replay::{ReplayStats, MEMBERS};
use sut::{counter, Sut};
use trace::{Layer, Tracer, LAYERS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ColdMix,
    HotServe,
    FleetRestart,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "cold_mix" => Some(Workload::ColdMix),
            "hot_serve" => Some(Workload::HotServe),
            "fleet_restart" => Some(Workload::FleetRestart),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ColdMix => "cold_mix",
            Workload::HotServe => "hot_serve",
            Workload::FleetRestart => "fleet_restart",
        }
    }

    /// The corpus the workload's own tier runs.
    fn corpus(self, seed: u64) -> Corpus {
        match self {
            Workload::ColdMix => corpus::cold_mix(seed),
            Workload::HotServe => corpus::serve(seed),
            Workload::FleetRestart => corpus::fleet(seed),
        }
    }
}

struct Args {
    msrs: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let trace = get("--trace")?;
    Ok(Args {
        msrs: PathBuf::from(get("--msrs")?),
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "bad --seed".to_string())?,
        seconds: get("--seconds")?
            .parse()
            .ok()
            .filter(|&s| s > 0)
            .ok_or("bad --seconds")?,
        trace: match trace.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err(format!("bad --trace `{trace}`")),
        },
    })
}

/// `msrs serve` set-up samples per run at least (median reported).
const SETUP_SAMPLES: usize = 5;
/// The same for `fleet_restart`, whose warm load takes about a second.
const FLEET_SETUP_SAMPLES: usize = 3;
/// The serve probe's least time, however late the passes before it ran.
const MIN_PROBE: Duration = Duration::from_secs(6);
/// Share of a traced run's seconds for its serve probe.
const TRACE_PROBE_SHARE: f64 = 0.35;

/// State of one benchmark run.
pub struct Run {
    args: Args,
    started: Instant,
    work: PathBuf,
    sut: Sut,
    records: Vec<String>,
    /// Trial records so far, per phase name.
    reps: HashMap<String, usize>,
    checked: Checked,
    setup: Vec<f64>,
}

impl Run {
    /// The instant `share` of the run's seconds after its start.
    fn at(&self, share: f64) -> Instant {
        self.started + Duration::from_secs_f64(self.args.seconds as f64 * share)
    }

    /// Whether to run another repetition: fewer than `min` ran, or one as
    /// long as the `last` would still end by `share` of the run's seconds.
    fn another(&self, done: usize, min: usize, last: Duration, share: f64) -> bool {
        done < min || Instant::now() + last < self.at(share)
    }

    /// Adds a trial record for the next repetition of `phase`.
    fn record(&mut self, phase: &str, metrics: &Metrics) {
        let rep = self.reps.entry(phase.to_string()).or_default();
        self.records.push(record::trial(
            self.args.workload.name(),
            phase,
            *rep,
            metrics,
        ));
        *rep += 1;
    }

    fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }

    fn check(&mut self, reference: &Reference, sent: &[usize], got: &[Vec<u8>]) -> Checked {
        let c = gate::check(reference, sent, got);
        self.checked.add(c);
        c
    }

    /// Checks a report file written for the whole corpus, in order.
    fn check_file(
        &mut self,
        reference: &Reference,
        path: &Path,
    ) -> io::Result<(Checked, Vec<Vec<u8>>)> {
        let text = std::fs::read(path)?;
        let got: Vec<Vec<u8>> = text
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .map(<[u8]>::to_vec)
            .collect();
        let sent: Vec<usize> = (0..reference.lines.len()).collect();
        Ok((self.check(reference, &sent, &got), got))
    }

    /// Spawns a server, records its set-up time, shuts it down.
    fn setup_sample(&mut self, store: Option<&Path>) -> io::Result<()> {
        let (server, setup) = self.sut.serve(store)?;
        self.setup.push(setup.as_secs_f64());
        server.shutdown(&self.sut)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: Args) -> io::Result<i32> {
    if !args.msrs.is_file() {
        return Err(io::Error::other(format!(
            "no msrs binary at {}",
            args.msrs.display()
        )));
    }
    let started_unix_s = record::unix_now_s();
    let work = PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()));
    if work.exists() {
        std::fs::remove_dir_all(&work)?;
    }
    std::fs::create_dir_all(&work)?;
    let mut run = Run {
        sut: Sut {
            bin: args.msrs.clone(),
            exe: args.msrs.canonicalize()?,
            work: work.clone(),
            peak_kib: Default::default(),
        },
        args,
        started: Instant::now(),
        work,
        records: Vec::new(),
        reps: HashMap::new(),
        checked: Checked::default(),
        setup: Vec::new(),
    };
    let metrics = if run.args.trace {
        traced(&mut run)?
    } else {
        end_to_end(&mut run)?
    };
    std::fs::remove_dir_all(&run.work)?;
    let header = Header {
        workload: run.args.workload.name(),
        seed: run.args.seed,
        seconds: run.args.seconds,
        trace: run.args.trace,
        started_unix_s,
        suite_s: run.started.elapsed().as_secs_f64(),
    };
    let mut lines = vec![header.to_json()];
    lines.append(&mut run.records);
    let log_dir = Path::new(".bench_work").join("records");
    std::fs::create_dir_all(&log_dir)?;
    let log = log_dir.join(format!(
        "{}-seed{}-trace{}.jsonl",
        run.args.workload.name(),
        run.args.seed,
        u8::from(run.args.trace)
    ));
    std::fs::write(&log, lines.join("\n") + "\n")?;
    for line in &lines {
        println!("{line}");
    }
    let c = run.checked;
    let correct = c.failed == 0 && c.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        c.attempted,
        c.failed,
        metrics.to_json()
    );
    if !correct {
        eprintln!("perfbench: {} of {} checks failed", c.failed, c.attempted);
    }
    Ok(if correct { 0 } else { 1 })
}

pub fn median(v: &[f64]) -> f64 {
    stats::median(v).unwrap_or(f64::NAN)
}

pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

pub fn pct(sorted: &[f64], p: f64) -> f64 {
    stats::percentile_sorted(sorted, p).unwrap_or(f64::NAN)
}

/// The cache counters of a snapshot beside the cache provenance of the
/// reports the same process wrote.
fn cache_counters(m: &mut Metrics, snapshot: &msrs_engine::json::Json, fresh: usize) {
    m.put("report_misses", fresh as f64, "count");
    m.put(
        "counter_misses",
        counter(snapshot, "msrs_cache_misses_total") as f64,
        "count",
    );
    m.put(
        "counter_inserts",
        counter(snapshot, "msrs_cache_inserts_total") as f64,
        "count",
    );
    m.put(
        "counter_hits",
        counter(snapshot, "msrs_cache_hits_total") as f64,
        "count",
    );
}

/// The end-to-end run: repeated passes through the workload's own tier,
/// `msrs serve` set-up samples, and for `hot_serve` the serve probe.
fn end_to_end(run: &mut Run) -> io::Result<Metrics> {
    let workload = run.args.workload;
    let corpus = workload.corpus(run.args.seed);
    let reference = Reference::solve(&corpus);
    let input = run.path("corpus.jsonl");
    std::fs::write(&input, corpus.text())?;
    let out = run.path("reports.jsonl");
    let metrics_path = run.path("metrics.json");
    // `batch` and `serve` keep nothing across processes: every pass starts
    // cold, so a restart costs what a first pass costs and both
    // throughputs report the same passes. `fleet_restart` restarts onto
    // the store its cold pass wrote.
    let (mut first, mut restart) = (Vec::new(), Vec::new());
    let mut summary = Metrics::default();
    match workload {
        Workload::ColdMix => {
            let mut last = Duration::ZERO;
            while run.another(first.len(), 4, last, 0.95) {
                let rep_started = Instant::now();
                let wall = run.sut.batch(&input, &out, &metrics_path)?;
                let (c, _) = run.check_file(&reference, &out)?;
                let ips = corpus.lines.len() as f64 / wall.as_secs_f64();
                first.push(ips);
                let mut m = Metrics::default();
                m.put("wall_s", wall.as_secs_f64(), "s");
                m.put("throughput_ips", ips, "1/s");
                m.put("failed", c.failed as f64, "count");
                cache_counters(&mut m, &sut::read_snapshot(&metrics_path)?, c.fresh);
                run.record("batch", &m);
                last = rep_started.elapsed();
            }
            restart.clone_from(&first);
        }
        Workload::HotServe => {
            // Each pipelined pass runs on a fresh server; its spawn is a
            // set-up sample.
            let lines = corpus.wire_lines();
            let mut last = Duration::ZERO;
            while run.another(first.len(), 4, last, 0.55) {
                let rep_started = Instant::now();
                let (server, setup) = run.sut.serve(None)?;
                run.setup.push(setup.as_secs_f64());
                let stream = server.connect()?;
                let pass = loadgen::run(&stream, &lines, 0, f64::INFINITY, lines.len())?;
                drop(stream);
                let snapshot = server.stats()?;
                server.shutdown(&run.sut)?;
                let c = run.check(&reference, &pass.sent, &pass.replies);
                let ips = pass.replies.len() as f64 / pass.wall.as_secs_f64();
                first.push(ips);
                let mut m = Metrics::default();
                m.put("wall_s", pass.wall.as_secs_f64(), "s");
                m.put("throughput_ips", ips, "1/s");
                m.put("failed", c.failed as f64, "count");
                cache_counters(&mut m, &snapshot, c.fresh);
                run.record("serve_pipelined", &m);
                last = rep_started.elapsed();
            }
            restart.clone_from(&first);
            let budget = run
                .at(0.97)
                .saturating_duration_since(Instant::now())
                .max(MIN_PROBE);
            let p = probe::serve_probe(run, &corpus, &reference, budget, true)?;
            for (k, label) in RATE_LABELS.iter().enumerate() {
                summary.put(format!("p50_us.{label}"), p.p50[k], "us");
                summary.put(format!("p99_us.{label}"), p.p99[k], "us");
            }
            summary.put("max_rate_rps", p.max_rate, "1/s");
        }
        Workload::FleetRestart => {
            // Each repetition: a dispatch pass with no store, a cold pass
            // that writes a fresh store, and a restart onto that store.
            // The cold pass waits on one fsync per record, so a shared
            // virtual disk's drifting fsync latency moves it by a third
            // between runs: it is recorded, not gated. The store-free pass
            // stands for first-pass throughput.
            let store = run.path("store");
            let mut cold = Vec::new();
            let mut last = Duration::ZERO;
            while run.another(first.len(), 2, last, 0.97) {
                let rep_started = Instant::now();
                match std::fs::remove_file(&store) {
                    Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                    _ => {}
                }
                for (pass, store) in [
                    ("plain", None),
                    ("cold", Some(&store)),
                    ("restart", Some(&store)),
                ] {
                    let checkpoint = run.path(&format!("checkpoint-{}-{pass}", first.len()));
                    let wall = run.sut.dispatch(
                        &input,
                        &out,
                        &metrics_path,
                        store.map(PathBuf::as_path),
                        Some(&checkpoint),
                    )?;
                    let (c, _) = run.check_file(&reference, &out)?;
                    let ips = corpus.lines.len() as f64 / wall.as_secs_f64();
                    match pass {
                        "plain" => &mut first,
                        "cold" => &mut cold,
                        _ => &mut restart,
                    }
                    .push(ips);
                    let snapshot = sut::read_snapshot(&metrics_path)?;
                    let mut m = Metrics::default();
                    m.put("wall_s", wall.as_secs_f64(), "s");
                    m.put("throughput_ips", ips, "1/s");
                    m.put("failed", c.failed as f64, "count");
                    let hits = counter(&snapshot, "msrs_dispatch_fleet_cache_hits_total");
                    m.put("store_probe_hits", hits as f64, "count");
                    let flushes = counter(&snapshot, "msrs_cache_store_flushes_total");
                    m.put("store_flushes", flushes as f64, "count");
                    let retries = counter(&snapshot, "msrs_dispatch_retries_total");
                    m.put("retries", retries as f64, "count");
                    m.put("report_misses", c.fresh as f64, "count");
                    run.record(&format!("dispatch_{pass}"), &m);
                }
                run.setup_sample(Some(&store))?;
                last = rep_started.elapsed();
            }
            summary.put("cold_store_throughput_ips", median(&cold), "1/s");
        }
    }
    let (store, samples) = match workload {
        Workload::FleetRestart => (Some(run.path("store")), FLEET_SETUP_SAMPLES),
        _ => (None, SETUP_SAMPLES),
    };
    while run.setup.len() < samples {
        run.setup_sample(store.as_deref())?;
    }
    let c = run.checked;
    let mut m = Metrics::default();
    m.put("throughput_ips", median(&first), "1/s");
    m.put("restart_throughput_ips", median(&restart), "1/s");
    m.put("mean_gap_ppm", reference.mean_gap_ppm(), "ppm");
    m.put(
        "proven_optimal_share",
        reference.proven_optimal_share(),
        "share",
    );
    m.put(
        "ok_share",
        1.0 - c.failed as f64 / c.attempted.max(1) as f64,
        "share",
    );
    m.put("setup_s", median(&run.setup), "s");
    m.put("peak_rss_mb", run.sut.peak_rss_mb(), "MiB");
    let mut all = m.clone();
    all.put(
        "failed_share",
        c.failed as f64 / c.attempted.max(1) as f64,
        "share",
    );
    all.0.append(&mut summary.0);
    run.record("summary", &all);
    Ok(m)
}

/// Writes the spans of the last traced replay, one per line: layer,
/// parent index (-1 for a root), start and end in ns since the replay
/// began.
fn write_spans(run: &Run, spans: &[trace::Span]) -> io::Result<()> {
    use std::io::Write;
    let dir = Path::new(".bench_work").join("records");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "{}-seed{}-spans.tsv",
        run.args.workload.name(),
        run.args.seed
    ));
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or(-1, i64::from);
        writeln!(
            out,
            "{}\t{parent}\t{}\t{}",
            Layer::name_of(s.layer.slot()),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

/// Exact-solver nodes summed over the report lines.
fn report_exact_nodes(lines: &[Vec<u8>]) -> u64 {
    lines
        .iter()
        .filter_map(|l| msrs_engine::json::Json::parse(std::str::from_utf8(l).ok()?).ok())
        .filter_map(|j| j.get("runs").and_then(|r| r.as_arr()).map(<[_]>::to_vec))
        .flatten()
        .filter(|r| r.get("solver").and_then(|s| s.as_str()) == Some("exact"))
        .filter_map(|r| r.get("nodes").and_then(|n| n.as_u64()))
        .sum()
}

/// The traced run: the workload's corpus through `msrs batch` and
/// `msrs dispatch` (for the dispatch and store figures), the serve probe
/// (for the `service.*` figures), then untraced and traced in-process
/// replays alternately until the time is up.
fn traced(run: &mut Run) -> io::Result<Metrics> {
    let workload = run.args.workload;
    let seed = run.args.seed;
    let corpus = workload.corpus(seed);
    let reference = Reference::solve(&corpus);
    let input = run.path("corpus.jsonl");
    std::fs::write(&input, corpus.text())?;
    let out = run.path("reports.jsonl");
    let metrics_path = run.path("metrics.json");

    let batch_wall = run.sut.batch(&input, &out, &metrics_path)?;
    let (batch_check, batch_lines) = run.check_file(&reference, &out)?;
    let batch_snapshot = sut::read_snapshot(&metrics_path)?;
    let batch_nodes = report_exact_nodes(&batch_lines);
    drop(batch_lines);
    let dispatch = |run: &mut Run,
                    store: Option<&Path>,
                    name: &str|
     -> io::Result<(f64, Checked, msrs_engine::json::Json)> {
        let checkpoint = run.path(&format!("checkpoint-{name}"));
        let wall = run
            .sut
            .dispatch(&input, &out, &metrics_path, store, Some(&checkpoint))?;
        let (c, _) = run.check_file(&reference, &out)?;
        Ok((wall.as_secs_f64(), c, sut::read_snapshot(&metrics_path)?))
    };
    let (plain_wall, _, plain_snap) = dispatch(run, None, "plain")?;
    let store = run.path("store");
    let (store_wall, _, cold_snap) = dispatch(run, Some(&store), "cold")?;
    let (_, restart_check, restart_snap) = dispatch(run, Some(&store), "restart")?;
    let probe_hits = counter(&restart_snap, "msrs_dispatch_fleet_cache_hits_total");
    let retries: u64 = [&plain_snap, &cold_snap, &restart_snap]
        .iter()
        .map(|s| counter(s, "msrs_dispatch_retries_total"))
        .sum();

    let serve_corpus = corpus::serve(seed);
    let serve_reference = Reference::solve(&serve_corpus);
    let budget =
        Duration::from_secs_f64(run.args.seconds as f64 * TRACE_PROBE_SHARE).max(MIN_PROBE);
    let probe = probe::serve_probe(run, &serve_corpus, &serve_reference, budget, false)?;

    let cfg = gate::engine_config(1);
    let store_path = run.path("replay-store");
    let (mut plain, mut traced): (Vec<ReplayStats>, Vec<ReplayStats>) = (Vec::new(), Vec::new());
    let mut last_spans = Vec::new();
    // The first replay only warms up (allocator, page cache) and is not
    // counted; then untraced and traced replays alternate.
    let mut warmed = false;
    while plain.is_empty() || traced.is_empty() || Instant::now() < run.at(0.97) {
        let on = warmed && plain.len() > traced.len();
        let mut tracer = Tracer::new(on);
        let s = replay::replay(&corpus.lines, &reference, &cfg, &store_path, &mut tracer)?;
        run.checked.add(Checked {
            attempted: s.lines,
            failed: s.mismatches + usize::from(s.line_exact_nodes != batch_nodes),
            fresh: s.fresh,
        });
        let mut m = Metrics::default();
        m.put("wall_s", s.wall.as_secs_f64(), "s");
        m.put("traced", f64::from(u8::from(on)), "bool");
        m.put("mismatches", s.mismatches as f64, "count");
        m.put("makespan_mismatches", s.makespan_mismatches as f64, "count");
        m.put("line_exact_nodes", s.line_exact_nodes as f64, "count");
        m.put("report_exact_nodes", batch_nodes as f64, "count");
        if on {
            for slot in 0..LAYERS {
                m.put(
                    format!("{}.self_ns", Layer::name_of(slot)),
                    s.self_ns[slot] as f64,
                    "ns",
                );
            }
        }
        let phase = match (warmed, on) {
            (false, _) => "replay_warmup",
            (true, false) => "replay_untraced",
            (true, true) => "replay_traced",
        };
        run.record(phase, &m);
        if !warmed {
            warmed = true;
        } else if on {
            last_spans = tracer.into_spans();
            traced.push(s);
        } else {
            plain.push(s);
        }
    }
    write_spans(run, &last_spans)?;

    let over_traced =
        |f: &dyn Fn(&ReplayStats) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let self_us = |slot: usize| over_traced(&|s| s.self_ns[slot] as f64 / 1e3 / s.lines as f64);
    let first = &traced[0];
    let lines = first.lines as f64;
    let mut m = Metrics::default();
    m.put(
        "jsonl.decode.self_us",
        self_us(Layer::Decode.slot()),
        "us/line",
    );
    m.put(
        "canonical.of.self_us",
        self_us(Layer::Canonical.slot()),
        "us/line",
    );
    m.put(
        "canonical.distinct_share",
        first.distinct as f64 / lines,
        "share",
    );
    m.put(
        "cache.get.self_us",
        self_us(Layer::CacheGet.slot()),
        "us/line",
    );
    m.put(
        "cache.insert.self_us",
        self_us(Layer::CacheInsert.slot()),
        "us/line",
    );
    m.put("cache.hit_share", first.hits as f64 / lines, "share");
    let counter_misses = counter(&batch_snapshot, "msrs_cache_misses_total");
    m.put("cache.report_misses", batch_check.fresh as f64, "count");
    m.put("cache.counter_misses", counter_misses as f64, "count");
    m.put(
        "cache.counter_miss_ratio",
        counter_misses as f64 / batch_check.fresh.max(1) as f64,
        "ratio",
    );
    m.put(
        "report.write_json_line.self_us",
        self_us(Layer::WriteJson.slot()),
        "us/line",
    );
    m.put(
        "profile.classify.self_us",
        self_us(Layer::Classify.slot()),
        "us/line",
    );
    m.put(
        "portfolio.plan.self_us",
        self_us(Layer::Plan.slot()),
        "us/line",
    );
    let runs: u64 = first.member_runs.iter().sum();
    m.put(
        "portfolio.members_per_instance",
        runs as f64 / first.fresh.max(1) as f64,
        "count",
    );
    for k in 0..MEMBERS {
        let slot = Layer::Member(k).slot();
        let name = Layer::name_of(slot);
        m.put(format!("{name}.self_us"), self_us(slot), "us/line");
        m.put(format!("{name}.runs"), first.member_runs[k] as f64, "count");
        let share = first.member_wins[k] as f64 / first.member_runs[k].max(1) as f64;
        m.put(format!("{name}.win_share"), share, "share");
    }
    m.put("exact.solve_warm.nodes", first.exact_nodes as f64, "count");
    m.put(
        "validate.self_us",
        self_us(Layer::Validate.slot()),
        "us/line",
    );
    m.put(
        "cachestore.open.self_us",
        over_traced(&|s| s.self_ns[Layer::StoreOpen.slot()] as f64 / 1e3),
        "us",
    );
    m.put(
        "cachestore.records_loaded",
        first.store_records_loaded as f64,
        "count",
    );
    m.put(
        "cachestore.append.self_us",
        self_us(Layer::StoreAppend.slot()),
        "us/line",
    );
    m.put(
        "cachestore.sync.self_us",
        self_us(Layer::StoreSync.slot()),
        "us/line",
    );
    m.put("cachestore.bytes", first.store_bytes as f64, "bytes");
    m.put(
        "dispatch.overhead_s",
        plain_wall - batch_wall.as_secs_f64(),
        "s",
    );
    m.put("dispatch.store_overhead_s", store_wall - plain_wall, "s");
    m.put(
        "dispatch.probe_hit_share",
        probe_hits as f64 / (probe_hits as f64 + restart_check.fresh as f64).max(1.0),
        "share",
    );
    m.put("dispatch.retries", retries as f64, "count");
    for (k, label) in RATE_LABELS.iter().enumerate() {
        m.put(format!("service.p50_us.{label}"), probe.p50[k], "us");
        m.put(format!("service.p99_us.{label}"), probe.p99[k], "us");
    }
    m.put("service.max_rate_rps", probe.max_rate, "1/s");
    m.put("service.outside_engine_p99_us", probe.outside_p99_us, "us");
    m.put("loadgen.lag_p99_us", probe.lag_p99_us, "us");
    let attributed = over_traced(&|s| {
        let layers: u64 = (1..LAYERS).map(|slot| s.self_ns[slot]).sum();
        layers as f64 / s.wall.as_nanos() as f64
    });
    m.put("trace.unattributed_share", 1.0 - attributed, "share");
    let walls =
        |v: &[ReplayStats]| median(&v.iter().map(|s| s.wall.as_secs_f64()).collect::<Vec<_>>());
    m.put(
        "trace.overhead_ratio",
        walls(&traced) / walls(&plain),
        "ratio",
    );
    Ok(m)
}
