//! The serve probe: a fresh `msrs serve`, one pipelined connection, the
//! `hot_serve` corpus in an open loop at fixed rates, then a ramp to the
//! highest rate that meets the latency limit.

use std::io;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::corpus::Corpus;
use crate::gate::Reference;
use crate::loadgen::{self, Pass};
use crate::record::Metrics;
use crate::{median, pct, sorted, Run};

/// Offered rates of the fixed-rate phases, requests per second.
pub const RATES: [f64; 3] = [4000.0, 8000.0, 12_000.0];
/// Labels of [`RATES`] in metric names.
pub const RATE_LABELS: [&str; 3] = ["4k", "8k", "12k"];
/// Rounds of the fixed rates (interleaved); metrics take the median.
const ROUNDS: usize = 7;
/// Rounds run even when the fixed-rate time is used up.
const MIN_ROUNDS: usize = 3;
/// The ramp: first rate, step, ceiling and halvings of the last step.
const RAMP: (f64, f64, f64, u32) = (4000.0, 2000.0, 30_000.0, 3);
/// Ramp steps expected (about 6 up, 3 halvings, a few retries), for
/// sizing each step.
const RAMP_STEPS: f64 = 12.0;
/// Share of the probe's time spent at fixed rates; the ramp gets the
/// rest.
const FIXED_SHARE: f64 = 0.5;
/// Sender lag (p99, µs) beyond which a phase did not offer its load.
const LAG_LIMIT_US: f64 = 1000.0;
/// Tries of a phase whose sender ran late.
const PHASE_TRIES: usize = 3;
/// Requests that warm a fresh server's cache and connection, at 4k/s.
const WARMUP: usize = 1000;

/// What the probe measured.
pub struct Probe {
    /// Per rate of [`RATES`]: medians over the rounds of each phase's
    /// p50 and p99, µs.
    pub p50: Vec<f64>,
    pub p99: Vec<f64>,
    /// Highest ramp rate that met the limit (0 when none did).
    pub max_rate: f64,
    /// At 12k req/s: p99 of client latency minus the report's
    /// `wall_micros`, and p99 of sender lag (medians over rounds).
    pub outside_p99_us: f64,
    pub lag_p99_us: f64,
}

/// The engine's own time for a reply: its top-level `wall_micros`.
fn reply_wall_us(line: &[u8]) -> Option<f64> {
    const KEY: &[u8] = b"\"wall_micros\":";
    let at = line.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let digits = &line[at..];
    let end = digits
        .iter()
        .position(|b| !b.is_ascii_digit())
        .unwrap_or(digits.len());
    std::str::from_utf8(&digits[..end]).ok()?.parse().ok()
}

/// Latency, lag and engine-external time of one open-loop phase.
fn phase_metrics(pass: &Pass, rate: f64, failed: usize) -> Metrics {
    let lat = sorted(&pass.latency_us);
    let outside: Vec<f64> = pass
        .replies
        .iter()
        .zip(&pass.latency_us)
        .filter_map(|(r, &l)| reply_wall_us(r).map(|w| l - w))
        .collect();
    let mut m = Metrics::default();
    m.put("offered_rps", rate, "1/s");
    m.put("requests", pass.sent.len() as f64, "count");
    m.put("p50_us", pct(&lat, 50.0), "us");
    m.put("p99_us", pct(&lat, 99.0), "us");
    if let Some(t) = crate::stats::tail(&lat) {
        m.put(format!("p{}_us", t.pct), t.value, "us");
        m.put("tail_beyond", t.beyond as f64, "count");
    }
    m.put("samples", lat.len() as f64, "count");
    m.put("lag_p99_us", pct(&sorted(&pass.lag_us), 99.0), "us");
    m.put("outside_engine_p99_us", pct(&sorted(&outside), 99.0), "us");
    m.put(
        "achieved_rps",
        pass.replies.len() as f64 / pass.wall.as_secs_f64(),
        "1/s",
    );
    m.put("failed", failed as f64, "count");
    m
}

/// One connection's open loop over the corpus lines.
struct Session<'a> {
    stream: TcpStream,
    lines: Vec<Vec<u8>>,
    reference: &'a Reference,
    /// Next corpus line to send (the corpus is cycled).
    offset: usize,
}

impl Session<'_> {
    /// Runs one open-loop phase and checks its replies; every try is
    /// recorded. At a rate the server sustains, a phase whose sender ran
    /// more than [`LAG_LIMIT_US`] late at p99 did not offer the load it
    /// was meant to (the host took the core away) and is run again, up to
    /// `max_tries` times in all.
    fn phase(
        &mut self,
        run: &mut Run,
        rate: f64,
        seconds: f64,
        name: &str,
        max_tries: usize,
    ) -> io::Result<(Pass, Metrics)> {
        let count = ((rate * seconds) as usize).max(1);
        for tries in 1.. {
            let pass = loadgen::run(&self.stream, &self.lines, self.offset, rate, count)?;
            self.offset = (self.offset + count) % self.lines.len();
            let c = run.check(self.reference, &pass.sent, &pass.replies);
            let mut m = phase_metrics(&pass, rate, c.failed);
            let on_time = m.get("lag_p99_us") <= LAG_LIMIT_US;
            m.put("sender_on_time", f64::from(u8::from(on_time)), "bool");
            run.record(name, &m);
            if on_time || tries >= max_tries {
                return Ok((pass, m));
            }
        }
        unreachable!("the loop returns by its last try")
    }
}

/// Drives a fresh `msrs serve` with `corpus` within about `budget`: a
/// warm-up, [`ROUNDS`] interleaved rounds of the fixed rates (at least
/// [`MIN_ROUNDS`] when re-run phases eat the time), then the ramp. With
/// `count_setup` the server's spawn is a set-up sample.
pub fn serve_probe(
    run: &mut Run,
    corpus: &Corpus,
    reference: &Reference,
    budget: Duration,
    count_setup: bool,
) -> io::Result<Probe> {
    let started = Instant::now();
    let (server, setup) = run.sut.serve(None)?;
    if count_setup {
        run.setup.push(setup.as_secs_f64());
    }
    let mut session = Session {
        stream: server.connect()?,
        lines: corpus.wire_lines(),
        reference,
        offset: 0,
    };
    session.phase(run, RATES[0], WARMUP as f64 / RATES[0], "serve_warmup", 1)?;
    let phase_s = budget.as_secs_f64() * FIXED_SHARE / (RATES.len() * ROUNDS) as f64;
    let mut p50 = vec![Vec::new(); RATES.len()];
    let mut p99 = vec![Vec::new(); RATES.len()];
    let (mut outside, mut lag) = (Vec::new(), Vec::new());
    let fixed_end = started + budget.mul_f64(FIXED_SHARE);
    for round in 0..ROUNDS {
        if round >= MIN_ROUNDS && Instant::now() >= fixed_end {
            break;
        }
        for (k, &rate) in RATES.iter().enumerate() {
            let name = format!("serve_{}", RATE_LABELS[k]);
            let (_, m) = session.phase(run, rate, phase_s, &name, PHASE_TRIES)?;
            p50[k].push(m.get("p50_us"));
            p99[k].push(m.get("p99_us"));
            if k == RATES.len() - 1 {
                outside.push(m.get("outside_engine_p99_us"));
                lag.push(m.get("lag_p99_us"));
            }
        }
    }
    let step_s = budget.as_secs_f64() * (1.0 - FIXED_SHARE) / RAMP_STEPS;
    let (start, step, ceiling, halvings) = RAMP;
    let (best, _) = loadgen::ramp(start, step, ceiling, halvings, started + budget, |rate| {
        // Past the knee the sender runs late because the server's socket
        // is full, not because of the host: ramp steps are not re-run for
        // lag (the ramp retries a failed step itself).
        let (pass, _) = session.phase(run, rate, step_s, "serve_ramp", 1)?;
        let ok = loadgen::step_ok(&pass);
        let mut m = Metrics::default();
        m.put("offered_rps", rate, "1/s");
        m.put("met_limit", f64::from(u8::from(ok)), "bool");
        m.put(
            "backlog_grows",
            f64::from(u8::from(loadgen::backlog_grows(&pass.latency_us))),
            "bool",
        );
        run.record("ramp_step", &m);
        Ok(ok)
    })?;
    drop(session);
    server.shutdown(&run.sut)?;
    Ok(Probe {
        p50: p50.iter().map(|v| median(v)).collect(),
        p99: p99.iter().map(|v| median(v)).collect(),
        max_rate: best.unwrap_or(0.0),
        outside_p99_us: median(&outside),
        lag_p99_us: median(&lag),
    })
}
