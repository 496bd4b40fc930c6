//! Load over one pipelined TCP connection: one sender thread and one
//! receiver thread. In the open loop, request `i` is due at
//! `start + i / rate` whether or not earlier replies have come back, and
//! its latency runs from that due time to its reply, so a stall counts
//! against every request due during it (no coordinated omission). How
//! late the sender itself ran is recorded as lag.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::stats;

/// Bytes the sender hands the socket per write at most.
const WRITE_CHUNK: usize = 64 * 1024;
/// How long the receiver waits for a reply before giving up on the rest.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// Lead time between setting up a pass and its first due time.
const LEAD: Duration = Duration::from_millis(2);

/// One pass of requests and its replies.
pub struct Pass {
    /// Corpus indices of the requests, in send order.
    pub sent: Vec<usize>,
    /// Reply lines, newline stripped, in arrival order.
    pub replies: Vec<Vec<u8>>,
    /// Per answered request: reply time minus due time, µs.
    pub latency_us: Vec<f64>,
    /// Per request: send time minus due time, µs.
    pub lag_us: Vec<f64>,
    /// First due time to last reply.
    pub wall: Duration,
}

/// Due time of request `i` as an offset from the start of the pass.
pub fn due_offset(i: usize, rate: f64) -> Duration {
    if rate.is_finite() {
        Duration::from_secs_f64(i as f64 / rate)
    } else {
        Duration::ZERO
    }
}

/// Latency of each request from its due time, given reply times as
/// offsets from the start of the pass.
pub fn due_latencies_us(rate: f64, replied: &[Duration]) -> Vec<f64> {
    replied
        .iter()
        .enumerate()
        .map(|(i, &t)| t.saturating_sub(due_offset(i, rate)).as_secs_f64() * 1e6)
        .collect()
}

/// Sends `count` requests — corpus lines `lines[(offset + i) % len]`,
/// each ending in a newline — at `rate` per second (`f64::INFINITY`:
/// all at once, a pipelined pass) and collects every reply.
pub fn run(
    stream: &TcpStream,
    lines: &[Vec<u8>],
    offset: usize,
    rate: f64,
    count: usize,
) -> io::Result<Pass> {
    let mut writer = stream.try_clone()?;
    let reader = stream.try_clone()?;
    reader.set_read_timeout(Some(READ_TIMEOUT))?;
    let sent: Vec<usize> = (0..count).map(|i| (offset + i) % lines.len()).collect();
    let start = Instant::now() + LEAD;
    let (lag, replied) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> io::Result<Vec<f64>> {
            prepare_load_thread();
            let mut lag = Vec::with_capacity(count);
            let mut buf = Vec::with_capacity(WRITE_CHUNK + 4096);
            let mut i = 0;
            while i < count {
                let now = Instant::now();
                let due = start + due_offset(i, rate);
                if due > now {
                    std::thread::sleep(due - now);
                    continue;
                }
                buf.clear();
                let first = i;
                while i < count && start + due_offset(i, rate) <= now && buf.len() < WRITE_CHUNK {
                    buf.extend_from_slice(&lines[sent[i]]);
                    i += 1;
                }
                writer.write_all(&buf)?;
                let sent_at = Instant::now();
                for j in first..i {
                    let late = sent_at.saturating_duration_since(start + due_offset(j, rate));
                    lag.push(late.as_secs_f64() * 1e6);
                }
            }
            writer.flush()?;
            Ok(lag)
        });
        let receiver = scope.spawn(|| -> (Vec<Duration>, Vec<Vec<u8>>) {
            prepare_load_thread();
            let mut r = BufReader::with_capacity(256 * 1024, reader);
            let mut replied = Vec::with_capacity(count);
            let mut replies = Vec::with_capacity(count);
            for _ in 0..count {
                let mut line = Vec::new();
                match r.read_until(b'\n', &mut line) {
                    Ok(n) if n > 0 && line.ends_with(b"\n") => {
                        replied.push(Instant::now().saturating_duration_since(start));
                        line.pop();
                        replies.push(line);
                    }
                    _ => break,
                }
            }
            (replied, replies)
        });
        let lag = sender.join().expect("sender thread panicked");
        let replied = receiver.join().expect("receiver thread panicked");
        (lag, replied)
    });
    let (replied, replies) = replied;
    let lag_us = lag?;
    Ok(Pass {
        sent,
        latency_us: due_latencies_us(rate, &replied),
        wall: replied.last().copied().unwrap_or_default(),
        replies,
        lag_us,
    })
}

/// Readies a load thread to keep its schedule on a box it shares with
/// the server: sleeps wake on time (the default 50 µs timer slack is most
/// of the 83 µs between requests at 12k/s), and the thread runs at nice
/// −10, so a busy server thread on the same core does not delay a send or
/// a receive time stamp (both would count as server latency). Either
/// setting is skipped where the kernel refuses it.
#[cfg(target_os = "linux")]
fn prepare_load_thread() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
        fn setpriority(which: u32, who: u32, prio: i32) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    const SLACK_NS: std::ffi::c_ulong = 1000;
    const PRIO_PROCESS: u32 = 0;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and sets only the
    // calling thread's timer slack; setpriority(PRIO_PROCESS, 0, …) sets
    // only the calling thread's nice value on Linux. No memory is passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, SLACK_NS);
        setpriority(PRIO_PROCESS, 0, -10);
    }
}

#[cfg(not(target_os = "linux"))]
fn prepare_load_thread() {}

/// Latency limit of the ramp: p99 at most this, µs.
pub const P99_LIMIT_US: f64 = 2000.0;
/// Growth of the median latency, first quarter of a step to its last,
/// beyond which the backlog counts as growing (µs; or the first
/// quarter's median, when larger).
const BACKLOG_SLACK_US: f64 = 500.0;

/// Whether latencies (in due order) show a queue that grows through the
/// step: the last quarter's median exceeds the first quarter's by more
/// than the slack. A short spike moves neither median.
pub fn backlog_grows(latency_us: &[f64]) -> bool {
    let q = latency_us.len() / 4;
    if q < stats::MIN_BEYOND {
        return false;
    }
    let first = stats::median(&latency_us[..q]).expect("non-empty quarter");
    let last = stats::median(&latency_us[latency_us.len() - q..]).expect("non-empty quarter");
    last > first + BACKLOG_SLACK_US.max(first)
}

/// Whether a ramp step at `rate` met the limit: every request answered,
/// p99 within [`P99_LIMIT_US`], and no growing backlog.
pub fn step_ok(pass: &Pass) -> bool {
    let mut sorted = pass.latency_us.clone();
    sorted.sort_by(f64::total_cmp);
    pass.replies.len() == pass.sent.len()
        && stats::percentile_sorted(&sorted, 99.0).is_some_and(|p99| p99 <= P99_LIMIT_US)
        && !backlog_grows(&pass.latency_us)
}

/// One ramp step: the rate tried and whether it met the limit.
pub type Step = (f64, bool);

/// Steps a ramp runs at most, retries included.
const MAX_RAMP_TRIES: usize = 16;

/// The rates a ramp tries: `start`, `start + step`, … up to `max`, then
/// halving the step between the last rate that met the limit and the
/// first that did not, `refinements` times. `probe(rate)` runs one step;
/// a rate fails only when a second try fails too, so one transient
/// stall (another process taking the core) does not end the ramp.
/// No step starts after `deadline`. Returns the highest rate that met
/// the limit, with every step run.
pub fn ramp(
    start: f64,
    step: f64,
    max: f64,
    refinements: u32,
    deadline: Instant,
    mut probe: impl FnMut(f64) -> io::Result<bool>,
) -> io::Result<(Option<f64>, Vec<Step>)> {
    let mut steps = Vec::new();
    let mut judge = |rate: f64, steps: &mut Vec<Step>| -> io::Result<bool> {
        for _ in 0..2 {
            let ok = probe(rate)?;
            steps.push((rate, ok));
            if ok {
                return Ok(true);
            }
        }
        Ok(false)
    };
    let mut best = None;
    let mut rate = start;
    let mut failed_at = None;
    let time_left = || Instant::now() < deadline;
    while rate <= max && steps.len() < MAX_RAMP_TRIES && time_left() {
        if !judge(rate, &mut steps)? {
            failed_at = Some(rate);
            break;
        }
        best = Some(rate);
        rate += step;
    }
    if let (Some(mut lo), Some(mut hi)) = (best, failed_at) {
        for _ in 0..refinements {
            if steps.len() >= MAX_RAMP_TRIES || !time_left() {
                break;
            }
            let mid = (lo + hi) / 2.0;
            if judge(mid, &mut steps)? {
                lo = mid;
                best = Some(mid);
            } else {
                hi = mid;
            }
        }
    }
    Ok((best, steps))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single-server queue model: requests due every `1/rate`, each
    /// taking `service` once started, with one stall of `stall` before
    /// request `stall_at`. Returns reply times as offsets.
    fn queue(
        rate: f64,
        n: usize,
        service: Duration,
        stall_at: usize,
        stall: Duration,
    ) -> Vec<Duration> {
        let mut free = Duration::ZERO;
        (0..n)
            .map(|i| {
                let mut begin = due_offset(i, rate).max(free);
                if i == stall_at {
                    begin += stall;
                }
                free = begin + service;
                free
            })
            .collect()
    }

    #[test]
    fn due_time_latency_charges_a_stall_to_every_request_due_during_it() {
        // 1000 req/s, 100 µs of work each, a 50 ms stall at request 100.
        let replied = queue(
            1000.0,
            400,
            Duration::from_micros(100),
            100,
            Duration::from_millis(50),
        );
        let lat = due_latencies_us(1000.0, &replied);
        // Request 100 waits the whole stall; the ~50 requests due during
        // it queue behind it and are late too, decreasingly.
        assert!((lat[100] - 50_100.0).abs() < 1.0);
        assert!(lat[120] > 29_000.0);
        let slow = lat.iter().filter(|&&l| l > 10_000.0).count();
        assert!((40..=50).contains(&slow), "{slow} requests over 10 ms");
        // A closed loop timing each request from its (delayed) send would
        // have seen one slow request; from due times, p99 sees the stall.
        let mut sorted = lat.clone();
        sorted.sort_by(f64::total_cmp);
        assert!(stats::percentile_sorted(&sorted, 99.0).unwrap() > 40_000.0);
        assert!(stats::percentile_sorted(&sorted, 50.0).unwrap() < 200.0);
    }

    #[test]
    fn pipelined_passes_are_all_due_at_once() {
        assert_eq!(due_offset(7, f64::INFINITY), Duration::ZERO);
        assert_eq!(due_offset(3, 2.0), Duration::from_millis(1500));
    }

    #[test]
    fn backlog_detection_needs_sustained_growth() {
        let flat: Vec<f64> = (0..400).map(|i| 100.0 + (i % 7) as f64 * 10.0).collect();
        assert!(!backlog_grows(&flat));
        // A spike in the middle moves neither quarter's median.
        let mut spiky = flat.clone();
        for l in &mut spiky[150..200] {
            *l = 30_000.0;
        }
        assert!(!backlog_grows(&spiky));
        // Arrivals outpacing service: latency climbs through the step.
        let over = due_latencies_us(
            2000.0,
            &queue(2000.0, 400, Duration::from_micros(600), 0, Duration::ZERO),
        );
        assert!(backlog_grows(&over));
        // The same service below saturation does not.
        let under = due_latencies_us(
            1000.0,
            &queue(1000.0, 400, Duration::from_micros(600), 0, Duration::ZERO),
        );
        assert!(!backlog_grows(&under));
        // Too few samples to judge.
        assert!(!backlog_grows(&over[..30]));
    }

    fn later() -> Instant {
        Instant::now() + Duration::from_secs(3600)
    }

    #[test]
    fn ramp_finds_the_highest_rate_below_the_knee() {
        // Meets the limit up to 10 300/s.
        let knee = |rate: f64| Ok(rate <= 10_300.0);
        let (best, steps) = ramp(4000.0, 2000.0, 30_000.0, 2, later(), knee).unwrap();
        assert_eq!(best, Some(10_000.0));
        let rates: Vec<f64> = steps.iter().map(|s| s.0).collect();
        assert_eq!(
            rates,
            [
                4000.0, 6000.0, 8000.0, 10_000.0, 12_000.0, 12_000.0, 11_000.0, 11_000.0, 10_500.0,
                10_500.0
            ]
        );
        // One transient failure below the knee is retried, not final.
        let mut spiked = false;
        let spike = |rate: f64| {
            let first_8k = rate == 8000.0 && !spiked;
            spiked |= first_8k;
            Ok(rate <= 10_300.0 && !first_8k)
        };
        assert_eq!(
            ramp(4000.0, 2000.0, 30_000.0, 2, later(), spike).unwrap().0,
            Some(10_000.0)
        );
        // Nothing meets the limit: no rate.
        assert_eq!(
            ramp(4000.0, 2000.0, 30_000.0, 2, later(), |_| Ok(false))
                .unwrap()
                .0,
            None
        );
        // Everything does: the ramp stops at its maximum.
        assert_eq!(
            ramp(4000.0, 2000.0, 8000.0, 2, later(), |_| Ok(true))
                .unwrap()
                .0,
            Some(8000.0)
        );
    }
}
