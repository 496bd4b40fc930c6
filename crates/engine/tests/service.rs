//! End-to-end tests of the `msrs serve` TCP service layer.
//!
//! * **bit-identity** — N concurrent sessions pipelining the same corpus
//!   each receive, in strict request order, report lines bit-identical to
//!   a sequential `msrs batch` run over that corpus (modulo the
//!   `wall_micros` timings and the `cache_hit` provenance flag), across
//!   engine thread counts 1, 2, 8;
//! * **admission control** — with `max_inflight = 1` a request arriving
//!   while another is being solved is shed with a structured
//!   `overloaded` line, the slot is not consumed, and a retry after the
//!   slow request completes is served normally;
//! * **graceful shutdown** — a request in flight when shutdown begins
//!   still delivers its report before the session closes;
//! * **observability** — `#stats` answers with one parseable JSON
//!   snapshot line, the HTTP metrics listener serves Prometheus and JSON
//!   renderings, parse errors are answered in-line without ending the
//!   session, and unknown `#` control lines are ignored;
//! * **session hygiene** — an idle session is closed with a structured
//!   `idle_timeout` line after `--idle-timeout-ms`, a session that served
//!   `--max-requests-per-session` requests is closed with a
//!   `session_limit` line, and a peer that hangs up mid-conversation ends
//!   its session cleanly (counted, never a session-thread error);
//! * **write coalescing** — a lockstep client gets one socket write per
//!   reply, a pipelined corpus gets its replies in far fewer writes than
//!   requests, and a reply is never held back behind a partial request
//!   line.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use msrs_engine::json::Json;
use msrs_engine::service::{serve, ServeConfig};
use msrs_engine::stream::JsonlServer;
use msrs_engine::{jsonl, telemetry, Engine, EngineConfig, ExactPolicy};

/// The admission gauge and serve counters are process-global; serializing
/// the tests makes each test's server the only one moving them.
static SERIAL: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn engine(threads: usize, cache_capacity: usize) -> Engine {
    Engine::new(EngineConfig {
        threads,
        cache_capacity,
        ..EngineConfig::default()
    })
}

/// An engine whose solve of [`slow_line`]'s instance reliably takes the
/// full `deadline`: `parity_gap_partition(21)` has no perfect split (odd
/// half-sum) and all-distinct sizes, so the exact branch-and-bound —
/// given an effectively unbounded node budget — runs until the
/// cooperative deadline cancels it. The deadline also bypasses the
/// result cache, so repeats stay slow.
fn slow_engine(deadline: Duration) -> Engine {
    Engine::new(EngineConfig {
        threads: 1,
        cache_capacity: 0,
        deadline: Some(deadline),
        exact: ExactPolicy {
            max_jobs: 64,
            max_classes: 64,
            max_nodes: u64::MAX,
        },
        ..EngineConfig::default()
    })
}

fn slow_line() -> String {
    jsonl::write_instance_line(Some("slow"), &msrs_gen::parity_gap_partition(21))
}

fn tiny_line(id: &str) -> String {
    jsonl::write_instance_line(Some(id), &msrs_gen::uniform(7, 2, 6, 2, 1, 9))
}

/// A small corpus with planted duplicates (traffic seeds collapse into
/// `dup_factor`-sized canonical buckets) so concurrent sessions exercise
/// cache hits and misses, not just fresh solves.
fn corpus_lines() -> Vec<String> {
    (0..12u64)
        .map(|seed| {
            jsonl::write_instance_line(Some(&format!("c{seed}")), &msrs_gen::traffic(seed, 3, 4))
        })
        .collect()
}

/// Zeroes every `wall_micros` (top-level and nested in `runs`) and
/// normalizes `cache_hit` — the two fields the determinism contract
/// excludes.
fn redact(json: &mut Json) {
    match json {
        Json::Obj(pairs) => {
            for (k, v) in pairs.iter_mut() {
                if k == "wall_micros" {
                    *v = Json::Num(0);
                } else if k == "cache_hit" {
                    *v = Json::Bool(false);
                } else {
                    redact(v);
                }
            }
        }
        Json::Arr(items) => items.iter_mut().for_each(redact),
        _ => {}
    }
}

fn redacted(line: &str) -> String {
    let mut json = Json::parse(line).expect("response line parses as JSON");
    redact(&mut json);
    json.to_string()
}

/// Blocks until the admission gauge shows at least one in-flight request
/// (i.e. the server has decoded and admitted the slow request), so the
/// timing-sensitive tests never race the session thread's startup.
fn wait_for_inflight() {
    let t0 = Instant::now();
    while telemetry::registry().serve_inflight.get() < 1 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "request was never admitted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Blocks until no request is in flight. A session writes its response a
/// few instructions *before* releasing its admission slot, so a reader
/// that immediately fires the next request can still be shed; waiting for
/// the gauge to drop makes post-completion sends deterministic.
fn wait_for_idle() {
    let t0 = Instant::now();
    while telemetry::registry().serve_inflight.get() > 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "in-flight request never released its slot"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// N concurrent sessions, each pipelining the full corpus, all receive
/// exactly the sequential batch run's report lines, in order.
#[test]
fn concurrent_sessions_match_sequential_batch() {
    let _guard = serialized();
    let lines = corpus_lines();
    let corpus_text = format!("{}\n", lines.join("\n"));
    for threads in [1usize, 2, 8] {
        // Sequential reference on a fresh engine (its own cache).
        let mut ref_out = Vec::new();
        JsonlServer::new()
            .serve(
                &engine(threads, 1024),
                corpus_text.as_bytes(),
                &mut ref_out,
                64,
            )
            .expect("reference batch run");
        let reference: Vec<String> = String::from_utf8(ref_out)
            .expect("utf8 reports")
            .lines()
            .map(redacted)
            .collect();
        assert_eq!(reference.len(), lines.len());

        let handle = serve(engine(threads, 1024), "127.0.0.1:0", ServeConfig::default())
            .expect("server binds");
        let addr = handle.local_addr();
        let clients: Vec<_> = (0..4)
            .map(|_| {
                let lines = lines.clone();
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connects");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    // Pipeline every request, then read every response:
                    // responses must come back in request order.
                    for line in &lines {
                        stream.write_all(line.as_bytes()).expect("write");
                        stream.write_all(b"\n").expect("write");
                    }
                    stream.flush().expect("flush");
                    let mut got = Vec::new();
                    for _ in 0..lines.len() {
                        let mut resp = String::new();
                        reader.read_line(&mut resp).expect("read");
                        got.push(redacted(resp.trim()));
                    }
                    got
                })
            })
            .collect();
        let transcripts: Vec<Vec<String>> = clients
            .into_iter()
            .map(|t| t.join().expect("client"))
            .collect();
        handle.begin_shutdown();
        let summary = handle.wait();
        assert_eq!(summary.sessions, 4, "threads {threads}");
        assert_eq!(
            summary.requests,
            4 * lines.len() as u64,
            "threads {threads}"
        );
        assert_eq!(summary.sheds, 0, "no sheds with unlimited in-flight");
        assert_eq!(summary.errors, 0);
        for (client, transcript) in transcripts.iter().enumerate() {
            assert_eq!(
                transcript, &reference,
                "client {client} diverged from sequential batch (threads {threads})"
            );
        }
    }
}

/// With `max_inflight = 1`, a request arriving while the slow solve holds
/// the only slot is shed with an `overloaded` line; once the slot frees,
/// the same client is served.
#[test]
fn overloaded_sheds_above_max_inflight() {
    let _guard = serialized();
    let handle = serve(
        slow_engine(Duration::from_secs(2)),
        "127.0.0.1:0",
        ServeConfig {
            max_inflight: 1,
            ..ServeConfig::default()
        },
    )
    .expect("server binds");
    let addr = handle.local_addr();

    let mut slow = TcpStream::connect(addr).expect("slow client connects");
    let mut slow_reader = BufReader::new(slow.try_clone().expect("clone"));
    slow.write_all(format!("{}\n", slow_line()).as_bytes())
        .expect("write slow request");
    slow.flush().expect("flush");
    wait_for_inflight();

    // The slot is held: a second session's request is shed, not queued.
    let mut fast = TcpStream::connect(addr).expect("fast client connects");
    let mut fast_reader = BufReader::new(fast.try_clone().expect("clone"));
    fast.write_all(format!("{}\n", tiny_line("shed-me")).as_bytes())
        .expect("write shed request");
    fast.flush().expect("flush");
    let mut shed = String::new();
    fast_reader.read_line(&mut shed).expect("read shed line");
    let shed = Json::parse(shed.trim()).expect("shed line parses");
    assert_eq!(
        shed.get("error").and_then(Json::as_str),
        Some("overloaded"),
        "second request must shed while the slot is held"
    );
    assert!(matches!(shed.get("max_inflight"), Some(Json::Num(1))));

    // The slow request still completes and answers.
    let mut slow_resp = String::new();
    slow_reader
        .read_line(&mut slow_resp)
        .expect("read slow report");
    let slow_report = Json::parse(slow_resp.trim()).expect("slow report parses");
    assert_eq!(slow_report.get("id").and_then(Json::as_str), Some("slow"));

    // Shedding did not consume the slot: a retry is served normally.
    wait_for_idle();
    fast.write_all(format!("{}\n", tiny_line("retry")).as_bytes())
        .expect("write retry");
    fast.flush().expect("flush");
    let mut retry = String::new();
    fast_reader
        .read_line(&mut retry)
        .expect("read retry report");
    let retry = Json::parse(retry.trim()).expect("retry parses");
    assert_eq!(retry.get("id").and_then(Json::as_str), Some("retry"));

    fast.write_all(b"#shutdown\n").expect("write shutdown");
    fast.flush().expect("flush");
    drop((slow, slow_reader, fast, fast_reader));
    let summary = handle.wait();
    assert_eq!(summary.sessions, 2);
    assert_eq!(summary.requests, 2, "slow + retry answered");
    assert_eq!(summary.sheds, 1, "exactly the one overload");
    assert_eq!(summary.errors, 0);
}

/// Graceful shutdown lets the in-flight request finish: the report lands
/// on the wire before the session closes with EOF.
#[test]
fn inflight_request_completes_on_shutdown() {
    let _guard = serialized();
    let handle = serve(
        slow_engine(Duration::from_secs(1)),
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("server binds");
    let addr = handle.local_addr();
    let mut client = TcpStream::connect(addr).expect("connects");
    let mut reader = BufReader::new(client.try_clone().expect("clone"));
    client
        .write_all(format!("{}\n", slow_line()).as_bytes())
        .expect("write");
    client.flush().expect("flush");
    wait_for_inflight();

    handle.begin_shutdown();
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read report");
    let report = Json::parse(resp.trim()).expect("report parses despite shutdown");
    assert_eq!(report.get("id").and_then(Json::as_str), Some("slow"));
    // …and then the session closes cleanly.
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("read EOF"), 0);

    let summary = handle.wait();
    assert_eq!(summary.sessions, 1);
    assert_eq!(summary.requests, 1, "the in-flight request was answered");
    assert_eq!(summary.sheds, 0);
}

/// `#stats`, the HTTP metrics listener, in-session parse errors, and
/// unknown control lines.
#[test]
fn stats_errors_and_control_lines() {
    let _guard = serialized();
    let handle = serve(
        engine(1, 1024),
        "127.0.0.1:0",
        ServeConfig {
            metrics_addr: Some("127.0.0.1:0".into()),
            ..ServeConfig::default()
        },
    )
    .expect("server binds");
    let addr = handle.local_addr();
    let metrics_addr = handle.metrics_local_addr().expect("metrics listener bound");

    let mut client = TcpStream::connect(addr).expect("connects");
    let mut reader = BufReader::new(client.try_clone().expect("clone"));
    let mut send = |line: &str| {
        client
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| client.flush())
            .expect("write line");
    };
    let mut recv = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read line");
        line.trim().to_string()
    };

    send(&tiny_line("first"));
    let first = Json::parse(&recv()).expect("report parses");
    assert_eq!(first.get("id").and_then(Json::as_str), Some("first"));

    // One line, one JSON document: the full telemetry snapshot.
    send("#stats");
    let stats_line = recv();
    assert!(Json::parse(&stats_line).is_ok(), "snapshot line parses");
    assert!(stats_line.contains("msrs_requests_total"));
    assert!(stats_line.contains("msrs_serve_sessions_total"));

    // A malformed request answers with a structured error and the
    // session continues.
    send("this is not json");
    let err = Json::parse(&recv()).expect("error line parses");
    assert_eq!(err.get("error").and_then(Json::as_str), Some("parse"));
    assert!(matches!(err.get("line"), Some(Json::Num(_))));

    // Unknown control lines are ignored, like corpus comments.
    send("# just a comment");
    send(&tiny_line("second"));
    let second = Json::parse(&recv()).expect("report parses");
    assert_eq!(second.get("id").and_then(Json::as_str), Some("second"));

    // HTTP metrics: Prometheus by default, JSON when the path says so.
    let http = |path: &str| {
        let mut conn = TcpStream::connect(metrics_addr).expect("metrics connects");
        conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
            .expect("GET");
        let mut response = String::new();
        conn.read_to_string(&mut response).expect("read response");
        response
    };
    let prom = http("/metrics");
    assert!(prom.starts_with("HTTP/1.1 200 OK"));
    assert!(prom.contains("text/plain"));
    assert!(prom.contains("msrs_requests_total"));
    assert!(prom.contains("msrs_serve_sessions_open"));
    assert!(prom.contains("msrs_serve_write_batches_total"));
    let json = http("/stats.json");
    assert!(json.starts_with("HTTP/1.1 200 OK"));
    assert!(json.contains("application/json"));
    assert!(json.contains("msrs_serve_sheds_total"));

    send("#shutdown");
    drop((client, reader));
    let summary = handle.wait();
    assert_eq!(summary.sessions, 1);
    assert_eq!(summary.requests, 2, "two well-formed requests answered");
    assert_eq!(summary.errors, 1, "one parse error answered in-line");
    assert_eq!(summary.sheds, 0);
}

/// A session that goes quiet past the idle timeout is told why and
/// closed; a session that keeps talking is not.
#[test]
fn idle_timeout_closes_session_with_structured_line() {
    let _guard = serialized();
    let idle_before = telemetry::registry().serve_idle_closes_total.get();
    let handle = serve(
        engine(1, 0),
        "127.0.0.1:0",
        ServeConfig {
            idle_timeout: Some(Duration::from_millis(250)),
            ..ServeConfig::default()
        },
    )
    .expect("server binds");
    let addr = handle.local_addr();
    let mut client = TcpStream::connect(addr).expect("connects");
    let mut reader = BufReader::new(client.try_clone().expect("clone"));

    // Activity resets nothing server-side — the timeout bounds the *gap*
    // between reads, so a served request first proves the session works.
    client
        .write_all(format!("{}\n", tiny_line("warm")).as_bytes())
        .expect("write");
    client.flush().expect("flush");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read report");
    let report = Json::parse(resp.trim()).expect("report parses");
    assert_eq!(report.get("id").and_then(Json::as_str), Some("warm"));

    // Now go idle: the server speaks first, then hangs up.
    let mut idle = String::new();
    reader.read_line(&mut idle).expect("read idle line");
    let idle = Json::parse(idle.trim()).expect("idle line parses");
    assert_eq!(
        idle.get("error").and_then(Json::as_str),
        Some("idle_timeout")
    );
    assert!(matches!(idle.get("idle_ms"), Some(Json::Num(250))));
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("read EOF"), 0);
    assert_eq!(
        telemetry::registry().serve_idle_closes_total.get(),
        idle_before + 1
    );

    handle.begin_shutdown();
    let summary = handle.wait();
    assert_eq!(summary.sessions, 1);
    assert_eq!(summary.requests, 1);
}

/// After `max_requests_per_session` served requests the session is closed
/// with a `session_limit` line; excess pipelined requests go unanswered.
#[test]
fn session_limit_closes_after_max_requests() {
    let _guard = serialized();
    let limit_before = telemetry::registry().serve_limit_closes_total.get();
    let handle = serve(
        engine(1, 0),
        "127.0.0.1:0",
        ServeConfig {
            max_requests_per_session: 2,
            ..ServeConfig::default()
        },
    )
    .expect("server binds");
    let addr = handle.local_addr();
    let mut client = TcpStream::connect(addr).expect("connects");
    let mut reader = BufReader::new(client.try_clone().expect("clone"));
    for i in 0..3 {
        client
            .write_all(format!("{}\n", tiny_line(&format!("r{i}"))).as_bytes())
            .expect("write");
    }
    client.flush().expect("flush");

    for i in 0..2 {
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read report");
        let report = Json::parse(resp.trim()).expect("report parses");
        assert_eq!(
            report.get("id").and_then(Json::as_str),
            Some(format!("r{i}").as_str())
        );
    }
    let mut limit = String::new();
    reader.read_line(&mut limit).expect("read limit line");
    let limit = Json::parse(limit.trim()).expect("limit line parses");
    assert_eq!(
        limit.get("error").and_then(Json::as_str),
        Some("session_limit")
    );
    assert!(matches!(limit.get("max_requests"), Some(Json::Num(2))));
    let mut rest = String::new();
    assert_eq!(
        reader.read_line(&mut rest).expect("read EOF"),
        0,
        "the third pipelined request is never answered"
    );
    assert_eq!(
        telemetry::registry().serve_limit_closes_total.get(),
        limit_before + 1
    );

    handle.begin_shutdown();
    let summary = handle.wait();
    assert_eq!(summary.sessions, 1);
    assert_eq!(summary.requests, 2, "exactly the session limit");
}

/// With `--decode-threads`, pipelined sessions coalesce bursts and decode
/// them in parallel — but responses still come back strictly in request
/// order, bit-identical to the sequential batch run, with a mid-burst
/// parse error answered in-line at its exact position.
#[test]
fn decode_threads_sessions_answer_in_order_with_interleaved_errors() {
    let _guard = serialized();
    let lines = corpus_lines();
    let corpus_text = format!("{}\n", lines.join("\n"));
    let mut ref_out = Vec::new();
    JsonlServer::new()
        .serve(&engine(1, 1024), corpus_text.as_bytes(), &mut ref_out, 64)
        .expect("reference batch run");
    let reference: Vec<String> = String::from_utf8(ref_out)
        .expect("utf8 reports")
        .lines()
        .map(redacted)
        .collect();

    let handle = serve(
        engine(1, 1024),
        "127.0.0.1:0",
        ServeConfig {
            decode_threads: 3,
            ..ServeConfig::default()
        },
    )
    .expect("server binds");
    let addr = handle.local_addr();
    const BAD_AT: usize = 5;
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let lines = lines.clone();
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connects");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                // Pipeline the whole conversation in one write so the
                // session sees a multi-line burst, with a malformed line
                // planted mid-burst.
                let mut payload = String::new();
                for (i, line) in lines.iter().enumerate() {
                    if i == BAD_AT {
                        payload.push_str("this is not json\n");
                    }
                    payload.push_str(line);
                    payload.push('\n');
                }
                stream.write_all(payload.as_bytes()).expect("write burst");
                stream.flush().expect("flush");
                let mut got = Vec::new();
                for _ in 0..=lines.len() {
                    let mut resp = String::new();
                    reader.read_line(&mut resp).expect("read");
                    got.push(resp.trim().to_string());
                }
                got
            })
        })
        .collect();
    let transcripts: Vec<Vec<String>> = clients
        .into_iter()
        .map(|t| t.join().expect("client"))
        .collect();
    handle.begin_shutdown();
    let summary = handle.wait();
    assert_eq!(summary.sessions, 2);
    assert_eq!(summary.requests, 2 * lines.len() as u64);
    assert_eq!(summary.errors, 2, "one planted parse error per session");
    for (client, transcript) in transcripts.iter().enumerate() {
        assert_eq!(transcript.len(), reference.len() + 1);
        for (i, resp) in transcript.iter().enumerate() {
            if i == BAD_AT {
                let err = Json::parse(resp).expect("error line parses");
                assert_eq!(
                    err.get("error").and_then(Json::as_str),
                    Some("parse"),
                    "client {client}: the planted error answers in position"
                );
            } else {
                let want = if i < BAD_AT {
                    &reference[i]
                } else {
                    &reference[i - 1]
                };
                assert_eq!(
                    &redacted(resp),
                    want,
                    "client {client} response {i} out of order"
                );
            }
        }
    }
}

/// A client that dies mid-request-line (torn write, no trailing newline)
/// on the parallel-decode path ends its session cleanly: the torn prefix
/// is answered as a parse error (or the dead peer's write fails as a
/// counted disconnect), and the next client is served normally.
#[test]
fn client_dying_mid_request_line_is_a_clean_session_end() {
    let _guard = serialized();
    let handle = serve(
        engine(1, 0),
        "127.0.0.1:0",
        ServeConfig {
            decode_threads: 2,
            ..ServeConfig::default()
        },
    )
    .expect("server binds");
    let addr = handle.local_addr();

    let mut torn = TcpStream::connect(addr).expect("connects");
    torn.write_all(format!("{}\n", tiny_line("whole")).as_bytes())
        .expect("write whole line");
    torn.write_all(br#"{"id":"torn","machines":2,"cla"#)
        .expect("write torn prefix");
    torn.flush().expect("flush");
    drop(torn);

    // The torn prefix is a parse error, never a served request; the
    // session winds down without taking the server with it.
    let t0 = Instant::now();
    while telemetry::registry().serve_sessions_open.get() > 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "torn session never closed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut polite = TcpStream::connect(addr).expect("connects");
    let mut reader = BufReader::new(polite.try_clone().expect("clone"));
    polite
        .write_all(format!("{}\n", tiny_line("after")).as_bytes())
        .expect("write");
    polite.flush().expect("flush");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read report");
    let report = Json::parse(resp.trim()).expect("report parses");
    assert_eq!(report.get("id").and_then(Json::as_str), Some("after"));

    handle.begin_shutdown();
    let summary = handle.wait();
    assert_eq!(summary.sessions, 2);
    assert_eq!(summary.requests, 2, "the whole lines were served");
    assert_eq!(summary.errors, 1, "the torn prefix became a parse error");
}

/// A peer that pipelines requests and hangs up without reading ends its
/// session as a counted disconnect — the server keeps running and serves
/// the next client normally.
#[test]
fn peer_disconnect_ends_session_cleanly() {
    let _guard = serialized();
    let disconnects_before = telemetry::registry().serve_disconnects_total.get();
    let handle = serve(engine(1, 0), "127.0.0.1:0", ServeConfig::default()).expect("server binds");
    let addr = handle.local_addr();

    // Pipeline a pile of requests, then vanish: responses written after
    // the peer's RST fail with EPIPE/reset on the session's write path.
    let mut rude = TcpStream::connect(addr).expect("connects");
    for i in 0..64u64 {
        let line =
            jsonl::write_instance_line(Some(&format!("gone-{i}")), &msrs_gen::traffic(i, 3, 4));
        rude.write_all(format!("{line}\n").as_bytes())
            .expect("write");
    }
    rude.flush().expect("flush");
    drop(rude);

    let t0 = Instant::now();
    while telemetry::registry().serve_disconnects_total.get() == disconnects_before {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "disconnect was never counted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // The server survived: a polite client is served normally.
    let mut polite = TcpStream::connect(addr).expect("connects");
    let mut reader = BufReader::new(polite.try_clone().expect("clone"));
    polite
        .write_all(format!("{}\n", tiny_line("after")).as_bytes())
        .expect("write");
    polite.flush().expect("flush");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read report");
    let report = Json::parse(resp.trim()).expect("report parses");
    assert_eq!(report.get("id").and_then(Json::as_str), Some("after"));

    handle.begin_shutdown();
    let summary = handle.wait();
    assert_eq!(summary.sessions, 2);
}

/// Both session paths: line-at-a-time and the `decode_threads` burst path.
fn session_paths() -> [ServeConfig; 2] {
    [
        ServeConfig::default(),
        ServeConfig {
            decode_threads: 2,
            ..ServeConfig::default()
        },
    ]
}

/// A lockstep client (next request only after the previous reply) gets
/// every reply in a socket write of its own.
#[test]
fn lockstep_client_gets_one_write_per_reply() {
    let _guard = serialized();
    let lines = corpus_lines();
    for config in session_paths() {
        let decode_threads = config.decode_threads;
        let handle = serve(engine(1, 1024), "127.0.0.1:0", config).expect("server binds");
        let mut client = TcpStream::connect(handle.local_addr()).expect("connects");
        let mut reader = BufReader::new(client.try_clone().expect("clone"));
        for (i, line) in lines.iter().enumerate() {
            client
                .write_all(format!("{line}\n").as_bytes())
                .expect("write");
            let mut resp = String::new();
            reader.read_line(&mut resp).expect("read");
            let report = Json::parse(resp.trim()).expect("report parses");
            assert_eq!(
                report.get("id").and_then(Json::as_str),
                Some(format!("c{i}").as_str())
            );
        }
        drop((client, reader));
        handle.begin_shutdown();
        let summary = handle.wait();
        assert_eq!(summary.requests, lines.len() as u64);
        assert_eq!(
            summary.write_batches, summary.requests,
            "one write per lockstep reply (decode_threads {decode_threads})"
        );
    }
}

/// A 200-line corpus sent in one write gets the sequential batch run's
/// replies, in order, in fewer than half as many socket writes.
#[test]
fn pipelined_corpus_replies_coalesce_into_few_writes() {
    let _guard = serialized();
    let lines: Vec<String> = (0..200u64)
        .map(|seed| {
            jsonl::write_instance_line(Some(&format!("p{seed}")), &msrs_gen::traffic(seed, 3, 4))
        })
        .collect();
    let corpus_text = format!("{}\n", lines.join("\n"));
    let mut ref_out = Vec::new();
    JsonlServer::new()
        .serve(&engine(1, 1024), corpus_text.as_bytes(), &mut ref_out, 64)
        .expect("reference batch run");
    let reference: Vec<String> = String::from_utf8(ref_out)
        .expect("utf8 reports")
        .lines()
        .map(redacted)
        .collect();
    for config in session_paths() {
        let decode_threads = config.decode_threads;
        let handle = serve(engine(1, 1024), "127.0.0.1:0", config).expect("server binds");
        let mut client = TcpStream::connect(handle.local_addr()).expect("connects");
        let reader = BufReader::new(client.try_clone().expect("clone"));
        client
            .write_all(corpus_text.as_bytes())
            .expect("write corpus");
        let got: Vec<String> = reader
            .lines()
            .take(lines.len())
            .map(|line| redacted(&line.expect("read")))
            .collect();
        assert_eq!(got, reference, "decode_threads {decode_threads}");
        drop(client);
        handle.begin_shutdown();
        let summary = handle.wait();
        assert_eq!(summary.requests, lines.len() as u64);
        assert!(
            summary.write_batches < summary.requests / 2,
            "{} writes for {} pipelined replies (decode_threads {decode_threads})",
            summary.write_batches,
            summary.requests
        );
    }
}

/// A reply is flushed before the session blocks on the rest of a partial
/// request line: the client sees it while the next line is still torn.
#[test]
fn reply_is_not_held_behind_a_partial_line() {
    let _guard = serialized();
    for config in session_paths() {
        let decode_threads = config.decode_threads;
        let handle = serve(engine(1, 0), "127.0.0.1:0", config).expect("server binds");
        let mut client = TcpStream::connect(handle.local_addr()).expect("connects");
        let mut reader = BufReader::new(client.try_clone().expect("clone"));
        reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let late = tiny_line("late");
        let (head, tail) = late.split_at(late.len() / 2);
        client
            .write_all(format!("{}\n{head}", tiny_line("early")).as_bytes())
            .expect("write request and partial line");
        let mut resp = String::new();
        reader
            .read_line(&mut resp)
            .unwrap_or_else(|e| panic!("reply held back (decode_threads {decode_threads}): {e}"));
        let report = Json::parse(resp.trim()).expect("report parses");
        assert_eq!(report.get("id").and_then(Json::as_str), Some("early"));

        client
            .write_all(format!("{tail}\n").as_bytes())
            .expect("complete the line");
        resp.clear();
        reader.read_line(&mut resp).expect("read completed reply");
        let report = Json::parse(resp.trim()).expect("report parses");
        assert_eq!(report.get("id").and_then(Json::as_str), Some("late"));
        drop((client, reader));
        handle.begin_shutdown();
        let summary = handle.wait();
        assert_eq!(summary.requests, 2, "decode_threads {decode_threads}");
        assert_eq!(summary.errors, 0, "decode_threads {decode_threads}");
    }
}
