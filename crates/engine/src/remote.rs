//! Remote TCP workers for `msrs dispatch`: the coordinator's listener +
//! handshake acceptor, and the `msrs worker --connect` client loop.
//!
//! The shard protocol itself is transport-agnostic ([`mod@crate::dispatch`]
//! module docs); this module adds the connection layer:
//!
//! ## Handshake
//!
//! ```text
//! worker      → #hello {"proto":1,"config_fp":N,"reconnects":R}
//! coordinator → #welcome {"proto":1,"worker":<ordinal>}
//!            or #reject {"error":"handshake_rejected","reason":…,
//!                        "proto":…,"config_fp":…}   (then close)
//! ```
//!
//! The protocol version and the engine-config content fingerprint
//! ([`crate::EngineConfig::content_fingerprint`]) must both match — a
//! worker built against different engine semantics would silently
//! produce different reports, so mismatches are refused with a
//! structured error and the worker exits non-zero without retrying.
//! `reconnects` is the worker's count of *prior completed sessions*, so
//! the coordinator can tell a rejoining worker from a fresh one.
//!
//! ## Reconnection
//!
//! A remote worker whose socket drops without a `#shutdown` line assumes
//! the coordinator restarted and redials with bounded exponential
//! backoff ([`RemoteWorkerConfig::reconnect_base`], doubling up to
//! `reconnect_cap`, at most `reconnect_attempts` consecutive failures).
//! A clean `#shutdown` ends the worker without redialing.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use msrs_telemetry::registry;

use crate::dispatch::{run_worker_conn, Msg, WorkerExit};
use crate::json::Json;
use crate::Engine;

/// Version of the dispatch wire protocol spoken after the handshake.
/// Bump on any incompatible change to the `#shard`/`#done` framing.
/// Version 2 added the fleet cache plane (`#shard … cache` headers and
/// the `#cacheq`/`#cachehit`/`#cachemiss`/`#cachefill` exchange).
pub const REMOTE_PROTO_VERSION: u64 = 2;

/// How long the coordinator waits for a dialing worker's `#hello` (and a
/// worker for the coordinator's reply) before giving up on the socket.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Accept-loop poll period while the listener is non-blocking.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Longest line the handshake will read before declaring the peer
/// non-protocol.
const MAX_HANDSHAKE_LINE: usize = 4096;

/// A bound listener remote workers can dial into, handed to
/// [`crate::dispatch::dispatch_fleet`].
pub struct RemoteHub {
    listener: TcpListener,
    local: SocketAddr,
}

impl RemoteHub {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral test port).
    pub fn bind(addr: &str) -> io::Result<RemoteHub> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Ok(RemoteHub { listener, local })
    }

    /// The actually-bound address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }
}

/// Runs the accept loop on its own thread until `stop` is set: each
/// connection gets a short-lived handshake thread that either forwards
/// the stream to the coordinator as [`Msg::RemoteJoined`] or refuses it
/// with a structured `#reject` line.
pub(crate) fn spawn_acceptor(
    hub: RemoteHub,
    tx: Sender<Msg>,
    config_fp: u64,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        if hub.listener.set_nonblocking(true).is_err() {
            return;
        }
        while !stop.load(Ordering::Relaxed) {
            match hub.listener.accept() {
                Ok((stream, _peer)) => {
                    let tx = tx.clone();
                    std::thread::spawn(move || handshake_accept(stream, &tx, config_fp));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(_) => std::thread::sleep(ACCEPT_POLL),
            }
        }
    })
}

/// Validates one dialing worker's `#hello`. On success the stream (with
/// no buffered bytes — the handshake reads unbuffered) is forwarded to
/// the coordinator, which sends the `#welcome`.
fn handshake_accept(mut stream: TcpStream, tx: &Sender<Msg>, config_fp: u64) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
    let reject = |stream: &mut TcpStream, reason: &str| {
        registry().dispatch_handshake_rejects_total.inc();
        let line = Json::Obj(vec![
            ("error".into(), Json::Str("handshake_rejected".into())),
            ("reason".into(), Json::Str(reason.into())),
            ("proto".into(), Json::Num(REMOTE_PROTO_VERSION as i128)),
            ("config_fp".into(), Json::Num(config_fp as i128)),
        ]);
        let _ = stream.write_all(format!("#reject {line}\n").as_bytes());
        let _ = stream.flush();
        let _ = stream.shutdown(Shutdown::Both);
    };
    let line = match read_line_raw(&mut stream, MAX_HANDSHAKE_LINE) {
        Ok(line) => line,
        Err(_) => {
            reject(&mut stream, "no #hello line before the handshake deadline");
            return;
        }
    };
    let Some(hello) = line
        .strip_prefix("#hello ")
        .and_then(|payload| Json::parse(payload).ok())
    else {
        reject(&mut stream, "first line was not a #hello");
        return;
    };
    let proto = hello.get("proto").and_then(Json::as_u64);
    if proto != Some(REMOTE_PROTO_VERSION) {
        reject(
            &mut stream,
            &format!(
                "protocol version mismatch (worker {}, coordinator {})",
                proto.map_or("?".into(), |p| p.to_string()),
                REMOTE_PROTO_VERSION
            ),
        );
        return;
    }
    let fp = hello.get("config_fp").and_then(Json::as_u64);
    if fp != Some(config_fp) {
        reject(
            &mut stream,
            &format!(
                "engine config fingerprint mismatch (worker {}, coordinator {config_fp})",
                fp.map_or("?".into(), |f| f.to_string()),
            ),
        );
        return;
    }
    let reconnects = hello.get("reconnects").and_then(Json::as_u64).unwrap_or(0);
    let _ = stream.set_read_timeout(None);
    // The coordinator thread registers the worker and sends #welcome;
    // a send failure means the run already ended.
    let _ = tx.send(Msg::RemoteJoined { stream, reconnects });
}

/// Reads one `\n`-terminated line *without buffering past it*, so the
/// stream can be handed to another reader afterwards. Handshake lines
/// are tiny; byte-at-a-time is fine.
fn read_line_raw(stream: &mut TcpStream, max: usize) -> io::Result<String> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed during handshake",
                ))
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    let text = String::from_utf8_lossy(&line).into_owned();
                    return Ok(text.trim_end_matches('\r').to_string());
                }
                line.push(byte[0]);
                if line.len() > max {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "handshake line too long",
                    ));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Configuration for one `msrs worker --connect` process.
#[derive(Debug, Clone)]
pub struct RemoteWorkerConfig {
    /// Coordinator address (`HOST:PORT`).
    pub addr: String,
    /// Heartbeat period ([`crate::dispatch::DEFAULT_HEARTBEAT`]).
    pub heartbeat: Duration,
    /// This worker's engine-config content fingerprint, offered in the
    /// handshake and checked by the coordinator.
    pub config_fp: u64,
    /// First reconnect backoff; doubles per consecutive failure.
    pub reconnect_base: Duration,
    /// Backoff ceiling.
    pub reconnect_cap: Duration,
    /// Consecutive dial/handshake failures tolerated before giving up.
    pub reconnect_attempts: u32,
    /// Threads for burst-decoding shard lines (1 = sequential).
    pub decode_threads: usize,
}

impl Default for RemoteWorkerConfig {
    fn default() -> Self {
        RemoteWorkerConfig {
            addr: String::new(),
            heartbeat: crate::dispatch::DEFAULT_HEARTBEAT,
            config_fp: 0,
            reconnect_base: Duration::from_millis(200),
            reconnect_cap: Duration::from_secs(5),
            reconnect_attempts: 8,
            decode_threads: 1,
        }
    }
}

/// Bounded exponential backoff: `base × 2^(failures-1)`, capped.
fn backoff_delay(base: Duration, cap: Duration, failures: u32) -> Duration {
    let factor = 1u32 << failures.saturating_sub(1).min(6);
    (base * factor).min(cap)
}

/// The `msrs worker --connect` loop: dial, handshake, run the shard
/// protocol until the coordinator says `#shutdown` (clean exit) or the
/// socket drops (redial with backoff — the coordinator may have
/// restarted). Returns `Err` on a handshake rejection (version or
/// config mismatch — permanent, no retry) or when the reconnect budget
/// is exhausted.
pub fn run_remote_worker(engine: &Engine, cfg: &RemoteWorkerConfig) -> io::Result<()> {
    let env_index: Option<u64> = std::env::var("MSRS_WORKER_INDEX")
        .ok()
        .and_then(|v| v.parse().ok());
    let mut sessions: u64 = 0;
    let mut failures: u32 = 0;
    loop {
        match dial_and_handshake(cfg, sessions) {
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Structured rejection: retrying can't help.
                return Err(e);
            }
            Err(e) => {
                failures += 1;
                if failures > cfg.reconnect_attempts {
                    return Err(io::Error::new(
                        e.kind(),
                        format!(
                            "giving up on {} after {failures} connection attempts: {e}",
                            cfg.addr
                        ),
                    ));
                }
                let delay = backoff_delay(cfg.reconnect_base, cfg.reconnect_cap, failures);
                eprintln!(
                    "msrs worker: connect to {} failed ({e}); retrying in {} ms",
                    cfg.addr,
                    delay.as_millis()
                );
                std::thread::sleep(delay);
            }
            Ok((stream, ordinal)) => {
                failures = 0;
                let reader = io::BufReader::new(stream.try_clone()?);
                let exit = run_worker_conn(
                    engine,
                    reader,
                    io::BufWriter::new(stream),
                    cfg.heartbeat,
                    env_index.or(Some(ordinal)),
                    cfg.decode_threads,
                )?;
                sessions += 1;
                match exit {
                    WorkerExit::Shutdown => return Ok(()),
                    WorkerExit::Eof => {
                        // Bare EOF: assume a coordinator restart and
                        // redial after a beat.
                        std::thread::sleep(cfg.reconnect_base);
                    }
                }
            }
        }
    }
}

/// One dial + handshake round trip; returns the connected stream and
/// the ordinal the coordinator assigned in its `#welcome`.
fn dial_and_handshake(cfg: &RemoteWorkerConfig, sessions: u64) -> io::Result<(TcpStream, u64)> {
    let mut stream = TcpStream::connect(&cfg.addr)?;
    let _ = stream.set_nodelay(true);
    let hello = format!(
        "#hello {{\"proto\":{REMOTE_PROTO_VERSION},\"config_fp\":{},\"reconnects\":{sessions}}}\n",
        cfg.config_fp
    );
    stream.write_all(hello.as_bytes())?;
    stream.flush()?;
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let line = read_line_raw(&mut stream, MAX_HANDSHAKE_LINE)?;
    stream.set_read_timeout(None)?;
    if let Some(payload) = line.strip_prefix("#welcome ") {
        let v = Json::parse(payload).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unparsable #welcome: {e}"),
            )
        })?;
        if v.get("proto").and_then(Json::as_u64) != Some(REMOTE_PROTO_VERSION) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "coordinator #welcome carries a different protocol version",
            ));
        }
        let ordinal = v.get("worker").and_then(Json::as_u64).unwrap_or(0);
        Ok((stream, ordinal))
    } else if let Some(payload) = line.strip_prefix("#reject ") {
        let reason = Json::parse(payload)
            .ok()
            .and_then(|v| v.get("reason").and_then(|r| r.as_str().map(String::from)))
            .unwrap_or_else(|| payload.to_string());
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("coordinator rejected handshake: {reason}"),
        ))
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected handshake reply `{line}`"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_bounded_and_exponential() {
        let base = Duration::from_millis(100);
        let cap = Duration::from_secs(2);
        assert_eq!(backoff_delay(base, cap, 1), Duration::from_millis(100));
        assert_eq!(backoff_delay(base, cap, 2), Duration::from_millis(200));
        assert_eq!(backoff_delay(base, cap, 3), Duration::from_millis(400));
        assert_eq!(backoff_delay(base, cap, 6), cap); // 3200 ms, capped
        assert_eq!(backoff_delay(base, cap, 40), cap); // shift stays sane
    }
}
