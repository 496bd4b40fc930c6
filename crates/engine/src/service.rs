//! `msrs serve`: a concurrent JSONL-over-TCP front end on the
//! [`ServiceCore`] data plane.
//!
//! Wire protocol (one JSON value per line, strictly ordered per
//! connection — the N-th response line answers the N-th request line):
//!
//! * **request** — an instance line exactly as `msrs batch` reads it:
//!   `{"id":"r-1","machines":2,"classes":[[3,5],[7]]}` (`id` optional).
//! * **report** — the same report line `msrs batch` writes, e.g.
//!   `{"id":"r-1",…,"cache_hit":true,"wall_micros":12,…}`.
//! * **error** — a malformed request yields
//!   `{"error":"parse","line":N,"message":"…"}` and the session
//!   *continues* (unlike batch mode, where a corpus error is fatal:
//!   a session is a conversation, not a file).
//! * **overloaded** — admission control shed the request without decoding
//!   it: `{"error":"overloaded","max_inflight":N}`. Sent when
//!   `--max-inflight` requests are already being solved across all
//!   sessions. The slot is not consumed; the client may retry.
//! * **idle_timeout** — the session sat idle past `--idle-timeout-ms`:
//!   `{"error":"idle_timeout","idle_ms":D}` is written and the session
//!   closes instead of holding its thread forever.
//! * **session_limit** — the session served `--max-requests-per-session`
//!   requests: `{"error":"session_limit","max_requests":N}` is written
//!   and the session closes (load-balancer-friendly connection churn).
//!
//! A peer that disconnects mid-write (`EPIPE`/connection reset) ends its
//! session cleanly — counted in `msrs_serve_disconnects_total`, never a
//! session-thread error.
//!
//! Responses are written into a per-session buffer and flushed only where
//! the session could block or hands over control: before a read that
//! could block (the read buffer holds no complete request line), at EOF,
//! and after `#stats`, `idle_timeout`, `session_limit` and `overloaded`
//! lines. A lockstep client therefore gets every reply in a write of its
//! own, while a pipelining client's replies share few large writes;
//! `msrs_serve_write_batches_total` counts the socket writes.
//!
//! Control lines start with `#` (comments in batch corpora):
//!
//! * `#stats` — responds with one line: the full telemetry snapshot as
//!   JSON (the same document `msrs stats --json` prints).
//! * `#shutdown` — begins graceful shutdown: every session finishes the
//!   requests it has already admitted, responses are flushed, then
//!   connections close and the listener exits.
//! * anything else starting with `#` is ignored, exactly as in a corpus.
//!
//! Deadlines: a server-wide `--deadline-ms` becomes the engine's
//! per-request deadline — each admitted request gets a fresh
//! [`CancelToken`](msrs_core::CancelToken) budget. As in the rest of the
//! engine, a configured deadline bypasses the result cache (documented
//! opt-in nondeterminism), and a report whose runs include a `timed_out`
//! status counts toward `msrs_serve_deadline_hits_total`.
//!
//! The optional metrics listener (`--metrics-addr`) answers every HTTP
//! GET with the Prometheus rendering of the registry (or JSON when the
//! request path contains `json`) — the live equivalent of
//! `msrs batch --metrics-out`.
//!
//! ## Pipelined decode (`--decode-threads`)
//!
//! With `--decode-threads N` (N > 1) a session coalesces every complete
//! request line a pipelining client has already delivered into one
//! *burst*: admission control runs per line in arrival order, the
//! admitted lines are decoded in parallel on an N-thread pool, and the
//! responses are written strictly in request order (shed and parse-error
//! lines interleaved in place). A control line cuts the burst so its
//! effect stays ordered too. `--decode-threads 1` (the default) keeps
//! the line-at-a-time path.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use msrs_telemetry::registry;

use crate::engine::Engine;
use crate::json::Json;
use crate::jsonl::CorpusError;
use crate::report::{RunStatus, SolveReport};
use crate::stream::ServiceCore;

/// How the accept and metrics loops poll for shutdown between
/// non-blocking accepts: long enough to stay invisible in profiles,
/// short enough that shutdown latency is imperceptible.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Configuration of one [`serve`] call.
#[derive(Debug, Clone, Default)]
pub struct ServeConfig {
    /// Bound in-flight (admitted, unanswered) requests across all
    /// sessions; `0` means unlimited. Excess requests are shed with an
    /// `overloaded` line instead of queueing behind a saturated pool.
    pub max_inflight: usize,
    /// Serve the telemetry snapshot over HTTP on this address when set.
    pub metrics_addr: Option<String>,
    /// Close a session (with an `idle_timeout` error line) after this
    /// long without receiving a request; `None` waits forever.
    pub idle_timeout: Option<Duration>,
    /// Close a session (with a `session_limit` error line) after it has
    /// served this many requests; `0` means unlimited.
    pub max_requests_per_session: usize,
    /// Decode pipelined request bursts on this many pool threads per
    /// session; `0` or `1` keeps the sequential line-at-a-time path.
    pub decode_threads: usize,
}

/// Totals of one server lifetime, returned by [`ServerHandle::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Sessions accepted.
    pub sessions: u64,
    /// Request lines answered with a report.
    pub requests: u64,
    /// Request lines shed by admission control.
    pub sheds: u64,
    /// Request lines answered with a parse error.
    pub errors: u64,
    /// Socket writes that carried response bytes, across all sessions.
    pub write_batches: u64,
}

/// State shared by the accept loop, every session thread, and the handle.
struct ServerShared {
    engine: Engine,
    max_inflight: usize,
    idle_timeout: Option<Duration>,
    max_requests_per_session: usize,
    decode_threads: usize,
    shutdown: AtomicBool,
    /// Admitted-but-unanswered requests across all sessions. The
    /// admission CAS runs against this; the `serve_inflight` gauge
    /// mirrors it for snapshots.
    inflight: AtomicUsize,
    /// One clone per **open** session so shutdown can unblock readers
    /// parked in `read_line` (EOF, never a torn line). Each entry is
    /// removed when its session exits — a lingering clone would keep the
    /// socket's write half open and rob the peer of its EOF.
    sessions: Mutex<Vec<(u64, TcpStream)>>,
    session_threads: Mutex<Vec<JoinHandle<()>>>,
    sessions_total: AtomicU64,
    requests_total: AtomicU64,
    sheds_total: AtomicU64,
    errors_total: AtomicU64,
    write_batches_total: AtomicU64,
}

impl ServerShared {
    /// Acquires an in-flight slot unless the bound is reached.
    fn try_admit(&self) -> bool {
        if self.max_inflight == 0 {
            self.inflight.fetch_add(1, Ordering::SeqCst);
            registry().serve_inflight.add(1);
            return true;
        }
        let mut current = self.inflight.load(Ordering::SeqCst);
        loop {
            if current >= self.max_inflight {
                return false;
            }
            match self.inflight.compare_exchange(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    registry().serve_inflight.add(1);
                    return true;
                }
                Err(observed) => current = observed,
            }
        }
    }

    fn release(&self) {
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        registry().serve_inflight.sub(1);
    }

    /// Flips the shutdown flag and unblocks every session reader. The
    /// write halves stay open: in-flight requests still deliver their
    /// responses before the sessions close.
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let sessions = self.sessions.lock().expect("session list lock");
        for (_, stream) in sessions.iter() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

/// A running server: join it with [`wait`](Self::wait), stop it with
/// [`begin_shutdown`](Self::begin_shutdown) (or a `#shutdown` control
/// line from any client).
pub struct ServerHandle {
    shared: Arc<ServerShared>,
    accept_thread: JoinHandle<()>,
    metrics_thread: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
    metrics_local_addr: Option<SocketAddr>,
}

impl ServerHandle {
    /// The address the JSONL listener actually bound (resolves `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound metrics address, when a metrics listener was requested.
    pub fn metrics_local_addr(&self) -> Option<SocketAddr> {
        self.metrics_local_addr
    }

    /// Begins graceful shutdown: stops accepting, unblocks idle session
    /// readers, lets in-flight requests complete and flush. Idempotent.
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until the accept loop and every session have exited and
    /// returns the lifetime totals. Call after
    /// [`begin_shutdown`](Self::begin_shutdown) (or rely on a client's
    /// `#shutdown`).
    pub fn wait(self) -> ServeSummary {
        let _ = self.accept_thread.join();
        loop {
            let handle = self.shared.session_threads.lock().expect("threads").pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        if let Some(metrics) = self.metrics_thread {
            let _ = metrics.join();
        }
        ServeSummary {
            sessions: self.shared.sessions_total.load(Ordering::SeqCst),
            requests: self.shared.requests_total.load(Ordering::SeqCst),
            sheds: self.shared.sheds_total.load(Ordering::SeqCst),
            errors: self.shared.errors_total.load(Ordering::SeqCst),
            write_batches: self.shared.write_batches_total.load(Ordering::SeqCst),
        }
    }
}

/// Binds `addr` and starts serving JSONL sessions on `engine` (one
/// thread per connection, all sharing the engine's result cache and
/// worker pool). Returns once the listener is bound; drive shutdown via
/// the returned handle or a `#shutdown` control line.
pub fn serve(engine: Engine, addr: &str, config: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;
    let shared = Arc::new(ServerShared {
        engine,
        max_inflight: config.max_inflight,
        idle_timeout: config.idle_timeout,
        max_requests_per_session: config.max_requests_per_session,
        decode_threads: config.decode_threads.max(1),
        shutdown: AtomicBool::new(false),
        inflight: AtomicUsize::new(0),
        sessions: Mutex::new(Vec::new()),
        session_threads: Mutex::new(Vec::new()),
        sessions_total: AtomicU64::new(0),
        requests_total: AtomicU64::new(0),
        sheds_total: AtomicU64::new(0),
        errors_total: AtomicU64::new(0),
        write_batches_total: AtomicU64::new(0),
    });
    let (metrics_thread, metrics_local_addr) = match config.metrics_addr.as_deref() {
        Some(addr) => {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            let bound = listener.local_addr()?;
            let shared = Arc::clone(&shared);
            let thread = std::thread::Builder::new()
                .name("msrs-metrics".into())
                .spawn(move || metrics_loop(&listener, &shared))
                .expect("metrics thread spawns");
            (Some(thread), Some(bound))
        }
        None => (None, None),
    };
    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::Builder::new()
        .name("msrs-accept".into())
        .spawn(move || accept_loop(&listener, &accept_shared))
        .expect("accept thread spawns");
    Ok(ServerHandle {
        shared,
        accept_thread,
        metrics_thread,
        local_addr,
        metrics_local_addr,
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Responses leave in flushes at protocol boundaries, each one
                // awaited by the peer: leaving Nagle on would stall a flush
                // behind the peer's delayed ACK.
                let _ = stream.set_nodelay(true);
                let session_id = shared.sessions_total.fetch_add(1, Ordering::SeqCst);
                registry().serve_sessions_total.inc();
                registry().serve_sessions_open.add(1);
                if let Ok(clone) = stream.try_clone() {
                    shared
                        .sessions
                        .lock()
                        .expect("session list lock")
                        .push((session_id, clone));
                }
                let session_shared = Arc::clone(shared);
                let handle = std::thread::Builder::new()
                    .name("msrs-session".into())
                    .spawn(move || {
                        let _ = session_loop(stream, &session_shared);
                        // Deregister so the last handle on the socket drops
                        // with this thread and the peer sees a clean close.
                        session_shared
                            .sessions
                            .lock()
                            .expect("session list lock")
                            .retain(|(id, _)| *id != session_id);
                        registry().serve_sessions_open.sub(1);
                    })
                    .expect("session thread spawns");
                shared
                    .session_threads
                    .lock()
                    .expect("threads lock")
                    .push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Renders one structured error line (including the trailing newline).
fn error_line_bytes(kind: &str, fields: &[(&str, Json)]) -> Vec<u8> {
    let mut obj = vec![("error".to_string(), Json::Str(kind.to_string()))];
    for (k, v) in fields {
        obj.push(((*k).to_string(), v.clone()));
    }
    let mut line = Json::Obj(obj).to_string();
    line.push('\n');
    line.into_bytes()
}

/// Writes one structured error line.
fn write_error_line(out: &mut impl Write, kind: &str, fields: &[(&str, Json)]) -> io::Result<()> {
    out.write_all(&error_line_bytes(kind, fields))
}

/// Renders the in-line answer to a request line that failed to decode.
fn corpus_error_line_bytes(e: &CorpusError) -> Vec<u8> {
    let (kind, line) = match e {
        CorpusError::Json { line, .. } | CorpusError::Malformed { line, .. } => ("parse", *line),
        CorpusError::Io { line, .. } => ("io", *line),
    };
    error_line_bytes(
        kind,
        &[
            ("line", Json::Num(line as i128)),
            ("message", Json::Str(e.to_string())),
        ],
    )
}

/// Counts a served report against the deadline-hit counter when any of
/// its solver runs ran out of budget.
fn count_deadline_hit(report: &SolveReport) {
    if report
        .runs
        .iter()
        .any(|run| run.status == RunStatus::TimedOut)
    {
        registry().serve_deadline_hits_total.inc();
    }
}

/// Runs one session and absorbs peer disconnects: a client that hangs up
/// mid-conversation (`EPIPE`, connection reset) is a clean session end,
/// counted in `msrs_serve_disconnects_total` — never an error bubbling out
/// of the session thread.
fn session_loop(stream: TcpStream, shared: &Arc<ServerShared>) -> io::Result<()> {
    match session_conversation(stream, shared) {
        Err(e) if crate::dispatch::is_disconnect(&e) => {
            registry().serve_disconnects_total.inc();
            Ok(())
        }
        other => other,
    }
}

/// `SO_RCVTIMEO` expiry surfaces as `WouldBlock` on Unix and `TimedOut`
/// on Windows.
fn is_idle_expiry(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A session's socket write half, counting every write that carried
/// bytes (per server and in `msrs_serve_write_batches_total`).
struct CountingStream<'a> {
    stream: TcpStream,
    batches: &'a AtomicU64,
}

impl Write for CountingStream<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.stream.write(buf)?;
        if n > 0 {
            self.batches.fetch_add(1, Ordering::Relaxed);
            registry().serve_write_batches_total.inc();
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// One session's ends: the request reader (idle timeout armed) and the
/// buffered response writer.
fn session_io(
    stream: TcpStream,
    shared: &ServerShared,
) -> io::Result<(BufReader<TcpStream>, BufWriter<CountingStream<'_>>)> {
    let reader_stream = stream.try_clone()?;
    reader_stream.set_read_timeout(shared.idle_timeout)?;
    let out = BufWriter::new(CountingStream {
        stream,
        batches: &shared.write_batches_total,
    });
    Ok((BufReader::new(reader_stream), out))
}

/// Reads the next request line. When the read could block — the reader
/// holds no complete line — the buffered responses are flushed first, so
/// a client never waits on a reply the server is sitting on.
/// `Ok(false)` ends the session: EOF, or an idle-timeout expiry (after
/// writing the `idle_timeout` line).
fn next_line(
    reader: &mut BufReader<TcpStream>,
    out: &mut impl Write,
    shared: &ServerShared,
    line: &mut String,
) -> io::Result<bool> {
    if !reader.buffer().contains(&b'\n') {
        out.flush()?;
    }
    line.clear();
    match reader.read_line(line) {
        Ok(n) => Ok(n > 0),
        Err(e) if is_idle_expiry(&e) => {
            registry().serve_idle_closes_total.inc();
            let idle_ms = shared
                .idle_timeout
                .map(|d| d.as_millis() as i128)
                .unwrap_or(0);
            write_error_line(out, "idle_timeout", &[("idle_ms", Json::Num(idle_ms))])?;
            Ok(false)
        }
        Err(e) => Err(e),
    }
}

/// Runs a `#` control line: `#stats` answers (and flushes) the telemetry
/// snapshot, `#shutdown` begins graceful shutdown, anything else is
/// ignored.
fn run_control(control: &str, out: &mut impl Write, shared: &ServerShared) -> io::Result<()> {
    match control.trim() {
        "stats" => {
            let mut doc = registry().snapshot().to_json_string();
            doc.push('\n');
            out.write_all(doc.as_bytes())?;
            out.flush()
        }
        "shutdown" => {
            shared.begin_shutdown();
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Closes the session with a `session_limit` line once it has served
/// `--max-requests-per-session` requests; `Ok(true)` means closed.
fn session_limit_reached(
    served_requests: usize,
    out: &mut impl Write,
    shared: &ServerShared,
) -> io::Result<bool> {
    let max = shared.max_requests_per_session;
    if max == 0 || served_requests < max {
        return Ok(false);
    }
    registry().serve_limit_closes_total.inc();
    write_error_line(
        out,
        "session_limit",
        &[("max_requests", Json::Num(max as i128))],
    )?;
    Ok(true)
}

/// Counts a shed request and renders its `overloaded` answer.
fn shed_line(shared: &ServerShared) -> Vec<u8> {
    shared.sheds_total.fetch_add(1, Ordering::SeqCst);
    registry().serve_sheds_total.inc();
    error_line_bytes(
        "overloaded",
        &[("max_inflight", Json::Num(shared.max_inflight as i128))],
    )
}

fn session_conversation(stream: TcpStream, shared: &Arc<ServerShared>) -> io::Result<()> {
    if shared.decode_threads > 1 {
        return session_conversation_batched(stream, shared);
    }
    let (mut reader, mut out) = session_io(stream, shared)?;
    let mut core = ServiceCore::new();
    core.begin(1);
    let mut line_buf = String::new();
    let mut line_no = 0usize;
    let mut served_requests = 0usize;
    while next_line(&mut reader, &mut out, shared, &mut line_buf)? {
        line_no += 1;
        let line = line_buf.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(control) = line.strip_prefix('#') {
            run_control(control, &mut out, shared)?;
            continue;
        }
        // ---- Admission control. -------------------------------------------
        if !shared.try_admit() {
            out.write_all(&shed_line(shared))?;
            out.flush()?;
            continue;
        }
        // ---- Serve one request through the core. --------------------------
        let t0 = Instant::now();
        let result = core.admit_line(&shared.engine, line_no, line, t0);
        let admitted = result.is_ok();
        let served = match result {
            Ok(()) => core.flush_with(&shared.engine, |bytes, report| {
                count_deadline_hit(report);
                out.write_all(bytes)
            }),
            Err(e) => {
                shared.errors_total.fetch_add(1, Ordering::SeqCst);
                out.write_all(&corpus_error_line_bytes(&e))
            }
        };
        shared.release();
        served?;
        if admitted {
            shared.requests_total.fetch_add(1, Ordering::SeqCst);
            served_requests += 1;
        }
        if session_limit_reached(served_requests, &mut out, shared)? {
            break;
        }
    }
    out.flush()
}

/// Maximum request lines coalesced into one pipelined burst: bounds the
/// latency of the burst's first response and the per-burst allocations.
const MAX_SERVE_BATCH: usize = 256;

/// One response slot of a burst, in request order.
enum Plan {
    /// Already rendered (shed or parse error) — written in place.
    Immediate(Vec<u8>),
    /// Answered by the next report the core emits.
    Core,
}

/// The `--decode-threads` session path: coalesces every complete request
/// line a pipelining client has already delivered into a burst, decodes
/// the admitted lines in parallel, and answers strictly in request order.
/// Semantics are otherwise identical to the sequential path.
fn session_conversation_batched(stream: TcpStream, shared: &Arc<ServerShared>) -> io::Result<()> {
    let (mut reader, mut out) = session_io(stream, shared)?;
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(shared.decode_threads)
        .build()
        .expect("decode pool builds");
    let mut core = ServiceCore::new();
    core.begin(1);
    let mut line_buf = String::new();
    let mut line_no = 0usize;
    let mut served_requests = 0usize;
    let mut closing = false;
    while !closing && next_line(&mut reader, &mut out, shared, &mut line_buf)? {
        line_no += 1;
        // ---- Coalesce the burst: the line just read plus every complete
        // line already sitting in the read buffer. A control line cuts the
        // burst so its effect stays ordered relative to the responses.
        let mut batch: Vec<(usize, String)> = Vec::new();
        let mut pending_control: Option<String> = None;
        loop {
            let line = line_buf.trim();
            if !line.is_empty() {
                if line.starts_with('#') {
                    pending_control = Some(line.to_string());
                    break;
                }
                batch.push((line_no, line.to_string()));
            }
            if batch.len() >= MAX_SERVE_BATCH || !reader.buffer().contains(&b'\n') {
                break;
            }
            // Only an already-buffered line is read here: this never
            // blocks, so there is nothing to flush first.
            line_buf.clear();
            line_no += 1;
            match reader.read_line(&mut line_buf) {
                Ok(0) => {
                    closing = true;
                    break;
                }
                Ok(_) => {}
                // An expiry cannot happen on buffered bytes — treat it as
                // session end.
                Err(e) if is_idle_expiry(&e) => {
                    closing = true;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        if !batch.is_empty() {
            serve_burst(
                &mut core,
                &pool,
                &mut out,
                shared,
                &batch,
                &mut served_requests,
            )?;
        }
        if let Some(control) = pending_control.as_deref().and_then(|l| l.strip_prefix('#')) {
            run_control(control, &mut out, shared)?;
        }
        if session_limit_reached(served_requests, &mut out, shared)? {
            break;
        }
    }
    out.flush()
}

/// Serves one burst: admission per line in arrival order, parallel decode
/// of the admitted lines, responses written strictly in request order
/// (the N-th line written answers the N-th line of the burst). A burst
/// that shed a request is flushed at its end.
fn serve_burst(
    core: &mut ServiceCore,
    pool: &rayon::ThreadPool,
    out: &mut impl Write,
    shared: &ServerShared,
    batch: &[(usize, String)],
    served_requests: &mut usize,
) -> io::Result<()> {
    let mut plans: Vec<Plan> = Vec::with_capacity(batch.len());
    let mut to_decode: Vec<(usize, &str)> = Vec::new();
    let mut decode_slots: Vec<usize> = Vec::new();
    for (slot, (line_no, line)) in batch.iter().enumerate() {
        if shared.try_admit() {
            to_decode.push((*line_no, line.as_str()));
            decode_slots.push(slot);
            plans.push(Plan::Core);
        } else {
            plans.push(Plan::Immediate(shed_line(shared)));
        }
    }
    let shed = to_decode.len() < batch.len();
    let t0 = Instant::now();
    let decoded = if to_decode.is_empty() {
        Vec::new()
    } else {
        crate::stream::decode_burst(pool, &to_decode, shared.engine.serve_cache_active())
    };
    let mut admitted = 0usize;
    for (&slot, result) in decode_slots.iter().zip(decoded) {
        match result {
            Ok((fp, request)) => {
                core.admit_prepared(&shared.engine, fp, request, t0);
                admitted += 1;
            }
            Err(e) => {
                shared.release();
                shared.errors_total.fetch_add(1, Ordering::SeqCst);
                plans[slot] = Plan::Immediate(corpus_error_line_bytes(&e));
            }
        }
    }
    // Emit: each core report answers the next `Core` slot; `Immediate`
    // lines ahead of it are written first so ordering holds.
    let mut cursor = 0usize;
    let served = core.flush_with(&shared.engine, |bytes, report| {
        while let Some(Plan::Immediate(line)) = plans.get(cursor) {
            out.write_all(line)?;
            cursor += 1;
        }
        count_deadline_hit(report);
        cursor += 1;
        out.write_all(bytes)
    });
    for _ in 0..admitted {
        shared.release();
    }
    served?;
    while cursor < plans.len() {
        if let Plan::Immediate(line) = &plans[cursor] {
            out.write_all(line)?;
        }
        cursor += 1;
    }
    shared
        .requests_total
        .fetch_add(admitted as u64, Ordering::SeqCst);
    *served_requests += admitted;
    if shed {
        out.flush()?;
    }
    Ok(())
}

/// A minimal HTTP/1.1 responder for the metrics listener: every GET gets
/// the Prometheus rendering (JSON when the path mentions `json`),
/// `Connection: close`.
fn metrics_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = serve_metrics_request(&mut stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn serve_metrics_request(stream: &mut TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    // Read just the request head (first line is all we route on).
    let mut head = [0u8; 1024];
    let n = stream.read(&mut head).unwrap_or(0);
    let request_line = std::str::from_utf8(&head[..n])
        .unwrap_or("")
        .lines()
        .next()
        .unwrap_or("");
    let snapshot = registry().snapshot();
    let (content_type, body) = if request_line.contains("json") {
        ("application/json", snapshot.to_json_string())
    } else {
        ("text/plain; version=0.0.4", snapshot.to_prometheus())
    };
    let header = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
