//! Drives the real `msrs` binary from outside: `batch` and `dispatch`
//! passes over corpus files, and `serve` processes reached over TCP.
//! Every child is waited for; a child still running when its handle is
//! dropped is killed first.

use std::cell::Cell;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

use msrs_engine::json::Json;

/// How often a running `batch` or `dispatch` has its memory sampled.
const MEMORY_POLL: Duration = Duration::from_millis(5);

/// The `msrs` binary under test.
pub struct Sut {
    pub bin: PathBuf,
    /// `bin` with every link resolved, as `/proc/<pid>/exe` names it.
    pub exe: PathBuf,
    /// Where child stderr goes.
    pub work: PathBuf,
    pub peak_kib: Cell<u64>,
}

/// Kills and reaps a child that is still running when dropped.
struct Guard(Option<Child>);

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Sut {
    /// Runs `msrs <args>` to completion, sampling its memory while it
    /// runs; returns its wall time from spawn to exit.
    fn run(&self, what: &str, args: &[&str]) -> io::Result<Duration> {
        let err_path = self.work.join("stderr.txt");
        let started = Instant::now();
        let child = Command::new(&self.bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(&err_path)?)
            .spawn()?;
        let mut guard = Guard(Some(child));
        let child = guard.0.as_mut().expect("just spawned");
        let status = loop {
            self.note_memory(tree_kib(child.id(), &self.exe));
            if let Some(status) = child.try_wait()? {
                break status;
            }
            std::thread::sleep(MEMORY_POLL);
        };
        let wall = started.elapsed();
        guard.0 = None;
        if !status.success() {
            let stderr = std::fs::read_to_string(&err_path).unwrap_or_default();
            return Err(io::Error::other(format!(
                "{what} exited with {status}: {}",
                stderr.trim()
            )));
        }
        Ok(wall)
    }

    fn note_memory(&self, kib: u64) {
        self.peak_kib.set(self.peak_kib.get().max(kib));
    }

    /// Peak resident memory, in MiB, of the largest system-under-test
    /// process seen so far.
    pub fn peak_rss_mb(&self) -> f64 {
        self.peak_kib.get() as f64 / 1024.0
    }

    /// `msrs batch --threads 2`, file in and file out; returns its wall
    /// time from spawn to exit.
    pub fn batch(&self, input: &Path, out: &Path, metrics: &Path) -> io::Result<Duration> {
        self.run(
            "msrs batch",
            &[
                "batch",
                "--input",
                path_str(input)?,
                "--out",
                path_str(out)?,
                "--threads",
                "2",
                "--quiet",
                "--metrics-out",
                path_str(metrics)?,
            ],
        )
    }

    /// `msrs dispatch --workers 2 --threads 1`, optionally with a durable
    /// cache store and a checkpoint journal.
    pub fn dispatch(
        &self,
        input: &Path,
        out: &Path,
        metrics: &Path,
        store: Option<&Path>,
        checkpoint: Option<&Path>,
    ) -> io::Result<Duration> {
        let mut args = vec![
            "dispatch",
            "--input",
            path_str(input)?,
            "--out",
            path_str(out)?,
            "--workers",
            "2",
            "--threads",
            "1",
            "--quiet",
            "--metrics-out",
            path_str(metrics)?,
        ];
        if let Some(store) = store {
            args.extend(["--cache-path", path_str(store)?]);
        }
        if let Some(checkpoint) = checkpoint {
            args.extend(["--checkpoint", path_str(checkpoint)?]);
        }
        self.run("msrs dispatch", &args)
    }

    /// Spawns `msrs serve --threads 2` on a free loopback port and waits
    /// for its first `#stats` reply. Returns the server and the set-up
    /// time: spawn to that reply (including any `--cache-path` warm load).
    pub fn serve(&self, store: Option<&Path>) -> io::Result<(Server, Duration)> {
        let started = Instant::now();
        let mut cmd = Command::new(&self.bin);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"]);
        if let Some(store) = store {
            cmd.args(["--cache-path", path_str(store)?]);
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut server = Server {
            child: Guard(Some(child)),
            addr: None,
            stderr: None,
        };
        let stderr = server.child.0.as_mut().and_then(|c| c.stderr.take());
        let mut stderr = BufReader::new(stderr.ok_or_else(|| io::Error::other("no stderr pipe"))?);
        let mut line = String::new();
        while server.addr.is_none() {
            line.clear();
            if stderr.read_line(&mut line)? == 0 {
                return Err(io::Error::other("msrs serve exited before listening"));
            }
            if let Some(addr) = line.trim().strip_prefix("serve: listening on ") {
                // The accept loop polls every 10 ms and made its first,
                // empty poll right after binding; connecting a moment
                // after the announcement lands the first request on the
                // next poll every time instead of racing the first one.
                std::thread::sleep(Duration::from_millis(1));
                server.addr =
                    Some(addr.parse().map_err(|e| {
                        io::Error::other(format!("bad listen address {addr}: {e}"))
                    })?);
            }
        }
        server.stderr = Some(stderr);
        server.stats()?;
        Ok((server, started.elapsed()))
    }
}

fn path_str(p: &Path) -> io::Result<&str> {
    p.to_str()
        .ok_or_else(|| io::Error::other(format!("non-UTF-8 path {}", p.display())))
}

/// A running `msrs serve`.
pub struct Server {
    child: Guard,
    addr: Option<SocketAddr>,
    /// Kept open so the server never sees a closed stderr.
    stderr: Option<BufReader<ChildStderr>>,
}

impl Server {
    pub fn addr(&self) -> SocketAddr {
        self.addr.expect("set before the server is handed out")
    }

    /// Opens a request connection with Nagle's algorithm off.
    pub fn connect(&self) -> io::Result<TcpStream> {
        let stream = TcpStream::connect(self.addr())?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// One `#stats` round trip on a fresh connection: the telemetry
    /// snapshot.
    pub fn stats(&self) -> io::Result<Json> {
        let mut stream = self.connect()?;
        stream.write_all(b"#stats\n")?;
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line)?;
        Json::parse(line.trim()).map_err(|e| io::Error::other(format!("bad #stats reply: {e}")))
    }

    /// Notes the server's peak resident memory, sends `#shutdown` and
    /// waits for the process to exit cleanly.
    pub fn shutdown(mut self, sut: &Sut) -> io::Result<()> {
        if let Some(child) = &self.child.0 {
            sut.note_memory(tree_kib(child.id(), &sut.exe));
        }
        let mut stream = self.connect()?;
        stream.write_all(b"#shutdown\n")?;
        let mut rest = Vec::new();
        let _ = stream.read_to_end(&mut rest);
        let mut child = self.child.0.take().expect("a live server owns its child");
        let status = child.wait()?;
        if let Some(mut stderr) = self.stderr.take() {
            let _ = stderr.read_to_end(&mut rest);
        }
        if !status.success() {
            return Err(io::Error::other(format!("msrs serve exited with {status}")));
        }
        Ok(())
    }
}

/// A counter of a `--metrics-out` / `#stats` snapshot (0 when absent).
pub fn counter(snapshot: &Json, name: &str) -> u64 {
    snapshot
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Reads a `--metrics-out` JSON snapshot.
pub fn read_snapshot(path: &Path) -> io::Result<Json> {
    let text = std::fs::read_to_string(path)?;
    Json::parse(text.trim()).map_err(|e| io::Error::other(format!("bad snapshot: {e}")))
}

/// A `/proc/<pid>/status` field in KiB (`VmHWM`, `VmRSS`), or `None`
/// once the process is gone.
fn status_kib(pid: u32, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// `pid` and its descendants.
fn process_tree(pid: u32) -> Vec<u32> {
    let mut tree = vec![pid];
    let mut i = 0;
    while i < tree.len() {
        let p = tree[i];
        if let Ok(children) = std::fs::read_to_string(format!("/proc/{p}/task/{p}/children")) {
            tree.extend(
                children
                    .split_whitespace()
                    .filter_map(|c| c.parse::<u32>().ok()),
            );
        }
        i += 1;
    }
    tree
}

/// The highest peak RSS (`VmHWM`) of any `exe` process in the tree under
/// `pid`, in KiB. Peak RSS from `getrusage` would not do: a child's count
/// starts from the resident set of the process that forked it. For the
/// same reason a process still between fork and exec (not yet `exe`) is
/// skipped: it reads its parent's resident set.
fn tree_kib(pid: u32, exe: &Path) -> u64 {
    process_tree(pid)
        .iter()
        .filter(|&&p| std::fs::read_link(format!("/proc/{p}/exe")).is_ok_and(|e| e == exe))
        .filter_map(|&p| status_kib(p, "VmHWM"))
        .max()
        .unwrap_or(0)
}
