//! The typed request/report API of the engine.

use msrs_core::{Instance, Schedule, Time};

use crate::json::Json;
use crate::portfolio::SolverKind;

/// A solve request: one instance plus an optional caller-supplied id that is
/// echoed into the report (batch correlation, service tracing).
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// Caller-supplied identifier (echoed verbatim in the report).
    pub id: Option<String>,
    /// The instance to solve.
    pub instance: Instance,
}

impl SolveRequest {
    /// Request without an id.
    pub fn new(instance: Instance) -> Self {
        SolveRequest { id: None, instance }
    }

    /// Request with an id.
    pub fn with_id(id: impl Into<String>, instance: Instance) -> Self {
        SolveRequest {
            id: Some(id.into()),
            instance,
        }
    }
}

/// Terminal status of one portfolio member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// Produced a schedule that re-validated.
    Completed,
    /// Gave up within its budget (exact node budget, EPTAS decision budget).
    Exhausted,
    /// Interrupted by the portfolio deadline: either never started, or
    /// cancelled cooperatively inside its search loop (its `wall_micros`
    /// then reports the true, overshoot-free runtime).
    TimedOut,
    /// Produced output that failed re-validation (defense in depth — never
    /// expected; such output is discarded and reported).
    Invalid(String),
}

impl RunStatus {
    /// Stable machine-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            RunStatus::Completed => "completed",
            RunStatus::Exhausted => "exhausted",
            RunStatus::TimedOut => "timed_out",
            RunStatus::Invalid(_) => "invalid",
        }
    }

    /// Parses a [`label`](Self::label) back; the `invalid` label restores
    /// its diagnostic from `message` (empty when absent).
    pub fn from_label(label: &str, message: Option<&str>) -> Option<Self> {
        Some(match label {
            "completed" => RunStatus::Completed,
            "exhausted" => RunStatus::Exhausted,
            "timed_out" => RunStatus::TimedOut,
            "invalid" => RunStatus::Invalid(message.unwrap_or("").to_string()),
            _ => return None,
        })
    }
}

/// Outcome of one portfolio member.
#[derive(Debug, Clone)]
pub struct SolverRun {
    /// Which solver ran.
    pub solver: SolverKind,
    /// How it ended.
    pub status: RunStatus,
    /// Achieved makespan (when [`RunStatus::Completed`]).
    pub makespan: Option<Time>,
    /// The a-priori certified horizon this run proves for its own schedule:
    /// `⌊(5/3)·T⌋` / `⌊(3/2)·T⌋` for the approximation algorithms, the
    /// optimal makespan for a completed exact run, `None` for heuristics.
    pub certified_horizon: Option<Time>,
    /// Branch-and-bound nodes (exact solver only).
    pub nodes: Option<u64>,
    /// Wall time of this member in microseconds.
    pub wall_micros: u64,
}

/// The engine's answer for one instance.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// Echo of [`SolveRequest::id`].
    pub id: Option<String>,
    /// Number of jobs.
    pub jobs: usize,
    /// Number of machines.
    pub machines: usize,
    /// Number of non-empty classes.
    pub classes: usize,
    /// The certified lower bound `T ≤ OPT`.
    pub lower_bound: Time,
    /// Makespan of the selected schedule.
    pub makespan: Time,
    /// The winning solver (least makespan; ties broken by canonical order).
    pub winner: SolverKind,
    /// The best proven upper bound on the selected makespan:
    /// `min` over completed certifying runs of their certified horizon.
    /// Always `≥ makespan`; equals `makespan` when the exact solver proved
    /// optimality.
    pub certified_horizon: Time,
    /// The solver whose certificate `certified_horizon` is.
    pub certified_by: SolverKind,
    /// Whether optimality was proven: the exact member completed, or the
    /// selected makespan met the lower bound (`T ≤ OPT ≤ makespan = T`).
    pub proven_optimal: bool,
    /// Whether this report was served from the engine's canonical-form
    /// result cache (or an intra-batch dedup fan-out) instead of a fresh
    /// solve. Cached reports are bit-identical to freshly solved ones
    /// except this flag and the `wall_micros` timings.
    pub cache_hit: bool,
    /// Total wall time for this instance in microseconds.
    pub wall_micros: u64,
    /// One entry per planned portfolio member, in canonical order.
    pub runs: Vec<SolverRun>,
    /// The selected schedule (re-validated by the engine before selection).
    pub schedule: Schedule,
}

impl SolveReport {
    /// Empirical ratio of the selected makespan against the lower bound
    /// (an upper bound on the true ratio vs OPT); `1.0` when `T = 0`.
    pub fn ratio_vs_bound(&self) -> f64 {
        if self.lower_bound == 0 {
            1.0
        } else {
            self.makespan as f64 / self.lower_bound as f64
        }
    }

    /// Serializes the report (without the schedule) directly into a byte
    /// buffer — byte-identical to `self.to_json().to_string()`, but with no
    /// intermediate [`Json`] tree or `String`: with a warm reusable buffer
    /// the serialization performs zero heap allocations. This is the emit
    /// primitive of the streaming serve path.
    pub fn write_json_line(&self, out: &mut Vec<u8>) {
        self.write_json_line_as(self.id.as_deref(), self.cache_hit, self.wall_micros, out);
    }

    /// As [`write_json_line`](Self::write_json_line), overriding the
    /// serving-dependent fields: the request id, the `cache_hit` flag, and
    /// the headline `wall_micros`. Used to emit a *cached canonical* report
    /// on behalf of a request without cloning the report (the per-member
    /// `runs` timings are the cached solve's own, exactly as the typed
    /// cache-hit path reports them).
    pub fn write_json_line_as(
        &self,
        id: Option<&str>,
        cache_hit: bool,
        wall_micros: u64,
        out: &mut Vec<u8>,
    ) {
        self.write_object(id, cache_hit, wall_micros, false, out);
    }

    /// Serializes the report for durable storage into `out` (cleared
    /// first): byte-identical to `self.to_store_json().to_string()`, with
    /// no intermediate tree. This is the one writer of the canonical store
    /// payload — cache-store records, `#cachehit` replies and `#cachefill`
    /// offers — and [`read_store_json`](Self::read_store_json) is its one
    /// reader.
    pub fn write_store_json(&self, out: &mut Vec<u8>) {
        self.write_object(
            self.id.as_deref(),
            self.cache_hit,
            self.wall_micros,
            true,
            out,
        );
    }

    /// [`write_store_json`](Self::write_store_json) as an owned string.
    pub fn store_json_string(&self) -> String {
        let mut out = Vec::new();
        self.write_store_json(&mut out);
        String::from_utf8(out).expect("the store writer emits UTF-8")
    }

    /// The wire object, plus the run `error` fields and the `schedule` when
    /// `store` is set.
    fn write_object(
        &self,
        id: Option<&str>,
        cache_hit: bool,
        wall_micros: u64,
        store: bool,
        out: &mut Vec<u8>,
    ) {
        use std::io::Write;
        out.clear();
        // `write!` into a Vec<u8> cannot fail and does not allocate beyond
        // the buffer itself.
        let w = out;
        w.push(b'{');
        if let Some(id) = id {
            w.extend_from_slice(b"\"id\":");
            write_json_str(w, id);
            w.push(b',');
        }
        let _ = write!(
            w,
            "\"jobs\":{},\"machines\":{},\"classes\":{},\"lower_bound\":{},\"makespan\":{}",
            self.jobs, self.machines, self.classes, self.lower_bound, self.makespan
        );
        let _ = write!(w, ",\"winner\":\"{}\"", self.winner.name());
        let _ = write!(w, ",\"certified_horizon\":{}", self.certified_horizon);
        let _ = write!(w, ",\"certified_by\":\"{}\"", self.certified_by.name());
        let _ = write!(
            w,
            ",\"proven_optimal\":{},\"cache_hit\":{cache_hit},\"wall_micros\":{wall_micros}",
            self.proven_optimal
        );
        w.extend_from_slice(b",\"runs\":[");
        for (i, r) in self.runs.iter().enumerate() {
            if i > 0 {
                w.push(b',');
            }
            let _ = write!(
                w,
                "{{\"solver\":\"{}\",\"status\":\"{}\"",
                r.solver.name(),
                r.status.label()
            );
            if let Some(mk) = r.makespan {
                let _ = write!(w, ",\"makespan\":{mk}");
            }
            if let Some(h) = r.certified_horizon {
                let _ = write!(w, ",\"certified_horizon\":{h}");
            }
            if let Some(n) = r.nodes {
                let _ = write!(w, ",\"nodes\":{n}");
            }
            let _ = write!(w, ",\"wall_micros\":{}", r.wall_micros);
            if let (true, RunStatus::Invalid(msg)) = (store, &r.status) {
                w.extend_from_slice(b",\"error\":");
                write_json_str(w, msg);
            }
            w.push(b'}');
        }
        w.push(b']');
        if store {
            w.extend_from_slice(b",\"schedule\":[");
            for (i, a) in self.schedule.assignments().iter().enumerate() {
                if i > 0 {
                    w.push(b',');
                }
                let _ = write!(w, "[{},{}]", a.machine, a.start);
            }
            w.push(b']');
        }
        w.push(b'}');
    }

    /// Parses a [`write_store_json`](Self::write_store_json) payload back
    /// into a typed report, strictly: it accepts exactly the bytes the
    /// writer emits, so `read_store_json(b) == Some(r)` implies
    /// `r.write_store_json()` reproduces `b`. Anything else — other key
    /// order, whitespace, a non-canonical number or escape, an unknown
    /// solver or status, trailing bytes — is `None`, never a panic. It
    /// builds no [`Json`] tree.
    pub fn read_store_json(bytes: &[u8]) -> Option<SolveReport> {
        let mut r = StoreReader { bytes, pos: 0 };
        r.lit(b"{")?;
        let id = if r.lit(b"\"id\":").is_some() {
            let id = r.string()?;
            r.lit(b",")?;
            Some(id)
        } else {
            None
        };
        let jobs = r.field(b"\"jobs\":", StoreReader::usize)?;
        let machines = r.field(b",\"machines\":", StoreReader::usize)?;
        let classes = r.field(b",\"classes\":", StoreReader::usize)?;
        let lower_bound = r.field(b",\"lower_bound\":", StoreReader::u64)?;
        let makespan = r.field(b",\"makespan\":", StoreReader::u64)?;
        let winner = r.field(b",\"winner\":", StoreReader::solver)?;
        let certified_horizon = r.field(b",\"certified_horizon\":", StoreReader::u64)?;
        let certified_by = r.field(b",\"certified_by\":", StoreReader::solver)?;
        let proven_optimal = r.field(b",\"proven_optimal\":", StoreReader::bool)?;
        let cache_hit = r.field(b",\"cache_hit\":", StoreReader::bool)?;
        let wall_micros = r.field(b",\"wall_micros\":", StoreReader::u64)?;
        r.lit(b",\"runs\":")?;
        let runs = r.list(StoreReader::run)?;
        r.lit(b",\"schedule\":")?;
        let assignments = r.list(|r| {
            let machine = r.field(b"[", StoreReader::usize)?;
            let start = r.field(b",", StoreReader::u64)?;
            r.lit(b"]")?;
            Some(msrs_core::Assignment { machine, start })
        })?;
        r.lit(b"}")?;
        if r.pos != bytes.len() {
            return None;
        }
        Some(SolveReport {
            id,
            jobs,
            machines,
            classes,
            lower_bound,
            makespan,
            winner,
            certified_horizon,
            certified_by,
            proven_optimal,
            cache_hit,
            wall_micros,
            runs,
            schedule: Schedule::new(assignments),
        })
    }

    /// Serializes the report (without the schedule) as one JSON object.
    pub fn to_json(&self) -> Json {
        let mut obj = Vec::new();
        if let Some(id) = &self.id {
            obj.push(("id".into(), Json::Str(id.clone())));
        }
        obj.push(("jobs".into(), Json::Num(self.jobs as i128)));
        obj.push(("machines".into(), Json::Num(self.machines as i128)));
        obj.push(("classes".into(), Json::Num(self.classes as i128)));
        obj.push(("lower_bound".into(), Json::Num(self.lower_bound as i128)));
        obj.push(("makespan".into(), Json::Num(self.makespan as i128)));
        obj.push(("winner".into(), Json::Str(self.winner.name().into())));
        obj.push((
            "certified_horizon".into(),
            Json::Num(self.certified_horizon as i128),
        ));
        obj.push((
            "certified_by".into(),
            Json::Str(self.certified_by.name().into()),
        ));
        obj.push(("proven_optimal".into(), Json::Bool(self.proven_optimal)));
        obj.push(("cache_hit".into(), Json::Bool(self.cache_hit)));
        obj.push(("wall_micros".into(), Json::Num(self.wall_micros as i128)));
        let runs = self
            .runs
            .iter()
            .map(|r| {
                let mut run = vec![
                    ("solver".into(), Json::Str(r.solver.name().into())),
                    ("status".into(), Json::Str(r.status.label().into())),
                ];
                if let Some(mk) = r.makespan {
                    run.push(("makespan".into(), Json::Num(mk as i128)));
                }
                if let Some(h) = r.certified_horizon {
                    run.push(("certified_horizon".into(), Json::Num(h as i128)));
                }
                if let Some(n) = r.nodes {
                    run.push(("nodes".into(), Json::Num(n as i128)));
                }
                run.push(("wall_micros".into(), Json::Num(r.wall_micros as i128)));
                Json::Obj(run)
            })
            .collect();
        obj.push(("runs".into(), Json::Arr(runs)));
        Json::Obj(obj)
    }

    /// Serializes the report for durable storage: the [`to_json`](Self::to_json)
    /// wire object *plus* the fields the wire format elides because the
    /// caller already has them — the canonical `schedule` (as
    /// `[[machine, start], …]` pairs in job order) and the diagnostic of any
    /// `invalid` run. The output is canonical: serializing, parsing with
    /// [`from_store_json`](Self::from_store_json), and serializing again is
    /// bit-identical. Its text is exactly the
    /// [`write_store_json`](Self::write_store_json) bytes, which are what
    /// every store hop writes and checksums as stored; this tree form and
    /// its parser are the reference those hops are tested against.
    pub fn to_store_json(&self) -> Json {
        let Json::Obj(mut obj) = self.to_json() else {
            unreachable!("to_json always returns an object")
        };
        if let Some((_, Json::Arr(runs))) = obj.iter_mut().find(|(k, _)| k == "runs") {
            for (run_json, run) in runs.iter_mut().zip(&self.runs) {
                if let (Json::Obj(fields), RunStatus::Invalid(msg)) = (run_json, &run.status) {
                    fields.push(("error".into(), Json::Str(msg.clone())));
                }
            }
        }
        let schedule = self
            .schedule
            .assignments()
            .iter()
            .map(|a| {
                Json::Arr(vec![
                    Json::Num(a.machine as i128),
                    Json::Num(a.start as i128),
                ])
            })
            .collect();
        obj.push(("schedule".into(), Json::Arr(schedule)));
        Json::Obj(obj)
    }

    /// Parses a [`to_store_json`](Self::to_store_json) object back into a
    /// typed report. Returns `None` on any structural mismatch — an unknown
    /// solver or status name, a missing field, a malformed schedule pair —
    /// never panics on foreign input.
    pub fn from_store_json(v: &Json) -> Option<SolveReport> {
        let id = match v.get("id") {
            Some(j) => Some(j.as_str()?.to_string()),
            None => None,
        };
        let as_bool = |key: &str| match v.get(key)? {
            Json::Bool(b) => Some(*b),
            _ => None,
        };
        let runs = v
            .get("runs")?
            .as_arr()?
            .iter()
            .map(|r| {
                let opt_num = |key: &str| match r.get(key) {
                    Some(j) => j.as_u64().map(Some),
                    None => Some(None),
                };
                Some(SolverRun {
                    solver: SolverKind::from_name(r.get("solver")?.as_str()?)?,
                    status: RunStatus::from_label(
                        r.get("status")?.as_str()?,
                        r.get("error").and_then(Json::as_str),
                    )?,
                    makespan: opt_num("makespan")?,
                    certified_horizon: opt_num("certified_horizon")?,
                    nodes: opt_num("nodes")?,
                    wall_micros: r.get("wall_micros")?.as_u64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let assignments = v
            .get("schedule")?
            .as_arr()?
            .iter()
            .map(|pair| {
                let pair = pair.as_arr()?;
                if pair.len() != 2 {
                    return None;
                }
                Some(msrs_core::Assignment {
                    machine: pair[0].as_usize()?,
                    start: pair[1].as_u64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(SolveReport {
            id,
            jobs: v.get("jobs")?.as_usize()?,
            machines: v.get("machines")?.as_usize()?,
            classes: v.get("classes")?.as_usize()?,
            lower_bound: v.get("lower_bound")?.as_u64()?,
            makespan: v.get("makespan")?.as_u64()?,
            winner: SolverKind::from_name(v.get("winner")?.as_str()?)?,
            certified_horizon: v.get("certified_horizon")?.as_u64()?,
            certified_by: SolverKind::from_name(v.get("certified_by")?.as_str()?)?,
            proven_optimal: as_bool("proven_optimal")?,
            cache_hit: as_bool("cache_hit")?,
            wall_micros: v.get("wall_micros")?.as_u64()?,
            runs,
            schedule: Schedule::new(assignments),
        })
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: makespan {} (T = {}, ratio {:.3}, certified ≤ {} by {}{}{}) in {} µs",
            self.id.as_deref().unwrap_or("instance"),
            self.makespan,
            self.lower_bound,
            self.ratio_vs_bound(),
            self.certified_horizon,
            self.certified_by,
            if self.proven_optimal { ", optimal" } else { "" },
            if self.cache_hit { ", cached" } else { "" },
            self.wall_micros,
        )
    }
}

/// JSON string escaping into a byte buffer — delegates to the crate's
/// single escaping routine ([`crate::json`]'s `write_escaped_str`, which
/// also backs [`Json::Str`]'s `Display`), through a no-allocation
/// `fmt::Write` adapter over the `Vec<u8>`.
fn write_json_str(out: &mut Vec<u8>, s: &str) {
    struct BytesWriter<'a>(&'a mut Vec<u8>);
    impl std::fmt::Write for BytesWriter<'_> {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.extend_from_slice(s.as_bytes());
            Ok(())
        }
    }
    crate::json::write_escaped_str(s, &mut BytesWriter(out)).expect("Vec writes are infallible");
}

/// The cursor behind [`SolveReport::read_store_json`]: each method reads
/// one token exactly as the store writer spells it, or fails.
struct StoreReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl StoreReader<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn lit(&mut self, lit: &[u8]) -> Option<()> {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Some(())
        } else {
            None
        }
    }

    /// The literal `key`, then a value read by `value`.
    fn field<T>(&mut self, key: &[u8], value: impl FnOnce(&mut Self) -> Option<T>) -> Option<T> {
        self.lit(key)?;
        value(self)
    }

    /// `[]` or `[item,…,item]`.
    fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        self.lit(b"[")?;
        let mut items = Vec::new();
        if self.lit(b"]").is_some() {
            return Some(items);
        }
        loop {
            items.push(item(self)?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Some(items);
                }
                _ => return None,
            }
        }
    }

    fn u64(&mut self) -> Option<u64> {
        let (value, len) = crate::json::canonical_u64(&self.bytes[self.pos..])?;
        self.pos += len;
        Some(value)
    }

    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    fn bool(&mut self) -> Option<bool> {
        if self.lit(b"true").is_some() {
            Some(true)
        } else {
            self.lit(b"false").map(|()| false)
        }
    }

    /// The unescaped text of a quoted name (a solver or status label).
    fn name(&mut self) -> Option<&str> {
        self.lit(b"\"")?;
        let start = self.pos;
        let len = crate::json::unescaped_run(&self.bytes[start..]);
        self.pos += len;
        self.lit(b"\"")?;
        std::str::from_utf8(&self.bytes[start..start + len]).ok()
    }

    fn solver(&mut self) -> Option<SolverKind> {
        SolverKind::from_name(self.name()?)
    }

    /// A string as `write_escaped_str` spells it: `"`, `\`, `\n`, `\r` and
    /// `\t` by their short escapes, other control characters as lowercase
    /// `\u00xx`, everything else verbatim (and valid UTF-8).
    fn string(&mut self) -> Option<String> {
        self.lit(b"\"")?;
        let mut out = Vec::new();
        loop {
            let run = crate::json::unescaped_run(&self.bytes[self.pos..]);
            let text = &self.bytes[self.pos..self.pos + run];
            if text.iter().any(|&b| b < 0x20) {
                return None;
            }
            out.extend_from_slice(text);
            self.pos += run;
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return String::from_utf8(out).ok();
                }
                _ => {
                    let escape = self.bytes.get(self.pos + 1..)?;
                    let (ch, len) = match escape.first()? {
                        b'"' => (b'"', 2),
                        b'\\' => (b'\\', 2),
                        b'n' => (b'\n', 2),
                        b'r' => (b'\r', 2),
                        b't' => (b'\t', 2),
                        b'u' => {
                            let hex = |b: u8| match b {
                                b'0'..=b'9' => Some(b - b'0'),
                                b'a'..=b'f' => Some(b - b'a' + 10),
                                _ => None,
                            };
                            let code = match escape.get(1..5)? {
                                [b'0', b'0', hi @ (b'0' | b'1'), lo] => {
                                    ((hi - b'0') << 4) | hex(*lo)?
                                }
                                _ => return None,
                            };
                            if matches!(code, b'\n' | b'\r' | b'\t') {
                                return None; // spelled by their short escapes
                            }
                            (code, 6)
                        }
                        _ => return None,
                    };
                    out.push(ch);
                    self.pos += len;
                }
            }
        }
    }

    /// One `runs` entry.
    fn run(&mut self) -> Option<SolverRun> {
        let solver = self.field(b"{\"solver\":", Self::solver)?;
        self.lit(b",\"status\":")?;
        let label = self.name()?;
        let invalid = label == "invalid";
        let status = RunStatus::from_label(label, None)?;
        let mut optional = |key: &[u8]| match self.lit(key) {
            Some(()) => self.u64().map(Some),
            None => Some(None),
        };
        let makespan = optional(b",\"makespan\":")?;
        let certified_horizon = optional(b",\"certified_horizon\":")?;
        let nodes = optional(b",\"nodes\":")?;
        let wall_micros = self.field(b",\"wall_micros\":", Self::u64)?;
        let status = if invalid {
            RunStatus::Invalid(self.field(b",\"error\":", Self::string)?)
        } else {
            status
        };
        self.lit(b"}")?;
        Some(SolverRun {
            solver,
            status,
            makespan,
            certified_horizon,
            nodes,
            wall_micros,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use msrs_core::{Assignment, Schedule};
    use proptest::prelude::*;

    fn sample_report() -> SolveReport {
        SolveReport {
            id: Some("u-1".into()),
            jobs: 4,
            machines: 2,
            classes: 2,
            lower_bound: 10,
            makespan: 12,
            winner: SolverKind::ThreeHalves,
            certified_horizon: 15,
            certified_by: SolverKind::ThreeHalves,
            proven_optimal: false,
            cache_hit: false,
            wall_micros: 42,
            runs: vec![SolverRun {
                solver: SolverKind::ThreeHalves,
                status: RunStatus::Completed,
                makespan: Some(12),
                certified_horizon: Some(15),
                nodes: None,
                wall_micros: 42,
            }],
            schedule: Schedule::new(vec![]),
        }
    }

    #[test]
    fn json_contains_the_headline_fields() {
        let text = sample_report().to_json().to_string();
        for needle in [
            "\"id\":\"u-1\"",
            "\"makespan\":12",
            "\"winner\":\"three_halves\"",
            "\"certified_horizon\":15",
            "\"runs\":[{",
            "\"status\":\"completed\"",
        ] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }

    #[test]
    fn byte_writer_matches_tree_serialization() {
        let mut buf = Vec::new();
        let mut r = sample_report();
        r.runs.push(SolverRun {
            solver: SolverKind::Exact,
            status: RunStatus::Exhausted,
            makespan: None,
            certified_horizon: None,
            nodes: Some(123456),
            wall_micros: 9,
        });
        for id in [Some("plain"), Some("esc \"x\"\\\n\té✓\u{1}"), None] {
            r.id = id.map(str::to_owned);
            r.write_json_line(&mut buf);
            assert_eq!(
                std::str::from_utf8(&buf).unwrap(),
                r.to_json().to_string(),
                "id {id:?}"
            );
        }
        // The override variant matches a tree serialization of the
        // overridden report.
        let mut base = sample_report();
        base.id = None;
        base.write_json_line_as(Some("req-1"), true, 7, &mut buf);
        let mut over = base.clone();
        over.id = Some("req-1".into());
        over.cache_hit = true;
        over.wall_micros = 7;
        assert_eq!(
            std::str::from_utf8(&buf).unwrap(),
            over.to_json().to_string()
        );
    }

    #[test]
    fn store_serialization_round_trips_bit_identically() {
        use msrs_core::Assignment;
        let mut r = sample_report();
        r.runs.push(SolverRun {
            solver: SolverKind::Exact,
            status: RunStatus::Invalid("ghost overlap on machine 1".into()),
            makespan: None,
            certified_horizon: None,
            nodes: Some(77),
            wall_micros: 5,
        });
        r.schedule = Schedule::new(vec![
            Assignment {
                machine: 0,
                start: 0,
            },
            Assignment {
                machine: 1,
                start: 3,
            },
        ]);
        for id in [Some("x"), None] {
            r.id = id.map(str::to_owned);
            let text = r.to_store_json().to_string();
            assert!(text.contains("\"schedule\":[[0,0],[1,3]]"), "{text}");
            assert!(text.contains("\"error\":\"ghost overlap on machine 1\""));
            let back = SolveReport::from_store_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back.to_store_json().to_string(), text, "id {id:?}");
            assert_eq!(back.runs[1].status, r.runs[1].status);
            assert_eq!(back.schedule, r.schedule);
            // The stored report still serves the wire format bit-identically.
            let mut wire = Vec::new();
            back.write_json_line(&mut wire);
            let mut expect = Vec::new();
            r.write_json_line(&mut expect);
            assert_eq!(wire, expect);
        }
        assert!(SolveReport::from_store_json(&Json::parse("{\"jobs\":1}").unwrap()).is_none());
        assert_eq!(RunStatus::from_label("bogus", None), None);
    }

    #[test]
    fn ratio_handles_zero_bound() {
        let mut r = sample_report();
        assert!((r.ratio_vs_bound() - 1.2).abs() < 1e-9);
        r.lower_bound = 0;
        assert_eq!(r.ratio_vs_bound(), 1.0);
    }

    /// The tree oracle for the store payload: parse with [`Json::parse`],
    /// then [`SolveReport::from_store_json`].
    fn read_via_tree(bytes: &[u8]) -> Option<SolveReport> {
        let tree = Json::parse(std::str::from_utf8(bytes).ok()?).ok()?;
        SolveReport::from_store_json(&tree)
    }

    /// Asserts the store writer and the tree serialization agree on `r`,
    /// and that the reader hands `r` back unchanged.
    fn assert_store_codec_round_trips(r: &SolveReport) {
        let bytes = r.store_json_string();
        assert_eq!(bytes, r.to_store_json().to_string());
        let back = SolveReport::read_store_json(bytes.as_bytes()).expect("writer output reads");
        // The store form carries every field, so equal bytes mean an equal report.
        assert_eq!(back.store_json_string(), bytes);
    }

    #[test]
    fn store_writer_matches_the_tree_on_edge_cases() {
        let mut r = sample_report();
        r.runs.push(SolverRun {
            solver: SolverKind::Exact,
            status: RunStatus::Invalid("q\"b\\s/\n\r\t\u{0}\u{1f}\u{7f} é😀".into()),
            makespan: None,
            certified_horizon: None,
            nodes: Some(u64::MAX),
            wall_micros: 0,
        });
        r.runs.push(SolverRun {
            solver: SolverKind::Eptas,
            status: RunStatus::Invalid(String::new()),
            makespan: Some(0),
            certified_horizon: Some(u64::MAX),
            nodes: None,
            wall_micros: 1,
        });
        for id in [Some("u-1"), Some("\"\\\u{8}\u{c}✓"), Some(""), None] {
            r.id = id.map(str::to_owned);
            for schedule in [
                vec![],
                vec![
                    Assignment {
                        machine: 0,
                        start: 0,
                    },
                    Assignment {
                        machine: 7,
                        start: u64::MAX,
                    },
                ],
            ] {
                r.schedule = Schedule::new(schedule);
                assert_store_codec_round_trips(&r);
            }
        }
        r.runs.clear();
        assert_store_codec_round_trips(&r);
    }

    #[test]
    fn store_reader_rejects_what_the_writer_never_emits() {
        let mut r = sample_report();
        r.runs[0].status = RunStatus::Invalid("x".into());
        r.schedule = Schedule::new(vec![Assignment {
            machine: 1,
            start: 10,
        }]);
        let good = r.store_json_string();
        assert!(SolveReport::read_store_json(good.as_bytes()).is_some());
        for (from, to) in [
            ("{\"id\"", "{ \"id\""),                                    // whitespace
            ("\"jobs\":4,\"machines\":2", "\"machines\":2,\"jobs\":4"), // key order
            ("\"jobs\":4", "\"jobs\":04"),                              // leading zero
            ("\"jobs\":4", "\"jobs\":-4"),                              // sign
            ("\"jobs\":4", "\"jobs\":4.0"),                             // fraction
            ("\"u-1\"", "\"u\\u002d1\""),                               // needless \u escape
            ("\"u-1\"", "\"u\\/1\""),                                   // `\/` escape
            ("\"error\":\"x\"", "\"error\":\"\\u000a\""),               // \u for \n
            ("\"error\":\"x\"", "\"error\":\"\\u001F\""),               // uppercase hex
            ("\"error\":\"x\"", "\"error\":\"\n\""),                    // raw control character
            (",\"error\":\"x\"", ""),                                   // invalid run without error
            ("\"status\":\"invalid\"", "\"status\":\"completed\""),     // error on a completed run
            (
                "\"three_halves\",\"certified_horizon\"",
                "\"3/2\",\"certified_horizon\"",
            ),
            ("\"proven_optimal\":false", "\"proven_optimal\":0"),
            ("[[1,10]]", "[[1,10,0]]"),
            ("[[1,10]]", "[[1,10],]"),
            ("[[1,10]]", "[[1,18446744073709551616]]"), // u64 overflow
        ] {
            assert!(good.contains(from), "{from}");
            let bad = good.replacen(from, to, 1);
            assert!(
                SolveReport::read_store_json(bad.as_bytes()).is_none(),
                "{bad}"
            );
        }
        for bad in [
            &good[..good.len() - 1],
            &format!("{good} "),
            &format!("{good}}}"),
            "",
        ] {
            assert!(
                SolveReport::read_store_json(bad.as_bytes()).is_none(),
                "{bad}"
            );
        }
        assert!(SolveReport::read_store_json(b"{\"id\":\"\xff\",").is_none());
    }

    /// Pieces of text the generated ids and error messages are made of:
    /// every character the writer escapes, plus multi-byte UTF-8.
    const TEXT: &[&str] = &[
        "a", "Z", "7", " ", "\"", "\\", "/", "\n", "\r", "\t", "\u{0}", "\u{1f}", "\u{7f}", "é",
        "✓", "😀", "{", "}", ",", ":", "u0041",
    ];

    fn arb_text() -> impl Strategy<Value = String> {
        prop::collection::vec(prop::sample::select(TEXT.to_vec()), 0..10)
            .prop_map(|parts| parts.concat())
    }

    /// Small numbers, full-range numbers and the extremes.
    fn arb_num() -> impl Strategy<Value = u64> {
        (0u8..4, any::<u64>()).prop_map(|(k, v)| match k {
            0 => v % 10,
            1 => v % 100_000,
            2 => v,
            _ => [0, u64::MAX][(v & 1) as usize],
        })
    }

    fn arb_opt_num() -> impl Strategy<Value = Option<u64>> {
        (any::<bool>(), arb_num()).prop_map(|(some, n)| some.then_some(n))
    }

    const SOLVERS: [SolverKind; 7] = [
        SolverKind::FiveThirds,
        SolverKind::ThreeHalves,
        SolverKind::HebrardGreedy,
        SolverKind::ListScheduler,
        SolverKind::MergedLpt,
        SolverKind::Exact,
        SolverKind::Eptas,
    ];

    fn arb_run() -> impl Strategy<Value = SolverRun> {
        (
            0usize..SOLVERS.len(),
            0u8..4,
            arb_text(),
            arb_opt_num(),
            arb_opt_num(),
            arb_opt_num(),
            arb_num(),
        )
            .prop_map(
                |(solver, status, msg, makespan, certified_horizon, nodes, wall)| SolverRun {
                    solver: SOLVERS[solver],
                    status: match status {
                        0 => RunStatus::Completed,
                        1 => RunStatus::Exhausted,
                        2 => RunStatus::TimedOut,
                        _ => RunStatus::Invalid(msg),
                    },
                    makespan,
                    certified_horizon,
                    nodes,
                    wall_micros: wall,
                },
            )
    }

    /// Arbitrary store reports: any id (or none), any numbers, runs of
    /// every status (invalid ones with arbitrary diagnostics) and
    /// schedules from empty up.
    pub(crate) fn arb_report() -> impl Strategy<Value = SolveReport> {
        (
            (any::<bool>(), arb_text()),
            (
                arb_num(),
                arb_num(),
                arb_num(),
                arb_num(),
                arb_num(),
                arb_num(),
                arb_num(),
            ),
            (0usize..SOLVERS.len(), 0usize..SOLVERS.len()),
            (any::<bool>(), any::<bool>()),
            prop::collection::vec(arb_run(), 0..4),
            prop::collection::vec((arb_num(), arb_num()), 0..6),
        )
            .prop_map(
                |(id, nums, (winner, certified_by), flags, runs, schedule)| SolveReport {
                    id: id.0.then_some(id.1),
                    jobs: nums.0 as usize,
                    machines: nums.1 as usize,
                    classes: nums.2 as usize,
                    lower_bound: nums.3,
                    makespan: nums.4,
                    winner: SOLVERS[winner],
                    certified_horizon: nums.5,
                    certified_by: SOLVERS[certified_by],
                    proven_optimal: flags.0,
                    cache_hit: flags.1,
                    wall_micros: nums.6,
                    runs,
                    schedule: Schedule::new(
                        schedule
                            .into_iter()
                            .map(|(machine, start)| Assignment {
                                machine: machine as usize,
                                start,
                            })
                            .collect(),
                    ),
                },
            )
    }

    /// Bytes a mutation splices in: structure, escapes, digits, and the
    /// lead and continuation bytes of multi-byte UTF-8.
    const SPLICE: &[u8] =
        b"\"\\{}[],:0123456789-.eEtrufalsn u/\n\x00\x1f\x7f\x80\xbf\xc3\xe2\xf0\xff";

    /// Applies `edits` to `bytes`: each `(op, at, byte)` substitutes,
    /// inserts or deletes one byte at `at % len`. The byte is drawn from
    /// [`SPLICE`] or is arbitrary.
    pub(crate) fn mutate(bytes: &[u8], edits: &[(u8, usize, u8)]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        for &(op, at, byte) in edits {
            let byte = if byte & 1 == 0 {
                SPLICE[usize::from(byte >> 1) % SPLICE.len()]
            } else {
                byte
            };
            let at = at % (out.len() + 1);
            match op % 3 {
                0 if at < out.len() => out[at] = byte,
                1 => out.insert(at, byte),
                _ if at < out.len() => {
                    out.remove(at);
                }
                _ => out.push(byte),
            }
        }
        out
    }

    /// The reader's contract on any input: no panic; a report only when the
    /// writer reproduces the input byte for byte; exactly the reports the
    /// tree oracle finds whose canonical bytes are the input.
    fn assert_reader_is_strict(bytes: &[u8]) {
        let fast = SolveReport::read_store_json(bytes);
        if let Some(r) = &fast {
            assert_eq!(r.store_json_string().as_bytes(), bytes);
        }
        let canonical_tree =
            read_via_tree(bytes).filter(|r| r.store_json_string().as_bytes() == bytes);
        assert_eq!(
            fast.is_some(),
            canonical_tree.is_some(),
            "{}",
            String::from_utf8_lossy(bytes)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The writer is the tree serialization, and the reader inverts it.
        #[test]
        fn store_writer_matches_the_tree_and_the_reader_inverts_it(r in arb_report()) {
            assert_store_codec_round_trips(&r);
        }

        /// Mutated payloads (what a corrupt record, `#cachehit` reply or
        /// `#cachefill` offer carries) never yield a report the writer
        /// would not spell exactly so.
        #[test]
        fn store_reader_is_strict_on_mutated_payloads(
            r in arb_report(),
            edits in prop::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 1..4),
        ) {
            let bytes = r.store_json_string().into_bytes();
            assert_reader_is_strict(&mutate(&bytes, &edits));
            let (at, byte) = (edits[0].1 % bytes.len(), edits[0].2);
            let mut flipped = bytes.clone();
            flipped[at] = byte;
            if flipped != bytes {
                assert_reader_is_strict(&flipped);
            }
        }

        /// Arbitrary bytes never panic the reader.
        #[test]
        fn store_reader_survives_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..64),
            prefix in any::<bool>(),
        ) {
            let mut input = if prefix { b"{\"jobs\":1,".to_vec() } else { Vec::new() };
            input.extend_from_slice(&bytes);
            assert_reader_is_strict(&input);
        }
    }
}
