//! Structured output: the metadata header, one record per trial (after
//! the artifact check-list and evidence-record shapes in SNIPPETS.md) and
//! the final result line.

use std::fmt::Write as _;
use std::time::{SystemTime, UNIX_EPOCH};

/// Named metrics with units, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The value of `name` (NaN when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, ..)| n == name)
            .map_or(f64::NAN, |e| e.1)
    }

    /// `{"name":{"value":v,"unit":"u"},…}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(name),
                number(*value),
                quote(unit)
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number; non-finite values (never expected) become `null`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One trial: a workload × phase × repetition with every metric it
/// measured.
pub fn trial(workload: &str, phase: &str, rep: usize, metrics: &Metrics) -> String {
    format!(
        "{{\"record\":\"trial\",\"workload\":{},\"phase\":{},\"rep\":{rep},\"metrics\":{}}}",
        quote(workload),
        quote(phase),
        metrics.to_json()
    )
}

/// What the header records about the machine and the run.
pub struct Header<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub started_unix_s: u64,
    pub suite_s: f64,
}

impl Header<'_> {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"record\":\"header\",\"benchmark\":\"perfbench\",\"workload\":{},\"seed\":{},\
             \"seconds\":{},\"trace\":{},\"cpu_model\":{},\"nproc\":{},\"rustc\":{},\
             \"git_commit\":{},\"start_utc\":{},\"suite_s\":{}}}",
            quote(self.workload),
            self.seed,
            self.seconds,
            self.trace,
            quote(&cpu_model()),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            quote(&std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into())),
            quote(&git_commit()),
            quote(&utc(self.started_unix_s)),
            number(self.suite_s),
        )
    }
}

pub fn unix_now_s() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out, read from `.git` without running git; a
/// checkout without one (an exported tree) reads "unknown".
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(String::from)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `YYYY-MM-DDTHH:MM:SSZ` for Unix seconds (civil-from-days).
fn utc(unix_s: u64) -> String {
    let days = (unix_s / 86_400) as i64;
    let secs = unix_s % 86_400;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        secs / 3600,
        secs / 60 % 60,
        secs % 60
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_dates() {
        assert_eq!(utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(utc(1_792_202_977), "2026-10-17T02:09:37Z");
    }

    #[test]
    fn metrics_render_as_json() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.25, "ms");
        m.put("a\"b", 3.0, "count");
        assert_eq!(
            m.to_json(),
            r#"{"latency_ms":{"value":1.25,"unit":"ms"},"a\"b":{"value":3,"unit":"count"}}"#
        );
    }
}
