//! The correctness gate: every report line the system under test writes
//! is matched by id to an in-process `Engine::solve_batch` reference with
//! the same configuration, and must be byte-identical once the timing
//! fields (`wall_micros`, everywhere) and the `cache_hit` provenance flag
//! are blanked. Every reference schedule is re-validated against its
//! instance.

use std::collections::HashMap;

use msrs_core::validate;
use msrs_engine::{Engine, EngineConfig, DEFAULT_CACHE_CAPACITY};

use crate::corpus::Corpus;

/// The engine configuration every `msrs` invocation of the benchmark
/// runs with: CLI defaults (result cache on at capacity 1024).
pub fn engine_config(threads: usize) -> EngineConfig {
    EngineConfig {
        threads,
        cache_capacity: DEFAULT_CACHE_CAPACITY,
        ..EngineConfig::default()
    }
}

/// Requests the reference solves per batch.
const REFERENCE_CHUNK: usize = 4096;

/// Blanks the value of every `"wall_micros"` and `"cache_hit"` field of a
/// report line, leaving every other byte in place.
pub fn normalize(line: &[u8]) -> Vec<u8> {
    const KEYS: [&[u8]; 2] = [b"\"wall_micros\":", b"\"cache_hit\":"];
    let mut out = Vec::with_capacity(line.len());
    let mut i = 0;
    while i < line.len() {
        if let Some(key) = KEYS.iter().find(|k| line[i..].starts_with(k)) {
            out.extend_from_slice(key);
            out.push(b'_');
            i += key.len();
            while i < line.len() && !matches!(line[i], b',' | b'}' | b']') {
                i += 1;
            }
        } else {
            out.push(line[i]);
            i += 1;
        }
    }
    out
}

/// The `"id"` of a report line (the benchmark's ids need no escaping).
pub fn line_id(line: &[u8]) -> Option<&[u8]> {
    let rest = line.strip_prefix(b"{\"id\":\"")?;
    let end = rest.iter().position(|&b| b == b'"')?;
    Some(&rest[..end])
}

/// What the reference says about one corpus line.
pub struct Expected {
    pub normalized: Vec<u8>,
    /// The reference schedule re-validated and has the report's makespan.
    pub valid: bool,
    pub makespan: u64,
    pub lower_bound: u64,
    pub proven_optimal: bool,
}

/// The reference for a corpus.
pub struct Reference {
    pub lines: Vec<Expected>,
    by_id: HashMap<Vec<u8>, usize>,
}

impl Reference {
    /// Solves `corpus` in-process with the benchmark's configuration and
    /// re-validates every schedule.
    pub fn solve(corpus: &Corpus) -> Reference {
        let engine = Engine::new(engine_config(2));
        let n = corpus.lines.len();
        let mut by_id = HashMap::with_capacity(n);
        let mut lines = Vec::with_capacity(n);
        let mut buf = Vec::new();
        // In chunks, so only one chunk's instances and schedules are held
        // at a time; the engine's cache carries over, and a cached report
        // equals a fresh one but for the blanked fields.
        for chunk in corpus.lines.chunks(REFERENCE_CHUNK) {
            let requests = crate::corpus::requests(chunk);
            let reports = engine.solve_batch(&requests);
            for (req, report) in requests.iter().zip(reports) {
                let valid = validate(&req.instance, &report.schedule).is_ok()
                    && report.schedule.makespan(&req.instance) == report.makespan;
                report.write_json_line(&mut buf);
                let id = req.id.clone().expect("corpus lines carry ids");
                by_id.insert(id.into_bytes(), lines.len());
                lines.push(Expected {
                    normalized: normalize(&buf),
                    valid,
                    makespan: report.makespan,
                    lower_bound: report.lower_bound,
                    proven_optimal: report.proven_optimal,
                });
            }
        }
        Reference { lines, by_id }
    }

    /// Index of the corpus line with this id.
    pub fn index_of(&self, id: &[u8]) -> Option<usize> {
        self.by_id.get(id).copied()
    }

    /// Mean `(makespan / lower_bound − 1)` over every line, in parts per
    /// million.
    pub fn mean_gap_ppm(&self) -> f64 {
        let sum: f64 = self
            .lines
            .iter()
            .map(|e| {
                if e.lower_bound == 0 {
                    0.0
                } else {
                    e.makespan as f64 / e.lower_bound as f64 - 1.0
                }
            })
            .sum();
        sum / self.lines.len() as f64 * 1e6
    }

    /// Share of lines whose report is `proven_optimal`.
    pub fn proven_optimal_share(&self) -> f64 {
        let n = self.lines.iter().filter(|e| e.proven_optimal).count();
        n as f64 / self.lines.len() as f64
    }
}

/// Outcome of checking one pass of report lines.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checked {
    /// Reports expected.
    pub attempted: usize,
    /// Error lines, unknown ids, mismatches, and expected lines missing.
    pub failed: usize,
    /// Lines whose `cache_hit` is false: fresh solves.
    pub fresh: usize,
}

impl Checked {
    pub fn add(&mut self, other: Checked) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.fresh += other.fresh;
    }
}

/// Checks `got` against the reference for the request lines `sent`
/// (corpus indices, in the order they were sent). A reply that answers
/// the wrong request, differs after normalization, or is missing counts
/// as failed; so does each invalid reference schedule.
pub fn check(reference: &Reference, sent: &[usize], got: &[Vec<u8>]) -> Checked {
    let mut c = Checked {
        attempted: sent.len(),
        failed: sent.len().saturating_sub(got.len()),
        fresh: 0,
    };
    for (i, line) in got.iter().enumerate() {
        let expected = sent.get(i).map(|&idx| &reference.lines[idx]);
        let ok = match (
            expected,
            line_id(line).and_then(|id| reference.index_of(id)),
        ) {
            (Some(e), Some(idx)) => {
                Some(idx) == sent.get(i).copied() && normalize(line) == e.normalized
            }
            _ => false,
        };
        if !ok {
            c.failed += 1;
        }
        if line.windows(17).any(|w| w == b"\"cache_hit\":false") {
            c.fresh += 1;
        }
    }
    c.failed += sent
        .iter()
        .filter(|&&idx| !reference.lines[idx].valid)
        .count();
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &[u8] = br#"{"id":"a-1","jobs":3,"makespan":9,"cache_hit":true,"wall_micros":12,"runs":[{"solver":"five_thirds","status":"completed","makespan":9,"wall_micros":4}]}"#;

    #[test]
    fn normalizer_blanks_timings_and_provenance_only() {
        let n = normalize(LINE);
        assert_eq!(
            n,
            br#"{"id":"a-1","jobs":3,"makespan":9,"cache_hit":_,"wall_micros":_,"runs":[{"solver":"five_thirds","status":"completed","makespan":9,"wall_micros":_}]}"#.to_vec()
        );
        // Timing and provenance differences vanish …
        let other = br#"{"id":"a-1","jobs":3,"makespan":9,"cache_hit":false,"wall_micros":7,"runs":[{"solver":"five_thirds","status":"completed","makespan":9,"wall_micros":31}]}"#;
        assert_eq!(normalize(other), n);
        // … any other difference stays.
        let worse = br#"{"id":"a-1","jobs":3,"makespan":10,"cache_hit":true,"wall_micros":12,"runs":[{"solver":"five_thirds","status":"completed","makespan":9,"wall_micros":4}]}"#;
        assert_ne!(normalize(worse), n);
    }

    #[test]
    fn ids_are_read_from_the_line_head() {
        assert_eq!(line_id(LINE), Some(&b"a-1"[..]));
        assert_eq!(line_id(br#"{"error":"parse","line":3}"#), None);
    }

    #[test]
    fn check_counts_mismatches_missing_and_foreign_lines() {
        let corpus = crate::corpus::traffic(1, 0, 20);
        let reference = Reference::solve(&corpus);
        assert!(reference.lines.iter().all(|e| e.valid));
        let mut buf = Vec::new();
        let lines: Vec<Vec<u8>> = Engine::new(engine_config(1))
            .solve_batch(&crate::corpus::requests(&corpus.lines))
            .iter()
            .map(|r| {
                r.write_json_line(&mut buf);
                buf.clone()
            })
            .collect();
        let sent: Vec<usize> = (0..lines.len()).collect();
        let all = check(&reference, &sent, &lines);
        assert_eq!((all.attempted, all.failed), (20, 0));
        // A missing tail, an error line and a swapped answer all fail.
        assert_eq!(check(&reference, &sent, &lines[..18]).failed, 2);
        let mut bad = lines.clone();
        bad[3] = br#"{"error":"overloaded","max_inflight":1}"#.to_vec();
        bad.swap(5, 15);
        assert_eq!(check(&reference, &sent, &bad).failed, 3);
    }
}
