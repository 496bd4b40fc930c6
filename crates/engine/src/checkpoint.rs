//! Append-only checkpoint journal for `msrs dispatch`.
//!
//! The dispatch coordinator journals one record per *emitted* shard so a
//! crashed or interrupted run can resume from the last completed shard and
//! still produce a report stream bit-identical to an uninterrupted run.
//!
//! ```text
//! {"checkpoint":"msrs-dispatch","version":2,"config_fp":…,"shard_size":…}
//! {"shard":0,"sum":…,"record":{"lines":…,"shard_fp":…,"out_bytes":…,…}}
//! ```
//!
//! The file is a journal (`journal.rs`, shared with the cache store) keyed
//! by the engine's content-relevant configuration fingerprint and the
//! shard size; a resume refuses a journal with another key. Records follow
//! in shard order, each checksummed over its shard index, the config
//! fingerprint and its canonical `record` object, so a flipped bit can
//! never make a resume trust a wrong output length. Every append is
//! `fsync`'d, after the *output* file — so a record always describes bytes
//! that are really on disk.
//!
//! A crash mid-append leaves at most one torn final line, which
//! [`CheckpointLog::open`] drops and truncates away before the next append
//! (the shard it described is simply redone); a final record that fails
//! verification is dropped the same way. A rejected record *before* the
//! last line means damage other than an interrupted append, and the open
//! fails with `InvalidData` instead of guessing.
//!
//! All numbers are integers (the crate's JSON layer is integer-exact by
//! design); the two floating-point stats fields travel as IEEE-754 bit
//! patterns, so merging checkpointed stats into a resumed run's summary is
//! bits-exact.

use std::io;
use std::path::Path;

use crate::journal::{self, Journal, Kind};
use crate::json::Json;
use crate::stream::StreamStats;

/// Magic string identifying a dispatch checkpoint journal.
pub const CHECKPOINT_MAGIC: &str = "msrs-dispatch";
/// Journal format version; bumped on incompatible record changes (2 added
/// the record checksum).
pub const CHECKPOINT_VERSION: u64 = 2;

const KIND: Kind = Kind {
    key: "checkpoint",
    magic: CHECKPOINT_MAGIC,
    version: CHECKPOINT_VERSION,
};

/// The journal header: what run this checkpoint belongs to. A resume
/// refuses to reuse a journal whose configuration fingerprint or shard
/// size differs — either would change shard boundaries or report content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// [`crate::EngineConfig::content_fingerprint`] of the dispatching
    /// engine configuration.
    pub config_fp: u64,
    /// Shard size the corpus is split with.
    pub shard_size: usize,
}

/// Per-shard summary stats as they travel on the worker wire protocol and
/// in checkpoint records. Mirrors the summing fields of [`StreamStats`];
/// the two `f64` ratio fields are carried as bit patterns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Reports emitted for the shard.
    pub instances: u64,
    /// Reports with a proven-optimal schedule.
    pub proven_optimal: u64,
    /// Lines served from the worker's result cache or in-shard dedup.
    pub fast_path_hits: u64,
    /// Materialized-request high-water mark inside the worker.
    pub max_resident: u64,
    /// `StreamStats::ratio_sum` as IEEE-754 bits.
    pub ratio_sum_bits: u64,
    /// `StreamStats::ratio_worst` as IEEE-754 bits.
    pub ratio_worst_bits: u64,
    /// Input parse/decode time, µs.
    pub parse_micros: u64,
    /// Canonicalize + cache-probe time, µs.
    pub canon_micros: u64,
    /// Solver time, µs.
    pub solve_micros: u64,
    /// Report serialization time, µs.
    pub serialize_micros: u64,
}

impl ShardStats {
    /// Captures the summing fields of a finished per-shard stream run.
    pub fn from_stream(stats: &StreamStats) -> Self {
        ShardStats {
            instances: stats.instances as u64,
            proven_optimal: stats.proven_optimal as u64,
            fast_path_hits: stats.fast_path_hits as u64,
            max_resident: stats.max_resident as u64,
            ratio_sum_bits: stats.ratio_sum.to_bits(),
            ratio_worst_bits: stats.ratio_worst.to_bits(),
            parse_micros: stats.parse_micros,
            canon_micros: stats.canon_micros,
            solve_micros: stats.solve_micros,
            serialize_micros: stats.serialize_micros,
        }
    }

    /// Adds this shard's contribution into a merged run summary.
    /// (`shards` itself is counted by the caller, which also owns the
    /// wall-clock split.)
    pub fn merge_into(&self, total: &mut StreamStats) {
        total.instances += self.instances as usize;
        total.proven_optimal += self.proven_optimal as usize;
        total.fast_path_hits += self.fast_path_hits as usize;
        total.max_resident = total.max_resident.max(self.max_resident as usize);
        total.ratio_sum += f64::from_bits(self.ratio_sum_bits);
        total.ratio_worst = total.ratio_worst.max(f64::from_bits(self.ratio_worst_bits));
        total.parse_micros += self.parse_micros;
        total.canon_micros += self.canon_micros;
        total.solve_micros += self.solve_micros;
        total.serialize_micros += self.serialize_micros;
    }

    /// The stats fields as JSON object members (spliced into wire `#done`
    /// payloads and checkpoint records).
    pub fn to_json_fields(&self) -> Vec<(String, Json)> {
        let n = |v: u64| Json::Num(v as i128);
        vec![
            ("instances".into(), n(self.instances)),
            ("proven_optimal".into(), n(self.proven_optimal)),
            ("fast_path_hits".into(), n(self.fast_path_hits)),
            ("max_resident".into(), n(self.max_resident)),
            ("ratio_sum_bits".into(), n(self.ratio_sum_bits)),
            ("ratio_worst_bits".into(), n(self.ratio_worst_bits)),
            ("parse_micros".into(), n(self.parse_micros)),
            ("canon_micros".into(), n(self.canon_micros)),
            ("solve_micros".into(), n(self.solve_micros)),
            ("serialize_micros".into(), n(self.serialize_micros)),
        ]
    }

    /// Reads the stats fields back out of a JSON object.
    pub fn from_json(v: &Json) -> Option<Self> {
        let f = |key: &str| v.get(key)?.as_u64();
        Some(ShardStats {
            instances: f("instances")?,
            proven_optimal: f("proven_optimal")?,
            fast_path_hits: f("fast_path_hits")?,
            max_resident: f("max_resident")?,
            ratio_sum_bits: f("ratio_sum_bits")?,
            ratio_worst_bits: f("ratio_worst_bits")?,
            parse_micros: f("parse_micros")?,
            canon_micros: f("canon_micros")?,
            solve_micros: f("solve_micros")?,
            serialize_micros: f("serialize_micros")?,
        })
    }
}

/// One durable shard-completion record. Records are appended in shard
/// order (the coordinator only journals the contiguous completed prefix),
/// so `out_bytes` of the last record is the exact length of the output
/// file a resume may trust.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRecord {
    /// 0-based shard index.
    pub shard: usize,
    /// Meaningful corpus lines in the shard.
    pub lines: usize,
    /// FNV-1a fingerprint of the shard's raw line text (each line plus a
    /// `\n`), for detecting a changed corpus on resume.
    pub shard_fp: u64,
    /// Output-file length in bytes after this shard's reports.
    pub out_bytes: u64,
    /// Attempts it took to complete the shard (1 = first try).
    pub attempts: u32,
    /// True when the shard exhausted its retry budget and a structured
    /// error record was emitted in place of its reports.
    pub quarantined: bool,
    /// The shard's summary stats (zeroed for quarantined shards).
    pub stats: ShardStats,
}

impl ShardRecord {
    fn to_line(self, config_fp: u64) -> String {
        let mut fields = vec![
            ("lines".into(), Json::Num(self.lines as i128)),
            ("shard_fp".into(), Json::Num(self.shard_fp as i128)),
            ("out_bytes".into(), Json::Num(self.out_bytes as i128)),
            ("attempts".into(), Json::Num(self.attempts as i128)),
            ("quarantined".into(), Json::Bool(self.quarantined)),
        ];
        fields.extend(self.stats.to_json_fields());
        let payload = Json::Obj(fields).to_string();
        let key = self.shard.to_string();
        let sum = journal::checksum(key.as_bytes(), config_fp, payload.as_bytes());
        format!("{{\"shard\":{key},\"sum\":{sum},\"record\":{payload}}}")
    }

    /// Parses and verifies one record line; `None` when it is corrupt.
    fn from_line(line: &[u8], config_fp: u64) -> Option<Self> {
        let v = Json::parse(std::str::from_utf8(line).ok()?).ok()?;
        let shard = v.get("shard")?.as_usize()?;
        let record = v.get("record")?;
        let payload = record.to_string();
        let sum = journal::checksum(shard.to_string().as_bytes(), config_fp, payload.as_bytes());
        if sum != v.get("sum")?.as_u64()? {
            return None;
        }
        Some(ShardRecord {
            shard,
            lines: record.get("lines")?.as_usize()?,
            shard_fp: record.get("shard_fp")?.as_u64()?,
            out_bytes: record.get("out_bytes")?.as_u64()?,
            attempts: u32::try_from(record.get("attempts")?.as_u64()?).ok()?,
            quarantined: matches!(record.get("quarantined")?, Json::Bool(true)),
            stats: ShardStats::from_json(record)?,
        })
    }
}

/// The append side of the journal. Every [`append`](Self::append) is
/// write + `sync_data`, so a record that `append` returned `Ok` for
/// survives a process crash.
#[derive(Debug)]
pub struct CheckpointLog {
    journal: Journal,
    config_fp: u64,
}

impl CheckpointLog {
    /// Opens the journal at `path` for the run keyed by `header` and
    /// returns it with the shard records it holds, in shard order
    /// (`records[i].shard == i`). A missing or empty file starts a fresh
    /// journal. Fails with `InvalidData` when the file is not a
    /// checkpoint, belongs to another run, or holds a corrupt or
    /// out-of-order record before its last line. A torn or corrupt final
    /// line is dropped and truncated away, so the next append follows the
    /// last good record.
    pub fn open(
        path: &Path,
        header: CheckpointHeader,
    ) -> io::Result<(CheckpointLog, Vec<ShardRecord>)> {
        let mut records = Vec::new();
        // Line number of a record that failed verification: tolerated only
        // as the last line.
        let mut rejected = None;
        let run_key = [
            ("config_fp", header.config_fp),
            ("shard_size", header.shard_size as u64),
        ];
        let journal = Journal::open(path, &KIND, &run_key, |_, line| {
            if let Some(line_no) = rejected {
                return Err(format!("corrupt or out-of-order record at line {line_no}"));
            }
            match ShardRecord::from_line(line, header.config_fp) {
                Some(rec) if rec.shard == records.len() => {
                    records.push(rec);
                    Ok(true)
                }
                _ => {
                    rejected = Some(records.len() + 2);
                    Ok(false)
                }
            }
        })?;
        let mut log = CheckpointLog {
            journal,
            config_fp: header.config_fp,
        };
        log.journal.sync()?;
        Ok((log, records))
    }

    /// Durably appends one shard-completion record.
    pub fn append(&mut self, record: &ShardRecord) -> io::Result<()> {
        self.journal.append(&record.to_line(self.config_fp))?;
        self.journal.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("msrs-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn header() -> CheckpointHeader {
        CheckpointHeader {
            config_fp: 0xDEADBEEF,
            shard_size: 8,
        }
    }

    fn record(shard: usize) -> ShardRecord {
        ShardRecord {
            shard,
            lines: 8,
            shard_fp: 42 + shard as u64,
            out_bytes: 100 * (shard as u64 + 1),
            attempts: 1,
            quarantined: false,
            stats: ShardStats {
                instances: 8,
                ratio_sum_bits: 8.25f64.to_bits(),
                ratio_worst_bits: 1.5f64.to_bits(),
                ..ShardStats::default()
            },
        }
    }

    /// Opens (or creates) the journal at `path` and appends `records`.
    fn fill(path: &Path, records: &[ShardRecord]) {
        let (mut log, _) = CheckpointLog::open(path, header()).unwrap();
        for rec in records {
            log.append(rec).unwrap();
        }
    }

    #[test]
    fn round_trips_header_and_records() {
        let path = tmp("round_trip.ckpt");
        fill(&path, &[record(0), record(1)]);
        let (_log, records) = CheckpointLog::open(&path, header()).unwrap();
        assert_eq!(records, vec![record(0), record(1)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_and_empty_files_start_fresh() {
        let path = tmp("fresh.ckpt");
        let (_log, records) = CheckpointLog::open(&path, header()).unwrap();
        assert!(records.is_empty());
        std::fs::write(&path, "").unwrap();
        let (_log, records) = CheckpointLog::open(&path, header()).unwrap();
        assert!(records.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    /// A crash mid-append tears the tail. The resume drops it, and its
    /// reopen truncates it away so the next records do not glue onto the
    /// partial line: a second resume still loads every record.
    #[test]
    fn torn_tail_is_dropped_and_a_second_resume_still_loads() {
        let path = tmp("torn.ckpt");
        fill(&path, &[record(0)]);
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        write!(f, "{{\"shard\":1,\"lin").unwrap();
        drop(f);
        let (mut log, records) = CheckpointLog::open(&path, header()).unwrap();
        assert_eq!(records, vec![record(0)]);
        log.append(&record(1)).unwrap();
        log.append(&record(2)).unwrap();
        drop(log);
        let (_log, records) = CheckpointLog::open(&path, header()).unwrap();
        assert_eq!(records, vec![record(0), record(1), record(2)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_foreign_files_other_runs_and_old_versions() {
        let path = tmp("foreign.ckpt");
        std::fs::write(&path, "{\"makespan\":3}\n").unwrap();
        let err = CheckpointLog::open(&path, header()).unwrap_err();
        assert!(
            err.to_string().contains("not a checkpoint journal"),
            "{err}"
        );

        std::fs::remove_file(&path).unwrap();
        fill(&path, &[record(0)]);
        let other = CheckpointHeader {
            shard_size: 4,
            ..header()
        };
        let err = CheckpointLog::open(&path, other).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("different engine configuration"),
            "{err}"
        );

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replacen("\"version\":2", "\"version\":1", 1)).unwrap();
        let err = CheckpointLog::open(&path, header()).unwrap_err();
        assert!(err
            .to_string()
            .contains("unsupported checkpoint journal version"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_tail_is_dropped_but_earlier_corruption_is_an_error() {
        let path = tmp("corrupt.ckpt");
        fill(&path, &[record(0), record(1)]);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines[2] = "garbage";
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
        // The unverifiable final line is dropped and cut before appending.
        let (mut log, records) = CheckpointLog::open(&path, header()).unwrap();
        assert_eq!(records, vec![record(0)]);
        log.append(&record(1)).unwrap();
        drop(log);
        let (_log, records) = CheckpointLog::open(&path, header()).unwrap();
        assert_eq!(records, vec![record(0), record(1)]);
        // Corruption *before* a valid record is a hard error.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines[1] = "not json";
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
        let err = CheckpointLog::open(&path, header()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn shard_stats_merge_is_bits_exact() {
        let mut stats = StreamStats {
            ratio_sum: 1.1,
            ..StreamStats::default()
        };
        let shard = ShardStats {
            instances: 3,
            ratio_sum_bits: 2.2f64.to_bits(),
            ratio_worst_bits: 1.75f64.to_bits(),
            ..ShardStats::default()
        };
        shard.merge_into(&mut stats);
        assert_eq!(stats.instances, 3);
        assert_eq!(stats.ratio_sum.to_bits(), (1.1f64 + 2.2f64).to_bits());
        assert_eq!(stats.ratio_worst.to_bits(), 1.75f64.to_bits());
    }
}
