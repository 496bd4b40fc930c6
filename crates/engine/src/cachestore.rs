//! Durable, crash-safe persistence for the result cache: an append-only
//! segment log of `(canonical fingerprint, config fingerprint, serialized
//! report)` records, keyed by the engine's content-relevant configuration
//! fingerprint — a store written under one configuration refuses to load
//! under another, because its reports would be wrong answers there.
//!
//! ```text
//! {"cache":"msrs-cache","version":1,"config_fp":…}      header
//! {"fp":"<32-hex>","config":…,"sum":…,"report":{…}}     record × N
//! {"segment":0}                                          segment marker
//! {"fp":…}                                               record × N
//! …
//! ```
//!
//! The header, replay, torn-tail truncation, append and the `sum` rule
//! come from the journal module (`journal.rs`) the dispatch checkpoint
//! shares. The sum covers the fingerprint's hex, the config fingerprint
//! and the payload: the report's canonical
//! [`SolveReport::write_store_json`] bytes. The stored-bytes rule: the
//! loader checks the sum over the payload bytes exactly as stored, then
//! decodes them with [`SolveReport::read_store_json`], which accepts only
//! bytes the writer would emit for the report it returns. A record that
//! loads therefore re-serializes to the checksummed bytes, without the
//! loader building a JSON tree or re-serializing anything. Record frames
//! and segment markers are parsed byte by byte, each line once.
//!
//! * Appends are buffered by the caller ([`ReportCache`]'s background
//!   flusher batches them) and made durable by [`CacheStore::sync`];
//!   a record the store synced survives a `kill -9`.
//! * A torn final line (a crash mid-append) is dropped and truncated away
//!   on open; the entry is re-solved and re-appended later.
//! * A corrupt *complete* record — checksum mismatch, invalid UTF-8 or
//!   JSON, unknown solver name — quarantines its whole segment: the
//!   segment's records are discarded, a telemetry counter
//!   (`msrs_cache_store_segments_quarantined_total`) and a log line record
//!   the loss, and loading continues at the next segment marker. At most
//!   one segment ([`SEGMENT_RECORDS`] entries) is lost, never the store,
//!   and a wrong answer is never served. Every open writes a fresh marker,
//!   so new appends never join a quarantined trailing segment.
//! * A header with the wrong magic, version, or configuration
//!   fingerprint refuses the file outright (`InvalidData`).
//!
//! The deterministic fault kinds `cache-torn:at=N` and
//! `cache-flip:record=K` (see the [`mod@crate::dispatch`] module docs) mutate
//! the file inside [`CacheStore::open`] *before* loading, so tests and CI
//! can exercise these recovery paths byte-deterministically.
//!
//! [`ReportCache`]: crate::cache::ReportCache

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use msrs_telemetry::registry;

use crate::dispatch::{CacheFault, FaultSpec};
use crate::journal::{self, Journal, Kind};
use crate::json::canonical_u64;
use crate::report::SolveReport;

/// Magic string identifying a cache store.
pub const CACHE_STORE_MAGIC: &str = "msrs-cache";
/// Store format version; bumped on incompatible record changes.
pub const CACHE_STORE_VERSION: u64 = 1;
/// Records per segment — the quarantine blast radius of one corrupt
/// record.
pub const SEGMENT_RECORDS: usize = 64;

const KIND: Kind = Kind {
    key: "cache",
    magic: CACHE_STORE_MAGIC,
    version: CACHE_STORE_VERSION,
};

/// One entry loaded from a store: the canonical fingerprint, the decoded
/// report, and the exact payload bytes it was stored with (what the
/// dispatch cache authority keeps and serves to `#cacheq` probes).
#[derive(Debug, Clone)]
pub struct CacheStoreEntry {
    /// [`msrs_core::CanonicalForm::fingerprint`] of the instance.
    pub fingerprint: u128,
    /// The verified canonical report.
    pub report: Arc<SolveReport>,
    /// The report's canonical store serialization (checksummed bytes).
    pub payload: Arc<str>,
}

/// What loading a store found; mirrored into the process-global
/// telemetry (`msrs_cache_store_{loads,load_errors,segments_quarantined}
/// _total`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLoadStats {
    /// Records that verified and loaded.
    pub loaded: u64,
    /// Complete records that failed verification (checksum mismatch,
    /// unparsable, foreign config).
    pub errors: u64,
    /// Segments discarded because they held a corrupt record.
    pub segments_quarantined: u64,
}

/// The append side of a cache store. Obtained from [`CacheStore::open`],
/// which also replays the existing contents.
#[derive(Debug)]
pub struct CacheStore {
    journal: Journal,
    /// Records appended into the current segment.
    in_segment: usize,
    /// Id of the next segment marker to write.
    next_segment: u64,
}

/// Serializes one record line for `fp` under `config_fp`. `payload` must
/// be [`SolveReport::write_store_json`] output: the loader accepts no
/// other bytes.
pub fn record_line(fp: u128, config_fp: u64, payload: &str) -> String {
    let key = format!("{fp:032x}");
    let sum = journal::checksum(key.as_bytes(), config_fp, payload.as_bytes());
    format!("{{\"fp\":\"{key}\",\"config\":{config_fp},\"sum\":{sum},\"report\":{payload}}}")
}

/// Parses and verifies one complete record line under `config_fp`:
/// the frame `{"fp":"<32 hex>","config":N,"sum":S,"report":<payload>}`
/// exactly as [`record_line`] writes it, a `sum` that matches the payload
/// bytes as stored, and a payload that
/// [`SolveReport::read_store_json`] accepts. `None` means the record is
/// corrupt or foreign — never a panic.
fn parse_record(line: &[u8], config_fp: u64) -> Option<CacheStoreEntry> {
    let rest = line.strip_prefix(b"{\"fp\":\"")?;
    let key = rest.get(..32)?;
    if !key.iter().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    let fingerprint = u128::from_str_radix(std::str::from_utf8(key).ok()?, 16).ok()?;
    let rest = rest[32..].strip_prefix(b"\",\"config\":")?;
    let (config, len) = canonical_u64(rest)?;
    if config != config_fp {
        return None;
    }
    let rest = rest[len..].strip_prefix(b",\"sum\":")?;
    let (sum, len) = canonical_u64(rest)?;
    let payload = rest[len..]
        .strip_prefix(b",\"report\":")?
        .strip_suffix(b"}")?;
    if journal::checksum(key, config_fp, payload) != sum {
        return None;
    }
    let report = SolveReport::read_store_json(payload)?;
    Some(CacheStoreEntry {
        fingerprint,
        report: Arc::new(report),
        payload: std::str::from_utf8(payload).ok()?.into(),
    })
}

/// The id of a segment marker line, `{"segment":N}`.
fn parse_marker(line: &[u8]) -> Option<u64> {
    let rest = line.strip_prefix(b"{\"segment\":")?;
    match canonical_u64(rest)? {
        (id, len) if &rest[len..] == b"}" => Some(id),
        _ => None,
    }
}

/// Applies a `cache-torn` / `cache-flip` fault from `MSRS_FAULT` to the
/// file at `path` (no-op when absent, the spec names another kind, or
/// the file does not exist). Truncation cuts the file to `at` bytes; a
/// flip inverts one bit in the middle of the `record`-th record line.
fn apply_env_fault(path: &Path) -> io::Result<()> {
    let Some(fault) = FaultSpec::from_env().and_then(|f| f.cache_fault()) else {
        return Ok(());
    };
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    match fault {
        CacheFault::Torn { at } => {
            let at = (at as usize).min(bytes.len());
            eprintln!(
                "msrs cachestore: injected torn tail at byte {at} of {}",
                path.display()
            );
            std::fs::write(path, &bytes[..at])
        }
        CacheFault::Flip { record } => {
            let mut bytes = bytes;
            let mut start = 0usize;
            let mut seen = 0u64;
            for line in bytes.split(|&b| b == b'\n') {
                if line.starts_with(b"{\"fp\":") {
                    if seen == record {
                        let mid = start + line.len() / 2;
                        bytes[mid] ^= 0x01;
                        eprintln!(
                            "msrs cachestore: injected bit flip in record {record} (byte {mid}) \
                             of {}",
                            path.display()
                        );
                        return std::fs::write(path, &bytes);
                    }
                    seen += 1;
                }
                start += line.len() + 1;
            }
            Ok(()) // fewer records than requested: nothing to flip
        }
    }
}

impl CacheStore {
    /// Opens (or creates) the store at `path` for the engine
    /// configuration fingerprinted by `config_fp`, replaying and
    /// verifying its contents: every verified entry is returned, the
    /// load outcome is mirrored into telemetry, a torn tail is truncated
    /// away, and the store is left positioned for appending. Fails with
    /// `InvalidData` when the file exists but is not a cache store or
    /// belongs to a different configuration.
    pub fn open(
        path: &Path,
        config_fp: u64,
    ) -> io::Result<(CacheStore, Vec<CacheStoreEntry>, CacheLoadStats)> {
        let started = Instant::now();
        apply_env_fault(path)?;
        let mut entries = Vec::new();
        let mut stats = CacheLoadStats::default();
        let mut next_segment = 0u64;
        // Records verified so far in the current segment; committed at the
        // next segment marker (or the end), discarded wholesale if the
        // segment turns out to hold a corrupt record.
        let mut segment: Vec<CacheStoreEntry> = Vec::new();
        let mut quarantined = false;
        let journal = Journal::open(path, &KIND, &[("config_fp", config_fp)], |offset, line| {
            if let Some(marker) = parse_marker(line) {
                entries.append(&mut segment);
                quarantined = false;
                next_segment = next_segment.max(marker + 1);
                return Ok(true);
            }
            match parse_record(line, config_fp) {
                Some(entry) if !quarantined => segment.push(entry),
                Some(_) => {} // rest of a quarantined segment
                None => {
                    stats.errors += 1;
                    if !quarantined {
                        quarantined = true;
                        stats.segments_quarantined += 1;
                        segment.clear();
                        eprintln!(
                            "msrs cachestore: corrupt record at byte {offset} of {} — \
                             quarantining its segment",
                            path.display()
                        );
                    }
                }
            }
            // Quarantined records stay on disk; the marker written below
            // isolates new appends from them.
            Ok(true)
        })?;
        if !quarantined {
            entries.append(&mut segment);
        }
        stats.loaded = entries.len() as u64;
        let reg = registry();
        reg.cache_store_loads_total.add(stats.loaded);
        reg.cache_store_load_errors_total.add(stats.errors);
        reg.cache_store_segments_quarantined_total
            .add(stats.segments_quarantined);
        let mut store = CacheStore {
            journal,
            in_segment: 0,
            next_segment,
        };
        store.write_marker()?;
        store.journal.sync()?;
        reg.cache_store_load_nanos
            .add(started.elapsed().as_nanos() as u64);
        Ok((store, entries, stats))
    }

    fn write_marker(&mut self) -> io::Result<()> {
        self.journal
            .append(&format!("{{\"segment\":{}}}", self.next_segment))?;
        self.next_segment += 1;
        self.in_segment = 0;
        Ok(())
    }

    /// Appends one record (buffered — call [`sync`](Self::sync) to make
    /// a batch durable). `payload` must be the report's
    /// [`SolveReport::write_store_json`] output.
    pub fn append(&mut self, fp: u128, config_fp: u64, payload: &str) -> io::Result<()> {
        self.journal.append(&record_line(fp, config_fp, payload))?;
        self.in_segment += 1;
        if self.in_segment >= SEGMENT_RECORDS {
            self.write_marker()?;
        }
        Ok(())
    }

    /// Makes every appended record durable (one `fsync`, counted as one
    /// `msrs_cache_store_flushes_total` batch).
    pub fn sync(&mut self) -> io::Result<()> {
        self.journal.sync()?;
        registry().cache_store_flushes_total.inc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portfolio::SolverKind;
    use crate::report::tests::{arb_report, mutate};
    use crate::report::{RunStatus, SolverRun};
    use msrs_core::{Assignment, Schedule};
    use proptest::prelude::*;
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("msrs-cachestore-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn report(seed: u64) -> SolveReport {
        SolveReport {
            id: None,
            jobs: 2,
            machines: 1,
            classes: 1,
            lower_bound: seed,
            makespan: seed + 1,
            winner: SolverKind::FiveThirds,
            certified_horizon: seed + 2,
            certified_by: SolverKind::FiveThirds,
            proven_optimal: false,
            cache_hit: false,
            wall_micros: 3,
            runs: vec![SolverRun {
                solver: SolverKind::FiveThirds,
                status: RunStatus::Completed,
                makespan: Some(seed + 1),
                certified_horizon: Some(seed + 2),
                nodes: None,
                wall_micros: 3,
            }],
            schedule: Schedule::new(vec![
                Assignment {
                    machine: 0,
                    start: 0,
                },
                Assignment {
                    machine: 0,
                    start: seed,
                },
            ]),
        }
    }

    fn fill(path: &Path, config_fp: u64, n: u64) {
        let (mut store, entries, _) = CacheStore::open(path, config_fp).unwrap();
        assert!(entries.is_empty());
        for i in 0..n {
            let payload = report(i).to_store_json().to_string();
            store.append(i as u128 + 1, config_fp, &payload).unwrap();
        }
        store.sync().unwrap();
    }

    #[test]
    fn round_trips_entries_across_reopen() {
        let path = tmp("round_trip.mcache");
        let _ = std::fs::remove_file(&path);
        fill(&path, 7, 3);
        let load_nanos = registry().cache_store_load_nanos.get();
        let (_store, entries, stats) = CacheStore::open(&path, 7).unwrap();
        assert!(registry().cache_store_load_nanos.get() > load_nanos);
        assert_eq!(stats.loaded, 3);
        assert_eq!((stats.errors, stats.segments_quarantined), (0, 0));
        assert_eq!(entries.len(), 3);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.fingerprint, i as u128 + 1);
            assert_eq!(e.report.makespan, i as u64 + 1);
            assert_eq!(*e.payload, report(i as u64).to_store_json().to_string());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn refuses_foreign_config_and_foreign_files() {
        let path = tmp("foreign.mcache");
        let _ = std::fs::remove_file(&path);
        fill(&path, 7, 1);
        let err = CacheStore::open(&path, 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("different engine configuration"));
        std::fs::write(&path, "{\"makespan\":3}\n").unwrap();
        assert!(CacheStore::open(&path, 7).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let path = tmp("torn.mcache");
        let _ = std::fs::remove_file(&path);
        fill(&path, 7, 2);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"fp\":\"00000000").unwrap();
        drop(f);
        let (_store, entries, stats) = CacheStore::open(&path, 7).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(stats.errors, 0, "a torn tail is not corruption");
        // The reopen truncated the tail: a fresh load sees a clean file.
        let (_store2, entries2, stats2) = CacheStore::open(&path, 7).unwrap();
        assert_eq!(entries2.len(), 2);
        assert_eq!(stats2.errors, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_record_quarantines_only_its_segment() {
        let path = tmp("quarantine.mcache");
        let _ = std::fs::remove_file(&path);
        // Two segments: records 0..SEGMENT_RECORDS and a second batch.
        fill(&path, 7, SEGMENT_RECORDS as u64 + 4);
        // Corrupt one record in the first segment.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let victim = lines
            .iter()
            .position(|l| l.starts_with("{\"fp\":"))
            .unwrap();
        lines[victim] = lines[victim].replace("\"sum\":", "\"sum\":9");
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
        let (_store, entries, stats) = CacheStore::open(&path, 7).unwrap();
        assert_eq!(stats.segments_quarantined, 1);
        assert_eq!(stats.errors, 1);
        // The second segment survived untouched.
        assert_eq!(entries.len(), 4);
        assert!(entries
            .iter()
            .all(|e| e.fingerprint > SEGMENT_RECORDS as u128));
        std::fs::remove_file(&path).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any single-byte change to a valid record line is rejected: the
        /// frame is strict, the config must match, and FNV-1a maps two
        /// equal-length inputs that differ in one byte to different sums.
        /// Any other edit never panics and yields only a record that
        /// `record_line` writes exactly so, around a payload the store
        /// writer writes exactly so.
        #[test]
        fn record_parser_accepts_only_verified_records(
            r in arb_report(),
            fp in any::<u64>(),
            at in any::<usize>(),
            byte in any::<u8>(),
            edits in prop::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 1..4),
        ) {
            let fp = (u128::from(fp) << 64) | u128::from(fp.rotate_left(7));
            let line = record_line(fp, 7, &r.store_json_string());
            let entry = parse_record(line.as_bytes(), 7).expect("a written record parses");
            prop_assert_eq!(&*entry.payload, r.store_json_string().as_str());
            prop_assert!(parse_record(line.as_bytes(), 8).is_none(), "foreign config");
            let mut changed = line.clone().into_bytes();
            let at = at % changed.len();
            changed[at] = byte;
            if changed != line.as_bytes() {
                prop_assert!(parse_record(&changed, 7).is_none(), "byte {} changed", at);
            }
            for input in [mutate(line.as_bytes(), &edits), mutate(&[], &edits)] {
                if let Some(e) = parse_record(&input, 7) {
                    prop_assert_eq!(record_line(e.fingerprint, 7, &e.payload).as_bytes(), &input[..]);
                    prop_assert_eq!(e.report.store_json_string(), &*e.payload);
                }
            }
        }
    }

    #[test]
    fn empty_and_missing_files_start_fresh() {
        let path = tmp("fresh.mcache");
        let _ = std::fs::remove_file(&path);
        let (_store, entries, stats) = CacheStore::open(&path, 7).unwrap();
        assert!(entries.is_empty());
        assert_eq!(stats, CacheLoadStats::default());
        drop(_store);
        std::fs::write(&path, "").unwrap();
        let (_store, entries, _) = CacheStore::open(&path, 7).unwrap();
        assert!(entries.is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
