//! Robustness proofs for the two journals, the durable result-cache store
//! and the dispatch checkpoint. For the store:
//!
//! * **truncation sweep** — a pristine two-segment store cut at *every*
//!   byte offset loads without a panic or an error, yields exactly the
//!   records whose lines survived intact (never a corrupt one), and
//!   counts no quarantine — a torn tail is recovery, not corruption;
//! * **bit-flip sweep** — a single bit flipped at *every* byte of every
//!   record line is always detected: the open never fails, the flipped
//!   record's segment is quarantined (counted in stats *and* the
//!   process-global telemetry), the sibling segment loads untouched, and
//!   no loaded entry ever deviates from the pristine bytes;
//! * **warm restart** — an engine that served a corpus through an
//!   attached store is dropped (joining the background flusher), a fresh
//!   engine warm-loads the store, and a second pass over the same corpus
//!   is served entirely from cache, bit-identical modulo `wall_micros`
//!   and `cache_hit`;
//! * **pinned bytes** — a fixed sequence of opens, appends and syncs
//!   writes exactly the bytes earlier builds wrote.
//!
//! For the checkpoint, the same two sweeps: a cut at every byte offset
//! loads exactly the records whose lines survived, and a single-bit flip
//! anywhere in a record line either fails the open with `InvalidData` or
//! loads a prefix of the written records — never the flipped one.

use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;

use msrs_core::{Assignment, Schedule};
use msrs_engine::fnv::{fnv1a_64, FNV1A_64_BASIS};
use msrs_engine::json::Json;
use msrs_engine::portfolio::SolverKind;
use msrs_engine::report::{RunStatus, SolverRun};
use msrs_engine::stream::JsonlServer;
use msrs_engine::{
    cachestore, jsonl, CacheStore, CheckpointHeader, CheckpointLog, Engine, EngineConfig,
    ShardRecord, ShardStats, SolveReport,
};

/// A scratch path unique to this process and test.
fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("msrs-cachestore-it-{}-{name}", std::process::id()))
}

/// A small synthetic (but fully canonical) report — `to_store_json` of
/// this value round-trips bit-identically, which is all the store's
/// checksum verification relies on.
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

const CONFIG_FP: u64 = 0x5eed;

/// Builds a pristine two-segment store (a reopen writes a fresh segment
/// marker between the two batches) and returns its bytes plus the
/// expected `(fingerprint, payload)` list in file order.
fn pristine_store(
    path: &std::path::Path,
    first: u64,
    second: u64,
) -> (Vec<u8>, Vec<(u128, String)>) {
    let _ = fs::remove_file(path);
    let mut expected = Vec::new();
    for (start, count) in [(0u64, first), (first, second)] {
        let (mut store, _, _) = CacheStore::open(path, CONFIG_FP).expect("store opens");
        for i in start..start + count {
            let payload = report(i).to_store_json().to_string();
            store
                .append(i as u128 + 1, CONFIG_FP, &payload)
                .expect("append");
            expected.push((i as u128 + 1, payload));
        }
        store.sync().expect("sync");
    }
    let bytes = fs::read(path).expect("store readable");
    (bytes, expected)
}

/// Byte spans (start, end-exclusive of the newline) of every record line.
fn record_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    line_spans(bytes, b"{\"fp\":")
}

/// Byte spans (start, end-exclusive of the newline) of every line that
/// starts with `prefix`.
fn line_spans(bytes: &[u8], prefix: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = 0usize;
    for line in bytes.split(|&b| b == b'\n') {
        if line.starts_with(prefix) {
            spans.push((start, start + line.len()));
        }
        start += line.len() + 1;
    }
    spans
}

#[test]
fn loader_survives_truncation_at_every_byte_offset() {
    let build = tmp("trunc-build.mcache");
    let (bytes, expected) = pristine_store(&build, 3, 2);
    let spans = record_spans(&bytes);
    assert_eq!(spans.len(), expected.len());
    let scratch = tmp("trunc-scratch.mcache");
    for cut in 0..=bytes.len() {
        fs::write(&scratch, &bytes[..cut]).expect("scratch writable");
        let (_store, entries, stats) = CacheStore::open(&scratch, CONFIG_FP)
            .unwrap_or_else(|e| panic!("truncation at byte {cut} must load, not error: {e}"));
        // A record survives iff its full line (newline included) fits.
        let survivors: Vec<&(u128, String)> = spans
            .iter()
            .zip(&expected)
            .filter(|((_, end), _)| *end < cut)
            .map(|(_, exp)| exp)
            .collect();
        assert_eq!(
            entries.len(),
            survivors.len(),
            "truncation at byte {cut} of {}",
            bytes.len()
        );
        for (entry, (fp, payload)) in entries.iter().zip(survivors) {
            assert_eq!(entry.fingerprint, *fp, "at byte {cut}");
            assert_eq!(&*entry.payload, payload.as_str(), "at byte {cut}");
            assert_eq!(
                entry.report.to_store_json().to_string(),
                *payload,
                "loaded report re-serializes to the checksummed bytes"
            );
        }
        assert_eq!(stats.loaded, entries.len() as u64);
        assert_eq!(
            (stats.errors, stats.segments_quarantined),
            (0, 0),
            "a torn tail at byte {cut} is recovery, never corruption"
        );
    }
    fs::remove_file(&build).ok();
    fs::remove_file(&scratch).ok();
}

#[test]
fn single_bit_flips_are_always_detected_and_quarantine_only_one_segment() {
    let build = tmp("flip-build.mcache");
    let (bytes, expected) = pristine_store(&build, 3, 2);
    let spans = record_spans(&bytes);
    let pristine: HashMap<u128, &str> = expected
        .iter()
        .map(|(fp, payload)| (*fp, payload.as_str()))
        .collect();
    let reg = msrs_engine::telemetry::registry();
    let scratch = tmp("flip-scratch.mcache");
    for (record, (start, end)) in spans.iter().enumerate() {
        // The flipped record kills its own segment; the sibling segment
        // must load untouched.
        let casualties: Vec<u128> = spans
            .iter()
            .zip(&expected)
            .filter(|((s, _), _)| (record < 3) == (*s < spans[3].0))
            .map(|(_, (fp, _))| *fp)
            .collect();
        for pos in *start..*end {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 0x01;
            fs::write(&scratch, &flipped).expect("scratch writable");
            let quarantined_before = reg.cache_store_segments_quarantined_total.get();
            let errors_before = reg.cache_store_load_errors_total.get();
            let (_store, entries, stats) =
                CacheStore::open(&scratch, CONFIG_FP).unwrap_or_else(|e| {
                    panic!("flip at byte {pos} (record {record}) must load, not error: {e}")
                });
            assert_eq!(
                stats.errors, 1,
                "flip at byte {pos} of record {record} must be detected"
            );
            assert_eq!(stats.segments_quarantined, 1, "flip at byte {pos}");
            assert_eq!(
                entries.len(),
                expected.len() - casualties.len(),
                "flip at byte {pos}: only the flipped record's segment is lost"
            );
            for entry in &entries {
                assert!(
                    !casualties.contains(&entry.fingerprint),
                    "flip at byte {pos}: a record from the quarantined segment was served"
                );
                assert_eq!(
                    &*entry.payload, pristine[&entry.fingerprint],
                    "flip at byte {pos}: a served record deviated from the pristine bytes"
                );
            }
            // The loss is visible process-wide, not just in the return
            // value (deltas are ≥ because sibling tests share the
            // registry).
            assert!(
                reg.cache_store_segments_quarantined_total.get() > quarantined_before,
                "flip at byte {pos}: quarantine must reach telemetry"
            );
            assert!(reg.cache_store_load_errors_total.get() > errors_before);
        }
    }
    fs::remove_file(&build).ok();
    fs::remove_file(&scratch).ok();
}

/// The record serializer and the loader agree byte-for-byte: what
/// `record_line` emits is exactly what a pristine load hands back.
#[test]
fn record_line_round_trips_through_a_pristine_load() {
    let path = tmp("record-line.mcache");
    let (bytes, expected) = pristine_store(&path, 2, 1);
    let text = String::from_utf8(bytes).expect("store is utf8");
    for (fp, payload) in &expected {
        let line = cachestore::record_line(*fp, CONFIG_FP, payload);
        assert!(
            text.contains(&line),
            "the store holds the canonical serialization of record {fp:#x}"
        );
    }
    fs::remove_file(&path).ok();
}

/// The on-disk bytes of a store are a compatibility contract: stores
/// written by earlier builds must keep loading. A fixed sequence of opens,
/// appends and syncs — crossing a segment boundary, reopening, and
/// reopening over a torn tail — must produce exactly the pinned bytes.
#[test]
fn store_bytes_match_the_pinned_digest() {
    let path = tmp("pinned-bytes.mcache");
    let _ = fs::remove_file(&path);
    let mut next = 0u64;
    for batch in [70u64, 3, 1] {
        if next > 0 {
            // A crash mid-append leaves a torn line for this open to cut.
            let mut torn = fs::read(&path).expect("store readable");
            torn.extend_from_slice(b"{\"fp\":\"0123");
            fs::write(&path, torn).expect("store writable");
        }
        let (mut store, entries, _) = CacheStore::open(&path, CONFIG_FP).expect("store opens");
        assert_eq!(entries.len() as u64, next, "every earlier record reloads");
        for i in next..next + batch {
            let payload = report(i).to_store_json().to_string();
            store
                .append(i as u128 * 0x9e37_79b9_7f4a_7c15 + 1, CONFIG_FP, &payload)
                .expect("append");
        }
        store.sync().expect("sync");
        next += batch;
    }
    let bytes = fs::read(&path).expect("store readable");
    let digest = fnv1a_64(FNV1A_64_BASIS, &bytes);
    assert_eq!(
        (bytes.len(), digest),
        (31534, 0x0c90_2a3b_439f_fb20),
        "cache-store bytes changed"
    );
    fs::remove_file(&path).ok();
}

/// A dispatch checkpoint record; shard 1's `out_bytes` is 200, so a
/// one-bit flip of its first digit would claim 300.
fn shard_record(shard: usize) -> ShardRecord {
    ShardRecord {
        shard,
        lines: 8,
        shard_fp: 0x1234_5678 + shard as u64,
        out_bytes: 100 * (shard as u64 + 1),
        attempts: 1,
        quarantined: shard == 2,
        stats: ShardStats {
            instances: 8,
            ratio_sum_bits: 8.25f64.to_bits(),
            ratio_worst_bits: 1.5f64.to_bits(),
            ..ShardStats::default()
        },
    }
}

const CKPT_HEADER: CheckpointHeader = CheckpointHeader {
    config_fp: CONFIG_FP,
    shard_size: 8,
};

/// Builds a three-record checkpoint and returns its bytes, the records,
/// and the byte spans of the record lines.
fn pristine_checkpoint(path: &std::path::Path) -> (Vec<u8>, Vec<ShardRecord>, Vec<(usize, usize)>) {
    let _ = fs::remove_file(path);
    let records: Vec<ShardRecord> = (0..3).map(shard_record).collect();
    let (mut log, loaded) = CheckpointLog::open(path, CKPT_HEADER).expect("checkpoint opens");
    assert!(loaded.is_empty());
    for rec in &records {
        log.append(rec).expect("append");
    }
    let bytes = fs::read(path).expect("checkpoint readable");
    let spans = line_spans(&bytes, b"{\"shard\":");
    assert_eq!(spans.len(), records.len());
    (bytes, records, spans)
}

#[test]
fn checkpoint_survives_truncation_at_every_byte_offset() {
    let build = tmp("trunc-build.ckpt");
    let (bytes, records, spans) = pristine_checkpoint(&build);
    let scratch = tmp("trunc-scratch.ckpt");
    for cut in 0..=bytes.len() {
        fs::write(&scratch, &bytes[..cut]).expect("scratch writable");
        let (_log, loaded) = CheckpointLog::open(&scratch, CKPT_HEADER)
            .unwrap_or_else(|e| panic!("truncation at byte {cut} must load, not error: {e}"));
        // A record survives iff its full line (newline included) fits.
        let survivors = spans.iter().filter(|(_, end)| *end < cut).count();
        assert_eq!(loaded, records[..survivors], "truncation at byte {cut}");
    }
    fs::remove_file(&build).ok();
    fs::remove_file(&scratch).ok();
}

#[test]
fn checkpoint_bit_flips_never_yield_a_record_that_was_not_written() {
    let build = tmp("flip-build.ckpt");
    let (bytes, records, spans) = pristine_checkpoint(&build);
    let scratch = tmp("flip-scratch.ckpt");
    for (record, (start, end)) in spans.iter().enumerate() {
        for pos in *start..*end {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[pos] ^= 1 << bit;
                fs::write(&scratch, &flipped).expect("scratch writable");
                match CheckpointLog::open(&scratch, CKPT_HEADER) {
                    // The flipped record itself never loads; what does load
                    // is exactly what was written.
                    Ok((_log, loaded)) => {
                        assert!(
                            loaded.len() <= record,
                            "flip of bit {bit} at byte {pos} (record {record}) went undetected"
                        );
                        assert_eq!(loaded, records[..loaded.len()], "flip at byte {pos}");
                    }
                    Err(e) => assert_eq!(
                        e.kind(),
                        std::io::ErrorKind::InvalidData,
                        "flip at byte {pos}: {e}"
                    ),
                }
            }
        }
    }
    fs::remove_file(&build).ok();
    fs::remove_file(&scratch).ok();
}

/// Zeroes `wall_micros` and normalizes `cache_hit` — the two fields the
/// determinism contract excludes.
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
    let mut json = Json::parse(line).expect("output line parses as JSON");
    redact(&mut json);
    json.to_string()
}

#[test]
fn warm_restart_serves_the_second_pass_from_the_store_bit_identically() {
    let path = tmp("warm-restart.mcache");
    let _ = fs::remove_file(&path);

    // A duplicate-heavy corpus over four distinct canonical forms (ids
    // vary — ids are not part of the canonical form).
    let distinct: Vec<_> = (0..4)
        .map(|seed| msrs_gen::uniform(seed, 3, 12, 3, 1, 40))
        .collect();
    let mut corpus = String::new();
    for i in 0..12 {
        corpus.push_str(&jsonl::write_instance_line(
            Some(&format!("w-{i}")),
            &distinct[i % distinct.len()],
        ));
        corpus.push('\n');
    }
    // `EngineConfig::default()` leaves the cache disabled unless
    // `MSRS_CACHE` is set — the store rides the cache, so enable it.
    let config = EngineConfig {
        threads: 1,
        cache_capacity: 1024,
        ..EngineConfig::default()
    };

    // First life: solve everything, write-through to the store.
    let engine = Engine::new(config.clone());
    let load = engine
        .attach_cache_store(&path)
        .expect("fresh store attaches");
    assert_eq!(load.loaded, 0);
    let mut out1 = Vec::new();
    let outcome = JsonlServer::new()
        .serve(&engine, corpus.as_bytes(), &mut out1, 4)
        .expect("first pass");
    assert!(outcome.error.is_none());
    assert_eq!(outcome.stats.instances, 12);
    // Restart: dropping the engine joins the background flusher, so every
    // insert the first life made is durable before the second life opens
    // the file.
    drop(engine);

    let engine = Engine::new(config);
    let load = engine.attach_cache_store(&path).expect("store reloads");
    assert_eq!(
        load.loaded, 4,
        "one durable record per distinct canonical form"
    );
    assert_eq!((load.errors, load.segments_quarantined), (0, 0));
    let mut out2 = Vec::new();
    let outcome = JsonlServer::new()
        .serve(&engine, corpus.as_bytes(), &mut out2, 4)
        .expect("second pass");
    assert!(outcome.error.is_none());
    assert_eq!(
        outcome.stats.fast_path_hits, 12,
        "every line of the restarted pass is served from the warm-loaded cache"
    );
    assert_eq!(outcome.stats.max_resident, 0, "no request materialized");

    let second_raw: Vec<String> = String::from_utf8(out2)
        .expect("utf8 reports")
        .lines()
        .map(str::to_string)
        .collect();
    for line in &second_raw {
        let json = Json::parse(line).expect("report parses");
        assert!(
            matches!(json.get("cache_hit"), Some(Json::Bool(true))),
            "warm-restarted reports carry cache provenance: {line}"
        );
    }
    let first: Vec<String> = String::from_utf8(out1)
        .expect("utf8 reports")
        .lines()
        .map(redacted)
        .collect();
    let second: Vec<String> = second_raw.iter().map(|l| redacted(l)).collect();
    assert_eq!(
        first, second,
        "warm restart is bit-identical modulo wall_micros and cache_hit"
    );
    fs::remove_file(&path).ok();
}
