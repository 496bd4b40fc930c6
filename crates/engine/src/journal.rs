//! The on-disk journal format shared by the dispatch checkpoint
//! ([`crate::checkpoint`]) and the result-cache store
//! ([`crate::cachestore`]): an append-only JSONL file with one header
//! line, `{"<key>":"<magic>","version":…,"config_fp":…[,"shard_size":…]}`,
//! then one line per record.
//!
//! This module owns every decision the two share: the header and its
//! check on reopen (magic, version and run key must match, or the open
//! fails with `InvalidData`); replay of each complete line to the caller's
//! codec, with an unterminated tail — what a crash mid-append leaves —
//! dropped; truncation to the last line the codec kept before anything is
//! appended, so a new record never lands behind a torn or rejected one;
//! append and `sync_data`; and the record [`checksum`]. The codecs keep
//! their record shapes and what a rejected record means: the cache store
//! quarantines its segment and keeps loading, the checkpoint drops a
//! rejected final record and refuses one anywhere before the end.

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Seek, SeekFrom, Write};
use std::path::Path;

use crate::fnv::{fnv1a_64, FNV1A_64_BASIS};
use crate::json::Json;

/// What names one journal format in its header line.
pub(crate) struct Kind {
    /// Header key whose value is `magic`; error messages call the file a
    /// "`key` journal".
    pub key: &'static str,
    /// Magic string identifying the format.
    pub magic: &'static str,
    /// Format version; a file of any other version is refused.
    pub version: u64,
}

/// An open journal, positioned for appending after its last kept line.
#[derive(Debug)]
pub(crate) struct Journal {
    file: File,
}

impl Journal {
    /// Opens the journal at `path` for the run key `fields`. A missing or
    /// empty file, or one torn inside its header, starts afresh; a header
    /// of another kind, version or run key fails with `InvalidData` and
    /// leaves the file untouched. Every complete line after the header
    /// goes to `keep(offset, line)` (without its `\n`), which says whether
    /// the codec keeps it, or why the file is invalid (`InvalidData`); the
    /// file is then cut after the last kept line. The caller's next
    /// [`sync`](Self::sync) makes the cut durable.
    pub fn open(
        path: &Path,
        kind: &Kind,
        fields: &[(&str, u64)],
        mut keep: impl FnMut(u64, &[u8]) -> Result<bool, String>,
    ) -> io::Result<Journal> {
        let invalid = |reason: String| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {reason}", path.display()),
            )
        };
        let header = header(kind, fields);
        let file = match OpenOptions::new().read(true).write(true).open(path) {
            Ok(file) => Some(file),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        // End of the last kept line; `None` until a whole header was read.
        let mut kept_len = None;
        if let Some(file) = &file {
            let mut reader = BufReader::new(file);
            let mut buf = Vec::new();
            let mut offset = 0u64;
            // A line without its `\n` is a torn tail and ends the replay.
            while reader.read_until(b'\n', &mut buf)? > 0 && buf.ends_with(b"\n") {
                let line = &buf[..buf.len() - 1];
                let end = offset + buf.len() as u64;
                if kept_len.is_none() {
                    check_header(kind, &header, line).map_err(invalid)?;
                    kept_len = Some(end);
                } else if keep(offset, line).map_err(invalid)? {
                    kept_len = Some(end);
                }
                offset = end;
                buf.clear();
            }
        }
        let file = match (file, kept_len) {
            (Some(mut file), Some(len)) => {
                file.set_len(len)?;
                file.seek(SeekFrom::End(0))?;
                file
            }
            _ => {
                let mut file = File::create(path)?;
                writeln!(file, "{header}")?;
                file
            }
        };
        Ok(Journal { file })
    }

    /// Appends one line (the journal adds the `\n`). Not durable until
    /// [`sync`](Self::sync).
    pub fn append(&mut self, line: &str) -> io::Result<()> {
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")
    }

    /// Makes every line appended so far durable.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

fn header(kind: &Kind, fields: &[(&str, u64)]) -> Json {
    let mut pairs = vec![
        (kind.key.to_string(), Json::Str(kind.magic.into())),
        ("version".into(), Json::Num(kind.version as i128)),
    ];
    for &(name, value) in fields {
        pairs.push((name.to_string(), Json::Num(value as i128)));
    }
    Json::Obj(pairs)
}

fn check_header(kind: &Kind, expected: &Json, line: &[u8]) -> Result<(), String> {
    let found = std::str::from_utf8(line)
        .ok()
        .and_then(|line| Json::parse(line).ok());
    match found {
        Some(found) if found == *expected => Ok(()),
        Some(found) if found.get(kind.key).and_then(Json::as_str) == Some(kind.magic) => {
            if found.get("version").and_then(Json::as_u64) != Some(kind.version) {
                Err(format!("unsupported {} journal version", kind.key))
            } else {
                Err(format!(
                    "{} journal belongs to a different engine configuration \
                     (header {found}, expected {expected})",
                    kind.key
                ))
            }
        }
        _ => Err(format!("not a {} journal", kind.key)),
    }
}

/// The record checksum both journals store as `"sum"`: 64-bit FNV-1a over
/// the record's key, the journal's config fingerprint in decimal and the
/// record's canonical payload, joined by `:`. It is hashed chunk by chunk,
/// so the joined text is never built. Payloads are written canonically, so
/// a loader may check the sum over the stored payload bytes as they are,
/// provided its decoder accepts only canonical bytes (the cache store's
/// strict report reader does); the checkpoint loader checks it over its
/// parsed payload serialized again. Either way any stored bit that
/// changes the content changes the sum.
pub(crate) fn checksum(key: &[u8], config_fp: u64, payload: &[u8]) -> u64 {
    let mut digits = [0u8; 20];
    let mut rest = &mut digits[..];
    write!(rest, "{config_fp}").expect("20 digits hold any u64");
    let len = 20 - rest.len();
    [key, b":", &digits[..len], b":", payload]
        .iter()
        .fold(FNV1A_64_BASIS, |h, chunk| fnv1a_64(h, chunk))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_hashes_the_colon_joined_record() {
        let joined = format!("{}:{}:{}", "00ab", u64::MAX, "{\"x\":1}");
        assert_eq!(
            checksum(b"00ab", u64::MAX, b"{\"x\":1}"),
            fnv1a_64(FNV1A_64_BASIS, joined.as_bytes())
        );
    }
}
