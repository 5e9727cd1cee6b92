//! The CRC-framed append log: the one on-disk record store.
//!
//! Campaign checkpoints ([`crate::checkpoint::open_log`]) and the serve
//! daemon's job journal are both this log: an append-only file of JSON
//! records, each appended with one `write` followed by `fdatasync`, so a
//! `kill -9` loses at most the record in flight.  [`replay_bytes`] treats
//! any framing, CRC or parse failure as that torn tail: it keeps the valid
//! prefix and reports the rest, so one interrupted append can never wedge
//! a restart.  [`Journal::rewrite`] replaces a log with a compacted one.
//!
//! # Framing
//!
//! ```text
//! ┌────────────┬────────────┬──────────────────┐
//! │ len u32 LE │ crc u32 LE │ payload (len B)  │  … repeated
//! └────────────┴────────────┴──────────────────┘
//! ```
//!
//! `crc` is CRC-32 (IEEE) of the payload bytes; the payload is one JSON
//! record in canonical encoding.

use crate::json::Json;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Hard cap on one record's payload (8 MiB, the serve wire's frame cap):
/// a longer record is refused on write, and a length prefix beyond this
/// is treated as tail corruption on replay.
const MAX_RECORD_BYTES: usize = 8 * 1024 * 1024;

const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
            j += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3) of `bytes`.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Frames one record: length prefix, CRC, canonical JSON payload.
pub fn frame(record: &Json) -> Vec<u8> {
    let payload = record.to_string();
    let mut framed = Vec::with_capacity(8 + payload.len());
    framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    framed.extend_from_slice(&crc32(payload.as_bytes()).to_le_bytes());
    framed.extend_from_slice(payload.as_bytes());
    framed
}

/// [`frame`], refusing a record over [`MAX_RECORD_BYTES`]: written, it
/// would read back as corruption and cut off every record after it.
fn checked_frame(record: &Json) -> io::Result<Vec<u8>> {
    let framed = frame(record);
    let len = framed.len() - 8;
    if len > MAX_RECORD_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("a {len}-byte record exceeds the {MAX_RECORD_BYTES}-byte cap"),
        ));
    }
    Ok(framed)
}

/// An open log: appends are serialized and fsync'd.
#[derive(Debug)]
pub struct Journal {
    file: Mutex<File>,
    path: PathBuf,
}

impl Journal {
    /// Opens (creating it and its directory if needed) the log at `path`
    /// for appending.
    pub fn open(path: &Path) -> io::Result<Journal> {
        create_parent(path)?;
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Journal {
            file: Mutex::new(file),
            path: path.to_path_buf(),
        })
    }

    /// Atomically replaces the log at `path` with one carrying exactly
    /// `records` (temp file, fsync, rename), then reopens it for
    /// appending.  Compacting a replayed log this way keeps it from
    /// growing without bound across restarts.
    pub fn rewrite(path: &Path, records: &[Json]) -> io::Result<Journal> {
        let mut bytes = Vec::new();
        for record in records {
            bytes.extend(checked_frame(record)?);
        }
        create_parent(path)?;
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_data()?;
        }
        fs::rename(&tmp, path)?;
        // Make the rename itself durable where the platform allows it.
        if let Some(dir) = path.parent().and_then(|dir| File::open(dir).ok()) {
            let _ = dir.sync_all();
        }
        Journal::open(path)
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and syncs it to disk.
    pub fn append(&self, record: &Json) -> io::Result<()> {
        let framed = checked_frame(record)?;
        let file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        let mut file = &*file;
        file.write_all(&framed)?;
        file.sync_data()?;
        sfi_obs::metrics().journal_appends.inc();
        Ok(())
    }

    /// [`append`](Self::append), downgrading failures to a warning on
    /// stderr: a full disk must not take a campaign or the scheduler down
    /// with it.
    pub fn append_best_effort(&self, record: &Json) {
        if let Err(err) = self.append(record) {
            eprintln!("warning: append to {} failed: {err}", self.path.display());
        }
    }
}

fn create_parent(path: &Path) -> io::Result<()> {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => fs::create_dir_all(dir),
        _ => Ok(()),
    }
}

/// Replays the log at `path`: a missing file is an empty log, and a torn
/// tail is reported on stderr and dropped (see [`replay_bytes`]).
pub fn replay_file(path: &Path) -> io::Result<Vec<Json>> {
    let data = match fs::read(path) {
        Ok(data) => data,
        Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(err) => return Err(err),
    };
    let (records, warning) = replay_bytes(&data);
    if let Some(warning) = warning {
        eprintln!(
            "warning: log {} has a torn tail ({warning}); \
             recovered {} record(s), discarding the rest",
            path.display(),
            records.len()
        );
    }
    Ok(records)
}

/// Decodes framed records from `data`; the second element describes the
/// torn or corrupt tail — short header, short payload, implausible length,
/// CRC mismatch or an unparsable record — if one was found.
pub fn replay_bytes(data: &[u8]) -> (Vec<Json>, Option<String>) {
    let metrics = sfi_obs::metrics();
    let mut records = Vec::new();
    let mut offset = 0usize;
    while offset < data.len() {
        let remaining = &data[offset..];
        if remaining.len() < 8 {
            return (
                records,
                Some(format!("{} trailing header byte(s)", remaining.len())),
            );
        }
        let word = |at: usize| {
            u32::from_le_bytes(remaining[at..at + 4].try_into().expect("a 4-byte slice"))
        };
        let (len, crc) = (word(0) as usize, word(4));
        if len > MAX_RECORD_BYTES {
            return (
                records,
                Some(format!(
                    "implausible record length {len} at offset {offset}"
                )),
            );
        }
        if remaining.len() < 8 + len {
            return (
                records,
                Some(format!(
                    "record at offset {offset} is truncated ({} of {len} payload bytes)",
                    remaining.len() - 8
                )),
            );
        }
        let payload = &remaining[8..8 + len];
        if crc32(payload) != crc {
            return (records, Some(format!("CRC mismatch at offset {offset}")));
        }
        let record = match std::str::from_utf8(payload)
            .ok()
            .and_then(|text| Json::parse(text).ok())
        {
            Some(record) => record,
            None => {
                return (
                    records,
                    Some(format!("unparsable record at offset {offset}")),
                )
            }
        };
        records.push(record);
        metrics.journal_replayed.inc();
        offset += 8 + len;
    }
    (records, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_log(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sfi-log-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir.join("test.log")
    }

    fn record(index: u64) -> Json {
        Json::obj([
            ("cell", Json::Num(index as f64)),
            ("stopped_early", Json::Bool(false)),
        ])
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn a_missing_journal_is_an_empty_journal() {
        let path = temp_log("missing");
        assert!(replay_file(&path).expect("replays").is_empty());
    }

    #[test]
    fn a_torn_tail_recovers_the_prefix() {
        let path = temp_log("torn");
        let journal = Journal::open(&path).expect("opens");
        journal.append(&record(0)).expect("appends");
        journal.append(&record(1)).expect("appends");
        drop(journal);

        // Tear the file mid-record: a partial third append.
        let mut data = fs::read(&path).expect("reads");
        let intact = data.len();
        data.extend_from_slice(&frame(&record(2)));
        data.truncate(intact + 11);
        fs::write(&path, &data).expect("writes");

        let replayed = replay_file(&path).expect("tolerates the tear");
        assert_eq!(
            replayed,
            vec![record(0), record(1)],
            "the intact prefix survives"
        );
        let (_, warning) = replay_bytes(&fs::read(&path).expect("reads"));
        assert!(warning.is_some(), "the tear is reported");
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn a_corrupt_crc_discards_the_tail_not_the_prefix() {
        let path = temp_log("crc");
        let journal = Journal::open(&path).expect("opens");
        journal.append(&record(0)).expect("appends");
        journal.append(&record(1)).expect("appends");
        drop(journal);

        // Flip one payload byte of the *last* record.
        let mut data = fs::read(&path).expect("reads");
        let last = data.len() - 1;
        data[last] ^= 0x20;
        fs::write(&path, &data).expect("writes");

        let (records, warning) = replay_bytes(&fs::read(&path).expect("reads"));
        assert_eq!(records, vec![record(0)]);
        assert!(warning.unwrap().contains("CRC mismatch"));
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn an_implausible_length_prefix_is_treated_as_corruption() {
        let mut data = frame(&Json::obj([]));
        data.extend_from_slice(&u32::MAX.to_le_bytes());
        data.extend_from_slice(&[0, 0, 0, 0]);
        let (records, warning) = replay_bytes(&data);
        assert_eq!(records.len(), 1);
        assert!(warning.unwrap().contains("implausible"));
    }

    #[test]
    fn an_oversized_record_is_refused_and_the_log_stays_whole() {
        let path = temp_log("oversized");
        let journal = Journal::open(&path).expect("opens");
        journal.append(&record(0)).expect("appends");
        let huge = Json::Str("x".repeat(MAX_RECORD_BYTES));
        assert!(journal.append(&huge).is_err());
        journal.append(&record(1)).expect("appends");
        drop(journal);
        assert_eq!(
            replay_file(&path).expect("replays"),
            vec![record(0), record(1)]
        );
        assert!(Journal::rewrite(&path, &[huge]).is_err());
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn rewrite_replaces_the_log_and_stays_appendable() {
        let path = temp_log("rewrite");
        let journal = Journal::open(&path).expect("opens");
        for index in 0..4 {
            journal.append(&record(index)).expect("appends");
        }
        drop(journal);

        let journal = Journal::rewrite(&path, &[record(7)]).expect("rewrites");
        journal.append(&record(8)).expect("appends");
        drop(journal);
        assert_eq!(
            replay_file(&path).expect("replays"),
            vec![record(7), record(8)]
        );
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }
}
