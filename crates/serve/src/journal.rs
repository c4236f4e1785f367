//! The append-only job journal — the service's crash-recovery record.
//!
//! Every lifecycle transition appends one line: `<fnv16hex> <compact
//! JSON>\n`, checksum over the JSON bytes. Appends are flushed and
//! fsynced, so a kill leaves at most one torn record — the unchecksummed
//! tail — which replay drops (with a count) instead of choking on.
//! Startup replays the journal to rebuild job state, then rewrites it
//! compacted through a temp file + atomic rename, so the file never
//! grows without bound and a crash mid-compaction leaves the previous
//! journal intact.

use crate::hash::fnv1a64_hex;
use serde::Value;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A job was admitted (payload + content address).
    Accepted {
        /// Job id.
        id: u64,
        /// The job's JSON payload.
        payload: Value,
        /// Cache key under the executor version at admission.
        key: String,
    },
    /// An attempt began.
    Started {
        /// Job id.
        id: u64,
        /// 1-based attempt ordinal.
        attempt: u32,
    },
    /// The job completed; its result is in the cache under `key`.
    Completed {
        /// Job id.
        id: u64,
        /// Cache key holding the result payload.
        key: String,
    },
    /// The job exhausted its retries.
    DeadLettered {
        /// Job id.
        id: u64,
        /// Final diagnostic.
        error: String,
    },
}

impl Record {
    /// The record as a JSON value.
    pub fn to_value(&self) -> Value {
        match self {
            Record::Accepted { id, payload, key } => Value::Object(vec![
                ("rec".into(), Value::Str("accepted".into())),
                ("id".into(), Value::UInt(*id)),
                ("key".into(), Value::Str(key.clone())),
                ("payload".into(), payload.clone()),
            ]),
            Record::Started { id, attempt } => Value::Object(vec![
                ("rec".into(), Value::Str("started".into())),
                ("id".into(), Value::UInt(*id)),
                ("attempt".into(), Value::UInt(*attempt as u64)),
            ]),
            Record::Completed { id, key } => Value::Object(vec![
                ("rec".into(), Value::Str("completed".into())),
                ("id".into(), Value::UInt(*id)),
                ("key".into(), Value::Str(key.clone())),
            ]),
            Record::DeadLettered { id, error } => Value::Object(vec![
                ("rec".into(), Value::Str("dead_lettered".into())),
                ("id".into(), Value::UInt(*id)),
                ("error".into(), Value::Str(error.clone())),
            ]),
        }
    }

    /// Parses a record from its JSON value.
    pub fn from_value(v: &Value) -> Option<Record> {
        let id = v.get("id")?.as_u64()?;
        match v.get("rec")?.as_str()? {
            "accepted" => Some(Record::Accepted {
                id,
                payload: v.get("payload")?.clone(),
                key: v.get("key")?.as_str()?.to_string(),
            }),
            "started" => Some(Record::Started {
                id,
                attempt: v.get("attempt")?.as_u64()? as u32,
            }),
            "completed" => Some(Record::Completed {
                id,
                key: v.get("key")?.as_str()?.to_string(),
            }),
            "dead_lettered" => Some(Record::DeadLettered {
                id,
                error: v.get("error")?.as_str()?.to_string(),
            }),
            _ => None,
        }
    }
}

/// An open journal, append-mode.
pub struct Journal {
    path: PathBuf,
    file: File,
}

/// The result of replaying a journal file.
pub struct Replay {
    /// Verified records in append order.
    pub records: Vec<Record>,
    /// Lines dropped as torn or corrupt.
    pub dropped: usize,
}

fn encode(record: &Record) -> String {
    let json = serde_json::to_string(&record.to_value()).unwrap_or_else(|_| "null".into());
    format!("{} {json}\n", fnv1a64_hex(json.as_bytes()))
}

impl Journal {
    /// Opens (creating) a journal for appending.
    pub fn open(path: &Path) -> std::io::Result<Journal> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Journal {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Appends one record, flushed and fsynced before returning.
    pub fn append(&mut self, record: &Record) -> std::io::Result<()> {
        self.file.write_all(encode(record).as_bytes())?;
        self.file.flush()?;
        self.file.sync_data()
    }

    /// Replays a journal file. Missing file = empty journal. Torn,
    /// checksum-failing or non-UTF-8 lines are dropped and counted,
    /// never fatal; every other line replays whatever its neighbours
    /// hold.
    pub fn replay(path: &Path) -> Replay {
        let bytes = fs::read(path).unwrap_or_default();
        let mut records = Vec::new();
        let mut dropped = 0usize;
        let complete_tail = bytes.ends_with(b"\n");
        let lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
        for (i, line) in lines.iter().enumerate() {
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            if line.is_empty() {
                continue;
            }
            let torn_tail = i + 1 == lines.len() && !complete_tail;
            let parsed = std::str::from_utf8(line)
                .ok()
                .and_then(|line| line.split_once(' '))
                .and_then(|(sum, json)| {
                    if fnv1a64_hex(json.as_bytes()) != sum {
                        return None;
                    }
                    Record::from_value(&serde_json::from_str(json).ok()?)
                });
            match parsed {
                Some(rec) if !torn_tail => records.push(rec),
                // A record on an unterminated final line may itself be
                // torn mid-byte in a way FNV can't catch for empty
                // suffixes; only checksum-verified, newline-terminated
                // lines count.
                _ => dropped += 1,
            }
        }
        Replay { records, dropped }
    }

    /// Atomically rewrites the journal to exactly `records` (temp file
    /// + rename), then reopens the append handle on the new file.
    pub fn compact(&mut self, records: &[Record]) -> std::io::Result<()> {
        let tmp = self
            .path
            .with_extension(format!("tmp.{}", std::process::id()));
        {
            let mut f = File::create(&tmp)?;
            for rec in records {
                f.write_all(encode(rec).as_bytes())?;
            }
            f.sync_all()?;
        }
        fs::rename(&tmp, &self.path)?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "regshare-journal-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        d.join("journal.log")
    }

    fn sample() -> Vec<Record> {
        vec![
            Record::Accepted {
                id: 1,
                payload: serde_json::from_str("{\"kernel\":\"saxpy\"}").unwrap(),
                key: "abc".into(),
            },
            Record::Started { id: 1, attempt: 1 },
            Record::Completed {
                id: 1,
                key: "abc".into(),
            },
            Record::DeadLettered {
                id: 2,
                error: "deadline after 3 attempts".into(),
            },
        ]
    }

    #[test]
    fn append_then_replay_round_trips() {
        let path = tmp_path("roundtrip");
        let mut j = Journal::open(&path).unwrap();
        for rec in sample() {
            j.append(&rec).unwrap();
        }
        let replay = Journal::replay(&path);
        assert_eq!(replay.records, sample());
        assert_eq!(replay.dropped, 0);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let path = tmp_path("torn");
        let mut j = Journal::open(&path).unwrap();
        for rec in sample() {
            j.append(&rec).unwrap();
        }
        // Simulate a kill mid-append: chop the file mid-final-record.
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() - 7]).unwrap();
        let replay = Journal::replay(&path);
        assert_eq!(replay.records.len(), sample().len() - 1);
        assert_eq!(replay.dropped, 1);
    }

    #[test]
    fn corrupt_line_is_dropped_and_counted() {
        let path = tmp_path("corrupt");
        let mut j = Journal::open(&path).unwrap();
        for rec in sample() {
            j.append(&rec).unwrap();
        }
        let text = fs::read_to_string(&path).unwrap();
        // Flip a byte inside the second line's JSON.
        let poisoned = text.replacen("\"attempt\":1", "\"attempt\":7", 1);
        assert_ne!(text, poisoned);
        fs::write(&path, poisoned).unwrap();
        let replay = Journal::replay(&path);
        assert_eq!(replay.dropped, 1);
        assert_eq!(replay.records.len(), sample().len() - 1);
        assert!(matches!(replay.records[0], Record::Accepted { id: 1, .. }));
    }

    #[test]
    fn missing_file_is_an_empty_journal() {
        let replay = Journal::replay(Path::new("/nonexistent/journal.log"));
        assert!(replay.records.is_empty());
        assert_eq!(replay.dropped, 0);
    }

    #[test]
    fn compact_rewrites_then_appends() {
        let path = tmp_path("compact");
        let mut j = Journal::open(&path).unwrap();
        for rec in sample() {
            j.append(&rec).unwrap();
        }
        let keep = vec![sample()[0].clone()];
        j.compact(&keep).unwrap();
        j.append(&Record::Started { id: 1, attempt: 2 }).unwrap();
        let replay = Journal::replay(&path);
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[1], Record::Started { id: 1, attempt: 2 });
    }
}

/// Robustness fuzzing: replay must answer any file — arbitrary bytes, a
/// journal with corrupted bytes, or one cut short — with the records of
/// its intact lines and a drop count, never a panic or a hang.
#[cfg(test)]
mod fuzz {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    static CASE: AtomicUsize = AtomicUsize::new(0);

    /// Writes `bytes` to a fresh journal file and replays it on a helper
    /// thread: a panic or a replay still running after five seconds
    /// fails the property.
    fn replay(bytes: &[u8]) -> Replay {
        let dir = std::env::temp_dir().join(format!(
            "regshare-journal-fuzz-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.log");
        fs::write(&path, bytes).unwrap();
        let shown = String::from_utf8_lossy(&bytes[..bytes.len().min(80)]).into_owned();
        let (tx, rx) = mpsc::channel();
        let thread_path = path.clone();
        std::thread::spawn(move || {
            let _ = tx.send(Journal::replay(&thread_path));
        });
        let result = rx.recv_timeout(Duration::from_secs(5));
        let _ = fs::remove_dir_all(&dir);
        match result {
            Ok(replay) => replay,
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("replay hung on {shown:?}"),
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("replay panicked on {shown:?}"),
        }
    }

    fn sample() -> Vec<Record> {
        vec![
            Record::Accepted {
                id: 1,
                payload: serde_json::from_str("{\"kernel\":\"saxpy\",\"regs\":[64,96]}").unwrap(),
                key: "abc".into(),
            },
            Record::Started { id: 1, attempt: 1 },
            Record::Completed {
                id: 1,
                key: "abc".into(),
            },
            Record::DeadLettered {
                id: 2,
                error: "deadline after 3 attempts: \u{e9}t\u{e9}".into(),
            },
        ]
    }

    /// The sample journal's lines, each with its newline.
    fn lines() -> Vec<String> {
        sample().iter().map(encode).collect()
    }

    /// The records whose encoded lines appear intact and terminated in
    /// `bytes`, in order: what replay must recover.
    fn intact(bytes: &[u8]) -> Vec<Record> {
        let mut out = Vec::new();
        let mut rest = bytes;
        while let Some(end) = rest.iter().position(|&b| b == b'\n') {
            let line = &rest[..=end];
            if let Some(k) = lines().iter().position(|l| l.as_bytes() == line) {
                out.push(sample()[k].clone());
            }
            rest = &rest[end + 1..];
        }
        out
    }

    /// A byte that is not valid UTF-8 used to empty the whole journal
    /// (the file was read as one string); now it costs only its line.
    #[test]
    fn a_non_utf8_byte_drops_only_its_line() {
        let mut bytes = lines().concat().into_bytes();
        let second = lines()[0].len() + 3;
        bytes[second] = 0xff;
        let r = replay(&bytes);
        assert_eq!(r.dropped, 1);
        assert_eq!(r.records.len(), sample().len() - 1);
        assert_eq!(r.records[0], sample()[0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
            let r = replay(&bytes);
            let nonempty = bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()).count();
            prop_assert!(r.records.len() + r.dropped <= nonempty);
        }

        #[test]
        fn corrupted_journals_keep_their_intact_lines(
            edits in prop::collection::vec((any::<usize>(), any::<u8>()), 1..6),
        ) {
            let mut bytes = lines().concat().into_bytes();
            for &(at, b) in &edits {
                let n = bytes.len();
                bytes[at % n] = b;
            }
            prop_assert_eq!(replay(&bytes).records, intact(&bytes));
        }

        #[test]
        fn truncated_journals_lose_only_the_torn_tail(keep in 0usize..400) {
            let mut bytes = lines().concat().into_bytes();
            bytes.truncate(keep);
            let r = replay(&bytes);
            prop_assert_eq!(&r.records, &intact(&bytes));
            let torn = !bytes.is_empty() && !bytes.ends_with(b"\n");
            prop_assert_eq!(r.dropped, torn as usize);
        }
    }
}
