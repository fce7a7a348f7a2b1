//! Append-only run ledger.
//!
//! One JSONL file (`<root>/runs.jsonl`) records every completed benchmark
//! run, keyed by a caller-computed content hash of the full run identity
//! (simulator configuration, policy, benchmark, instruction count). The
//! ledger itself is generic: it stores flat [`JsonObject`] records and
//! leaves key computation and record mapping to the simulation layer, so
//! this crate never depends on simulator types.
//!
//! Appends are flushed line-at-a-time, each line in a single write, so
//! concurrent appenders never tear each other's lines; a torn final line
//! (interrupted write) is skipped on load, so a crash mid-append loses at
//! most the run being written, never the ledger.

use crate::archive::append_line;
use crate::hash::{hex16, parse_hex16};
use crate::json::JsonObject;
use crate::StoreError;
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

/// The on-disk run ledger.
#[derive(Debug)]
pub struct RunLedger {
    path: PathBuf,
    records: HashMap<u64, JsonObject>,
}

impl RunLedger {
    /// Opens (creating the directory if needed) the ledger at
    /// `store_root/runs.jsonl` and loads all existing records.
    pub fn open(store_root: &Path) -> Result<RunLedger, StoreError> {
        fs::create_dir_all(store_root).map_err(|e| StoreError::io("create store dir", e))?;
        let path = store_root.join("runs.jsonl");
        let mut records = HashMap::new();
        if path.exists() {
            let text =
                fs::read_to_string(&path).map_err(|e| StoreError::io("read run ledger", e))?;
            for line in text.lines() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let Ok(obj) = JsonObject::parse(line) else { continue };
                let Some(key) = obj.str_field("key").and_then(parse_hex16) else { continue };
                // Later lines win, mirroring append order.
                records.insert(key, obj);
            }
        }
        Ok(RunLedger { path, records })
    }

    /// Whether a record exists for `key`.
    pub fn contains(&self, key: u64) -> bool {
        self.records.contains_key(&key)
    }

    /// The record stored under `key`, if any.
    pub fn get(&self, key: u64) -> Option<&JsonObject> {
        self.records.get(&key)
    }

    /// Appends `record` under `key`. The `"key"` field is stamped into the
    /// record automatically; any caller-set `"key"` is overwritten.
    pub fn append(&mut self, key: u64, mut record: JsonObject) -> Result<(), StoreError> {
        record.set_str("key", &hex16(key));
        append_line(&self.path, &record.to_json())?;
        self.records.insert(key, record);
        Ok(())
    }

    /// Number of distinct keys in the ledger.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the ledger holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over all `(key, record)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &JsonObject)> {
        self.records.iter().map(|(&k, v)| (k, v))
    }

    /// Scans the full append-order history of the ledger at `store_root`,
    /// including superseded revisions of rewritten keys — the raw material
    /// for "when did this metric regress?" questions, which the in-memory
    /// latest-wins map cannot answer. Torn or malformed lines are skipped,
    /// mirroring [`RunLedger::open`]; `seq` numbers the surviving lines in
    /// file order, so two scans of an append-only file agree on every
    /// prefix.
    pub fn scan(store_root: &Path) -> Result<Vec<LedgerLine>, StoreError> {
        let path = store_root.join("runs.jsonl");
        let mut out = Vec::new();
        if !path.exists() {
            return Ok(out);
        }
        let text = fs::read_to_string(&path).map_err(|e| StoreError::io("scan run ledger", e))?;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let Ok(record) = JsonObject::parse(line) else { continue };
            let Some(key) = record.str_field("key").and_then(parse_hex16) else { continue };
            out.push(LedgerLine { seq: out.len() as u64, key, record });
        }
        Ok(out)
    }
}

/// One surviving line of a ledger history scan ([`RunLedger::scan`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerLine {
    /// Position among the surviving lines, in append order from 0.
    pub seq: u64,
    /// The run key the line was recorded under.
    pub key: u64,
    /// The full record, `"key"` field included.
    pub record: JsonObject,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("chirp-store-ledger-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn record(policy: &str, mpki: f64) -> JsonObject {
        let mut obj = JsonObject::new();
        obj.set_str("policy", policy).set_f64("mpki", mpki);
        obj
    }

    #[test]
    fn append_then_reload_preserves_records() {
        let root = tmpdir("reload");
        let mut ledger = RunLedger::open(&root).unwrap();
        assert!(ledger.is_empty());
        ledger.append(7, record("lru", 12.5)).unwrap();
        ledger.append(9, record("chirp", 8.25)).unwrap();
        assert_eq!(ledger.len(), 2);

        let reopened = RunLedger::open(&root).unwrap();
        assert_eq!(reopened.len(), 2);
        assert!(reopened.contains(7));
        let rec = reopened.get(9).unwrap();
        assert_eq!(rec.str_field("policy"), Some("chirp"));
        assert_eq!(rec.f64_field("mpki"), Some(8.25));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn rewritten_key_takes_latest_value() {
        let root = tmpdir("rewrite");
        let mut ledger = RunLedger::open(&root).unwrap();
        ledger.append(1, record("lru", 1.0)).unwrap();
        ledger.append(1, record("lru", 2.0)).unwrap();
        assert_eq!(ledger.len(), 1);
        let reopened = RunLedger::open(&root).unwrap();
        assert_eq!(reopened.get(1).unwrap().f64_field("mpki"), Some(2.0));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn scan_preserves_history_that_the_map_collapses() {
        let root = tmpdir("scan");
        let mut ledger = RunLedger::open(&root).unwrap();
        ledger.append(1, record("lru", 1.0)).unwrap();
        ledger.append(2, record("chirp", 9.0)).unwrap();
        ledger.append(1, record("lru", 2.0)).unwrap();
        assert_eq!(ledger.len(), 2, "map keeps latest per key");

        let lines = RunLedger::scan(&root).unwrap();
        assert_eq!(lines.len(), 3, "scan keeps superseded revisions");
        assert_eq!(lines.iter().map(|l| l.seq).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(lines[0].key, 1);
        assert_eq!(lines[0].record.f64_field("mpki"), Some(1.0));
        assert_eq!(lines[2].key, 1);
        assert_eq!(lines[2].record.f64_field("mpki"), Some(2.0));
        assert!(RunLedger::scan(&root.join("absent")).unwrap().is_empty());
        let _ = fs::remove_dir_all(&root);
    }

    /// Several threads, each appending through its own ledger handle, hit
    /// one file at once: every line must come back whole. Each record
    /// carries a 4 KiB field, so a line that left in more than one write
    /// would give the other appenders a wide window to tear it.
    #[test]
    fn concurrent_appenders_never_tear_a_line() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 200;
        let root = tmpdir("concurrent");
        let pad = "x".repeat(4096);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (root, pad) = (&root, &pad);
                scope.spawn(move || {
                    let mut ledger = RunLedger::open(root).unwrap();
                    for i in 0..PER_THREAD {
                        let mut rec = record("lru", i as f64);
                        rec.set_str("pad", pad);
                        ledger.append(t * PER_THREAD + i, rec).unwrap();
                    }
                });
            }
        });
        let text = fs::read_to_string(root.join("runs.jsonl")).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len() as u64, THREADS * PER_THREAD, "one line per append");
        for line in &lines {
            assert!(JsonObject::parse(line).is_ok(), "torn line: {}", &line[..line.len().min(80)]);
        }
        assert_eq!(RunLedger::open(&root).unwrap().len() as u64, THREADS * PER_THREAD);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_final_line_is_skipped() {
        let root = tmpdir("torn");
        let mut ledger = RunLedger::open(&root).unwrap();
        ledger.append(3, record("ship", 4.5)).unwrap();
        let path = root.join("runs.jsonl");
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("{\"key\":\"00000000000000");
        fs::write(&path, text).unwrap();
        let reopened = RunLedger::open(&root).unwrap();
        assert_eq!(reopened.len(), 1);
        assert!(reopened.contains(3));
        let _ = fs::remove_dir_all(&root);
    }
}
