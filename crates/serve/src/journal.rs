//! Durability: the append-only event journal and its snapshot compaction.
//!
//! On disk a registry directory holds at most three files:
//!
//! * `journal.jsonl` — one JSON object per line, `{"seq": N, "ev": ...}`,
//!   appended and flushed **before** the daemon acknowledges the event's
//!   effect to any client. Sequence numbers are monotone across the whole
//!   directory lifetime (they never reset at compaction).
//! * `snapshot.json` — a full registry image plus the `seq` of the last
//!   event it covers. Written by compaction.
//! * `snapshot.json.tmp` — compaction scratch; atomically renamed over
//!   `snapshot.json`. A leftover `.tmp` is ignored at recovery.
//!
//! Compaction order is: write `.tmp`, fsync, rename over `snapshot.json`,
//! then truncate `journal.jsonl`. A `kill -9` between the rename and the
//! truncate leaves journal records with `seq` ≤ the snapshot's — recovery
//! skips those, so replay is idempotent. A `kill -9` mid-append leaves a
//! truncated final line — recovery drops it (that event was never
//! acknowledged, so nothing observable is lost). Both cases are exercised
//! by `tests/prop_journal.rs`. Only a final record with no newline after
//! it can be torn: any malformed newline-terminated record (bad JSON, no
//! `seq`, invalid UTF-8), the last one included, is corruption of an
//! acknowledged event, and recovery refuses with `InvalidData` naming its
//! line rather than drop it and everything after it.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use pobp_core::{obs_count, obs_event};
use pobp_engine::IoGuard;

use crate::json::{obj, Json};
use crate::registry::{Event, Registry};

/// Default number of journal appends between snapshot compactions.
pub const DEFAULT_COMPACT_EVERY: u64 = 256;

/// What recovery found on disk (surfaced in the daemon's startup line and
/// the `stats` op).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Journal sequence number of the snapshot that seeded the registry
    /// (0 = no snapshot).
    pub snapshot_seq: u64,
    /// Journal records replayed on top of the snapshot.
    pub replayed: u64,
    /// Records skipped because the snapshot already covered them
    /// (crash between compaction's rename and truncate).
    pub skipped: u64,
    /// Whether a truncated/corrupt tail line was dropped
    /// (crash mid-append).
    pub dropped_tail: bool,
}

/// The open journal: owns the append handle and the compaction cadence.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    file: File,
    /// Sequence number of the last record written (or recovered).
    seq: u64,
    /// Appends since the last snapshot; drives compaction cadence.
    pending: u64,
    compact_every: u64,
    /// Total compactions performed by this handle.
    compactions: u64,
    /// Every durable write goes through the guard — inert in default
    /// builds, armable with the io-* chaos sites (docs/sweeps.md).
    guard: IoGuard,
    /// Set when an append failed mid-line: the file may carry a torn tail,
    /// and appending onto it would corrupt the next record. Further
    /// appends are refused until a successful compaction truncates the
    /// journal back to a clean state.
    poisoned: bool,
}

impl Journal {
    /// Opens (creating if needed) the registry directory, recovers the
    /// registry state from snapshot + journal, and returns the journal
    /// positioned to append.
    pub fn open(
        dir: &Path,
        compact_every: u64,
    ) -> io::Result<(Journal, Registry, RecoveryReport)> {
        fs::create_dir_all(dir)?;
        let (registry, seq, report) = replay_dir(dir)?;
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(dir.join("journal.jsonl"))?;
        let pending = report.replayed;
        let compact_every = compact_every.max(1);
        obs_event!("serve.recover.replayed", report.replayed);
        let mut journal = Journal {
            dir: dir.to_path_buf(),
            file,
            seq,
            pending,
            compact_every,
            compactions: 0,
            guard: IoGuard::inert(),
            poisoned: false,
        };
        // A crash mid-append can leave the file without a final newline —
        // either a torn half-record, or a complete record whose newline
        // never landed. Appending onto such a file would corrupt the next
        // record. Snapshot now: that truncates the journal to a clean state
        // while preserving everything recovered.
        if report.dropped_tail || !ends_with_newline(&journal.file)? {
            journal.compact(&registry)?;
        }
        Ok((journal, registry, report))
    }

    /// Arms the io-* fault sites under every subsequent append/compaction
    /// (`pobp serve --chaos`; see docs/sweeps.md for the sites).
    #[cfg(feature = "chaos")]
    pub fn set_chaos(&mut self, plan: std::sync::Arc<pobp_engine::FaultPlan>, key: u64) {
        self.guard = IoGuard::armed(plan, key);
    }

    /// Appends one event and flushes it to the OS before returning, so a
    /// subsequent `kill -9` cannot lose it. Returns the record's sequence
    /// number. On an IO failure the journal poisons itself — the file may
    /// hold a torn tail, and blindly appending more records onto it would
    /// break the one-torn-line recovery assumption — until a compaction
    /// re-establishes a clean file.
    pub fn append(&mut self, event: &Event) -> io::Result<u64> {
        if self.poisoned {
            return Err(io::Error::other(
                "journal poisoned by an earlier append failure (awaiting compaction)",
            ));
        }
        self.seq += 1;
        let mut record = event.to_json();
        if let Json::Obj(pairs) = &mut record {
            pairs.insert(0, ("seq".into(), Json::Num(self.seq as f64)));
        }
        let line = record.to_string();
        if let Err(e) = self
            .guard
            .append_line(&mut self.file, line.as_bytes())
            .and_then(|()| self.file.flush())
        {
            self.seq -= 1;
            self.poisoned = true;
            obs_count!("serve.journal.append_failures");
            return Err(e);
        }
        self.pending += 1;
        obs_count!("serve.journal.appends");
        Ok(self.seq)
    }

    /// Compacts if the append cadence says so. Returns whether a snapshot
    /// was written.
    pub fn maybe_compact(&mut self, registry: &Registry) -> io::Result<bool> {
        if self.pending < self.compact_every {
            return Ok(false);
        }
        self.compact(registry)?;
        Ok(true)
    }

    /// Unconditionally snapshots `registry` and truncates the journal.
    pub fn compact(&mut self, registry: &Registry) -> io::Result<()> {
        let tmp = self.dir.join("snapshot.json.tmp");
        let snap = self.dir.join("snapshot.json");
        let mut bytes = registry.to_snapshot_json(self.seq).to_string().into_bytes();
        bytes.push(b'\n');
        self.guard.write_file_bytes(&tmp, &bytes)?;
        self.guard.rename(&tmp, &snap)?;
        // Crash window: snapshot covers seq ≤ self.seq, journal still holds
        // those records. Recovery skips them, so this truncate is merely an
        // optimisation that can safely be lost.
        self.file.set_len(0)?;
        self.pending = 0;
        self.compactions += 1;
        // The journal file is empty again: any torn tail from a failed
        // append is gone, so appends are safe once more.
        self.poisoned = false;
        obs_count!("serve.journal.compactions");
        Ok(())
    }

    /// Sequence number of the last record written.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Total compactions performed by this handle.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Current size of the journal file in bytes (0 if unreadable).
    pub fn bytes(&self) -> u64 {
        self.file.metadata().map(|m| m.len()).unwrap_or(0)
    }

    /// Whether an append failure has poisoned the journal (appends are
    /// refused until a compaction truncates it clean).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }
}

/// Whether the (append-mode) journal file is empty or ends with `\n` —
/// i.e. safe to append a fresh line to.
fn ends_with_newline(file: &File) -> io::Result<bool> {
    use std::io::Seek;
    let len = file.metadata()?.len();
    if len == 0 {
        return Ok(true);
    }
    let mut f = file.try_clone()?;
    f.seek(io::SeekFrom::End(-1))?;
    let mut last = [0u8; 1];
    f.read_exact(&mut last)?;
    Ok(last[0] == b'\n')
}

/// Pure read-side recovery: reconstructs the registry a fresh daemon would
/// start from, without opening the directory for writing. The soak
/// harness's replay-identity invariant and the property tests use this
/// directly.
pub fn replay_dir(dir: &Path) -> io::Result<(Registry, u64, RecoveryReport)> {
    let mut report = RecoveryReport::default();
    let mut registry = Registry::new();
    let mut seq = 0u64;
    let snap_path = dir.join("snapshot.json");
    if let Ok(text) = fs::read_to_string(&snap_path) {
        let parsed = Json::parse(text.trim())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("snapshot: {e}")))?;
        let (reg, snap_seq) = Registry::from_snapshot_json(&parsed)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("snapshot: {e}")))?;
        registry = reg;
        seq = snap_seq;
        report.snapshot_seq = snap_seq;
    }
    let journal_path = dir.join("journal.jsonl");
    let mut bytes = Vec::new();
    match File::open(&journal_path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    // Split on raw bytes and decode each line on its own: invalid UTF-8 is
    // a malformed record, never lossily repaired. The last piece is the one
    // with no newline after it.
    let mut pieces = bytes.split(|&b| b == b'\n').enumerate().peekable();
    while let Some((i, raw)) = pieces.next() {
        let parsed = match std::str::from_utf8(raw) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => parse_record(line.trim()),
            Err(e) => Err(format!("invalid UTF-8 ({e})")),
        };
        let (record_seq, event) = match parsed {
            Ok(parsed) => parsed,
            // Only a final record with no newline after it can be a torn
            // append: the writer appends the newline last and nothing
            // follows an unfinished append. Drop it (it was never
            // acknowledged) and stop.
            Err(_) if pieces.peek().is_none() => {
                report.dropped_tail = true;
                break;
            }
            // A malformed newline-terminated record is corruption of an
            // acknowledged one. Recovering past it would silently lose it
            // and every later one, so refuse and leave the files as they
            // are.
            Err(why) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("journal.jsonl line {}: corrupt record ({why})", i + 1),
                ))
            }
        };
        if record_seq <= report.snapshot_seq {
            report.skipped += 1;
            continue;
        }
        // The writer numbers records consecutively from the snapshot's seq,
        // so a jump means acknowledged records went missing. Refuse, as for
        // a corrupt record, rather than replay around the hole.
        if record_seq != seq + 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "journal.jsonl line {}: seq gap (seq {record_seq} follows seq {seq})",
                    i + 1
                ),
            ));
        }
        registry.apply(&event);
        seq = record_seq;
        report.replayed += 1;
    }
    Ok((registry, seq, report))
}

/// Parses one journal line into its `(seq, event)`.
fn parse_record(line: &str) -> Result<(u64, Event), String> {
    let v = Json::parse(line).map_err(|e| format!("not JSON: {e}"))?;
    let seq = v.get("seq").and_then(Json::as_u64).ok_or("no numeric \"seq\"")?;
    Ok((seq, Event::from_json(&v)?))
}

/// Serialises a recovery report for the `stats` op.
pub fn recovery_json(r: &RecoveryReport) -> Json {
    obj([
        ("snapshot_seq", Json::Num(r.snapshot_seq as f64)),
        ("replayed", Json::Num(r.replayed as f64)),
        ("skipped", Json::Num(r.skipped as f64)),
        ("dropped_tail", Json::Bool(r.dropped_tail)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use pobp_engine::Algo;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("pobp-serve-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn submit_event(reg: &mut Registry, seed: u64) -> Event {
        let id = reg.allocate_id();
        Event::Submit { id, spec: JobSpec::cell(Algo::Reduction, 6, 1, seed) }
    }

    fn ok_result() -> Json {
        obj([("status", Json::Str("ok".into()))])
    }

    #[test]
    fn append_then_reopen_recovers_identical_registry() {
        let dir = tmpdir("reopen");
        let mut live = Registry::new();
        {
            let (mut j, recovered, _) = Journal::open(&dir, 1000).unwrap();
            assert!(recovered.is_empty());
            for seed in 0..5 {
                let ev = submit_event(&mut live, seed);
                j.append(&ev).unwrap();
                live.apply(&ev);
            }
            let ev = Event::Finish { id: 2, result: ok_result() };
            j.append(&ev).unwrap();
            live.apply(&ev);
        }
        let (_, recovered, report) = Journal::open(&dir, 1000).unwrap();
        assert_eq!(recovered, live);
        assert_eq!(report.replayed, 6);
        assert!(!report.dropped_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_preserves_state_and_skips_covered_records() {
        let dir = tmpdir("compact");
        let mut live = Registry::new();
        let (mut j, _, _) = Journal::open(&dir, 3).unwrap();
        for seed in 0..7 {
            let ev = submit_event(&mut live, seed);
            j.append(&ev).unwrap();
            live.apply(&ev);
            j.maybe_compact(&live).unwrap();
        }
        assert!(j.compactions() >= 2);
        // Simulate the crash window: re-append a record with a seq the
        // snapshot already covers, as if truncate had been lost.
        let stale = obj([
            ("seq", Json::Num(1.0)),
            ("ev", Json::Str("cancel".into())),
            ("id", Json::Num(1.0)),
        ]);
        let mut f = OpenOptions::new().append(true).open(dir.join("journal.jsonl")).unwrap();
        writeln!(f, "{stale}").unwrap();
        drop(f);
        let (recovered, _, report) = replay_dir(&dir).unwrap();
        assert_eq!(recovered, live, "stale pre-snapshot record must be skipped");
        assert_eq!(report.skipped, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_is_dropped_without_panic() {
        let dir = tmpdir("tail");
        let mut live = Registry::new();
        {
            let (mut j, _, _) = Journal::open(&dir, 1000).unwrap();
            for seed in 0..4 {
                let ev = submit_event(&mut live, seed);
                j.append(&ev).unwrap();
                live.apply(&ev);
            }
        }
        // Torn final append: half a record, no newline.
        let mut f = OpenOptions::new().append(true).open(dir.join("journal.jsonl")).unwrap();
        f.write_all(br#"{"seq":5,"ev":"submit","id":9,"spe"#).unwrap();
        drop(f);
        let (recovered, seq, report) = replay_dir(&dir).unwrap();
        assert_eq!(recovered, live);
        assert_eq!(seq, 4);
        assert!(report.dropped_tail);
        // Reopening auto-compacts past the torn tail, so fresh appends
        // land on a clean file instead of concatenating onto garbage.
        let (mut j, recovered2, report2) = Journal::open(&dir, 1000).unwrap();
        assert_eq!(recovered2, live);
        assert!(report2.dropped_tail);
        assert_eq!(j.compactions(), 1);
        let ev = submit_event(&mut live, 99);
        j.append(&ev).unwrap();
        live.apply(&ev);
        let (recovered3, _, _) = replay_dir(&dir).unwrap();
        assert_eq!(recovered3, live);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Writes a 15-line journal (5 jobs, each submitted, started and
    /// finished) and returns its bytes.
    fn fifteen_line_journal(dir: &Path) -> Vec<u8> {
        let mut live = Registry::new();
        let (mut j, _, _) = Journal::open(dir, 1000).unwrap();
        for seed in 0..5 {
            let ev = submit_event(&mut live, seed);
            let id = ev.id();
            for ev in [ev, Event::Start { id }, Event::Finish { id, result: ok_result() }] {
                j.append(&ev).unwrap();
                live.apply(&ev);
            }
        }
        drop(j);
        let bytes = fs::read(dir.join("journal.jsonl")).unwrap();
        assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), 15);
        bytes
    }

    /// Edits the lines of a 15-line journal with `edit`, expects recovery
    /// to refuse naming line `line` (1-based), and checks the directory is
    /// left byte-for-byte as it was.
    fn assert_refuses(tag: &str, line: usize, edit: impl FnOnce(&mut Vec<Vec<u8>>)) {
        let dir = tmpdir(tag);
        let mut lines: Vec<Vec<u8>> = fifteen_line_journal(&dir)
            .split(|&b| b == b'\n')
            .map(<[u8]>::to_vec)
            .collect();
        edit(&mut lines);
        let corrupt = lines.join(&b'\n');
        let path = dir.join("journal.jsonl");
        fs::write(&path, &corrupt).unwrap();

        for err in [replay_dir(&dir).unwrap_err(), Journal::open(&dir, 1000).unwrap_err()] {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(msg.contains(&format!("line {line}:")), "error must name line {line}: {msg}");
        }
        assert_eq!(fs::read(&path).unwrap(), corrupt, "journal must be left untouched");
        assert!(!dir.join("snapshot.json").exists(), "no compaction over a corrupt journal");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_middle_record_refuses_to_open_and_names_its_line() {
        assert_refuses("corrupt-seq", 2, |lines| {
            let line = &mut lines[1];
            let at = line.windows(5).position(|w| w == b"\"seq\"").unwrap();
            line[at + 2] = b'X'; // "seq" → "sXq"
        });
    }

    #[test]
    fn invalid_utf8_in_an_earlier_record_refuses_to_open() {
        assert_refuses("bad-utf8", 7, |lines| lines[6].insert(3, 0xFF));
    }

    #[test]
    fn corrupt_final_record_with_its_newline_refuses_to_open() {
        // A crash cannot leave a bad record followed by its newline, so
        // even the last one is corruption, not a torn append.
        assert_refuses("corrupt-last", 15, |lines| {
            let line = &mut lines[14];
            line.truncate(line.len() / 2)
        });
    }

    #[test]
    fn a_seq_gap_refuses_to_open_and_names_the_record_after_it() {
        // Deleting line 7 moves the record after the gap (seq 8) to line 7.
        assert_refuses("seq-gap", 7, |lines| {
            lines.remove(6);
        });
    }

    #[test]
    fn unterminated_malformed_final_record_is_a_dropped_tail() {
        let dir = tmpdir("bad-last");
        let bytes = fifteen_line_journal(&dir);
        let (clean, clean_seq, _) = replay_dir(&dir).unwrap();
        // Chop the last record in half, newline included: the shape a
        // kill mid-append leaves.
        let body = &bytes[..bytes.len() - 1];
        let start = body.iter().rposition(|&b| b == b'\n').unwrap() + 1;
        fs::write(dir.join("journal.jsonl"), &bytes[..start + (body.len() - start) / 2]).unwrap();
        let (recovered, seq, report) = replay_dir(&dir).unwrap();
        assert!(report.dropped_tail);
        assert_eq!(report.replayed, 14);
        assert_eq!(seq, clean_seq - 1);
        assert_ne!(recovered, clean, "the finish of job 5 was dropped");
        fs::remove_dir_all(&dir).unwrap();
    }
}
