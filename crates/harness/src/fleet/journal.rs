//! The supervisor's write-ahead log: an append-only, fsync'd JSONL journal
//! of one sweep's shard transitions, plus the replay logic `--resume` uses
//! to pick the sweep up after a crash.
//!
//! Durability contract, in order:
//!
//! 1. The first line records the sweep's [`SweepSpec`]: a state dir holds
//!    exactly one sweep, and resume refuses a command that differs from it.
//! 2. A shard's validated TSV report is written to the state dir and
//!    `sync_all`'d **before** its `shard-saved` event is journaled, so a
//!    journaled checkpoint always exists on disk (the digest in the event
//!    lets resume detect a corrupted one).
//! 3. Every journal append is a single `write_all` of one line followed by
//!    `sync_data`, so after a crash the journal is a prefix of the true
//!    history plus at most one torn final line.
//! 4. A torn final line is a transition that never became durable — replay
//!    drops it (it never happened), and [`Journal::open`] neutralizes it
//!    with a lone newline so later appends start on a fresh line.
//!
//! Replay is deliberately tolerant of *duplicates* (a shard re-run after a
//! corrupted checkpoint journals `shard-saved` again; last wins) and of
//! unparseable lines after the first (neutralized torn lines persist
//! mid-file across supervisor lives), but strict about *structure*: a
//! journal whose first line is not the sweep's spec, that records a second
//! sweep, or that references a shard outside the spec's partition belongs
//! to no sweep this binary can resume.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use super::spec::{FaultKind, FaultPlan, SweepSpec};
use crate::json::{self, escape_json, Json};

/// The journal's file name inside a `--state-dir`.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// The `semint_journal` marker this binary writes and reads: the journal
/// line format's one version.  Format 1 journals held several
/// daemon-assigned jobs, and a newer format is from a newer `semint`; both
/// are refused rather than misread.
pub const JOURNAL_FORMAT: u64 = 2;

/// The checkpoint file name for one shard inside a `--state-dir`.
pub fn checkpoint_name(shard: u64) -> String {
    format!("shard{shard}.tsv")
}

/// One durable sweep transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalEvent {
    /// The journal's first line: the validated spec of its one sweep.
    SweepStarted {
        /// The spec every later event belongs to.
        spec: SweepSpec,
    },
    /// A shard worker process was spawned.
    ShardStarted {
        /// Shard index (0-based).
        shard: u64,
        /// 0 = first issue, >0 = re-issue after a death.
        attempt: u64,
    },
    /// A shard's report was validated and checkpointed to the state dir.
    ShardSaved {
        /// Shard index (0-based).
        shard: u64,
        /// The attempt that produced the checkpoint.
        attempt: u64,
        /// Checkpoint file name, relative to the state dir.
        path: String,
        /// [`content_digest`] of the checkpoint bytes, for resume-time
        /// corruption detection.
        digest: String,
    },
    /// A shard attempt died (crash / wedge / bad report) and was re-issued.
    ShardDied {
        /// Shard index (0-based).
        shard: u64,
        /// The attempt that died.
        attempt: u64,
        /// The supervisor's classification of the death.
        reason: String,
    },
    /// A supervisor replayed this journal and took the sweep over.
    /// Everything before the *last* such marker predates the current
    /// supervisor's life.
    Resumed {
        /// How many digest-verified checkpoints it adopted.
        adopted: u64,
    },
}

fn render_spec(spec: &SweepSpec) -> String {
    let mut out = format!(
        "{{\"seeds_start\": {}, \"seeds_end\": {}, \"profile\": \"{}\", \"case\": \"{}\", \
         \"workers\": {}, \"jobs\": {}, \"batch\": {}, \"model_check\": {}",
        spec.seeds.0,
        spec.seeds.1,
        escape_json(&spec.profile),
        escape_json(&spec.case),
        spec.workers,
        spec.jobs,
        spec.batch,
        spec.model_check,
    );
    if let Some(fault) = spec.fault {
        out.push_str(&format!(
            ", \"fault_shard\": {}, \"fault_after\": {}, \"fault_kind\": \"{}\"",
            fault.shard,
            fault.after,
            fault.kind.label()
        ));
    }
    out.push('}');
    out
}

fn parse_spec(doc: &Json) -> Result<SweepSpec, String> {
    let fault = match doc.get("fault_shard") {
        None => None,
        Some(shard) => Some(FaultPlan {
            shard: shard.as_u64("fault_shard")?,
            after: doc.require("fault_after")?.as_u64("fault_after")?,
            kind: FaultKind::from_label(doc.require("fault_kind")?.as_str("fault_kind")?)?,
        }),
    };
    Ok(SweepSpec {
        seeds: (
            doc.require("seeds_start")?.as_u64("seeds_start")?,
            doc.require("seeds_end")?.as_u64("seeds_end")?,
        ),
        profile: doc.require("profile")?.as_str("profile")?.to_string(),
        case: doc.require("case")?.as_str("case")?.to_string(),
        workers: doc.require("workers")?.as_u64("workers")?,
        jobs: doc.require("jobs")?.as_u64("jobs")? as usize,
        batch: doc.require("batch")?.as_u64("batch")? as usize,
        model_check: doc.require("model_check")?.as_bool("model_check")?,
        fault,
    })
}

/// Renders one event as its one-line journal form (no trailing newline).
pub fn render_event(event: &JournalEvent) -> String {
    let mut out = format!("{{\"semint_journal\": {JOURNAL_FORMAT}");
    match event {
        JournalEvent::SweepStarted { spec } => {
            out.push_str(&format!(
                ", \"event\": \"sweep-started\", \"spec\": {}",
                render_spec(spec)
            ));
        }
        JournalEvent::ShardStarted { shard, attempt } => {
            out.push_str(&format!(
                ", \"event\": \"shard-started\", \"shard\": {shard}, \"attempt\": {attempt}"
            ));
        }
        JournalEvent::ShardSaved {
            shard,
            attempt,
            path,
            digest,
        } => {
            out.push_str(&format!(
                ", \"event\": \"shard-saved\", \"shard\": {shard}, \"attempt\": {attempt}, \
                 \"path\": \"{}\", \"digest\": \"{}\"",
                escape_json(path),
                escape_json(digest)
            ));
        }
        JournalEvent::ShardDied {
            shard,
            attempt,
            reason,
        } => {
            out.push_str(&format!(
                ", \"event\": \"shard-died\", \"shard\": {shard}, \"attempt\": {attempt}, \
                 \"reason\": \"{}\"",
                escape_json(reason)
            ));
        }
        JournalEvent::Resumed { adopted } => {
            out.push_str(&format!(
                ", \"event\": \"sweep-resumed\", \"adopted\": {adopted}"
            ));
        }
    }
    out.push('}');
    out
}

/// Parses one journal line, checking its journal marker.  Keys the event
/// does not use are ignored.
pub fn parse_event(line: &str) -> Result<JournalEvent, String> {
    let doc = json::parse(line)?;
    let format = doc.require("semint_journal")?.as_u64("semint_journal")?;
    if format > JOURNAL_FORMAT {
        return Err(format!(
            "journal format {format} is newer than this semint reads (format \
             {JOURNAL_FORMAT}); upgrade semint"
        ));
    }
    if format < JOURNAL_FORMAT {
        return Err(format!(
            "journal format {format} is not supported (this semint reads format \
             {JOURNAL_FORMAT}, one sweep per state dir); start the sweep in a fresh --state-dir"
        ));
    }
    let shard = || doc.require("shard")?.as_u64("shard");
    let attempt = || doc.require("attempt")?.as_u64("attempt");
    let text =
        |key: &str| -> Result<String, String> { Ok(doc.require(key)?.as_str(key)?.to_string()) };
    match doc.require("event")?.as_str("event")? {
        "sweep-started" => Ok(JournalEvent::SweepStarted {
            spec: parse_spec(doc.require("spec")?)?,
        }),
        "shard-started" => Ok(JournalEvent::ShardStarted {
            shard: shard()?,
            attempt: attempt()?,
        }),
        "shard-saved" => Ok(JournalEvent::ShardSaved {
            shard: shard()?,
            attempt: attempt()?,
            path: text("path")?,
            digest: text("digest")?,
        }),
        "shard-died" => Ok(JournalEvent::ShardDied {
            shard: shard()?,
            attempt: attempt()?,
            reason: text("reason")?,
        }),
        "sweep-resumed" => Ok(JournalEvent::Resumed {
            adopted: doc.require("adopted")?.as_u64("adopted")?,
        }),
        other => Err(format!("unknown journal event {other:?}")),
    }
}

/// An open journal file handle.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Where the journal lives inside a state dir.
    pub fn path_in(state_dir: &Path) -> PathBuf {
        state_dir.join(JOURNAL_FILE)
    }

    /// Opens (creating if absent) the journal in `state_dir` for appending.
    /// If the existing file does not end in a newline — a torn final line
    /// from a previous crash — a lone newline is appended and synced first,
    /// so later entries never glue onto the torn one.
    pub fn open(state_dir: &Path) -> Result<Journal, String> {
        let path = Journal::path_in(state_dir);
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&path)
            .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?;
        let mut existing = Vec::new();
        file.read_to_end(&mut existing)
            .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
        if !existing.is_empty() && existing.last() != Some(&b'\n') {
            file.write_all(b"\n")
                .and_then(|()| file.sync_data())
                .map_err(|e| format!("cannot neutralize the torn journal tail: {e}"))?;
        }
        Ok(Journal { file, path })
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one event and fsyncs it: when this returns `Ok`, the
    /// transition is durable.
    pub fn append(&self, event: &JournalEvent) -> Result<(), String> {
        let line = format!("{}\n", render_event(event));
        let mut file = &self.file;
        file.write_all(line.as_bytes())
            .and_then(|()| file.sync_data())
            .map_err(|e| format!("cannot append to journal {}: {e}", self.path.display()))
    }
}

/// The sweep as reconstructed from its journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredSweep {
    /// The spec the journal's first line records.
    pub spec: SweepSpec,
    /// Checkpointed shards: index → (checkpoint file name, content digest).
    /// Last write wins — a shard re-run after checkpoint corruption
    /// re-journals its save.
    pub saved: BTreeMap<u64, (String, String)>,
    /// Shard re-issues the journal recorded.
    pub retries: u64,
    /// Unparseable lines skipped (torn tails, including neutralized ones
    /// from earlier supervisor lives).
    pub torn_lines: u64,
}

impl RecoveredSweep {
    fn apply(&mut self, event: JournalEvent) -> Result<(), String> {
        match event {
            JournalEvent::SweepStarted { .. } => {
                return Err("the journal records a second sweep; a state dir holds one".into());
            }
            JournalEvent::ShardStarted { shard, .. } => self.check_shard(shard)?,
            JournalEvent::ShardSaved {
                shard,
                path,
                digest,
                ..
            } => {
                self.check_shard(shard)?;
                self.saved.insert(shard, (path, digest));
            }
            JournalEvent::ShardDied { shard, .. } => {
                self.check_shard(shard)?;
                self.retries += 1;
            }
            JournalEvent::Resumed { .. } => {}
        }
        Ok(())
    }

    fn check_shard(&self, shard: u64) -> Result<(), String> {
        if shard >= self.spec.workers {
            return Err(format!(
                "the journal references shard {shard}, but its sweep has only {} shards",
                self.spec.workers
            ));
        }
        Ok(())
    }
}

/// Replays a journal's text into the sweep a resuming supervisor adopts.
///
/// The first line must record the sweep's spec.  Unparseable lines after
/// it are tolerated (counted in `torn_lines`) — only the final line can be
/// torn by a crash, but a neutralized torn line persists mid-file once the
/// supervisor has lived and died again.  Structural inconsistencies are
/// hard errors: the journal does not describe a sweep this binary can
/// resume.
pub fn replay(text: &str) -> Result<RecoveredSweep, String> {
    let mut lines = text.lines().filter(|line| !line.trim().is_empty());
    let first = lines.next().ok_or("the journal records no sweep")?;
    let spec = match parse_event(first) {
        Ok(JournalEvent::SweepStarted { spec }) => spec,
        Ok(other) => {
            return Err(format!(
                "the journal starts with {other:?}, not a sweep spec"
            ))
        }
        Err(e) => return Err(format!("the journal's first line is not a sweep spec: {e}")),
    };
    let mut sweep = RecoveredSweep {
        spec,
        saved: BTreeMap::new(),
        retries: 0,
        torn_lines: 0,
    };
    for line in lines {
        match parse_event(line) {
            Ok(event) => sweep.apply(event)?,
            Err(_torn) => sweep.torn_lines += 1,
        }
    }
    Ok(sweep)
}

/// FNV-1a 64 over raw bytes, rendered `fnv1a:{hash:016x}` — the checkpoint
/// content digest journaled with every `shard-saved` event.  (Case digests
/// from [`semint_core::stats::CaseReport::digest`] summarize *aggregates*;
/// this one fingerprints the exact bytes on disk, so resume can tell a
/// corrupted checkpoint from a valid one.)
pub fn content_digest(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv1a:{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> SweepSpec {
        SweepSpec {
            seeds: (0, 60),
            profile: "deep".into(),
            case: "all".into(),
            workers: 3,
            jobs: 2,
            batch: 4,
            model_check: false,
            fault: None,
        }
    }

    fn sample_events() -> Vec<JournalEvent> {
        vec![
            JournalEvent::SweepStarted {
                spec: sample_spec(),
            },
            JournalEvent::ShardStarted {
                shard: 0,
                attempt: 0,
            },
            JournalEvent::ShardDied {
                shard: 0,
                attempt: 0,
                reason: "crashed (exit code 42)".into(),
            },
            JournalEvent::ShardSaved {
                shard: 0,
                attempt: 1,
                path: checkpoint_name(0),
                digest: content_digest(b"case\tsharedmem\n"),
            },
            JournalEvent::Resumed { adopted: 1 },
        ]
    }

    #[test]
    fn every_event_round_trips_on_one_line() {
        let mut events = sample_events();
        // Every fault kind survives the journal.
        for kind in FaultKind::ALL {
            events.push(JournalEvent::SweepStarted {
                spec: SweepSpec {
                    fault: Some(FaultPlan {
                        shard: 1,
                        after: 5,
                        kind,
                    }),
                    ..sample_spec()
                },
            });
        }
        for event in events {
            let line = render_event(&event);
            assert!(!line.contains('\n'), "one line per event: {line}");
            assert_eq!(parse_event(&line).expect("round trip"), event);
        }
    }

    #[test]
    fn marker_skew_is_refused_and_older_version_keys_are_ignored() {
        let line = render_event(&JournalEvent::Resumed { adopted: 3 });
        assert_eq!(
            line,
            "{\"semint_journal\": 2, \"event\": \"sweep-resumed\", \"adopted\": 3}"
        );
        // Lines written before the marker became the only version carried
        // a `"version": 2` key too; it is ignored like any unknown key.
        let stamped = line.replace(
            "\"semint_journal\": 2",
            "\"semint_journal\": 2, \"version\": 2",
        );
        assert_ne!(line, stamped);
        assert_eq!(
            parse_event(&stamped).unwrap(),
            JournalEvent::Resumed { adopted: 3 }
        );
        assert!(parse_event("{}").unwrap_err().contains("semint_journal"));
        // A newer writer's journal is refused with an upgrade hint.
        let future = line.replace("\"semint_journal\": 2", "\"semint_journal\": 3");
        let err = parse_event(&future).unwrap_err();
        assert!(err.contains("format 3") && err.contains("upgrade"), "{err}");
        // A multi-job format-1 journal is refused, never misread.
        let old = line.replace("\"semint_journal\": 2", "\"semint_journal\": 1");
        let err = parse_event(&old).unwrap_err();
        assert!(err.contains("format 1") && err.contains("fresh"), "{err}");
        // Malformed lines carry the reader's position.
        let err = parse_event(&format!("{line} trailing")).unwrap_err();
        assert!(err.contains("column") && err.contains("trailing"), "{err}");
    }

    #[test]
    fn replay_reconstructs_spec_saved_shards_and_retries() {
        let text: String = sample_events()
            .iter()
            .map(|e| format!("{}\n", render_event(e)))
            .collect();
        let sweep = replay(&text).expect("valid journal");
        assert_eq!(sweep.spec, sample_spec());
        assert_eq!(sweep.torn_lines, 0);
        assert_eq!(sweep.retries, 1);
        assert_eq!(sweep.saved.len(), 1);
        assert_eq!(sweep.saved[&0].0, checkpoint_name(0));
    }

    #[test]
    fn torn_lines_are_counted_and_dropped_wherever_they_sit() {
        let good = render_event(&JournalEvent::SweepStarted {
            spec: sample_spec(),
        });
        let saved = render_event(&JournalEvent::ShardSaved {
            shard: 1,
            attempt: 0,
            path: checkpoint_name(1),
            digest: content_digest(b"x"),
        });
        // A neutralized torn line mid-file and a torn tail: both dropped.
        let half = &saved[..saved.len() / 2];
        let text = format!("{good}\n{half}\n{saved}\n{half}");
        let sweep = replay(&text).expect("torn lines are tolerated");
        assert_eq!(sweep.torn_lines, 2);
        assert_eq!(sweep.saved.len(), 1);
    }

    #[test]
    fn structurally_impossible_journals_are_hard_errors() {
        assert!(replay("").unwrap_err().contains("no sweep"));
        let spec = render_event(&JournalEvent::SweepStarted {
            spec: sample_spec(),
        });
        let started = render_event(&JournalEvent::ShardStarted {
            shard: 0,
            attempt: 0,
        });
        let err = replay(&started).unwrap_err();
        assert!(err.contains("not a sweep spec"), "{err}");
        let torn_spec = &spec[..spec.len() / 2];
        let err = replay(&format!("{torn_spec}\n{started}\n")).unwrap_err();
        assert!(err.contains("first line"), "{err}");
        let err = replay(&format!("{spec}\n{spec}\n")).unwrap_err();
        assert!(err.contains("second sweep"), "{err}");
        let wild_shard = render_event(&JournalEvent::ShardStarted {
            shard: 9,
            attempt: 0,
        });
        let err = replay(&format!("{spec}\n{wild_shard}\n")).unwrap_err();
        assert!(err.contains("shard 9"), "{err}");
    }

    #[test]
    fn open_neutralizes_a_torn_tail_and_appends_survive_it() {
        let dir = std::env::temp_dir().join(format!("semint-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = render_event(&JournalEvent::SweepStarted {
            spec: sample_spec(),
        });
        let saved = render_event(&JournalEvent::ShardSaved {
            shard: 2,
            attempt: 0,
            path: checkpoint_name(2),
            digest: content_digest(b"y"),
        });
        let torn = &saved[..saved.len() - 7];
        std::fs::write(Journal::path_in(&dir), format!("{spec}\n{torn}")).unwrap();
        let journal = Journal::open(&dir).expect("opens over a torn tail");
        journal
            .append(&JournalEvent::Resumed { adopted: 0 })
            .expect("append after neutralization");
        let text = std::fs::read_to_string(journal.path()).unwrap();
        let sweep = replay(&text).expect("replays");
        assert_eq!(sweep.torn_lines, 1, "{text}");
        assert!(text.ends_with(&format!(
            "\n{}\n",
            render_event(&JournalEvent::Resumed { adopted: 0 })
        )));
        assert!(sweep.saved.is_empty(), "the torn save never happened");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn content_digest_is_stable_and_content_sensitive() {
        let a = content_digest(b"case\tsharedmem\nscenarios\t30\n");
        assert!(a.starts_with("fnv1a:"), "{a}");
        assert_eq!(a, content_digest(b"case\tsharedmem\nscenarios\t30\n"));
        assert_ne!(a, content_digest(b"case\tsharedmem\nscenarios\t31\n"));
        assert_eq!(content_digest(b""), "fnv1a:cbf29ce484222325");
    }
}
