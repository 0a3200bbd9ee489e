//! Cell journaling and resume.
//!
//! Every completed cell — success or permanent failure — is appended to a
//! JSONL journal as soon as its result arrives, one [`JournalEntry`] per
//! line, flushed per entry. A run killed at any point can be resumed with the
//! same cell list: journaled successes are skipped (their measurements are
//! replayed from the file), journaled failures are re-executed, and the
//! combined aggregates are bit-identical to an uninterrupted run because
//! [`crate::runner::average_over_seeds`] is summation-order independent.
//!
//! The file format is deliberately dumb: self-contained JSON objects, one per
//! line. A partial trailing line — the signature of a hard kill mid-write —
//! is tolerated on load; corruption anywhere else is a typed error.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::runner::{Cell, Measurement, RunError};

/// Stable identity of a cell inside a journal: every axis the experiment
/// builders sweep. The knob is stored in milli-units so equality is exact.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CellKey {
    /// Experiment id (`table3`, `fig6`, …) — one journal can hold several.
    pub experiment: String,
    /// Dataset display name.
    pub dataset: String,
    /// Method/variant label.
    pub method: String,
    /// Swept knob value × 1000, rounded (matches the averaging group key).
    pub knob_milli: i64,
    /// Game seed.
    pub seed: u64,
    /// Detector-pipeline spec (`""` for undefended paper-experiment cells).
    pub defense: String,
}

impl CellKey {
    /// The key for `cell` under experiment `experiment`.
    pub fn of(experiment: &str, cell: &Cell) -> Self {
        Self {
            experiment: experiment.to_string(),
            dataset: cell.dataset.name().to_string(),
            method: cell.label.clone(),
            knob_milli: (cell.knob * 1000.0).round() as i64,
            seed: cell.game.seed,
            defense: cell.defense.clone().unwrap_or_default(),
        }
    }

    /// Deterministic 64-bit context for fault-injection decisions: depends on
    /// the cell identity and the retry attempt, *not* on scheduling — the same
    /// faults fire at any `--threads`, and every retry rerolls.
    pub fn context_hash(&self, attempt: usize) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325; // FNV-1a
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        eat(self.experiment.as_bytes());
        eat(&[0xff]);
        eat(self.dataset.as_bytes());
        eat(&[0xff]);
        eat(self.method.as_bytes());
        eat(&[0xff]);
        eat(&self.knob_milli.to_le_bytes());
        eat(&self.seed.to_le_bytes());
        // The retired `defended` flag's byte: keeps every fault plan stable.
        eat(&[0]);
        eat(&[0xff]);
        eat(self.defense.as_bytes());
        eat(&(attempt as u64).to_le_bytes());
        h
    }
}

/// Why a cell failed permanently (its retry budget included).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellErrorKind {
    /// The game panicked on every attempt (assertion, injected fault, …).
    Panic,
}

/// A cell that exhausted its retry budget without producing a measurement.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellError {
    /// Failure class.
    pub kind: CellErrorKind,
    /// Panic payload of the *last* attempt.
    pub message: String,
    /// Attempts consumed (1 = no retries granted).
    pub attempts: usize,
}

/// One journal line. Exactly one of `ok`/`err` is set (the vendored serde has
/// no `Result` impl, so the sum type is spelled out).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JournalEntry {
    /// Which cell this is.
    pub key: CellKey,
    /// The measurement, when the cell succeeded.
    pub ok: Option<Measurement>,
    /// The terminal error, when it did not.
    pub err: Option<CellError>,
}

/// Append-only JSONL writer, flushed per entry so a hard kill loses at most
/// the line being written.
pub struct Journal {
    writer: BufWriter<File>,
}

impl Journal {
    /// Opens `path` for appending (resume) or truncates it (fresh run).
    ///
    /// Appending first chops any partial trailing line — the leftover of a
    /// kill mid-`append` — so new entries never concatenate onto a fragment.
    pub fn open(path: &Path, append: bool) -> Result<Self, RunError> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(RunError::Journal)?;
            }
        }
        if append && path.exists() {
            let text = std::fs::read(path).map_err(RunError::Journal)?;
            if !text.is_empty() && !text.ends_with(b"\n") {
                let keep = text.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                let file = OpenOptions::new().write(true).open(path).map_err(RunError::Journal)?;
                file.set_len(keep as u64).map_err(RunError::Journal)?;
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .append(append)
            .write(true)
            .truncate(!append)
            .open(path)
            .map_err(RunError::Journal)?;
        Ok(Self { writer: BufWriter::new(file) })
    }

    /// Appends one entry and flushes it to the OS.
    pub fn append(&mut self, entry: &JournalEntry) -> Result<(), RunError> {
        let line = serde_json::to_string(entry)
            .map_err(|e| RunError::Journal(std::io::Error::other(e.to_string())))?;
        self.writer.write_all(line.as_bytes()).map_err(RunError::Journal)?;
        self.writer.write_all(b"\n").map_err(RunError::Journal)?;
        self.writer.flush().map_err(RunError::Journal)
    }
}

/// Loads a journal, tolerating a truncated final line (a kill mid-`append`).
/// Returns entries in file order; a parse failure anywhere *before* the last
/// line is corruption and reported as [`RunError::JournalParse`].
pub fn load_journal(path: &Path) -> Result<Vec<JournalEntry>, RunError> {
    let text = std::fs::read_to_string(path).map_err(RunError::Journal)?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut entries = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        match serde_json::from_str::<JournalEntry>(line) {
            Ok(e) => entries.push(e),
            Err(err) if i + 1 == lines.len() => {
                eprintln!(
                    "[journal] dropping truncated trailing line {} of {}: {err}",
                    i + 1,
                    path.display()
                );
            }
            Err(err) => {
                return Err(RunError::JournalParse { line: i + 1, message: err.to_string() })
            }
        }
    }
    Ok(entries)
}

/// Collapses journal entries into the latest outcome per cell (later lines —
/// e.g. a resumed re-run of a previously failed cell — override earlier ones)
/// and restricts to `experiment`.
pub fn latest_outcomes(
    entries: &[JournalEntry],
    experiment: &str,
) -> HashMap<CellKey, JournalEntry> {
    let mut map = HashMap::new();
    for e in entries {
        if e.key.experiment == experiment {
            map.insert(e.key.clone(), e.clone());
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seed: u64, ok: bool) -> JournalEntry {
        JournalEntry {
            key: CellKey {
                experiment: "t".into(),
                dataset: "d".into(),
                method: "m".into(),
                knob_milli: 2000,
                seed,
                defense: String::new(),
            },
            ok: ok.then(|| Measurement {
                dataset: "d".into(),
                method: "m".into(),
                knob: 2.0,
                defense: String::new(),
                rbar: 3.0,
                hr3: 0.5,
                hr10: 0.6,
                seed,
            }),
            err: (!ok).then(|| CellError {
                kind: CellErrorKind::Panic,
                message: "boom".into(),
                attempts: 1,
            }),
        }
    }

    #[test]
    fn roundtrip_append_load() {
        let path =
            std::env::temp_dir().join(format!("msopds-journal-{}.jsonl", std::process::id()));
        let mut j = Journal::open(&path, false).unwrap();
        j.append(&entry(1, true)).unwrap();
        j.append(&entry(2, false)).unwrap();
        drop(j);
        let loaded = load_journal(&path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert!(loaded[0].ok.is_some() && loaded[0].err.is_none());
        assert!(loaded[1].err.is_some() && loaded[1].ok.is_none());
        assert_eq!(loaded[1].err.as_ref().unwrap().kind, CellErrorKind::Panic);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_is_dropped_but_corruption_is_an_error() {
        let path =
            std::env::temp_dir().join(format!("msopds-journal-trunc-{}.jsonl", std::process::id()));
        let mut j = Journal::open(&path, false).unwrap();
        j.append(&entry(1, true)).unwrap();
        j.append(&entry(2, true)).unwrap();
        drop(j);
        // Chop the file mid-way through the last line: a kill during append.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 10]).unwrap();
        let loaded = load_journal(&path).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].key.seed, 1);
        // Corruption *before* the tail is not silently skipped.
        std::fs::write(&path, format!("{{bad json}}\n{}", text.lines().next().unwrap())).unwrap();
        match load_journal(&path) {
            Err(RunError::JournalParse { line: 1, .. }) => {}
            other => panic!("expected JournalParse at line 1, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn later_entries_override_earlier() {
        let es = vec![entry(1, false), entry(2, true), entry(1, true)];
        let map = latest_outcomes(&es, "t");
        assert_eq!(map.len(), 2);
        let k = es[0].key.clone();
        assert!(map[&k].ok.is_some(), "re-run success must override the earlier failure");
        assert!(latest_outcomes(&es, "other").is_empty());
    }

    #[test]
    fn context_hash_varies_by_attempt_and_cell() {
        let k1 = entry(1, true).key;
        let k2 = entry(2, true).key;
        assert_ne!(k1.context_hash(0), k1.context_hash(1), "retries must reroll faults");
        assert_ne!(k1.context_hash(0), k2.context_hash(0));
        assert_eq!(k1.context_hash(0), k1.context_hash(0));
        let defended = CellKey { defense: "degree".into(), ..k1.clone() };
        assert_ne!(k1.context_hash(0), defended.context_hash(0), "defense axis must reroll");
    }

    /// The first `table3 --quick` cell, keyed and journaled as the format
    /// that still carried a `defended` flag wrote it.
    const FLAGGED_FORMAT_LINE: &str = r#"{"key":{"experiment":"table3","dataset":"Ciao","method":"None","knob_milli":2000,"seed":1,"defended":false,"defense":""},"ok":{"dataset":"Ciao","method":"None","knob":2.0,"defense":"","rbar":3.592336548908501,"hr3":0.0,"hr10":0.0,"seed":1},"err":null}"#;

    #[test]
    fn context_hash_is_pinned_across_the_retired_defended_flag() {
        let cell = &crate::table3_cells(&crate::XpConfig::quick())[0];
        let key = CellKey::of("table3", cell);
        // Computed with the `defended` field still in place: fault plans
        // drawn against existing cells keep firing at the same sites.
        assert_eq!(key.context_hash(0), 0x09f4d2e252fde304);
    }

    #[test]
    fn journal_line_with_defended_field_parses_and_resumes() {
        let path = std::env::temp_dir()
            .join(format!("msopds-journal-defended-{}.jsonl", std::process::id()));
        std::fs::write(&path, format!("{FLAGGED_FORMAT_LINE}\n")).unwrap();
        let cell = crate::table3_cells(&crate::XpConfig::quick())[0].clone();
        assert_eq!(load_journal(&path).unwrap()[0].key, CellKey::of("table3", &cell));
        let opts = crate::RunOptions {
            journal: Some(path.clone()),
            resume: true,
            ..crate::RunOptions::for_experiment("table3")
        };
        let report = crate::run_cells_with(vec![cell], &crate::XpConfig::quick(), &opts).unwrap();
        assert_eq!((report.resumed, report.executed), (1, 0));
        assert_eq!(report.measurements[0].rbar.to_bits(), 3.592336548908501f64.to_bits());
        std::fs::remove_file(&path).ok();
    }
}
