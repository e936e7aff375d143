//! Append-only JSONL run journal: the sweep's checkpoint for resume.
//!
//! One line per event, flushed as written, so a killed process loses at
//! most the trial it was mid-way through:
//!
//! ```text
//! {"v":1,"kind":"run","cells":12,"trials":120,"figs":"fig1 fig2","resume":false}
//! {"v":1,"kind":"trial","hash":"89ab...","ident":"tpch/clock/Ssd/r0.50 trial 0","status":"done","attempts":1,"ms":41}
//! {"v":1,"kind":"trial","hash":"0f3c...","ident":"...","status":"failed","detail":"panic: boom","attempts":3,"ms":12}
//! {"v":1,"kind":"end","done":120,"failed":1,"aborted":false}
//! ```
//!
//! `hash` is the trial content hash ([`Bench::trial_content_hash`]): it
//! folds in config, seed, trial index, footprint and format versions, so a
//! journal from a different scale or crate version simply matches nothing
//! on resume — stale journals are harmless, never wrong. `status` is
//! `done` (metrics merged; `attempts:0` means served from cache),
//! `done-degraded` (merged, but the metrics carry a `SimError` — the fault
//! experiments plot these), or `failed` (a typed [`CellFailure`] was
//! recorded; `detail` carries the classification).
//!
//! Resume reads the journal back ([`load_prior`]); trials recorded `done`
//! whose cache entry is still present and intact are served from cache and
//! counted in `SweepStats::resumed`, everything else — failed, missing, or
//! quarantined — re-runs. Because the merge is content-keyed and
//! canonical-ordered, a resumed sweep's figure output is byte-identical to
//! an uninterrupted one.
//!
//! [`Bench::trial_content_hash`]: pagesim::experiments::Bench::trial_content_hash
//! [`CellFailure`]: pagesim::CellFailure

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::Path;

use pagesim_json::{escape, JsonValue};

/// Journal line format version.
pub const JOURNAL_VERSION: u32 = 1;

/// The journal writer. All writes are best-effort: journalling failures
/// degrade to "no checkpoint", never abort the sweep.
pub struct Journal {
    file: fs::File,
}

impl Journal {
    /// Opens the journal: truncating for a fresh run, appending when
    /// resuming (the prior run's lines are the resume state).
    pub fn open(path: &Path, resume: bool) -> Option<Journal> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                let _ = fs::create_dir_all(parent);
            }
        }
        let file = if resume {
            fs::OpenOptions::new().create(true).append(true).open(path)
        } else {
            fs::File::create(path)
        };
        file.ok().map(|file| Journal { file })
    }

    fn line(&mut self, s: &str) {
        // One write_all per line keeps lines atomic enough for a local
        // file; sync_data bounds loss to the in-flight trial on a crash.
        let _ = self.file.write_all(format!("{s}\n").as_bytes());
        let _ = self.file.sync_data();
    }

    /// The run header: what was planned.
    pub fn run_header(&mut self, cells: usize, trials: usize, figs: &[String], resume: bool) {
        self.line(&format!(
            "{{\"v\":{JOURNAL_VERSION},\"kind\":\"run\",\"cells\":{cells},\"trials\":{trials},\
             \"figs\":\"{}\",\"resume\":{resume}}}",
            escape(&figs.join(" "))
        ));
    }

    /// One trial outcome.
    pub fn trial(
        &mut self,
        hash: u64,
        ident: &str,
        status: &str,
        detail: Option<&str>,
        attempts: u32,
        ms: u64,
    ) {
        let mut s = format!(
            "{{\"v\":{JOURNAL_VERSION},\"kind\":\"trial\",\"hash\":\"{hash:016x}\",\
             \"ident\":\"{}\",\"status\":\"{status}\"",
            escape(ident)
        );
        if let Some(d) = detail {
            s.push_str(&format!(",\"detail\":\"{}\"", escape(d)));
        }
        s.push_str(&format!(",\"attempts\":{attempts},\"ms\":{ms}}}"));
        self.line(&s);
    }

    /// The run trailer: what actually happened.
    pub fn end(&mut self, done: usize, failed: usize, aborted: bool) {
        self.line(&format!(
            "{{\"v\":{JOURNAL_VERSION},\"kind\":\"end\",\"done\":{done},\
             \"failed\":{failed},\"aborted\":{aborted}}}"
        ));
    }
}

/// What a previous run's journal says about each trial, keyed by content
/// hash. Later lines win, so a trial that failed and then succeeded on a
/// prior resume reads as done.
#[derive(Debug, Default)]
pub struct PriorRun {
    done: BTreeMap<u64, bool>,
}

impl PriorRun {
    /// Whether the journal recorded this trial as completed (merged).
    pub fn is_done(&self, hash: u64) -> bool {
        self.done.get(&hash).copied().unwrap_or(false)
    }

    /// Trials the journal knows anything about.
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// True when the journal recorded nothing.
    pub fn is_empty(&self) -> bool {
        self.done.is_empty()
    }
}

/// Reads a journal back into resume state. An unreadable file yields an
/// empty prior; a line that does not parse (a record torn by a crash
/// mid-write, a corrupted byte) is skipped alone. Resume then just
/// re-runs more.
pub fn load_prior(path: &Path) -> PriorRun {
    let mut prior = PriorRun::default();
    let Ok(bytes) = fs::read(path) else {
        return prior;
    };
    for line in bytes.split(|&b| b == b'\n') {
        let Some(rec) = std::str::from_utf8(line).ok().and_then(|l| pagesim_json::parse(l).ok())
        else {
            continue;
        };
        let field = |key| rec.get(key).and_then(JsonValue::as_str);
        if field("kind") != Some("trial") {
            continue;
        }
        let Some(hash) = field("hash").and_then(|h| u64::from_str_radix(h, 16).ok()) else {
            continue;
        };
        let done = matches!(field("status"), Some("done" | "done-degraded"));
        prior.done.insert(hash, done);
    }
    prior
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_last_line_wins() {
        let dir = std::env::temp_dir().join(format!("pagesim-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("j.jsonl");
        {
            let mut j = Journal::open(&path, false).expect("open");
            j.run_header(2, 4, &["fig1".to_owned()], false);
            j.trial(0xA, "cell a trial 0", "failed", Some("panic: x"), 3, 10);
            j.trial(0xB, "cell a trial 1", "done", None, 1, 20);
            j.end(2, 1, true);
        }
        {
            // Resume appends; the retried trial now succeeds.
            let mut j = Journal::open(&path, true).expect("append");
            j.trial(0xA, "cell a trial 0", "done", None, 1, 12);
        }
        let prior = load_prior(&path);
        assert!(prior.is_done(0xA), "later line wins");
        assert!(prior.is_done(0xB));
        assert!(!prior.is_done(0xC));
        assert_eq!(prior.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn degraded_counts_as_done() {
        let dir = std::env::temp_dir().join(format!("pagesim-journal2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("j.jsonl");
        let mut j = Journal::open(&path, false).expect("open");
        j.trial(0x1, "cell", "done-degraded", Some("sim error: deadlock"), 1, 5);
        drop(j);
        assert!(load_prior(&path).is_done(0x1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn only_whole_records_count() {
        let dir = std::env::temp_dir().join(format!("pagesim-journal3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("j.jsonl");
        let mut j = Journal::open(&path, false).expect("open");
        j.run_header(1, 3, &["fig1".to_owned()], false);
        j.trial(0xA, "cell trial 0", "done", None, 1, 10);
        // Field text that looks like a status is data, not a status.
        j.trial(0xC, "x\",\"status\":\"done", "failed", Some("\"status\":\"done\""), 3, 10);
        j.trial(0xB, "cell trial 1", "done", None, 1, 10);
        drop(j);
        // A crash mid-write: the last record stops after its status field,
        // after a line whose bytes are not even UTF-8.
        let text = std::fs::read_to_string(&path).expect("read");
        let cut = text.rfind(",\"attempts\"").expect("last trial line");
        let last = text[..cut].rfind('\n').expect("line start") + 1;
        let bytes = text.as_bytes();
        let torn = [&bytes[..last], b"\xff\n", &bytes[last..cut]].concat();
        std::fs::write(&path, torn).expect("write torn");
        let prior = load_prior(&path);
        assert!(prior.is_done(0xA), "intact lines still load");
        assert!(!prior.is_done(0xC), "the record's own status is failed");
        assert!(!prior.is_done(0xB), "torn record is not trusted");
        assert_eq!(prior.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
