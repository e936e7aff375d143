//! The checked-in benchmark trajectory: `BENCH_pagesim.json`.
//!
//! One JSON document holding an append-only list of commit-stamped
//! entries, in the spirit of celox's `dev/bench/data.js` (SNIPPETS.md §2):
//! every `repro bench` run appends one [`BenchEntry`] carrying each
//! tracked metric's mean/stddev/95% CI and convergence flag, so the perf
//! trajectory of the repo is reviewable in version control.
//!
//! The writer is canonical — fixed key order, two-space indent, `f64`
//! shortest-roundtrip formatting — so parse → re-serialize is
//! byte-identical and diffs only ever show appended entries. Loading a
//! torn or corrupt file quarantines it (rename to `<path>.quarantine`,
//! the sweep-cache idiom) instead of failing the run or silently
//! overwriting history someone may want to recover.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use pagesim_stats::MetricEstimate;

use pagesim_json::{escape, JsonValue};

/// History document schema version.
pub const HISTORY_SCHEMA: u32 = 1;

/// Which direction of change is an improvement for a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Bigger is better (throughput).
    Higher,
    /// Smaller is better (latency, wall time).
    Lower,
}

impl Direction {
    /// Stable on-disk label.
    pub fn label(self) -> &'static str {
        match self {
            Direction::Higher => "higher",
            Direction::Lower => "lower",
        }
    }

    fn parse(s: &str) -> Option<Direction> {
        match s {
            "higher" => Some(Direction::Higher),
            "lower" => Some(Direction::Lower),
            _ => None,
        }
    }
}

/// One tracked metric's converged (or capped) estimate in one entry.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricRecord {
    /// Stable metric name, e.g. `pages_per_sec/tpch/clock`.
    pub name: String,
    /// Unit label, e.g. `pages/sec`.
    pub unit: String,
    /// Which way improvement points.
    pub direction: Direction,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub stddev: f64,
    /// Standard error of the mean.
    pub stderr: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sample count.
    pub samples: u64,
    /// 95% CI lower bound.
    pub ci_lo: f64,
    /// 95% CI upper bound.
    pub ci_hi: f64,
    /// `(ci_hi - ci_lo) / |mean|` (the stopping-rule criterion).
    pub ci_width_ratio: f64,
    /// Whether the stopping rule converged before its sample cap.
    pub converged: bool,
}

impl MetricRecord {
    /// Builds a record from a stopping-rule estimate.
    pub fn from_estimate(
        name: &str,
        unit: &str,
        direction: Direction,
        est: &MetricEstimate,
    ) -> MetricRecord {
        MetricRecord {
            name: name.to_string(),
            unit: unit.to_string(),
            direction,
            mean: est.mean,
            stddev: est.stddev,
            stderr: est.stderr,
            min: est.min,
            max: est.max,
            samples: est.samples,
            ci_lo: est.ci_lo,
            ci_hi: est.ci_hi,
            ci_width_ratio: est.ci_width_ratio,
            converged: est.converged,
        }
    }

    /// Half-width of the 95% CI (the metric's noise band).
    pub fn ci_half_width(&self) -> f64 {
        (self.ci_hi - self.ci_lo) / 2.0
    }
}

/// One commit-stamped benchmark run.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchEntry {
    /// Commit id the run was measured at.
    pub commit: String,
    /// Unix timestamp (seconds) of the run.
    pub timestamp_unix: u64,
    /// Bench scale name (`quick` / `default`).
    pub bench_scale: String,
    /// Master seed the probes ran under.
    pub seed: u64,
    /// Whether the binary carried the `bench-counters` feature (the
    /// fault/reclaim ns/op metrics only exist when it did).
    pub counters_enabled: bool,
    /// Every tracked metric, in matrix enumeration order.
    pub metrics: Vec<MetricRecord>,
}

impl BenchEntry {
    /// The record for `name`, if tracked in this entry.
    pub fn metric(&self, name: &str) -> Option<&MetricRecord> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// The full trajectory document.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchHistory {
    /// Entries in append (chronological) order.
    pub entries: Vec<BenchEntry>,
}

/// Why a history file could not be used.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistoryError {
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for HistoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

fn bad(msg: impl Into<String>) -> HistoryError {
    HistoryError { msg: msg.into() }
}

/// `f64` → canonical JSON token. Rust's `{}` is shortest-roundtrip decimal
/// (never scientific), so re-serializing a parsed value reproduces the
/// exact bytes. Non-finite values (a zero-mean metric's infinite width
/// ratio) become the strings `"inf"` / `"-inf"`; NaN cannot occur in a
/// well-formed record and is rejected loudly.
fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else if x == f64::INFINITY {
        "\"inf\"".to_string()
    } else if x == f64::NEG_INFINITY {
        "\"-inf\"".to_string()
    } else {
        panic!("NaN is not representable in the bench history")
    }
}

fn read_f64(v: &JsonValue, field: &str) -> Result<f64, HistoryError> {
    if let Some(x) = v.as_f64() {
        return Ok(x);
    }
    match v.as_str() {
        Some("inf") => Ok(f64::INFINITY),
        Some("-inf") => Ok(f64::NEG_INFINITY),
        _ => Err(bad(format!("field {field:?} is not a number"))),
    }
}

fn field<'a>(obj: &'a JsonValue, key: &str) -> Result<&'a JsonValue, HistoryError> {
    obj.get(key).ok_or_else(|| bad(format!("missing field {key:?}")))
}

impl BenchHistory {
    /// Serializes the full document canonically. The exact byte shape is a
    /// contract: `parse(serialize(h))` gives `h` back and
    /// `serialize(parse(text))` gives `text` back for any `text` this
    /// writer produced.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {HISTORY_SCHEMA},\n"));
        out.push_str("  \"name\": \"pagesim continuous benchmarks\",\n");
        out.push_str("  \"entries\": [");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            out.push_str(&format!("      \"commit\": \"{}\",\n", escape(&e.commit)));
            out.push_str(&format!("      \"timestamp_unix\": {},\n", e.timestamp_unix));
            out.push_str(&format!(
                "      \"bench_scale\": \"{}\",\n",
                escape(&e.bench_scale)
            ));
            out.push_str(&format!("      \"seed\": {},\n", e.seed));
            out.push_str(&format!("      \"counters_enabled\": {},\n", e.counters_enabled));
            out.push_str("      \"metrics\": [");
            for (j, m) in e.metrics.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("\n        {\n");
                out.push_str(&format!("          \"name\": \"{}\",\n", escape(&m.name)));
                out.push_str(&format!("          \"unit\": \"{}\",\n", escape(&m.unit)));
                out.push_str(&format!("          \"direction\": \"{}\",\n", m.direction.label()));
                out.push_str(&format!("          \"mean\": {},\n", fmt_f64(m.mean)));
                out.push_str(&format!("          \"stddev\": {},\n", fmt_f64(m.stddev)));
                out.push_str(&format!("          \"stderr\": {},\n", fmt_f64(m.stderr)));
                out.push_str(&format!("          \"min\": {},\n", fmt_f64(m.min)));
                out.push_str(&format!("          \"max\": {},\n", fmt_f64(m.max)));
                out.push_str(&format!("          \"samples\": {},\n", m.samples));
                out.push_str(&format!(
                    "          \"confidence_interval_95\": [{}, {}],\n",
                    fmt_f64(m.ci_lo),
                    fmt_f64(m.ci_hi)
                ));
                out.push_str(&format!(
                    "          \"ci_width_ratio\": {},\n",
                    fmt_f64(m.ci_width_ratio)
                ));
                out.push_str(&format!("          \"converged\": {}\n", m.converged));
                out.push_str("        }");
            }
            if !e.metrics.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("]\n    }");
        }
        if !self.entries.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses a serialized history document, validating the schema.
    pub fn parse(text: &str) -> Result<BenchHistory, HistoryError> {
        let doc = pagesim_json::parse(text).map_err(|e| bad(e.to_string()))?;
        let schema = field(&doc, "schema")?
            .as_u64()
            .ok_or_else(|| bad("schema is not an integer"))?;
        if schema != u64::from(HISTORY_SCHEMA) {
            return Err(bad(format!("unsupported history schema {schema}")));
        }
        let mut entries = Vec::new();
        for (i, e) in field(&doc, "entries")?
            .as_arr()
            .ok_or_else(|| bad("entries is not an array"))?
            .iter()
            .enumerate()
        {
            entries.push(Self::parse_entry(e).map_err(|err| bad(format!("entry {i}: {err}")))?);
        }
        Ok(BenchHistory { entries })
    }

    fn parse_entry(e: &JsonValue) -> Result<BenchEntry, HistoryError> {
        let str_field = |key: &str| -> Result<String, HistoryError> {
            Ok(field(e, key)?
                .as_str()
                .ok_or_else(|| bad(format!("{key} is not a string")))?
                .to_string())
        };
        let mut metrics = Vec::new();
        for (j, m) in field(e, "metrics")?
            .as_arr()
            .ok_or_else(|| bad("metrics is not an array"))?
            .iter()
            .enumerate()
        {
            metrics.push(Self::parse_metric(m).map_err(|err| bad(format!("metric {j}: {err}")))?);
        }
        Ok(BenchEntry {
            commit: str_field("commit")?,
            timestamp_unix: field(e, "timestamp_unix")?
                .as_u64()
                .ok_or_else(|| bad("timestamp_unix is not an integer"))?,
            bench_scale: str_field("bench_scale")?,
            seed: field(e, "seed")?
                .as_u64()
                .ok_or_else(|| bad("seed is not an integer"))?,
            counters_enabled: field(e, "counters_enabled")?
                .as_bool()
                .ok_or_else(|| bad("counters_enabled is not a bool"))?,
            metrics,
        })
    }

    fn parse_metric(m: &JsonValue) -> Result<MetricRecord, HistoryError> {
        let ci = field(m, "confidence_interval_95")?
            .as_arr()
            .ok_or_else(|| bad("confidence_interval_95 is not an array"))?;
        let [lo, hi] = ci else {
            return Err(bad("confidence_interval_95 is not a pair"));
        };
        Ok(MetricRecord {
            name: field(m, "name")?
                .as_str()
                .ok_or_else(|| bad("name is not a string"))?
                .to_string(),
            unit: field(m, "unit")?
                .as_str()
                .ok_or_else(|| bad("unit is not a string"))?
                .to_string(),
            direction: field(m, "direction")?
                .as_str()
                .and_then(Direction::parse)
                .ok_or_else(|| bad("direction is not higher|lower"))?,
            mean: read_f64(field(m, "mean")?, "mean")?,
            stddev: read_f64(field(m, "stddev")?, "stddev")?,
            stderr: read_f64(field(m, "stderr")?, "stderr")?,
            min: read_f64(field(m, "min")?, "min")?,
            max: read_f64(field(m, "max")?, "max")?,
            samples: field(m, "samples")?
                .as_u64()
                .ok_or_else(|| bad("samples is not an integer"))?,
            ci_lo: read_f64(lo, "ci_lo")?,
            ci_hi: read_f64(hi, "ci_hi")?,
            ci_width_ratio: read_f64(field(m, "ci_width_ratio")?, "ci_width_ratio")?,
            converged: field(m, "converged")?
                .as_bool()
                .ok_or_else(|| bad("converged is not a bool"))?,
        })
    }
}

/// Result of loading a history file from disk.
#[derive(Debug)]
pub struct LoadedHistory {
    /// The usable history (empty if the file was missing or quarantined).
    pub history: BenchHistory,
    /// Where a torn/corrupt file was moved, if one was found.
    pub quarantined: Option<PathBuf>,
}

/// Loads `path`. A missing file yields an empty history; an unreadable or
/// unparsable one (torn final entry, truncation, garbage) is renamed to
/// `<path>.quarantine` — the sweep-cache idiom — and reported, yielding a
/// fresh empty history so the run can still record its entry.
pub fn load(path: &Path) -> LoadedHistory {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return LoadedHistory {
                history: BenchHistory::default(),
                quarantined: None,
            }
        }
        Err(_) => return quarantine(path, "unreadable"),
    };
    match BenchHistory::parse(&text) {
        Ok(history) => LoadedHistory {
            history,
            quarantined: None,
        },
        Err(e) => quarantine(path, &e.msg),
    }
}

fn quarantine(path: &Path, why: &str) -> LoadedHistory {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".quarantine");
    let target = path.with_file_name(name);
    let moved = fs::rename(path, &target).is_ok();
    eprintln!(
        "# bench history {} is corrupt ({why}); {}",
        path.display(),
        if moved {
            format!("quarantined to {}", target.display())
        } else {
            "and could not be quarantined".to_string()
        }
    );
    LoadedHistory {
        history: BenchHistory::default(),
        quarantined: moved.then_some(target),
    }
}

/// Writes the history atomically: serialize to `<path>.tmp.<pid>`, then
/// rename over the target, so a crash can tear the temp file but never the
/// history itself.
pub fn save(history: &BenchHistory, path: &Path) -> std::io::Result<()> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    fs::write(&tmp, history.serialize())?;
    fs::rename(&tmp, path)
}

/// One metric that regressed (or disappeared) relative to the baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// Metric name.
    pub name: String,
    /// Baseline mean.
    pub baseline_mean: f64,
    /// Current mean (`None` when the metric vanished from the matrix).
    pub current_mean: Option<f64>,
    /// Adverse movement of the mean, in the metric's unit.
    pub delta: f64,
    /// The noise band the delta had to exceed.
    pub allowed: f64,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.current_mean {
            None => write!(f, "{}: tracked metric missing from current run", self.name),
            Some(cur) => write!(
                f,
                "{}: {} -> {} (adverse delta {:.4}, allowed {:.4})",
                self.name, self.baseline_mean, cur, self.delta, self.allowed
            ),
        }
    }
}

/// Compares `current` against `baseline`: a tracked metric regresses when
/// its mean moves in the adverse direction by more than the *combined*
/// noise band — baseline CI half-width + current CI half-width +
/// `slack * |baseline mean|`. A baseline metric missing from the current
/// run is always a failure (silently dropping a tracked metric must not
/// pass the gate); metrics new in `current` are ignored (they have no
/// baseline yet).
pub fn check(baseline: &BenchEntry, current: &BenchEntry, slack: f64) -> Vec<Regression> {
    check_with(baseline, current, |_| slack)
}

/// [`check`] with a per-metric slack: `slack_for` maps a metric name to
/// the slack fraction its gate uses. Lets the tightly-repeatable scan
/// microbenches (`*_scan_ns_per_pte/*`) run a narrower band than the
/// noisier end-to-end wall-time metrics without loosening either.
pub fn check_with(
    baseline: &BenchEntry,
    current: &BenchEntry,
    slack_for: impl Fn(&str) -> f64,
) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for base in &baseline.metrics {
        let Some(cur) = current.metric(&base.name) else {
            regressions.push(Regression {
                name: base.name.clone(),
                baseline_mean: base.mean,
                current_mean: None,
                delta: 0.0,
                allowed: 0.0,
            });
            continue;
        };
        let delta = match base.direction {
            Direction::Higher => base.mean - cur.mean,
            Direction::Lower => cur.mean - base.mean,
        };
        let allowed =
            base.ci_half_width() + cur.ci_half_width() + slack_for(&base.name) * base.mean.abs();
        if delta > allowed {
            regressions.push(Regression {
                name: base.name.clone(),
                baseline_mean: base.mean,
                current_mean: Some(cur.mean),
                delta,
                allowed,
            });
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, dir: Direction, mean: f64, half: f64) -> MetricRecord {
        MetricRecord {
            name: name.to_string(),
            unit: "u".to_string(),
            direction: dir,
            mean,
            stddev: half / 2.0,
            stderr: half / 4.0,
            min: mean - half,
            max: mean + half,
            samples: 7,
            ci_lo: mean - half,
            ci_hi: mean + half,
            ci_width_ratio: if mean == 0.0 {
                f64::INFINITY
            } else {
                2.0 * half / mean.abs()
            },
            converged: true,
        }
    }

    fn entry(metrics: Vec<MetricRecord>) -> BenchEntry {
        BenchEntry {
            commit: "deadbeef".to_string(),
            timestamp_unix: 1_754_700_000,
            bench_scale: "quick".to_string(),
            seed: 0xC0FFEE,
            counters_enabled: true,
            metrics,
        }
    }

    #[test]
    fn serialize_parse_roundtrips_structurally_and_bytewise() {
        let h = BenchHistory {
            entries: vec![
                entry(vec![
                    record("pages_per_sec/tpch/clock", Direction::Higher, 1.5e6, 2e4),
                    record("zeroish", Direction::Lower, 0.0, 0.0),
                ]),
                entry(vec![record("sweep_wall_ms/cold", Direction::Lower, 812.25, 40.0)]),
            ],
        };
        let text = h.serialize();
        let back = BenchHistory::parse(&text).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.serialize(), text, "parse -> serialize not byte-identical");
    }

    #[test]
    fn empty_history_roundtrips() {
        let h = BenchHistory::default();
        let text = h.serialize();
        assert_eq!(BenchHistory::parse(&text).unwrap(), h);
        assert_eq!(BenchHistory::parse(&text).unwrap().serialize(), text);
    }

    #[test]
    fn infinite_width_ratio_survives_the_roundtrip() {
        let mut r = record("m", Direction::Lower, 0.0, 1.0);
        r.ci_width_ratio = f64::INFINITY;
        let h = BenchHistory {
            entries: vec![entry(vec![r])],
        };
        let back = BenchHistory::parse(&h.serialize()).unwrap();
        assert!(back.entries[0].metrics[0].ci_width_ratio.is_infinite());
        assert_eq!(back.serialize(), h.serialize());
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let text = BenchHistory::default().serialize().replace(
            "\"schema\": 1",
            "\"schema\": 99",
        );
        assert!(BenchHistory::parse(&text).is_err());
    }

    #[test]
    fn check_passes_identical_entries() {
        let e = entry(vec![
            record("a", Direction::Higher, 100.0, 5.0),
            record("b", Direction::Lower, 10.0, 1.0),
        ]);
        assert!(check(&e, &e, 0.0).is_empty());
    }

    #[test]
    fn check_flags_adverse_moves_beyond_the_band() {
        let base = entry(vec![
            record("thr", Direction::Higher, 100.0, 5.0),
            record("lat", Direction::Lower, 10.0, 1.0),
        ]);
        // Throughput down 20 with combined band 10 (+0 slack): regression.
        // Latency *down* is an improvement, never flagged.
        let cur = entry(vec![
            record("thr", Direction::Higher, 80.0, 5.0),
            record("lat", Direction::Lower, 5.0, 1.0),
        ]);
        let r = check(&base, &cur, 0.0);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].name, "thr");
        assert!((r[0].delta - 20.0).abs() < 1e-12);
        assert!((r[0].allowed - 10.0).abs() < 1e-12);
    }

    #[test]
    fn check_band_includes_both_cis_and_slack() {
        let base = entry(vec![record("thr", Direction::Higher, 100.0, 5.0)]);
        let cur = entry(vec![record("thr", Direction::Higher, 88.0, 4.0)]);
        // delta 12, band = 5 + 4 + slack*100.
        assert_eq!(check(&base, &cur, 0.0).len(), 1);
        assert!(check(&base, &cur, 0.05).is_empty(), "5% slack covers it");
    }

    #[test]
    fn check_with_applies_per_metric_slack() {
        let base = entry(vec![
            record("aging_scan_ns_per_pte/mglru", Direction::Lower, 10.0, 0.1),
            record("sweep_wall_ms/cold", Direction::Lower, 100.0, 1.0),
        ]);
        // Both move adversely by 15% of the baseline mean.
        let cur = entry(vec![
            record("aging_scan_ns_per_pte/mglru", Direction::Lower, 11.5, 0.1),
            record("sweep_wall_ms/cold", Direction::Lower, 115.0, 1.0),
        ]);
        // Uniform 25% slack: both pass.
        assert!(check(&base, &cur, 0.25).is_empty());
        // Scan metrics gated at 10%, the rest at 25%: only the scan
        // metric's move exceeds its band.
        let r = check_with(&base, &cur, |name| {
            if name.contains("_scan_ns_per_pte/") {
                0.10
            } else {
                0.25
            }
        });
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].name, "aging_scan_ns_per_pte/mglru");
    }

    #[test]
    fn check_fails_on_missing_tracked_metric() {
        let base = entry(vec![record("gone", Direction::Higher, 1.0, 0.1)]);
        let cur = entry(vec![]);
        let r = check(&base, &cur, 1.0);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].current_mean, None);
    }

    #[test]
    fn new_metrics_in_current_are_not_failures() {
        let base = entry(vec![]);
        let cur = entry(vec![record("new", Direction::Higher, 1.0, 0.1)]);
        assert!(check(&base, &cur, 0.0).is_empty());
    }
}
