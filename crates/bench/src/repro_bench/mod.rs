//! `repro bench` — the statistically-converged benchmark matrix.
//!
//! A fixed, named matrix of performance probes over the simulator's hot
//! paths:
//!
//! * **`pages_per_sec/<wl>/<policy>`** — simulated MMU touches per host
//!   second for one fixed trial of each workload × policy cell (SSD, 50%
//!   ratio). The simulation input is identical every sample — same seed,
//!   same trial — so the samples measure pure host execution speed.
//! * **`workingset_refault_distance_p50/<wl>/<policy>`** / **`_p99`** —
//!   refault-distance percentiles (in evictions) from the same fixed
//!   trial's shadow-entry histogram. Deterministic per trial, so these
//!   gate working-set *behavior* drift rather than host speed.
//! * **`fault_path_ns_per_op/<policy>`** / **`reclaim_batch_ns_per_op/<policy>`**
//!   — mean host nanoseconds inside the kernel fault path and per reclaim
//!   batch, from the `bench-counters` side channel
//!   ([`pagesim::benchcounters`]). Only present in a counters-enabled
//!   build; figure runs compile the probes out entirely.
//! * **`sweep_wall_ms/cold`** / **`sweep_wall_ms/warm`** — wall time of a
//!   smoke-scale sweep through the real executor against an empty vs. a
//!   fully-primed cell cache (the end-to-end numbers `--jobs` and the
//!   cache exist to improve).
//!
//! Each probe is sampled under the adaptive stopping rule
//! ([`pagesim_stats::StopRule`]): keep sampling until every one of its
//! metrics has a 95% CI narrower than 10% of its mean, bounded by a
//! minimum (CI validity) and a hard cap. A capped metric is recorded with
//! `converged: false` — never silently accepted.
//!
//! Results append to the checked-in [`history`] trajectory
//! (`BENCH_pagesim.json`), and [`history::check`] gates regressions
//! against the previous entry's combined noise band.

pub mod history;

use std::path::PathBuf;
// Host timing is the entire point of this module; the bench crate is
// outside pagesim-lint's sim-crate set.
use std::time::Instant;

use pagesim::benchcounters;
use pagesim::experiments::{Bench, CellQuery, Scale, Wl};
use pagesim::PolicyChoice;
use pagesim::SwapChoice;
use pagesim_stats::{Decision, Moments, StopRule};

use crate::sweep::{run_sweep, SweepOptions};
use history::{BenchEntry, Direction, MetricRecord};

/// Named sampling scale for the bench matrix.
#[derive(Clone, Copy, Debug)]
pub struct BenchScale {
    /// Scale name, recorded in each history entry.
    pub name: &'static str,
    /// Workload scale the trial probes run at.
    pub workload_scale: Scale,
    /// Minimum samples per metric before convergence may be declared.
    pub min_samples: u64,
    /// Hard cap on samples per probe.
    pub max_samples: u64,
    /// Every workload in the matrix gets a `pages_per_sec` probe per
    /// policy; `true` also covers the three YCSB mixes (default scale),
    /// `false` keeps just TPC-H + YCSB-A (quick scale).
    pub full_workload_set: bool,
}

impl BenchScale {
    /// CI smoke scale: tiny footprints, low sample cap.
    pub fn quick() -> BenchScale {
        BenchScale {
            name: "quick",
            workload_scale: Scale::smoke(),
            min_samples: 3,
            max_samples: 5,
            full_workload_set: false,
        }
    }

    /// Default scale: half footprints, converges most metrics properly.
    pub fn default_scale() -> BenchScale {
        BenchScale {
            name: "default",
            workload_scale: Scale::default_scale(),
            min_samples: 5,
            max_samples: 25,
            full_workload_set: true,
        }
    }

    /// Parses a `--bench-scale` argument.
    pub fn parse(s: &str) -> Option<BenchScale> {
        match s {
            "quick" => Some(BenchScale::quick()),
            "default" => Some(BenchScale::default_scale()),
            _ => None,
        }
    }

    /// The stopping rule at this scale, with optional CLI overrides.
    pub fn rule(&self, min: Option<u64>, max: Option<u64>) -> StopRule {
        let min = min.unwrap_or(self.min_samples).max(2);
        let max = max.unwrap_or(self.max_samples).max(min);
        StopRule::ten_percent(min, max)
    }
}

/// One tracked metric's identity within the matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricSpec {
    /// Stable name, e.g. `pages_per_sec/tpch/clock`.
    pub name: String,
    /// Unit label.
    pub unit: &'static str,
    /// Which way improvement points.
    pub direction: Direction,
}

/// What a probe actually executes per sample.
#[derive(Clone, Debug)]
enum ProbeKind {
    /// One fixed simulation trial, timed on the host.
    Trial(CellQuery),
    /// One trial with the `bench-counters` side channel read out. The
    /// flag adds the word-scan metrics (aging/evict ns-per-PTE), which
    /// only MG-LRU exercises — Clock has no table-walk paths, so its
    /// scan counters would sit at a meaningless constant zero.
    Counters(CellQuery, bool),
    /// A smoke-scale sweep against an empty cache.
    SweepCold,
    /// A smoke-scale sweep against a primed cache.
    SweepWarm,
}

/// One named probe: an execution recipe plus the metrics it yields.
#[derive(Clone, Debug)]
pub struct BenchProbe {
    /// Stable probe label (progress lines, determinism tests).
    pub label: String,
    /// The metrics one execution samples, in order.
    pub metrics: Vec<MetricSpec>,
    kind: ProbeKind,
}

/// The figures the sweep wall-time probes run (smoke scale: 4 cells).
const SWEEP_PROBE_FIGS: &[&str] = &["fig2"];

/// True for the per-PTE scan microbench metrics
/// (`aging_scan_ns_per_pte/*`, `evict_scan_ns_per_pte/*`). These measure
/// pure host-side scan speed with no simulated-time noise, so the
/// regression gate holds them to a tighter slack than end-to-end metrics.
pub fn is_scan_metric(name: &str) -> bool {
    name.contains("_scan_ns_per_pte/")
}

/// Enumerates the full benchmark matrix for a scale, in canonical order.
/// Pure: two calls (any process, any `--jobs`) enumerate byte-identical
/// specs. The counter probes exist only in a `bench-counters` build.
pub fn matrix(scale: &BenchScale) -> Vec<BenchProbe> {
    let policies = [PolicyChoice::Clock, PolicyChoice::MgLruDefault];
    let workloads: &[Wl] = if scale.full_workload_set {
        &[Wl::Tpch, Wl::PageRank, Wl::YcsbA, Wl::YcsbB, Wl::YcsbC]
    } else {
        &[Wl::Tpch, Wl::YcsbA]
    };
    let mut probes = Vec::new();
    for &wl in workloads {
        for policy in policies {
            let query = CellQuery::healthy(wl, policy, SwapChoice::Ssd, 0.5);
            probes.push(BenchProbe {
                label: format!("trial/{}/{}", wl.label(), policy.label()),
                // pages_per_sec must stay the probe's first metric: the CI
                // regression-gate smoke mutates metrics[0] of the history
                // entry and expects a wall-time regression.
                metrics: vec![
                    MetricSpec {
                        name: format!("pages_per_sec/{}/{}", wl.label(), policy.label()),
                        unit: "pages/sec",
                        direction: Direction::Higher,
                    },
                    MetricSpec {
                        name: format!(
                            "workingset_refault_distance_p50/{}/{}",
                            wl.label(),
                            policy.label()
                        ),
                        unit: "evictions",
                        direction: Direction::Lower,
                    },
                    MetricSpec {
                        name: format!(
                            "workingset_refault_distance_p99/{}/{}",
                            wl.label(),
                            policy.label()
                        ),
                        unit: "evictions",
                        direction: Direction::Lower,
                    },
                ],
                kind: ProbeKind::Trial(query),
            });
        }
    }
    if benchcounters::ENABLED {
        for policy in policies {
            let query = CellQuery::healthy(Wl::Tpch, policy, SwapChoice::Ssd, 0.5);
            let scan_metrics = matches!(policy, PolicyChoice::MgLruDefault);
            let mut metrics = vec![
                MetricSpec {
                    name: format!("fault_path_ns_per_op/{}", policy.label()),
                    unit: "ns/op",
                    direction: Direction::Lower,
                },
                MetricSpec {
                    name: format!("reclaim_batch_ns_per_op/{}", policy.label()),
                    unit: "ns/op",
                    direction: Direction::Lower,
                },
            ];
            if scan_metrics {
                metrics.push(MetricSpec {
                    name: format!("aging_scan_ns_per_pte/{}", policy.label()),
                    unit: "ns/pte",
                    direction: Direction::Lower,
                });
                metrics.push(MetricSpec {
                    name: format!("evict_scan_ns_per_pte/{}", policy.label()),
                    unit: "ns/pte",
                    direction: Direction::Lower,
                });
            }
            probes.push(BenchProbe {
                label: format!("counters/{}", policy.label()),
                metrics,
                kind: ProbeKind::Counters(query, scan_metrics),
            });
        }
    }
    probes.push(BenchProbe {
        label: "sweep/cold".to_string(),
        metrics: vec![MetricSpec {
            name: "sweep_wall_ms/cold".to_string(),
            unit: "ms",
            direction: Direction::Lower,
        }],
        kind: ProbeKind::SweepCold,
    });
    probes.push(BenchProbe {
        label: "sweep/warm".to_string(),
        metrics: vec![MetricSpec {
            name: "sweep_wall_ms/warm".to_string(),
            unit: "ms",
            direction: Direction::Lower,
        }],
        kind: ProbeKind::SweepWarm,
    });
    probes
}

/// The matrix rendered as one stable line per metric:
/// `<metric-name>\t<unit>\t<direction>\t<probe-label>`. This is the byte
/// string the determinism tests compare across runs and `--jobs` values,
/// and what `repro bench --list` prints.
pub fn matrix_spec(probes: &[BenchProbe]) -> String {
    let mut out = String::new();
    for p in probes {
        for m in &p.metrics {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\n",
                m.name,
                m.unit,
                m.direction.label(),
                p.label
            ));
        }
    }
    out
}

/// Everything `run_bench` needs beyond the matrix itself.
#[derive(Clone, Debug)]
pub struct BenchOptions {
    /// Sampling scale.
    pub scale: BenchScale,
    /// Override the scale's minimum samples per metric.
    pub min_samples: Option<u64>,
    /// Override the scale's sample cap.
    pub max_samples: Option<u64>,
    /// Worker threads for the sweep probes.
    pub jobs: usize,
    /// Scratch directory for the sweep probes' caches. Defaults to the
    /// system temp dir; tests point it somewhere private.
    pub scratch_dir: Option<PathBuf>,
}

/// The outcome of one full matrix run.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// The history entry (commit/timestamp stamped by the caller).
    pub entry: BenchEntry,
    /// Total wall time of the run, ms.
    pub wall_ms: u64,
    /// Total samples taken across all probes.
    pub total_samples: u64,
}

/// Runs the whole matrix: samples every probe under the stopping rule and
/// assembles the commit-stamped history entry. Progress goes to stderr.
pub fn run_bench(opts: &BenchOptions, commit: &str, timestamp_unix: u64) -> BenchReport {
    let t0 = Instant::now();
    let rule = opts.scale.rule(opts.min_samples, opts.max_samples);
    let probes = matrix(&opts.scale);
    let bench = Bench::new(opts.scale.workload_scale);
    let scratch = opts
        .scratch_dir
        .clone()
        .unwrap_or_else(std::env::temp_dir)
        .join(format!("pagesim-bench-{}", std::process::id()));

    let mut metrics = Vec::new();
    let mut total_samples = 0u64;
    for (idx, probe) in probes.iter().enumerate() {
        let mut streams: Vec<Moments> = probe.metrics.iter().map(|_| Moments::new()).collect();
        let mut runner = ProbeRunner::new(&probe.kind, &bench, opts, &scratch, idx);
        loop {
            let samples = runner.sample();
            debug_assert_eq!(samples.len(), streams.len());
            for (m, s) in streams.iter_mut().zip(&samples) {
                m.add(*s);
            }
            total_samples += 1;
            // All metrics of a probe share its sample count; keep sampling
            // while any of them still wants more.
            let all_stopped = streams
                .iter()
                .all(|m| !matches!(rule.decide(m), Decision::Continue));
            if all_stopped {
                break;
            }
        }
        runner.cleanup();
        for (spec, m) in probe.metrics.iter().zip(&streams) {
            let est = rule.estimate(m);
            eprintln!(
                "# bench {}: mean={:.3} {} ci=[{:.3}, {:.3}] n={} converged={}",
                spec.name, est.mean, spec.unit, est.ci_lo, est.ci_hi, est.samples, est.converged
            );
            metrics.push(MetricRecord::from_estimate(
                &spec.name,
                spec.unit,
                spec.direction,
                &est,
            ));
        }
    }

    BenchReport {
        entry: BenchEntry {
            commit: commit.to_string(),
            timestamp_unix,
            bench_scale: opts.scale.name.to_string(),
            seed: opts.scale.workload_scale.seed,
            counters_enabled: benchcounters::ENABLED,
            metrics,
        },
        wall_ms: t0.elapsed().as_millis() as u64,
        total_samples,
    }
}

/// Per-probe execution state (scratch cache dirs for the sweep probes).
struct ProbeRunner<'a> {
    kind: &'a ProbeKind,
    bench: &'a Bench,
    jobs: usize,
    scratch: PathBuf,
    cold_counter: u32,
    warm_primed: bool,
}

impl<'a> ProbeRunner<'a> {
    fn new(
        kind: &'a ProbeKind,
        bench: &'a Bench,
        opts: &BenchOptions,
        scratch: &std::path::Path,
        probe_idx: usize,
    ) -> ProbeRunner<'a> {
        ProbeRunner {
            kind,
            bench,
            jobs: opts.jobs,
            scratch: scratch.join(format!("probe-{probe_idx}")),
            cold_counter: 0,
            warm_primed: false,
        }
    }

    /// Executes the probe once, returning one sample per metric.
    fn sample(&mut self) -> Vec<f64> {
        match self.kind {
            ProbeKind::Trial(query) => {
                let t0 = Instant::now();
                let metrics = self.bench.run_trial(query, 0);
                let secs = t0.elapsed().as_secs_f64().max(1e-9);
                // The refault-distance percentiles are a pure function of
                // the trial (zero variance across samples), so they
                // converge at the minimum sample count and gate any
                // deterministic drift in working-set behavior.
                let h = &metrics.workingset_refault_distance;
                let (p50, p99) = if h.count() > 0 {
                    (
                        h.value_at_percentile(50.0) as f64,
                        h.value_at_percentile(99.0) as f64,
                    )
                } else {
                    (0.0, 0.0)
                };
                vec![metrics.accesses as f64 / secs, p50, p99]
            }
            ProbeKind::Counters(query, scan_metrics) => {
                benchcounters::reset();
                let _ = self.bench.run_trial(query, 0);
                let snap = benchcounters::take();
                let mut samples = vec![
                    snap.fault_ns_per_op().unwrap_or(0.0),
                    snap.reclaim_ns_per_op().unwrap_or(0.0),
                ];
                if *scan_metrics {
                    samples.push(snap.aging_scan_ns_per_pte().unwrap_or(0.0));
                    samples.push(snap.evict_scan_ns_per_pte().unwrap_or(0.0));
                }
                samples
            }
            ProbeKind::SweepCold => {
                // A brand-new cache dir every sample: every trial misses.
                self.cold_counter += 1;
                let dir = self.scratch.join(format!("cold-{}", self.cold_counter));
                let ms = self.run_sweep_probe(&dir);
                let _ = std::fs::remove_dir_all(&dir);
                vec![ms]
            }
            ProbeKind::SweepWarm => {
                // One priming sweep, then every sample hits a full cache.
                let dir = self.scratch.join("warm");
                if !self.warm_primed {
                    self.run_sweep_probe(&dir);
                    self.warm_primed = true;
                }
                vec![self.run_sweep_probe(&dir)]
            }
        }
    }

    /// Runs the smoke-scale probe sweep into `cache_dir`; returns wall ms.
    /// A fresh `Bench` per sample: installed cells would otherwise make
    /// every later sweep a no-op plan.
    fn run_sweep_probe(&self, cache_dir: &std::path::Path) -> f64 {
        let bench = Bench::new(Scale::smoke());
        let figs: Vec<String> = SWEEP_PROBE_FIGS.iter().map(|f| f.to_string()).collect();
        let opts = SweepOptions {
            jobs: self.jobs,
            cache_dir: Some(cache_dir.to_path_buf()),
            ..SweepOptions::default()
        };
        let t0 = Instant::now();
        let _ = run_sweep(&bench, &figs, &opts);
        t0.elapsed().as_secs_f64() * 1e3
    }

    fn cleanup(&self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

/// Resolves the commit id to stamp an entry with: an explicit `--commit`
/// wins, then the `PAGESIM_COMMIT` environment variable, then
/// `git rev-parse HEAD`, then `"unknown"`.
pub fn resolve_commit(cli: Option<String>) -> String {
    if let Some(c) = cli {
        return c;
    }
    if let Ok(c) = std::env::var("PAGESIM_COMMIT") {
        if !c.trim().is_empty() {
            return c.trim().to_string();
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_enumeration_is_deterministic() {
        let a = matrix_spec(&matrix(&BenchScale::quick()));
        let b = matrix_spec(&matrix(&BenchScale::quick()));
        assert_eq!(a, b);
        assert!(a.contains("pages_per_sec/tpch/clock\tpages/sec\thigher\ttrial/tpch/clock\n"));
        assert!(a.contains(
            "workingset_refault_distance_p50/tpch/clock\tevictions\tlower\ttrial/tpch/clock\n"
        ));
        assert!(a.contains(
            "workingset_refault_distance_p99/ycsb-a/mglru\tevictions\tlower\ttrial/ycsb-a/mglru\n"
        ));
        assert!(a.contains("sweep_wall_ms/cold\tms\tlower\tsweep/cold\n"));
        assert!(a.contains("sweep_wall_ms/warm\tms\tlower\tsweep/warm\n"));
        // The trial probes' first metric must remain pages_per_sec (the CI
        // gate smoke mutates the entry's metrics[0]).
        assert!(a.starts_with("pages_per_sec/"));
    }

    #[test]
    fn default_matrix_covers_all_workloads() {
        let spec = matrix_spec(&matrix(&BenchScale::default_scale()));
        for wl in ["tpch", "pagerank", "ycsb-a", "ycsb-b", "ycsb-c"] {
            for policy in ["clock", "mglru"] {
                assert!(
                    spec.contains(&format!("pages_per_sec/{wl}/{policy}\t")),
                    "missing {wl}/{policy}"
                );
            }
        }
    }

    #[test]
    fn counter_probes_follow_the_feature() {
        let spec = matrix_spec(&matrix(&BenchScale::quick()));
        assert_eq!(
            spec.contains("fault_path_ns_per_op/"),
            benchcounters::ENABLED
        );
        assert_eq!(
            spec.contains("reclaim_batch_ns_per_op/"),
            benchcounters::ENABLED
        );
        // Scan metrics ride the mglru counters probe only: Clock has no
        // table-walk scan paths.
        assert_eq!(
            spec.contains("aging_scan_ns_per_pte/mglru\tns/pte\tlower\tcounters/mglru\n"),
            benchcounters::ENABLED
        );
        assert_eq!(
            spec.contains("evict_scan_ns_per_pte/mglru\tns/pte\tlower\tcounters/mglru\n"),
            benchcounters::ENABLED
        );
        assert!(!spec.contains("aging_scan_ns_per_pte/clock"));
        assert!(!spec.contains("evict_scan_ns_per_pte/clock"));
    }

    #[test]
    fn metric_names_are_unique() {
        let probes = matrix(&BenchScale::default_scale());
        let mut names: Vec<&str> = probes
            .iter()
            .flat_map(|p| p.metrics.iter().map(|m| m.name.as_str()))
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn scale_rule_applies_overrides() {
        let s = BenchScale::quick();
        let r = s.rule(None, None);
        assert_eq!((r.min_samples, r.max_samples), (3, 5));
        let r = s.rule(Some(2), Some(100));
        assert_eq!((r.min_samples, r.max_samples), (2, 100));
        // max clamps up to min; min clamps up to 2.
        let r = s.rule(Some(1), Some(1));
        assert_eq!((r.min_samples, r.max_samples), (2, 2));
    }

    #[test]
    fn commit_resolution_prefers_cli() {
        assert_eq!(resolve_commit(Some("abc".into())), "abc");
    }
}
