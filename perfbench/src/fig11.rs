//! `fig11-sweep`: the default-scale Fig 11 sweep (5 workloads x {Clock,
//! MG-LRU} x {SSD, ZRAM} at 50% x 10 trials) through the sweep executor
//! into a fresh cache directory on one worker, then the Fig 11 render.

use std::path::{Path, PathBuf};

use pagesim::experiments::{self, Bench, Scale, Wl};
use pagesim::RunMetrics;
use pagesim_bench::sweep::{journal::Journal, run_sweep_resilient, SweepOptions};
use pagesim_engine::rng::trial_seed;
use pagesim_workloads::pagerank::{PageRankConfig, PageRankWorkload};
use pagesim_workloads::tpch::{TpchConfig, TpchWorkload};
use pagesim_workloads::ycsb::{YcsbConfig, YcsbMix, YcsbWorkload};
use pagesim_workloads::Workload;

use crate::common::{self, median, Host, Report, Stopwatch};

/// Set-ups timed before the measured loop and after each sweep. One
/// set-up takes milliseconds of CPU and host speed drifts over seconds,
/// so `setup_s` is the median of many, spread over the whole run.
const EXTRA_SETUPS: usize = 16;

/// The seed `figures_default.txt` was rendered at.
const GOLDEN_SEED: u64 = 0xC0FFEE;

fn scale(seed: u64) -> Scale {
    Scale {
        seed,
        ..Scale::default_scale()
    }
}

/// The five workloads built the way `Bench::new` builds them, for the
/// standalone drain (`Bench` keeps its own instances private).
fn workloads(scale: Scale) -> Vec<(Wl, Box<dyn Workload>)> {
    let f = scale.footprint;
    let ycsb = |mix| {
        let mut cfg = YcsbConfig::with_mix(mix);
        cfg.items = ((cfg.items as f64 * f) as u32).max(1_000);
        cfg.requests = ((cfg.requests as f64 * f) as u64).max(10_000);
        Box::new(YcsbWorkload::new(cfg, 0xD00D)) as Box<dyn Workload>
    };
    vec![
        (
            Wl::Tpch,
            Box::new(TpchWorkload::new(TpchConfig::default().scaled(f))),
        ),
        (
            Wl::PageRank,
            Box::new(PageRankWorkload::new(
                PageRankConfig::default().scaled(f),
                0xD00D,
            )),
        ),
        (Wl::YcsbA, ycsb(YcsbMix::A)),
        (Wl::YcsbB, ycsb(YcsbMix::B)),
        (Wl::YcsbC, ycsb(YcsbMix::C)),
    ]
}

/// The Fig 11 table of a `repro` output: from its title line up to its
/// `took` line, trailing blank lines dropped.
fn fig11_block(figures: &str) -> Option<String> {
    let start = figures.find("Fig 11:")?;
    let end = start + figures[start..].find("# (fig11 took")?;
    Some(figures[start..end].trim_end().to_owned())
}

struct SetUp {
    bench: Bench,
    cache_dir: PathBuf,
    /// CPU seconds in `Bench::new`, the workloads layer's share.
    workloads_s: f64,
    /// CPU seconds of the whole set-up.
    secs: f64,
}

/// Everything before the first simulated access: the workloads, and a
/// fresh cache directory with its run journal.
fn set_up(scale: Scale, cache_dir: PathBuf) -> SetUp {
    let t0 = Stopwatch::start();
    let bench = Bench::new(scale);
    let workloads_s = t0.cpu();
    std::fs::create_dir_all(&cache_dir).expect("create the sweep cache directory");
    drop(Journal::open(&cache_dir.join("run-journal.jsonl"), false).expect("open the run journal"));
    SetUp {
        bench,
        cache_dir,
        workloads_s,
        secs: t0.cpu(),
    }
}

pub fn run(seed: u64, seconds: f64, figures: &Path, work: &Path) -> Report {
    let scale = scale(seed);
    let figs = vec!["fig11".to_owned()];
    let golden = (seed == GOLDEN_SEED).then(|| {
        let text = std::fs::read_to_string(figures).expect("read the figure goldens");
        fig11_block(&text).expect("the figure goldens hold a Fig 11 block")
    });
    let mut report = Report::default();
    let (mut setup, mut wl_build) = (Vec::new(), Vec::new());
    let extra_setups = |setup: &mut Vec<f64>, wl_build: &mut Vec<f64>| {
        for _ in 0..EXTRA_SETUPS {
            let s = set_up(scale, work.join("setup"));
            std::fs::remove_dir_all(&s.cache_dir).expect("remove the sweep cache directory");
            setup.push(s.secs);
            wl_build.push(s.workloads_s);
        }
    };
    extra_setups(&mut setup, &mut wl_build);

    // Outside the measured window: trial 0 of each workload's streams.
    let mut drained = common::Drain::default();
    let bench = Bench::new(scale);
    for (wl, w) in workloads(scale) {
        assert_eq!(
            w.footprint_pages(),
            bench.footprint(wl),
            "{wl:?} built unlike Bench::new"
        );
        drained = drained.add(common::drain(w.as_ref(), trial_seed(seed, 0)));
    }
    drop(bench);

    // Sampled for `host.calibration_s` only: the calibration does not
    // follow this workload's noise (README, "Noise"), so nothing here is
    // divided by it.
    let mut host = Host::new();
    let (mut cpu, mut wall, mut sim, mut rate, mut render) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut plan, mut exec, mut merge) = (Vec::new(), Vec::new(), Vec::new());
    let start = Stopwatch::start();
    while common::keep_going(start, seconds, &wall) {
        let t0 = Stopwatch::start();
        let s = set_up(scale, work.join("sweep"));
        let opts = SweepOptions {
            jobs: 1,
            cache_dir: Some(s.cache_dir.clone()),
            journal: Some(s.cache_dir.join("run-journal.jsonl")),
            ..SweepOptions::default()
        };
        // The process clock counts the sweep's worker thread too.
        let t1 = Stopwatch::start();
        let outcome = run_sweep_resilient(&s.bench, &figs, &opts);
        let sweep_s = t1.cpu();
        let t2 = Stopwatch::start();
        let body = experiments::fig11(&s.bench).to_string();
        let render_s = t2.cpu();

        let stats = outcome.stats;
        let mut problems = Vec::new();
        if stats.failed > 0 || !outcome.failures.is_empty() || outcome.aborted {
            problems.push(format!(
                "{} trials failed, {} cells missing",
                stats.failed,
                outcome.failures.len()
            ));
        }
        for d in &outcome.degraded {
            problems.push(format!("{} degraded: {}", d.ident, d.error));
        }
        if s.bench.cells_computed() != 0 {
            problems.push("Fig 11 rendered cells the sweep did not install".into());
        }
        let cells: Vec<_> = experiments::figure_cells("fig11")
            .iter()
            .filter(|q| s.bench.has_cell(q))
            .map(|q| s.bench.query(q))
            .collect();
        let runs: Vec<&RunMetrics> = cells.iter().flat_map(|c| c.runs.iter()).collect();
        if runs.len() != stats.trials || stats.cache_misses != stats.trials {
            problems.push(format!(
                "{} trials merged, {} planned, {} simulated",
                runs.len(),
                stats.trials,
                stats.cache_misses
            ));
        }
        for m in &runs {
            problems.extend(common::conservation(m));
        }
        if let Some(g) = &golden {
            if *g != body.trim_end() {
                problems.push(format!("Fig 11 differs from figures_default.txt\n{body}"));
            }
        }
        let mut digest = common::fnv1a(body.as_bytes(), common::FNV_OFFSET);
        for m in &runs {
            digest = common::fnv1a(m.to_cache_text().as_bytes(), digest);
        }
        let accesses: u64 = runs.iter().map(|m| m.accesses).sum();
        report.set_counts(&runs);
        drop(cells);
        std::fs::remove_dir_all(&s.cache_dir).expect("remove the sweep cache directory");
        if report.attempted > 0 && report.digest != digest {
            problems.push("two sweeps of one seed differ".into());
        }
        report.operation(problems);
        let (op_cpu, op_wall) = (t0.cpu(), t0.wall());

        report.digest = digest;
        report.fingerprint = format!("{digest:016x}");
        setup.push(s.secs);
        wl_build.push(s.workloads_s);
        plan.push(stats.plan_ms as f64 / 1e3);
        exec.push(stats.exec_ms as f64 / 1e3);
        merge.push(stats.merge_ms as f64 / 1e3);
        report.set("bench.sweep.trials", stats.trials as f64);
        report.set("bench.cache.misses", stats.cache_misses as f64);
        // The next set-ups must not run beside this sweep's results:
        // peak RSS counts one sweep at a time.
        drop(s);
        host.calibrate();
        cpu.push(op_cpu);
        wall.push(op_wall);
        sim.push(sweep_s);
        rate.push(accesses as f64 / sweep_s);
        render.push(render_s);
        extra_setups(&mut setup, &mut wl_build);
    }

    // The sweep's own phase timers are wall time, as it reports them.
    report.set("cpu_s", median(&cpu));
    report.set("setup_s", median(&setup));
    report.set("sim_pages_per_s", median(&rate));
    report.set("peak_rss_mib", host.peak_rss_mib());
    report.set("sim_s", median(&sim));
    report.set("host.cpu_s", median(&cpu));
    report.set("host.wall_s", median(&wall));
    report.set("host.calibration_s", host.calibration_s());
    report.set("workloads.build_s", median(&wl_build));
    report.set("workloads.drain_ns_per_op", drained.ns_per_op());
    report.set("bench.sweep.plan_s", median(&plan));
    report.set("bench.sweep.exec_s", median(&exec));
    report.set("bench.sweep.merge_s", median(&merge));
    report.set("experiments.render_s", median(&render));
    // Kernel builds and runs happen on the sweep's worker thread, inside
    // `run_sweep`: from outside they are not separable, and the host-time
    // counters are thread-local to that worker.
    for name in [
        "core.build_s",
        "core.run_s",
        "core.fault_s",
        "core.reclaim_s",
        "core.outside_fault_reclaim_s",
        "core.fault_ns_per_op",
        "core.reclaim_ns_per_batch",
        "mem.aging_scan_ns_per_pte",
        "mem.evict_scan_ns_per_pte",
    ] {
        report.set(name, 0.0);
    }
    report
}
