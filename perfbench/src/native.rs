//! `native-reclaim` and `resident-stream`: one paper-native TPC-H trial
//! (1,024,000 pages, `page_compression` 3) on MG-LRU + SSD, at 50% and
//! at 90% capacity. Only the TPC-H workload is built: nothing is set up
//! that the trial does not use.
//!
//! The TPC-H model draws one live execution-memory fraction per run,
//! uniform in [0.30, 0.60), so that its runs spread from fits-with-room to
//! steady thrash like the paper's 700-2000 s runtimes. At 50% capacity
//! that one draw moves a trial's major faults 4x and its host time 2.5x,
//! which no affordable run length averages away. So the benchmark holds
//! that input property fixed: from `--seed` it takes the first trial whose
//! live fraction falls in [`LIVE_BAND`]. Everything else the seed drives
//! (query windows, per-thread streams, the kernel's own draws) still
//! varies.

use std::path::Path;

use pagesim::benchcounters;
use pagesim::experiments::Scale;
use pagesim::{Kernel, PolicyChoice, SwapChoice, SystemConfig};
use pagesim_engine::rng::{derive_seed, small_rng, trial_seed};
use pagesim_workloads::tpch::{TpchConfig, TpchWorkload};
use rand::RngExt;

use crate::common::{self, median, Host, Report, Stopwatch};

/// Set-ups timed after the warm-up trial, and again after each measured
/// trial; `setup_s` is their median. The warm-up faults the process's
/// memory in; every later set-up and trial reuses it
/// (`common::keep_freed_memory`).
const SETUPS: usize = 8;
const SETUPS_PER_TRIAL: usize = 4;

/// Live execution-memory fractions a benchmark trial may draw: near the
/// middle of the model's range, where the 50% cell straddles its
/// capacity. Across seeds 0-31, trials in [0.44, 0.46) spread their
/// major faults 1.12M-1.62M (IQR 9% of the median), and the trial's host
/// time with them; in this narrower band the IQR is 3.6%.
const LIVE_BAND: std::ops::Range<f64> = 0.456..0.46;

/// The live fraction `TpchWorkload::streams(seed)` draws (mirrors
/// `pagesim_workloads::tpch`; the goldens catch any drift).
fn live_fraction(seed: u64) -> f64 {
    0.30 + 0.30 * small_rng(derive_seed(seed, "tpch-live")).random::<f64>()
}

/// The seed of the first trial of the `seed` cell whose live fraction is
/// in [`LIVE_BAND`], derived the way `Bench::run_trial` derives them.
fn pick_trial(seed: u64) -> u64 {
    (0..)
        .map(|i| trial_seed(seed, i))
        .find(|&t| LIVE_BAND.contains(&live_fraction(t)))
        .expect("a trial in the live band")
}

fn workload() -> TpchWorkload {
    TpchWorkload::new(TpchConfig::default().scaled(Scale::paper_native().footprint))
}

fn config(ratio: f64) -> SystemConfig {
    let mut config =
        SystemConfig::new(PolicyChoice::MgLruDefault, SwapChoice::Ssd).capacity_ratio(ratio);
    config.page_compression = Scale::paper_native()
        .page_compression
        .expect("the paper-native tier overrides page compression");
    config
}

/// Runs a warm-up trial, then trials of the cell at `ratio` until
/// `seconds` have passed, and checks each against the goldens and the
/// stream drain.
pub fn run(ratio: f64, seed: u64, seconds: f64, golden_file: &Path) -> Report {
    let config = config(ratio);
    let blessed = common::golden(golden_file, seed);
    let seed = pick_trial(seed);
    let mut report = Report::default();

    let (mut setup, mut wl_build, mut core_build) = (vec![], vec![], vec![]);
    // Everything before the first simulated access; returns the kernel
    // and the CPU seconds spent building the workload and the kernel.
    let timed_setup = || {
        let t0 = Stopwatch::start();
        let w = workload();
        let wl_s = t0.cpu();
        let t1 = Stopwatch::start();
        let kernel = Kernel::build(&config, &w, seed);
        (kernel, wl_s, t1.cpu())
    };
    let mut setups = |n: usize| {
        for _ in 0..n {
            let (_, wl_s, build_s) = timed_setup();
            wl_build.push(wl_s);
            core_build.push(build_s);
            setup.push(wl_s + build_s);
        }
    };

    // Outside the measured window: the workloads layer on its own, and
    // the touch count every trial must reproduce.
    let drained = common::drain(&workload(), seed);

    let (mut cpu, mut raw_cpu, mut wall, mut rate) = (vec![], vec![], vec![], vec![]);
    let (mut run_s, mut run_wall, mut snaps) = (Vec::new(), Vec::new(), Vec::new());
    // Set after the warm-up, with the process's peak RSS at that point.
    let mut host: Option<(Host, f64)> = None;
    let mut start = Stopwatch::start();
    while common::keep_going(start, seconds, &wall) {
        let t0 = Stopwatch::start();
        let (kernel, _, _) = timed_setup();
        benchcounters::reset();
        let t1 = Stopwatch::start();
        let m = kernel.run();
        let (sim_s, sim_wall) = (t1.cpu(), t1.wall());
        let snap = benchcounters::take();

        let fp = common::fingerprint(&m);
        let mut problems = common::conservation(&m);
        if m.major_faults != m.swap_stats.reads {
            problems.push("major faults != device reads on an anonymous-only workload".into());
        }
        // A first touch zero-fills and maps the page without counting as
        // a completed access; every other touch completes as one.
        if m.accesses + m.minor_faults != drained.touches {
            problems.push(format!(
                "kernel completed {} accesses and {} first touches, streams hold {} touches",
                m.accesses, m.minor_faults, drained.touches
            ));
        }
        if ratio >= 0.9 && (m.major_faults != 0 || m.evictions != 0) {
            problems.push("the resident cell faulted from swap or evicted".into());
        }
        if let Some(g) = &blessed {
            if *g != fp {
                problems.push(format!(
                    "fingerprint differs from golden\n  golden: {g}\n  actual: {fp}"
                ));
            }
        }
        if !report.fingerprint.is_empty() && report.fingerprint != fp {
            problems.push("two trials of one seed differ".into());
        }
        report.operation(problems);
        let (op_cpu, op_wall) = (t0.cpu(), t0.wall());
        report.digest = common::fnv1a(m.to_cache_text().as_bytes(), common::FNV_OFFSET);
        report.fingerprint = fp;
        report.set_counts(&[&m]);
        let accesses = m.accesses;
        drop(m);

        let Some((host, _)) = &mut host else {
            // The warm-up: checked, but untimed. Its process is as fresh
            // as a user's, so its peak is the trial's memory.
            let peak_rss = common::vm_hwm_mib();
            setups(SETUPS);
            host = Some((Host::new(), peak_rss));
            start = Stopwatch::start();
            continue;
        };
        host.calibrate();
        let f = host.last_factor();
        cpu.push(op_cpu / f);
        raw_cpu.push(op_cpu);
        wall.push(op_wall);
        run_s.push(sim_s / f);
        run_wall.push(sim_wall);
        rate.push(accesses as f64 / (sim_s / f));
        snaps.push(snap);
        setups(SETUPS_PER_TRIAL);
    }

    let (host, peak_rss) = host.expect("a warm-up trial ran");
    // Timed outside the trials: scaled by the host factor of the run.
    let f = host.run_factor();
    report.set("cpu_s", median(&cpu));
    report.set("setup_s", median(&setup) / f);
    report.set("sim_pages_per_s", median(&rate));
    report.set("peak_rss_mib", peak_rss);
    report.set("sim_s", median(&run_s));
    report.set("host.cpu_s", median(&raw_cpu));
    report.set("host.wall_s", median(&wall));
    report.set("host.calibration_s", host.calibration_s());
    report.set("workloads.build_s", median(&wl_build) / f);
    report.set("workloads.drain_ns_per_op", drained.ns_per_op() / f);
    report.set("core.build_s", median(&core_build) / f);
    report.set("core.run_s", median(&run_s));
    for name in [
        "bench.sweep.plan_s",
        "bench.sweep.exec_s",
        "bench.sweep.merge_s",
        "experiments.render_s",
    ] {
        report.set(name, 0.0);
    }
    report.set("bench.sweep.trials", 0.0);
    report.set("bench.cache.misses", 0.0);
    if benchcounters::ENABLED {
        use benchcounters::CounterSnapshot as Snap;
        // The counters read wall time, so the share outside them is
        // taken from the wall time of the same `Kernel::run`.
        let per = |f: &dyn Fn(&Snap, f64) -> f64| {
            let v: Vec<f64> = snaps.iter().zip(&run_wall).map(|(s, &r)| f(s, r)).collect();
            median(&v)
        };
        let ns = |v: Option<f64>| v.unwrap_or(0.0);
        report.set("core.fault_s", per(&|s, _| s.fault_ns as f64 / 1e9));
        report.set("core.reclaim_s", per(&|s, _| s.reclaim_ns as f64 / 1e9));
        report.set(
            "core.outside_fault_reclaim_s",
            per(&|s, r| r - (s.fault_ns + s.reclaim_ns) as f64 / 1e9),
        );
        report.set("core.fault_ns_per_op", per(&|s, _| ns(s.fault_ns_per_op())));
        report.set(
            "core.reclaim_ns_per_batch",
            per(&|s, _| ns(s.reclaim_ns_per_op())),
        );
        report.set(
            "mem.aging_scan_ns_per_pte",
            per(&|s, _| ns(s.aging_scan_ns_per_pte())),
        );
        report.set(
            "mem.evict_scan_ns_per_pte",
            per(&|s, _| ns(s.evict_scan_ns_per_pte())),
        );
    }
    report
}
