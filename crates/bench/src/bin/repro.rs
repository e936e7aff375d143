//! `repro` — regenerates every figure of the paper.
//!
//! ```text
//! repro [--scale smoke|default|paper|paper-native] [--seed N] [--jobs N]
//!       [--cache-dir DIR | --no-cache]
//!       [--journal FILE] [--resume FILE] [--max-attempts N]
//!       [--trial-budget NS] [--chaos SPEC]
//!       [fig1 fig2 ... | faults | all]
//! repro trace <fig> [--cell N] [--trial N] [--trace-out FILE]...
//!       [--sample-interval NS] [--trace-events N] [--list]
//! repro vmstat <fig>
//! repro bench [--bench-scale quick|default] [--out FILE]
//!       [--check FILE] [--min-samples N] [--max-samples N]
//!       [--gate-slack F] [--gate-slack-scan F] [--commit SHA] [--list]
//! ```
//!
//! Each figure subcommand prints the same normalized series the
//! corresponding figure of the paper plots. Before rendering, every cell
//! the requested figures need is precomputed by the sweep executor:
//! `--jobs N` worker threads (default: all cores) drain the trial queue,
//! consulting a content-addressed cell cache (default `.pagesim-cache/`,
//! `--cache-dir` to relocate, `--no-cache` to disable). Figure output on
//! stdout is byte-identical regardless of `--jobs` and cache state; the
//! sweep summary goes to stderr.
//!
//! The `trace` subcommand runs one figure with deterministic telemetry
//! attached to a single trial (`--cell`/`--trial` pick which; `--list`
//! shows the figure's cell grid). The figure output is unchanged — the
//! traced trial produces identical metrics — and the trace is written to
//! each `--trace-out` path: `.jsonl` suffixes get JSON Lines (validated by
//! `trace-validate`), anything else gets Chrome `trace_event` JSON for
//! Perfetto / `chrome://tracing`. Default: `trace.json`.
//!
//! ## Fault tolerance
//!
//! Every trial runs isolated: a panic costs one attempt (retried up to
//! `--max-attempts`, default 3), not the run. Progress is checkpointed to
//! an append-only JSONL journal (default: `<cache-dir>/run-journal.jsonl`;
//! `--journal` to relocate) and `--resume FILE` continues an interrupted
//! run from it, producing byte-identical figure output. Cache entries are
//! checksummed; a corrupt entry is quarantined (renamed `*.quarantine`)
//! and recomputed, never parsed. Cells that still fail after retries
//! become explicit `# HOLE` comment lines in place of the affected
//! figures, a machine-readable `{"pagesim_failure_report":...}` line on
//! stderr, and a nonzero exit.
//!
//! The `vmstat` subcommand renders the `/proc/vmstat`-analog
//! observability report for one figure: per cell, the Linux-named reclaim
//! and working-set counters summed over trials, the merged
//! refault-distance histogram, and trial 0's `lru_gen`-style policy dump.
//! Like the figures, the report is byte-identical for any `--jobs` value
//! and cache state (CI golden-diffs `vmstat_fig1.txt`).
//!
//! The `bench` subcommand runs the statistically-converged benchmark
//! matrix (`pagesim_bench::repro_bench`): each metric is sampled until its
//! 95% CI is narrower than 10% of the mean (hard cap ⇒ `converged: false`)
//! and appended as a commit-stamped entry to `BENCH_pagesim.json`.
//! `--check FILE` instead compares the run against FILE's last entry and
//! fails when any tracked metric regresses beyond the combined noise band.
//!
//! Exit codes: 0 success, 2 usage, 3 completed with failed cells,
//! 4 sweep aborted before merging (chaos `abort-after`),
//! 5 bench regression gate failed (`bench --check`).
//!
//! `--chaos SPEC` injects seeded harness faults (worker panics, cache
//! corruption, forced-slow trials, worker kills, a hard abort) to exercise
//! all of the above; see `ChaosPlan::parse` for the spec grammar.

use pagesim::experiments::{self, Bench, Scale, Wl};
use pagesim::report;
use pagesim_bench::repro_bench::{self, history};
use pagesim_bench::statline::StatLine;
use pagesim_bench::sweep::{
    default_jobs, run_sweep_resilient, run_sweep_traced, ChaosPlan, SweepOptions, SweepOutcome,
    TraceRequest,
};
use pagesim_json::escape;
use pagesim_trace::TraceConfig;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--scale smoke|default|paper|paper-native] [--seed N] [--jobs N]\n\
         \x20            [--cache-dir DIR | --no-cache] [--journal FILE]\n\
         \x20            [--resume FILE] [--max-attempts N] [--trial-budget NS]\n\
         \x20            [--chaos SPEC] [fig1..fig12 | faults | all]\n\
         \x20      repro trace <fig> [--cell N] [--trial N] [--trace-out FILE]...\n\
         \x20            [--sample-interval NS] [--trace-events N] [--list]\n\
         \x20      repro vmstat <fig>\n\
         \x20      repro bench [--bench-scale quick|default] [--out FILE]\n\
         \x20            [--check FILE] [--min-samples N] [--max-samples N]\n\
         \x20            [--gate-slack F] [--commit SHA] [--list]\n\
         \n\
         --jobs N            sweep worker threads (default: all cores)\n\
         --cache-dir D       cell cache directory (default: .pagesim-cache)\n\
         --no-cache          disable the on-disk cell cache\n\
         --journal F         run journal path (default: <cache-dir>/run-journal.jsonl)\n\
         --resume F          resume from journal F, skipping trials it records\n\
         \x20                    as done (still verified against the cache)\n\
         --max-attempts N    attempts per trial before recording a failure (default 3)\n\
         --trial-budget NS   per-trial simulated-time budget; exceeding it is a\n\
         \x20                    timeout failure (deterministic, host-independent)\n\
         --chaos SPEC        inject seeded harness faults, e.g.\n\
         \x20                    seed=7,panic=2,corrupt=1,abort-after=40\n\
         \n\
         trace subcommand:\n\
         --cell N            cell index within the figure grid (default 0; see --list)\n\
         --trial N           trial index to trace (default 0)\n\
         --trace-out FILE    output path, repeatable; .jsonl => JSON Lines,\n\
         \x20                    otherwise Chrome trace_event (default: trace.json)\n\
         --sample-interval N sampler interval in simulated ns (default 10ms)\n\
         --trace-events N    event ring capacity (default 65536)\n\
         --list              print the figure's cells and exit\n\
         \n\
         vmstat subcommand:\n\
         \x20  per-cell Linux-named reclaim/working-set counters, merged\n\
         \x20  refault-distance histogram, and trial 0's lru_gen dump\n\
         \n\
         bench subcommand:\n\
         --bench-scale S     quick (CI smoke) or default (default: default)\n\
         --out FILE          history file to append to (default: BENCH_pagesim.json)\n\
         --check FILE        compare against FILE's last entry instead of\n\
         \x20                    appending; exit 5 on any regression beyond noise\n\
         --min-samples N     override the scale's per-metric sample minimum\n\
         --max-samples N     override the hard sample cap\n\
         --gate-slack F      extra allowance as a fraction of the baseline\n\
         \x20                    mean (default 0.25)\n\
         --gate-slack-scan F slack for the *_scan_ns_per_pte metrics\n\
         \x20                    (default: min(--gate-slack, 0.10))\n\
         --commit SHA        commit id to stamp (default: $PAGESIM_COMMIT,\n\
         \x20                    then git rev-parse HEAD)\n\
         --list              print the metric matrix spec and exit\n\
         \n\
         fig1   mean runtime & faults, MG-LRU vs Clock (SSD, 50%)\n\
         fig2   joint runtime/fault distributions, Clock vs MG-LRU\n\
         fig3   YCSB tail latencies (SSD, 50%)\n\
         fig4   MG-LRU variant means (SSD, 50%)\n\
         fig5   joint distributions across MG-LRU variants\n\
         fig6   means at 75%/90% capacity ratios\n\
         fig7   fault box-whiskers at 75%/90%\n\
         fig8   YCSB tails at 75%/90%\n\
         fig9   ZRAM mean performance\n\
         fig10  ZRAM mean faults\n\
         fig11  ZRAM vs SSD runtime/fault deltas\n\
         fig12  YCSB tails under ZRAM\n\
         faults Clock vs MG-LRU on a stalling SSD (not part of 'all')"
    );
    std::process::exit(2)
}

fn render_fig(bench: &Bench, fig: &str) -> String {
    match fig {
        "fig1" => experiments::fig1(bench).to_string(),
        "fig2" => experiments::fig2(bench).to_string(),
        "fig3" => experiments::fig3(bench).to_string(),
        "fig4" => experiments::fig4(bench).to_string(),
        "fig5" => experiments::fig5(bench).to_string(),
        "fig6" => experiments::fig6(bench).to_string(),
        "fig7" => experiments::fig7(bench).to_string(),
        "fig8" => experiments::fig8(bench).to_string(),
        "fig9" => experiments::fig9(bench).to_string(),
        "fig10" => experiments::fig10(bench).to_string(),
        "fig11" => experiments::fig11(bench).to_string(),
        "fig12" => experiments::fig12(bench).to_string(),
        "faults" => experiments::faults(bench).to_string(),
        _ => usage(),
    }
}

fn print_header(bench: &Bench, scale: Scale) {
    println!(
        "# pagesim repro — trials/cell: {}, footprint factor: {:.2}, seed: {}",
        scale.trials, scale.footprint, scale.seed
    );
    for wl in Wl::all() {
        println!("#   {} footprint: {} pages", wl.label(), bench.footprint(wl));
    }
    println!();
}

fn main() {
    let mut scale = Scale::default_scale();
    let mut figs: Vec<String> = Vec::new();
    let mut jobs = default_jobs();
    let mut cache_dir = Some(std::path::PathBuf::from(".pagesim-cache"));
    let mut journal: Option<std::path::PathBuf> = None;
    let mut resume = false;
    let mut max_attempts = 3u32;
    let mut trial_budget: Option<u64> = None;
    let mut chaos: Option<ChaosPlan> = None;
    let mut trace_outs: Vec<std::path::PathBuf> = Vec::new();
    let mut cell_idx = 0usize;
    let mut trial = 0u32;
    let mut trace_cfg = TraceConfig::default();
    let mut list_cells = false;
    let mut bench_scale = repro_bench::BenchScale::default_scale();
    let mut bench_out = std::path::PathBuf::from("BENCH_pagesim.json");
    let mut bench_check: Option<std::path::PathBuf> = None;
    let mut min_samples: Option<u64> = None;
    let mut max_samples: Option<u64> = None;
    let mut gate_slack = 0.25f64;
    let mut gate_slack_scan: Option<f64> = None;
    let mut commit: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_else(|| usage());
                scale = match v.as_str() {
                    "smoke" => Scale::smoke(),
                    "default" => Scale::default_scale(),
                    "paper" => Scale::paper(),
                    // Million-page footprints, page_compression ~ 1: for
                    // exercising the word-level scan paths at the paper's
                    // native page counts (pair with --trials 1 in CI).
                    "paper-native" => Scale::paper_native(),
                    _ => usage(),
                };
            }
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage());
                scale.seed = v.parse().unwrap_or_else(|_| usage());
            }
            "--trials" => {
                let v = args.next().unwrap_or_else(|| usage());
                scale.trials = v.parse().unwrap_or_else(|_| usage());
            }
            "--jobs" => {
                let v = args.next().unwrap_or_else(|| usage());
                jobs = v.parse().unwrap_or_else(|_| usage());
                if jobs == 0 {
                    usage();
                }
            }
            "--cache-dir" => {
                let v = args.next().unwrap_or_else(|| usage());
                cache_dir = Some(std::path::PathBuf::from(v));
            }
            "--no-cache" => cache_dir = None,
            "--journal" => {
                let v = args.next().unwrap_or_else(|| usage());
                journal = Some(std::path::PathBuf::from(v));
            }
            "--resume" => {
                let v = args.next().unwrap_or_else(|| usage());
                journal = Some(std::path::PathBuf::from(v));
                resume = true;
            }
            "--max-attempts" => {
                let v = args.next().unwrap_or_else(|| usage());
                max_attempts = v.parse().unwrap_or_else(|_| usage());
                if max_attempts == 0 {
                    usage();
                }
            }
            "--trial-budget" => {
                let v = args.next().unwrap_or_else(|| usage());
                trial_budget = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--chaos" => {
                let v = args.next().unwrap_or_else(|| usage());
                chaos = Some(ChaosPlan::parse(&v).unwrap_or_else(|| usage()));
            }
            "--cell" => {
                let v = args.next().unwrap_or_else(|| usage());
                cell_idx = v.parse().unwrap_or_else(|_| usage());
            }
            "--trial" => {
                let v = args.next().unwrap_or_else(|| usage());
                trial = v.parse().unwrap_or_else(|_| usage());
            }
            "--trace-out" => {
                let v = args.next().unwrap_or_else(|| usage());
                trace_outs.push(std::path::PathBuf::from(v));
            }
            "--sample-interval" => {
                let v = args.next().unwrap_or_else(|| usage());
                trace_cfg.sample_interval = v.parse().unwrap_or_else(|_| usage());
            }
            "--trace-events" => {
                let v = args.next().unwrap_or_else(|| usage());
                trace_cfg.event_capacity = v.parse().unwrap_or_else(|_| usage());
            }
            "--list" => list_cells = true,
            "--bench-scale" => {
                let v = args.next().unwrap_or_else(|| usage());
                bench_scale = repro_bench::BenchScale::parse(&v).unwrap_or_else(|| usage());
            }
            "--out" => {
                let v = args.next().unwrap_or_else(|| usage());
                bench_out = std::path::PathBuf::from(v);
            }
            "--check" => {
                let v = args.next().unwrap_or_else(|| usage());
                bench_check = Some(std::path::PathBuf::from(v));
            }
            "--min-samples" => {
                let v = args.next().unwrap_or_else(|| usage());
                min_samples = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--max-samples" => {
                let v = args.next().unwrap_or_else(|| usage());
                max_samples = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--gate-slack" => {
                let v = args.next().unwrap_or_else(|| usage());
                gate_slack = v.parse().unwrap_or_else(|_| usage());
                if !(0.0..=10.0).contains(&gate_slack) {
                    usage();
                }
            }
            "--gate-slack-scan" => {
                let v = args.next().unwrap_or_else(|| usage());
                let s: f64 = v.parse().unwrap_or_else(|_| usage());
                if !(0.0..=10.0).contains(&s) {
                    usage();
                }
                gate_slack_scan = Some(s);
            }
            "--commit" => {
                let v = args.next().unwrap_or_else(|| usage());
                commit = Some(v);
            }
            "-h" | "--help" => usage(),
            other => figs.push(other.to_owned()),
        }
    }

    if figs.first().map(String::as_str) == Some("bench") {
        figs.remove(0);
        if !figs.is_empty() {
            usage();
        }
        run_bench_cmd(
            bench_scale,
            bench_out,
            bench_check,
            min_samples,
            max_samples,
            gate_slack,
            gate_slack_scan,
            commit,
            jobs,
            list_cells,
        );
        return;
    }

    if figs.first().map(String::as_str) == Some("vmstat") {
        figs.remove(0);
        let [fig] = figs.as_slice() else { usage() };
        run_vmstat(fig, scale, jobs, cache_dir);
        return;
    }

    if figs.first().map(String::as_str) == Some("trace") {
        figs.remove(0);
        let [fig] = figs.as_slice() else { usage() };
        run_trace(
            fig, scale, jobs, cache_dir, cell_idx, trial, trace_cfg, trace_outs, list_cells,
        );
        return;
    }

    if figs.is_empty() || figs.iter().any(|f| f == "all") {
        figs = (1..=12).map(|i| format!("fig{i}")).collect();
    }

    // Journalling defaults on whenever the cache does: the journal is the
    // checkpoint `--resume` needs, and it lives next to the cache entries.
    if journal.is_none() {
        journal = cache_dir.as_ref().map(|d| d.join("run-journal.jsonl"));
    }

    let bench = Bench::new(scale);
    let opts = SweepOptions {
        jobs,
        cache_dir,
        journal,
        resume,
        max_attempts,
        trial_budget,
        chaos,
        ..SweepOptions::default()
    };
    let t0 = std::time::Instant::now();
    let outcome = run_sweep_resilient(&bench, &figs, &opts);
    let stats = outcome.stats;
    eprintln!("# {stats} jobs={jobs} total_s={:.1}", t0.elapsed().as_secs_f64());

    if outcome.aborted {
        eprintln!("# sweep aborted before merging; journal records partial progress (--resume to continue)");
        print_failure_report(&outcome);
        std::process::exit(4);
    }

    print_header(&bench, scale);

    // Content keys of every cell that could not be completed: figures
    // referencing one render as explicit holes instead of panicking (or
    // silently recomputing the cell the sweep just proved uncomputable).
    let failed_keys: std::collections::BTreeMap<(Wl, u64), &pagesim::CellFailure> = outcome
        .failures
        .iter()
        .map(|f| ((f.wl, f.config_hash), f))
        .collect();
    if !failed_keys.is_empty() {
        println!("{}\n", report::incomplete_banner(failed_keys.len()));
    }

    for fig in &figs {
        let t0 = std::time::Instant::now();
        let holes: Vec<&pagesim::CellFailure> = experiments::figure_cells(fig)
            .iter()
            .filter_map(|q| failed_keys.get(&q.content_key()).copied())
            .collect();
        if holes.is_empty() {
            let body = render_fig(&bench, fig);
            println!("{body}");
        } else {
            for f in &holes {
                println!("{}", report::hole_line(fig, &f.ident, &f.kind.detail()));
            }
            println!("# ({fig} skipped: {} missing cell(s))", holes.len());
        }
        println!("# ({fig} took {:.1}s)\n", t0.elapsed().as_secs_f64());
    }

    if !outcome.failures.is_empty() || !outcome.degraded.is_empty() || stats.quarantined > 0 {
        print_failure_report(&outcome);
    }
    if !outcome.failures.is_empty() {
        std::process::exit(3);
    }
}

/// One machine-readable stderr line summarizing everything that went wrong
/// (or ran impaired): consumed by CI and by anyone scripting `repro`.
fn print_failure_report(outcome: &SweepOutcome) {
    let failures: Vec<String> = outcome
        .failures
        .iter()
        .map(|f| {
            format!(
                "{{\"ident\":\"{}\",\"kind\":\"{}\",\"detail\":\"{}\",\"attempts\":{}}}",
                escape(&f.ident),
                f.kind.label(),
                escape(&f.kind.detail()),
                f.attempts
            )
        })
        .collect();
    let degraded: Vec<String> = outcome
        .degraded
        .iter()
        .map(|d| {
            format!(
                "{{\"ident\":\"{}\",\"error\":\"{}\",\"trials\":{}}}",
                escape(&d.ident),
                escape(&d.error),
                d.trials
            )
        })
        .collect();
    eprintln!(
        "{{\"pagesim_failure_report\":{{\"aborted\":{},\"quarantined\":{},\
         \"failures\":[{}],\"degraded\":[{}]}}}}",
        outcome.aborted,
        outcome.stats.quarantined,
        failures.join(","),
        degraded.join(",")
    );
}

/// The `bench` subcommand: run the converged benchmark matrix, then either
/// append a commit-stamped entry to the history file (default) or gate the
/// run against a baseline's last entry (`--check`, exit 5 on regression).
#[allow(clippy::too_many_arguments)]
fn run_bench_cmd(
    scale: repro_bench::BenchScale,
    out: std::path::PathBuf,
    check: Option<std::path::PathBuf>,
    min_samples: Option<u64>,
    max_samples: Option<u64>,
    gate_slack: f64,
    gate_slack_scan: Option<f64>,
    commit: Option<String>,
    jobs: usize,
    list: bool,
) {
    let opts = repro_bench::BenchOptions {
        scale,
        min_samples,
        max_samples,
        jobs,
        scratch_dir: None,
    };
    let probes = repro_bench::matrix(&opts.scale);
    if list {
        print!("{}", repro_bench::matrix_spec(&probes));
        return;
    }

    // Load the gate baseline *before* the expensive run: a missing or
    // unparsable baseline is a usage error, not a quarantine case.
    let baseline = check.as_ref().map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("repro bench: cannot read baseline {}: {e}", path.display());
            std::process::exit(2);
        });
        let hist = history::BenchHistory::parse(&text).unwrap_or_else(|e| {
            eprintln!("repro bench: baseline {}: {e}", path.display());
            std::process::exit(2);
        });
        hist.entries.last().cloned().unwrap_or_else(|| {
            eprintln!("repro bench: baseline {} has no entries", path.display());
            std::process::exit(2);
        })
    });

    let commit = repro_bench::resolve_commit(commit);
    let timestamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let report = repro_bench::run_bench(&opts, &commit, timestamp);
    let entry = &report.entry;

    let converged = entry.metrics.iter().filter(|m| m.converged).count();
    let mut line = StatLine::new("bench");
    line.push("scale", opts.scale.name)
        .push("metrics", entry.metrics.len())
        .push("converged", converged)
        .push("samples", report.total_samples)
        .push("wall_ms", report.wall_ms);
    eprintln!("# {line} jobs={jobs}");

    // Human-readable result table on stdout.
    println!(
        "# pagesim bench — scale: {}, commit: {}, seed: {}, counters: {}",
        entry.bench_scale, entry.commit, entry.seed, entry.counters_enabled
    );
    for m in &entry.metrics {
        println!(
            "{}\t{:.3} {}\t95% CI [{:.3}, {:.3}]\tn={}\tconverged={}",
            m.name, m.mean, m.unit, m.ci_lo, m.ci_hi, m.samples, m.converged
        );
    }

    match baseline {
        Some(base) => {
            // The scan microbenches repeat tightly (fixed trial, pure host
            // speed), so their gate defaults to a narrower band than the
            // end-to-end metrics'.
            let scan_slack = gate_slack_scan.unwrap_or_else(|| gate_slack.min(0.10));
            let regressions = history::check_with(&base, entry, |name| {
                if repro_bench::is_scan_metric(name) {
                    scan_slack
                } else {
                    gate_slack
                }
            });
            if regressions.is_empty() {
                println!(
                    "# bench check passed: {} tracked metric(s) within noise of {}",
                    base.metrics.len(),
                    base.commit
                );
            } else {
                for r in &regressions {
                    println!("# REGRESSION {r}");
                }
                eprintln!(
                    "# bench check FAILED: {} metric(s) regressed beyond the noise band",
                    regressions.len()
                );
                std::process::exit(5);
            }
        }
        None => {
            let loaded = history::load(&out);
            let mut hist = loaded.history;
            hist.entries.push(entry.clone());
            if let Err(e) = history::save(&hist, &out) {
                eprintln!("repro bench: cannot write {}: {e}", out.display());
                std::process::exit(1);
            }
            println!(
                "# appended entry {} to {} ({} total)",
                entry.commit,
                out.display(),
                hist.entries.len()
            );
        }
    }
}

/// The `vmstat` subcommand: sweep one figure's cells, then render the
/// `/proc/vmstat`-analog observability report on stdout. The report is a
/// pure function of scale and figure — no timing lines — so it can be
/// golden-diffed exactly like the figures themselves.
fn run_vmstat(fig: &str, scale: Scale, jobs: usize, cache_dir: Option<std::path::PathBuf>) {
    if experiments::figure_cells(fig).is_empty() {
        eprintln!("repro vmstat: figure '{fig}' has no cell grid");
        std::process::exit(2);
    }
    let bench = Bench::new(scale);
    let opts = SweepOptions {
        jobs,
        cache_dir,
        ..SweepOptions::default()
    };
    let t0 = std::time::Instant::now();
    let outcome = run_sweep_resilient(&bench, &[fig.to_owned()], &opts);
    eprintln!(
        "# {} jobs={jobs} total_s={:.1}",
        outcome.stats,
        t0.elapsed().as_secs_f64()
    );
    if !outcome.failures.is_empty() || outcome.aborted {
        // No point rendering holes: the report's counters would be partial
        // sums. Surface the failures and bail like an incomplete figure run.
        print_failure_report(&outcome);
        std::process::exit(3);
    }
    print!("{}", pagesim_bench::vmstat::vmstat_report(&bench, fig));
}

/// The `trace` subcommand: render one figure with telemetry attached to a
/// single trial, then export the trace.
#[allow(clippy::too_many_arguments)]
fn run_trace(
    fig: &str,
    scale: Scale,
    jobs: usize,
    cache_dir: Option<std::path::PathBuf>,
    cell_idx: usize,
    trial: u32,
    trace_cfg: TraceConfig,
    mut trace_outs: Vec<std::path::PathBuf>,
    list_cells: bool,
) {
    let cells = experiments::figure_cells(fig);
    if cells.is_empty() {
        eprintln!("repro trace: figure '{fig}' has no cell grid");
        std::process::exit(2);
    }
    if list_cells {
        for (i, q) in cells.iter().enumerate() {
            println!("{i}\t{}", q.ident());
        }
        return;
    }
    let Some(query) = cells.get(cell_idx) else {
        eprintln!(
            "repro trace: --cell {cell_idx} out of range ({} cells; try --list)",
            cells.len()
        );
        std::process::exit(2);
    };
    if trace_outs.is_empty() {
        trace_outs.push(std::path::PathBuf::from("trace.json"));
    }

    let bench = Bench::new(scale);
    let opts = SweepOptions {
        jobs,
        cache_dir,
        trace: Some(TraceRequest {
            query: query.clone(),
            trial,
            config: trace_cfg,
        }),
        ..SweepOptions::default()
    };
    let t0 = std::time::Instant::now();
    let (stats, trace) = run_sweep_traced(&bench, &[fig.to_owned()], &opts);
    eprintln!("# {stats} jobs={jobs} total_s={:.1}", t0.elapsed().as_secs_f64());
    let Some(trace) = trace else {
        eprintln!("repro trace: no trace captured (internal error)");
        std::process::exit(1);
    };

    // Same stdout stream as a plain figure run, so traced output can be
    // diffed line-for-line against golden figures.
    print_header(&bench, scale);
    let body = render_fig(&bench, fig);
    println!("{body}");
    println!("# ({fig} took {:.1}s)\n", t0.elapsed().as_secs_f64());

    eprintln!(
        "# trace {} samples={} events={} dropped={}",
        trace.meta.ident,
        trace.samples.len(),
        trace.events.len(),
        trace.dropped_events,
    );
    for out in &trace_outs {
        let is_jsonl = out.extension().is_some_and(|e| e == "jsonl");
        let payload = if is_jsonl {
            trace.to_jsonl()
        } else {
            trace.to_chrome_trace()
        };
        if let Err(e) = std::fs::write(out, payload) {
            eprintln!("repro trace: cannot write {}: {e}", out.display());
            std::process::exit(1);
        }
        eprintln!(
            "# trace written: {} ({})",
            out.display(),
            if is_jsonl { "jsonl" } else { "chrome trace_event" }
        );
    }
}
