//! Runs one benchmark workload against the pagesim crates and prints one
//! JSON line: operations attempted and failed, every metric measured, the
//! output digest and the exact-count fingerprint. `perfbench/run.py`
//! builds this binary, runs it and turns that line into the report.
//!
//! ```text
//! pagesim-perfbench --workload <name> --seed <n> --seconds <s> \
//!     --goldens <dir> --figures <figures_default.txt> --work <dir>
//! ```

mod common;
mod fig11;
mod native;

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: pagesim-perfbench --workload <fig11-sweep|native-reclaim|resident-stream> \
         --seed <n> --seconds <s> --goldens <dir> --figures <file> --work <dir>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds) = (None, None, None);
    let (mut goldens, mut figures, mut work) = (None, None, None);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--goldens" => goldens = Some(PathBuf::from(value)),
            "--figures" => figures = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(goldens), Some(figures), Some(work)) =
        (workload, seed, seconds, goldens, figures, work)
    else {
        return usage();
    };

    common::keep_freed_memory();
    let report = match workload.as_str() {
        "fig11-sweep" => fig11::run(seed, seconds, &figures, &work),
        "native-reclaim" => native::run(0.5, seed, seconds, &goldens.join("native-reclaim.txt")),
        "resident-stream" => native::run(0.9, seed, seconds, &goldens.join("resident-stream.txt")),
        _ => return usage(),
    };
    for p in &report.problems {
        eprintln!("perfbench: {workload}: {p}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(k, v)| {
            assert!(v.is_finite(), "{k} is not a finite number");
            format!("\"{k}\": {v}")
        })
        .collect();
    println!(
        "{{\"attempted\": {}, \"failed\": {}, \"digest\": \"{:016x}\", \"fingerprint\": \"{}\", \
         \"counters\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        report.digest,
        report.fingerprint,
        pagesim::benchcounters::ENABLED,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
