#!/usr/bin/env python3
"""Benchmark of the pagesim simulator: three workloads, each in its own
process, measured end to end and, in a separate traced run, per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload native-reclaim --seed 1 --seconds 20 --trace 0

The script builds the `perfbench` crate from source (cargo, offline, into
`$CARGO_TARGET_DIR`, default `.bench_build`), runs its binary for
`--seconds` of measured work, checks every operation's output, and prints
a host fingerprint line and, as the last line, one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
end-to-end metrics of BENCHMARK.json from a build without host-time
counters; `--trace 1` reports its per-layer metrics, taking the
fault/reclaim/scan timers from a second build with pagesim's
`bench-counters` feature. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Per-layer metrics that only the build with host-time counters measures.
TRACED_ONLY = (
    "core.fault_s",
    "core.fault_ns_per_op",
    "core.reclaim_s",
    "core.reclaim_ns_per_batch",
    "mem.aging_scan_ns_per_pte",
    "mem.evict_scan_ns_per_pte",
    "core.outside_fault_reclaim_s",
)
# Workloads checked against per-seed fingerprints in `goldens/`.
GOLDENED = ("native-reclaim", "resident-stream")
# A benchmark process that takes longer than this has hung.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target_dir, features):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml"),
           "--target-dir", str(target_dir)]
    if features:
        cmd += ["--features", ",".join(features)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return target_dir / "release" / "pagesim-perfbench"


def measure(binary, args, seconds, goldens, work):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--goldens", str(goldens),
           "--figures", "figures_default.txt", "--work", str(work)]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        fail(f"{binary.name} exited with {out.returncode}")
    return json.loads(lines[-1])


def first_line(cmd):
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True).stdout.strip().splitlines()[0]
    except (OSError, IndexError):
        return "unknown"


def host_fingerprint(args, features, work):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": first_line(["rustc", "-V"]),
        "profile": "release",
        "features": features,
        "seed": args.seed,
        "workload": args.workload,
        "cache_fs": first_line(["stat", "-f", "-c", "%T", str(work)]),
    }


def bless(goldens, workload, seed, fingerprint):
    """Records `fingerprint` as the golden of `workload` at `seed`."""
    path = goldens / f"{workload}.txt"
    lines = path.read_text().splitlines() if path.exists() else []
    lines = [l for l in lines if l.split(" ", 1)[0] != str(seed)]
    lines.append(f"{seed} {fingerprint}")
    lines.sort(key=lambda l: int(l.split(" ", 1)[0]))
    path.write_text("\n".join(lines) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--goldens", type=Path, default=HERE / "goldens",
                    help="directory of per-seed goldens (tests point it at a perturbed copy)")
    ap.add_argument("--bless", action="store_true",
                    help="record this run's fingerprint as the golden for its seed")
    args = ap.parse_args()

    spec_path = Path("BENCHMARK.json")
    if not spec_path.is_file() or not Path("figures_default.txt").is_file():
        fail("run from the root of a pagesim checkout")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must not be negative")
    if args.bless and args.workload not in GOLDENED:
        fail(f"only {' and '.join(GOLDENED)} have goldens to bless")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    work = target / "perfbench-work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        # Both builds on every run: the first run in a checkout pays for
        # both, and later runs find them up to date.
        untraced_bin = build(target / "untraced", [])
        traced_bin = build(target / "traced", ["bench-counters"])
        features = ["bench-counters"] if args.trace else []
        # A traced run splits its time between the two builds.
        seconds = args.seconds / 2 if args.trace else args.seconds
        runs = [measure(untraced_bin, args, seconds, args.goldens, work)]
        if args.trace:
            runs.append(measure(traced_bin, args, seconds, args.goldens, work))
            if not runs[1]["counters"] or runs[0]["counters"]:
                fail("the bench-counters feature did not reach pagesim as built")
        host = host_fingerprint(args, features, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = runs[0]
    if args.bless:
        if untraced["failed"]:
            fail("only a passing run can be blessed")
        bless(args.goldens, args.workload, args.seed, untraced["fingerprint"])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if len({r["digest"] for r in runs}) != 1:
        # The counters are a host-time side channel: compiling them in
        # must not change a single simulated output.
        print("perfbench: the traced build's outputs differ from the untraced build's", file=sys.stderr)
        failed += 1
    host["digest"] = untraced["digest"]
    # How fast and how busy the host was, whatever the metrics asked for.
    for name in ("host.cpu_s", "host.wall_s", "host.calibration_s"):
        host[name] = untraced["metrics"][name]

    if args.trace:
        traced = runs[1]
        values = {**untraced["metrics"], **{k: traced["metrics"][k] for k in TRACED_ONLY}}
        values["trace.overhead_ratio"] = traced["metrics"]["sim_s"] / untraced["metrics"]["sim_s"]
        wanted = spec["per_layer"]
    else:
        values = untraced["metrics"]
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print("# host " + json.dumps(host, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
