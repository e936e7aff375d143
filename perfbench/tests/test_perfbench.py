"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 -m unittest discover -s perfbench/tests

They build the benchmark and run the native workloads for a warm-up and
one measured trial per run (about two minutes in total).
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

RUN = Path("perfbench/run.py")
GOLDENS = Path("perfbench/goldens")
NAME = re.compile(r"[A-Za-z0-9_.-]+")
# The seed figures_default.txt was rendered at; every golden file has it.
SEED = 12648430
COUNT_WORKLOAD = "resident-stream"


def run(workload, trace, *extra, seed=SEED):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=600)
    return out.returncode, json.loads(out.stdout.strip().splitlines()[-1])


class Contract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads(Path("BENCHMARK.json").read_text())
        cls.untraced = run(COUNT_WORKLOAD, 0)
        cls.traced = run(COUNT_WORKLOAD, 1)

    def test_names_are_well_formed(self):
        names = [w["name"] for w in self.spec["workloads"]]
        for _, result in (self.untraced, self.traced):
            names += list(result["metrics"])
        for name in names:
            self.assertRegex(name, NAME)
            self.assertLessEqual(len(name), 64)

    def test_metric_sets_equal_the_spec(self):
        self.assertEqual(set(self.untraced[1]["metrics"]),
                         {m["name"] for m in self.spec["end_to_end"]})
        self.assertEqual(set(self.traced[1]["metrics"]),
                         {m["name"] for m in self.spec["per_layer"]})
        units = {m["name"]: m["unit"] for m in self.spec["end_to_end"] + self.spec["per_layer"]}
        for _, result in (self.untraced, self.traced):
            for name, metric in result["metrics"].items():
                self.assertEqual(metric["unit"], units[name])

    def test_workload_set_equals_the_spec(self):
        source = Path("perfbench/src/main.rs").read_text()
        handled = set(re.findall(r'^\s*"([a-z][a-z0-9-]*)" => ', source, re.M))
        self.assertEqual(handled, {w["name"] for w in self.spec["workloads"]})

    def test_runs_pass_their_output_check(self):
        for code, result in (self.untraced, self.traced):
            self.assertEqual(code, 0)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)

    def test_counts_repeat_exactly(self):
        # native-reclaim, where the reclaim and swap counts are not zero.
        first, second = (run("native-reclaim", 1)[1] for _ in range(2))
        counts = [m["name"] for m in self.spec["per_layer"] if m["unit"] == "count"]
        self.assertGreater(first["metrics"]["core.major_faults"]["value"], 0)
        for name in counts:
            self.assertEqual(first["metrics"][name], second["metrics"][name], name)


class Goldens(unittest.TestCase):
    def test_every_golden_file_covers_the_default_seed(self):
        for path in GOLDENS.glob("*.txt"):
            seeds = [int(l.split(" ", 1)[0]) for l in path.read_text().splitlines()]
            self.assertIn(SEED, seeds, path)
            self.assertEqual(len(seeds), len(set(seeds)), path)

    def test_perturbed_golden_fails_the_run(self):
        tmp = Path(".bench_build/perfbench-test-goldens")
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.copytree(GOLDENS, tmp)
        try:
            path = tmp / f"{COUNT_WORKLOAD}.txt"
            lines = path.read_text().splitlines()
            i = next(i for i, l in enumerate(lines) if l.startswith(f"{SEED} "))
            lines[i] = re.sub(r"accesses=(\d+)", lambda m: f"accesses={int(m[1]) + 1}", lines[i])
            path.write_text("\n".join(lines) + "\n")
            code, result = run(COUNT_WORKLOAD, 0, "--goldens", str(tmp))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
