#!/usr/bin/env python3
"""The benchmark's own tests, at smoke size (200-vehicle fleets, 0.2 s).

    python3 perfbench/test_perfbench.py

Each test drives run.py the way a benchmark run does and checks the
contract: every listed metric present with its unit, a failing gate
counted and reflected in the exit status, digests that repeat for a seed,
a machine-record check in compare.py, and a clean refusal to run without
the program's sources.
"""
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LEDGER = json.loads((HERE / "ledger.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMOKE = ["--seconds", "0.2", "--fleet", "200"]

# The end-to-end metrics each workload prints besides the gated ones.
WORKLOAD_METRICS = {
    "fleet-uniform": {"deploys_per_s": "1/s", "rollbacks_per_s": "1/s",
                      "time_to_installed_p99_sim_ms": "sim_ms", "pushes_per_vehicle": "count",
                      "wal_bytes_per_vehicle": "B", "rss_bytes_per_vehicle": "B",
                      "failed_ratio": "ratio", "setup_s": "s", "host_reference_ms": "ms"},
    "vehicle-fig3": {"deploys_per_s": "1/s", "rollbacks_per_s": "1/s",
                     "install_host_us": "us", "install_host_p99_us": "us", "install_n": "count",
                     "install_sim_ms": "sim_ms", "commands_per_s": "1/s",
                     "command_p99_sim_ms": "sim_ms", "failed_ratio": "ratio", "setup_s": "s",
                     "host_reference_ms": "ms"},
}
WORKLOAD_METRICS["fleet-mixed"] = dict(WORKLOAD_METRICS["fleet-uniform"], recovery_s="s")


def run(workload, trace=0, seed=7, extra=(), cwd=ROOT):
    """Runs run.py; returns (exit status, result line or None, results record)."""
    done = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), *SMOKE, *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return done.returncode, None, None
    record_path = ROOT / ".bench_out" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return done.returncode, result, json.loads(record_path.read_text())


class MetricsTest(unittest.TestCase):
    def test_every_listed_metric_is_reported_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    status, result, _ = run(workload, trace)
                    self.assertEqual(status, 0)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), {m["name"] for m in listed})
                    for metric in listed:
                        self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])

    def test_each_workload_prints_its_end_to_end_metrics(self):
        for workload, expected in WORKLOAD_METRICS.items():
            with self.subTest(workload=workload):
                _, _, record = run(workload)
                e2e = record["measured"]["e2e"]
                self.assertEqual({name: e2e[name]["unit"] for name in e2e}, expected)
                self.assertEqual(e2e["failed_ratio"]["value"], 0)
                for name in ("deploys_per_s", "rollbacks_per_s", "setup_s"):
                    self.assertGreater(e2e[name]["value"], 0)

    def test_every_layer_metric_is_measured_by_some_workload(self):
        measured = set()
        for workload in WORKLOADS:
            _, _, record = run(workload, trace=1)
            measured |= set(record["measured"]["layers"])
        self.assertEqual({m["name"] for m in SPEC["per_layer"]} - measured, set())

    def test_cache_is_bypassed_on_the_uniform_fleet(self):
        _, _, record = run("fleet-uniform", trace=1)
        self.assertEqual(record["measured"]["layers"]["server.cache_miss_share"]["value"], 1 / 200)


class GateTest(unittest.TestCase):
    def test_failing_gate_is_counted_not_dropped(self):
        # A deploy of an app no uploaded model can host.
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                status, result, record = run(workload, extra=["--inject-failure"])
                self.assertEqual(status, 1)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertGreater(record["measured"]["e2e"]["failed_ratio"]["value"], 0)
                self.assertTrue(any("unhostable" in f for f in record["measured"]["failures"]))

    def test_digest_repeats_for_a_seed_and_a_second_seed_runs(self):
        _, first, one = run("fleet-mixed", seed=21)
        _, second, two = run("fleet-mixed", seed=21)
        _, other, three = run("fleet-mixed", seed=22)
        self.assertTrue(first["correct"] and second["correct"] and other["correct"])
        self.assertEqual(one["measured"]["digest"], two["measured"]["digest"])
        self.assertNotEqual(one["measured"]["digest"], three["measured"]["digest"])

    def test_runs_without_the_program_sources_fail_without_a_result(self):
        bare = ROOT / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        status, result, _ = run("fleet-uniform", cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(status, 0)
        self.assertIsNone(result)


class LedgerTest(unittest.TestCase):
    def test_ledger_describes_every_workload_and_layer_metric(self):
        self.assertEqual(set(LEDGER["workloads"]), set(WORKLOADS))
        for workload, entry in LEDGER["workloads"].items():
            self.assertEqual(set(entry), {"loop", "input", "seed", "why"}, workload)
        self.assertEqual(set(LEDGER["per_layer"]), {m["name"] for m in SPEC["per_layer"]})
        e2e_names = set(WORKLOAD_METRICS["fleet-mixed"]) | set(WORKLOAD_METRICS["vehicle-fig3"])
        for name, entry in LEDGER["per_layer"].items():
            self.assertEqual(set(entry), {"moves", "on"}, name)
            self.assertLessEqual(set(entry["moves"]), e2e_names, name)
            self.assertLessEqual(set(entry["on"]), set(WORKLOADS), name)

    def test_compare_refuses_other_machines(self):
        _, _, record = run("vehicle-fig3")
        scratch = ROOT / ".bench_out" / "compare"
        scratch.mkdir(parents=True, exist_ok=True)
        base, head = scratch / "base.json", scratch / "head.json"
        base.write_text(json.dumps(record))
        record["machine"]["cpu_model"] = "another CPU"
        head.write_text(json.dumps(record))
        compare = [sys.executable, str(HERE / "compare.py"), str(base), str(head)]
        self.assertEqual(subprocess.run(compare, capture_output=True).returncode, 3)
        allowed = subprocess.run(compare + ["--allow-cross-machine"], capture_output=True)
        self.assertEqual(allowed.returncode, 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
