#!/usr/bin/env python3
"""End-to-end benchmark of the OTA stack: one command, three workloads.

    python3 perfbench/run.py --workload <fleet-uniform|fleet-mixed|vehicle-fig3>
                             --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the perfbench binary (perfbench/
CMakeLists.txt, compiled against ../src) into .bench_build/perfbench,
runs the workload, checks its gates and prints, as the last line of
stdout, one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}, ...}}

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json, with
--trace 1 its per_layer list.  Lines above it print every metric the
workload measured, by name with its unit.  A results file with the machine
record (nproc, CPU model, build type, compiler, commit) goes to
.bench_out/results/; compare.py compares two of them.

Exit status: 0 when every gate passed, 1 when a correctness gate, the
determinism check or the thread cap failed, 2 when the benchmark cannot
run at all (no sources, build failure, bad arguments).
"""
import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fleet-uniform", "fleet-mixed", "vehicle-fig3")
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    # The build root may be redirected the way the cargo convention does.
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures (once) and builds the binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no program sources at {ROOT / 'src'}; run from a full checkout")
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", str(nproc())])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            die(f"build step failed: {' '.join(step)}")
    return out / "perfbench"


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cmake_cache(out, key):
    try:
        text = (out / "CMakeCache.txt").read_text(errors="replace")
    except OSError:
        return ""
    match = re.search(rf"^{key}:[A-Z]+=(.*)$", text, re.M)
    return match.group(1) if match else ""


def machine_record(out):
    """Who measured: the record compare.py refuses to mix across."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cmake_cache(out, "CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        try:
            version = subprocess.run([compiler, "--version"], capture_output=True,
                                     text=True).stdout.splitlines()[0]
        except (OSError, IndexError):
            pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "build_type": cmake_cache(out, "CMAKE_BUILD_TYPE"),
        "compiler": version or compiler,
        "commit": commit,
        "source_sha256": source_digest(),
    }


def source_digest():
    """Hash of the program and benchmark sources (the checkout may have no git)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def check_determinism(out_dir, key, digest):
    """Cross-process half of the determinism check: a seed's digest must
    equal the one any earlier run of it recorded in this checkout.  The
    in-process half (every set-up and round agrees) runs in the binary."""
    ledger_path = out_dir / "digests.json"
    try:
        ledger = json.loads(ledger_path.read_text())
    except (OSError, ValueError):
        ledger = {}
    earlier = ledger.get(key)
    if earlier is None:
        ledger[key] = digest
        ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
        return None
    if earlier != digest:
        return f"digest {digest} differs from {earlier} recorded by an earlier run of {key}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--fleet", type=int, default=0,
                        help="fleet size override (smoke tests); 0 = the workload's 20000")
    parser.add_argument("--inject-failure", action="store_true",
                        help="also deploy an app no model can host (tests the gate)")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as error:
        die(f"cannot read {spec_path}: {error}")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    out = build_dir()
    binary = build(out)
    out_dir = ROOT / ".bench_out"
    (out_dir / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.fleet:
        command += ["--fleet", str(args.fleet)]
    if args.inject_failure:
        command.append("--inject-failure")
    if args.trace:
        (out_dir / "spans").mkdir(parents=True, exist_ok=True)
        command += ["--spans", str(out_dir / "spans" / f"{stem}.json")]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    try:
        run = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        die(f"perfbench exited {done.returncode} without a result")

    machine = machine_record(out)
    checks = []  # (what, ok)
    checks.append((f"perfbench uses {run['threads']} OS threads, at most nproc={machine['nproc']}",
                   run["threads"] <= machine["nproc"]))
    # Keyed by the source hash too: a code change may legitimately move them.
    key = (f"{args.workload}|seed={args.seed}|fleet={run['fleet']}"
           f"|source={machine['source_sha256'][:16]}")
    if args.inject_failure:
        key += "|inject-failure"
    mismatch = check_determinism(out_dir, key, run["digest"])
    checks.append((mismatch or "determinism digest", mismatch is None))

    measured = run["layers"] if args.trace else run["e2e"]
    metrics = {}
    not_exercised = []
    for entry in listed:
        name, unit = entry["name"], entry["unit"]
        metric = measured.get(name)
        if metric is None and args.trace:
            # A layer this workload never reaches reads 0.
            not_exercised.append(name)
            metric = {"value": 0, "unit": unit}
        if metric is None:
            checks.append((f"end-to-end metric {name} was not measured", False))
            continue
        checks.append((f"{name} measured in {metric['unit']}, listed in {unit}",
                       metric["unit"] == unit))
        metrics[name] = {"value": metric["value"], "unit": unit}

    failed_checks = [what for what, ok in checks if not ok]
    attempted = run["attempted"] + len(checks)
    failed = run["failed"] + len(failed_checks)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    record = {"machine": machine, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "command": command[1:],
              "measured": run, "failed_checks": failed_checks,
              "not_exercised": not_exercised, "result": result}
    results_path = out_dir / "results" / f"{stem}.json"
    results_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"# {args.workload} seed={args.seed} fleet={run['fleet']} rounds={run['rounds']} "
          f"threads={run['threads']} nproc={machine['nproc']} cpu={machine['cpu_model']!r} "
          f"build={machine['build_type']} digest={run['digest']}")
    for name, metric in sorted(run["e2e"].items()):
        print(f"e2e   {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    for name, metric in sorted(run["layers"].items()):
        print(f"layer {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    for what in run["failures"] + failed_checks:
        print(f"FAILED {what}")
    print(f"# results: {results_path.relative_to(ROOT)}")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
