#!/usr/bin/env python3
"""Compares two perfbench results files, metric by metric.

    python3 perfbench/compare.py BASE.json HEAD.json [--allow-cross-machine]

The files are what run.py writes to .bench_out/results/.  Each carries the
record of the machine and build that produced it (nproc, CPU model, build
type, compiler).  Numbers from different machines measure the machines,
not the change, so a comparison across records is refused (exit 3) unless
--allow-cross-machine is given.  Exit 1 when an end-to-end metric of
BENCHMARK.json got worse by more than its bound, else 0.
"""
import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MACHINE_KEYS = ("nproc", "cpu_model", "build_type", "compiler")


def load(path):
    record = json.loads(Path(path).read_text())
    metrics = dict(record["measured"]["e2e"])
    metrics.update(record["measured"]["layers"])
    return record, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--allow-cross-machine", action="store_true")
    args = parser.parse_args()

    base, base_metrics = load(args.base)
    head, head_metrics = load(args.head)
    differs = [key for key in MACHINE_KEYS if base["machine"].get(key) != head["machine"].get(key)]
    if differs and not args.allow_cross_machine:
        for key in differs:
            print(f"machine {key}: {base['machine'].get(key)!r} vs {head['machine'].get(key)!r}")
        print("refusing to compare results from different machine records "
              "(pass --allow-cross-machine to override)")
        return 3
    if base["workload"] != head["workload"]:
        print(f"warning: workloads differ ({base['workload']} vs {head['workload']})")

    bounds = {}
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        bounds = {m["name"]: m for m in spec["end_to_end"]}
    except (OSError, ValueError, KeyError):
        pass
    regressed = []
    print(f"{'metric':36s} {'base':>14s} {'head':>14s} {'head/base':>10s}")
    for name in sorted(set(base_metrics) & set(head_metrics)):
        b = base_metrics[name]["value"]
        h = head_metrics[name]["value"]
        ratio = h / b if b else float("nan")
        note = ""
        if name in bounds and b:
            spec = bounds[name]
            worse = (b - h) / b if spec["better"] == "higher" else (h - b) / b
            if worse > spec["bound"]:
                note = f"  worse by {worse:.1%} > bound {spec['bound']:.0%}"
                regressed.append(name)
        print(f"{name:36s} {b:14.6g} {h:14.6g} {ratio:10.4f}{note} {base_metrics[name]['unit']}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
