#!/usr/bin/env python3
"""Warn-only perf-regression gate over bench_all aggregates.

Compares a current BENCH_results.json (the { "<binary>": <google-benchmark
document>, ... } aggregate written by the bench_all target) against the
committed BENCH_baseline.json and reports every tracked metric that moved
by more than the tolerance (default +-15%).

The comparison is advisory by design: CI runners vary wildly, so a
regression prints GitHub warning annotations and a table, and the exit
code is 0 unless --strict is given.  The point is that the perf
trajectory is *visible* on every PR, not that noise blocks merges.

An errored benchmark row in CURRENT (Google Benchmark's error_occurred,
set by SkipWithError) is not noise: it timed a failure or nothing at
all.  Each one is named with its error_message and the exit code is 1.

Usage:
  bench_compare.py BASELINE CURRENT [--tolerance 0.15] [--strict]
"""

import argparse
import json
import sys

# Metrics tracked across PRs: (bench binary, benchmark name, field, human
# label).  A missing benchmark on either side is reported but never fatal
# (matrices evolve).
KEY_METRICS = [
    ("bench_fleet", "BM_FleetCampaign/fleet:1000/real_time",
     "items_per_second", "campaign deploys/s (1k fleet)"),
    ("bench_fleet", "BM_FleetCampaign/fleet:1000/real_time",
     "serial_sim_fraction", "serial sim fraction (1k fleet)"),
    # Journal overhead: the durable campaign (write-ahead status DB +
    # campaign journal) tracked against its own committed numbers.  It
    # used to be paired against the memory-only campaign, but the
    # content-addressed package cache made the memory-only path cheaper
    # than the WAL append itself, so "within 5% of memory-only" stopped
    # being a meaningful bar — what must not regress is the durable
    # path's absolute throughput.
    ("bench_fleet", "BM_FleetDurableCampaign/fleet:1000/real_time",
     "items_per_second", "durable campaign deploys/s (1k)"),
    # Memory scaling of the SoA fleet store + content-addressed package
    # cache: the converged resident-set cost per VIN at the bench-smoke
    # shape (100k vehicles, 24 model cohorts).  Lower is better.
    ("bench_fleet",
     "BM_FleetMegaCampaign/fleet:100000/models:24/iterations:1/real_time",
     "bytes_per_vehicle", "fleet memory bytes/vehicle (100k, 24 models)"),
    ("bench_fleet",
     "BM_FleetMegaCampaign/fleet:100000/models:24/iterations:1/real_time",
     "deploys_per_s", "mega campaign deploys/s (100k, 24 models)"),
    # Restart cost: replay throughput over the raw multi-campaign log,
    # and the absolute time a checkpointed restart takes to become
    # serviceable (lower is better).
    ("bench_fleet", "BM_RecoveryReplay/fleet:1000/checkpoint:0/real_time",
     "bytes_per_second", "recovery replay bytes/s (1k fleet, raw log)"),
    ("bench_fleet", "BM_RecoveryReplay/fleet:1000/checkpoint:1/real_time",
     "time_to_serviceable_ms", "time-to-serviceable ms (1k, checkpointed)"),
    # Tail latencies from the log2 histograms (the telemetry PR): the
    # sim-time push->ack round trip and vehicle deploy p99 at the tracked
    # shape, the wall-time ack-flush and WAL-fsync p99, and the faulted
    # convergence tail.  The sim-time ones are deterministic, so any drift
    # is a real pipeline change, not runner noise.
    ("bench_fleet", "BM_FleetCampaign/fleet:1000/real_time",
     "vehicle_p99_us", "per-vehicle deploy p99 µs (1k)"),
    ("bench_fleet", "BM_FleetCampaign/fleet:1000/real_time",
     "roundtrip_p99_ms", "push->ack round-trip p99 sim-ms (1k)"),
    ("bench_fleet", "BM_FleetCampaign/fleet:1000/real_time",
     "ack_flush_p99_us", "ack-flush p99 µs (1k)"),
    ("bench_fleet", "BM_FleetDurableCampaign/fleet:1000/real_time",
     "wal_fsync_p99_us", "WAL fsync p99 µs (1k, sync=64)"),
    ("bench_fleet",
     "BM_FleetFaultCampaign/fleet:1000/churn_pct:20/flaps:2/nack_pct:10/"
     "real_time",
     "time_to_installed_p99_ms",
     "faulted time-to-installed p99 sim-ms (full matrix)"),
    # Package assembly per campaign: install payloads built (new variants
    # plus expired ones revived) over one faulted one-model campaign.  A
    # deterministic count: 1 when the retry waves re-push wave 1's batch.
    ("bench_fleet",
     "BM_FleetFaultCampaign/fleet:1000/churn_pct:20/flaps:2/nack_pct:10/"
     "real_time",
     "generations_per_iter", "payload builds per faulted campaign"),
    # The WAL stage alone: status paragraphs encoded + appended per second
    # for the campaign row shape (4 plug-ins x 8 ports).
    ("bench_fleet", "BM_StatusAppend",
     "items_per_second", "WAL status paragraphs/s (4x8 row)"),
    ("bench_sim", "BM_WheelScheduleFire/1024",
     "items_per_second", "event schedule+fire/s (wheel)"),
    ("bench_sim", "BM_WheelStorm/4096",
     "items_per_second", "same-timestamp storm events/s"),
    ("bench_wire_codec", "BM_Crc32/16384",
     "bytes_per_second", "CRC-32 GB/s (16 KiB)"),
    ("bench_fig1_vm", "BM_VmSpinLoop/10000",
     "items_per_second", "VM spin-loop instr/s"),
    # The paper-layer drivers bench_all runs at a short min time.
    ("bench_fig3_e2e", "BM_DeployRemoteCar",
     "real_time", "figure-3 remote-car deploy ms"),
    ("bench_fig2_server", "BM_DeployVsPluginCount/4",
     "real_time", "figure-2 deploy ns (4 plug-ins)"),
    # Package assembly (PackageCache::Acquire's generating paths) for the
    # 4-plug-in x 8-port, 12 KiB campaign app.
    ("bench_abl_context", "BM_BatchAssembly/new_variant",
     "real_time", "batch assembly ns (new variant)"),
    ("bench_abl_context", "BM_BatchAssembly/regenerate",
     "real_time", "batch assembly ns (expired payload)"),
]

# Absolute invariants checked against the CURRENT results alone — bars the
# design must clear on every run, independent of the committed baseline:
# (bench binary, benchmark name, field, max value, human label).
ABSOLUTE_BOUNDS = [
    # The compaction contract: after five consecutive campaigns and a
    # checkpoint, the status log holds at most 2x the live-paragraph
    # bytes (it is exactly 1x when the final rotation is the last write).
    ("bench_fleet", "BM_RecoveryReplay/fleet:1000/checkpoint:1/real_time",
     "log_to_live_ratio", 2.0, "post-compaction log/live bytes (<= 2x)"),
]


def find_benchmark(doc, name):
    for bench in doc.get("benchmarks", []):
        if bench.get("name") == name:
            return bench
    return None


def errored_rows(doc):
    """(binary, benchmark name, error message) of every errored row."""
    rows = []
    for binary, results in sorted(doc.items()):
        if not isinstance(results, dict):
            continue
        for bench in results.get("benchmarks", []):
            if bench.get("error_occurred"):
                rows.append((binary, bench.get("name", "?"),
                             bench.get("error_message", "")))
    return rows


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=0.15)
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 on regression (default: warn only)")
    args = parser.parse_args()

    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
        with open(args.current) as f:
            current = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        # The step is advisory: a missing or half-written results file must
        # warn, not fail the job.
        print(f"::warning title=bench-compare::could not load inputs: {err}")
        return 1 if args.strict else 0

    errors = errored_rows(current)
    for binary, name, message in errors:
        print(f"::error title=bench-compare::{binary} {name} errored: "
              f"{message}")

    regressions = 0
    print(f"{'metric':<46} {'baseline':>12} {'current':>12} {'delta':>8}")
    for binary, name, field, label in KEY_METRICS:
        base_bench = find_benchmark(baseline.get(binary, {}), name)
        cur_bench = find_benchmark(current.get(binary, {}), name)
        if base_bench is None or cur_bench is None:
            side = "baseline" if base_bench is None else "current"
            print(f"{label:<46} {'—':>12} {'—':>12}   (missing in {side})")
            continue
        base = base_bench.get(field)
        cur = cur_bench.get(field)
        if not isinstance(base, (int, float)) or not isinstance(cur, (int, float)) or base == 0:
            print(f"{label:<46} {'—':>12} {'—':>12}   (field {field} unusable)")
            continue
        delta = (cur - base) / base
        # Fractions, per-vehicle footprints, restart latencies, log-size
        # ratios, per-iteration times and the histogram latency quantiles
        # (*_us / *_ms) are better when *lower*; throughputs when higher.
        lower_is_better = field in ("serial_sim_fraction", "bytes_per_vehicle",
                                    "log_to_live_ratio", "real_time",
                                    "generations_per_iter") \
            or field.endswith(("_us", "_ms"))
        worse = delta > args.tolerance if lower_is_better \
            else delta < -args.tolerance
        marker = "  <-- regressed" if worse else ""
        print(f"{label:<46} {base:>12.4g} {cur:>12.4g} {delta:>+7.1%}{marker}")
        if worse:
            regressions += 1
            print(f"::warning title=bench-compare::{label} moved {delta:+.1%} "
                  f"(baseline {base:.4g}, current {cur:.4g}, "
                  f"tolerance ±{args.tolerance:.0%})")

    for binary, name, field, bound, label in ABSOLUTE_BOUNDS:
        bench = find_benchmark(current.get(binary, {}), name)
        value = bench.get(field) if bench is not None else None
        if not isinstance(value, (int, float)):
            print(f"{label:<46} {'—':>12} {'—':>12}   (missing in current)")
            continue
        worse = value > bound
        marker = "  <-- bound exceeded" if worse else ""
        print(f"{label:<46} {bound:>12.4g} {value:>12.4g} {'':>8}{marker}")
        if worse:
            regressions += 1
            print(f"::warning title=bench-compare::{label}: {value:.4g} "
                  f"exceeds the absolute bound {bound:.4g}")

    if regressions:
        print(f"\n{regressions} metric(s) beyond ±{args.tolerance:.0%} "
              f"of the committed baseline (warn-only).")
    else:
        print("\nAll tracked metrics within tolerance of the committed "
              "baseline.")
    if errors:
        print(f"{len(errors)} benchmark row(s) errored; see the errors above.")
        return 1
    return 1 if regressions and args.strict else 0


if __name__ == "__main__":
    sys.exit(main())
