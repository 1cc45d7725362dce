#!/usr/bin/env python3
"""Metrics-smoke gate: assert the required metric families are exposed.

Reads a Prometheus text exposition (a file argument, or stdin with "-")
— typically the output of `example_telemetry_flight_report` or any bench
binary's `--metrics` dump — and fails if a required family is missing or
was never observed.  This catches the regression class where a refactor
silently drops an instrumentation point: the code still builds, the
campaign still converges, but the family vanishes from the exposition.

Usage:
  check_metrics.py EXPOSITION_FILE [--require extra_family ...]
  some_binary --metrics 2>&1 | check_metrics.py -
"""

import argparse
import sys

# Families every campaign run must expose.  Counters must be present;
# entries marked nonzero must also have been observed at least once.
REQUIRED_FAMILIES = [
    # (family, kind, must_be_nonzero)
    ("dacm_server_packages_pushed_total", "counter", True),
    ("dacm_server_acks_received_total", "counter", True),
    ("dacm_server_deploys_ok_total", "counter", True),
    ("dacm_campaigns_started_total", "counter", True),
    ("dacm_campaign_waves_total", "counter", True),
    ("dacm_sim_events_total", "counter", True),
    ("dacm_server_durability_degraded", "gauge", False),
    ("dacm_deploy_roundtrip_us", "histogram", True),
    ("dacm_ack_flush_nanos", "histogram", True),
    ("dacm_wal_append_bytes", "histogram", False),
    ("dacm_wal_fsync_nanos", "histogram", False),
    ("dacm_fleet_time_to_install_us", "histogram", False),
    # Package cache: a campaign reuses one variant across its cohort, so
    # hits and variants are non-zero; regenerations need an expired
    # payload, which a short campaign may never see.
    ("dacm_package_cache_hits_total", "counter", True),
    ("dacm_package_cache_variants_total", "counter", True),
    ("dacm_package_cache_regenerations_total", "counter", False),
]


def parse_exposition(text):
    """{family: (declared_kind, observed)} from Prometheus text format."""
    families = {}
    values = {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(None, 3)
            families[name] = kind
            continue
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        # Histogram series carry the family name plus a suffix; fold
        # `<family>_count` into the family's observed total.
        if name.endswith("_count"):
            name = name[: -len("_count")]
        name = name.split("{", 1)[0]
        try:
            values[name] = values.get(name, 0.0) + abs(float(value))
        except ValueError:
            continue
    return {
        name: (kind, values.get(name, 0.0)) for name, kind in families.items()
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("exposition", help="file path, or - for stdin")
    parser.add_argument("--require", action="append", default=[],
                        help="additional family that must be present")
    args = parser.parse_args()

    if args.exposition == "-":
        text = sys.stdin.read()
    else:
        with open(args.exposition) as f:
            text = f.read()

    found = parse_exposition(text)
    failures = 0
    required = [(name, kind, nonzero)
                for name, kind, nonzero in REQUIRED_FAMILIES]
    required += [(name, None, False) for name in args.require]
    for name, kind, nonzero in required:
        if name not in found:
            print(f"MISSING  {name} (family absent from exposition)")
            failures += 1
            continue
        declared, observed = found[name]
        if kind is not None and declared != kind:
            print(f"BADKIND  {name}: declared {declared}, expected {kind}")
            failures += 1
            continue
        if nonzero and observed == 0:
            print(f"ZERO     {name}: family present but never observed")
            failures += 1
            continue
        print(f"ok       {name} ({declared}, observed {observed:g})")

    if failures:
        print(f"\n{failures} required metric famil"
              f"{'y' if failures == 1 else 'ies'} missing or unobserved")
        return 1
    print(f"\nall {len(required)} required metric families exposed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
