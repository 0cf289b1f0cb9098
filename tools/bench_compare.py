#!/usr/bin/env python3
"""CI perf-regression gate over the shared bench_json.h schema.

Usage: bench_compare.py <baseline.json> <fresh.json>... [--tolerance 0.10]

All files are `{"bench": ..., "results": [{...}, ...]}` documents emitted
by a bench's `--json` mode. Rows are keyed by their dimension fields (the
strings and integers: axis, prior, kernel, n, batch, ...) and compared on
their metric fields (the floats). A metric's name carries its direction:

  *_per_sec, speedup*        higher is better — fail when fresh drops more
                             than the tolerance below baseline
  *_ns                       lower is better — fail when fresh rises more
                             than the tolerance above baseline
  anything else              informational, never gated (verdict counts,
                             hit rates, overhead percentages, *_mib memory
                             figures)

Noise guards, so a 10% gate is usable on shared CI runners:
  * several fresh snapshots may be given; each metric gates against its
    best value across the runs (max for rates, min for timings), so a
    regression fires only when *every* run regressed — one-sided timer /
    scheduler noise in a single run cannot fail the gate (CI runs each
    bench three times);
  * ns metrics where both sides are under 50 ns are skipped (timer floor);
  * thread_scaling / client_scaling rows above one thread/client are
    informational — their variance on small CI boxes dwarfs any signal;
    the one-thread row still gates;
  * tail percentiles (p95_ns / p99_ns / p999_ns) are informational — an
    open-loop tail on a shared runner is dominated by scheduler jitter;
    the median (p50_ns) and goodput still gate.

Exit status: 0 clean, 1 regression(s) found, 2 usage / schema trouble.

Refreshing the baseline (the documented workflow, see README): rebuild
Release, run each bench three times with `--json`, fold the runs with
`--write-best BENCH_<name>.json`, and commit the new snapshot together with
the change that moved it — the diff is the perf trajectory. The written
snapshot copies each row whole from one run: the run holding the median of
the row's first gated metric. Its derived fields (speedups, overheads) then
agree with their operands, which a per-metric best-of fold would not
guarantee.
"""

import argparse
import json
import sys

# Rows on these axes gate only their serial (one worker) entry.
SCALING_AXES = {"thread_scaling": "threads", "client_scaling": "clients"}

# Below this many nanoseconds the steady_clock resolution dominates.
NS_FLOOR = 50.0

# Latency-distribution tails: tracked in the snapshots but never gated —
# one descheduling blip on a shared runner moves p99.9 by orders of
# magnitude while leaving the median untouched.
TAIL_METRICS = {"p95_ns", "p99_ns", "p999_ns"}


def direction(key):
    """+1 higher-is-better, -1 lower-is-better, 0 informational."""
    if key in TAIL_METRICS:
        return 0
    if key.endswith("_per_sec") or key == "speedup" or key.startswith("speedup_"):
        return 1
    if key.endswith("_ns"):
        return -1
    return 0


def is_metric(key):
    """Measured fields — excluded from row identity, gated per direction().

    *_pct fields (tracing overhead, cache hit rates), *_mib fields (memory
    growth) and tail percentiles vary run to run; leaving them in the row
    key would make every comparison report the row as missing.
    """
    return (
        direction(key) != 0
        or key.endswith(("_pct", "_mib"))
        or key in TAIL_METRICS
    )


def row_key(row):
    """The row's identity: every non-metric field, in a stable order.

    Metrics are recognized by name, not JSON type — integral rates print
    without a decimal point and would otherwise leak into the key.
    """
    return tuple(sorted((k, v) for k, v in row.items() if not is_metric(k)))


def fmt_key(key):
    return ", ".join(f"{k}={v}" for k, v in key)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
        return doc["bench"], {row_key(r): r for r in doc["results"]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        sys.exit(f"bench_compare: cannot read '{path}': {e}")


def merge_best(snapshots):
    """Folds several fresh runs into one best-of row map.

    Directional metrics take their best value across the runs; identity
    and informational fields come from the first run that has the row.
    """
    merged = {}
    for rows in snapshots:
        for key, row in rows.items():
            best = merged.setdefault(key, dict(row))
            for metric, value in row.items():
                d = direction(metric) if isinstance(value, (int, float)) else 0
                if d == 0:
                    continue
                have = best.get(metric)
                if not isinstance(have, (int, float)):
                    best[metric] = value
                elif (value > have) if d == 1 else (value < have):
                    best[metric] = value
    return merged


def first_gated_metric(row):
    """The row's first directional metric in field order, or None."""
    for metric, value in row.items():
        if isinstance(value, (int, float)) and direction(metric) != 0:
            return metric
    return None


def merge_median(snapshots):
    """Folds several fresh runs into one snapshot of whole rows.

    Each row is copied unchanged from the run holding the median of its
    first gated metric (for an even count, the worse of the two middle
    runs); a row without one comes from the first run that has it.
    """
    merged = {}
    for key in dict.fromkeys(k for rows in snapshots for k in rows):
        runs = [rows[key] for rows in snapshots if key in rows]
        metric = first_gated_metric(runs[0])
        if metric is None:
            merged[key] = dict(runs[0])
            continue
        runs = [r for r in runs if isinstance(r.get(metric), (int, float))]
        runs.sort(key=lambda r: r[metric], reverse=direction(metric) == 1)
        merged[key] = dict(runs[len(runs) // 2])
    return merged


def is_informational_row(row):
    axis = row.get("axis")
    if axis in SCALING_AXES:
        return row.get(SCALING_AXES[axis], 1) != 1
    return False


def compare(baseline, fresh, tolerance):
    """Returns (failures, checked, skipped) message lists."""
    failures, checked, skipped = [], [], []
    for key, base_row in baseline.items():
        fresh_row = fresh.get(key)
        if fresh_row is None:
            failures.append(f"row missing from fresh run: {fmt_key(key)}")
            continue
        informational = is_informational_row(base_row)
        for metric, base_value in base_row.items():
            d = direction(metric) if isinstance(base_value, (int, float)) else 0
            if d == 0:
                continue
            fresh_value = fresh_row.get(metric)
            if not isinstance(fresh_value, (int, float)):
                failures.append(
                    f"metric '{metric}' missing from fresh row: {fmt_key(key)}"
                )
                continue
            where = f"{metric} [{fmt_key(key)}]"
            if informational:
                skipped.append(f"{where}: informational (scaling row)")
                continue
            if d == -1 and base_value < NS_FLOOR and fresh_value < NS_FLOOR:
                skipped.append(f"{where}: under the {NS_FLOOR:.0f} ns floor")
                continue
            if base_value <= 0:
                skipped.append(f"{where}: non-positive baseline")
                continue
            ratio = fresh_value / base_value
            regressed = (
                ratio < 1.0 - tolerance if d == 1 else ratio > 1.0 + tolerance
            )
            line = (
                f"{where}: baseline {base_value:.10g} -> fresh "
                f"{fresh_value:.10g} ({(ratio - 1.0) * 100.0:+.1f}%)"
            )
            if regressed:
                failures.append(line)
            else:
                checked.append(line)
    return failures, checked, skipped


def main():
    parser = argparse.ArgumentParser(
        description="fail on >tolerance throughput regression vs a "
        "checked-in bench snapshot"
    )
    parser.add_argument("baseline")
    parser.add_argument(
        "fresh",
        nargs="+",
        help="one or more fresh snapshots; metrics gate against their best",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="allowed relative regression (default 0.10 = 10%%)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="print every checked metric"
    )
    parser.add_argument(
        "--write-best",
        metavar="PATH",
        help="write the fresh runs as a snapshot document, each row copied "
        "whole from the run holding the median of its first gated metric "
        "(the baseline-refresh payload)",
    )
    args = parser.parse_args()

    base_name, baseline = load(args.baseline)
    fresh_snapshots = []
    for path in args.fresh:
        fresh_name, rows = load(path)
        if base_name != fresh_name:
            sys.exit(
                f"bench_compare: snapshots disagree on the bench "
                f"('{base_name}' vs '{fresh_name}')"
            )
        fresh_snapshots.append(rows)
    fresh = merge_best(fresh_snapshots)
    if args.write_best:
        with open(args.write_best, "w") as f:
            json.dump(
                {
                    "bench": base_name,
                    "results": list(merge_median(fresh_snapshots).values()),
                },
                f,
                indent=1,
            )
            f.write("\n")

    failures, checked, skipped = compare(baseline, fresh, args.tolerance)

    print(
        f"bench_compare [{base_name}]: best of {len(fresh_snapshots)} "
        f"run(s): {len(checked)} metrics within "
        f"{args.tolerance:.0%}, {len(skipped)} informational/skipped, "
        f"{len(failures)} regressions"
    )
    if args.verbose:
        for line in checked:
            print(f"  ok   {line}")
        for line in skipped:
            print(f"  skip {line}")
    for line in failures:
        print(f"  FAIL {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
