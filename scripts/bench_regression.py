#!/usr/bin/env python3
"""Gate the bench baselines: compare a fresh run against the committed file.

Usage: bench_regression.py COMMITTED_JSON LIVE_JSON

Fails (exit 1) on:
  * schema drift — either file does not carry the expected schema tag, or
    the live run emits a different row set / misses required columns;
  * correctness drift — any row in either file reports
    ``bit_identical: false`` (the flat/parallel path diverged from its
    reference);
  * throughput collapse — a live row's throughput falls below
    ``BENCH_TOLERANCE`` times the committed throughput on either side of
    the comparison;
  * parallel slowdown — a live serial-vs-parallel row (contender label
    ``parallel(N)``) whose speedup is at or below ``BENCH_SPEEDUP_FLOOR``.
    This check is host-aware: when the live run's ``host_parallelism`` is
    1, parallel rows measure scheduling overhead rather than scaling, so
    the expectation is skipped with a notice instead of failing;
  * flat trailing pointer — the ``qim_uncertainty_pointer_vs_flat`` row's
    per-sample flat side must not lose to the per-sample pointer walk
    (speedup >= ``BENCH_FLAT_FLOOR``, default 1.0). Both sides run on one
    thread, so unlike the parallel floor this check applies on every host.

``BENCH_TOLERANCE`` defaults to 0.2: CI runners differ from the host that
produced the committed baseline (the committed files come from a 1-CPU
container; see the ``note`` field), so only a ~5x collapse — a real
regression, not scheduler noise — fails the build.
``BENCH_SPEEDUP_FLOOR`` defaults to 1.0 (parallel must not lose to serial
on a genuinely multicore host).
"""

import json
import os
import sys

SCHEMA = "tauw-bench-baseline/v10"

# Rows whose contender is the per-sample flat serving path (the only
# serving shape) and whose baseline is the per-sample pointer walk of the
# same model: flat must not trail pointer.
FLAT_FLOOR_ROWS = ("qim_uncertainty_pointer_vs_flat",)
REQUIRED_COLUMNS = (
    "name",
    "work_units",
    "baseline_label",
    "contender_label",
    "baseline_ms",
    "contender_ms",
    "speedup",
    "baseline_per_s",
    "contender_per_s",
    "bit_identical",
)


def fail(msg: str) -> None:
    print(f"bench-regression: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    if doc.get("schema") != SCHEMA:
        fail(f"{path}: schema {doc.get('schema')!r} != expected {SCHEMA!r}")
    if not doc.get("results"):
        fail(f"{path}: empty results")
    for row in doc["results"]:
        missing = [c for c in REQUIRED_COLUMNS if c not in row]
        if missing:
            fail(f"{path}: row {row.get('name')!r} misses columns {missing}")
        if row["bit_identical"] is not True:
            fail(f"{path}: row {row['name']!r} reports bit_identical: false")
    return doc


def main() -> None:
    if len(sys.argv) != 3:
        fail("usage: bench_regression.py COMMITTED_JSON LIVE_JSON")
    committed_path, live_path = sys.argv[1], sys.argv[2]
    tolerance = float(os.environ.get("BENCH_TOLERANCE", "0.2"))
    committed = load(committed_path)
    live = load(live_path)

    committed_rows = {r["name"]: r for r in committed["results"]}
    live_rows = {r["name"]: r for r in live["results"]}
    if set(committed_rows) != set(live_rows):
        fail(
            f"row set drift: committed {sorted(committed_rows)} vs "
            f"live {sorted(live_rows)}"
        )
    if live.get("smoke") != committed.get("smoke"):
        fail(
            f"smoke flag mismatch: committed {committed.get('smoke')} vs "
            f"live {live.get('smoke')} (compare like-for-like scales)"
        )
    if live.get("threads_parallel") != committed.get("threads_parallel"):
        fail(
            f"thread budget mismatch: committed parallel rows use "
            f"{committed.get('threads_parallel')} threads, live uses "
            f"{live.get('threads_parallel')} (rerun without --threads overrides)"
        )

    speedup_floor = float(os.environ.get("BENCH_SPEEDUP_FLOOR", "1.0"))
    live_cores = int(live.get("host_parallelism", 1))
    worst = 1e9
    for name, want in committed_rows.items():
        got = live_rows[name]
        for label_col in ("baseline_label", "contender_label"):
            if want[label_col] != got[label_col]:
                fail(
                    f"{name}: {label_col} drift — committed "
                    f"{want[label_col]!r} vs live {got[label_col]!r}"
                )
        if "parallel(" in got["contender_label"]:
            if live_cores <= 1:
                print(
                    f"  {name}: skipping speedup floor (live host has "
                    f"{live_cores} hardware thread(s); parallel rows measure "
                    f"overhead, not scaling)"
                )
            elif got["speedup"] <= speedup_floor:
                fail(
                    f"{name}: parallel speedup {got['speedup']:.2f} is at or "
                    f"below the floor {speedup_floor} on a {live_cores}-thread "
                    f"host"
                )
        if name in FLAT_FLOOR_ROWS:
            flat_floor = float(os.environ.get("BENCH_FLAT_FLOOR", "1.0"))
            if got["speedup"] < flat_floor:
                fail(
                    f"{name}: per-sample flat speedup {got['speedup']:.2f} "
                    f"trails the pointer baseline floor {flat_floor}"
                )
        for side in ("baseline_per_s", "contender_per_s"):
            if want[side] <= 0:
                fail(f"{name}: committed {side} is non-positive")
            ratio = got[side] / want[side]
            worst = min(worst, ratio)
            label = want[side.replace("_per_s", "_label")]
            print(
                f"  {name} [{label}]: committed {want[side]:.0f}/s, "
                f"live {got[side]:.0f}/s ({ratio:.2f}x)"
            )
            if ratio < tolerance:
                fail(
                    f"{name} [{label}]: live throughput {got[side]:.0f}/s is "
                    f"below {tolerance} x committed {want[side]:.0f}/s"
                )
    print(
        f"bench-regression: OK ({len(committed_rows)} rows, worst "
        f"live/committed throughput ratio {worst:.2f}, tolerance {tolerance})"
    )


if __name__ == "__main__":
    main()
