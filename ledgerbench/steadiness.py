#!/usr/bin/env python3
"""Steadiness runs for ledgerbench.

Runs every workload N times in alternating order (one seed per round, the
first workload rotating each round), then prints each metric's median,
quartiles, quartile spread and range as shares of the median. When
BENCHMARK.json is present it also checks every end-to-end spread, setup_s
included, against a third of the metric's bound.

With two or more --checkout directories (a parent and a change), every
round runs each checkout on the same seed, alternating which goes first,
and the report adds per-metric pair wins of each later checkout against the
first.

    python3 ledgerbench/steadiness.py --runs 10 --seconds 10
    python3 ledgerbench/steadiness.py --runs 5 --workloads cohort_100k
    python3 ledgerbench/steadiness.py --checkout ../parent --checkout . --runs 10

Uses only the standard library. Quartiles are statistics.quantiles(n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

DEFAULT_COMMAND = ["cargo", "run", "--release", "--offline", "-q",
                   "--manifest-path", "ledgerbench/Cargo.toml", "--"]
DEFAULT_WORKLOADS = ["tsr_tracks", "cohort_100k", "adaptive_forest"]


def load_benchmark(checkout):
    path = os.path.join(checkout, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def run_once(checkout, command, workload, seed, seconds, trace, env):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed its checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread_row(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    rel = (lambda x: x / med) if med else (lambda x: float("nan"))
    return med, q1, q3, rel(q3 - q1), rel(max(values) - min(values))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json, else 10")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: BENCHMARK.json workloads")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--checkout", action="append", default=None,
                        help="repeatable; the first is the baseline (default: .)")
    args = parser.parse_args()

    checkouts = [os.path.abspath(c) for c in (args.checkout or ["."])]
    bench = load_benchmark(checkouts[-1]) or {}
    command = bench.get("command", DEFAULT_COMMAND)
    seconds = args.seconds or bench.get("run_seconds", 10)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench.get("workloads", [])] or DEFAULT_WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in bench.get("end_to_end", [])}

    envs = {}
    for checkout in checkouts:
        env = dict(os.environ)
        if len(checkouts) > 1 or "CARGO_TARGET_DIR" not in env:
            env["CARGO_TARGET_DIR"] = os.path.join(checkout, ".bench_build")
        envs[checkout] = env

    # values[checkout][workload][metric] -> list, in round order
    values = {c: {w: {} for w in workloads} for c in checkouts}
    for r in range(args.runs):
        seed = args.seed_base + r
        shift = r % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            order = checkouts if r % 2 == 0 else checkouts[::-1]
            for checkout in order:
                metrics = run_once(checkout, command, workload, seed, seconds,
                                   args.trace, envs[checkout])
                for name, value in metrics.items():
                    values[checkout][workload].setdefault(name, []).append(value)
                shown = " ".join(f"{k}={v:.6g}" for k, v in metrics.items() if k in bounds)
                print(f"round {r + 1}/{args.runs} seed {seed} {workload} "
                      f"{os.path.relpath(checkout)}: {shown}", file=sys.stderr, flush=True)

    steady = True
    for checkout in checkouts:
        print(f"\n== {checkout} ({args.runs} runs, {seconds} s, trace {args.trace})")
        for workload in workloads:
            print(f"-- {workload}")
            print(f"{'metric':<28}{'median':>16}{'q1':>16}{'q3':>16}{'iqr/med':>10}{'range/med':>11}  check")
            for name, vals in values[checkout][workload].items():
                med, q1, q3, iqr, rng = spread_row(vals)
                check = ""
                if name in bounds:
                    ok = iqr <= bounds[name] / 3
                    steady &= ok
                    check = f"{'ok' if ok else 'WIDE'} (bound {bounds[name]})"
                print(f"{name:<28}{med:>16.6g}{q1:>16.6g}{q3:>16.6g}{iqr:>10.4f}{rng:>11.4f}  {check}")

    lower_better = {m["name"]: m["better"] == "lower"
                    for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}
    base = checkouts[0]
    for checkout in checkouts[1:]:
        print(f"\n== pairs: {checkout} against {base}")
        for workload in workloads:
            print(f"-- {workload}")
            for name, change in values[checkout][workload].items():
                parent = values[base][workload][name]
                lower = lower_better.get(name, True)
                wins = sum((c < p) if lower else (c > p) for c, p in zip(change, parent))
                med, q1, q3 = spread_row(parent)[:3]
                delta = f"{statistics.median(change) / med - 1:+.2%}" if med else "n/a"
                print(f"{name:<28} median {delta}  wins {wins}/{len(change)}  "
                      f"parent iqr {q3 - q1:.6g}")

    if bounds and not steady:
        print("\nsome end-to-end spread exceeds a third of its bound", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
