#!/usr/bin/env python3
"""Steadiness and per-layer reports over repeated benchmark runs.

    python3 perfbench/report.py steady --workload NAME --runs K [--seed0 N] [--out FILE]
    python3 perfbench/report.py layers [--seed N] [--workload NAME ...]

``steady`` runs one workload K times, each with its own seed, and prints
every metric's median, quartiles (``statistics.quantiles(n=4)``) and
relative spread ``(q3 - q1) / median`` against the metric's bound in
``BENCHMARK.json``, plus the share of failed operations.  ``--out``
appends every run's result line to FILE for later comparison.

``layers`` runs each workload once untraced and once traced with the
same seed and prints the per-layer table beside the untraced end-to-end
figures, with the tracing overhead (traced minus untraced ``setup_s``
and ``dist_p50_us``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=900)
    lines = proc.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
    return result


def spread_rows(results: List[dict]) -> List[tuple]:
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    rows = []
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        rows.append((name, results[0]["metrics"][name]["unit"], med, q1, q3, spread,
                     bounds.get(name)))
    return rows


def cmd_steady(args) -> int:
    results = []
    for k in range(args.runs):
        result = run_once(args.workload, args.seed0 + k, args.seconds, args.trace)
        results.append(result)
        if args.out:
            with open(args.out, "a") as handle:
                handle.write(json.dumps({"workload": args.workload,
                                         "seed": args.seed0 + k, **result}) + "\n")
        print(f"run {k + 1}/{args.runs} seed {args.seed0 + k} done", file=sys.stderr)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"workload {args.workload}: {len(results)} runs, failed share {sorted(shares)}")
    print(f"{'metric':34} {'unit':10} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    worst = 0
    for name, unit, med, q1, q3, spread, bound in spread_rows(results):
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  > bound/3"
            worst = 1
        shown = f"{bound:.2f}" if bound is not None else "-"
        print(f"{name:34} {unit:10} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {shown:>6}{flag}")
    return worst


def cmd_layers(args) -> int:
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    for name in names:
        plain = run_once(name, args.seed, args.seconds, 0)["metrics"]
        traced = run_once(name, args.seed, args.seconds, 1)["metrics"]
        print(f"== {name} (seed {args.seed})")
        print("  end to end (untraced):")
        for key, m in plain.items():
            print(f"    {key:34} {m['value']:14.6g} {m['unit']}")
        print("  per layer (traced):")
        for key, m in traced.items():
            print(f"    {key:34} {m['value']:14.6g} {m['unit']}")
        overhead: Dict[str, float] = {
            "setup_s": traced["traced.setup_s"]["value"] - plain["setup_s"]["value"],
            "dist_p50_us": traced["traced.dist_p50_us"]["value"] - plain["dist_p50_us"]["value"],
        }
        print("  tracing overhead (traced - untraced):")
        for key, value in overhead.items():
            base = plain[key]["value"]
            print(f"    {key:34} {value:+14.6g} ({value / base:+.1%} of {base:.6g})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("steady", help="run one workload K times; print spreads")
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append each run's result line to this file")
    p.set_defaults(func=cmd_steady)
    p = sub.add_parser("layers", help="per-layer table beside untraced figures")
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.set_defaults(func=cmd_layers)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
