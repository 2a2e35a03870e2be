"""Run-to-run stability check of the benchmark's end-to-end metrics.

Run from the repository root::

    python3 perfbench/stability.py --workloads lineitem-batch,xmark-spec,service-mix \\
        --seeds 1-10

For each workload it runs ``perfbench/run.py`` once per seed (one run
at a time) and reports, per end-to-end metric, the median of the runs
and the distance between the first and third quartiles as a share of
that median, next to the metric's bound in ``BENCHMARK.json``.  A
spread above a third of the bound is flagged (``setup_s`` is exempt
from the spread rule).  ``--against SUMMARY`` also compares each median
with the one in an earlier summary file and flags a metric that got
worse by more than its bound.  ``--same-seed-counts`` instead runs the
traced batch workloads twice on one seed and checks that the per-pass
work counts agree exactly.  The summary is written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spreads(bench: dict, workloads: list[str], seeds: list[int],
            seconds: int) -> dict:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {}
    for workload in workloads:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            t0 = time.monotonic()
            result = run_once(workload, seed, seconds, 0)
            print(f"# {workload} seed {seed}: {time.monotonic() - t0:.1f} s, "
                  f"correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']}", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            bound = bounds[name]
            ok = name == "setup_s" or spread <= bound / 3
            rows[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "values": vals, "steady": ok}
            print(f"{workload:15s} {name:16s} median {q2:12.4f}  spread "
                  f"{spread:7.4f}  bound {bound:5.3f}  "
                  f"{'ok' if ok else 'WIDE'}", flush=True)
        summary[workload] = rows
    return summary


def compare(bench: dict, summary: dict, path: str) -> None:
    """Flag medians that got worse than an earlier summary's by more than the bound."""
    with open(path, encoding="utf-8") as fh:
        before = json.load(fh)["results"]
    spec = {m["name"]: m for m in bench["end_to_end"]}
    for workload, rows in summary.items():
        for name, row in rows.items():
            old = before.get(workload, {}).get(name)
            if old is None or not old["median"]:
                continue
            change = row["median"] / old["median"] - 1.0
            worse = change if spec[name]["better"] == "lower" else -change
            flag = "WORSE" if worse > spec[name]["bound"] else "ok"
            print(f"{workload:15s} {name:16s} median {old['median']:12.4f} -> "
                  f"{row['median']:12.4f} ({change:+.3f})  {flag}", flush=True)


def same_seed_counts(workloads: list[str], seed: int, seconds: int) -> dict:
    out = {}
    for workload in workloads:
        counts = []
        for _ in range(2):
            run_once(workload, seed, seconds, 1)
            path = os.path.join(HERE, "out", f"{workload}-seed{seed}-trace1.json")
            with open(path, encoding="utf-8") as fh:
                counts.append(json.load(fh).get("counts_per_pass"))
        same = counts[0] == counts[1]
        print(f"{workload}: per-pass counts {'identical' if same else 'DIFFER'}: "
              f"{counts[0]}", flush=True)
        out[workload] = {"identical": same, "counts": counts}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--same-seed-counts", action="store_true")
    parser.add_argument("--against", help="an earlier stability summary file")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    if args.same_seed_counts:
        summary = same_seed_counts(workloads, seeds[0], seconds)
        name = "counts"
    else:
        summary = spreads(bench, workloads, seeds, seconds)
        name = "stability"
        if args.against:
            compare(bench, summary, args.against)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"{name}-{int(time.time())}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seconds": seconds, "seeds": seeds, "results": summary}, fh,
                  indent=1)
    print(f"# summary: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
