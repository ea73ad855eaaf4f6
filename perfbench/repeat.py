#!/usr/bin/env python3
"""Run the benchmark repeatedly and report each metric's spread.

    python3 perfbench/repeat.py --seeds 1-10 --out .perfbench/set1.json
    python3 perfbench/repeat.py --compare .perfbench/set1.json .perfbench/set2.json

Runs `python3 perfbench/run.py` once per (seed, workload), interleaving the
workloads so that drift in machine speed reaches all of them alike. For each
end-to-end metric it prints the median, the quartiles and the quartile
distance as a share of the median, against the metric's bound in
BENCHMARK.json. `--compare` checks that the second set's medians are not
worse than the first's by more than the bound.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@functools.cache
def bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end() -> dict[str, dict]:
    return {m["name"]: m for m in bench()["end_to_end"]}


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [*bench()["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{cmd} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    env = json.loads(lines[0])
    result["machine_probe_s"] = env.get("machine_probe_s")
    return result


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / med if med else float("inf")}


def summarize(results: dict) -> dict:
    table = {}
    for workload, runs in results.items():
        for metric in end_to_end():
            values = [r["metrics"][metric]["value"] for r in runs]
            table[f"{workload}/{metric}"] = spread(values)
    return table


def report(results: dict) -> None:
    for key, s in summarize(results).items():
        bound = end_to_end()[key.split("/", 1)[1]]["bound"]
        flag = "ok" if s["iqr_frac"] <= bound / 3 else ("WIDE" if s["iqr_frac"] <= bound else "OVER")
        print(f"{key:34s} median {s['median']:12.5g}  iqr/med {s['iqr_frac']:7.4f}"
              f"  bound {bound:5.2f}  {flag}")
    for workload, runs in results.items():
        probes = [r["machine_probe_s"] for r in runs]
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, {failed} failed, all correct: "
              f"{all(r['correct'] for r in runs)}, machine probe s "
              f"{min(probes):.3f}..{max(probes):.3f}")


def compare(first: dict, second: dict) -> int:
    a, b = summarize(first), summarize(second)
    worse = 0
    for key in a:
        metric = end_to_end()[key.split("/", 1)[1]]
        m1, m2 = a[key]["median"], b[key]["median"]
        change = (m2 - m1) / m1 if m1 else 0.0
        if metric["better"] == "higher":
            change = -change
        verdict = "worse" if change > metric["bound"] else "ok"
        worse += verdict == "worse"
        print(f"{key:34s} {m1:12.5g} -> {m2:12.5g}  worse by {change:+.4f}"
              f"  bound {metric['bound']:.2f}  {verdict}")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench()["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench()["run_seconds"])
    parser.add_argument("--out", help="write all results here (JSON)")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        return compare(first, second)
    workloads = args.workloads.split(",")
    results: dict[str, list] = {w: [] for w in workloads}
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            results[workload].append(run_once(workload, seed, args.seconds, 0))
            print(f"seed {seed} {workload}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in results[workload][-1]["metrics"].items()
            ), flush=True)
            if args.out:
                Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    report(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
