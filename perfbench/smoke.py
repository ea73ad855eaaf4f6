#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at toy size (about a minute).

    python3 perfbench/smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that altering one artifact or an input trips the digest checks, and that a
deleted wrapped function only adds to trace.missing_names.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

import run
import tracer

TOY = {
    "synth": {"n_regions": 60, "n_fields": 24, "n_sections": 8, "year_min": 1980, "year_max": 1983,
              "baseline_presence": 0.05, "plant_cycle_beta": 10.0, "families_per_presence": 2},
    "pipeline": {"granularity": "class", "replicates": 10, "q": 0.05, "basis": "percentile",
                 "workers": 2},
}
SEED = 3


def check_metrics_emitted(work: Path) -> None:
    for trace in (False, True):
        units = run.benchmark_units(trace)
        result = run.measure("toy", TOY, SEED, 0, trace, work / f"trace{int(trace)}", units)
        assert result["correct"], result
        assert result["failed"] == 0 and result["attempted"] >= 1, result
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == units, (sorted(set(units) ^ set(emitted)), emitted)
        if trace:
            metrics = result["metrics"]
            assert metrics["trace.missing_names"]["value"] == 0, metrics
            assert metrics["nullmodel.replicates"]["value"] == 10 * 3, metrics
            assert metrics["acs.decompose_calls"]["value"] > 0, metrics


def check_digests(work: Path) -> None:
    data = work / "data"
    digest = run.generate_inputs(TOY, SEED, data)
    assert run.check_input_digest("toy", SEED, digest, {"toy": {str(SEED): digest}}) is None
    assert run.check_input_digest("toy", SEED, digest, {"toy": {str(SEED): "0" * 64}})

    run_dir = work / "run"
    args = run.pipeline_args(TOY, SEED, data, run_dir)
    child = run.run_child([sys.executable, "-m", "technet.cli", *args], work / "run.log")
    assert child.returncode == 0, (work / "run.log").read_text()
    problems, map_digest = run.check_run_dir(run_dir)
    assert problems == [] and map_digest, problems

    network = sorted((run_dir / "network").glob("C_*.csv"))[0]
    with open(network, "a") as f:
        f.write("\n")
    problems, _ = run.check_run_dir(run_dir)
    rel = str(network.relative_to(run_dir))
    assert problems == [f"artifact digest mismatch: {rel}"], problems


def check_missing_name(work: Path) -> None:
    import technet.stats

    data = work / "data"
    run.generate_inputs(TOY, SEED, data)
    digests = []
    for delete in (False, True):
        run_dir = work / f"run{int(delete)}"
        saved = technet.stats.family_field_counts
        if delete:
            del technet.stats.family_field_counts
        try:
            code, summary = tracer.traced_cli(run.pipeline_args(TOY, SEED, data, run_dir))
        finally:
            technet.stats.family_field_counts = saved
        assert code == 0
        problems, map_digest = run.check_run_dir(run_dir)
        assert problems == [], problems
        digests.append(map_digest)
        values = tracer.layer_metrics(summary, tracer.stage_artifact_bytes(run_dir), 0.0)
        expected = ["stats.family_field_counts"] if delete else []
        assert summary["missing_names"] == expected, summary["missing_names"]
        assert values["trace.missing_names"] == len(expected)
        assert (values["stats.family_field_counts_s"] == 0) == delete
        assert values["pipeline.stats_s"] > 0
    assert digests[0] == digests[1]


def main() -> int:
    os.environ.update(run.workload_map()["threads"])  # before numpy loads
    work = run.WORK / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    sys.path.insert(0, str(run.SRC))
    for check in (check_metrics_emitted, check_digests, check_missing_name):
        check(work / check.__name__)
        print(f"ok  {check.__name__}", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
