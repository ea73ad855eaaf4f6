#!/usr/bin/env python3
"""technet benchmark: run one named workload and print its metrics.

Run from the root of a checkout (technet need not be installed; the
pipeline runs from the checkout's own `src`):

    python3 perfbench/run.py --workload class-nulls --seed 1 --seconds 25 --trace 0

The workload's inputs come from `technet.synth.generate_events` with the
given seed. With `--trace 0` the benchmark runs untraced
`python -m technet.cli pipeline` child processes back to back for
`--seconds` and reports the end-to-end metrics named in BENCHMARK.json as
medians over the repeats. With `--trace 1` it alternates untraced and
traced children (see tracer.py) and reports the per-layer metrics. Every
child's outputs are checked. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Workload parameters, the thread settings and the per-layer map live in
perfbench/map.json; recorded input digests in perfbench/input_digests.json.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
INPUT_DIGESTS = BENCH_DIR / "input_digests.json"

CHILD_TIMEOUT_S = 150
SETUP_SAMPLES = 5
# A fresh interpreter importing the CLI and every stage module.
SETUP_CODE = (
    "import importlib, technet.cli\n"
    f"for m in {tracer.MEASURED_MODULES!r}:\n"
    "    importlib.import_module('technet.' + m)\n"
)
INPUT_FILES = ("events.csv", "hierarchy.csv", "regions.csv", "truth_edges.csv")


@functools.cache
def workload_map() -> dict:
    """perfbench/map.json: thread settings, workload parameters and the metric map."""
    return json.loads((BENCH_DIR / "map.json").read_text())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("TECHNET_WORKERS", None)
    env.update(workload_map()["threads"])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    return env


@dataclass
class ChildRun:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_child(argv: list[str], log_path: Path) -> ChildRun:
    """Spawn one child, wait for it, and take its own resource usage from wait4."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:  # interrupted: stop the child before leaving
                proc.kill()
                proc.wait()
    return ChildRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def generate_inputs(spec: dict, seed: int, out: Path) -> str:
    """Write the workload's synthetic inputs; return their sha256."""
    from technet.synth import SynthConfig, generate_events, planted_cycle_pairs, synth_field_codes

    s = spec["synth"]
    codes = synth_field_codes(s["n_fields"], s["n_sections"])
    cfg = SynthConfig(
        n_regions=s["n_regions"], n_fields=s["n_fields"], n_sections=s["n_sections"],
        year_min=s["year_min"], year_max=s["year_max"],
        baseline_presence=s["baseline_presence"],
        catalytic_pairs=planted_cycle_pairs(codes, s["plant_cycle_beta"]),
        families_per_presence=s["families_per_presence"], master_seed=seed,
    )
    result = generate_events(cfg)
    out.mkdir(parents=True, exist_ok=True)
    texts = (result.events_text, result.hierarchy_text, result.regions_text,
             result.truth_edges_text)
    digest = hashlib.sha256()
    for name, text in zip(INPUT_FILES, texts):
        data = text.encode()
        (out / name).write_bytes(data)
        digest.update(name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()


def check_input_digest(workload: str, seed: int, digest: str, recorded: dict) -> str | None:
    """Problem text when the recorded digest for (workload, seed) differs."""
    expected = recorded.get(workload, {}).get(str(seed))
    if expected is not None and expected != digest:
        return f"input digest {digest} differs from the recorded {expected} for {workload} seed {seed}"
    return None


def load_recorded_digests() -> dict:
    return json.loads(INPUT_DIGESTS.read_text()) if INPUT_DIGESTS.is_file() else {}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_run_dir(run_dir: Path) -> tuple[list[str], str | None]:
    """Check a finished run directory against its manifest.

    Returns (problems, digest of the manifest's artifact map). The manifest
    must say `complete`, and every artifact on disk must match its recorded
    sha256, with none missing and none unlisted.
    """
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.is_file():
        return ["no manifest.json"], None
    try:
        manifest = json.loads(manifest_path.read_text())
        artifacts = manifest["artifacts"]
        status = manifest["status"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable manifest: {exc!r}"], None
    problems = []
    if status != "complete":
        problems.append(f"manifest status {status!r}")
    on_disk = {
        str(p.relative_to(run_dir)) for p in run_dir.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    }
    for rel in sorted(on_disk - set(artifacts)):
        problems.append(f"artifact not in manifest: {rel}")
    for rel, digest in sorted(artifacts.items()):
        if rel not in on_disk:
            problems.append(f"artifact missing: {rel}")
        elif _sha256(run_dir / rel) != digest:
            problems.append(f"artifact digest mismatch: {rel}")
    map_digest = hashlib.sha256(json.dumps(artifacts, sort_keys=True).encode()).hexdigest()
    return problems, map_digest


def link_quality(run_dir: Path, truth_path: Path, n_pairs: int) -> tuple[float, float]:
    """(planted_recall, false_link_frac) from the network/ edge lists."""
    truth = set()
    for line in truth_path.read_text().splitlines()[1:]:
        if line.strip():
            src, dst, _beta = line.split(",")
            truth.add((src, dst))
    found = emitted = false = 0
    for path in sorted((run_dir / "network").glob("C_*.csv")):
        for line in path.read_text().splitlines():
            parts = line.split(",")
            if len(parts) != 3 or not parts[0].isdigit():
                continue
            emitted += 1
            if (parts[1], parts[2]) in truth:
                found += 1
            else:
                false += 1
    recall = found / (len(truth) * n_pairs) if truth and n_pairs else 0.0
    return recall, (false / emitted if emitted else 0.0)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def pipeline_args(spec: dict, seed: int, data: Path, run_dir: Path) -> list[str]:
    s, p = spec["synth"], spec["pipeline"]
    return [
        "pipeline", "--run-dir", str(run_dir),
        "--events", str(data / "events.csv"), "--hierarchy", str(data / "hierarchy.csv"),
        "--regions", str(data / "regions.csv"),
        "--year-min", str(s["year_min"]), "--year-max", str(s["year_max"]),
        "--granularity", p["granularity"], "--replicates", str(p["replicates"]),
        "--q", str(p["q"]), "--basis", p["basis"], "--seed", str(seed),
        "--workers", str(p["workers"]),
    ]


def measure_setup(work: Path, problems: list[str]) -> list[float]:
    samples = []
    for i in range(SETUP_SAMPLES):
        child = run_child([sys.executable, "-c", SETUP_CODE], work / f"setup{i}.log")
        if child.returncode != 0:
            problems.append(f"importing technet failed with exit code {child.returncode}")
        samples.append(child.wall_s)
    return samples


def machine_probe() -> float:
    """Seconds for a fixed pure-Python and BLAS workload; recorded, never used to normalise."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i
    a = np.arange(250 * 250, dtype=np.float64).reshape(250, 250) / 1e4
    for _ in range(100):
        a = a @ a
        a /= np.abs(a).max()
    return time.perf_counter() - start


def steal_seconds() -> float:
    """CPU time the hypervisor gave to others so far (0 where /proc/stat is absent)."""
    stat = Path("/proc/stat")
    if not stat.is_file():
        return 0.0
    fields = stat.read_text().split("\n", 1)[0].split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def environment(spec: dict) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "threads": workload_map()["threads"],
        "workers": spec["pipeline"]["workers"],
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


class Runner:
    """Runs and checks pipeline children for one (workload, seed)."""

    def __init__(self, spec: dict, seed: int, work: Path, data: Path):
        self.spec = spec
        self.seed = seed
        self.work = work
        self.data = data
        self.n_pairs = spec["synth"]["year_max"] - spec["synth"]["year_min"]
        self.attempted = 0
        self.failed = 0
        self.map_digest: str | None = None
        self.problems: list[str] = []

    def run(self, traced: bool) -> dict:
        """One pipeline child; returns its measurements and check results."""
        self.attempted += 1
        tag = f"{'traced' if traced else 'plain'}{self.attempted}"
        run_dir = self.work / tag
        shutil.rmtree(run_dir, ignore_errors=True)
        args = pipeline_args(self.spec, self.seed, self.data, run_dir)
        summary_path = self.work / f"{tag}.spans.json"
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"),
                    "--summary", str(summary_path), "--", *args]
        else:
            argv = [sys.executable, "-m", "technet.cli", *args]
        child = run_child(argv, self.work / f"{tag}.log")
        problems = [] if child.returncode == 0 else [f"exit code {child.returncode}"]
        more, map_digest = check_run_dir(run_dir)
        problems += more
        if map_digest is not None:
            if self.map_digest is None:
                self.map_digest = map_digest
            elif map_digest != self.map_digest:
                problems.append("artifact map differs from the first run of this seed")
        out = {
            "traced": traced, "wall_s": child.wall_s, "cpu_s": child.cpu_s,
            "peak_rss_mb": child.peak_rss_mb, "artifact_mb": 0.0,
            "map_digest": map_digest, "problems": problems,
        }
        if run_dir.is_dir():
            out["artifact_mb"] = dir_bytes(run_dir) / 2**20
            out["stage_bytes"] = tracer.stage_artifact_bytes(run_dir)
            if not problems:
                out["planted_recall"], out["false_link_frac"] = link_quality(
                    run_dir, self.data / "truth_edges.csv", self.n_pairs
                )
        if traced and summary_path.is_file():
            out["summary"] = json.loads(summary_path.read_text())
        elif traced:
            problems.append("traced run wrote no span summary")
        if problems:
            self.failed += 1
            self.problems += [f"{tag}: {p}" for p in problems]
        shutil.rmtree(run_dir, ignore_errors=True)
        return out


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(runs: list[dict], setup: list[float], runner: Runner) -> dict:
    ok = [r for r in runs if not r["problems"]]
    first_ok = ok[0] if ok else {}
    return {
        "setup_s": _median(setup),
        "pipeline_s": _median([r["wall_s"] for r in runs]),
        "cpu_s": _median([r["cpu_s"] for r in runs]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in runs]),
        "artifact_mb": _median([r["artifact_mb"] for r in runs]),
        "success_frac": (runner.attempted - runner.failed) / runner.attempted,
        "planted_recall": first_ok.get("planted_recall", 0.0),
        "false_link_frac": first_ok.get("false_link_frac", 0.0),
    }


def per_layer_metrics(runs: list[dict]) -> dict:
    plain = [r["wall_s"] for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"] and "summary" in r]
    if not traced:
        return {}
    overhead = _median([r["wall_s"] for r in traced]) - _median(plain)
    per_run = [
        tracer.layer_metrics(r["summary"], r.get("stage_bytes", {}), overhead) for r in traced
    ]
    return {name: _median([values[name] for values in per_run]) for name in per_run[0]}


def measure(name: str, spec: dict, seed: int, seconds: float, trace: bool,
            work: Path, units: dict[str, str]) -> dict:
    """Set up, run for `seconds`, check outputs; return the result object."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    data = work / "data"
    digest = generate_inputs(spec, seed, data)
    runner = Runner(spec, seed, work, data)
    recorded = load_recorded_digests()
    problem = check_input_digest(name, seed, digest, recorded)
    if problem:
        runner.problems.append(problem)
    setup = measure_setup(work, runner.problems)
    probe = machine_probe()
    print(json.dumps({"env": environment(spec), "input_sha256": digest,
                      "input_digest_recorded": str(seed) in recorded.get(name, {}),
                      "machine_probe_s": probe, "setup_samples_s": setup}))

    runs: list[dict] = []
    steal = steal_seconds()
    start = time.perf_counter()
    while True:
        for traced in ((False, True) if trace else (False,)):
            r = runner.run(traced)
            runs.append(r)
            print(json.dumps({k: v for k, v in r.items() if k not in ("summary", "stage_bytes")}))
        elapsed = time.perf_counter() - start
        # stop before a further round would overrun the measuring window
        per_round = elapsed / (len(runs) // (2 if trace else 1))
        if elapsed + per_round > seconds:
            break
    print(json.dumps({"measured_s": time.perf_counter() - start,
                      "steal_s": steal_seconds() - steal}))

    if trace:
        values = per_layer_metrics(runs)
        missing = next((r["summary"]["missing_names"] for r in runs if "summary" in r), [])
        if missing:
            print(json.dumps({"trace_missing_names": missing}))
    else:
        values = end_to_end_metrics(runs, setup, runner)
    shutil.rmtree(data, ignore_errors=True)
    runner.problems += [f"metric {m} not computed" for m in units if m not in values]
    for p in runner.problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            metric: {"value": values.get(metric, 0.0), "unit": unit}
            for metric, unit in units.items()
        },
    }


def benchmark_units(trace: bool) -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="technet benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workload_map()["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(workload_map()["threads"])  # before numpy loads, here and in every child
    if not (SRC / "technet" / "__init__.py").is_file():
        print(f"error: no technet sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = measure(
        args.workload, workload_map()["workloads"][args.workload], args.seed, args.seconds,
        bool(args.trace), WORK / f"{args.workload}-{args.seed}", benchmark_units(bool(args.trace)),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
