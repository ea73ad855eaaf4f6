"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of technet's measured modules from
outside the program and records one span per call: name, start, end, parent
and thread. A span's self time is its duration minus the time its child spans
cover. Every thread keeps its own span stack and totals, so the replicate
pool threads of the null stage need no lock on the hot path.

Spans are named after the module that defines the function
(`nullmodel.fit_bicm`), and every technet module that binds the function
gets the wrapper (`pipeline.fit_bicm` calls the same span). The entries of
`pipeline.STAGES` are wrapped as `pipeline.<stage>` spans because
`run_pipeline` iterates over that tuple, not over the module attributes.

Run as a script it executes the technet CLI under tracing and writes the
span totals as JSON:

    PYTHONPATH=src python3 perfbench/tracer.py --summary spans.json -- pipeline ...
"""

from __future__ import annotations

import argparse
import collections
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
import warnings
from pathlib import Path

MEASURED_MODULES = (
    "ingest", "hierarchy", "rca", "assist", "nullmodel", "fdr", "acs", "stats", "pipeline",
)
STAGE_NAMES = ("ingest", "rca", "assist", "nulls", "filter", "acs", "stats")

# Artifact directories each stage writes, for the pipeline.<stage>_mb metrics.
STAGE_DIRS = {
    "ingest": ("index", "occurrence"),
    "rca": ("presence",),
    "assist": ("assist",),
    "nulls": ("pvalues", "nulls"),
    "filter": ("network",),
    "acs": ("acs",),
    "stats": ("stats",),
}

# Per-record helpers called about once per event line: a wrapper would cost
# more than their work, so their time stays in the caller's self time.
UNWRAPPED = frozenset({"hierarchy.level_depth", "ingest.split_family_weights"})

# Spans shorter than this are folded into the per-name totals only; the kept
# list stays small even at 700k parsed families.
KEEP_SPAN_S = 1e-3

# Per-layer metrics read from span totals: metric -> (field, span names).
# "self_s" sums self time, "total_s" sums whole span durations, "calls"
# counts calls and "warnings" counts warnings raised while a span was open.
SPAN_METRICS = {
    **{f"pipeline.{s}_s": ("total_s", (f"pipeline.{s}",)) for s in STAGE_NAMES},
    "pipeline.self_s": ("self_s", ("pipeline.run_pipeline",)),
    "rca.presence_text_s": ("self_s", ("rca.presence_to_text", "rca.presence_from_text")),
    "rca.presence_reads": ("calls", ("rca.presence_from_text",)),
    "assist.text_s": (
        "self_s",
        ("assist.assist_to_text", "assist.assist_sidecar_text", "assist.assist_from_text"),
    ),
    "nullmodel.pvalues_text_s": (
        "self_s", ("nullmodel.pvalues_to_text", "nullmodel.pvalues_from_text"),
    ),
    "fdr.network_text_s": ("self_s", ("fdr.network_to_text", "fdr.network_from_text")),
    "fdr.network_reads": ("calls", ("fdr.network_from_text",)),
    "ingest.occurrence_text_s": (
        "self_s", ("ingest.occurrence_to_text", "ingest.occurrence_from_text"),
    ),
    "nullmodel.fit_bicm_s": ("self_s", ("nullmodel.fit_bicm",)),
    "nullmodel.sample_s": ("self_s", ("nullmodel.sample_null_matrix",)),
    "nullmodel.sample_calls": ("calls", ("nullmodel.sample_null_matrix",)),
    "nullmodel.replicates": ("calls", ("nullmodel.null_assist_replicate",)),
    "nullmodel.exceedance_s": ("self_s", ("nullmodel.exceedance_counts",)),
    "assist.assist_matrix_s": ("self_s", ("assist.assist_matrix",)),
    "assist.assist_matrix_calls": ("calls", ("assist.assist_matrix",)),
    "fdr.bh_fdr_s": ("self_s", ("fdr.bh_fdr",)),
    "fdr.build_adjacency_s": ("self_s", ("fdr.build_adjacency",)),
    "acs.decompose_calls": ("calls", ("acs.decompose",)),
    "acs.decompose_s": ("self_s", ("acs.decompose",)),
    "acs.find_core_s": ("self_s", ("acs.find_core",)),
    "acs.split_distinct_acs_s": ("self_s", ("acs.split_distinct_acs",)),
    "acs.pf_eigen_calls": ("calls", ("acs.pf_eigen",)),
    "acs.pf_eigen_s": ("self_s", ("acs.pf_eigen",)),
    "stats.variety_llr_s": ("self_s", ("stats.variety_llr",)),
    "stats.fnch_fit_s": ("total_s", ("stats.fit_noncentral_weights",)),
    "stats.fnch_loglik_calls": ("calls", ("stats.fnch_loglik",)),
    "stats.fnch_warnings": ("warnings", ("stats.fit_noncentral_weights",)),
    "stats.subset_fitness_s": ("self_s", ("stats.subset_fitness",)),
    "stats.ordered_adjacency_s": ("self_s", ("stats.ordered_adjacency_text",)),
    "ingest.parse_events_calls": ("calls", ("ingest.parse_events",)),
    "ingest.parse_events_s": ("self_s", ("ingest.parse_events",)),
    "ingest.build_occurrence_s": ("self_s", ("ingest.build_occurrence_matrix",)),
    "hierarchy.parse_calls": ("calls", ("hierarchy.parse_hierarchy",)),
    "stats.family_field_counts_s": ("self_s", ("stats.family_field_counts",)),
}


def _count_parse(counters, args, kwargs, result):
    lines = args[0] if args else kwargs["lines"]
    counters["ingest.lines"] += max(len(lines) - 1, 0)  # minus the header
    counters["ingest.rejected_lines"] += result.n_rejected


def _count_bh(counters, args, kwargs, result):
    pvalues = args[0] if args else kwargs["pvalues"]
    counters["fdr.tested_links"] += len(pvalues)
    counters["fdr.links_kept"] += len(result)


def _count_gemm(counters, args, kwargs, result):
    m_t = args[0] if args else kwargs["m_t"]
    n_regions, n_fields = m_t.presence.shape
    counters["assist.gemm_flop"] += 2 * n_fields * n_fields * n_regions


# Counters read from a call's arguments and result, after its span closes.
HOOKS = {
    "ingest.parse_events": _count_parse,
    "fdr.bh_fdr": _count_bh,
    "assist.assist_matrix": _count_gemm,
}

EXPECTED_SPANS = frozenset(
    name for _field, names in SPAN_METRICS.values() for name in names
) | frozenset(HOOKS) | {"nullmodel.null_assist_replicate"}


class _ThreadState:
    def __init__(self, index: int):
        self.index = index
        self.stack: list[list] = []
        # name -> [calls, total_s, self_s, warnings]
        self.totals: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.counters: collections.Counter = collections.Counter()
        self.warning_kinds: collections.Counter = collections.Counter()
        self.hook_errors: set[str] = set()


class SpanRecorder:
    """Collects spans per thread; `summary()` merges them."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
        return state

    def wrap(self, name: str, fn, hook=None):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = recorder._state()
            frame = [next(recorder._ids), time.perf_counter(), 0.0, 0]  # id, start, child_s, warnings
            state.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                state.stack.pop()
                recorder._close(state, name, frame, end)
            if hook is not None:
                try:
                    hook(state.counters, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    state.hook_errors.add(name)
            return result

        return traced

    @staticmethod
    def _close(state: _ThreadState, name: str, frame: list, end: float) -> None:
        span_id, start, child_s, n_warnings = frame
        duration = end - start
        totals = state.totals.get(name)
        if totals is None:
            totals = state.totals[name] = [0, 0.0, 0.0, 0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - child_s
        totals[3] += n_warnings
        parent = state.stack[-1] if state.stack else None
        if parent is not None:
            parent[2] += duration
        if duration >= KEEP_SPAN_S:
            state.spans.append(
                (span_id, name, start, end, parent[0] if parent else None, state.index)
            )

    def on_warning(self, message, category, filename, lineno, file=None, line=None):
        """`warnings.showwarning` replacement: charge the warning to every open span."""
        state = self._state()
        for frame in state.stack:
            frame[3] += 1
        state.warning_kinds[f"{category.__name__}: {message}"] += 1

    def summary(self, missing: list[str]) -> dict:
        totals: dict[str, list] = {}
        counters: collections.Counter = collections.Counter()
        kinds: collections.Counter = collections.Counter()
        spans = []
        for state in self._states:
            for name, (calls, total_s, self_s, n_warn) in state.totals.items():
                agg = totals.setdefault(name, [0, 0.0, 0.0, 0])
                agg[0] += calls
                agg[1] += total_s
                agg[2] += self_s
                agg[3] += n_warn
            counters.update(state.counters)
            kinds.update(state.warning_kinds)
            spans.extend(state.spans)
            missing = missing + [f"hook:{name}" for name in sorted(state.hook_errors)]
        spans.sort(key=lambda s: s[2])
        return {
            "totals": {
                name: {"calls": c, "total_s": t, "self_s": s, "warnings": w}
                for name, (c, t, s, w) in sorted(totals.items())
            },
            "counters": dict(counters),
            "warnings": dict(kinds),
            "missing_names": sorted(set(missing)),
            "threads": len(self._states),
            "spans": [
                {"id": i, "name": n, "start": a, "end": b, "parent": p, "thread": t}
                for i, n, a, b, p, t in spans
            ],
        }


def install(recorder: SpanRecorder):
    """Wrap every public function of the measured modules in place.

    Returns (missing, restore): the expected span names that could not be
    wrapped, and a function that puts every original binding back.
    """
    importlib.import_module("technet.cli")  # loads every module on the pipeline path
    wrappers = {}
    present = set()
    for short in MEASURED_MODULES:
        try:
            module = importlib.import_module(f"technet.{short}")
        except ModuleNotFoundError:
            continue
        for attr, obj in vars(module).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                    or inspect.isgeneratorfunction(obj)):
                continue
            span = f"{short}.{attr}"
            if span in UNWRAPPED:
                continue
            wrappers[obj] = recorder.wrap(span, obj, HOOKS.get(span))
            present.add(span)

    patched = []
    technet_modules = [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "technet" or name.startswith("technet."))
    ]
    for module in technet_modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patched.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])

    pipeline = sys.modules.get("technet.pipeline")
    stages = getattr(pipeline, "STAGES", ())
    if stages:
        patched.append((pipeline, "STAGES", stages))
        pipeline.STAGES = tuple(
            (stage, recorder.wrap(f"pipeline.{stage}", fn)) for stage, fn in stages
        )
        present.update(f"pipeline.{stage}" for stage, _fn in stages)

    def restore() -> None:
        for module, attr, obj in reversed(patched):
            setattr(module, attr, obj)

    return sorted(EXPECTED_SPANS - present), restore


def traced_cli(argv: list[str]) -> tuple[int, dict]:
    """Run `technet.cli.main(argv)` under tracing; return (exit code, summary)."""
    recorder = SpanRecorder()
    missing, restore = install(recorder)
    cli = importlib.import_module("technet.cli")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = recorder.on_warning
            code = cli.main(argv)
    finally:
        restore()
    return code, recorder.summary(missing)


def layer_metrics(summary: dict, stage_bytes: dict[str, int], overhead_s: float) -> dict:
    """Per-layer metric values from one traced run's summary."""
    totals = summary["totals"]
    counters = summary["counters"]
    values = {}
    for metric, (field, names) in SPAN_METRICS.items():
        values[metric] = sum(totals.get(name, {}).get(field, 0) for name in names)
    for stage in STAGE_NAMES:
        values[f"pipeline.{stage}_mb"] = stage_bytes.get(stage, 0) / 2**20
    replicates = values["nullmodel.replicates"]
    nulls_s = values["pipeline.nulls_s"]
    values["nullmodel.replicates_per_s"] = replicates / nulls_s if nulls_s > 0 else 0.0
    values["assist.gemm_gflop"] = counters.get("assist.gemm_flop", 0) / 1e9
    tested = counters.get("fdr.tested_links", 0)
    kept = counters.get("fdr.links_kept", 0)
    values["fdr.tested_links"] = tested
    values["fdr.links_kept"] = kept
    values["fdr.kept_frac"] = kept / tested if tested else 0.0
    parse_s = values["ingest.parse_events_s"]
    values["ingest.lines_per_s"] = counters.get("ingest.lines", 0) / parse_s if parse_s > 0 else 0.0
    values["ingest.rejected_lines"] = counters.get("ingest.rejected_lines", 0)
    values["trace.overhead_s"] = overhead_s
    values["trace.missing_names"] = len(summary["missing_names"])
    return values


def stage_artifact_bytes(run_dir: Path) -> dict[str, int]:
    sizes = {}
    for stage, dirs in STAGE_DIRS.items():
        sizes[stage] = sum(
            p.stat().st_size for d in dirs for p in (run_dir / d).rglob("*") if p.is_file()
        )
    return sizes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", required=True, help="where to write the span totals (JSON)")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="arguments for technet.cli, after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    code, summary = traced_cli(cli_args)
    Path(args.summary).write_text(json.dumps(summary) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
