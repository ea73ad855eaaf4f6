"""Pipeline orchestration: staged artifact tree, manifest, and determinism.

A run directory is a tree of plain-text artifacts, one subdirectory per stage,
so every stage can be rerun standalone on persisted inputs:

    index/       field and region universes, year span
    occurrence/  W_<year>.csv          weight triplets
                 F_<year>.csv          families featuring each field
    presence/    M_<year>.csv          presence triplets
    assist/      B_<year>.csv (+ .sidecar.csv)
    pvalues/     P_<year>.csv          null exceedance counts
    network/     C_<year>.csv          significant directed edges
    acs/         labels_<year>.csv, summary.csv
    stats/       fitness.csv, variety.csv, mixing.csv, occupancy.csv,
                 adjacency_<year>.csv (+ .sections.csv)
    manifest.json

Every stage, run by `run_pipeline` or by itself from the CLI, goes through
`run_stage`, which turns any failure into a PipelineError carrying its cause;
`run_pipeline` also records the failed stage in an 'incomplete' manifest.

Every matrix one stage hands to the next is written and read by `artifacts`,
whose readers reject a truncated or malformed file. Events are parsed once,
at ingest, each presence year is read once per stage, and each network is
decomposed once, at acs: the stats stage reads the field counts and labels.

Null replicates run in the calling process for one worker and on a pool of
forked worker processes for more; the null matrix of year y, replicate k, is
drawn once from an RNG substream keyed by (y, k) and serves both year pairs
that use y, and the reduction sums integer count matrices in submission order,
so any worker count gives byte-identical artifacts. Assist values, empirical
and null, come from a hit-list join that sums in region order without BLAS,
and null values that tie the empirical ones up to summation order count as
exceedances, so `pvalues/` does not depend on the BLAS thread count either.
The manifest records the effective config, versions, seed, and a checksum per
artifact; it carries no timestamps or worker counts, so identical runs produce
identical manifests.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass
from functools import partial
from pathlib import Path
from typing import Iterator, get_type_hints

import numpy as np

from . import __version__, artifacts
from .acs import decompose, decomposition_from_text, decomposition_to_text
from .assist import (
    AssistError,
    AssistMatrix,
    assist_from_text,
    assist_matrix,
    assist_sidecar_text,
    assist_to_text,
)
from .fdr import SIGNIFICANCE_BASES, build_adjacency, network_from_text, network_to_text
from .hierarchy import CodeHierarchy, parse_hierarchy
from .ingest import (
    build_occurrence_matrix,
    occurrence_from_text,
    occurrence_to_text,
    parse_events,
)
from .nullmodel import (
    BicmParameters,
    count_dtype,
    exceedance_counts,
    exceedance_test,
    fit_bicm,
    pvalues_from_counts,
    pvalues_from_text,
    pvalues_to_text,
)
from .rca import PresenceMatrix, binarize_rca, presence_from_text, presence_to_text
from .stats import (
    acs_section_counts,
    family_field_counts,
    field_counts_from_text,
    field_counts_to_text,
    ordered_adjacency_text,
    section_mixing,
    section_occupancy,
    subset_fitness,
    variety_llr,
)

GRANULARITIES = ("class", "subclass")


class ConfigError(ValueError):
    """Invalid run configuration; maps to exit code 1."""


class PipelineError(RuntimeError):
    """A stage failed; carries the stage name, the year and the cause.

    The CLI exits 1 if the cause is a validation error (a missing or malformed
    input) and 2 otherwise.
    """

    def __init__(self, stage: str, year: int | None, cause: Exception):
        where = f"stage {stage!r}" + (f", year {year}" if year is not None else "")
        super().__init__(f"{where}: {cause}")
        self.stage = stage
        self.year = year
        self.cause = cause


@dataclass
class RunConfig:
    events_path: str = ""
    hierarchy_path: str = ""
    regions_path: str = ""
    out_dir: str = ""
    year_min: int = 1980
    year_max: int = 2011
    lag: int = 1
    granularity: str = "class"
    n_replicates: int = 1000
    fdr_q: float = 0.05
    master_seed: int = 0
    include_diagonal: bool = False
    significance_basis: str = "percentile"
    delimiter: str = ","

    def validate(self, *, require_inputs: bool = True) -> None:
        if require_inputs:
            for name in ("events_path", "hierarchy_path", "out_dir"):
                if not getattr(self, name):
                    raise ConfigError(f"{name} is required")
            for name in ("events_path", "hierarchy_path"):
                if not Path(getattr(self, name)).is_file():
                    raise ConfigError(f"{name} does not exist: {getattr(self, name)}")
            if self.regions_path and not Path(self.regions_path).is_file():
                raise ConfigError(f"regions_path does not exist: {self.regions_path}")
        if self.year_max < self.year_min:
            raise ConfigError("empty year range")
        if self.lag < 1:
            raise ConfigError("lag must be >= 1")
        if self.year_max - self.year_min < self.lag:
            raise ConfigError("year range shorter than the lag: no year pairs to analyse")
        if self.n_replicates < 1:
            raise ConfigError("n_replicates must be >= 1")
        if not 0.0 < self.fdr_q < 1.0:
            raise ConfigError("fdr_q must lie strictly between 0 and 1")
        if self.granularity not in GRANULARITIES:
            raise ConfigError(f"granularity must be one of {GRANULARITIES}")
        if self.significance_basis not in SIGNIFICANCE_BASES:
            raise ConfigError(f"significance_basis must be one of {SIGNIFICANCE_BASES}")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be nonnegative")
        if not self.delimiter:
            raise ConfigError("delimiter must not be empty")

    @property
    def base_years(self) -> list[int]:
        return list(range(self.year_min, self.year_max - self.lag + 1))

    @property
    def years(self) -> list[int]:
        return list(range(self.year_min, self.year_max + 1))


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def load_run_config(path: str | Path) -> RunConfig:
    """Plain key = value configuration file; '#' starts a comment line.

    Each key is a RunConfig field and its value is cast to that field's type;
    a bool field takes 1, true or yes, or 0, false or no, in any case.
    """
    cfg = RunConfig()
    types = get_type_hints(RunConfig)
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"malformed config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        kind = types[key]
        try:
            setattr(cfg, key, _BOOL_WORDS[value.lower()] if kind is bool else kind(value))
        except (KeyError, ValueError):
            raise ConfigError(f"bad value for {key!r}: {value!r}") from None
    return cfg


def check_workers(workers: int) -> None:
    """A worker count below 1 is a ConfigError, not one worker."""
    if workers < 1:
        raise ConfigError(f"the worker count must be >= 1, got {workers}")


class RunPaths:
    """Canonical artifact locations inside a run directory."""

    def __init__(self, out_dir: str | Path):
        self.root = Path(out_dir)

    def ensure(self) -> None:
        for sub in ("index", "occurrence", "presence", "assist", "pvalues",
                    "network", "acs", "stats"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)

    def fields_file(self) -> Path:
        return self.root / "index" / "fields.txt"

    def regions_file(self) -> Path:
        return self.root / "index" / "regions.txt"

    def years_file(self) -> Path:
        return self.root / "index" / "years.txt"

    def occurrence(self, year: int) -> Path:
        return self.root / "occurrence" / f"W_{year}.csv"

    def field_counts(self, year: int) -> Path:
        return self.root / "occurrence" / f"F_{year}.csv"

    def presence(self, year: int) -> Path:
        return self.root / "presence" / f"M_{year}.csv"

    def assist(self, year: int) -> Path:
        return self.root / "assist" / f"B_{year}.csv"

    def assist_sidecar(self, year: int) -> Path:
        return self.root / "assist" / f"B_{year}.sidecar.csv"

    def pvalues(self, year: int) -> Path:
        return self.root / "pvalues" / f"P_{year}.csv"

    def network(self, year: int) -> Path:
        return self.root / "network" / f"C_{year}.csv"

    def labels(self, year: int) -> Path:
        return self.root / "acs" / f"labels_{year}.csv"

    def acs_summary(self) -> Path:
        return self.root / "acs" / "summary.csv"

    def stats(self, name: str) -> Path:
        return self.root / "stats" / name

    def manifest(self) -> Path:
        return self.root / "manifest.json"

    def read_fields(self) -> tuple[str, ...]:
        return tuple(self.fields_file().read_text().split())

    def read_regions(self) -> tuple[str, ...]:
        return tuple(self.regions_file().read_text().split())

    def read_years(self) -> tuple[int, int]:
        rows = artifacts.tagged_rows(self.years_file().read_text(), {"year_min": 1, "year_max": 1})
        [[year_min]], [[year_max]] = rows["year_min"], rows["year_max"]
        return int(year_min), int(year_max)


def _load_hierarchy(cfg: RunConfig) -> CodeHierarchy:
    return parse_hierarchy(Path(cfg.hierarchy_path).read_text())


# ---------------------------------------------------------------------------
# Stages: each reads persisted artifacts and writes its own
# ---------------------------------------------------------------------------


def stage_ingest(cfg: RunConfig, paths: RunPaths) -> None:
    parsed = parse_events(
        Path(cfg.events_path).read_text().splitlines(),
        _load_hierarchy(cfg),
        cfg.granularity,
        delimiter=cfg.delimiter,
        year_min=cfg.year_min,
        year_max=cfg.year_max,
    )
    paths.fields_file().write_text("\n".join(parsed.codes) + "\n")
    paths.regions_file().write_text("\n".join(parsed.regions) + "\n")
    paths.years_file().write_text(
        artifacts.rows_to_text([("year_min", cfg.year_min), ("year_max", cfg.year_max)])
    )
    report = {
        "n_records": len(parsed.year),
        "n_rejected": parsed.n_rejected,
        "rejected_by_reason": parsed.rejected_by_reason,
        "issues": [
            {"line": issue.line_no, "reason": issue.reason} for issue in parsed.issues[:200]
        ],
    }
    (paths.root / "index" / "ingest_report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n"
    )
    for year in cfg.years:
        w = build_occurrence_matrix(parsed, year)
        paths.occurrence(year).write_text(occurrence_to_text(w))
        counts = family_field_counts(parsed, year)
        paths.field_counts(year).write_text(field_counts_to_text(year, counts))


def stage_rca(cfg: RunConfig, paths: RunPaths) -> None:
    fields = paths.read_fields()
    regions = paths.read_regions()
    for year in cfg.years:
        w = occurrence_from_text(
            paths.occurrence(year).read_text(), regions=regions, fields=fields, year=year
        )
        m = binarize_rca(w)
        paths.presence(year).write_text(presence_to_text(m))


def _pair_presence(cfg: RunConfig, paths: RunPaths) -> Iterator[tuple[int, PresenceMatrix]]:
    """The presence of each year that some year pair uses, read once, in year order.

    With lag >= 2 a short range can hold a year that no pair uses; it is not read.
    """
    fields = paths.read_fields()
    regions = paths.read_regions()
    for year in sorted({*cfg.base_years, *(year + cfg.lag for year in cfg.base_years)}):
        text = paths.presence(year).read_text()
        yield year, presence_from_text(text, regions=regions, fields=fields, year=year)


def stage_assist(cfg: RunConfig, paths: RunPaths) -> None:
    presence = dict(_pair_presence(cfg, paths))
    for year in cfg.base_years:
        b = assist_matrix(presence[year], presence[year + cfg.lag])
        paths.assist(year).write_text(assist_to_text(b))
        paths.assist_sidecar(year).write_text(assist_sidecar_text(b))


# The walk of a pool worker, bound by its initializer: it reaches the worker
# through the fork, so the fits and assist matrices are never pickled. The
# calling process never sets it.
_forked_walk = None


def _bind_forked_walk(walk) -> None:
    global _forked_walk
    _forked_walk = walk


def _run_forked_walk(chunk: list[int]):
    return _forked_walk(chunk)


@contextmanager
def _chunk_map(walk, workers: int):
    """A `map` of `walk` over chunks of replicate indices, in submission order.

    One worker maps in this process, with no fork and no pickling. More
    workers map on a pool of that many processes forked from this one with
    `walk` bound, so a task pickles only its chunk of replicate indices and
    its results. The start method is fork whatever the platform default: the
    pool forks every worker at the first submit, before it starts a thread
    of its own, and the walk makes no BLAS call. On leaving, pending tasks are cancelled,
    so a failed stage does not first run its remaining chunks, and every
    worker is joined.
    """
    if workers == 1:
        yield partial(map, walk)
        return
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_bind_forked_walk, initargs=(walk,),
    )
    try:
        yield partial(pool.map, _run_forked_walk)
    finally:
        pool.shutdown(cancel_futures=True)


def _read_pair_assist(cfg: RunConfig, paths: RunPaths, fit: BicmParameters) -> AssistMatrix:
    """The assist matrix of the fit's year, over the fit's index tuples and of the run's lag."""
    b_emp = assist_from_text(
        paths.assist(fit.year).read_text(), paths.assist_sidecar(fit.year).read_text(),
        regions=fit.regions, fields=fit.fields, year=fit.year,
    )
    if b_emp.lag != cfg.lag:
        raise AssistError(f"assist matrix of lag {b_emp.lag} where the run's lag is {cfg.lag}")
    return b_emp


def stage_nulls(cfg: RunConfig, paths: RunPaths, workers: int = 1) -> None:
    """Null replicates of all year pairs, in 8 contiguous chunks of K per worker.

    This process first fits the BiCM of every year that some pair uses, which
    also fixes each cell's byte threshold for every draw of that year. Each
    pair's assist matrix is read against the fits' index tuples and must be
    of its own base year and of the run's lag (an AssistError otherwise); it
    is kept only as its `ExceedanceTest`, whose threshold is computed here
    once for every task, and its values are dropped. Each task walks every
    year pair for its chunk of replicates with the year-keyed fits, drawing
    each (year, k) matrix once as a hit list (one random byte per cell, and a
    double only for the 1-in-256 boundary cells), and returns one count
    matrix per pair in the narrowest type that holds its chunk's length
    (uint8 up to 255 replicates). With more than one worker the tasks run on
    forked worker processes (`_chunk_map`), since the walk is many small
    NumPy calls that hold the interpreter lock. With one chunk per worker, a
    worker that shares its CPU with another process held the whole stage
    back, while the other worker idled after its chunk; 8 chunks per worker
    let the faster one take more. This process adds each task's counts into
    totals of the narrowest type that holds K, in submission order, and drops
    them, so only a few tasks' counts are held at once.
    """
    fits = {year: fit_bicm(m) for year, m in _pair_presence(cfg, paths)}
    tests = [exceedance_test(_read_pair_assist(cfg, paths, fits[year])) for year in cfg.base_years]
    k = cfg.n_replicates
    totals = [np.zeros(test.threshold.shape, dtype=count_dtype(k)) for test in tests]
    chunks = [c.tolist() for c in np.array_split(np.arange(k), min(8 * workers, k))]
    walk = partial(exceedance_counts, fits, tests, master_seed=cfg.master_seed)
    with _chunk_map(walk, workers) as run:
        for counts in run(chunks):
            for total, chunk_counts in zip(totals, counts):
                total += chunk_counts
    for year, test, total in zip(cfg.base_years, tests, totals):
        paths.pvalues(year).write_text(pvalues_to_text(pvalues_from_counts(test, total, k)))


def stage_filter(cfg: RunConfig, paths: RunPaths) -> None:
    for year in cfg.base_years:
        pv = pvalues_from_text(paths.pvalues(year).read_text(), year=year)
        net = build_adjacency(
            pv, q=cfg.fdr_q, include_diagonal=cfg.include_diagonal,
            basis=cfg.significance_basis,
        )
        paths.network(year).write_text(network_to_text(net))


def stage_acs(cfg: RunConfig, paths: RunPaths) -> None:
    fields = paths.read_fields()
    summary = [("year", "lambda1", "core_size", "periphery_size", "acs_size")]
    for year in cfg.base_years:
        d = decompose(network_from_text(paths.network(year).read_text(), fields, year=year))
        paths.labels(year).write_text(decomposition_to_text(d))
        summary.append(d.summary_row)
    paths.acs_summary().write_text(artifacts.rows_to_text(summary))


def stage_stats(cfg: RunConfig, paths: RunPaths) -> None:
    hierarchy = _load_hierarchy(cfg)
    fields = paths.read_fields()

    tables = {
        "fitness": [("year", "subset", "metric", "value")],
        "variety": [("year", "metric", "value")],
        "mixing": [("year", "within", "between")],
        "occupancy": [
            ("year", "section", "size", "n_in_acs", "acs_fraction", "share_of_acs",
             "share_of_outside"),
        ],
    }
    for year in cfg.base_years:
        net = network_from_text(paths.network(year).read_text(), fields, year=year)
        labels = decomposition_from_text(paths.labels(year).read_text(), fields, year=year)
        fitness = field_counts_from_text(paths.field_counts(year).read_text(), fields, year=year)
        for row in subset_fitness(labels, fitness):
            for metric in ("n_fields", "total", "average", "fitness_share", "node_share"):
                tables["fitness"].append((year, row.subset, metric, getattr(row, metric)))
        sections, counts, sizes = acs_section_counts(labels, hierarchy)
        result = variety_llr(counts, sizes)
        for metric in ("applicable", "llr", "df", "critical_value", "significant", "boundary"):
            tables["variety"].append((year, metric, getattr(result, metric)))
        for section, count, omega in zip(sections, counts, result.omega):
            tables["variety"].append((year, f"count_{section}", count))
            tables["variety"].append((year, f"omega_{section}", omega))
        mix = section_mixing(net, hierarchy)
        tables["mixing"].append((year, mix.within, mix.between))
        for occ in section_occupancy(labels, hierarchy):
            tables["occupancy"].append((year, *astuple(occ)))
        grid, bounds = ordered_adjacency_text(net, hierarchy)
        paths.stats(f"adjacency_{year}.csv").write_text(grid)
        paths.stats(f"adjacency_{year}.sections.csv").write_text(bounds)

    for name, rows in tables.items():
        paths.stats(f"{name}.csv").write_text(artifacts.rows_to_text(rows))


STAGES = (
    ("ingest", stage_ingest),
    ("rca", stage_rca),
    ("assist", stage_assist),
    ("nulls", stage_nulls),
    ("filter", stage_filter),
    ("acs", stage_acs),
    ("stats", stage_stats),
)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _collect_artifacts(paths: RunPaths) -> dict[str, str]:
    artifacts = {}
    for p in sorted(paths.root.rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            artifacts[str(p.relative_to(paths.root))] = _sha256(p)
    return artifacts


def _write_manifest(cfg: RunConfig, paths: RunPaths, status: str, failed: dict | None) -> dict:
    manifest = {
        "config": asdict(cfg),
        "versions": {
            "technet": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        "master_seed": cfg.master_seed,
        "status": status,
        "failed": failed,
        "artifacts": _collect_artifacts(paths),
    }
    paths.manifest().write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest


def run_stage(name: str, cfg: RunConfig, paths: RunPaths, workers: int = 1) -> None:
    """Run one stage; any failure of the stage is raised as a PipelineError.

    Only the null stage takes `workers`. `STAGES` is looked up here, at call
    time, so a stage table swapped in after import is the one that runs.
    """
    check_workers(workers)
    stage_fn = dict(STAGES)[name]
    try:
        if name == "nulls":
            stage_fn(cfg, paths, workers=workers)
        else:
            stage_fn(cfg, paths)
    except Exception as exc:  # noqa: BLE001 - every stage failure is reported
        raise PipelineError(name, None, exc) from exc


def run_pipeline(cfg: RunConfig, workers: int = 1) -> dict:
    """Run every stage in order and write the manifest.

    Any stage error aborts the run: remaining artifacts are left unwritten,
    the manifest is still emitted with status 'incomplete' and the failing
    stage recorded, and the stage's PipelineError is raised.
    """
    cfg.validate()
    check_workers(workers)
    paths = RunPaths(cfg.out_dir)
    paths.ensure()
    for name, _stage_fn in STAGES:
        try:
            run_stage(name, cfg, paths, workers)
        except PipelineError as exc:
            failed = {"stage": name, "error": str(exc.cause)}
            _write_manifest(cfg, paths, "incomplete", failed)
            raise
    return _write_manifest(cfg, paths, "complete", None)
