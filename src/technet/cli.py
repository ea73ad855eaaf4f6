"""Command-line interface: every pipeline stage runnable standalone.

Exit codes: 0 success, 1 validation error (bad flags, missing or malformed
inputs), 2 compute error (a stage failed on valid inputs). Worker count for
null replicates comes from the TECHNET_WORKERS environment variable unless
given explicitly with --workers.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .dynamics import estimate_growth_rate, simulate_linear, trajectory_to_text
from .hierarchy import HierarchyError
from .ingest import IngestError
from .pipeline import (
    ConfigError,
    PipelineError,
    RunConfig,
    RunPaths,
    load_run_config,
    resolve_workers,
    run_pipeline,
    stage_acs,
    stage_assist,
    stage_filter,
    stage_ingest,
    stage_nulls,
    stage_rca,
    stage_stats,
)
from .fdr import network_from_text
from .synth import SynthConfig, SynthConfigError, generate_events, planted_cycle_pairs

VALIDATION_ERRORS = (
    ConfigError,
    SynthConfigError,
    HierarchyError,
    IngestError,
    FileNotFoundError,
    NotADirectoryError,
)


class _ValidationExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; we reserve 2 for compute
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise _ValidationExit(message)


def _add_run_dir(p: argparse.ArgumentParser) -> None:
    p.add_argument("--run-dir", required=True, help="artifact directory of the run")


def _stage_config(args, *, require_inputs: bool = False) -> RunConfig:
    cfg = RunConfig(out_dir=args.run_dir)
    paths = RunPaths(args.run_dir)
    if paths.years_file().is_file():
        cfg.year_min, cfg.year_max = paths.read_years()
    for attr, flag in (
        ("events_path", "events"),
        ("hierarchy_path", "hierarchy"),
        ("regions_path", "regions"),
        ("year_min", "year_min"),
        ("year_max", "year_max"),
        ("lag", "lag"),
        ("granularity", "granularity"),
        ("n_replicates", "replicates"),
        ("fdr_q", "q"),
        ("master_seed", "seed"),
        ("include_diagonal", "include_diagonal"),
        ("significance_basis", "basis"),
        ("delimiter", "delimiter"),
        ("dump_null_summaries", "dump_null_summaries"),
    ):
        if hasattr(args, flag) and getattr(args, flag) is not None:
            setattr(cfg, attr, getattr(args, flag))
    cfg.validate(require_inputs=require_inputs)
    return cfg


def _cmd_synth(args) -> int:
    pairs: list[tuple[str, str, float]] = []
    codes = None
    if args.plant_cycle is not None or args.plant:
        from .synth import synth_field_codes

        codes = synth_field_codes(args.fields, args.sections)
    if args.plant_cycle is not None:
        pairs.extend(planted_cycle_pairs(codes, args.plant_cycle))
    for plant_arg in args.plant or []:
        try:
            src, dst, beta = plant_arg.split(":")
            pairs.append((src, dst, float(beta)))
        except ValueError:
            raise SynthConfigError(f"--plant expects SRC:DST:BETA, got {plant_arg!r}") from None
    cfg = SynthConfig(
        n_regions=args.regions,
        n_fields=args.fields,
        n_sections=args.sections,
        year_min=args.year_min,
        year_max=args.year_max,
        baseline_presence=args.p_base,
        catalytic_pairs=tuple(pairs),
        families_per_presence=args.families_per_presence,
        master_seed=args.seed,
    )
    result = generate_events(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "events.csv").write_text(result.events_text)
    (out / "hierarchy.csv").write_text(result.hierarchy_text)
    (out / "regions.csv").write_text(result.regions_text)
    (out / "truth_edges.csv").write_text(result.truth_edges_text)
    (out / "synth_config.json").write_text(result.config_echo)
    print(f"wrote synthetic data to {out}")
    return 0


def _run_stage(name: str, fn, cfg: RunConfig, paths: RunPaths, **kwargs) -> int:
    try:
        fn(cfg, paths, **kwargs)
    except Exception as exc:  # noqa: BLE001
        if isinstance(exc, VALIDATION_ERRORS):
            raise
        raise PipelineError(name, None, exc) from exc
    print(f"stage {name} complete in {paths.root}")
    return 0


def _cmd_ingest(args) -> int:
    cfg = _stage_config(args, require_inputs=True)
    paths = RunPaths(cfg.out_dir)
    paths.ensure()
    return _run_stage("ingest", stage_ingest, cfg, paths)


def _cmd_rca(args) -> int:
    cfg = _stage_config(args)
    return _run_stage("rca", stage_rca, cfg, RunPaths(cfg.out_dir))


def _cmd_assist(args) -> int:
    cfg = _stage_config(args)
    return _run_stage("assist", stage_assist, cfg, RunPaths(cfg.out_dir))


def _cmd_nulls(args) -> int:
    cfg = _stage_config(args)
    workers = resolve_workers(args.workers)
    return _run_stage("nulls", stage_nulls, cfg, RunPaths(cfg.out_dir), workers=workers)


def _cmd_filter(args) -> int:
    cfg = _stage_config(args)
    return _run_stage("filter", stage_filter, cfg, RunPaths(cfg.out_dir))


def _cmd_acs(args) -> int:
    cfg = _stage_config(args)
    return _run_stage("acs", stage_acs, cfg, RunPaths(cfg.out_dir))


def _cmd_stats(args) -> int:
    cfg = _stage_config(args)
    return _run_stage("stats", stage_stats, cfg, RunPaths(cfg.out_dir))


def _cmd_dynamics(args) -> int:
    cfg = _stage_config(args)
    paths = RunPaths(cfg.out_dir)
    fields = paths.read_fields()
    net = network_from_text(
        paths.network(args.year).read_text(), fields, year=args.year, q=cfg.fdr_q
    )
    y0 = np.ones(len(fields))
    try:
        traj = simulate_linear(net, y0, t_end=args.t_end, dt=args.dt)
        out_dir = paths.root / "dynamics"
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"trajectory_{args.year}.csv").write_text(trajectory_to_text(traj))
        if args.window is not None:
            rates = estimate_growth_rate(traj, args.window)
            lines = ["field,rate,sub_exponential"]
            for fi, code in enumerate(rates.fields):
                flag = "true" if rates.sub_exponential[fi] else "false"
                lines.append(f"{code},{float(rates.rates[fi])!r},{flag}")
            (out_dir / f"growth_{args.year}.csv").write_text("\n".join(lines) + "\n")
    except Exception as exc:  # noqa: BLE001
        raise PipelineError("dynamics", args.year, exc) from exc
    print(f"stage dynamics complete in {paths.root}")
    return 0


def _cmd_pipeline(args) -> int:
    cfg = load_run_config(args.config) if args.config else RunConfig()
    for attr, flag in (
        ("events_path", "events"),
        ("hierarchy_path", "hierarchy"),
        ("regions_path", "regions"),
        ("out_dir", "run_dir"),
        ("year_min", "year_min"),
        ("year_max", "year_max"),
        ("lag", "lag"),
        ("granularity", "granularity"),
        ("n_replicates", "replicates"),
        ("fdr_q", "q"),
        ("master_seed", "seed"),
        ("include_diagonal", "include_diagonal"),
        ("significance_basis", "basis"),
        ("delimiter", "delimiter"),
        ("dump_null_summaries", "dump_null_summaries"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            setattr(cfg, attr, value)
    manifest = run_pipeline(cfg, workers=args.workers)
    print(f"pipeline complete: {len(manifest['artifacts'])} artifacts in {cfg.out_dir}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="technet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic event data")
    p.add_argument("--out", required=True)
    p.add_argument("--regions", type=int, default=200)
    p.add_argument("--fields", type=int, default=30)
    p.add_argument("--sections", type=int, default=3)
    p.add_argument("--year-min", type=int, default=1980)
    p.add_argument("--year-max", type=int, default=2004)
    p.add_argument("--p-base", type=float, default=0.02)
    p.add_argument("--families-per-presence", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--plant", action="append", metavar="SRC:DST:BETA")
    p.add_argument("--plant-cycle", type=float, metavar="BETA",
                   help="plant a boosted 3-cycle over the first three fields")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="parse events and build occurrence matrices")
    _add_run_dir(p)
    p.add_argument("--events", required=True)
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--regions", default=None)
    p.add_argument("--granularity", choices=("class", "subclass"), default=None)
    p.add_argument("--year-min", dest="year_min", type=int, default=None)
    p.add_argument("--year-max", dest="year_max", type=int, default=None)
    p.add_argument("--delimiter", default=None)
    p.set_defaults(func=_cmd_ingest)

    for name, handler, extras in (
        ("rca", _cmd_rca, ()),
        ("assist", _cmd_assist, ("lag",)),
        ("nulls", _cmd_nulls, ("lag", "replicates", "seed", "dump", "workers")),
        ("filter", _cmd_filter, ("lag", "q", "diag", "basis")),
        ("acs", _cmd_acs, ("lag",)),
    ):
        p = sub.add_parser(name, help=f"run the {name} stage on persisted artifacts")
        _add_run_dir(p)
        if "lag" in extras:
            p.add_argument("--lag", type=int, default=None)
        if "replicates" in extras:
            p.add_argument("--replicates", type=int, default=None)
        if "seed" in extras:
            p.add_argument("--seed", type=int, default=None)
        if "dump" in extras:
            p.add_argument("--dump-null-summaries", dest="dump_null_summaries",
                           action="store_const", const=True, default=None)
        if "workers" in extras:
            p.add_argument("--workers", type=int, default=None)
        if "q" in extras:
            p.add_argument("--q", type=float, default=None)
        if "diag" in extras:
            p.add_argument("--include-diagonal", dest="include_diagonal",
                           action="store_const", const=True, default=None)
        if "basis" in extras:
            p.add_argument("--basis", choices=("percentile", "addone"), default=None)
        p.set_defaults(func=handler)

    p = sub.add_parser("stats", help="fitness, variety, and mixing statistics")
    _add_run_dir(p)
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--lag", type=int, default=None)
    p.add_argument("--q", type=float, default=None)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("dynamics", help="simulate linear catalytic dynamics on one network")
    _add_run_dir(p)
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--t-end", dest="t_end", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=1e-2)
    p.add_argument("--window", type=float, default=None,
                   help="fit trailing-window growth rates as well")
    p.add_argument("--q", type=float, default=None)
    p.set_defaults(func=_cmd_dynamics)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    p.add_argument("--config", default=None, help="key = value configuration file")
    p.add_argument("--run-dir", default=None)
    p.add_argument("--events", default=None)
    p.add_argument("--hierarchy", default=None)
    p.add_argument("--regions", default=None)
    p.add_argument("--year-min", dest="year_min", type=int, default=None)
    p.add_argument("--year-max", dest="year_max", type=int, default=None)
    p.add_argument("--lag", type=int, default=None)
    p.add_argument("--granularity", choices=("class", "subclass"), default=None)
    p.add_argument("--replicates", type=int, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--include-diagonal", dest="include_diagonal",
                   action="store_const", const=True, default=None)
    p.add_argument("--basis", choices=("percentile", "addone"), default=None)
    p.add_argument("--delimiter", default=None)
    p.add_argument("--dump-null-summaries", dest="dump_null_summaries",
                   action="store_const", const=True, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=_cmd_pipeline)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _ValidationExit:
        return 1
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PipelineError as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - compute failures map to exit 2
        print(f"compute error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
