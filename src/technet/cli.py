"""Command-line interface: every pipeline stage runnable standalone.

A stage command takes the pipeline's flag for each setting it reads (see
`technet <stage> --help`); `OPTIONS` declares each flag once. `--regions` is
only checked to exist. `pipeline` and each stage command run their stages
through `pipeline.run_stage`, so they share one exit-code rule: 0 success,
1 validation error (bad flags, missing or malformed inputs, whether found
before a stage runs or by the stage), 2 compute error (a stage failed on
valid inputs). `--workers` (default 1) sets the worker processes of the
null stage.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import artifacts
from .acs import LabelError
from .assist import AssistError
from .dynamics import estimate_growth_rate, simulate_linear, trajectory_to_text
from .fdr import SIGNIFICANCE_BASES, NetworkError, network_from_text
from .hierarchy import HierarchyError
from .ingest import IngestError
from .nullmodel import PvalueError
from .pipeline import (
    GRANULARITIES,
    ConfigError,
    PipelineError,
    RunConfig,
    RunPaths,
    load_run_config,
    run_pipeline,
    run_stage,
)
from .rca import PresenceError
from .stats import StatsError
from .synth import SynthConfig, SynthConfigError, generate_events, planted_cycle_pairs

# A bad flag or config value, or a missing or malformed input: exit 1. Each
# artifact reader raises its module's class, so one fault in any stage's input
# exits the same way.
VALIDATION_ERRORS = (
    ConfigError,
    SynthConfigError,
    HierarchyError,
    IngestError,
    PresenceError,
    AssistError,
    PvalueError,
    NetworkError,
    LabelError,
    StatsError,
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


# Each CLI-settable RunConfig field: its flag and argparse keywords. A flag left
# out reads None and keeps the value from the config file or index/years.txt.
OPTIONS = {
    "out_dir": ("--run-dir", {"help": "artifact directory of the run"}),
    "events_path": ("--events", {}),
    "hierarchy_path": ("--hierarchy", {}),
    "regions_path": ("--regions", {"help": "region table; only checked to exist"}),
    "year_min": ("--year-min", {"type": int}),
    "year_max": ("--year-max", {"type": int}),
    "lag": ("--lag", {"type": int}),
    "granularity": ("--granularity", {"choices": GRANULARITIES}),
    "n_replicates": ("--replicates", {"type": int}),
    "fdr_q": ("--q", {"type": float}),
    "master_seed": ("--seed", {"type": int}),
    "include_diagonal": ("--include-diagonal", {"action": "store_const", "const": True}),
    "significance_basis": ("--basis", {"choices": SIGNIFICANCE_BASES}),
    "delimiter": ("--delimiter", {}),
}

# Each stage command: its help, the fields it requires besides --run-dir, and
# the fields it reads when given.
STAGE_COMMANDS = {
    "ingest": (
        "parse events and build occurrence matrices",
        ("events_path", "hierarchy_path"),
        ("regions_path", "year_min", "year_max", "granularity", "delimiter"),
    ),
    "rca": ("run the rca stage on persisted artifacts", (), ()),
    "assist": ("run the assist stage on persisted artifacts", (), ("lag",)),
    "nulls": (
        "run the nulls stage on persisted artifacts",
        (),
        ("lag", "n_replicates", "master_seed"),
    ),
    "filter": (
        "run the filter stage on persisted artifacts",
        (),
        ("lag", "fdr_q", "include_diagonal", "significance_basis"),
    ),
    "acs": ("run the acs stage on persisted artifacts", (), ("lag",)),
    "stats": ("fitness, variety, and mixing statistics", ("hierarchy_path",), ("lag",)),
}


def _add_options(p: argparse.ArgumentParser, fields, **kwargs) -> None:
    for field in fields:
        flag, keywords = OPTIONS[field]
        p.add_argument(flag, dest=field, default=None, **keywords, **kwargs)


def _config(args) -> RunConfig:
    """The config file (pipeline only), then index/years.txt (stages only), then the flags."""
    if args.command == "pipeline":
        cfg = load_run_config(args.config) if args.config else RunConfig()
    else:
        cfg = RunConfig()
        paths = RunPaths(args.out_dir)
        if paths.years_file().is_file():
            cfg.year_min, cfg.year_max = paths.read_years()
    for field in OPTIONS:
        value = getattr(args, field, None)
        if value is not None:
            setattr(cfg, field, value)
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


def _cmd_stage(args) -> int:
    cfg = _config(args)
    cfg.validate(require_inputs=args.command == "ingest")
    paths = RunPaths(cfg.out_dir)
    if args.command == "ingest":
        paths.ensure()
    run_stage(args.command, cfg, paths, getattr(args, "workers", 1))
    print(f"stage {args.command} complete in {paths.root}")
    return 0


def _cmd_dynamics(args) -> int:
    paths = RunPaths(args.out_dir)
    fields = paths.read_fields()
    net = network_from_text(paths.network(args.year).read_text(), fields, year=args.year)
    y0 = np.ones(len(fields))
    try:
        traj = simulate_linear(net, y0, t_end=args.t_end, dt=args.dt)
        out_dir = paths.root / "dynamics"
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"trajectory_{args.year}.csv").write_text(trajectory_to_text(traj))
        if args.window is not None:
            rates = estimate_growth_rate(traj, args.window)
            rows = zip(rates.fields, rates.rates.tolist(), rates.sub_exponential.tolist())
            table = [("field", "rate", "sub_exponential"), *rows]
            (out_dir / f"growth_{args.year}.csv").write_text(artifacts.rows_to_text(table))
    except Exception as exc:  # noqa: BLE001
        raise PipelineError("dynamics", args.year, exc) from exc
    print(f"stage dynamics complete in {paths.root}")
    return 0


def _cmd_pipeline(args) -> int:
    cfg = _config(args)
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

    for name, (help_text, required, optional) in STAGE_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        _add_options(p, ("out_dir", *required), required=True)
        _add_options(p, optional)
        if name == "nulls":
            p.add_argument("--workers", type=int, default=1)
        p.set_defaults(func=_cmd_stage)

    p = sub.add_parser("dynamics", help="simulate linear catalytic dynamics on one network")
    _add_options(p, ("out_dir",), required=True)
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--t-end", dest="t_end", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=1e-2)
    p.add_argument("--window", type=float, default=None,
                   help="fit trailing-window growth rates as well")
    p.set_defaults(func=_cmd_dynamics)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    p.add_argument("--config", default=None, help="key = value configuration file")
    _add_options(p, OPTIONS)
    p.add_argument("--workers", type=int, default=1)
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
        if isinstance(exc.cause, VALIDATION_ERRORS):
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"compute error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - compute failures map to exit 2
        print(f"compute error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
