"""The benchmark's tracer still finds every span and hook it names in technet."""

import importlib.util
from pathlib import Path

from technet import rca
from technet.pipeline import RunConfig, RunPaths, stage_ingest
from technet.synth import SynthConfig, generate_events, planted_cycle_pairs, synth_field_codes

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_wrapped_and_restored():
    tracer = _load_tracer()
    original = rca.presence_from_text
    missing, restore = tracer.install(tracer.SpanRecorder())
    try:
        assert missing == []
        assert rca.presence_from_text is not original
    finally:
        restore()
    assert rca.presence_from_text is original


def test_ingest_line_counter_counts_the_event_lines(tmp_path):
    # perfbench/run.py --trace 1 derives ingest.lines_per_s from this counter
    codes = synth_field_codes(10, 2)
    events = generate_events(SynthConfig(
        n_regions=40, n_fields=10, n_sections=2, year_min=1991, year_max=1993,
        baseline_presence=0.1, catalytic_pairs=planted_cycle_pairs(codes, 10.0), master_seed=3,
    ))
    (tmp_path / "events.csv").write_text(events.events_text)
    (tmp_path / "hierarchy.csv").write_text(events.hierarchy_text)
    cfg = RunConfig(
        events_path=str(tmp_path / "events.csv"), hierarchy_path=str(tmp_path / "hierarchy.csv"),
        out_dir=str(tmp_path / "run"), year_min=1991, year_max=1993,
    )
    paths = RunPaths(cfg.out_dir)
    paths.ensure()
    tracer = _load_tracer()
    recorder = tracer.SpanRecorder()
    missing, restore = tracer.install(recorder)
    try:
        stage_ingest(cfg, paths)
    finally:
        restore()
    summary = recorder.summary(missing)
    assert summary["missing_names"] == []
    n_lines = len(events.events_text.splitlines())
    assert n_lines > 100
    assert summary["counters"]["ingest.lines"] == n_lines - 1
