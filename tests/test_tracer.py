"""The benchmark's tracer still finds every span and hook it names in technet."""

import importlib.util
from pathlib import Path

from technet import rca

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
