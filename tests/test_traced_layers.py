"""The benchmark's span tracer names functions that exist in pulsepair.

`perfbench/spans.py` reports a traced function it cannot find as absent
instead of failing the run, so a renamed stage function would go unnoticed.
"""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    for module, func, _ in spans.LAYERS:
        target = getattr(importlib.import_module(f"pulsepair.{module}"),
                         func, None)
        assert callable(target), f"pulsepair.{module}.{func}"
