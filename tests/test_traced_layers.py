"""The benchmark's span tracer still fits the pulsepair it traces.

`perfbench/spans.py` reports a traced function it cannot find as absent
instead of failing the run, so a renamed stage function would go unnoticed;
its level-2 funnel count walks PairTable rows by column name.
"""
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from pulsepair.pairdetect import form_pairs
from pulsepair.phasefilter import PhaseMetricParams, second_level_filter

from helpers import event_table

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_layer_resolves():
    spans = _spans()
    assert spans.LAYERS
    for module, func, _ in spans.LAYERS:
        target = getattr(importlib.import_module(f"pulsepair.{module}"),
                         func, None)
        assert callable(target), f"pulsepair.{module}.{func}"


def test_funnel_adds_up_on_pair_rows():
    # pairs (2i, 2i + 1) at a delta_f of 1e4 Hz (in the window) or 2 Hz
    # (below it), with a west-east phase step of 0.02 or 0.3 rad
    df = np.array([1.0e4, 2.0, 1.0e4, 2.0, 1.0e4])
    step = np.array([0.02, 0.02, 0.3, 0.3, 0.01])
    f = np.arange(2 * df.size)
    pairs = form_pairs(event_table(
        frame=f // 2, k=f % 2,
        rf=1410.0e6 + np.repeat(df, 2) * (f % 2),
        phase_w=0.2 + np.repeat(step, 2) * (f % 2)))
    params = PhaseMetricParams()
    survivors = second_level_filter(pairs, params)
    counts = _spans()._funnel(survivors, (pairs, params), {})
    assert counts == {"phasefilter.pairs_in": 5,
                      "phasefilter.survivors": 2,
                      "phasefilter.reject_delta_f": 2,
                      "phasefilter.reject_phase": 1}
    assert (counts["phasefilter.reject_delta_f"]
            + counts["phasefilter.reject_phase"]
            + counts["phasefilter.survivors"]
            == counts["phasefilter.pairs_in"])
