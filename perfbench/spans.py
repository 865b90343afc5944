"""Span tracer for the traced benchmark run (stdlib only).

`Tracer.install` wraps the pulsepair functions listed in LAYERS.  A function
is replaced at every module attribute that refers to it, so a call is
recorded whichever module looks it up (``cli`` and ``pipeline`` import most
functions by name).  Each call is one span; for a generator function each
step of the generator is one span, so the span covers only the time spent
inside the generator, not the consumer's time between steps.

A span records its name, start, end and parent span.  A layer's self time is
the time of its spans minus the time of their child spans.  Counts are taken
from arguments and return values at the same boundaries.  A function that
no longer exists, or a count whose input changed shape, is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _events(result, args, kwargs):
    return {"sigsim.events": len(result)}


def _archive_bytes(result, args, kwargs):
    return {"pairdetect.archive_bytes": os.path.getsize(
        _arg(args, kwargs, 0, "path"))}


def _pairs(result, args, kwargs):
    return {"pairdetect.pairs": len(result)}


def _funnel(result, args, kwargs):
    """Level-2 funnel: pairs in, rejected on delta_f, then on phase."""
    candidates = _arg(args, kwargs, 0, "candidates")
    params = _arg(args, kwargs, 1, "params")
    explain = args[2] if len(args) > 2 else kwargs.get("explain", False)
    survivors = result[0] if explain else result
    lo, hi = params.log_delta_f_low, params.log_delta_f_high
    halfwidth = params.filter_halfwidth_rad
    reject_df = reject_phase = 0
    for c in candidates:
        if c.delta_f_hz == 0.0 or not lo <= c.log10_delta_f_mhz <= hi:
            reject_df += 1
        elif abs(c.phase_metric_rad) > halfwidth:
            reject_phase += 1
    return {"phasefilter.pairs_in": len(candidates),
            "phasefilter.survivors": len(survivors),
            "phasefilter.reject_delta_f": reject_df,
            "phasefilter.reject_phase": reject_phase}


def _taps(result, args, kwargs):
    return {"phasefilter.taps": len(result[2])}


def _npz_bytes(result, args, kwargs):
    return {"pipeline.npz_bytes": os.path.getsize(
        _arg(args, kwargs, 0, "path"))}


def _bins_scored(result, args, kwargs):
    return {"channelizer.bins_scored": int(result[3].sum())}


# (module, function, count extractor or None)
LAYERS = [
    ("sigsim", "simulate_level1_events", _events),
    ("sigsim", "simulate_frames", None),
    ("pairdetect", "write_level1_archive", _archive_bytes),
    ("pairdetect", "read_level1_archive", None),
    ("pairdetect", "form_pairs", _pairs),
    ("pairdetect", "first_level_filter_frame", None),
    ("channelizer", "frame_bin_stats", _bins_scored),
    ("phasefilter", "second_level_filter", _funnel),
    ("phasefilter", "tune_tau_int", _taps),
    ("phasefilter", "write_metric_diagnostics_csv", None),
    ("skystats", "analyze", None),
    ("skystats", "binomial_tail", None),
    ("skystats", "write_stats_csv", None),
    ("plotting", "save_stats_figure", None),
    ("pipeline", "save_frames_npz", _npz_bytes),
    ("pipeline", "load_frames_npz", None),
    ("pipeline", "detect_frames", None),
    ("pipeline", "write_candidates_csv", None),
    ("pipeline", "read_candidates_csv", None),
    ("pipeline", "run_null_mc", None),
    ("pipeline", "run_tune_tau", None),
]

COUNTS = [
    ("sigsim.events", "count", "higher"),
    ("pairdetect.archive_bytes", "bytes", "lower"),
    ("pairdetect.pairs", "count", "higher"),
    ("phasefilter.pairs_in", "count", "higher"),
    ("phasefilter.survivors", "count", "higher"),
    ("phasefilter.survive_ratio", "ratio", "higher"),
    ("phasefilter.reject_delta_f", "count", "higher"),
    ("phasefilter.reject_phase", "count", "higher"),
    ("phasefilter.taps", "count", "higher"),
    ("pipeline.npz_bytes", "bytes", "lower"),
    ("channelizer.bins_scored", "count", "higher"),
]

# CLI subcommands the workloads run; the benchmark itself opens their spans.
COMMANDS = ["simulate", "detect", "refilter", "analyze", "report", "null-mc",
            "tune-tau"]


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for module, func, _ in LAYERS:
        specs += [(f"{module}.{func}.s", "s", "lower"),
                  (f"{module}.{func}.self_s", "s", "lower"),
                  (f"{module}.{func}.calls", "count", "lower")]
    specs += COUNTS
    for command in COMMANDS:
        specs += [(f"cli.{command}.s", "s", "lower"),
                  (f"cli.{command}.self_s", "s", "lower")]
    specs += [("cli.cpu_s", "s", "lower"),
              ("trace.overhead", "ratio", "lower")]
    return specs


class Tracer:
    """In-memory spans and counts; summarised once the run has ended."""

    def __init__(self):
        self.spans = []            # (span id, name, parent id, start, end)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.absent = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, parent, start, end))

    def install(self):
        for module, func, counter in LAYERS:
            name = f"{module}.{func}"
            try:
                mod = importlib.import_module(f"pulsepair.{module}")
            except ModuleNotFoundError:
                mod = None
            orig = getattr(mod, func, None)
            if not callable(orig):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, orig, counter)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("pulsepair"):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is orig:
                        setattr(loaded, attr, wrapper)

    def _wrap(self, name, orig, counter):
        if inspect.isgeneratorfunction(orig):
            @functools.wraps(orig)
            def gen_wrapper(*args, **kwargs):
                self.calls[name] += 1
                return self._steps(name, orig(*args, **kwargs))
            return gen_wrapper

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            with self.span(name):
                result = orig(*args, **kwargs)
            if counter is not None:
                self._count(name, counter, result, args, kwargs)
            return result
        return wrapper

    def _steps(self, name, gen):
        try:
            while True:
                with self.span(name):
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                yield item
        finally:
            gen.close()

    def _count(self, name, counter, result, args, kwargs):
        try:
            counts = counter(result, args, kwargs)
        except (AttributeError, IndexError, KeyError, TypeError):
            self.absent.append(f"{name} counts")
            return
        for key, value in counts.items():
            self.counts[key] += value

    def summary(self):
        """Per-layer metrics named by metric_specs(); unexercised ones are 0.

        cli.cpu_s and trace.overhead are left at 0 for the caller to fill.
        """
        child_s = defaultdict(float)
        for _, _, parent, start, end in self.spans:
            child_s[parent] += end - start
        values = {name: 0.0 for name, _, _ in metric_specs()}
        for sid, name, _, start, end in self.spans:
            values[f"{name}.s"] = values.get(f"{name}.s", 0.0) + end - start
            values[f"{name}.self_s"] = (values.get(f"{name}.self_s", 0.0)
                                        + end - start - child_s[sid])
        for name, n in self.calls.items():
            values[f"{name}.calls"] = n
        values.update(self.counts)
        pairs_in = self.counts.get("phasefilter.pairs_in", 0)
        if pairs_in:
            values["phasefilter.survive_ratio"] = (
                self.counts["phasefilter.survivors"] / pairs_in)
        return values
