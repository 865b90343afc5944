"""One repetition of a benchmark workload, in a fresh process.

Usage: python3 perfbench/worker.py SPEC_JSON RESULT_JSON

The spec names the checkout's ``src`` directory, the CLI argument lists to
run in order and whether to trace.  The worker imports pulsepair from that
``src``, runs each argument list through ``pulsepair.cli.main`` in-process
(its working directory is the repetition's directory) and writes timings,
exit codes, CLI output, peak RSS and, when traced, the per-layer metrics to
RESULT_JSON.  A spec without commands only imports; ``ready_at`` (wall
clock, so the parent process can compare it with its own) marks the end of
the imports.  The run stops at the first command that fails, because later
ones read its output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = spec["src"]
    sys.path.insert(0, src)
    import numpy
    import scipy
    import pulsepair
    from pulsepair import cli
    ready_at = time.time()
    package = os.path.abspath(pulsepair.__file__)
    if os.path.dirname(os.path.dirname(package)) != src:
        raise SystemExit(f"imported pulsepair from {package}, not from {src}")
    result = {"ready_at": ready_at, "numpy": numpy.__version__,
              "scipy": scipy.__version__, "stages": []}

    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for argv in spec["commands"]:
        out = io.StringIO()
        begin = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    with tracer.span(f"cli.{argv[0]}"):
                        rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = -1
        result["stages"].append({"command": argv[0], "rc": rc,
                                 "s": time.perf_counter() - begin,
                                 "stdout": out.getvalue()})
        if rc != 0:
            break
    result["wall_s"] = time.perf_counter() - t0
    result["cpu_s"] = _cpu_s() - cpu0
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["absent"] = tracer.absent
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
