"""Output bytes do not depend on the ufunc kernels numpy dispatches.

numpy picks SIMD kernels by CPU feature at import.  Each golden config
runs run_experiment (and, in the frame modes, writes the session's frame
store) in a fresh process twice: once as numpy finds the CPU, and once
with NPY_DISABLE_CPU_FEATURES naming every dispatched feature it enabled,
so that only its baseline kernels run.  Every file must match byte for
byte.  Where numpy enabled no dispatched feature there is nothing to
compare, and the test skips.
"""
import filecmp
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import pulsepair
from test_golden import FRAMES_SOURCE_CFG, SURVEY_CFG, TWO_TAG_TIME_CFG

try:
    from numpy._core import _multiarray_umath
except ImportError:                 # numpy 1.x
    from numpy.core import _multiarray_umath

_CHILD = """\
import json, os, sys
try:
    from numpy._core import _multiarray_umath as m
except ImportError:
    from numpy.core import _multiarray_umath as m
from pulsepair.pipeline import (frame_blocks, manifest_from_file,
                                run_experiment, save_frames_npz)
cfg, out = sys.argv[1:]
manifest = manifest_from_file(cfg)
assert run_experiment(manifest, out).status == "ok"
if manifest.mode != "events":
    save_frames_npz(os.path.join(out, "frames.npz"), frame_blocks(manifest),
                    manifest.n_frames * len(manifest.config.polarization_tags))
print(json.dumps([f for f in m.__cpu_dispatch__ if m.__cpu_features__[f]]))
"""


def _enabled_dispatch() -> list:
    features = _multiarray_umath.__cpu_features__
    return [f for f in _multiarray_umath.__cpu_dispatch__ if features[f]]


def _run(cfg, out, disabled=None) -> list:
    """Run the child on cfg into out, with the dispatched features named in
    `disabled` turned off; the dispatched features it saw enabled."""
    src = os.path.dirname(os.path.dirname(pulsepair.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    if disabled is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    done = subprocess.run([sys.executable, "-c", _CHILD, str(cfg), str(out)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("text", [SURVEY_CFG, FRAMES_SOURCE_CFG,
                                  TWO_TAG_TIME_CFG],
                         ids=["survey", "frames-source", "two-tag-time"])
def test_bytes_do_not_depend_on_cpu_dispatch(tmp_path, text):
    enabled = _enabled_dispatch()
    if not enabled:
        pytest.skip(f"numpy {np.__version__} dispatches no kernel here")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    assert _run(cfg, tmp_path / "dispatch") == enabled
    assert _run(cfg, tmp_path / "baseline", " ".join(enabled)) == []
    names = sorted(os.listdir(tmp_path / "dispatch"))
    assert names == sorted(os.listdir(tmp_path / "baseline"))
    assert {"level1.csv", "candidates.csv", "stats.csv"} <= set(names)
    _, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "dispatch", tmp_path / "baseline", names, shallow=False)
    assert (mismatch, errors) == ([], [])
