"""pulsepair's only runtime dependency is numpy."""
import os
import subprocess
import sys

import pulsepair

# Imports every pulsepair module and prints the top-level modules that the
# imports loaded and that are neither stdlib nor numpy nor pulsepair.
# Modules loaded before (by site hooks of the environment) are not counted.
_PROBE = """
import importlib, pkgutil, sys
before = set(sys.modules)
import pulsepair
for info in pkgutil.iter_modules(pulsepair.__path__, "pulsepair."):
    importlib.import_module(info.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(",".join(sorted(loaded - set(sys.stdlib_module_names)
                      - {"numpy", "pulsepair"})))
"""


def test_every_module_imports_with_numpy_alone():
    src = os.path.dirname(os.path.dirname(os.path.abspath(pulsepair.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == ""
