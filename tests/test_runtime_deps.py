"""The runtime stays numpy-only: importing the CLI and every nnmetric module
must not pull in scipy, even where scipy is installed."""

import json
import os
import subprocess
import sys

import nnmetric

_PROBE = """
import importlib, json, pkgutil, sys
import nnmetric, nnmetric.cli
names = sorted(m.name for m in pkgutil.iter_modules(nnmetric.__path__, "nnmetric."))
for name in names:
    importlib.import_module(name)
print(json.dumps({"modules": names, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def test_no_module_imports_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(nnmetric.__file__)), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True, env=env,
        timeout=120, check=True,
    )
    report = json.loads(done.stdout)
    assert "nnmetric.cli" in report["modules"]
    assert "nnmetric.gradient_metrics" in report["modules"]
    assert report["scipy"] == []
