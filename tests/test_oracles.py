"""The oracle suites stand apart from the runtime: importing the harness or
the CLI loads neither the suites nor their brute-force references, and CI
runs every suite.  Every instance re-checks from its JSON text, so a saved
failure replays.  The suites themselves are exercised through the CLI in
``test_harness.py::TestCmdOracle``."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nnmetric
from nnmetric import harness, oracles
from nnmetric.oracles import ORACLE_SUITES, suite_steps

ROOT = Path(__file__).resolve().parents[1]

_PROBE = """
import json, sys
import {module}
print(json.dumps(sorted(name for name in sys.modules if name.startswith("nnmetric."))))
"""


@pytest.mark.parametrize("module", ["nnmetric.harness", "nnmetric.cli"])
def test_runtime_import_loads_no_oracle_code(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(nnmetric.__file__)), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", _PROBE.format(module=module)], capture_output=True, text=True,
        env=env, timeout=120, check=True,
    )
    loaded = json.loads(done.stdout)
    assert module in loaded
    assert "nnmetric.oracles" not in loaded
    assert "nnmetric.bruteforce" not in loaded


def test_ci_runs_every_suite():
    """The workflow's suite loop names the suites of ``ORACLE_SUITES``, in
    its order, so a new suite cannot be left out of CI."""
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    loops = re.findall(r"^\s*for suite in ([^;\n]+); do$", workflow, flags=re.MULTILINE)
    assert len(loops) == 1, loops
    assert loops[0].split() == list(ORACLE_SUITES)


@pytest.mark.parametrize("suite", list(ORACLE_SUITES))
def test_instances_recheck_from_their_json(suite):
    """The first ten instances at seed 0, and psd's closing training run,
    check the same from their JSON text as from the draw; a field the
    text lacked would raise a TypeError."""
    rng = np.random.default_rng([oracles._ORACLE_STREAM, ORACLE_SUITES[suite][0], 0])
    for i, (draw, check) in enumerate(suite_steps(suite, 10)):
        instance = draw(rng, i)
        replayed = json.loads(harness._json_text(instance))
        assert harness._json_text(check(**replayed)) == harness._json_text(check(**instance))

