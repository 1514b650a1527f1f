"""What a fresh `hicomp` process loads.

scipy serves only the Barenblatt inversion, so a run on a tent datum must
not import it, and must load nothing outside the standard library beyond
numpy and hicomp itself.  Each case runs `dispatch` in a fresh interpreter
and lists the top-level modules that appeared after a bare `import numpy`,
so whatever the interpreter's site hooks load does not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hicomp

SRC = Path(hicomp.__file__).resolve().parents[1]

CHILD = """
import json, sys
import numpy
baseline = set(sys.modules)
from hicomp.cli import dispatch
code = dispatch(sys.argv[1:])
loaded = sorted({name.partition(".")[0] for name in set(sys.modules) - baseline})
print(json.dumps({"code": code, "scipy": "scipy" in sys.modules, "loaded": loaded}))
"""


def run_fresh(tmp_path, cmd, **overrides):
    doc = {
        "grid": {"x_min": -8.0, "x_max": 8.0, "n_cells": 128},
        "eps_values": [1e-1, 3e-2, 1e-2],
        "t_end": 0.01,
        "snapshot_times": [0.005, 0.01],
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", CHILD, cmd, "--config", str(config)],
                          env=env, capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] == 0, proc.stderr
    return report


@pytest.mark.parametrize("cmd", ["simulate", "pme", "rate-study", "certify"])
def test_tent_runs_load_only_numpy_and_hicomp(tmp_path, cmd):
    report = run_fresh(tmp_path, cmd)
    assert not report["scipy"]
    foreign = [name for name in report["loaded"]
               if name not in sys.stdlib_module_names and name not in ("numpy", "hicomp")]
    assert foreign == []


def test_barenblatt_support_study_loads_scipy(tmp_path):
    report = run_fresh(tmp_path, "support-study", t_end=2.0, snapshot_times=[],
                       initial_datum={"kind": "barenblatt", "mass": 1.0, "t0": 0.05})
    assert report["scipy"]
    assert "scipy" in report["loaded"]
