"""What a fresh `hicomp` process loads.

scipy serves only the Barenblatt inversion, so a run on a tent datum must
not import it, and must load nothing outside the standard library beyond
numpy and hicomp itself.  A run with a Barenblatt profile loads scipy's two
compiled routines, QUADPACK's qagse and Brent's root finder, but not the
scipy.integrate and scipy.optimize packages around them, whose imports
pull in scipy.special, sparse and linalg.  Each case runs `dispatch` in a
fresh interpreter and lists every scipy module loaded and the top-level
modules that appeared after a bare `import numpy`, so whatever the
interpreter's site hooks load does not count.
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
scipy = sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")
print(json.dumps({"code": code, "scipy": scipy, "loaded": loaded}))
"""

# barenblatt_params, then the public quad and brentq: the reference
# inversion, as pme computed it before it called the compiled routines
REUSE = """
import json, math, sys
from hicomp.pme import barenblatt_params
c_const = barenblatt_params(1.25, 1.0).c_const
packages = [name in sys.modules for name in ("scipy.integrate", "scipy.optimize")]
routines = [sys.modules[name] for name in ("scipy.integrate._quadpack", "scipy.optimize._zeros")]
from scipy.integrate import _quadpack_py, quad
from scipy.optimize import _zeros_py, brentq
alpha, mass = 1.25, 1.0
kappa = (alpha - 1.0) / (2.0 * alpha * (alpha + 1.0))

def g(c):
    edge = math.sqrt(c / kappa)
    f = lambda xi: max(c - kappa * xi * xi, 0.0) ** (1.0 / (alpha - 1.0))
    return quad(f, -edge, edge, epsabs=0.0, epsrel=1e-12, limit=200)[0] - mass

reference = float(brentq(g, 1e-8, 1e8, rtol=1e-14, maxiter=200))
print(json.dumps({"packages_before": packages,
                  "reused": [_quadpack_py._quadpack is routines[0], _zeros_py._zeros is routines[1]],
                  "c_const": c_const.hex(), "reference": reference.hex()}))
"""


def child_env():
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}


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
    proc = subprocess.run([sys.executable, "-c", CHILD, cmd, "--config", str(config)],
                          env=child_env(), capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] == 0, proc.stderr
    return report


@pytest.mark.parametrize("cmd", ["simulate", "pme", "rate-study", "certify"])
def test_tent_runs_load_only_numpy_and_hicomp(tmp_path, cmd):
    report = run_fresh(tmp_path, cmd)
    assert report["scipy"] == []
    foreign = [name for name in report["loaded"]
               if name not in sys.stdlib_module_names and name not in ("numpy", "hicomp")]
    assert foreign == []


def assert_only_the_two_routines(scipy):
    assert [name for name in scipy if name.startswith(("scipy.integrate", "scipy.optimize"))] \
        == ["scipy.integrate._quadpack", "scipy.optimize._zeros"]
    assert [name for name in scipy
            if name.split(".")[1:2] in (["special"], ["sparse"], ["linalg"])] == []


def test_barenblatt_support_study_loads_scipy(tmp_path):
    report = run_fresh(tmp_path, "support-study", t_end=2.0, snapshot_times=[],
                       initial_datum={"kind": "barenblatt", "mass": 1.0, "t0": 0.05})
    assert_only_the_two_routines(report["scipy"])


def test_validate_loads_only_the_two_routines(tmp_path):
    # the barenblatt-oracle row inverts a profile
    assert_only_the_two_routines(run_fresh(tmp_path, "validate")["scipy"])


def test_public_quad_and_brentq_reuse_the_loaded_routines():
    proc = subprocess.run([sys.executable, "-c", REUSE], env=child_env(),
                          capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["packages_before"] == [False, False]
    assert report["reused"] == [True, True]
    assert report["c_const"] == report["reference"]


def test_every_exported_name_exists():
    import importlib
    import pkgutil

    modules = [hicomp] + [importlib.import_module(f"hicomp.{info.name}")
                          for info in pkgutil.iter_modules(hicomp.__path__)]
    exporting = [module for module in modules if hasattr(module, "__all__")]
    assert len(exporting) > 1
    for module in exporting:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__
    namespace = {}
    exec("from hicomp import *", namespace)
    assert set(hicomp.__all__) <= set(namespace)
