"""Layer benchmark: the cold start every `hicomp` run pays.

Each round starts a fresh interpreter that puts the checkout's `src` first
on `sys.path` and runs one case, so one round is one cold start
(`extra_info["steps"]` is 1) and the time includes interpreter start-up:

- `test_import[numpy]`: numpy alone, the floor any run pays
- `test_import[hicomp.cli]`: the CLI and everything it loads
- `test_import[barenblatt]`: `hicomp.pme` and one Barenblatt inversion,
  `barenblatt_params(1.25, 1.0)`, which loads scipy's compiled QUADPACK and
  Brent routines: the extra set-up of a run on a Barenblatt datum

`extra_info["child_peak_rss_mb"]` is the median peak resident set of the
children, in MB (KiB / 1024, as perfbench reports `peak_rss_mb`).  It is
read from `VmHWM` in /proc/self/status, which starts afresh at exec; a
child's `ru_maxrss` on Linux also keeps the peak of the process that
spawned it, here the whole pytest session.

    PYTHONPATH=src python -m pytest benchmarks/bench_import.py

The file sits outside `tests/`, so the tier-1 suite does not collect it;
`benchmarks/record.py` runs it as part of a BENCH record.
"""

import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import hicomp

ROUNDS = 10
# the src directory this session imported hicomp from: the checkout under test
SRC = str(Path(hicomp.__file__).resolve().parents[1])
CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
{code}
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""
CASES = {
    "numpy": "import numpy",
    "hicomp.cli": "import hicomp.cli",
    "barenblatt": "from hicomp.pme import barenblatt_params\nbarenblatt_params(1.25, 1.0)",
}


@pytest.mark.parametrize("case", CASES)
def test_import(benchmark, case):
    rss_kib = []

    def cold_import():
        out = subprocess.run([sys.executable, "-c", CHILD.format(code=CASES[case]), SRC],
                             check=True, capture_output=True, text=True).stdout
        rss_kib.append(int(out))

    benchmark.pedantic(cold_import, rounds=ROUNDS, iterations=1, warmup_rounds=1)
    benchmark.extra_info["steps"] = 1
    benchmark.extra_info["child_peak_rss_mb"] = statistics.median(rss_kib) / 1024.0
