"""Pinned pipeline outputs: each CLI pipeline on a small fixed config must
reproduce its recorded output payload bit for bit.

The payload of a CSV output is every non-comment line; the payload of a
JSON output is the document with sorted keys.  The digests depend on the
platform's floating-point `pow` (numpy and libm), so they were recorded on
one machine (x86-64 Linux, Python 3.11, numpy 2.4) and may need
re-recording elsewhere: run this file with HICOMP_PRINT_DIGESTS=1 and `-s`
to print the current ones.
"""

import hashlib
import json
import os

import pytest

from hicomp.cli import dispatch

BASE = {"grid": {"x_min": -8.0, "x_max": 8.0, "n_cells": 256}}

PIPELINES = {
    "simulate": {"eps_values": [1e-2], "t_end": 0.05,
                 "snapshot_times": [0.0, 0.025, 0.05]},
    "pme": {"t_end": 0.2, "snapshot_times": [0.0, 0.1, 0.2]},
    "rate-study": {"eps_values": [1e-1, 3e-2, 1e-2], "t_end": 0.1,
                   "snapshot_times": [0.05, 0.1]},
    "support-study": {"params": {"alpha": 2.0}, "t_end": 5.0, "snapshot_times": [],
                      "initial_datum": {"kind": "barenblatt", "mass": 1.0, "t0": 0.5}},
    "certify": {"eps_values": [1e-2], "t_end": 0.05, "snapshot_times": [0.05]},
}

DIGESTS = {
    "certify": {
        "certificates.json": "a6ca53c69ba768471286b92718d78d3b1a91f135aa4c672b8a5792bb1ca4e391",
    },
    "pme": {
        "pme_t0.1.csv": "32dca6f5b39a0d4fc77f6c35a783658a5c8c4ebacc5aef7ebceb30bd882ae68d",
        "pme_t0.2.csv": "0a726aa572ac5766395fe2de35c9c6c9f43b2ae57bce2e00562dfecc8bb4cbab",
        "pme_t0.csv": "58d6f2a6ed6afc7c4a36b90c5930f04a24db0fb4988150b400a0bf5df3e87df3",
    },
    "rate-study": {
        "errors_h1.csv": "5d96fadc726917a207ee78769d9be98fd2f69dba4999491504521df79223b924",
        "errors_l2.csv": "11ea797db9e222f2968466cbfbd220996d9632864a62a4e5ce5530d84db93c09",
        "mass_outside.csv": "29681517ef49243f3bbd8c8a9918cfe55ca4702467c1e056c53d8fb1fbd59e7a",
        "rate_study.json": "ef7d844b25c5ffe5ed057ce0e56aae2a6b7e9f7818044c4ebbf3d3f1b9b5f170",
    },
    "simulate": {
        "cns_t0.025.csv": "5abc201be2ad4daf633b95080e4a0986da11230496d8bd51b62a1c84f3369660",
        "cns_t0.05.csv": "9fd2aff340ba64557e11fc26a6475a1e0134d92ccf2f369870c733c9c38ad28b",
        "cns_t0.csv": "39221ea4d91d40f7c6c00b09ba5d6470894d703b1b68f7609e816c635af56a96",
        "diagnostics.csv": "3ab63205484f083aaa72238d17a5c150803de9c76c29c604c54e3b160ac3cc22",
    },
    "support-study": {
        "support_study.json": "d34f5bef4df916f43b8df151034c724647a93602f31cd8690a9f95dbcd2acd6d",
    },
}


def payload_digest(path) -> str:
    text = path.read_text()
    if path.suffix == ".json":
        payload = json.dumps(json.loads(text), sort_keys=True)
    else:
        payload = "".join(line for line in text.splitlines(keepends=True)
                          if not line.startswith("#"))
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("command", sorted(PIPELINES))
def test_pipeline_payload_is_pinned(command, tmp_path):
    doc = {**BASE, **PIPELINES[command], "output_dir": str(tmp_path / "out")}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert dispatch([command, "--config", str(config), "--jobs", "1"]) == 0
    got = {p.name: payload_digest(p)
           for p in sorted((tmp_path / "out").iterdir())}
    if os.environ.get("HICOMP_PRINT_DIGESTS"):
        print(f"\n{command!r}: {json.dumps(got, indent=4)},")
    assert got == DIGESTS[command]
