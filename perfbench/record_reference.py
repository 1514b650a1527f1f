"""Record the seed-0 output payload digests into perfbench/reference.json.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Run from the root of a checkout.  Each workload runs once at seed 0 and must
pass its invariant checks; its payload digests then replace the recorded
ones.  Re-record only when an output is meant to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from check import check_run, record_payloads
from run import HERE, WORKLOADS, make_config, run_child


def main(names: list[str]) -> int:
    root = Path.cwd()
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.is_file() else {}
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        work = root / ".perfbench_out" / f"reference-{name}"
        work.mkdir(parents=True, exist_ok=True)
        config = work / "config.json"
        config.write_text(json.dumps(make_config(workload, 0), indent=1))
        res = run_child(root / "src", work, "run", config, command=workload.command)
        problems, facts = (check_run(name, res["out"], None)
                           if res["exit_code"] == 0 else ([f"exit {res['exit_code']}"], {}))
        if problems:
            print(f"{name}: not recorded: {problems}")
            return 1
        reference[name] = record_payloads(name, res["out"])
        print(f"{name}: recorded ({res['wall_s']:.2f} s, facts {facts})")
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
