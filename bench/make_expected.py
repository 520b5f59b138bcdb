"""Regenerate ``expected_verdicts.json`` from one plain pass per workload.

    python3 bench/make_expected.py

Run from the root of a censym checkout.  The table maps each job's
seed-free label to its exit code and its ordered [report label, verdict]
list.  Verdicts do not depend on the seed, so one seed serves all runs.
Regenerate it only when a change is meant to alter verdicts, and say so.
"""

from __future__ import annotations

import json
import os
import sys

from run import EXPECTED, spawn
from workloads import WORKLOADS, job_label


def main() -> int:
    root = os.getcwd()
    table = {}
    for name, make_jobs in WORKLOADS.items():
        jobs = make_jobs(0)
        res = spawn(root, "plain", jobs, timeout=600)
        entries = {}
        for job, got in zip(jobs, res["jobs"]):
            if got["error"] is not None:
                print(f"error: {job_label(job)} raised {got['error']}", file=sys.stderr)
                return 1
            entries[job_label(job)] = {"exit": got["exit"], "verdicts": got["verdicts"]}
        table[name] = entries
        print(f"{name}: {len(jobs)} jobs, {res['wall_s']:.2f} s")
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
