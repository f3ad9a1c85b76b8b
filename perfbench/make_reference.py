"""Write the reference values the benchmark checks results against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs every job any seed can draw and stores, per job id, the values that
check.py compares.  Run it only on code whose results are trusted: a job
that raises or reports a failure stops it before anything is written.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def main(argv) -> int:
    from check import reference_of
    from workloads import WORKLOADS, all_jobs, call
    for workload in argv or WORKLOADS:
        reference = {}
        for job in all_jobs(workload):
            result = call(job)
            if result is False or (isinstance(result, dict)
                                   and result.get("pass") is not True):
                print(f"{job.id} failed; no reference written",
                      file=sys.stderr)
                return 1
            reference[job.id] = reference_of(job, result)
        path = os.path.join(HERE, "reference", f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{\n" + ",\n".join(
                f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                for k, v in sorted(reference.items())) + "\n}\n")
        print(f"{workload}: {len(reference)} jobs -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
