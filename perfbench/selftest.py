"""Self-test of the benchmark's value check.

    python3 perfbench/selftest.py

Shows that the check rejects wrong values and accepts equal values
written differently:

1. A handful of cheap jobs, one per kind of check, have fail_ratio 0
   against the reference and a higher fail_ratio against a reference
   with one value perturbed per job.
2. The GL(1,4) character table passes against a reference whose values
   are written at conductor 6 instead of 3, with rows and classes in
   reverse order, and fails once one value is changed.
3. A Cyclo report value written at twice its conductor still passes.

Exit code 0 if every claim holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from check import (check, check_all, decode, encode,  # noqa: E402
                   load_reference, table_reference)
from workloads import Group, Job, call  # noqa: E402

WEIL = Job("glfq.weil_identity_check", (3, 1))
HD = Job("glfq.hasse_davenport_check", (3, 2))
TABLE = Job("FiniteGroupTable.character_table", (Group("GL(2,3)"),),
            check="table")
KAPPA = Job("specht.kappa_multiple_check", ((2, 1),), check="bool")
SYM = Job("specht.character_table_rows", (6,), check="sym-table")


def _plus_one(encoded):
    return encode(decode(encoded) + 1)


def perturb(reference: dict) -> dict:
    """One wrong value per job."""
    bad = copy.deepcopy(reference)
    bad[WEIL.id]["values"]["lhs"] = _plus_one(bad[WEIL.id]["values"]["lhs"])
    bad[HD.id]["values"]["characters"] += 1
    row = bad[TABLE.id]["chars"][-1]
    row[-1] = _plus_one(row[-1])
    bad[KAPPA.id] = False
    _, cells = bad[SYM.id]["map"][-1]
    cells[-1][1] = _plus_one(cells[-1][1])
    return bad


def fail_ratio(jobs, results, reference) -> float:
    errors = check_all(jobs, results, [None] * len(jobs), reference)
    return sum(e is not None for e in errors) / len(jobs)


def main() -> int:
    from pshlab.cyclo import Cyclo
    from pshlab.glfq import gl_group

    claims = []

    def claim(ok, text):
        claims.append(ok)
        print(("ok   " if ok else "FAIL ") + text)

    jobs = [WEIL, HD, TABLE, KAPPA, SYM]
    results = [call(job) for job in jobs]
    reference = {**load_reference("gauss-sums"),
                 **load_reference("group-tables"),
                 **load_reference("tabloid-checks")}
    good = fail_ratio(jobs, results, reference)
    bad = fail_ratio(jobs, results, perturb(reference))
    claim(good == 0, f"fail_ratio against the reference is {good}")
    claim(bad == 1, f"fail_ratio with one value perturbed per job is {bad}")

    G = gl_group(1, 4)
    chars = G.character_table()
    ref = table_reference(G, chars)
    conductors = {v["cyclo"]["conductor"] for row in ref["chars"]
                  for v in row if isinstance(v, dict)}
    claim(conductors == {3}, f"GL(1,4) values are at conductor {conductors}")
    at6 = {"classes": ref["classes"][::-1],
           "chars": [[encode(Cyclo.rational(1).lift(6) * decode(v))
                      for v in row[::-1]] for row in ref["chars"][::-1]]}
    conductors = {v["cyclo"]["conductor"] for row in at6["chars"]
                  for v in row}
    claim(conductors == {6}, f"rewritten values are at conductor {conductors}")
    result = (G, chars)
    claim(check(TABLE, result, at6) is None,
          "GL(1,4) table equals itself written at conductor 6, reordered")
    at6["chars"][0][0] = encode(-decode(at6["chars"][0][0]))
    claim(check(TABLE, result, at6) is not None,
          "and differs once one value is negated")

    lhs = results[0]["lhs"]
    doubled = copy.deepcopy(reference[WEIL.id])
    doubled["values"]["lhs"] = encode(lhs.lift(2 * lhs.n))
    claim(check(WEIL, results[0], doubled) is None,
          f"Weil lhs at conductor {2 * lhs.n} equals it at {lhs.n}")

    return 0 if all(claims) else 1


if __name__ == "__main__":
    sys.exit(main())
