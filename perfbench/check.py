"""Check a job's result against the reference by value, not by how the
value is printed.

- Cyclotomic values compare with ``Cyclo.__eq__``, so an equal value
  written at another conductor passes.
- Character tables compare as sets of class functions on the group's
  elements, so rows and classes may come in any order.
- Reports compare on their verdict and on the report keys named in
  ``workloads.NAMED_VALUES``, not on the whole dict.

``encode`` writes the reference; ``check`` reads it back.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from workloads import NAMED_VALUES, Job


def encode(v):
    from pshlab.cyclo import Cyclo
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, Fraction):
        return {"q": [str(v.numerator), str(v.denominator)]}
    if isinstance(v, Cyclo):
        return {"cyclo": v.to_json()}
    if isinstance(v, (list, tuple)):
        return [encode(x) for x in v]
    if isinstance(v, dict):
        return {"map": [[encode(k), encode(x)] for k, x in v.items()]}
    raise TypeError(f"no reference encoding for {type(v).__name__}")


def decode(v):
    from pshlab.cyclo import Cyclo
    if isinstance(v, list):
        return [decode(x) for x in v]
    if isinstance(v, dict):
        if "q" in v:
            return Fraction(int(v["q"][0]), int(v["q"][1]))
        if "cyclo" in v:
            return Cyclo.from_json(v["cyclo"])
        return {"map": [(decode(k), decode(x)) for k, x in v["map"]]}
    return v


def same(exp, act) -> bool:
    """exp is a decoded reference value, act the program's value."""
    if isinstance(exp, dict):
        if not isinstance(act, dict) or len(act) != len(exp["map"]):
            return False
        items = list(act.items())
        for k, x in exp["map"]:
            if not any(same(k, k2) and same(x, x2) for k2, x2 in items):
                return False
        return True
    if isinstance(exp, list):
        return (isinstance(act, (list, tuple)) and len(act) == len(exp)
                and all(same(e, a) for e, a in zip(exp, act)))
    if isinstance(exp, bool) or exp is None or isinstance(exp, str):
        return type(act) is type(exp) and act == exp
    if isinstance(act, (bool, str, list, tuple, dict)) or act is None:
        return False
    return bool(exp == act)


# -- reports -----------------------------------------------------------------

def _named(report: dict, path: str):
    head, _, rest = path.partition(".")
    value = report[head]
    return [item[rest] for item in value] if rest else value


def report_reference(job: Job, report: dict) -> dict:
    return {"pass": report.get("pass"),
            "values": {k: encode(_named(report, k))
                       for k in NAMED_VALUES[job.fn]}}


def _check_report(job: Job, report, ref) -> str | None:
    if not isinstance(report, dict):
        return f"expected a report, got {type(report).__name__}"
    if report.get("pass") is not True:
        return "report says pass: False"
    for key, want in ref["values"].items():
        try:
            got = _named(report, key)
        except (KeyError, TypeError):
            return f"report lacks {key}"
        if not same(decode(want), got):
            return f"{key} differs from the reference"
    return None


# -- character tables ------------------------------------------------------

def element_key(G, e) -> str:
    """A group element as a string independent of the group's element
    order: wreath elements spell out their base-group components."""
    base = getattr(G, "base", None)
    if base is not None:
        sig, alphas = e
        e = (sig, [json.loads(element_key(base, base.elements[a]))
                   for a in alphas])
    return json.dumps(e, separators=(",", ":"))


def table_reference(G, chars) -> dict:
    classes = G.classes()
    return {"classes": [[element_key(G, G.elements[x]) for x in members]
                        for members in classes],
            "chars": [[encode(chi.values[c]) for c in range(len(classes))]
                      for chi in chars]}


def _check_table(G, chars, ref) -> str | None:
    chars = list(chars)
    if len(chars) != len(ref["chars"]):
        return f"{len(chars)} characters, reference has {len(ref['chars'])}"
    index = {element_key(G, e): i for i, e in enumerate(G.elements)}
    if len(index) != sum(len(c) for c in ref["classes"]):
        return "group order differs from the reference"
    # each (reference class, program class) pair met on some element; a
    # class function is then compared on every element by these pairs
    pairs = set()
    for rc, members in enumerate(ref["classes"]):
        for key in members:
            if key not in index:
                return f"element {key} is not in the group"
            pairs.add((rc, G.class_of(index[key])))
    pairs = sorted(pairs)
    unmatched = list(range(len(chars)))
    for row in ref["chars"]:
        want = [decode(v) for v in row]
        hit = next((j for j in unmatched
                    if all(want[rc] == chars[j].values[pc]
                           for rc, pc in pairs)), None)
        if hit is None:
            return "a reference character has no equal program character"
        unmatched.remove(hit)
    return None


def sym_table_reference(result) -> dict:
    rows, cols, table = result
    return {"map": [[list(r), [[list(c), encode(v)]
                               for c, v in zip(cols, table[i])]]
                    for i, r in enumerate(rows)]}


def _check_sym_table(result, ref) -> str | None:
    rows, cols, table = result
    got = {tuple(r): {tuple(c): v for c, v in zip(cols, table[i])}
           for i, r in enumerate(rows)}
    want = {tuple(r): {tuple(c): decode(v) for c, v in row}
            for r, row in ref["map"]}
    if set(got) != set(want):
        return "row labels differ from the reference"
    for r, row in want.items():
        if set(got[r]) != set(row) or any(row[c] != got[r][c] for c in row):
            return f"row {r} differs from the reference"
    return None


# -- entry points ----------------------------------------------------------

def reference_of(job: Job, result):
    """The reference entry for a result already known to be right."""
    if job.check == "report":
        return report_reference(job, result)
    if job.check == "bool":
        return result
    if job.check == "table":
        return table_reference(*result)
    if job.check == "sym-table":
        return sym_table_reference(result)
    raise ValueError(job.check)


def load_reference(workload: str) -> dict:
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "reference", f"{workload}.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def check_all(jobs, results, errors, reference) -> list:
    """Fill in the check outcome of every job that did not raise."""
    return [error if error is not None
            else check(job, result, reference.get(job.id))
            for job, result, error in zip(jobs, results, errors)]


def check(job: Job, result, ref) -> str | None:
    """None if the result matches the reference, else why not."""
    if ref is None:
        return "no reference value for this job"
    if job.check == "report":
        return _check_report(job, result, ref)
    if job.check == "bool":
        return None if result is True and ref is True else "check is False"
    if job.check == "table":
        return _check_table(*result, ref)
    if job.check == "sym-table":
        return _check_sym_table(result, ref)
    raise ValueError(job.check)
