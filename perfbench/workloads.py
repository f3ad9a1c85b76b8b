"""The benchmark's workloads: pools of public pshlab calls and the seeded
draw that turns a pool into one run's job list.

A job is one call into a public check function or character-table call.
Its arguments are plain values, group specs (``Group``) or PSH instance
specs (``PshInstance``); specs are resolved inside the timed call, so
building a group is part of the first job that needs it, as it is in a
``pshlab verify`` run.  Why each pool leaves some inputs out is written
in NOTES.md next to this file.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass

WORKLOADS = ("gauss-sums", "group-tables", "tabloid-checks", "hecke-sweep")

# pshlab's layer modules, innermost first
LAYERS = ("cyclo", "linalg", "combinat", "symgroup", "chars", "groups",
          "dixon", "specht", "glfq", "wreath", "psh", "invariants",
          "hyperhecke")


@dataclass(frozen=True)
class Group:
    """A group named as ``pshlab chartable`` names it: GL(n,q), C2 or
    Wreath(n,H)."""
    spec: str

    def __repr__(self):
        return self.spec


@dataclass(frozen=True)
class PshInstance:
    """``psh.symmetric_instance(maxdeg)``."""
    maxdeg: int

    def __repr__(self):
        return f"symmetric_instance({self.maxdeg})"


@dataclass(frozen=True)
class Job:
    """fn is "module.function", or "FiniteGroupTable.character_table"
    with the group as the only argument.  check names how the result is
    compared with the reference: "report" (the verdict plus the report
    keys in NAMED_VALUES), "bool", "table" or "sym-table"."""
    fn: str
    args: tuple = ()
    kwargs: tuple = ()
    check: str = "report"

    @property
    def id(self) -> str:
        parts = [repr(a) for a in self.args]
        parts += [f"{k}={v!r}" for k, v in self.kwargs]
        return f"{self.fn}({', '.join(parts)})"


# report keys compared with the reference, besides the verdict "pass";
# only values, never display strings or serialised forms
NAMED_VALUES = {
    "glfq.weil_identity_check": ("lhs", "rhs"),
    "glfq.hasse_davenport_check": ("characters", "failures"),
    "glfq.verify_kondo_induction": ("cases", "failures"),
    "glfq.verify_kondo_multiplicative": ("cases", "failures"),
    "glfq.verify_bruhat_bijection": ("cosets", "solutions", "bijection"),
    "invariants.wreath_theorem_check": ("per_partition",),
    "invariants.verify_mezzadri": ("per_partition.match",
                                   "per_partition.conjugate_identity",
                                   "node_sums"),
    "invariants.verify_induction_invariance": ("cases", "failures"),
    "specht.verify_branching": ("induction", "restriction"),
    "psh.verify_self_adjoint": ("cases", "failures"),
    "psh.verify_hopf": ("cases", "failures"),
    "psh.verify_positivity": ("cases", "failures"),
    "psh.verify_cocommutativity": ("cases", "failures"),
    "hyperhecke.verify_normal_form": ("cases", "failures"),
    "hyperhecke.verify_associativity": ("cases", "failures"),
    "hyperhecke.verify_apply_faithful": ("cases", "failures"),
    "hyperhecke.verify_hopflike": ("generator_pairs", "equal_pairs"),
}


def _partitions(n):
    """Partitions of n in lex-descending order (kept here so that making
    a job list needs no pshlab call)."""
    def gen(rem, top):
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, top), 0, -1):
            for rest in gen(rem - first, first):
                yield (first,) + rest
    return list(gen(n, n))


def weil_exponents(q):
    """Same set as glfq.weil_theta_exponents(q)."""
    return [j for j in range(q * q - 1) if (j * q - j) % (q * q - 1)]


# -- pools -----------------------------------------------------------------
# Each workload is a fixed core plus, where it says so, a seeded draw: one
# option from each stratum, an option being one or more jobs.  The options
# of a stratum cost the same, so every seed asks for the same work.  Jobs
# run in a fixed order: cold-cache work is then charged to the same job
# whatever the seed.

HD_FIELDS = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (5, 2),
             (7, 2)]
TABLE_GROUPS = ["GL(2,3)", "GL(3,2)", "GL(2,4)", "Wreath(2,GL(1,5))",
                "Wreath(4,C2)", "Wreath(3,GL(1,3))"]
KAPPA_SKIP = {(1, 1, 1, 1, 1)}


def weil5_strata():
    """q = 5 Weil checks grouped by gcd(j, 24), which fixes the order of
    the torus character and so the cost of the check."""
    strata: dict = {}
    for j in weil_exponents(5):
        strata.setdefault(math.gcd(j, 24), []).append(
            (Job("glfq.weil_identity_check", (5, j)),))
    return [strata[g] for g in sorted(strata)]


def gauss_core():
    jobs = [Job("glfq.weil_identity_check", (3, j))
            for j in weil_exponents(3)]
    jobs += [Job("glfq.hasse_davenport_check", pm) for pm in HD_FIELDS]
    jobs += [Job("glfq.verify_kondo_induction", (n, q))
             for n, q in ((1, 5), (2, 2), (2, 3))]
    jobs += [Job("glfq.verify_kondo_multiplicative", (q,))
             for q in (2, 3, 4, 5)]
    jobs += [Job("invariants.wreath_theorem_check", (n, q))
             for q in (3, 4, 5) for n in (1, 2, 3)]
    return jobs


def _bruhat(a, alpha):
    return Job("glfq.verify_bruhat_bijection", (a, alpha, 3, 3))


def bruhat_strata():
    """verify_bruhat_bijection(a, alpha, 3, 3), where a side with a in
    {0, 3} is the whole group.  Its cost is mostly filling GL(3,3)'s
    multiplication cache, so it depends on which products earlier checks
    cached.  An option is (0, alpha) and (a, alpha), two proper parabolics
    with the same alpha: P(1,2) and P(2,1) swap under transpose-inverse, so
    all four options fill the cache alike.  (1, 0) and (2, 0), which cost
    different amounts, are in every run."""
    return [[(_bruhat(0, alpha), _bruhat(a, alpha))
             for alpha in (1, 2) for a in (1, 2)]]


def tables_core():
    jobs = [Job("FiniteGroupTable.character_table", (Group(spec),),
                check="table") for spec in TABLE_GROUPS]
    return jobs + [_bruhat(1, 0), _bruhat(2, 0)]


def tabloid_core():
    jobs = [Job("specht.character_table_rows", (6,), check="sym-table")]
    for n in range(1, 6):
        for mu in _partitions(n):
            jobs.append(Job("specht.verify_branching", (mu,)))
            if mu not in KAPPA_SKIP:
                jobs.append(Job("specht.kappa_multiple_check", (mu,),
                                check="bool"))
            jobs.append(Job("specht.tabloid_adjacency_check", (mu,),
                            check="bool"))
    jobs += [Job("invariants.verify_mezzadri", (k,)) for k in range(1, 7)]
    jobs += [Job("invariants.verify_induction_invariance", (k,))
             for k in range(2, 5)]
    jobs += [Job(f"psh.{fn}", (PshInstance(6),))
             for fn in ("verify_self_adjoint", "verify_hopf",
                        "verify_positivity", "verify_cocommutativity")]
    return jobs


def hecke_core():
    jobs = []
    for spec, samples in (("GL(2,2)", (None, None, None)),
                          ("GL(2,3)", (None, 12, None))):
        for fn, sample in zip(("verify_normal_form", "verify_associativity",
                               "verify_apply_faithful"), samples):
            kwargs = () if sample is None else (("sample", sample),)
            jobs.append(Job(f"hyperhecke.{fn}", (Group(spec),), kwargs))
    jobs += [Job("hyperhecke.verify_hopflike", (2, q)) for q in (2, 3, 4, 5)]
    return jobs


# workload -> (fixed core, strata of the seeded draw)
_WORKLOADS = {"gauss-sums": (gauss_core, weil5_strata),
              "group-tables": (tables_core, bruhat_strata),
              "tabloid-checks": (tabloid_core, list),
              "hecke-sweep": (hecke_core, list)}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The run's job list: the core, then one option drawn from each
    stratum."""
    if workload not in _WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from "
                         + ", ".join(WORKLOADS))
    core, strata = _WORKLOADS[workload]
    rng = random.Random(seed)
    return core() + [job for stratum in strata()
                     for job in rng.choice(stratum)]


def all_jobs(workload: str) -> list[Job]:
    """Every job any seed can draw: what the reference has to cover."""
    core, strata = _WORKLOADS[workload]
    return core() + list(dict.fromkeys(
        job for stratum in strata() for option in stratum for job in option))


def parse_group(spec: str):
    """Build the group a Group spec names, with pshlab's own builders."""
    from pshlab.glfq import gl_group
    from pshlab.groups import FiniteGroupTable
    from pshlab.wreath import wreath_group
    if spec == "C2":
        return FiniteGroupTable("C2", [0, 1], lambda a, b: (a + b) % 2,
                                lambda a: a, 0)
    m = re.fullmatch(r"GL\((\d+),(\d+)\)", spec)
    if m:
        return gl_group(int(m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"Wreath\((\d+),(.+)\)", spec)
    if m:
        return wreath_group(parse_group(m.group(2)), int(m.group(1)))
    raise ValueError(f"unknown group spec {spec!r}")


def resolve(arg):
    if isinstance(arg, Group):
        return parse_group(arg.spec)
    if isinstance(arg, PshInstance):
        from pshlab.psh import symmetric_instance
        return symmetric_instance(arg.maxdeg)
    return arg


def call(job: Job):
    """Run the job's pshlab call and return its result; a table job
    returns the group with its table."""
    import importlib
    args = [resolve(a) for a in job.args]
    if job.fn == "FiniteGroupTable.character_table":
        return args[0], args[0].character_table()
    module, name = job.fn.rsplit(".", 1)
    fn = getattr(importlib.import_module(f"pshlab.{module}"), name)
    return fn(*args, **dict(job.kwargs))
