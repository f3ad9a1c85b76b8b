"""Command-line front door: character tables, verification suites,
exact computations, and reproducible run manifests.

Exit codes: 0 all checks passed, 1 an assertion failed, 2 usage error
or unsupported parameter values, 3 resource bound exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from fractions import Fraction

from . import __version__
from .cyclo import scalar, scalar_json

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# which module-level theorem checks each verify suite drives; the test
# suite asserts this registry covers every check in the package
SUITE_CHECKS = {
    "psh": ("psh.verify_self_adjoint", "psh.verify_hopf",
            "psh.verify_positivity", "psh.verify_cocommutativity",
            "psh.verify_fibred_grading",
            "invariants.verify_psh_multiplicativity"),
    "mezzadri": ("invariants.verify_mezzadri",
                 "invariants.verify_induction_invariance"),
    "gauss": ("glfq.verify_kondo_induction",
              "glfq.verify_kondo_multiplicative",
              "glfq.weil_identity_check"),
    "branching": ("specht.verify_branching", "specht.kappa_multiple_check",
                  "specht.tabloid_adjacency_check",
                  "specht.submodule_theorem_check",
                  "combinat.combinatorial_lemma_check"),
    "hopflike": ("hyperhecke.verify_hopflike",
                 "hyperhecke.verify_normal_form",
                 "hyperhecke.verify_associativity",
                 "hyperhecke.verify_apply_faithful"),
    "bruhat": ("glfq.verify_bruhat_bijection",),
    "hasse-davenport": ("glfq.hasse_davenport_check",),
    "wreath-counterexample": ("invariants.wreath_counterexample_report",
                              "invariants.wreath_theorem_check"),
}


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return scalar_json(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "to_json"):
        return _jsonable(obj.to_json())
    return obj


def _manifest(command: str, params: dict, started: float, result) -> dict:
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return {"command": command,
            "parameters": params,
            "version": __version__,
            "wall_clock_s": round(time.time() - started, 3),
            "result_digest": hashlib.sha256(blob.encode()).hexdigest()}


def _emit(args, command, params, started, result, lines):
    result = _jsonable(result)
    manifest = _manifest(command, _jsonable(params), started, result)
    if getattr(args, "json", False):
        print(json.dumps({"manifest": manifest, "result": result},
                         indent=2))
    else:
        for line in lines:
            print(line)
        print("manifest: " + json.dumps(manifest, separators=(",", ":")))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def _lambda_arg(args, what: str):
    """The --lambda partition, checked against --n when --n is given."""
    from .combinat import parse_partition
    if not args.lam:
        raise ValueError(f"{what} needs --lambda")
    lam = parse_partition(args.lam)
    if args.n is not None and args.n != sum(lam):
        raise ValueError(f"--n {args.n} does not match |lambda| = {sum(lam)}")
    return lam


# -- chartable ----------------------------------------------------------------

def _group_from_spec(spec: str):
    m = re.fullmatch(r"Sym\((\d+)\)", spec)
    if m:
        return ("sym", int(m.group(1)))
    m = re.fullmatch(r"GL\((\d+),(\d+)\)", spec)
    if m:
        from .glfq import gl_group
        return ("table", gl_group(int(m.group(1)), int(m.group(2))))
    m = re.fullmatch(r"Wreath\((\d+),(.+)\)", spec)
    if m:
        from .psh import _base_group
        from .wreath import wreath_group
        return ("table", wreath_group(_base_group(m.group(2)),
                                      int(m.group(1))))
    raise ValueError(f"unparseable group spec: {spec}")


def cmd_chartable(args) -> int:
    started = time.time()
    kind, data = _group_from_spec(args.group)
    if kind == "sym":
        from .combinat import format_partition
        from .specht import character_table_rows
        rows, cols, table = character_table_rows(data)
        result = {"group": args.group,
                  "rows": [format_partition(r) for r in rows],
                  "columns": [format_partition(c) for c in cols],
                  "table": table}
        lines = ["," + ",".join(result["columns"])]
        lines += [result["rows"][i] + ","
                  + ",".join(str(v) for v in table[i])
                  for i in range(len(rows))]
    else:
        G = data
        chars = G.character_table()
        reps = G.class_reps()
        cols = [str(G.elements[r]) for r in reps]
        table = [[str(chi.values[c]) for c in range(len(reps))]
                 for chi in chars]
        result = {"group": args.group,
                  "degrees": [int(chi.degree()) for chi in chars],
                  "columns": cols,
                  "class_sizes": [len(c) for c in G.classes()],
                  "table": table,
                  "orthogonality_verified": True}
        lines = ["," + ",".join(f'"{c}"' for c in cols)]
        lines += ["chi%d,%s" % (i, ",".join(row))
                  for i, row in enumerate(table)]
    _emit(args, "chartable", {"group": args.group}, started, result, lines)
    return EXIT_PASS


# -- verify suites ------------------------------------------------------------

def _suite_psh(args):
    from . import psh
    from .invariants import verify_psh_multiplicativity
    reports = []
    instances = [(psh.symmetric_instance(6), None),
                 (psh.wreath_instance("C2", 3), None),
                 (psh.gl_instance(2, 2), None),
                 (psh.gl_instance(3, 2), None)]
    for R, _ in instances:
        for fn in (psh.verify_self_adjoint, psh.verify_hopf,
                   psh.verify_positivity, psh.verify_cocommutativity):
            reports.append(fn(R))
    reports.append(psh.verify_fibred_grading(3))
    reports.append(verify_psh_multiplicativity(2, 5))
    return reports


def _suite_mezzadri(args):
    from .invariants import verify_induction_invariance, verify_mezzadri
    from .specht import check_sym_order
    n = args.n or 6
    check_sym_order(n)
    reports = [verify_mezzadri(k) for k in range(1, n + 1)]
    reports += [verify_induction_invariance(k)
                for k in range(2, min(n, 5) + 1)]
    return reports


def _suite_gauss(args):
    from .glfq import (verify_kondo_induction, verify_kondo_multiplicative,
                       weil_identity_check, weil_theta_exponents)
    q = args.q or 3
    reports = []
    if not args.weil:
        reports.append(verify_kondo_induction(2, 2))
        reports.append(verify_kondo_induction(2, 3))
        reports.append(verify_kondo_multiplicative(2))
        reports.append(verify_kondo_multiplicative(3))
    for j in weil_theta_exponents(q):
        r = weil_identity_check(q, j)
        r["check"] = "weil-identity"
        reports.append(r)
    return reports


def _suite_branching(args):
    from .combinat import (all_tableaux, combinatorial_lemma_check,
                           dominates, partitions)
    from .specht import (check_sym_order, submodule_theorem_check,
                         tabloid_adjacency_check, verify_branching)
    n = args.n or 5
    # the induction branch of verify_branching reaches Sym(n + 1)
    check_sym_order(n + 1)
    reports = []
    for m in range(1, n + 1):
        for mu in partitions(m):
            reports.append(verify_branching(mu))
    for m in range(1, min(n, 5) + 1):
        for mu in partitions(m):
            sub = submodule_theorem_check(mu)
            reports.append({"check": "submodule", "mu": mu,
                            "pass": sub["pass"]})
            reports.append({"check": "tabloid-adjacency", "mu": mu,
                            "pass": tabloid_adjacency_check(mu)})
            reports.append({"check": "kappa-multiple", "mu": mu,
                            "pass": sub["kappa_multiple"]})
    bound = min(n, 4)
    ok = True
    cases = 0
    for m in range(1, bound + 1):
        for lam in partitions(m):
            for mu in partitions(m):
                for t1 in all_tableaux(lam):
                    for t2 in all_tableaux(mu):
                        cases += 1
                        if (combinatorial_lemma_check(t1, t2)
                                and not dominates(lam, mu)):
                            ok = False
    reports.append({"check": "column-distinctness-forces-dominance",
                    "max_n": bound, "cases": cases, "pass": ok})
    return reports


def _hopflike_findings(args):
    """verify_hopflike at --n and --q, also written to --out if given."""
    from .hyperhecke import verify_hopflike
    findings = verify_hopflike(args.n or 2, args.q or 2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(_jsonable(findings), fh, indent=2)
    return findings


def _suite_hopflike(args):
    from .glfq import gl_group
    from .hyperhecke import (verify_apply_faithful, verify_associativity,
                             verify_normal_form)
    return [verify_normal_form(gl_group(2, 2)),
            verify_associativity(gl_group(2, 2), sample=12),
            verify_apply_faithful(gl_group(2, 2)),
            verify_normal_form(gl_group(2, 3), sample=8),
            verify_associativity(gl_group(2, 3), sample=6),
            verify_apply_faithful(gl_group(2, 3), sample=10),
            _hopflike_findings(args)]


def _suite_bruhat(args):
    from .glfq import verify_bruhat_bijection
    from .symgroup import kmatrix_of, kmatrix_solutions, w_of_kmatrix
    import itertools
    m_max = args.m or 3
    reports = []
    for q in (2, 3):
        for m in range(1, m_max + 1):
            for a in range(m + 1):
                for alpha in range(m + 1):
                    reports.append(verify_bruhat_bijection(a, alpha, m, q))
    # the symmetric-group version: the matrix invariant separates the
    # double cosets of the two-block subgroups and the canonical
    # representatives hit every value
    young_max = 5 if args.m is None else args.m
    for m in range(1, young_max + 1):
        perms = list(itertools.permutations(range(1, m + 1)))
        from .symgroup import Perm
        ok = True
        for a in range(m + 1):
            for alpha in range(m + 1):
                sols = kmatrix_solutions(a, alpha, m)
                seen = {kmatrix_of(Perm(images), a, alpha, m)
                        for images in perms}
                reps_ok = all(
                    kmatrix_of(w_of_kmatrix(k, a, alpha, m), a, alpha, m)
                    == k for k in sols)
                ok = ok and reps_ok and seen == set(sols)
        reports.append({"check": "young-double-cosets", "m": m,
                        "pass": ok})
    return reports


def _suite_hasse_davenport(args):
    from .glfq import hasse_davenport_check
    if (args.p is None) != (args.m is None):
        raise ValueError("--p and --m go together")
    pairs = ([(args.p, args.m)] if args.p is not None
             else [(3, 2), (5, 2), (3, 3)])
    out = []
    for p, m in pairs:
        r = hasse_davenport_check(p, m)
        r["check"] = "hasse-davenport"
        out.append(r)
    return out


def _suite_wreath_counterexample(args):
    from .invariants import wreath_counterexample_report, wreath_theorem_check
    q = args.q or 3
    reports = [wreath_theorem_check(n, q) for n in range(1, 4)]
    reports.append(wreath_counterexample_report(q))
    return reports


# each suite, with the options it reads; verify rejects any other
_SUITES = {
    "psh": (_suite_psh, ()),
    "mezzadri": (_suite_mezzadri, ("n",)),
    "gauss": (_suite_gauss, ("q", "weil")),
    "branching": (_suite_branching, ("n",)),
    "hopflike": (_suite_hopflike, ("n", "q", "out")),
    "bruhat": (_suite_bruhat, ("m",)),
    "hasse-davenport": (_suite_hasse_davenport, ("p", "m")),
    "wreath-counterexample": (_suite_wreath_counterexample, ("q",)),
}


def cmd_verify(args) -> int:
    started = time.time()
    suite, reads = _SUITES[args.suite]
    unread = [f"--{k}" for k in ("n", "q", "m", "p", "weil", "out")
              if getattr(args, k) not in (None, False) and k not in reads]
    if unread:
        raise ValueError(f"suite {args.suite} does not read "
                         + ", ".join(unread))
    reports = suite(args)
    passed = all(r.get("pass", True) for r in reports)
    lines = []
    for r in reports:
        label = r.get("check", args.suite)
        lines.append(f"{label}: {'pass' if r.get('pass', True) else 'FAIL'}")
        if label == "weil-identity" and not getattr(args, "json", False):
            lines.append(f"  theta={r['theta']} lhs={r['lhs']} rhs={r['rhs']}")
    lines.append(f"suite {args.suite}: "
                 + ("all checks passed" if passed else "FAILURES present"))
    params = {k: getattr(args, k, None)
              for k in ("suite", "n", "q", "m", "p", "weil")}
    _emit(args, "verify", params, started,
          {"suite": args.suite, "pass": passed, "reports": reports}, lines)
    if args.suite == "hopflike":
        return EXIT_PASS
    return EXIT_PASS if passed else EXIT_FAIL


# -- compute ------------------------------------------------------------------

def _kondo_value(group: str, subgroup, char_index: int):
    from .chars import elementwise, numerical_invariant
    from .glfq import gl_group, kondo_measure
    from .hyperhecke import subgroup_characters
    m = re.fullmatch(r"GL\((\d+),(\d+)\)", group)
    if not m:
        raise ValueError(f"unparseable group spec: {group}")
    G = gl_group(int(m.group(1)), int(m.group(2)))
    if subgroup and subgroup not in G.subgroups:
        raise ValueError(f"{group} has no subgroup {subgroup!r}; choose from "
                         + ", ".join(sorted(G.subgroups)))
    indices = (sorted(G.subgroups[subgroup]) if subgroup
               else list(range(G.order)))
    table = subgroup_characters(G, indices)
    triv = next(i for i, chi in enumerate(table)
                if all(v == 1 for v in chi.values()))
    table.insert(0, table.pop(triv))
    if not 0 <= char_index < len(table):
        raise ValueError(f"--char {char_index} is not in 0..{len(table) - 1}")
    return numerical_invariant(
        elementwise(G.name, table[char_index], G.identity_idx),
        kondo_measure(G))


def cmd_compute(args) -> int:
    started = time.time()
    kind = args.kind
    params = {"kind": kind, "lambda": args.lam, "n": args.n, "q": args.q,
              "group": args.group, "subgroup": args.subgroup,
              "char": args.char}
    if kind == "f-lambda":
        from .invariants import f_lambda
        poly = f_lambda(_lambda_arg(args, kind))
        result = {"kind": kind, "coefficients": poly.to_json(),
                  "pretty": poly.pretty()}
        if args.approx:
            result["approx"] = poly.approx()
        lines = [poly.pretty()]
    elif kind == "w-x":
        from .invariants import w_x_sym
        from .specht import specht_character
        lam = _lambda_arg(args, kind)
        poly = w_x_sym(specht_character(lam))
        result = {"kind": kind, "coefficients": poly.to_json(),
                  "pretty": poly.pretty()}
        if args.approx:
            result["approx"] = poly.approx()
        lines = [poly.pretty()]
    elif kind == "kondo":
        if not args.group:
            print("kondo needs --group GL(n,q)", file=sys.stderr)
            return EXIT_USAGE
        value = _kondo_value(args.group, args.subgroup, args.char or 0)
        result = {"kind": kind, "value": value}
        if args.approx:
            result["approx"] = list(value.to_complex())
        lines = [str(scalar(value))]
    else:  # wreath-w, the last of the kinds argparse admits
        from .invariants import specht_wreath_invariant
        poly = specht_wreath_invariant(_lambda_arg(args, kind), args.q or 3)
        result = {"kind": kind, "coefficients": poly.to_json(),
                  "pretty": poly.pretty()}
        if args.approx:
            result["approx"] = poly.approx()
        lines = [poly.pretty()]
    _emit(args, "compute", params, started, result, lines)
    return EXIT_PASS


def cmd_mezzadri(args) -> int:
    started = time.time()
    from .invariants import f_lambda, w_x_sym
    from .specht import specht_character
    lam = _lambda_arg(args, "mezzadri")
    n = sum(lam)
    target = f_lambda(lam)
    brute = w_x_sym(specht_character(lam))
    match = target == brute
    result = {"lambda": list(lam), "n": n,
              "f_lambda": target.to_json(), "w_x": brute.to_json(),
              "match": match}
    lines = [f"f_lambda = {target.pretty()}",
             f"w_x      = {brute.pretty()}",
             "match" if match else "MISMATCH"]
    _emit(args, "mezzadri", {"n": n, "lambda": args.lam}, started, result,
          lines)
    return EXIT_PASS if match else EXIT_FAIL


def cmd_hecke(args) -> int:
    started = time.time()
    report = _hopflike_findings(args)
    lines = [f"generator pairs: {report['generator_pairs']}, "
             f"equal: {report['equal_pairs']}"]
    if args.out:
        lines.append(f"findings written to {args.out}")
    _emit(args, "hecke verify-hopflike",
          {"n": args.n, "q": args.q, "out": args.out}, started, report,
          lines)
    return EXIT_PASS


# -- entry point --------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="machine-readable output")
    parser = argparse.ArgumentParser(
        prog="pshlab",
        parents=[common],
        description="Exact-arithmetic character tables, polynomial "
                    "invariants and verification suites for small finite "
                    "groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chartable", help="print a character table",
                       parents=[common])
    p.add_argument("group", help="Sym(n), GL(n,q) or Wreath(n,H)")
    p.set_defaults(func=cmd_chartable)

    p = sub.add_parser("verify", help="run a verification suite",
                       parents=[common])
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--q", type=_positive_int)
    p.add_argument("--m", type=_positive_int)
    p.add_argument("--p", type=_positive_int)
    p.add_argument("--weil", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compute", help="compute a single exact value",
                       parents=[common])
    p.add_argument("kind", choices=["f-lambda", "w-x", "kondo", "wreath-w"])
    p.add_argument("lam_positional", nargs="?", default=None,
                   metavar="lambda")
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--q", type=_positive_int)
    p.add_argument("--group")
    p.add_argument("--subgroup")
    p.add_argument("--char", type=int)
    p.add_argument("--approx", action="store_true")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("mezzadri",
                       parents=[common],
                       help="compare the node polynomial with the "
                            "brute-force invariant for one partition")
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--lambda", dest="lam", required=True)
    p.set_defaults(func=cmd_mezzadri)

    p = sub.add_parser("hecke", help="triple-algebra commands",
                       parents=[common])
    p.add_argument("hecke_command", choices=["verify-hopflike"])
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--q", type=_positive_int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_hecke)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    if getattr(args, "lam", None) is None:
        args.lam = getattr(args, "lam_positional", None)
    try:
        return args.func(args)
    except ResourceWarning as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"unsupported parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
