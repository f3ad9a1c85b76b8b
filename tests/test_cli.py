import argparse
import json
import math
import os
import subprocess
import sys
import time

import pytest

from pshlab import cli
from pshlab.cyclo import Cyclo


def run_cli(*args, env=None):
    proc = subprocess.run([sys.executable, "-m", "pshlab.cli", *args],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def run_json(*args):
    rc, out, err = run_cli(*args, "--json")
    assert rc == 0, err or out
    return json.loads(out)


def test_usage_errors():
    for args in [(), ("verify", "no-such-suite"),
                 ("chartable", "Sporadic(1)"),
                 ("chartable", "Wreath(3,C3)"),
                 ("verify", "gauss", "--q", "4", "--weil"),
                 ("hecke", "verify-hopflike", "--n", "3"),
                 ("compute", "kondo", "--group", "GL(1,5)", "--char", "99"),
                 ("compute", "kondo", "--group", "GL(1,5)", "--char", "-1"),
                 ("compute", "kondo", "--group", "GL(1,5)",
                  "--subgroup", "NOPE"),
                 ("verify", "hasse-davenport", "--p", "3"),
                 ("verify", "hasse-davenport", "--p", "3", "--m", "0"),
                 ("verify", "bruhat", "--m", "0"),
                 ("verify", "branching", "--n", "0"),
                 ("compute", "wreath-w", "--lambda", "(2,1)", "--q", "0"),
                 ("hecke", "verify-hopflike", "--q", "0"),
                 ("verify", "psh", "--q", "1"),
                 ("verify", "gauss", "--q", "1", "--weil"),
                 ("chartable", "GL(0,3)"),
                 ("compute", "wreath-w", "--lambda", "(2,1)", "--n", "4"),
                 ("verify", "wreath-counterexample", "--q", "2")]:
        rc, _, err = run_cli(*args)
        assert rc == 2, (args, err)
        assert "Traceback" not in err, args


@pytest.mark.parametrize("group,cap", [("Wreath(2,C2)", 4),
                                       ("GL(2,3)", 10),
                                       ("Sym(4)", 10)])
def test_group_order_cap(group, cap):
    env = dict(os.environ, PSHLAB_MAX_GROUP_ORDER=str(cap))
    rc, _, err = run_cli("chartable", group, env=env)
    assert rc == 3, err
    assert "exceeds the group-order bound" in err


@pytest.mark.parametrize("args", [("verify", "branching", "--n", "9"),
                                  ("verify", "mezzadri", "--n", "9"),
                                  ("compute", "w-x", "--lambda", "(5,4)")])
def test_sym_order_cap_comes_before_any_work(args):
    # 9! is above the default cap; each command must stop on it at once
    env = {k: v for k, v in os.environ.items()
           if k != "PSHLAB_MAX_GROUP_ORDER"}
    start = time.monotonic()
    rc, _, err = run_cli(*args, env=env)
    elapsed = time.monotonic() - start
    assert rc == 3, err
    assert "exceeds the group-order bound" in err
    assert elapsed < 2.0, elapsed


BIG_PRIME = "1000000000000000003"


@pytest.mark.parametrize("args", [
    ("verify", "gauss", "--q", "1000003"),
    ("verify", "gauss", "--q", BIG_PRIME, "--weil"),
    ("verify", "hasse-davenport", "--p", BIG_PRIME, "--m", "1"),
    ("verify", "hasse-davenport", "--p", "2", "--m", "100000000"),
    ("chartable", f"GL(1,{BIG_PRIME})"),
    ("compute", "kondo", "--group", f"GL(1,{BIG_PRIME})"),
    ("compute", "wreath-w", "--lambda", "(2,1)", "--q", BIG_PRIME),
    ("hecke", "verify-hopflike", "--q", BIG_PRIME),
    ("verify", "wreath-counterexample", "--q", BIG_PRIME)])
def test_size_bounds_come_before_factoring(args):
    # each bound is checked on the inputs before any work that scales
    # with them; a regression times out here instead of hanging
    env = {k: v for k, v in os.environ.items()
           if k != "PSHLAB_MAX_GROUP_ORDER"}
    proc = subprocess.run([sys.executable, "-m", "pshlab.cli", *args],
                          capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode in (2, 3), proc.stderr
    assert "Traceback" not in proc.stderr
    assert "exceeds the" in proc.stderr


# result digests that a change to how values are computed must keep; the
# parametrised ids number the entries in the order written here
PINNED_DIGESTS = {
    ("chartable", "GL(2,3)"):
        "9dcfc05d7ef4893e7c8afa8a571e53485d41504aead7dcdbdc5f4d2ca80c2427",
    ("chartable", "Sym(5)"):
        "335ac2d012bf12106e039b6bba3e631712d0a02e46fc0f14c4ebfc3533a8110b",
    ("chartable", "Wreath(3,C2)"):
        "299e38bc75169789b10cad7d8d700ebb54141e9e1f6c402e200520f5e7e555db",
    ("verify", "gauss"):
        "a21c743060ac5b6ca5cc9a2fe470bf9ec1be0d0c6e020e9d9fa0c514e9266cbd",
    ("verify", "hasse-davenport"):
        "466ebb239f3bca40346c6491f938f9f397fea74ec128aa7786bd1265b9190685",
    ("verify", "hopflike"):
        "098797cfedb8215468316f385a6f687b38f24c31a6b5f51c84ad6af358f430c0",
    ("verify", "wreath-counterexample"):
        "e1a1f82af6b91910f590bb943d9ca758e80acc2a7a08dc726f24ce77997ce2c8",
    ("verify", "psh"):
        "39dcfc1ad59d70f5531ce3acb592e0f0b4a5cd6a0fa7e0e62ba681187ec30ec3",
    ("verify", "bruhat", "--m", "2"):
        "b13be3f5584c274ef3f70f48cab508be7b576996938161cc04cab20ab7a53704",
    ("verify", "branching", "--n", "3"):
        "a4e1d12d3836022830689f0763b1d8dd831ecbcd33c96cb098bdcb26ba7b9126",
    ("verify", "mezzadri", "--n", "4"):
        "93f40135aa9dab1f5ddcc85becde7a63cbe15f21ff540dba70f4147987ddd57d",
    ("verify", "hopflike", "--q", "3"):
        "3e08f6dc874981a53ac6ab6fff2d364883cdedd37d2dabe82e2ccee1dfc872b2",
    ("verify", "hopflike", "--q", "5"):
        "6d7ef7e1b167ce99efcb532c995608bf27a4156114de79a5bc1b591f2cfdd9c4",
    ("hecke", "verify-hopflike", "--q", "4"):
        "8f417d5f2f8cd840710d1c56b01679785e13b92dc55918a2971423b2118ae3ab",
    ("compute", "kondo", "--group", "GL(2,2)"):
        "c6cda2f682ba9c88eaf1beeee46612296f61cc41c218c4c740655ccc53648eac",
    ("compute", "kondo", "--group", "GL(2,3)", "--subgroup", "D",
     "--char", "3"):
        "2f81b674a8d575910d79a6ac9cceede084e809ceea924e542bbee87471340e65",
    ("verify", "gauss", "--q", "5", "--weil"):
        "332ae666954a0ef68f5160228dc5d1013d22fbb55b59ce8f631b4d0b97554794",
    ("compute", "wreath-w", "--lambda", "(2,1)", "--q", "5"):
        "49003614185316846959a98543fef65445405199e2d57b5c73bfa44f6a0b1a84",
    ("compute", "w-x", "--lambda", "(3,1)"):
        "35537f0e9860ca392b9e5b1e86d05f5ba281b617605ba207081cf7ae7c9f0dbf",
    ("mezzadri", "--lambda", "(3,2)"):
        "ca32fda57da22e0bb70c0f6bca3b2dcb53029ce5775f69722f22116206558db8",
    ("chartable", "GL(2,4)"):
        "12fe4c9910f639ad33dc43692b9aaafe0e8299001c5610f6d92bce21d5f09933",
    ("chartable", "GL(3,2)"):
        "9e6bdffa0d1d54507e2076a1e6c53191f9477cf201068f56f8da1353286dfd63",
    ("chartable", "Wreath(2,GL(1,5))"):
        "37279cf1c3913317bc5e3e343db6d9165cd12bf0cfb6ffdcccacc85ed5ed7c27",
    ("chartable", "Wreath(4,C2)"):
        "df868d9651b7908b34a2b33fdd76647d811307733886d83f0afe1f316ccbeb21",
    ("verify", "bruhat"):
        "5ce2729863e727efd25cb8decab6f5488eafe597f800c5b00373c40c7c907b97",
    ("chartable", "GL(2,5)"):
        "a81a77b1a7169f14b2fd385f8f7ff52e5501e9fcddf1ab83049e8648b2ba195d",
    ("chartable", "Wreath(3,GL(1,5))"):
        "41a870026aa1da04bfe529c03822176c89043d885a8851d6c77c1c2a63f44246",
    ("chartable", "GL(3,3)"):
        "3b2a207fdfd369d5d1e37434d17799f8c213e4ee10ef7a3ccf337edb94f2bd24",
    ("verify", "branching"):
        "32e5f4fe66cf33d0a0a189e9920805b76beda5a99bd99118338a2e179bcf02e8",
    ("verify", "hasse-davenport", "--p", "2", "--m", "6"):
        "a723d07c6d7ea2a019d1936957f75668958516e323924261b125caceefe5862d",
    ("verify", "hasse-davenport", "--p", "7", "--m", "2"):
        "cc76520b4b90efa8ad711b2d3b5bd742d492caafeb1a97103c5762db2406adae",
}


@pytest.mark.parametrize("args,digest", list(PINNED_DIGESTS.items()))
def test_pinned_digests(args, digest):
    assert run_json(*args)["manifest"]["result_digest"] == digest


def test_branching_suite_runs_kappa_once_per_partition(monkeypatch):
    from pshlab import specht
    calls = []
    real = specht.kappa_multiple_check

    def counting(mu):
        calls.append(mu)
        return real(mu)
    monkeypatch.setattr(specht, "kappa_multiple_check", counting)
    reports = cli._suite_branching(argparse.Namespace(n=3))
    assert len(calls) == 6 == len(set(calls))
    kappa = [r for r in reports if r.get("check") == "kappa-multiple"]
    assert len(kappa) == 6 and all(r["pass"] for r in kappa)


def test_branching_suite_builds_each_shapes_tableaux_once(monkeypatch):
    # specht binds its own all_tableaux at import, so only the suite's
    # column-distinctness sweep reads the counting one
    from pshlab import combinat, specht  # noqa: F401
    calls = []
    real = combinat.all_tableaux

    def counting(shape):
        calls.append(shape)
        return real(shape)
    monkeypatch.setattr(combinat, "all_tableaux", counting)
    reports = cli._suite_branching(argparse.Namespace(n=3))
    assert sorted(calls) == sorted(combinat.partitions(1)
                                   + combinat.partitions(2)
                                   + combinat.partitions(3))
    # every pair of fillings of every pair of shapes, m! fillings each
    sweep = reports[-1]
    assert sweep["check"] == "column-distinctness-forces-dominance"
    assert sweep["cases"] == sum(len(combinat.partitions(m)) ** 2
                                 * math.factorial(m) ** 2 for m in (1, 2, 3))


def test_branching_suite_reads_dominance_once_per_shape_pair(monkeypatch):
    from pshlab import combinat
    calls = []
    real = combinat.dominates

    def counting(lam, mu):
        calls.append((lam, mu))
        return real(lam, mu)
    monkeypatch.setattr(combinat, "dominates", counting)
    reports = cli._suite_branching(argparse.Namespace(n=3))
    assert sorted(calls) == sorted(
        (lam, mu) for m in (1, 2, 3) for lam in combinat.partitions(m)
        for mu in combinat.partitions(m))
    assert reports[-1]["pass"] is True


def test_chartable_trivial_group():
    blob = run_json("chartable", "Sym(1)")
    assert blob["result"]["table"] == [[1]]
    assert blob["manifest"]["command"] == "chartable"


def test_json_before_the_subcommand():
    rc, out, err = run_cli("--json", "chartable", "Sym(3)")
    assert rc == 0, err
    blob = json.loads(out)
    assert blob["manifest"]["result_digest"] \
        == run_json("chartable", "Sym(3)")["manifest"]["result_digest"]


def test_digest_deterministic():
    a = run_json("chartable", "Sym(3)")
    b = run_json("chartable", "Sym(3)")
    assert a["manifest"]["result_digest"] == b["manifest"]["result_digest"]
    assert a["result"] == b["result"]


def test_compute_w_x():
    blob = run_json("compute", "w-x", "--lambda", "(2,1)")
    assert blob["result"]["coefficients"] == \
        [["0", "1"], ["-1", "1"], ["0", "1"], ["1", "1"]]
    assert blob["result"]["pretty"] == "x^3 - x"


def test_compute_f_lambda_positional():
    blob = run_json("compute", "f-lambda", "(2,1)")
    assert blob["result"]["coefficients"] == \
        [["0", "1"], ["-1", "1"], ["0", "1"], ["1", "1"]]


def test_compute_kondo():
    blob = run_json("compute", "kondo", "--group", "GL(1,5)", "--char", "0")
    value = blob["result"]["value"]
    assert Cyclo.from_json(value) == -1


def test_mezzadri_command():
    rc, out, _ = run_cli("mezzadri", "--n", "3", "--lambda", "(2,1)")
    assert rc == 0
    assert "x^3 - x" in out


def test_hecke_out(tmp_path):
    out_file = tmp_path / "findings.json"
    rc, _, _ = run_cli("hecke", "verify-hopflike", "--n", "2", "--q", "2",
                       "--out", str(out_file))
    assert rc == 0
    blob = json.loads(out_file.read_text())
    assert blob["pass"] is True


def test_suite_names():
    assert set(cli.SUITES) == {
        "psh", "mezzadri", "gauss", "branching", "hopflike", "bruhat",
        "hasse-davenport", "wreath-counterexample"}


def test_verify_hopflike_exits_1_on_a_failed_check(monkeypatch, capsys):
    from pshlab import hyperhecke
    monkeypatch.setattr(hyperhecke, "verify_normal_form",
                        lambda G: {"check": "normal-form", "pass": False})
    assert cli.main(["verify", "hopflike"]) == cli.EXIT_FAIL
    assert "FAILURES present" in capsys.readouterr().out


def test_registry_covers_all_verifiers():
    import importlib
    import inspect
    import pkgutil
    import re
    import pshlab
    registered = set()
    for _, _, checks in cli.SUITES.values():
        registered.update(checks)
    discovered = set()
    for info in pkgutil.iter_modules(pshlab.__path__):
        modname = info.name
        mod = importlib.import_module(f"pshlab.{modname}")
        for name, fn in inspect.getmembers(mod, inspect.isfunction):
            if fn.__module__ != mod.__name__ or name.startswith("_"):
                continue
            if re.match(r"^verify_", name) or name.endswith("_check") \
                    or name.endswith("_report"):
                discovered.add(f"{modname}.{name}")
    assert discovered == registered


@pytest.mark.parametrize("suite,extra", [
    ("hasse-davenport", []),
    ("bruhat", ["--m", "2"]),
    ("wreath-counterexample", []),
])
def test_fast_suites_pass(suite, extra):
    rc, out, _ = run_cli("verify", suite, *extra)
    assert rc == 0
    assert "manifest:" in out
