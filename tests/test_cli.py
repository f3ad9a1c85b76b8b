import json
import subprocess
import sys

import pytest

from pshlab import cli
from pshlab.cyclo import Cyclo


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "pshlab.cli", *args],
                          capture_output=True, text=True)
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
                 ("hecke", "verify-hopflike", "--n", "3")]:
        rc, _, err = run_cli(*args)
        assert rc == 2, (args, err)
        assert "Traceback" not in err, args


def test_chartable_trivial_group():
    blob = run_json("chartable", "Sym(1)")
    assert blob["result"]["table"] == [[1]]
    assert blob["manifest"]["command"] == "chartable"


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
    assert set(cli.SUITE_CHECKS) == {
        "psh", "mezzadri", "gauss", "branching", "hopflike", "bruhat",
        "hasse-davenport", "wreath-counterexample"}


def test_registry_covers_all_verifiers():
    import importlib
    import inspect
    import re
    registered = set()
    for checks in cli.SUITE_CHECKS.values():
        registered.update(checks)
    discovered = set()
    for modname in ("combinat", "specht", "glfq", "psh", "invariants",
                    "hyperhecke"):
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
