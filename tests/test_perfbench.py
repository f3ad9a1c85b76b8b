"""The benchmark calls into pshlab by name and by signature: its traced
run (perfbench/layertrace.py) looks functions up by name, parse_group
builds C2 with a five-argument FiniteGroupTable, and check.element_key
reads a wreath table's base group.  These tests fail when a change to
pshlab breaks one of them."""

import json
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def test_layer_tracer_finds_every_counted_name(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from layertrace import Tracer
    tracer = Tracer(span_cap=16).install()
    try:
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert "linalg.solves" in metrics
    assert "psh.products" in metrics


def test_table_groups_build_and_invert(monkeypatch):
    # every group-tables spec, and the bare C2 that parse_group builds
    # with a five-argument FiniteGroupTable, through the benchmark's own
    # parser
    monkeypatch.syspath_prepend(PERFBENCH)
    from workloads import TABLE_GROUPS, parse_group
    for spec in ["C2"] + TABLE_GROUPS:
        G = parse_group(spec)
        assert G.name == spec
        assert all(G.mul(x, G.inv(x)) == G.identity_idx
                   for x in range(G.order)), spec


def test_element_key_spells_out_wreath_base_elements(monkeypatch):
    # the reference keys a wreath element by its base-group elements, not
    # by their indices, which depend on the base group's element order
    monkeypatch.syspath_prepend(PERFBENCH)
    from check import element_key
    from workloads import parse_group
    G = parse_group("Wreath(2,GL(1,5))")
    for sig, alphas in G.elements:
        assert json.loads(element_key(G, (sig, alphas))) == [
            list(sig), [json.loads(json.dumps(G.base.elements[a]))
                        for a in alphas]]
