"""The benchmark's traced run (perfbench/layertrace.py) looks pshlab
functions up by name; this fails when a name it counts is renamed or
deleted."""

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
