"""One pass of a workload in a fresh interpreter, so that every cache
starts cold, as in a ``pshlab verify`` run.

    python3 perfbench/worker.py WORKLOAD SEED [--trace PATH] [--setup-only]

Prints one JSON object: the time the pass was ready to run its first job
(``time.monotonic``, which all processes share, so the parent can time
set-up from the spawn), per-job seconds and check outcomes, the pass's
wall time, and the worker's peak RSS.  With ``--trace`` it also reports
the per-layer metrics and writes the spans to PATH.

Job and pass times are given twice: as measured, and rescaled to the
reference host speed with ``SpeedProbe`` (the ``ref`` fields).
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

PROBE_EVERY_S = 0.05
# the probe's mean time on a 2.0 GHz Xeon vCPU when the host ran fastest;
# a fixed unit, never re-measured, so that rescaled times stay comparable
REF_PROBE_S = 0.0003
MIN_SAMPLES = 5


def probe() -> float:
    """Seconds for a fixed piece of pure-Python work that calls no pshlab
    code: exact fractions, tuples and a dict, like pshlab's inner loops."""
    t0 = time.perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(100):
        acc += Fraction(i % 7 + 1, i % 13 + 1)
        seen[(i % 17, i % 19)] = acc
    return time.perf_counter() - t0


class SpeedProbe:
    """Times ``probe()`` every PROBE_EVERY_S of wall time while the jobs
    run, from a SIGALRM handler in the worker's own thread.  It samples
    the host's speed on the same vCPU at the same moments as the jobs:
    on a shared host that speed drifts by a third over minutes, and the
    two vCPUs drift independently.  A time divided by the mean probe time
    over its interval, times REF_PROBE_S, is that time at the reference
    speed.  The probe takes about 0.6% of the pass."""

    def __init__(self):
        self.samples: list[float] = []

    def __enter__(self):
        signal.signal(signal.SIGALRM,
                      lambda *_: self.samples.append(probe()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean(self, start=0, stop=None) -> float | None:
        window = self.samples[start:stop]
        return sum(window) / len(window) if len(window) >= MIN_SAMPLES \
            else None


def main(argv) -> int:
    workload, seed = argv[0], int(argv[1])
    trace_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None

    import pshlab  # set-up includes importing the package
    if not os.path.abspath(pshlab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"pshlab came from {pshlab.__file__}, not {SRC}")
    from workloads import LAYERS, call, make_jobs
    for layer in LAYERS:
        importlib.import_module(f"pshlab.{layer}")
    jobs = make_jobs(workload, seed)
    ready = time.monotonic()
    if "--setup-only" in argv:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if trace_path:
        from layertrace import Tracer
        tracer = Tracer().install()
    results, seconds, errors, windows = [], [], [], []
    with SpeedProbe() as speed:
        first = time.perf_counter()
        for job in jobs:
            start, t0 = len(speed.samples), time.perf_counter()
            try:
                if tracer:
                    result = tracer.run_job(job.id, lambda: call(job))
                else:
                    result = call(job)
                error = None
            except Exception as exc:  # a failed job is counted, not fatal
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            seconds.append(time.perf_counter() - t0)
            windows.append((start, len(speed.samples)))
            results.append(result)
            errors.append(error)
        wall = time.perf_counter() - first
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    from check import check_all, load_reference
    errors = check_all(jobs, results, errors, load_reference(workload))

    # a job too short for samples of its own is rescaled by the pass's
    pass_probe = speed.mean() or probe()
    ref_seconds = [s * REF_PROBE_S / (speed.mean(*w) or pass_probe)
                   for s, w in zip(seconds, windows)]
    out = {"ready": ready, "wall_s": wall, "wall_ref_s": sum(ref_seconds),
           "probe_s": pass_probe, "peak_rss_mb": rss_mb,
           "jobs": [{"id": job.id, "seconds": s, "ref_s": r, "error": e}
                    for job, s, r, e in zip(jobs, seconds, ref_seconds,
                                            errors)]}
    if tracer:
        out["per_layer"] = tracer.layer_metrics()
        tracer.dump(trace_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
