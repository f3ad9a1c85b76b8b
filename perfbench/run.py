"""pshlab's benchmark: time to verdict on four exact-arithmetic workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every pass of a workload runs in a fresh worker process (worker.py), so
caches start cold as in a ``pshlab verify`` run.  A pass is a closed loop
with one client: its jobs run one after another, each a call into a
public pshlab check or character-table function, and each result is
checked by value against the reference (check.py).

--trace 0 runs a few set-up-only workers, then passes while another one
fits in S seconds, and reports the medians over passes of the end-to-end
metrics.  Times of jobs are rescaled to the reference host speed
(worker.SpeedProbe); the times as measured are in the details lines.
--trace 1 runs one plain pass and one traced pass (layertrace.py) of the
same jobs and reports the per-layer metrics; the traced pass writes its
spans under .perfbench-out/.

Lines starting with "#" are details; the last line is the JSON result.
Exit code 1, with no result line, if a worker cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from collections import Counter
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5       # set-up-only workers per timed run
DEADLINE_S = 170       # every worker must end before this, from start


class WorkerError(RuntimeError):
    pass


def machine_facts() -> dict:
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "commit": git_commit(),
            "loadavg": os.getloadavg()}


def git_commit():
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def spawn(workload: str, seed: int, started: float, *extra) -> dict:
    """Run one worker to completion; adds its set-up time to the result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    budget = DEADLINE_S - (time.monotonic() - started)
    if budget <= 0:
        raise WorkerError("no time left for another worker")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, workload, str(seed), *extra],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=budget)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker ran past {budget:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker exited with code {proc.returncode}:\n"
                          + proc.stderr[-2000:])
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - t0
    return out


def failures(passes) -> list:
    return [(job["id"], job["error"]) for p in passes for job in p["jobs"]
            if job["error"]]


def result_line(passes, metrics) -> dict:
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = len(failures(passes))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": v, "unit": unit}
                        for name, (v, unit) in metrics.items()}}


def timed_run(workload, seed, seconds, started):
    setups = [spawn(workload, seed, started, "--setup-only")["setup_s"]
              for _ in range(SETUP_PROBES)]
    passes = []
    while True:
        passes.append(spawn(workload, seed, started))
        elapsed = time.monotonic() - started
        # start another pass only if a pass of the mean length still fits
        if elapsed + elapsed / len(passes) > seconds:
            break
    setups += [p["setup_s"] for p in passes]
    slowest = []
    for i, p in enumerate(passes, 1):
        job = max(p["jobs"], key=lambda j: j["ref_s"])
        slowest.append(job["id"])
        print(f"# pass {i}: wall_s={p['wall_s']:.4f} "
              f"wall_ref_s={p['wall_ref_s']:.4f} "
              f"probe_ms={p['probe_s'] * 1e3:.4f} "
              f"setup_s={p['setup_s']:.4f} rss_mb={p['peak_rss_mb']:.1f} "
              f"slowest={job['id']} ({job['seconds']:.4f} s, "
              f"{job['ref_s']:.4f} ref s)")
    attempted = sum(len(p["jobs"]) for p in passes)
    print(f"# {len(passes)} passes, {attempted // len(passes)} jobs each; "
          f"median wall_s={median(p['wall_s'] for p in passes):.4f}; "
          f"slowest job: {Counter(slowest).most_common(1)[0][0]}; "
          f"fail_ratio={len(failures(passes)) / attempted}")
    metrics = {
        "wall_ref_s": (median(p["wall_ref_s"] for p in passes), "s"),
        "job_max_ref_s": (median(max(j["ref_s"] for j in p["jobs"])
                                 for p in passes), "s"),
        "peak_rss_mb": (median(p["peak_rss_mb"] for p in passes), "MB"),
        "setup_s": (median(setups), "s"),
    }
    return passes, metrics


def traced_run(workload, seed, started):
    out_dir = os.path.join(ROOT, ".perfbench-out")
    path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
    plain = spawn(workload, seed, started)
    os.makedirs(out_dir, exist_ok=True)
    traced = spawn(workload, seed, started, "--trace", path)
    metrics = {name: tuple(v) for name, v in traced["per_layer"].items()}
    metrics["trace.overhead"] = (traced["wall_ref_s"] / plain["wall_ref_s"],
                                 "ratio")
    print(f"# untraced wall_s={plain['wall_s']:.4f} "
          f"traced wall_s={traced['wall_s']:.4f}; spans in {path}")
    shares = sorted(((v, k[:-7]) for k, (v, _) in metrics.items()
                     if k.endswith(".self_s")), reverse=True)
    total = sum(v for v, _ in shares) or 1.0
    print("# self-time shares: " + ", ".join(
        f"{name} {v / total:.0%}" for v, name in shares[:6]))
    return [plain, traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    print("# machine " + json.dumps(machine_facts()))
    try:
        if args.trace:
            passes, metrics = traced_run(args.workload, args.seed, started)
        else:
            passes, metrics = timed_run(args.workload, args.seed,
                                        args.seconds, started)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for job_id, error in failures(passes):
        print(f"# FAILED {job_id}: {error}")
    print(json.dumps(result_line(passes, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
