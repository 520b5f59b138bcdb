"""censym benchmark: fixed verify job lists, timed end to end, traced by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a censym checkout; the program is imported from
``src/``.  Every pass starts a fresh worker process (``worker.py``), so the
structure-constant cache is cold as it is for a real command, and runs the
workload's jobs once, in order, single-threaded.

``--trace 0`` runs passes while the next one is expected to end within
``--seconds`` (at least two), and reports the medians of ``ref_wall_s`` and
``peak_rss_mb`` over the passes, and of ``setup_s`` over the passes and
extra set-up-only workers.  Times are in reference time, the host's speed
divided out (see ``reference.py``).  ``--trace 1`` runs one plain, one traced and
one counted pass and reports the per-layer metrics; their report bytes
must be identical.  Every pass is gated on the committed expected-verdict
table.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import reference
from instrument import layer_metrics
from workloads import WORKLOADS, job_label, job_rings

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
EXPECTED = os.path.join(HERE, "expected_verdicts.json")
OUT_DIR = ".bench_out"
SETUP_PROBES = 9
MIN_PASSES = 2
RUN_LIMIT_S = 165.0


class WorkerError(RuntimeError):
    pass


def spawn(root: str, mode: str, jobs: list, timeout: float) -> dict:
    """Run one worker to completion; add its set-up time to the result."""
    cfg = json.dumps({"root": root, "mode": mode, "rings": job_rings(jobs), "jobs": jobs})
    # bytecode caching on, as for an installed command; a fixed hash seed
    # keeps dict and set layouts, and so timings, the same between passes
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, WORKER], input=cfg, capture_output=True,
                          text=True, timeout=max(timeout, 1.0), env=env, cwd=root)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"{mode} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = res["setup_end"] - t0
    # the worker's own start, before censym is imported, is the yardstick
    res["ref_setup_s"] = reference.START_S * res["setup_s"] / (res["started"] - t0)
    return res


def failed_jobs(res: dict, jobs: list, expected: dict) -> list:
    """Labels of jobs that raised or disagree with the expected-verdict table."""
    bad = []
    for job, got in zip(jobs, res["jobs"]):
        label = job_label(job)
        want = expected.get(label)
        if (want is None or got["error"] is not None or got["exit"] != want["exit"]
                or got["verdicts"] != want["verdicts"]):
            bad.append(label)
    return bad


def timed_run(root, jobs, seconds, deadline):
    probes = [spawn(root, "setup", jobs, deadline - time.monotonic())
              for _ in range(SETUP_PROBES)]
    passes = []
    start = time.monotonic()
    while True:
        passes.append(spawn(root, "plain", jobs, deadline - time.monotonic()))
        now = time.monotonic()
        per_pass = (now - start) / len(passes)
        if len(passes) >= MIN_PASSES and now + per_pass > start + seconds:
            break
        if now + 1.5 * per_pass > deadline:
            break
    workers = probes + passes
    metrics = {
        "ref_wall_s": (statistics.median(p["ref_wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(w["ref_setup_s"] for w in workers), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    notes = [f"{len(passes)} passes, ref_wall_s each: "
             + ", ".join(f"{p['ref_wall_s']:.3f}" for p in passes),
             "host-clock wall_s each: " + ", ".join(f"{p['wall_s']:.3f}" for p in passes),
             f"{len(workers)} set-ups, medians: setup_s {metrics['setup_s'][0]:.4f} s, "
             f"host-clock {statistics.median(w['setup_s'] for w in workers):.4f} s"]
    for k, job in enumerate(jobs):
        job_median = statistics.median(p["job_s"][k] for p in passes)
        notes.append(f"job {job_label(job)}: host-clock median {job_median:.3f} s")
    return passes, metrics, notes


def traced_run(root, jobs, deadline):
    plain = spawn(root, "plain", jobs, deadline - time.monotonic())
    traced = spawn(root, "traced", jobs, deadline - time.monotonic())
    counted = spawn(root, "counted", jobs, deadline - time.monotonic())
    metrics = layer_metrics(traced, counted, plain)
    notes = [
        "rings.* count Ring method calls at the innermost base ring; zero tests "
        "are payload comparisons (x != zero), not Ring calls, and are not counted",
        f"ref_wall_s plain {plain['ref_wall_s']:.3f}, traced {traced['ref_wall_s']:.3f}, "
        f"counted {counted['ref_wall_s']:.3f}",
    ]
    absent = [name for name, (value, unit) in metrics.items() if unit != "ratio" and not value]
    if absent:
        notes.append("no calls on this workload: " + ", ".join(absent))
    return [plain, traced, counted], metrics, notes


def write_trace(root, workload, seed, passes):
    plain, traced, counted = passes
    path = os.path.join(root, OUT_DIR, f"trace-{workload}-seed{seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    doc = {
        "workload": workload,
        "seed": seed,
        "stats": {k: dict(zip(("calls", "inclusive_s", "self_s", "raised"), v))
                  for k, v in sorted(traced["stats"].items())},
        "module_s": traced["module_s"],
        "ring_counts": counted["ring_counts"],
        "spans": [dict(zip(("id", "parent", "name", "start", "end"), s))
                  for s in traced["spans"]],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "censym", "__init__.py")):
        print(f"error: no censym source tree at {os.path.join(root, 'src', 'censym')}",
              file=sys.stderr)
        return 2
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]
    jobs = WORKLOADS[args.workload](args.seed)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            passes, metrics, notes = traced_run(root, jobs, deadline)
        else:
            passes, metrics, notes = timed_run(root, jobs, args.seconds, deadline)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = [failed_jobs(res, jobs, expected) for res in passes]
    attempted = len(jobs) * len(passes)
    failed = sum(len(f) for f in failures)
    digests = {res["digest"] for res in passes}
    restored = all(res["restored"] for res in passes)
    correct = failed == 0 and len(digests) == 1 and restored

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for label in sorted({label for f in failures for label in f}):
        print(f"  FAILED: {label}")
    if len(digests) != 1:
        print("  FAILED: report bytes differ between passes of the same seed")
    if not restored:
        print("  FAILED: instrumentation did not restore every censym binding")
    print(f"  report digest sha256 {sorted(digests)[0]}")
    print(f"  fail_share {failed / attempted:g} ({failed} of {attempted} jobs)")
    if args.trace:
        print(f"  trace written to {write_trace(root, args.workload, args.seed, passes)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
