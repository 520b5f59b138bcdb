"""One benchmark pass in a fresh interpreter.

Reads a JSON config on stdin: the checkout root, a mode (``setup``,
``plain``, ``traced`` or ``counted``), the ring literals and the job list.
Stamps the moment its interpreter is up, imports censym from
``<root>/src``, parses the rings, and stamps the end of set-up, both on the
system-wide monotonic clock, which the parent compares with the moment it
started this process.  Then it runs the jobs in order, sampling the host's
speed (``reference.Sampler``), and prints one JSON line with the timings,
every job's exit code and report verdicts, and a digest of the
concatenated report bytes.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()  # the interpreter is up; censym is not imported yet

import contextlib
import hashlib
import io
import json
import os
import resource
import sys


def main() -> int:
    cfg = json.load(sys.stdin)
    sys.path.insert(0, os.path.join(cfg["root"], "src"))
    import censym
    from censym import cli, rings

    for lit in cfg["rings"]:
        rings.ring_from_literal(lit)
    setup_end = time.monotonic()
    if cfg["mode"] == "setup":
        print(json.dumps({"started": STARTED, "setup_end": setup_end}))
        return 0

    import instrument
    import reference
    from workloads import job_label

    before = instrument.snapshot(censym)
    tracer = counter = None
    if cfg["mode"] == "traced":
        tracer = instrument.Tracer(censym)
        tracer.install()
    elif cfg["mode"] == "counted":
        counter = instrument.RingCounter(rings)
        counter.install(censym)

    def run(job):
        if job["kind"] == "cli":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(job["argv"])
            return code, buf.getvalue()
        ring = censym.ring_from_literal(job["ring"])
        defects = censym.algebra_of_censym(ring, job["n"]).validate()
        return (1 if defects else 0), json.dumps({"defects": defects}, indent=2) + "\n"

    results = []
    job_s = []
    with reference.Sampler() as sampler:
        t_first = time.perf_counter()
        for job in cfg["jobs"]:
            t_job = time.perf_counter()
            try:
                if tracer is not None:
                    code, text = tracer.job(job_label(job), run, job)
                else:
                    code, text = run(job)
                results.append((code, text, None))
            except Exception as exc:  # a job that raises is a failed job, not a crash
                results.append((None, "", f"{type(exc).__name__}: {exc}"))
            job_s.append(time.perf_counter() - t_job)
        wall_s = time.perf_counter() - t_first
    samples = sampler.samples
    wall_s -= sum(samples)
    if len(samples) < reference.BURST:  # a pass too short to sample
        samples = samples + reference.burst()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
    if counter is not None:
        counter.uninstall()
    after = instrument.snapshot(censym)
    restored = before.keys() == after.keys() and all(before[k] is after[k] for k in before)

    digest = hashlib.sha256()
    jobs_out = []
    for code, text, error in results:
        digest.update(text.encode())
        jobs_out.append({"exit": code, "error": error, "verdicts": verdicts(text)})
    out = {
        "started": STARTED,
        "setup_end": setup_end,
        "wall_s": wall_s,
        "ref_wall_s": wall_s * reference.speed(samples),
        "speed_samples": len(samples),
        "job_s": job_s,
        "peak_rss_mb": peak_rss_mb,
        "digest": digest.hexdigest(),
        "output_bytes": sum(len(text.encode()) for _, text, _ in results),
        "restored": restored,
        "jobs": jobs_out,
    }
    if tracer is not None:
        out["stats"] = tracer.stats
        out["module_s"] = tracer.module_s
        out["sc_cold"] = tracer.sc_cold
        out["sc_cold_s"] = tracer.sc_cold_s
        out["inserts_grown"] = tracer.inserts_grown
        out["spans"] = tracer.spans
    if counter is not None:
        out["ring_counts"] = counter.totals()
    print(json.dumps(out))
    return 0


def verdicts(text: str) -> list:
    """[label, verdict] per report; the label leaves out seed-dependent params."""
    try:
        doc = json.loads(text)
    except ValueError:
        return []
    if "defects" in doc:
        return [["validate", "fail" if doc["defects"] else "pass"]]
    out = []
    for rep in doc.get("reports", []):
        params = {k: v for k, v in rep["params"].items() if k != "seed"}
        out.append([f"{rep['check']} {json.dumps(params, sort_keys=True)}", rep["verdict"]])
    return out


if __name__ == "__main__":
    sys.exit(main())
