"""The three fixed job lists of the censym benchmark.

A job is either a ``censym`` command line, run through ``censym.cli.main``
exactly as the console script runs it, or one library call.  The workload
seed reaches the program only as ``--seed``; ``witness-large`` runs no
check that draws random input, so its seed is inert.
"""

from __future__ import annotations

SWEEP_RINGS = ("int", "gf:2", "zmod:4", "c2:int")
RAT_SIZES = tuple(range(1, 8))
WITNESS_RINGS = ("gf:5", "c2:int")
WITNESS_SIZES = (9, 10, 11, 12)
WITNESS_CHECKS = "structure-constants,isos,cellchain,heredity,centre"
VALIDATE_SIZE = 9


def cli_job(argv: list) -> dict:
    return {"kind": "cli", "argv": argv}


def validate_job(ring: str, n: int) -> dict:
    return {"kind": "validate", "ring": ring, "n": n}


def verify_sweep(seed: int) -> list:
    return [cli_job(["verify", "--json", "--seed", str(seed), "--ring", r])
            for r in SWEEP_RINGS]


def verify_rat(seed: int) -> list:
    return [cli_job(["verify", "--json", "--seed", str(seed), "--ring", "rat",
                     "--n", str(n)])
            for n in RAT_SIZES]


def witness_large(seed: int) -> list:
    del seed  # no check in this list draws random input
    jobs = []
    for r in WITNESS_RINGS:
        for n in WITNESS_SIZES:
            jobs.append(cli_job(["verify", "--json", "--n", str(n), "--ring", r,
                                 "--check", WITNESS_CHECKS]))
        jobs.append(validate_job(r, VALIDATE_SIZE))
    return jobs


WORKLOADS = {
    "verify-sweep": verify_sweep,
    "verify-rat": verify_rat,
    "witness-large": witness_large,
}


def job_label(job: dict) -> str:
    """Seed-free name of a job, the key of the expected-verdict table."""
    if job["kind"] == "validate":
        return f"validate --ring {job['ring']} --n {job['n']}"
    argv = list(job["argv"])
    if "--seed" in argv:
        k = argv.index("--seed")
        del argv[k:k + 2]
    return " ".join(argv)


def job_rings(jobs: list) -> list:
    """Distinct ring literals named by a job list, in first-use order."""
    out = []
    for job in jobs:
        lit = job["ring"] if job["kind"] == "validate" else job["argv"][job["argv"].index("--ring") + 1]
        if lit not in out:
            out.append(lit)
    return out
