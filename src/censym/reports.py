"""Structured pass/fail reports shared by the verification suites and the CLI.

Verdicts: ``pass`` and ``fail`` are conclusive; ``unknown`` means the theory
implemented here is silent (e.g. splitness without an invertible 2);
``undetermined`` means exact elimination could not certify freeness over a
non-field ring.  Only ``fail`` signals a contradiction.
"""

from __future__ import annotations


PASS = "pass"
FAIL = "fail"
UNKNOWN = "unknown"
UNDETERMINED = "undetermined"


class Report:
    def __init__(self, check: str, params: dict | None = None, verdict: str = PASS,
                 witness: dict | None = None, counterexample: dict | None = None,
                 clauses: dict | None = None):
        self.check, self.verdict, self.clauses = check, verdict, clauses
        self.params = {} if params is None else params
        self.witness, self.counterexample = witness, counterexample

    def to_json_dict(self) -> dict:
        out = {
            "check": self.check,
            "params": self.params,
            "verdict": self.verdict,
            "witness": self.witness,
            "counterexample": self.counterexample,
        }
        if self.clauses is not None:
            out["clauses"] = self.clauses
        return out

    def summary_line(self) -> str:
        bits = [f"{k}={v}" for k, v in self.params.items()]
        head = f"[{self.verdict.upper():>12}] {self.check}"
        if bits:
            head += " (" + ", ".join(bits) + ")"
        return head


def combine_clauses(check: str, params: dict, clauses: dict,
                    witness: dict | None = None,
                    counterexample: dict | None = None) -> Report:
    """Fold per-clause verdicts into one report; fail dominates undetermined."""
    verdict = PASS
    for v in clauses.values():
        if v == FAIL:
            verdict = FAIL
            break
        if v == UNDETERMINED:
            verdict = UNDETERMINED
    return Report(check, params, verdict, witness, counterexample, clauses)
