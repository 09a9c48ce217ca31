"""Check results and the runner that every verification pass builds them with.

A check creates one `Check` where its work starts, counts its cases on it
and ends with `Check.result(witness)`: the result fails exactly when a
witness (a rendered counterexample) is given.  Results whose status does
not follow from a witness -- skipped checks and inverted expected
failures -- build `CheckResult` directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

__all__ = ["CheckResult", "Check", "summarize", "invert_expected_failure"]


@dataclass
class CheckResult:
    """Outcome of one named verification pass.

    status is "pass", "fail" or "skipped"; mode records how the claim
    was covered ("exhaustive", "generators", "sampled", "skipped");
    witness holds a rendered counterexample for failures.
    """

    name: str
    status: str
    mode: str
    cases_checked: int = 0
    witness: Optional[str] = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "mode": self.mode,
            "cases_checked": self.cases_checked,
            "witness": self.witness,
        }

    def line(self) -> str:
        flag = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[self.status]
        extra = f"  [{self.mode}, {self.cases_checked} cases]"
        msg = f"{flag:4s}  {self.name}{extra}"
        if self.witness:
            msg += f"\n      witness: {self.witness}"
        return msg


class Check:
    """One running check: its name, coverage tag, case count and timer.

    The timer starts at construction; `result` stops it.
    """

    __slots__ = ("name", "mode", "cases", "t0")

    def __init__(self, name: str, mode: str, cases: int = 0):
        self.name = name
        self.mode = mode
        self.cases = cases
        self.t0 = time.perf_counter()

    def result(self, witness: Optional[str] = None) -> CheckResult:
        """Fail with the witness when one is given, pass otherwise."""
        return CheckResult(self.name, "pass" if witness is None else "fail",
                           self.mode, self.cases, witness,
                           time.perf_counter() - self.t0)


def summarize(results: list) -> tuple[int, int, int]:
    """(passed, failed, skipped) counts."""
    p = sum(1 for r in results if r.status == "pass")
    f = sum(1 for r in results if r.status == "fail")
    s = sum(1 for r in results if r.status == "skipped")
    return p, f, s


def invert_expected_failure(res: CheckResult, name: str) -> CheckResult:
    """Wrap a check whose *failure* is the claim being verified.

    The wrapped result passes exactly when the inner check found a
    counterexample; the counterexample is kept as the witness so the
    failure it certifies can be replayed.
    """
    if res.status == "fail":
        return CheckResult(name, "pass", res.mode, res.cases_checked,
                           res.witness, res.elapsed)
    if res.status == "pass":
        return CheckResult(name, "fail", res.mode, res.cases_checked,
                           "expected a counterexample; none found",
                           res.elapsed)
    return CheckResult(name, res.status, res.mode, res.cases_checked,
                       res.witness, res.elapsed)
