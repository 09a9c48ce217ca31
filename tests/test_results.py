"""The check runner: status, witness, case count and timing."""

from __future__ import annotations

from hopfbench.results import Check, CheckResult, invert_expected_failure


def test_check_without_witness_passes():
    chk = Check("c", "exhaustive")
    for _ in range(3):
        chk.cases += 1
    res = chk.result()
    assert isinstance(res, CheckResult)
    assert (res.name, res.status, res.mode, res.cases_checked, res.witness) \
        == ("c", "pass", "exhaustive", 3, None)
    assert res.ok and res.elapsed > 0


def test_check_with_witness_fails_and_keeps_it():
    chk = Check("c", "sample(n=5,seed=1)", cases=2)
    res = chk.result("x=1: lhs != rhs")
    assert res.status == "fail" and not res.ok
    assert res.witness == "x=1: lhs != rhs"
    assert res.mode == "sample(n=5,seed=1)" and res.cases_checked == 2
    assert res.elapsed > 0


def test_check_result_feeds_invert_expected_failure():
    found = invert_expected_failure(Check("inner", "generators").result("w"),
                                    "outer")
    assert (found.name, found.status, found.witness) == ("outer", "pass", "w")
    missed = invert_expected_failure(Check("inner", "generators").result(),
                                     "outer")
    assert missed.status == "fail"
