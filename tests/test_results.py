"""The check runner: status, witness, case count and timing; and the one
case loop, `Walk.failure`, that every tuple walk runs."""

from __future__ import annotations

import pytest

from hopfbench.results import (Check, CheckResult, TupleWalks, Walk,
                               invert_expected_failure)


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


def _counting(tuples, seen):
    """Yield `tuples`, recording each one as it is consumed."""
    for t in tuples:
        seen.append(t)
        yield t


def test_walk_counts_one_case_per_tuple_and_runs_the_certificate_last():
    order = []
    walk = Walk("exhaustive", _counting([(0, 1), (1, 0), (1, 1)], order),
                certificate=lambda: order.append("certificate"))
    chk = Check("c", walk.label)
    assert walk.failure(chk, lambda i, j: None) is None
    assert chk.cases == 3
    assert order == [(0, 1), (1, 0), (1, 1), "certificate"]


def test_walk_stops_at_the_first_witness_and_leaves_the_rest():
    seen = []
    tuples = iter([(0,), (1,), (2,), (3,)])
    walk = Walk("exhaustive", _counting(tuples, seen),
                certificate=lambda: pytest.fail("certificate ran"))
    chk = Check("c", walk.label)
    wit = walk.failure(chk, lambda i: f"bad {i}" if i == 1 else None)
    assert (wit, chk.cases, seen) == ("bad 1", 2, [(0,), (1,)])
    assert list(tuples) == [(2,), (3,)]


def test_walk_prelude_witness_skips_tuples_and_certificate():
    seen = []

    def prelude(chk):
        chk.cases += 5
        return "prelude failed"

    walk = Walk("generators", _counting([(0,), (1,)], seen), prelude=prelude,
                certificate=lambda: pytest.fail("certificate ran"))
    chk = Check("c", walk.label)
    assert walk.failure(chk, lambda i: pytest.fail("case ran")) \
        == "prelude failed"
    assert (chk.cases, seen) == (5, [])


def test_walk_certificate_witness_comes_after_every_tuple_passes():
    walk = Walk("generators", iter([(0,), (1,)]), prelude=lambda chk: None,
                certificate=lambda: "rank 1 of 2")
    chk = Check("c", walk.label)
    assert walk.failure(chk, lambda i: None) == "rank 1 of 2"
    assert chk.cases == 2


def test_generators_walk_without_a_generator_slot_is_exhaustive():
    walks = TupleWalks("generators", 1, 4)
    walk = walks.over((2, 3), (None, None))
    assert walk.label == "exhaustive"
    assert list(walk.tuples) == [(i, j) for i in range(2) for j in range(3)]
    mixed = walks.over((2, 3), ({1}, None))
    assert mixed.label == "generators+sample(n=4,seed=1)"
    assert len(list(mixed.tuples)) == 3 + 4


def test_a_walk_is_walked_once():
    """A lemma walk gives itself for its law and refuses a second walk;
    the run's tuple walks give each law a fresh walk with the same draws."""
    walk = Walk("generators", iter([(0,), (1,)]))
    assert walk.over((2,), (None,)) is walk
    assert walk.failure(Check("first", walk.label), lambda i: None) is None
    with pytest.raises(RuntimeError, match="'second' was already walked"):
        walk.failure(Check("second", walk.label), lambda i: None)
    walks = TupleWalks("sample", 3, 5)
    one, two = walks.over((7, 7), (None, None)), walks.over((7, 7), (None, None))
    assert one is not two and list(one.tuples) == list(two.tuples)
