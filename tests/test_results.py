"""The one case loop, `run_check`: status, witness, case count and
timing, and the walk bodies, `Walk.cases`, that every tuple walk runs
through it."""

from __future__ import annotations

import random
import time

import pytest

from hopfbench.results import (CheckResult, TupleWalks, Walk,
                               certificate_check, invert_expected_failure,
                               run_check)


class SampleWalks:
    """Seeded random tuples only, a fresh `Walk` for each law, labelled
    "sample(n=N,seed=S)": the walk of a sampled law, which no suite draws
    (the run's `TupleWalks` head each sample with generators), kept for
    the tests that want evidence on a space too large to walk.  The
    tuples are drawn from `random.Random(seed)`, slot by slot."""

    __slots__ = ("seed", "samples")

    def __init__(self, seed: int, samples: int):
        self.seed = seed
        self.samples = samples

    def over(self, dims: tuple, gen_sets: tuple) -> Walk:
        rng = random.Random(self.seed)
        return Walk(f"sample(n={self.samples},seed={self.seed})",
                    (tuple(rng.randrange(d) for d in dims)
                     for _ in range(self.samples)))


def test_check_without_witness_passes():
    """A plain iterable is a body: a list of cases that hold."""
    res = run_check("c", "exhaustive", [None] * 3)
    assert isinstance(res, CheckResult)
    assert (res.name, res.status, res.mode, res.cases_checked, res.witness) \
        == ("c", "pass", "exhaustive", 3, None)
    assert res.ok and res.elapsed > 0


def test_check_with_witness_fails_and_keeps_it():
    res = run_check("c", "sample(n=5,seed=1)", iter([None, "x=1: lhs != rhs"]))
    assert res.status == "fail" and not res.ok
    assert res.witness == "x=1: lhs != rhs"
    assert res.mode == "sample(n=5,seed=1)" and res.cases_checked == 2
    assert res.elapsed > 0


def test_check_result_feeds_invert_expected_failure():
    found = invert_expected_failure(run_check("inner", "generators", ["w"]),
                                    "outer")
    assert (found.name, found.status, found.witness) == ("outer", "pass", "w")
    missed = invert_expected_failure(run_check("inner", "generators", ()),
                                     "outer")
    assert missed.status == "fail"


def test_a_body_is_not_resumed_after_its_first_witness():
    def body():
        yield None
        yield "bad"
        pytest.fail("body resumed after its witness")

    res = run_check("c", "exhaustive", body())
    assert (res.status, res.cases_checked, res.witness) == ("fail", 2, "bad")


def test_a_returned_witness_counts_no_case():
    def body():
        yield None
        yield None
        return "certificate failed"

    res = run_check("c", "generators", body())
    assert (res.status, res.cases_checked, res.witness) \
        == ("fail", 2, "certificate failed")


def test_elapsed_covers_the_work_of_the_body():
    def body():
        time.sleep(0.02)
        yield None

    assert run_check("c", "exhaustive", body()).elapsed >= 0.02


def test_a_certificate_counts_its_cases_at_once():
    ran = []
    res = certificate_check("c", 4, lambda: ran.append(1) or "rank 3 of 4")
    assert (res.status, res.mode, res.cases_checked, res.witness) \
        == ("fail", "exhaustive", 4, "rank 3 of 4")
    assert ran == [1]
    assert certificate_check("c", 4, lambda: None).cases_checked == 4


def _counting(tuples, seen):
    """Yield `tuples`, recording each one as it is consumed."""
    for t in tuples:
        seen.append(t)
        yield t


def test_walk_counts_one_case_per_tuple_and_runs_the_certificate_last():
    order = []
    walk = Walk("exhaustive", _counting([(0, 1), (1, 0), (1, 1)], order),
                certificate=lambda: order.append("certificate"))
    res = walk.check("c", lambda i, j: None)
    assert (res.status, res.mode, res.cases_checked) \
        == ("pass", "exhaustive", 3)
    assert order == [(0, 1), (1, 0), (1, 1), "certificate"]


def test_walk_stops_at_the_first_witness_and_leaves_the_rest():
    seen = []
    tuples = iter([(0,), (1,), (2,), (3,)])
    walk = Walk("exhaustive", _counting(tuples, seen),
                certificate=lambda: pytest.fail("certificate ran"))
    res = walk.check("c", lambda i: f"bad {i}" if i == 1 else None)
    assert (res.witness, res.cases_checked, seen) == ("bad 1", 2, [(0,), (1,)])
    assert list(tuples) == [(2,), (3,)]


def test_walk_prelude_witness_skips_tuples_and_certificate():
    seen = []

    def prelude():
        yield from [None] * 4
        yield "prelude failed"

    walk = Walk("generators", _counting([(0,), (1,)], seen), prelude=prelude(),
                certificate=lambda: pytest.fail("certificate ran"))
    res = walk.check("c", lambda i: pytest.fail("case ran"))
    assert (res.witness, res.cases_checked, seen) == ("prelude failed", 5, [])


def test_walk_certificate_witness_comes_after_every_tuple_passes():
    walk = Walk("generators", iter([(0,), (1,)]), prelude=iter(()),
                certificate=lambda: "rank 1 of 2")
    res = walk.check("c", lambda i: None)
    assert (res.witness, res.cases_checked) == ("rank 1 of 2", 2)


def test_a_check_head_comes_before_the_prelude_and_a_walk_composes():
    order = []

    def part(tag, n):
        for _ in range(n):
            order.append(tag)
            yield None

    walk = Walk("generators", iter([(0,)]), prelude=part("prelude", 2),
                certificate=lambda: "closed badly")

    def body():
        wit = yield from walk.cases("c", lambda i: order.append("tuple"),
                                    head=part("head", 1))
        if wit is not None:
            return f"walk: {wit}"
        yield "the tail must not run"

    res = run_check("c", walk.label, body())
    assert order == ["head", "prelude", "prelude", "tuple"]
    assert (res.witness, res.cases_checked) == ("walk: closed badly", 4)


def test_a_generators_walk_needs_a_generator_slot():
    """With no slot to head, a generators walk has no lemma to rest on:
    it is an error, as a lemma walk on an algebra without generators is,
    whatever the size of the space.  An exhaustive walk needs none."""
    walks = TupleWalks("generators", 1, 4)
    for dims in ((2, 3), (1, 2)):
        with pytest.raises(ValueError, match="needs a generator slot"):
            walks.over(dims, (None, None))
    walk = TupleWalks("exhaustive", 1, 4).over((2, 3), (None, None))
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
    assert walk.check("first", lambda i: None).status == "pass"
    with pytest.raises(RuntimeError, match="'second' was already walked"):
        walk.check("second", lambda i: None)
    walks = TupleWalks("generators", 3, 5)
    one, two = walks.over((7, 7), ({0}, None)), walks.over((7, 7), ({0}, None))
    assert one is not two and list(one.tuples) == list(two.tuples)
