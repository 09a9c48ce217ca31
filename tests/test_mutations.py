"""Every deliberately corrupted fixture must be caught with a witness."""

from __future__ import annotations

import pytest

from hopfbench.mutations import MUTATIONS, run_mutation
from hopfbench.results import TupleWalks

# the negative controls' walks in the mutations suite
CONTROLS = TupleWalks("generators", 0, 10_000)

EXPECTED_WITNESS = {
    "taft-antipode-sign":
        "[antipode-convolution] m(S(x)id)comult != unit*counit on E",
    "double-antipode-conjugate":
        "[antipode-convolution] m(S(x)id)comult != unit*counit on F(x)1",
    "action-conjugation-dropped":
        "[module-algebra] M=1(x)k: M|>1 != counit(M) 1",
    "factor-coaction-swapped":
        "[comodule-coaction] coaction not coassociative at x=F",
    "hdouble-coaction-swapped":
        "[comodule-coaction] coaction not coassociative at x=1#E",
    "eta-arguments-swapped":
        "[eta-twist-swapped] products of (1#k, kap#1) differ: "
        "-q^(3/2)*kap#k vs kap#k",
    "trivial-coaction":
        "[yd-condition] M=1(x)E, A=1#k: YD compatibility fails",
}


def test_registry_is_complete():
    assert len(MUTATIONS) >= 6
    assert set(MUTATIONS) == set(EXPECTED_WITNESS)


@pytest.mark.parametrize("tag", sorted(MUTATIONS))
def test_mutation_is_detected(tag):
    res = run_mutation(tag, 2, CONTROLS)
    assert res.status == "fail"
    assert res.name == f"mutation-{tag}"
    assert res.witness == EXPECTED_WITNESS[tag]


def test_eta_fixture_walks_every_pair_to_the_first_that_differs():
    """The eta fixture has no generator slot, so the pinned generators walk
    is every pair in order: (1#k, kap#1) is pair 273 of H(B*) at p=2."""
    res = run_mutation("eta-arguments-swapped", 2, CONTROLS)
    assert (res.status, res.mode, res.cases_checked) == ("fail", "exhaustive",
                                                         273)
    assert "(1#k, kap#1)" in res.witness


def test_suite_runs_in_registry_order():
    suite = [run_mutation(tag, 2, CONTROLS) for tag in MUTATIONS]
    assert [r.name for r in suite] == [f"mutation-{t}" for t in MUTATIONS]
    assert all(r.status == "fail" and r.witness for r in suite)


def test_unknown_tag_raises():
    with pytest.raises(KeyError):
        run_mutation("no-such-fixture", 2, CONTROLS)
