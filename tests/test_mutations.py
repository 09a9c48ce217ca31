"""Every deliberately corrupted fixture must be caught with a witness."""

from __future__ import annotations

import pytest

from hopfbench import mutations
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
        "[eta-twist-swapped] R(k (x) kap) differs: "
        "kap (x) k vs -q^(3/2)*kap (x) k",
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


def test_eta_fixture_fails_the_r_rows_at_r_k_kap():
    """The eta fixture's line walks D(B)'s tensor coalgebra (256 cases),
    the pairing's unit law (16) and the two factor tables (512) before
    the R rows, and R_eta is D(B)'s R: R(k (x) kap), the 18th row, is the
    first that differs from H(B*)'s."""
    res = run_mutation("eta-arguments-swapped", 2, CONTROLS)
    assert (res.status, res.mode, res.cases_checked) == ("fail", "exhaustive",
                                                         256 + 16 + 512 + 18)


def test_a_fixture_stops_at_its_first_failed_check(monkeypatch):
    """run_mutation stops pulling a builder's checks at the first that
    fails: action-conjugation-dropped fails module-algebra, so its
    module-action walk (769 cases at p=2) is never built."""
    built = []
    monkeypatch.setattr(mutations, "check_module",
                        lambda *args: built.append(args))
    res = run_mutation("action-conjugation-dropped", 2, CONTROLS)
    assert res.witness.startswith("[module-algebra] ")
    assert built == []


def test_suite_runs_in_registry_order():
    suite = [run_mutation(tag, 2, CONTROLS) for tag in MUTATIONS]
    assert [r.name for r in suite] == [f"mutation-{t}" for t in MUTATIONS]
    assert all(r.status == "fail" and r.witness for r in suite)


def test_unknown_tag_raises():
    with pytest.raises(KeyError):
        run_mutation("no-such-fixture", 2, CONTROLS)
