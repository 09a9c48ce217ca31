"""Tests for Hopf-ideal quotients, sub-Hopf extraction, and transport."""

from __future__ import annotations

import pytest

from hopfbench.hopf import check_hopf_axioms
from hopfbench.sparse import Subspace, span_closure, veq, vsub
from hopfbench.taft import (double_elements, heis_elements, taft_system,
                            uqsl2)
from hopfbench.truncate import (change_basis_hopf, check_hopf_ideal,
                                hopf_quotient, quotient_morphism_check,
                                sub_hopf, transport_action)


@pytest.fixture(scope="module")
def sys2():
    return taft_system(2)


@pytest.fixture(scope="module")
def primal(sys2):
    return sys2.pair.primal


def _lab(H):
    return {lab: i for i, lab in enumerate(H.space.labels)}


def test_group_like_ideal_collapses_everything_else(primal, sys2):
    """The ideal (k - 1) is a Hopf ideal; the quotient forces E = 0
    (from kE = qEk) and is one-dimensional."""
    ctx = sys2.ctx
    lab = _lab(primal)
    k1 = vsub({lab[(0, 1)]: ctx.one}, {lab[(0, 0)]: ctx.one})
    gens = [{lab[(1, 0)]: ctx.one}, {lab[(0, 1)]: ctx.one}]
    ideal = span_closure([k1], primal.product, primal.dim, mode="ideal",
                         generators=gens)
    assert ideal.rank == 15
    res = check_hopf_ideal(primal, ideal, name="k1-ideal")
    assert res.status == "pass"
    assert res.cases_checked == 105
    hq = hopf_quotient(primal, ideal, name="T/(k-1)")
    assert hq.quotient.dim == 1
    axioms = check_hopf_axioms(hq.quotient, mode="exhaustive")
    assert all(r.status == "pass" for r in axioms)


def test_non_ideal_is_rejected(primal, sys2):
    span = Subspace(primal.dim)
    span.add({_lab(primal)[(1, 0)]: sys2.ctx.one})
    res = check_hopf_ideal(primal, span, name="span-E")
    assert res.status == "fail"
    assert res.witness == "left multiple escapes: row E"


def test_sub_hopf_rejects_non_subcoalgebra(primal):
    lab = _lab(primal)
    sub = sub_hopf(primal, [lab[(0, 0)], lab[(1, 0)]], name="one-E")
    assert sub.hopf is None
    assert sub.check.status == "fail"
    assert sub.check.witness == "coproduct of E has a leg outside the span"


def test_group_algebra_sub_hopf(primal):
    lab = _lab(primal)
    sub = sub_hopf(primal, [lab[(0, j)] for j in range(8)],
                   generators=[1], name="group")
    assert sub.check.status == "pass"
    assert sub.check.cases_checked == 73
    assert sub.hopf.dim == 8
    axioms = check_hopf_axioms(sub.hopf, mode="exhaustive")
    assert all(r.status == "pass" for r in axioms)


def test_quotient_round_trip(primal, sys2):
    """project . section is the identity on quotient coordinates."""
    ctx = sys2.ctx
    lab = _lab(primal)
    k1 = vsub({lab[(0, 1)]: ctx.one}, {lab[(0, 0)]: ctx.one})
    gens = [{lab[(1, 0)]: ctx.one}, {lab[(0, 1)]: ctx.one}]
    ideal = span_closure([k1], primal.product, primal.dim, mode="ideal",
                         generators=gens)
    hq = hopf_quotient(primal, ideal)
    for i in range(hq.quotient.dim):
        v = hq.project(hq.section({i: ctx.one}))
        assert veq(v, {i: ctx.one})


def test_change_basis_preserves_hopf_axioms(primal, sys2):
    ctx = sys2.ctx
    vecs = [{i: ctx.q_pow(i % 8)} for i in range(primal.dim)]
    labels = [f"b{i}" for i in range(primal.dim)]
    rescaled = change_basis_hopf(primal, vecs, labels, name="rescaled")
    assert rescaled.dim == primal.dim
    axioms = check_hopf_axioms(rescaled, mode="exhaustive")
    assert all(r.status == "pass" for r in axioms)


def test_double_quotient_dimensions(sys2):
    uq = uqsl2(2)
    assert uq.dbar.dim == 32            # 4 p^3
    assert uq.hopf.dim == 16            # 2 p^3
    by_name = {c.name: c for c in uq.checks}
    ideal_check = by_name["uq-ideal-hopf"]
    assert ideal_check.status == "pass"
    assert ideal_check.cases_checked == 2720
    closure = by_name["Uq(p=2)-closure"]
    assert closure.status == "pass"
    assert closure.cases_checked == 273


def test_quotient_morphism(sys2):
    uq = uqsl2(2)
    res = quotient_morphism_check(uq.hq)
    assert (res.status, res.mode) == ("pass", "generators")
    # pi(1), 4 generator indices x 256, then Delta/eps/S on 256 vectors
    assert res.cases_checked == 1 + 4 * 256 + 256


def test_unit_seed_ideal_is_everything(sys2):
    """lam^4 squares to -1, so the ideal generated by lam^4 - 1 contains
    (lam^4 - 1) + lam^4 (lam^4 - 1) = lam^8 - 1 = -2 and collapses."""
    ctx = sys2.ctx
    A = sys2.heis.algebra
    g = heis_elements(sys2)
    d = double_elements(sys2)
    v = dict(A.unit)
    for _ in range(4):
        v = A.product(v, g["lam"])
    seed = vsub(v, dict(A.unit))
    ideal = span_closure([seed], A.product, A.dim, mode="ideal",
                         generators=[g["z"], g["lam"], g["del"], d["kap"]])
    assert ideal.rank == A.dim


@pytest.mark.parametrize("p", [2, 3])
def test_transport_to_z_line(p):
    """The powers of z form an action-stable subalgebra: transport yields
    a truncated polynomial line with the inherited action."""
    s = taft_system(p)
    g = heis_elements(s)
    d = double_elements(s)
    A = s.heis.algebra
    zpow = [dict(A.unit)]
    for _ in range(p - 1):
        zpow.append(A.product(zpow[-1], g["z"]))
    ts = transport_action(s.yd, zpow, [f"z^{a}" for a in range(p)],
                          prefix="z-only")
    assert ts.ok
    assert ts.yd is not None
    assert {c.name for c in ts.certificates} == {
        "z-only-sub-closure", "z-only-action-stable",
        "z-only-ideal-stable", "z-only-coaction-corestricts"}

    (ei,) = tuple(d["E"])
    row = dict(ts.yd.action.row(ei, 1))
    zz = dict(ts.yd.algebra.mult.get(1, 1))
    if p == 2:
        assert row == {} and zz == {}
    else:
        ctx = s.ctx
        assert veq(row, {2: -ctx.q})
        assert veq(zz, {2: ctx.one})
