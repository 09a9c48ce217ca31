"""Tests for the root-of-unity algebra family and its monomial dual."""

from __future__ import annotations

import pytest

from hopfbench.cyclo import QContext
from hopfbench.hopf import check_hopf_axioms, check_hopf_pairing
from hopfbench.sparse import veq
from hopfbench.taft import (
    closed_form_smash_row, taft_algebra, taft_dual_monomial, taft_setup,
)


def all_pass(results):
    bad = [r for r in results if r.status == "fail"]
    assert not bad, "\n".join(r.line() for r in bad)


@pytest.fixture(scope="module", params=[2, 3])
def setup(request):
    return taft_setup(request.param)


def test_dimensions(setup):
    p = setup.ctx.p
    assert setup.primal.dim == 4 * p * p
    assert setup.dual.dim == 4 * p * p


def test_primal_hopf_axioms(setup):
    all_pass(check_hopf_axioms(setup.primal, include_antihom=True))


def test_dual_hopf_axioms(setup):
    all_pass(check_hopf_axioms(setup.dual, include_antihom=True))


def test_primal_relations(setup):
    B = setup.primal
    ctx = setup.ctx
    p, order = ctx.p, 4 * ctx.p
    E = B.element((1, 0))
    k = B.element((0, 1))
    # k E = q E k
    lhs = B.product(k, E)
    rhs = {B.space.index[(1, 1)]: ctx.q}
    assert veq(lhs, rhs)
    # E^p = 0
    power = B.unit
    for _ in range(p):
        power = B.product(power, E)
    assert power == {}
    # k^(4p) = 1
    power = B.unit
    for _ in range(order):
        power = B.product(power, k)
    assert veq(power, B.unit)


def test_primal_comult_frozen(setup):
    B = setup.primal
    ctx = setup.ctx
    idx = B.space.index
    one = ctx.one
    # comult(E) = 1 (x) E + E (x) k^2
    row = dict(((j, k), c) for j, k, c in B.comult.get(idx[(1, 0)]))
    assert row == {(idx[(0, 0)], idx[(1, 0)]): one,
                   (idx[(1, 0)], idx[(0, 2)]): one}
    # comult(k) = k (x) k
    row = B.comult.get(idx[(0, 1)])
    assert row == ((idx[(0, 1)], idx[(0, 1)], one),)


def test_primal_comult_of_square_at_p3():
    setup = taft_setup(3)
    B = setup.primal
    ctx = setup.ctx
    idx = B.space.index
    one = ctx.one
    # comult(E^2) = 1 (x) E^2 + (1+q^2) E (x) E k^2 + E^2 (x) k^4
    row = dict(((j, k), c) for j, k, c in B.comult.get(idx[(2, 0)]))
    assert row == {
        (idx[(0, 0)], idx[(2, 0)]): one,
        (idx[(1, 0)], idx[(1, 2)]): one + ctx.q_pow(2),
        (idx[(2, 0)], idx[(0, 4)]): one,
    }


def test_primal_antipode(setup):
    B = setup.primal
    ctx = setup.ctx
    order = 4 * ctx.p
    idx = B.space.index
    # S(E) = -E k^(-2), S(k) = k^(-1)
    assert dict(B.antipode.get(idx[(1, 0)])) == {idx[(1, order - 2)]: -ctx.one}
    assert dict(B.antipode.get(idx[(0, 1)])) == {idx[(0, order - 1)]: ctx.one}
    # S^2(E) = q^2 E
    s2 = B.antipode_of(B.antipode_of(B.element((1, 0))))
    assert veq(s2, {idx[(1, 0)]: ctx.q_pow(2)})


def test_dual_relations(setup):
    D = setup.dual
    ctx = setup.ctx
    p, order = ctx.p, 4 * ctx.p
    F = D.element((1, 0))
    kap = D.element((0, 1))
    # kap F = q F kap
    lhs = D.product(kap, F)
    assert veq(lhs, {D.space.index[(1, 1)]: ctx.q})
    # F^p = 0
    power = D.unit
    for _ in range(p):
        power = D.product(power, F)
    assert power == {}
    # kap^(4p) = 1, and kap^(2p) is not 1
    power = D.unit
    for _ in range(order):
        power = D.product(power, kap)
    assert veq(power, D.unit)
    power = D.unit
    for _ in range(order // 2):
        power = D.product(power, kap)
    assert not veq(power, D.unit)


def test_dual_tables_are_built_on_demand():
    D = taft_setup(2, cached=False).dual
    assert not D.mult.rows and not D.comult.rows and not D.antipode.rows
    idx = D.space.index
    F, kap = idx[(1, 0)], idx[(0, 1)]
    assert D.mult.get(kap, F) == ((idx[(1, 1)], D.ctx.q),)
    assert list(D.mult.rows) == [kap * D.dim + F]
    assert D.mult.get(F, F) == ()       # F^2 = 0 at p = 2: an empty row
    assert not D.comult.rows and not D.antipode.rows


def test_dual_unit_is_monomial_basis_origin(setup):
    D = setup.dual
    assert veq(D.unit, D.element((0, 0)))


def test_dual_comult_frozen(setup):
    D = setup.dual
    ctx = setup.ctx
    idx = D.space.index
    one = ctx.one
    # comult*(F) = 1 (x) F + F (x) kap^2
    row = dict(((j, k), c) for j, k, c in D.comult.get(idx[(1, 0)]))
    assert row == {(idx[(0, 0)], idx[(1, 0)]): one,
                   (idx[(1, 0)], idx[(0, 2)]): one}
    # comult*(kap) = kap (x) kap
    assert D.comult.get(idx[(0, 1)]) == ((idx[(0, 1)], idx[(0, 1)], one),)


def test_dual_antipode_frozen(setup):
    D = setup.dual
    ctx = setup.ctx
    order = 4 * ctx.p
    idx = D.space.index
    # S*(F) = -F kap^(-2), S*(kap) = kap^(-1)
    assert dict(D.antipode.get(idx[(1, 0)])) == {idx[(1, order - 2)]: -ctx.one}
    assert dict(D.antipode.get(idx[(0, 1)])) == {idx[(0, order - 1)]: ctx.one}


def test_pairing_matrix_values(setup):
    P = setup.pairing
    ctx = setup.ctx
    B, D = setup.primal, setup.dual
    order = 4 * ctx.p
    # <F, E k^n> = q^(-n) / (q - q^(-1)); <kap, k^n> = q^(-n/2)
    for n in range(order):
        got = P.pair(D.element((1, 0)), B.element((1, n)))
        assert got == ctx.q_pow(-n) * ctx.qdiff_inv
        got = P.pair(D.element((0, 1)), B.element((0, n)))
        assert got == ctx.q_half_pow(-n)


def test_pairing_is_m_diagonal(setup):
    P = setup.pairing
    B, D = setup.primal, setup.dual
    for (a, b) in D.space.labels:
        f = D.element((a, b))
        for (m, n) in B.space.labels:
            if m != a:
                assert P.pair(f, B.element((m, n))) == P.alg.ctx.zero


def test_pairing_axioms():
    pair = taft_setup(2)
    all_pass(check_hopf_pairing(pair.pairing))


def test_pairing_axioms_p3_sampled():
    pair = taft_setup(3)
    all_pass(check_hopf_pairing(pair.pairing, mode="sampled", seed=11,
                                samples=60))


def test_basis_change_roundtrip(setup):
    D = setup.dual
    to_can, from_can = setup.to_canonical, setup.from_canonical
    for i in range(D.dim):
        e = D.basis(i)
        assert veq(from_can.apply(to_can.apply(e)), e)


# -- closed-form smash product -------------------------------------------------

def test_closed_form_identity_rows():
    ctx = QContext(2)
    unit = ((0, 0), (0, 0))
    for lab in (((1, 3), (1, 2)), ((0, 1), (1, 0)), ((1, 0), (0, 7))):
        row = closed_form_smash_row(ctx, unit, lab)
        assert row == [(lab, ctx.one)]
        row = closed_form_smash_row(ctx, lab, unit)
        assert row == [(lab, ctx.one)]


def test_closed_form_frozen_cross_term_p3():
    ctx = QContext(3)
    # (1 # E^2)(F # 1) = F # E^2 + (1 + q^2)/(q - q^(-1)) * 1 # E k^2
    row = dict(closed_form_smash_row(ctx, ((0, 0), (2, 0)), ((1, 0), (0, 0))))
    assert row[((1, 0), (2, 0))] == ctx.one
    assert row[((0, 0), (1, 2))] == (ctx.one + ctx.q_pow(2)) * ctx.qdiff_inv
    assert len(row) == 2


def test_closed_form_nilpotency_truncation():
    ctx = QContext(2)
    # u = 0 term would need F^2: only the u = 1 term survives
    row = closed_form_smash_row(ctx, ((1, 0), (1, 0)), ((1, 0), (0, 0)))
    assert len(row) == 1
    (lab, c), = row
    assert lab == ((1, 0), (0, 2))
