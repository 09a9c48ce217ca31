"""Tests for the module/comodule compatibility layer and the braiding."""

from __future__ import annotations

import pytest

from hopfbench.doubles import factor_structures, heisenberg_chain
from hopfbench.hopf import check_product_rows
from hopfbench.results import TupleWalks, lemma_walk
from hopfbench.sparse import veq
from hopfbench.taft import taft_system
from hopfbench.ydcat import (
    Action, braided_product, braiding_row, check_braided_commutative,
    check_braided_symmetric, check_comodule, check_comodule_algebra,
    check_factor_embeddings, check_locked_identity, check_module,
    check_module_algebra, check_yd, flip_isomorphism,
    yang_baxter_check,
)


EXHAUSTIVE = TupleWalks("exhaustive", 0, 0)
GENERATORS = TupleWalks("generators", 0, 10_000)


@pytest.fixture(scope="module")
def sys2():
    return taft_system(2)


@pytest.fixture(scope="module")
def factors(sys2):
    return factor_structures(sys2.double)


def test_module_laws(sys2):
    res = check_module(sys2.yd, GENERATORS)
    assert res.status == "pass"
    assert res.cases_checked == 14_352


def test_module_algebra_laws(sys2):
    res = check_module_algebra(sys2.yd, GENERATORS)
    assert res.status == "pass"
    assert res.cases_checked == 10_320


def test_comodule_laws(sys2):
    res = check_comodule(sys2.yd)
    assert res.status == "pass"
    assert res.cases_checked == 2 * sys2.yd.algebra.dim


def test_comodule_algebra_laws(sys2):
    res = check_comodule_algebra(sys2.yd, lemma_walk(sys2.yd.algebra))
    assert (res.status, res.mode) == ("pass", "generators")
    assert res.cases_checked == 4 * 256 + 1


def test_yd_compatibility(sys2):
    res = check_yd(sys2.yd, GENERATORS)
    assert res.status == "pass"
    assert res.cases_checked == 11_024


def test_factor_braided_commutativity(factors):
    for mod in factors:
        res = check_braided_commutative(mod, EXHAUSTIVE)
        assert res.status == "pass"
        assert res.cases_checked == mod.algebra.dim ** 2


def test_pair_braided_symmetric(factors):
    dual_yd, base_yd = factors
    assert check_braided_symmetric(dual_yd, base_yd,
                                   EXHAUSTIVE).status == "pass"
    assert check_locked_identity(dual_yd, base_yd,
                                 EXHAUSTIVE).status == "pass"


def test_a_walk_serves_one_law(factors):
    """A walk handed to a second check would walk no tuples and pass: it
    is an engine error instead."""
    dual_yd, base_yd = factors
    walk = lemma_walk(dual_yd.algebra)
    assert check_braided_commutative(dual_yd, walk).status == "pass"
    with pytest.raises(RuntimeError, match="already walked"):
        check_braided_symmetric(dual_yd, base_yd, walk)


def test_flip_is_isomorphism(factors):
    dual_yd, base_yd = factors
    checks = flip_isomorphism(dual_yd, base_yd, EXHAUSTIVE, EXHAUSTIVE)
    names = {c.name for c in checks}
    assert names == {"flip-bijective", "flip-algebra-morphism",
                     "flip-module-morphism", "flip-comodule-morphism"}
    assert all(c.status == "pass" for c in checks)


def test_rebracketing(factors):
    """(X >< Y) >< Z and X >< (Y >< Z) are one algebra: row-major
    flattening puts both products on the same index set and unit."""
    x, y = factors
    left = braided_product(braided_product(x, y).yd, x).yd.algebra
    right = braided_product(x, braided_product(y, x).yd).yd.algebra
    assert veq(left.unit, right.unit)
    res = check_product_rows("rebracketing", left,
                             lambda i, j: dict(right.mult.get(i, j)),
                             TupleWalks("sample", 0, 200), (None, None))
    assert res.status == "pass"


def test_yang_baxter(sys2):
    res = yang_baxter_check(sys2.yd, TupleWalks("sample", 0, 50))
    assert res.status == "pass"


def test_braiding_row_against_product(sys2, factors):
    """On a braided-commutative algebra, multiplying the braiding legs of
    y (x) x back together gives y x."""
    dual_yd, _ = factors
    A = dual_yd.algebra
    for iy in range(A.dim):
        for ix in range(A.dim):
            flat = braiding_row(dual_yd, dual_yd, iy, ix)
            prod = {}
            for key, c in flat.items():
                xp, y0 = divmod(key, A.dim)
                for k, ck in A.mult.get(xp, y0):
                    val = c * ck
                    if val:
                        prod[k] = prod.get(k, A.ctx.zero) + val
            prod = {k: v for k, v in prod.items() if v}
            assert veq(prod, dict(A.mult.get(iy, ix)))


def test_chain_embeddings(sys2):
    ch2 = heisenberg_chain(sys2.pair.primal, 2, leftmost="dual",
                           D=sys2.double)
    res = check_factor_embeddings(ch2)
    assert res.status == "pass"


def _yd_mismatch(bp, y):
    """The first row where the braided product bp's action or coaction
    differs in value from y's on the same basis, or None."""
    H = y.hopf
    for x in range(y.dim):
        if not veq(bp.yd.coaction.apply({x: H.ctx.one}),
                   y.coaction.apply({x: H.ctx.one})):
            return ("coaction", x)
    for h in range(H.dim):
        for x in range(y.dim):
            if not veq(dict(bp.yd.action.row(h, x)), dict(y.action.row(h, x))):
                return ("action", h, x)
    return None


def test_hdouble_is_the_braided_product_of_its_factors(sys2, factors):
    """H(B*) = B*cop >< B carries the action and coaction of the braided
    product of the two factor structures, row for row (256 coaction rows
    and 65,536 action rows); `braided-product-is-hdouble` compares the
    products only."""
    assert _yd_mismatch(braided_product(*factors), sys2.yd) is None


def test_a_corrupted_factor_action_row_breaks_the_match(sys2, factors):
    """One entry of one factor-action row of B*cop times zeta: the
    braided product's action no longer matches that of H(B*)."""
    dual_yd, base_yd = factors
    act, zeta = dual_yd.action, sys2.ctx.zeta
    h0, v0 = sys2.double.index(1, 1), 1
    row = act.row(h0, v0)
    assert row
    bad_row = ((row[0][0], row[0][1] * zeta),) + row[1:]
    bad = dual_yd._replace(action=Action(
        dual_yd.hopf, dual_yd.algebra,
        lambda h, v: dict(bad_row if (h, v) == (h0, v0) else act.row(h, v))))
    assert _yd_mismatch(braided_product(bad, base_yd), sys2.yd)[0] == "action"


def test_hdouble_coaction_rows_are_the_double_coproduct_rows(sys2):
    """H(B*)'s coaction stores D(B)'s coproduct rows themselves, not equal
    copies: the two tables hold one tuple per row."""
    coact, comult = sys2.yd.coaction, sys2.double.hopf.comult
    assert all(coact.terms(x) is comult.get(x)
               for x in range(sys2.heis.algebra.dim))
