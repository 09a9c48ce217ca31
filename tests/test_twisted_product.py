"""Differential tests for the twisted-product rows, the factor rows of the
D(B)-action and the pairing arrows.

The reference functions below are the direct row formulas that the two
doubles and the braided product used before they were built from one
twisted product with memoized R rows and memoized basis arrows.  Rows
must agree in value and in stored scalar form, so that memo keys,
reports and exports are unchanged.  The factor rows of
`doubles.FactoredAction`, sums of tensor products of two leg actions over
one coproduct, must agree in value with the two-fold coproduct formulas
they replaced.

The records that `hopf.twisted_product` returns are tested here too: the
generation certificate and `braided-product-is-hdouble` read R and the
factor tables from them, fail where a zeta-scaled R row or factor-table
entry puts them, and refuse an algebra whose product is not its
record's.  So does the associativity certificate of a twisted product,
R's normal twisting-map identities, checked against the triple lemma.
"""

from __future__ import annotations

import hashlib
import random

import pytest

import hopfbench.doubles as doubles_module
import hopfbench.results as results_module
from hopfbench.doubles import (DrinfeldDouble, FactoredAction,
                               HeisenbergDouble, _iter3, factor_structures,
                               heisenberg_chain, module_algebra_factor_walk,
                               module_factor_walk)
from hopfbench.hopf import (FiniteAlgebra, FiniteHopf, check_algebra_axioms,
                            check_product_rows, check_same_twist,
                            twisted_product)
from hopfbench.sparse import (BilinearMap, Subspace, span_closure, vadd_into,
                              vadd_outer, vadd_term, veq, vsub)
from hopfbench.results import (TupleWalks, associativity_walk,
                               factor_pair_walk, gen_indices,
                               generation_failure, lemma_walk,
                               normality_failure, run_check,
                               second_twisting_cases)
from hopfbench.taft import (double_elements, taft_system,
                            truly_heisenberg_chain, uqsl2)
from hopfbench.truncate import central_hopf_ideal
from hopfbench.ydcat import (Coaction, braided_product, check_comodule_algebra,
                             check_module, check_module_algebra)
from test_hopf import expand
from test_truncate import check_hopf_ideal


# -- reference formulas --------------------------------------------------------

def _old_hit(P, kind, u, v):
    """The vector-level regular actions as written before the memo, on
    the arguments of the arrows: kind 0 = P.dual_left (b=u, f=v),
    1 = P.dual_right (f=u, b=v), 2 = P.alg_left (f=u, b=v) and
    3 = P.alg_right (b=u, f=v)."""
    out = {}
    split, other = (v, u) if kind in (0, 2) else (u, v)
    comult = (P.dual if kind < 2 else P.alg).comult
    for i, ci in split.items():
        for j, k, c in comult.get(i):
            keep, leg = (j, k) if kind % 2 == 0 else (k, j)
            val = (P.pair({leg: c}, other) if kind < 2
                   else P.pair(other, {leg: c}))
            if val:
                vadd_term(out, keep, ci * val)
    return out


def _old_ddouble_row(D, d3, k1, k2):
    base, dual, P = D.base, D.dual, D.pairing
    one = D.ctx.one
    nB = base.dim
    sinv = base.antipode_inv()
    f1, b1 = divmod(k1, nB)
    f2, b2 = divmod(k2, nB)
    acc = {}
    for m1, m2, m3, c3 in _iter3(base, d3, b1):
        mid = {}
        for ms, cs in sinv.get(m3):
            vadd_into(mid, _old_hit(P, 1, {f2: one}, {ms: one}), cs)
        if not mid:
            continue
        rb = base.mult.get(m2, b2)
        if not rb:
            continue
        for fm, cm in mid.items():
            c4 = c3 * cm
            if not c4:
                continue
            for fn_, cn in _old_hit(P, 0, {m1: one}, {fm: one}).items():
                c5 = c4 * cn
                if not c5:
                    continue
                rf = dual.mult.get(f1, fn_)
                if rf:
                    vadd_outer(acc, c5, rf, rb, nB)
    return tuple(sorted(acc.items()))


def _old_hdouble_row(Hd, k1, k2):
    base, dual, P = Hd.base, Hd.dual, Hd.pairing
    one = Hd.ctx.one
    nB = base.dim
    f1, b1 = divmod(k1, nB)
    f2, b2 = divmod(k2, nB)
    acc = {}
    for a1, a2, ca in base.comult.get(b1):
        mid = _old_hit(P, 0, {a1: one}, {f2: one})
        if not mid:
            continue
        rb = base.mult.get(a2, b2)
        if not rb:
            continue
        for fm, cm in mid.items():
            c1 = ca * cm
            if c1:
                vadd_outer(acc, c1, dual.mult.get(f1, fm), rb, nB)
    return tuple(sorted(acc.items()))


def _old_braided_row(x_mod, y_mod, k1, k2):
    X, Y = x_mod.algebra, y_mod.algebra
    dy = Y.dim
    ix, iy = divmod(k1, dy)
    iv, iu = divmod(k2, dy)
    acc = {}
    for h, y0, c in y_mod.coaction.terms(iy):
        rvec = x_mod.action.row(h, iv)
        if not rvec:
            continue
        ru = Y.mult.get(y0, iu)
        if not ru:
            continue
        for vp, cv in rvec:
            c1 = c * cv
            if not c1:
                continue
            rxx = X.mult.get(ix, vp)
            if rxx:
                vadd_outer(acc, c1, rxx, ru, dy)
    return tuple(sorted(acc.items()))


def _old_prim_row(D, d3, m, x):
    """(eps (x) e_m) |> e_x = (m' -> alpha) # m'' a S(m''') over the
    two-fold coproduct of m."""
    base, P = D.base, D.pairing
    nB = base.dim
    f, b = divmod(x, nB)
    acc = {}
    for m1, m2, m3, c in _iter3(base, d3, m):
        mid = P.dual_left(m1, f)
        if not mid:
            continue
        t1 = dict(base.mult.get(m2, b))
        if not t1:
            continue
        conj = {}
        for s, cs in base.antipode.get(m3):
            for t, ct in t1.items():
                for k, ck in base.mult.get(t, s):
                    vadd_term(conj, k, cs * ct * ck)
        if not conj:
            continue
        vadd_outer(acc, c, mid, conj, nB)
    return acc


def _old_dual_row(D, d3, f, x):
    """(e_f (x) 1) |> e_x = f''' alpha S*^{-1}(f'') # (a <- S*^{-1}(f'))
    over the two-fold coproduct of f."""
    base, dual, P = D.base, D.dual, D.pairing
    nB = base.dim
    sinv = dual.antipode_inv()
    fx, b = divmod(x, nB)
    acc = {}
    for u1, u2, u3, c in _iter3(dual, d3, f):
        right = {}
        for nu, cs in sinv.get(u1):
            vadd_into(right, P.alg_right(b, nu), cs)
        if not right:
            continue
        left = {}
        t1 = dict(dual.mult.get(u3, fx))
        for nu, cs in sinv.get(u2):
            for t, ct in t1.items():
                for k, ck in dual.mult.get(t, nu):
                    vadd_term(left, k, cs * ct * ck)
        if not left:
            continue
        vadd_outer(acc, c, left, right, nB)
    return acc


def _same_scalars(row, ref):
    """Entry by entry, row holds the very scalars of ref (one field, so
    equal values are one object)."""
    return len(row) == len(ref) and all(
        e[-1] is f[-1] for e, f in zip(row, ref))


def _products(sys):
    """(name, new multiplication, reference row function) per product."""
    D, Hd = sys.double, sys.heis
    dual_yd, base_yd = factor_structures(sys.yd)
    d3: dict = {}
    out = [("ddouble", D.hopf.mult,
            lambda i, j: _old_ddouble_row(D, d3, i, j)),
           ("hdouble", Hd.algebra.mult,
            lambda i, j: _old_hdouble_row(Hd, i, j))]
    for x_mod, y_mod in ((dual_yd, base_yd), (base_yd, dual_yd)):
        bp = braided_product(x_mod, y_mod)
        out.append((bp.yd.algebra.name, bp.yd.algebra.mult,
                    lambda i, j, x=x_mod, y=y_mod: _old_braided_row(x, y, i, j)))
    return out


def _assert_rows_equal(sys, pairs_of):
    for name, mult, old in _products(sys):
        for i, j in pairs_of(mult.dim_v):
            new = mult.get(i, j)
            ref = old(i, j)
            assert new == ref, (name, i, j)
            assert _same_scalars(new, ref), (name, i, j)


# -- rows ------------------------------------------------------------------------

def test_rows_match_the_direct_formulas_on_every_pair_p2():
    _assert_rows_equal(taft_system(2), lambda d: (
        (i, j) for i in range(d) for j in range(d)))


def test_rows_match_the_direct_formulas_on_sampled_pairs_p3():
    rng = random.Random(3)
    _assert_rows_equal(taft_system(3), lambda d: [
        (rng.randrange(d), rng.randrange(d)) for _ in range(2000)])


def test_r_rows_are_computed_once_per_factor_pair(monkeypatch):
    calls = []
    real = doubles_module.twisted_product

    def counting(A, B, r_row):
        def counted(b, a):
            calls.append((b, a))
            return r_row(b, a)
        return real(A, B, counted)

    monkeypatch.setattr(doubles_module, "twisted_product", counting)
    mult = taft_system(2, cached=False).double.hopf.mult
    mult.materialize()
    assert len(mult.rows) == 256 * 256
    assert len(calls) == len(set(calls)) == 16 * 16


# -- the factor rows of the action -------------------------------------------

def _assert_factor_rows_equal(sys, picks):
    """The leg-defined factor rows equal the two-fold coproduct formulas
    in value on every (which, i, x) of `picks`."""
    D, act = sys.double, sys.yd.action
    d3b, d3f = {}, {}
    old = {"prim": lambda m, x: _old_prim_row(D, d3b, m, x),
           "dual": lambda f, x: _old_dual_row(D, d3f, f, x)}
    for which, i, x in picks:
        new = getattr(act, f"{which}_row")(i, x)
        assert veq(dict(new), old[which](i, x)), (which, i, x)


def test_factor_rows_match_the_coproduct_formulas_on_every_pair_p2():
    sys = taft_system(2)
    _assert_factor_rows_equal(sys, [
        (which, i, x) for which in ("prim", "dual") for i in range(16)
        for x in range(sys.heis.dim)])


def test_factor_rows_match_the_coproduct_formulas_on_sampled_pairs_p3():
    sys = taft_system(3)
    rng = random.Random(3)
    _assert_factor_rows_equal(sys, [
        (rng.choice(("prim", "dual")), rng.randrange(36),
         rng.randrange(sys.heis.dim)) for _ in range(2000)])


# -- basis arrows ----------------------------------------------------------------

def test_memoized_arrows_match_the_vector_formula_p2():
    sys = taft_system(2)
    P = sys.pair.pairing
    one = sys.ctx.one
    arrows = (P.dual_left, P.dual_right, P.alg_left, P.alg_right)
    for kind, arrow in enumerate(arrows):
        for i in range(16):
            for j in range(16):
                ref = _old_hit(P, kind, {i: one}, {j: one})
                new = arrow(i, j)
                assert veq(new, ref), (kind, i, j)


def test_vector_arrows_extend_bilinearly():
    sys = taft_system(2)
    P = sys.pair.pairing
    ctx = sys.ctx
    u = {0: ctx.q, 3: ctx.one, 7: ctx.zeta_pow(3)}
    v = {1: ctx.one, 5: ctx.qdiff, 12: ctx.q_pow(-1)}
    for kind, arrow in enumerate((P.dual_left, P.dual_right, P.alg_left,
                                  P.alg_right)):
        assert veq(expand(arrow, u, v), _old_hit(P, kind, u, v)), kind


def test_an_uncached_system_starts_with_an_empty_arrow_memo():
    shared = taft_system(2)
    shared.pair.pairing.dual_left(1, 1)
    fresh = taft_system(2, cached=False)
    assert fresh.pair.pairing is not shared.pair.pairing
    assert all(not memo for memo in fresh.pair.pairing._arrows)
    assert any(shared.pair.pairing._arrows)


# -- the u_q(sl2) ideal ----------------------------------------------------------

def _coords(v):
    return sorted((k, c.c, c.d) for k, c in v.items())


# sha256 of the repr of [(pivot, _coords(row)), ...] of `uqsl2(p).ideal`,
# the power-basis coordinates of the rows that the builder replaced by
# `central_hopf_ideal` recorded in stored form (the same products e_i c,
# certified on every basis row); the rows of the commit before scalars
# were interned, which equal that builder's in value, give these.
IDEAL_ROWS_SHA256 = {
    2: "dda3d15c8ea347de7f95014f9f199e94d819f53f7c491065a61fcf85fd4a8d7c",
    3: "1414ec50c7db21b9b35cdd1933879cc4bab5c70feb6031bb4336e8d930adb725",
}


@pytest.mark.parametrize("p", [2, 3])
def test_central_seed_ideal_equals_the_ideal_closure(p):
    """The ideal that `central_hopf_ideal` builds from the products e_i c
    has the pivots and rows of the two-sided closure of c, down to the
    scalar objects, and the coordinates of the builder it replaced.  At
    p=2 the basis-row check certifies it too."""
    sys = taft_system(p)
    D = sys.double.hopf
    g = double_elements(sys)
    kk = D.product(g["kap"], g["k"])
    seed = vsub(kk, dict(D.unit))
    direct, res = central_hopf_ideal(D, seed, name="uq-ideal")
    closed = span_closure([seed], D.product, D.dim, mode="ideal",
                          generators=[g["E"], g["k"], g["F"], g["kap"]])
    assert (res.status, res.mode, res.cases_checked) == ("pass",
                                                         "generators", 7)
    assert isinstance(direct, Subspace)
    assert direct.pivots == closed.pivots
    for pv in closed.pivots:
        assert veq(direct.pivot_row[pv], closed.pivot_row[pv])
    rows = [(pv, _coords(direct.pivot_row[pv])) for pv in direct.pivots]
    assert (hashlib.sha256(repr(rows).encode()).hexdigest()
            == IDEAL_ROWS_SHA256[p])
    assert uqsl2(p).ideal.pivot_row == direct.pivot_row
    if p == 2:
        generic = check_hopf_ideal(D, direct, name="uq-ideal")
        assert (generic.status, generic.cases_checked) == ("pass", 2_464)


def test_a_non_central_seed_is_caught():
    """c = k does not commute with F (x) 1, the first generator of D(B)."""
    sys = taft_system(2)
    D = sys.double.hopf
    k = double_elements(sys)["k"]
    _, res = central_hopf_ideal(D, k, name="k-ideal")
    assert (res.status, res.mode, res.cases_checked) == ("fail",
                                                         "generators", 1)
    assert res.witness == "c does not commute with F(x)1"


# -- the generation certificate from the factors ---------------------------------

def _twisted(key, p):
    """A fresh twisted product: D(B), H(B*), the two-factor braided
    product of B*cop and B, the three-factor chain of B*cop, B and B*cop
    (p=2 only) or the z/del chain(3)."""
    if key == "zdel-chain3":
        return truly_heisenberg_chain(p, 3).algebra
    sys = taft_system(p, cached=False)
    if key == "ddouble":
        return sys.double.hopf
    if key == "hdouble":
        return sys.heis.algebra
    n = {"braided-product": 2, "full-chain3": 3}[key]
    return heisenberg_chain(sys.yd, n).yd.algebra


def _twisted_dims(alg) -> set:
    """The dimensions of `alg` and of the twisted products among its
    factors, recursively."""
    tw = getattr(alg, "twist", None)
    if tw is None:
        return set()
    return {alg.dim}.union(*map(_twisted_dims, (tw.A, tw.B)))


CERTIFIED = [("ddouble", 2), ("ddouble", 3), ("hdouble", 2), ("hdouble", 3),
             ("braided-product", 2), ("full-chain3", 2),
             ("zdel-chain3", 2), ("zdel-chain3", 3)]


@pytest.mark.parametrize("key,p", CERTIFIED)
def test_the_factored_certificate_agrees_with_the_span_closure(key, p):
    alg = _twisted(key, p)
    assert alg.twist
    seed = [dict(alg.unit)] + [dict(g) for g in alg.generators]
    assert span_closure(seed, alg.product, alg.dim).rank == alg.dim
    assert generation_failure(alg) is None


@pytest.mark.parametrize("key,p", CERTIFIED)
def test_no_twisted_product_is_certified_by_a_full_closure(monkeypatch,
                                                           key, p):
    """The certificate of a twisted product never closes a span over its
    own dimension, nor over that of a twisted product among its factors."""
    alg = _twisted(key, p)
    refused = _twisted_dims(alg)
    real = results_module.span_closure

    def closure(seed, product, dim, *rest):
        assert dim not in refused, f"span closure over dim {dim}"
        return real(seed, product, dim, *rest)

    monkeypatch.setattr(results_module, "span_closure", closure)
    assert generation_failure(alg) is None


def _rebuilt(alg, r_row=None, A=None, B=None):
    """An algebra like `alg`, built by `twisted_product` from its record
    with R or a factor replaced."""
    tw = alg.twist
    new = twisted_product(A or tw.A, B or tw.B, r_row or tw.r_row)
    extra = ((alg.comult, alg.counit, alg.antipode)
             if isinstance(alg, FiniteHopf) else ())
    return type(alg)(alg.ctx, alg.space, new.mult, new.unit, *extra,
                     generators=new.gens, name=alg.name, twist=new)


def _scaled_r(alg, b, a):
    """The R of `alg` with the first term of R(b (x) a) times zeta."""
    tw, zeta = alg.twist, alg.ctx.zeta

    def r_row(bb, aa):
        row = tw.r_row(bb, aa)
        if (bb, aa) != (b, a):
            return row
        (x, y, c), *rest = row
        return ((x, y, c * zeta), *rest)

    return r_row


def _scaled_table(F, i, j):
    """F's product with the first entry of row (i, j) times zeta."""
    def fn(a, b):
        row = F.mult.get(a, b)
        if (a, b) != (i, j):
            return row
        (k, c), *rest = row
        return ((k, c * F.ctx.zeta), *rest)

    return BilinearMap(F.dim, F.dim, fn=fn)


def _scaled_factor(F, i, j):
    """F as an algebra, with `_scaled_table(F, i, j)` as its product."""
    return FiniteAlgebra(F.ctx, F.space, _scaled_table(F, i, j), F.unit,
                         generators=F.generators, name=F.name)


@pytest.mark.parametrize("p", [2, 3])
def test_one_corrupted_right_factor_row_fails_the_certificate(p):
    """R(E (x) 1) times zeta in D(B), and so (F (x) E)(1 (x) k) =
    zeta (F (x) Ek): the certificate reads R(b (x) 1), and fails there."""
    D = _twisted("ddouble", p)
    (uf,), E = D.twist.A.unit, D.twist.B.space.index[(1, 0)]
    assert generation_failure(_rebuilt(D, _scaled_r(D, E, uf))) == (
        "R(b (x) 1) != 1 (x) b at b=E; generation certificate failed")


def test_one_corrupted_left_factor_row_fails_the_certificate():
    """R(1 (x) kap) times zeta in H(B*), and so (F (x) 1)(kap (x) 1) =
    zeta (F kap (x) 1): the certificate reads R(1 (x) a), and fails
    there."""
    H = _twisted("hdouble", 2)
    (ub,), kap = H.twist.B.unit, H.twist.A.space.index[(0, 1)]
    assert generation_failure(_rebuilt(H, _scaled_r(H, ub, kap))) == (
        "R(1 (x) a) != a (x) 1 at a=kap; generation certificate failed")


def test_a_table_row_beside_the_record_is_refused():
    """The rows the certificate read from the table before, (F (x) E)
    (1 (x) k) in D(B) and (F (x) 1)(kap (x) 1) in H(B*), times zeta in a
    copied table that keeps the record: the certificate now reads R and
    the factor tables, so it refuses the copy, and the direct formulas of
    `test_rows_match_the_direct_formulas_on_every_pair_p2` see the row."""
    sys2 = taft_system(2)
    D, Hd = sys2.double, sys2.heis
    f, b = D.dual, D.base
    F, kap = f.space.index[(1, 0)], f.space.index[(0, 1)]
    E, k = b.space.index[(1, 0)], b.space.index[(0, 1)]
    _, d_right = D.hopf.twist.factor_indices()
    h_left, _ = Hd.algebra.twist.factor_indices()
    d3: dict = {}
    for alg, (i, j), direct in (
            (D.hopf, (F * b.dim + E, d_right[k]),
             lambda i, j: _old_ddouble_row(D, d3, i, j)),
            (Hd.algebra, (h_left[F], h_left[kap]),
             lambda i, j: _old_hdouble_row(Hd, i, j))):
        copy = FiniteAlgebra(alg.ctx, alg.space, _scaled_table(alg, i, j),
                             alg.unit, generators=alg.generators,
                             name=alg.name, twist=alg.twist)
        with pytest.raises(ValueError, match="twisted-product formula"):
            generation_failure(copy)
        assert copy.mult.get(i, j) != direct(i, j)
        assert alg.mult.get(i, j) == direct(i, j)


# -- braided-product-is-hdouble from the inputs of the formula ----------------

HDOUBLE = "braided-product-is-hdouble"


def _bp2(sys):
    return heisenberg_chain(sys.yd, 2).yd.algebra


@pytest.mark.parametrize("p,cases", [(2, 768), (3, 3_888)])
def test_braided_product_is_hdouble_compares_the_inputs(p, cases):
    """3 d_B^2 cases: both factor tables and the R rows, exhaustive."""
    sys = taft_system(p)
    res = check_same_twist(_bp2(sys), sys.heis.algebra, HDOUBLE)
    assert (res.status, res.mode, res.cases_checked) == ("pass", "exhaustive",
                                                         cases)


def test_bp2_and_hdouble_products_agree_on_every_pair_p2():
    """The route the comparison replaced, kept as its cross-check: the two
    product tables agree on all 65,536 pairs."""
    sys2 = taft_system(2)
    H = sys2.heis.algebra
    res = check_product_rows(HDOUBLE, _bp2(sys2),
                             lambda i, j: dict(H.mult.get(i, j)),
                             TupleWalks("exhaustive", 0, 0), (None, None))
    assert (res.status, res.mode, res.cases_checked) == ("pass", "exhaustive",
                                                         65_536)


@pytest.mark.parametrize("b,a", [(1, 1), (5, 3), (15, 12)])
def test_a_scaled_r_entry_of_bp2_fails_at_that_pair(b, a):
    sys2 = taft_system(2)
    X = _bp2(sys2)
    tw = X.twist
    bad = _rebuilt(X, _scaled_r(X, b, a))
    res = check_same_twist(bad, sys2.heis.algebra, HDOUBLE)
    assert (res.status, res.mode) == ("fail", "exhaustive")
    assert res.cases_checked == 2 * 256 + b * 16 + a + 1
    assert res.witness.startswith(f"R({tw.B.space.label(b)} (x) "
                                  f"{tw.A.space.label(a)}) differs: ")


@pytest.mark.parametrize("side,i,j", [(0, 1, 1), (0, 3, 6), (1, 2, 7),
                                      (1, 14, 1)])
def test_a_scaled_factor_table_entry_fails_at_that_pair(side, i, j):
    sys2 = taft_system(2)
    X = _bp2(sys2)
    F = (X.twist.A, X.twist.B)[side]
    bad = _rebuilt(X, **{"AB"[side]: _scaled_factor(F, i, j)})
    res = check_same_twist(bad, sys2.heis.algebra, HDOUBLE)
    assert (res.status, res.mode) == ("fail", "exhaustive")
    assert res.cases_checked == side * 256 + i * 16 + j + 1
    assert res.witness.startswith(
        f"products of ({F.space.label(i)}, {F.space.label(j)}) in "
        f"{F.name} differ: ")


def test_an_algebra_without_its_formula_is_refused():
    """H(B*) assembled from a copy of its table, with and without the
    record, and D(B) from a copy without it: each check that rests on the
    formula refuses it; the generation certificate of the copy without a
    record is the span closure."""
    sys2 = taft_system(2)
    D, H = sys2.double, sys2.heis.algebra
    table = BilinearMap(H.dim, H.dim, fn=H.mult.get)
    bare = FiniteAlgebra(H.ctx, H.space, table, H.unit,
                         generators=H.generators, name=H.name)
    kept = FiniteAlgebra(H.ctx, H.space, table, H.unit,
                         generators=H.generators, name=H.name, twist=H.twist)
    for copy in (bare, kept):
        for refused in (lambda: check_same_twist(_bp2(sys2), copy, HDOUBLE),
                        lambda: check_same_twist(copy, H, HDOUBLE),
                        lambda: factor_pair_walk(copy),
                        lambda: normality_failure(copy)):
            with pytest.raises(ValueError, match="twisted-product formula"):
                refused()
    with pytest.raises(ValueError, match="twisted-product formula"):
        generation_failure(kept)
    assert generation_failure(bare) is None
    Dh = D.hopf
    copy = DrinfeldDouble(D.ctx, FiniteHopf(
        Dh.ctx, Dh.space, BilinearMap(Dh.dim, Dh.dim, fn=Dh.mult.get),
        Dh.unit, Dh.comult, Dh.counit, Dh.antipode,
        generators=Dh.generators, name=Dh.name), D.base, D.dual, D.pairing)
    with pytest.raises(ValueError, match="twisted-product formula"):
        module_factor_walk(copy, FactoredAction(sys2.heis, copy))


def test_r_scaled_at_the_unit_fails_normality_and_every_yd_factor_walk():
    """R(1 (x) kap^3) times zeta, in D(B) and in H(B*): the normality
    certificate fails at a=kap^3, and with it the generation certificate
    and the three yd factor walks, each right after its unit law."""
    sys2 = taft_system(2)
    D, Hd, y = sys2.double, sys2.heis, sys2.yd
    (ub,) = D.base.unit
    a = D.dual.space.index[(0, 3)]
    want = "R(1 (x) a) != a (x) 1 at a=kap^3"
    bad_d = DrinfeldDouble(D.ctx, _rebuilt(D.hopf, _scaled_r(D.hopf, ub, a)),
                           D.base, D.dual, D.pairing)
    X = _rebuilt(Hd.algebra, _scaled_r(Hd.algebra, ub, a))
    bad_h = HeisenbergDouble(Hd.ctx, X, Hd.base, Hd.dual, Hd.pairing)
    for alg in (bad_d.hopf, X):
        assert normality_failure(alg) == want
        assert generation_failure(alg) == (
            f"{want}; generation certificate failed")
    act = FactoredAction(bad_h, bad_d)
    bad = y._replace(hopf=bad_d.hopf, algebra=X, action=act,
                     coaction=Coaction(bad_d.hopf, X, bad_d.hopf.comult.get))
    results = (check_module(bad, walk=module_factor_walk(bad_d, act)),
               check_module_algebra(bad, walk=module_algebra_factor_walk(
                   bad_d, act)),
               check_comodule_algebra(bad, walk=factor_pair_walk(X)))
    assert [(r.status, r.witness, r.cases_checked) for r in results] == [
        ("fail", want, 256 + a + 1), ("fail", want, 256 + a + 1),
        ("fail", want, 1 + a + 1)]


# -- associativity from R's normal twisting-map certificate -------------------

TWISTED_STEPS = ["ddouble", "hdouble", "chain3-step1", "chain3-step2"]


def _twisted_step(key):
    """D(B), H(B*) or a step of `heisenberg_chain(yd, 3)` at p=2: step 1 is
    B*cop (x)_R B, step 2 is step 1 (x)_R B*cop (dim 4,096)."""
    sys2 = taft_system(2)
    if key == "ddouble":
        return sys2.double.hopf
    if key == "hdouble":
        return sys2.heis.algebra
    return heisenberg_chain(sys2.yd, 3).steps()[int(key[-1]) - 1]


def _certificate(alg):
    return check_algebra_axioms(alg, associativity_walk(alg))[0]


@pytest.mark.parametrize("key", TWISTED_STEPS)
def test_the_twisting_certificate_agrees_with_the_triple_lemma(key):
    """Normality (d_A + d_B cases) and the two twisting identities, each
    headed by one factor's generators, pass where the triple lemma over
    the product table does.  Step 2's triple lemma would walk
    6 * 4096^2 triples, so there the triples are the generator head and a
    seeded sample, evidence only."""
    alg = _twisted_step(key)
    tw = alg.twist
    nA, nB = tw.A.dim, tw.B.dim
    gA, gB = len(gen_indices(tw.A)), len(gen_indices(tw.B))
    res = _certificate(alg)
    assert (res.status, res.mode, res.cases_checked) == (
        "pass", "generators", nA + nB + (gA + gB) * nA * nB)
    walk = (lemma_walk(alg, 3) if alg.dim <= 256
            else TupleWalks("generators", 0, 2000))
    assert check_algebra_axioms(alg, walk)[0].status == "pass"


@pytest.mark.parametrize("key", TWISTED_STEPS)
def test_a_scaled_r_row_fails_the_certificate_and_the_triple_lemma(key):
    """R(b (x) a) times zeta, b and a the first generators of B and of A,
    both off the units: the certificate fails at the first twisting
    identity, the second identity fails on its own as well, and the
    triple lemma finds a triple (xy)z != x(yz)."""
    alg = _twisted_step(key)
    tw = alg.twist
    b, a = min(gen_indices(tw.B)), min(gen_indices(tw.A))
    assert b not in tw.B.unit and a not in tw.A.unit
    bad = _rebuilt(alg, _scaled_r(alg, b, a))
    res = _certificate(bad)
    assert res.status == "fail"
    assert res.witness.startswith("R(b1 b2 (x) a) != ")
    assert run_check("second-twisting", "exhaustive",
                     second_twisting_cases(bad)).status == "fail"
    triple = check_algebra_axioms(bad, lemma_walk(bad, 3))[0]
    assert triple.status == "fail"
    assert "(xy)z != x(yz)" in triple.witness
