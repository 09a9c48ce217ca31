"""Tests for the two double constructions and their interaction."""

from __future__ import annotations

import itertools
import random
from functools import cache

import pytest

import hopfbench.report as report_module
from hopfbench.cli import main
from hopfbench.doubles import (
    DrinfeldDouble, HeisenbergDouble, check_double_identity,
    check_factor_restrictions, check_quantum_comm_remarks,
    check_quasitriangular,
    chain_relations_check, drinfeld_double, eta_twist_product,
    FactoredAction, factor_structures, heisenberg_chain, to_show_action_check,
)
from hopfbench.hopf import (FiniteAlgebra, FiniteHopf, HopfPairing,
                           check_hopf_axioms, check_product_rows,
                           check_same_twist, pair_product, twisted_product)
from hopfbench.report import SuiteConfig, run_suite
from hopfbench.results import (TupleWalks, certificate_check, gen_indices,
                               invert_expected_failure, lemma_walk, twist_of)
from hopfbench.sparse import (BilinearMap, tensor_flat, vadd_into, vadd_term,
                              veq)
from hopfbench.taft import (
    closed_form_check, double_elements, double_presentation_check,
    taft_dual_check, taft_system,
)
from hopfbench.ydcat import Action, check_braided_commutative


EXHAUSTIVE = TupleWalks("exhaustive", 0, 0)


def all_pass(results):
    bad = [r for r in results if r.status == "fail"]
    assert not bad, "\n".join(r.line() for r in bad)


@pytest.fixture(scope="module", params=[2, 3])
def system(request):
    return taft_system(request.param)


@pytest.fixture(scope="module")
def sys2():
    return taft_system(2)


def test_double_dimensions(system):
    nB = system.pair.primal.dim
    assert system.double.hopf.dim == nB * nB
    assert system.heis.algebra.dim == nB * nB


def test_double_hopf_axioms_p2(sys2):
    H = sys2.double.hopf
    results = check_hopf_axioms(H, lemma_walk(H, 3), EXHAUSTIVE,
                                EXHAUSTIVE)
    all_pass(results)
    assert {r.name: r.mode for r in results if r.mode != "exhaustive"} == {
        "mult-associativity": "generators"}


def test_double_presentation(system):
    all_pass(double_presentation_check(system))


@pytest.mark.parametrize("change,witness", [
    ("drop k", "1(x)k is not the unit or a declared generator"),
    ("add k^2", "1(x)k^2 is not listed"),
    ("none", None)])
def test_presentation_generation_reads_the_declared_generators(sys2, change,
                                                               witness):
    """The generation line certifies the listed 1, E, k, F, kap through
    D(B)'s declared generators, so it fails once the two lists differ."""
    D = sys2.double.hopf
    gens = list(D.generators)
    if change == "drop k":
        gens.pop()
    elif change == "add k^2":
        gens.append(D.product(gens[-1], gens[-1]))
    H = FiniteHopf(D.ctx, D.space, D.mult, D.unit, D.comult, D.counit,
                   D.antipode, generators=gens, name=D.name)
    D2 = sys2.double
    bad = sys2._replace(double=DrinfeldDouble(D2.ctx, H, D2.base, D2.dual,
                                              D2.pairing))
    res = double_presentation_check(bad)[-1]
    assert (res.name, res.mode, res.cases_checked, res.witness) == (
        "double-presentation-generation", "exhaustive", 256, witness)


def test_dual_monomial_tables(system):
    assert taft_dual_check(system.pair).status == "pass"


def test_double_identity_decomposition(system):
    res = check_double_identity(system.double)
    assert res.status == "pass"


# -- eta-twist: the full walk, kept as the oracle of the R-row route ----------

def eta_cocycle(D):
    """eta(mu (x) m, nu (x) n) = <mu, 1> eps(n) <nu, m> as data for
    `eta_twist_walk`: (left, right, pair).  left and right filter the
    first and the second argument: each maps a basis vector f (x) b of
    D(B), given as (f, b), to the part it keeps and the weight of the
    other part, or to None when that weight is zero.  pair takes the kept
    part of the second argument, then that of the first, as <nu, m>
    does, and gives their pairing or None."""
    base, P = D.base, D.pairing
    pair_unit = {}
    for f in range(D.dual.dim):
        c = P.pair({f: D.ctx.one}, base.unit)
        if c:
            pair_unit[f] = c

    def left(f, b):
        w = pair_unit.get(f)
        return (b, w) if w else None

    def right(f, b):
        w = base.counit.get(b)
        return (f, w) if w else None

    return left, right, P.pair_basis


def swapped(eta):
    """eta's data with its two arguments exchanged."""
    left, right, pair = eta
    return right, left, lambda x, y: pair(y, x)


def eta_twist_walk(D, Hd, walk, eta=None):
    """D's product twisted by eta, M ._eta N = M' N' eta(M'', N''),
    against H(B*)'s on every (M, N) basis pair of `walk`, multiplied out
    in full; eta given as `eta_cocycle` gives it, by default
    `eta_cocycle(D)`."""
    H = D.hopf
    nB = D.base.dim
    left, right, pair = eta or eta_cocycle(D)

    def filtered(keep):
        """k -> the legs (k', kept part of k'', weighted coefficient) of
        Delta_D(e_k) whose k'' the filter keeps, memoized."""
        @cache
        def legs(k):
            out = []
            for j, kk, c in H.comult.get(k):
                kept = keep(*divmod(kk, nB))
                if kept is not None:
                    out.append((j, kept[0], c * kept[1]))
            return tuple(out)
        return legs

    legs_m, legs_n = filtered(left), filtered(right)

    def row(k1, k2):
        acc = {}
        for j1, x, c1 in legs_m(k1):
            for j2, y, c2 in legs_n(k2):
                pv = pair(y, x)
                if pv:
                    vadd_into(acc, H.mult.get(j1, j2), c1 * c2 * pv)
        return acc

    return check_product_rows("eta-twist", Hd.algebra, row, walk,
                              (None, None))


def on_the_r_pairs(D, eta):
    """The function (g, m) -> eta(1 (x) m, g (x) 1), or None, that
    `eta_twist_product` reads, from eta given as `eta_cocycle` gives it."""
    left, right, pair = eta
    (uf,), (ub,) = D.dual.unit, D.base.unit

    def at(g, m):
        kept_m, kept_g = left(uf, m), right(g, ub)
        if kept_m is None or kept_g is None:
            return None
        c = pair(kept_g[0], kept_m[0])
        return c * kept_m[1] * kept_g[1] if c else None

    return at


def _r_scaled(sys, b, a):
    """`sys` with H(B*) rebuilt by the twisted-product formula from its
    record with the first term of R(b (x) a) times zeta."""
    Hd = sys.heis
    tw = twist_of(Hd.algebra)

    def r_row(bb, aa):
        row = tw.r_row(bb, aa)
        if (bb, aa) != (b, a):
            return row
        (x, y, c), *rest = row
        return ((x, y, c * sys.ctx.zeta), *rest)

    new = twisted_product(tw.A, tw.B, r_row)
    bad = FiniteAlgebra(Hd.ctx, Hd.algebra.space, new.mult, new.unit,
                        generators=new.gens, name="hdouble(r-scaled)",
                        twist=new)
    return sys._replace(heis=HeisenbergDouble(sys.ctx, bad, Hd.base, Hd.dual,
                                              Hd.pairing))


def _eta_twist_counts_4_dB2_plus_dB(sys):
    """eta-twist passes on D's tensor coalgebra (d_B^2 cases), the
    pairing's unit law (d_B), the two factor tables (2 d_B^2) and the R
    rows (d_B^2)."""
    dB = sys.double.base.dim
    res = eta_twist_product(sys.double, sys.heis)
    assert (res.status, res.mode, res.cases_checked) == (
        "pass", "exhaustive", 4 * dB ** 2 + dB)


def test_eta_twist_recovers_heisenberg_p2(sys2):
    _eta_twist_counts_4_dB2_plus_dB(sys2)             # 1,040 cases


def test_eta_twist_is_exhaustive_from_r_rows_at_p3():
    _eta_twist_counts_4_dB2_plus_dB(taft_system(3))   # 5,220 cases


@pytest.mark.parametrize("system", ["healthy", "eta-swapped", "r-scaled"])
def test_the_r_row_route_and_the_full_walk_agree(sys2, system):
    """The R-row route and the full walk over all 65,536 pairs give one
    status: on the healthy system, with eta's arguments exchanged (R_eta
    is then D(B)'s R), and on H(B*) rebuilt with R(k (x) kap) times zeta
    in its record."""
    D, Hd = sys2.double, sys2.heis
    eta = eta_cocycle(D)
    k, kap = D.base.space.index[(0, 1)], D.dual.space.index[(0, 1)]
    if system == "eta-swapped":
        eta = swapped(eta)
    elif system == "r-scaled":
        Hd = _r_scaled(sys2, k, kap).heis
    route = eta_twist_product(D, Hd, on_the_r_pairs(D, eta))
    walk = eta_twist_walk(D, Hd, EXHAUSTIVE, eta)
    want = "pass" if system == "healthy" else "fail"
    assert (route.status, walk.status) == (want, want)
    if system != "healthy":
        assert route.witness.startswith("R(k (x) kap) differs: ")
        assert "(1#k, kap#1)" in walk.witness


def test_closed_form_product(system):
    if system.ctx.p == 2:
        res = closed_form_check(system, EXHAUSTIVE)
        assert res.cases_checked == 65_536
    else:
        res = closed_form_check(system, TupleWalks("sample", 0, 100_000))
    assert res.status == "pass"


def _zeta_scaled(sys, i: int, j: int):
    """`sys` with the first entry of H(B*)'s product row (i, j) scaled by
    zeta, and every other row unchanged: a copied table, which no
    twisted-product record describes."""
    Hd = sys.heis
    A = Hd.algebra

    def fn(a: int, b: int):
        row = A.mult.get(a, b)
        if (a, b) != (i, j):
            return row
        (k, c), *rest = row
        return ((k, c * sys.ctx.zeta), *rest)

    bad = FiniteAlgebra(A.ctx, A.space, BilinearMap(A.dim, A.dim, fn=fn),
                        A.unit, generators=A.generators,
                        name="hdouble(zeta-scaled)")
    return sys._replace(heis=HeisenbergDouble(sys.ctx, bad, Hd.base, Hd.dual,
                                              Hd.pairing))


@pytest.mark.parametrize("p,samples", [(2, None), (3, 20_000)])
def test_the_yd_structure_of_hdouble_is_the_braided_products(p, samples):
    """H(B*) = B*cop >< B as YD D(B)-module algebras, not only as algebras
    (`braided-product-is-hdouble`): the action of H(B*), `FactoredAction`,
    and its coaction, D(B)'s coproduct, equal the diagonal action and the
    codiagonal coaction of the braided product of its two factors, on
    every coaction row, and on every action row at p=2 and on a seeded
    sample of them at p=3."""
    sys = taft_system(p)
    y = sys.yd
    bp = heisenberg_chain(sys.yd, 2).yd
    assert bp.hopf is y.hopf and bp.dim == y.dim
    n, d = y.hopf.dim, y.dim
    if samples is None:
        rows = itertools.product(range(n), range(d))
    else:
        rows = (divmod(k, d)
                for k in random.Random(p).sample(range(n * d), samples))
    for h, x in rows:
        assert veq(dict(y.action.row(h, x)), dict(bp.action.row(h, x))), (
            h, x)
    one = sys.ctx.one
    for x in range(d):
        assert veq(y.coaction.apply({x: one}), bp.coaction.apply({x: one})), x


@pytest.mark.parametrize("i,j", [(1, 17), (16, 3), (200, 255)])
def test_a_zeta_scaled_product_entry_fails_each_identity_at_its_pair(
        sys2, i, j):
    """smash-closed-form compares H(B*)'s product with another through one
    comparator, and so do the table walks that eta-twist and
    braided-product-is-hdouble replaced, which stay as their oracles:
    each fails at the corrupted pair, the first it walks that differs.
    eta-twist and braided-product-is-hdouble compare the inputs of the
    twisted-product formula, so they refuse a table that has none."""
    bad = _zeta_scaled(sys2, i, j)
    A = bad.heis.algebra
    assert A.mult.get(i, j) != sys2.heis.algebra.mult.get(i, j)
    B = heisenberg_chain(sys2.yd, 2).yd.algebra
    # each result, with the algebra whose labels its witness shows
    results = {
        "eta-twist": (eta_twist_walk(sys2.double, bad.heis, EXHAUSTIVE), A),
        "smash-closed-form": (closed_form_check(bad, EXHAUSTIVE), A),
        "braided-product-is-hdouble": (
            check_product_rows("braided-product-is-hdouble", B,
                               lambda a, b: dict(A.mult.get(a, b)),
                               EXHAUSTIVE, (None, None)), B),
    }
    for name, (res, X) in results.items():
        assert (res.name, res.status, res.mode) == (name, "fail",
                                                    "exhaustive")
        assert res.cases_checked == i * A.dim + j + 1
        assert res.witness.startswith(
            f"products of ({X.space.label(i)}, {X.space.label(j)}) differ: ")
    with pytest.raises(ValueError, match="twisted-product formula"):
        check_same_twist(B, A, "braided-product-is-hdouble")
    with pytest.raises(ValueError, match="twisted-product formula"):
        eta_twist_product(sys2.double, bad.heis)


def test_action_composes_through_double(sys2):
    act = FactoredAction(sys2.heis, sys2.double)
    res = to_show_action_check(sys2.double, act,
                               TupleWalks("generators", 0, 10_000))
    assert res.status == "pass"


def test_quasitriangular_p2(sys2):
    all_pass(check_quasitriangular(sys2.double, EXHAUSTIVE))


# -- the multiply-out oracle of the R lines ----------------------------------

def triple_product(H, x: dict, y: dict) -> dict:
    """Componentwise product on H (x) H (x) H given by flat triple vectors."""
    n = H.dim
    get = H.mult.get
    out: dict = {}
    for t1, c1 in x.items():
        ab, a3 = divmod(t1, n)
        a1, a2 = divmod(ab, n)
        for t2, c2 in y.items():
            bb, b3 = divmod(t2, n)
            b1, b2 = divmod(bb, n)
            rows = get(a1, b1), get(a2, b2), get(a3, b3)
            if not all(rows):
                continue
            for k1, ck1 in rows[0]:
                for k2, ck2 in rows[1]:
                    vadd_into(out, rows[2], c1 * c2 * ck1 * ck2,
                              (k1 * n + k2) * n)
    return out


def multiply_out_r_lines(D) -> list:
    """r-hexagon-1, r-hexagon-2 and r-inverse of `check_quasitriangular`
    certified by multiplying R out: (Delta (x) id)R against R13 R23 and
    (id (x) Delta)R against R13 R12 in D^(x)3, then R (S (x) id)R and
    (S (x) id)R R against 1 (x) 1 in D (x) D; labelled "exhaustive",
    counting len(R), len(R) and 2 cases."""
    H = D.hopf
    d = H.dim
    R = D.rmatrix()
    r13, r23, r12, lhs1, lhs2, rinv = {}, {}, {}, {}, {}, {}
    for key, c in R.items():
        k1, k2 = divmod(key, d)
        for u, cu in H.unit.items():
            vadd_term(r13, (k1 * d + u) * d + k2, c * cu)
            vadd_term(r23, (u * d + k1) * d + k2, c * cu)
            vadd_term(r12, (k1 * d + k2) * d + u, c * cu)
        for j, k, cc in H.comult.get(k1):
            vadd_term(lhs1, (j * d + k) * d + k2, c * cc)
        for j, k, cc in H.comult.get(k2):
            vadd_term(lhs2, (k1 * d + j) * d + k, c * cc)
        for s, cs in H.antipode.get(k1):
            vadd_term(rinv, s * d + k2, c * cs)
    unit2 = tensor_flat(H.unit, H.unit, d)
    return [
        certificate_check("r-hexagon-1", len(R), lambda: (
            None if veq(lhs1, triple_product(H, r13, r23))
            else "(Delta (x) id)R != R13 R23")),
        certificate_check("r-hexagon-2", len(R), lambda: (
            None if veq(lhs2, triple_product(H, r13, r12))
            else "(id (x) Delta)R != R13 R12")),
        certificate_check("r-inverse", 2, lambda: (
            None if veq(pair_product(H, R, rinv), unit2)
            and veq(pair_product(H, rinv, R), unit2)
            else "(S (x) id)R is not inverse to R"))]


def pairing_entry_times_zeta(D):
    """D rebuilt on its pairing with the first entry of <F, .> times zeta."""
    rows = dict(D.pairing.rows)
    f = D.dual.space.index[(1, 0)]
    (b, c), *rest = rows[f]
    rows[f] = ((b, c * D.ctx.zeta), *rest)
    return drinfeld_double(D.base, D.dual, HopfPairing(D.dual, D.base, rows))


def test_the_r_lines_are_read_off_the_pairing_at_p2(sys2):
    """Outside a suite each R line walks every hypothesis it reads: the
    pairing laws up to its product law (16, 2 + 16 + 256, then 2 * 256
    triples each), the canonical element (16), R-normality (2 * 16), and
    the tensor coalgebra (256) or S_D on 1 (x) B (16)."""
    lines = list(check_quasitriangular(sys2.double, EXHAUSTIVE))[1:]
    assert [(r.name, r.status, r.mode, r.cases_checked) for r in lines] == [
        ("r-hexagon-1", "pass", "generators", 16 + 288 + 512 + 16 + 32 + 256),
        ("r-hexagon-2", "pass", "generators",
         16 + 288 + 512 + 512 + 16 + 32 + 256),
        ("r-inverse", "pass", "generators", 16 + 288 + 512 + 16 + 32 + 16)]


@pytest.mark.parametrize("corrupt,witness", [
    (None, None),
    ("pairing", "[pairing-units-antipode] <S* f, x> != <f, S x> at f=F, "
                "x=Ek^6"),
    ("r", "sum_J <e^I, e_J> e_J = (7/8 + 1/8*q^(1/2))*1 + "),
], ids=["healthy", "pairing-entry-times-zeta", "r-term-times-zeta"])
def test_the_pairing_route_and_the_multiply_out_agree(sys2, monkeypatch,
                                                      corrupt, witness):
    """The R lines read off the pairing and the p=2 oracle that multiplies
    R out give each line the same status: all pass on the healthy double;
    all fail on D(B) rebuilt on a pairing with one entry of <F, .> times
    zeta, the route at a pairing-law case; and all fail with R's first
    term times zeta, the route at the canonical-element obligation."""
    D = sys2.double
    if corrupt == "pairing":
        D = pairing_entry_times_zeta(D)
    elif corrupt == "r":
        R = D.rmatrix()
        first = min(R)
        monkeypatch.setattr(D, "_rmatrix",
                            {**R, first: R[first] * D.ctx.zeta})
    route = list(check_quasitriangular(D, EXHAUSTIVE))[1:]
    oracle = multiply_out_r_lines(D)
    assert ([(r.name, r.status) for r in route]
            == [(r.name, r.status) for r in oracle])
    assert {r.status for r in route} == {"fail" if corrupt else "pass"}
    for r in route:
        assert (r.witness or "").startswith(witness or ""), r.witness
        assert (r.witness is None) == (witness is None)


@pytest.mark.parametrize("scaled", [False, True],
                         ids=["healthy", "first-r-term-times-zeta"])
def test_both_intertwining_routes_give_the_same_verdict(sys2, monkeypatch,
                                                        scaled):
    """R Delta(x) = Delta-op(x) R on D(B)'s generators, closed by its
    generation certificate, against every basis vector x: both pass on
    the healthy R, and both fail with R's first term times zeta, the
    full walk at its 9th basis vector and the generators at their 2nd."""
    D = sys2.double
    if scaled:
        R = D.rmatrix()
        first = min(R)
        monkeypatch.setattr(D, "_rmatrix",
                            {**R, first: R[first] * D.ctx.zeta})
    full = next(check_quasitriangular(D, EXHAUSTIVE))
    gens = next(check_quasitriangular(D, lemma_walk(D.hopf, 1)))
    assert (full.name, full.mode, gens.mode) == (
        "r-intertwine", "exhaustive", "generators")
    assert full.status == gens.status == ("fail" if scaled else "pass")
    assert (full.cases_checked, gens.cases_checked) == (
        (9, 2) if scaled else (256, 4))


def test_r_matrix_commutativity_forms(sys2):
    hunt = TupleWalks("generators", 0, 200)
    neg, pos = check_quantum_comm_remarks(sys2.double, sys2.heis, hunt, hunt)
    assert neg.status == "pass"   # counterexample to the naive form exists
    assert "kap#k - 4*Fkap#Ek^7" in neg.witness
    assert pos.status == "pass"   # the corrected form holds


def test_heisenberg_is_braided_commutative(sys2):
    res = check_braided_commutative(sys2.yd, EXHAUSTIVE)
    assert res.status == "pass"
    assert res.cases_checked == 65_536


def test_three_factor_chain_relations(sys2):
    ch3 = heisenberg_chain(sys2.yd, 3)
    assert ch3.yd.algebra.dim == 16 ** 3
    all_pass(chain_relations_check(ch3, sys2.double, prefix="chain3"))


def test_three_factor_chain_not_braided_commutative(sys2):
    ch3 = heisenberg_chain(sys2.yd, 3)
    inner = check_braided_commutative(ch3.yd,
                                      TupleWalks("generators", 0, 200))
    res = invert_expected_failure(inner, "chain3-fails")
    assert res.status == "pass"
    assert "kap >< 1 >< F" in res.witness
    assert "Fkap >< 1 >< 1" in res.witness


def test_named_double_generators(system):
    D = system.double
    els = double_elements(system)
    # kap is grouplike in D and k E = q E k survives into the double
    kapv, kv, Ev = els["kap"], els["k"], els["E"]
    ctx = system.ctx
    lhs = D.hopf.product(kv, Ev)
    rhs = {i: ctx.q * c for i, c in D.hopf.product(Ev, kv).items()}
    assert veq(lhs, rhs)


def _leg_composite(D, side, h, v):
    """The factor actions as composites of D's leg tables:
    (mu (x) m) |> beta = adF(mu)(hit(m) beta) on B*, and
    (mu (x) m) |> b = rhit(mu)(ad(m) b) on B."""
    mu, m = divmod(h, D.base.dim)
    outer, inner = (D.adf, D.hit) if side == 0 else (D.rhit, D.ad)
    out = {}
    for t, c in inner(m, v):
        vadd_into(out, outer(mu, t), c)
    return out


def _projected_coproduct(D, side, v):
    """Delta_D on beta (x) 1 (side 0) or 1 (x) b (side 1), its second leg
    taken back to the factor by the counit of the other factor."""
    nB, d = D.base.dim, D.dim
    base, dual = D.base, D.dual
    embed = (v * nB + min(base.unit) if side == 0
             else min(dual.unit) * nB + v)
    acc = {}
    for key, c in D.hopf.comult.apply({embed: D.ctx.one}).items():
        h, (f, b) = key // d, divmod(key % d, nB)
        y, w = (f, base.counit.get(b)) if side == 0 else (
            b, dual.counit.get(f))
        if w:
            vadd_term(acc, (h, y), c * w)
    return sorted(acc.items())


def test_the_factor_restrictions_are_the_leg_composites(sys2):
    """Every action and coaction row of H(B*)'s structure restricted to
    B* (x) 1 and 1 (x) B is the factor's own, from D's leg tables and
    coproduct."""
    D = sys2.double
    for side, f in enumerate(factor_structures(sys2.yd)):
        for h in range(D.hopf.dim):
            for v in range(f.dim):
                assert veq(dict(f.action.row(h, v)),
                           _leg_composite(D, side, h, v))
        for v in range(f.dim):
            assert [((h, y), c) for h, y, c in f.coaction.terms(v)] == (
                _projected_coproduct(D, side, v))
    assert [(r.name, r.status, r.mode, r.cases_checked)
            for r in check_factor_restrictions(sys2.yd)] == [
        ("dual-factor-braided-commutative", "pass", "generators", 7 * 16),
        ("base-factor-braided-commutative", "pass", "generators", 7 * 16)]


def _pushed_out(sys, x):
    """sys with the row of D(B)'s first generator on the basis vector x
    of H(B*) given zeta times a basis vector in neither factor."""
    X, H = sys.yd.algebra, sys.yd.hopf
    left, right = X.twist.factor_indices()
    g = min(gen_indices(H))
    odd = next(i for i in range(X.dim) if i not in left + right)
    real = sys.yd.action.row

    def fn(h, y):
        row = dict(real(h, y))
        if (h, y) == (g, x):
            vadd_term(row, odd, sys.ctx.zeta)
        return row

    return sys._replace(yd=sys.yd._replace(action=Action(H, X, fn)))


@pytest.mark.parametrize("where,failed", [
    ("unit", ("dual", "base")), ("dual-vector", ("dual",))])
def test_a_factor_row_pushed_out_fails_the_factor_laws(monkeypatch, capsys,
                                                       sys2, where, failed):
    """A row of H(B*)'s action on a factor vector pushed out of B* (x) 1
    fails the restriction certificate of each factor that holds the
    vector, and with it both corollaries; the lines that read the factors
    skip naming it, the run exits 1, and the factor's action refuses to
    read the row."""
    left, _ = sys2.heis.algebra.twist.factor_indices()
    x = min(sys2.heis.algebra.unit) if where == "unit" else left[1]
    bad = _pushed_out(sys2, x)
    monkeypatch.setattr(report_module, "taft_system", lambda p: bad)
    lines = {r.name: r for r in run_suite(SuiteConfig(
        p=2, suite="heisenberg,chains")).results}
    cert = f"{failed[0]}-factor-braided-commutative"
    for law in ("dual-factor-braided-commutative",
                "base-factor-braided-commutative"):
        r = lines[f"heisenberg.{law}.p2"]
        assert r.status == ("fail" if law.split("-")[0] in failed
                            else "pass")
    witness = lines[f"heisenberg.{cert}.p2"].witness
    assert witness.endswith("has the leg kap#k outside B*(p=2)(cop)")
    for law in ("braided-symmetric", "locked-identity"):
        assert (lines[f"heisenberg.{law}.p2"].status,
                lines[f"heisenberg.{law}.p2"].witness) == (
            "fail", f"rests on {cert} (fail): {witness}")
    assert {name for name, r in lines.items() if r.status == "fail"} == {
        *(f"{suite}.{side}-factor-braided-commutative.p2"
          for suite in ("heisenberg", "chains") for side in failed),
        "heisenberg.braided-symmetric.p2", "heisenberg.locked-identity.p2"}
    assert {name: r.mode for name, r in lines.items()
            if r.status == "skipped"} == dict.fromkeys((
        *(f"heisenberg.{law}.p2" for law in (
            "braided-product-is-hdouble", "factor-embedding",
            "flip-bijective", "flip-algebra-morphism",
            "flip-module-morphism", "flip-comodule-morphism")),
        *(f"chains.full-chain3-{law}.p2" for law in (
            "relations", "braided-commutativity-fails", "embedding"))),
        f"needs the factor structures; {cert} failed")
    assert main(["verify", "--p", "2", "--suite", "heisenberg,chains"]) == 1
    capsys.readouterr()
    dual_yd, _ = factor_structures(bad.yd)
    with pytest.raises(ValueError, match=r"\|> .* has the leg .* outside"):
        dual_yd.action.row(min(gen_indices(bad.yd.hopf)), left.index(x))
