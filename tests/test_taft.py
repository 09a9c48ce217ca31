"""Tests for the root-of-unity algebra family and its monomial dual."""

from __future__ import annotations

import pytest

import hopfbench.taft as taft_module
from hopfbench.cyclo import QContext
from hopfbench.hopf import check_hopf_axioms, check_hopf_pairing, dual_hopf
from hopfbench.results import TupleWalks, gen_indices, lemma_walk
from hopfbench.sparse import (LinearMap, SingularMapError, linear_map_inverse,
                              vadd_into, veq, vscale)
from hopfbench.taft import (
    TaftPair, closed_form_smash_row, taft_dual_check, taft_setup, taft_system,
)
from test_hopf import antipode_antimultiplicative


EXHAUSTIVE = TupleWalks("exhaustive", 0, 0)


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


def exhaustive_axioms(H):
    """Every Hopf axiom of H, and S(xy) = S(y) S(x), on every tuple,
    associativity by the generator-headed triple lemma."""
    return [*check_hopf_axioms(H, lemma_walk(H, 3), EXHAUSTIVE, EXHAUSTIVE),
            antipode_antimultiplicative(H, EXHAUSTIVE)]


def element(H, label):
    """The basis vector of H with the given label."""
    return H.basis(H.space.index[label])


def test_primal_hopf_axioms(setup):
    all_pass(exhaustive_axioms(setup.primal))


def test_dual_hopf_axioms(setup):
    all_pass(exhaustive_axioms(setup.dual))


def test_primal_relations(setup):
    B = setup.primal
    ctx = setup.ctx
    p, order = ctx.p, 4 * ctx.p
    E = element(B, (1, 0))
    k = element(B, (0, 1))
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
    s2 = B.antipode_of(B.antipode_of(element(B, (1, 0))))
    assert veq(s2, {idx[(1, 0)]: ctx.q_pow(2)})


def test_dual_relations(setup):
    D = setup.dual
    ctx = setup.ctx
    p, order = ctx.p, 4 * ctx.p
    F = element(D, (1, 0))
    kap = element(D, (0, 1))
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
    assert veq(D.unit, element(D, (0, 0)))


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
        got = P.pair(element(D, (1, 0)), element(B, (1, n)))
        assert got == ctx.q_pow(-n) * ctx.qdiff_inv
        got = P.pair(element(D, (0, 1)), element(B, (0, n)))
        assert got == ctx.q_half_pow(-n)


def test_pairing_is_m_diagonal(setup):
    P = setup.pairing
    B, D = setup.primal, setup.dual
    for (a, b) in D.space.labels:
        f = element(D, (a, b))
        for (m, n) in B.space.labels:
            if m != a:
                assert P.pair(f, element(B, (m, n))) == P.alg.ctx.zero


def test_pairing_axioms():
    pair = taft_setup(2)
    res = list(check_hopf_pairing(pair.pairing, EXHAUSTIVE, EXHAUSTIVE))
    all_pass(res)
    # each product law walks every triple once: (f, g, x) and (x, f, y)
    assert [(r.name, r.cases_checked) for r in res[2:]] == [
        ("pairing-mult-vs-comult", 16 ** 3),
        ("pairing-comult-vs-mult", 16 ** 3)]


def test_pairing_axioms_p3_sampled():
    pair = taft_setup(3)
    walks = TupleWalks("sample", 11, 60)
    res = list(check_hopf_pairing(pair.pairing, walks, walks))
    all_pass(res)
    assert [r.cases_checked for r in res[2:]] == [60, 60]


def test_pairing_walks_are_labelled_by_what_ran():
    pairing = taft_setup(2).pairing
    walks = TupleWalks("generators", 0, 50)
    res = {r.name: r for r in check_hopf_pairing(pairing, walks, walks)}
    # the head: the generator indices of B* in f and g, then every x; and
    # the generator indices of B in x and y, with every f between them
    heads = {"pairing-mult-vs-comult": len(gen_indices(pairing.dual)) ** 2 * 16,
             "pairing-comult-vs-mult": 16 * len(gen_indices(pairing.alg)) ** 2}
    for name, head in heads.items():
        assert res[name].status == "pass"
        assert res[name].mode == "generators+sample(n=50,seed=0)"
        assert res[name].cases_checked == head + 50
    with pytest.raises(ValueError, match="sampled"):
        TupleWalks("sampled", 0, 50)


def test_basis_change_roundtrip(setup):
    D = setup.dual
    to_can = setup.to_canonical
    from_can = linear_map_inverse(to_can)
    for i in range(D.dim):
        e = D.basis(i)
        assert veq(from_can.apply(to_can.apply(e)), e)


# -- B* from the constructor of B, against the canonical dual -------------------

def _converted(pair):
    """B*'s unit, counit and row functions as the canonical dual gives them
    through the monomial basis change: the route that built B*'s tables
    before the constructor of B did, kept here as the reference."""
    Bcan = dual_hopf(pair.primal)
    dim = Bcan.dim
    mono = [dict(pair.to_canonical.get(i)) for i in range(dim)]
    from_canonical = linear_map_inverse(pair.to_canonical)
    convert = from_canonical.apply

    def mult(i, j):
        return tuple(sorted(convert(Bcan.product(mono[i], mono[j])).items()))

    def comult(i):
        flat = Bcan.coproduct(mono[i])
        half = {}
        for key, c in flat.items():
            a, b = divmod(key, dim)
            for a2, ca in from_canonical.get(a):
                vadd_into(half, {a2 * dim + b: c * ca})
        full = {}
        for key, c in half.items():
            a, b = divmod(key, dim)
            for b2, cb in from_canonical.get(b):
                vadd_into(full, {a * dim + b2: c * cb})
        return tuple((key // dim, key % dim, c)
                     for key, c in sorted(full.items()))

    def antipode(i):
        return tuple(sorted(convert(Bcan.antipode_of(mono[i])).items()))

    counit = {i: c for i in range(dim) if (c := Bcan.counit_of(mono[i]))}
    return convert(Bcan.unit), counit, mult, comult, antipode


def _coords(row):
    """A row's entries with each scalar as its power-basis coordinates."""
    return [(*entry[:-1], entry[-1].c, entry[-1].d) for entry in row]


@pytest.mark.parametrize("p", [2, 3])
def test_dual_rows_equal_the_canonical_dual_converted(p):
    """Every row of B* equals the canonical dual's row converted to the
    monomial basis, entry order and power-basis coordinates included.
    (At p=3 the stored form of q^2 differs: zeta^4, single-term on B*,
    arrives dense through the conversion.)"""
    pair = taft_setup(p, cached=False)
    D = pair.dual
    unit, counit, mult, comult, antipode = _converted(pair)
    assert _coords(D.unit.items()) == _coords(unit.items())
    assert _coords(sorted(D.counit.items())) == _coords(sorted(counit.items()))
    for i in range(D.dim):
        assert _coords(D.comult.get(i)) == _coords(comult(i))
        assert _coords(D.antipode.get(i)) == _coords(antipode(i))
        for j in range(D.dim):
            assert _coords(D.mult.get(i, j)) == _coords(mult(i, j))


def _corrupt_dual(monkeypatch, corrupt):
    """Build B* (and only B*) with `corrupt(H)` applied to its tables."""
    build = taft_module._taft_hopf

    def patched(ctx, space):
        H = build(ctx, space)
        if space.name.startswith("B*"):
            corrupt(H)
        return H

    monkeypatch.setattr(taft_module, "_taft_hopf", patched)


def _zeta_kappa_f(H):
    """kappa F := zeta q F kappa."""
    idx, fn, zeta = H.space.index, H.mult.fn, H.ctx.zeta
    key = (idx[(0, 1)], idx[(1, 0)])
    H.mult.fn = lambda i, j: (tuple((k, c * zeta) for k, c in fn(i, j))
                              if (i, j) == key else fn(i, j))


def _zeta_f_kappa2(H):
    """comult(F) := 1 (x) F + zeta F (x) kappa^2."""
    idx, fn, zeta = H.space.index, H.comult.fn, H.ctx.zeta
    f, k2 = idx[(1, 0)], idx[(0, 2)]
    H.comult.fn = lambda i: (tuple((j, k, c * zeta if (j, k) == (f, k2) else c)
                                   for j, k, c in fn(i))
                             if i == f else fn(i))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("corrupt", [_zeta_kappa_f, _zeta_f_kappa2],
                         ids=["kappa-F", "F-kappa2"])
def test_a_zeta_scaled_dual_structure_constant_fails_construction(
        monkeypatch, p, corrupt):
    _corrupt_dual(monkeypatch, corrupt)
    with pytest.raises(RuntimeError, match="B\\* is not the dual of B"):
        taft_setup(p, cached=False)


def test_the_construction_certificate_stores_no_dual_rows():
    pair = taft_setup(3, cached=False)
    D = pair.dual
    assert not D.mult.rows and not D.comult.rows and not D.antipode.rows
    assert D.mult is not pair.primal.mult


# -- the basis certificate of the dual monomials ------------------------------

# Each takes the monomials' rows (canonical dual coordinates, B indices),
# the field, and the spaces of B and B*.

def _duplicate(rows, ctx, B, star):
    """F kappa := F, a duplicated monomial."""
    rows[star.index[(1, 1)]] = dict(rows[star.index[(1, 0)]])


def _zeta_multiple(rows, ctx, B, star):
    """F kappa := zeta F, a zeta-scaled copy of another monomial."""
    rows[star.index[(1, 1)]] = vscale(rows[star.index[(1, 0)]], ctx.zeta)


def _overlap(rows, ctx, B, star):
    """F takes a value on E^0 k^0, in the block of the kappa powers."""
    rows[star.index[(1, 0)]][B.index[(0, 0)]] = ctx.one


BROKEN_BASES = {
    "duplicate": (_duplicate, "Fkap is not F times the nodes of block 1"),
    "zeta-multiple": (_zeta_multiple,
                      "Fkap is not F times the nodes of block 1"),
    "overlap": (_overlap, "F is not supported on exactly block 1"),
}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind", sorted(BROKEN_BASES))
def test_a_broken_monomial_basis_fails_the_taft_dual_line(p, kind):
    corrupt, witness = BROKEN_BASES[kind]
    pair = taft_setup(p)
    dim = pair.dual.dim
    rows = [dict(pair.to_canonical.get(i)) for i in range(dim)]
    corrupt(rows, pair.ctx, pair.primal.space, pair.dual.space)
    bad = TaftPair(pair.ctx, pair.primal, pair.dual, pair.pairing,
                   LinearMap(dim, dim, {i: tuple(sorted(v.items()))
                                        for i, v in enumerate(rows)}))
    res = taft_dual_check(bad)
    assert (res.status, res.cases_checked, res.witness) == ("fail", dim,
                                                            witness)
    assert taft_dual_check(pair).status == "pass"


@pytest.mark.parametrize("kind", sorted(BROKEN_BASES))
def test_a_broken_monomial_basis_fails_construction(monkeypatch, kind):
    """The monomials that `taft_dual_monomial` computes, corrupted before
    its basis certificate reads them, raise SingularMapError."""
    corrupt, witness = BROKEN_BASES[kind]
    certificate = taft_module._vandermonde_failure

    def corrupted(ctx, B, star, mono):
        rows = [dict(mono(i)) for i in range(B.dim)]
        corrupt(rows, ctx, B, star)
        return certificate(ctx, B, star, rows.__getitem__)

    monkeypatch.setattr(taft_module, "_vandermonde_failure", corrupted)
    with pytest.raises(SingularMapError, match=f"not a basis: {witness}$"):
        taft_setup(2, cached=False)


def test_the_taft_system_builds_at_p4():
    sys4 = taft_system(4, cached=False)
    assert (sys4.pair.dual.dim, sys4.double.dim, sys4.heis.dim) == (
        64, 4096, 4096)
    assert taft_dual_check(sys4.pair).status == "pass"


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
