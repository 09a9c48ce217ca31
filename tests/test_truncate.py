"""Tests for Hopf-ideal quotients, sub-Hopf extraction, and transport."""

from __future__ import annotations

import itertools

import pytest

from hopfbench.hopf import FiniteHopf, check_hopf_axioms, render_element
from hopfbench.results import (TupleWalks, counted, generation_failure,
                               lemma_walk, run_check)
from hopfbench.sparse import (BilinearMap, ColinearMap, LazyLinearMap,
                              QuotientSpace, SpanSolver, Subspace,
                              span_closure, tensor_flat, vadd_term, veq, vsub)
from hopfbench.taft import (double_elements, heis_elements, taft_system,
                            uqsl2)
from hopfbench.truncate import (central_hopf_ideal, change_basis_hopf,
                                hopf_quotient, quotient_morphism_check,
                                sub_hopf, transport_action)


EXHAUSTIVE = TupleWalks("exhaustive", 0, 0)


def exhaustive_axioms(H):
    """Every Hopf axiom of H on every tuple, associativity by the triple
    lemma when H declares generators."""
    assoc = lemma_walk(H, 3) if H.generators else EXHAUSTIVE
    return check_hopf_axioms(H, assoc, EXHAUSTIVE, EXHAUSTIVE)


def check_hopf_ideal(H, I, name="hopf-ideal"):
    """The reference for `central_hopf_ideal`: that the echelonized span
    I is a Hopf ideal of H, on every basis row r of I.

    Left and right multiples of r lie in I, the multipliers being the
    generators of H when their generation certificate holds and every
    basis vector otherwise; eps(r) = 0; S(r) lies in I; and Delta(r)
    lies in I (x) H + H (x) I, (pi (x) pi) Delta(r) = 0 for the
    projection pi onto H/I.
    """
    one = H.ctx.one
    rows = I.basis_rows()
    if H.generators and generation_failure(H) is None:
        mults = [dict(g) for g in H.generators]
    else:
        mults = [{i: one} for i in range(H.dim)]

    def multiples(r, g):
        row = render_element(H.space, r)
        if not I.contains(H.product(g, r)):
            return f"left multiple escapes: row {row}"
        if not I.contains(H.product(r, g)):
            return f"right multiple escapes: row {row}"
        return None

    def body():
        for r in rows:
            for g in mults:
                yield from counted(2, lambda: multiples(r, g))
        for r in rows:
            yield (f"counit does not vanish on {render_element(H.space, r)}"
                   if H.counit_of(r) else None)
        for r in rows:
            yield (None if I.contains(H.antipode_of(r)) else
                   f"antipode escapes on {render_element(H.space, r)}")
        Q = QuotientSpace(H.dim, I)
        pi = {k: Q.project({k: one}) for k in range(H.dim)}
        for r in rows:
            image = {}
            for key, c in H.coproduct(r).items():
                a, b = divmod(key, H.dim)
                for qa, ca in pi[a].items():
                    for qb, cb in pi[b].items():
                        vadd_term(image, qa * Q.dim + qb, c * ca * cb)
            yield (f"coproduct of {render_element(H.space, r)} "
                   f"escapes I(x)H + H(x)I" if image else None)

    return run_check(name, "exhaustive", body())


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
    axioms = exhaustive_axioms(hq.quotient)
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
    # the unit, S k for the 8 group-likes, the span closure of 1 and k,
    # and the coproduct and antipode of each group-like (73 when every
    # product of S was walked)
    assert (sub.check.status, sub.check.mode) == ("pass", "generators")
    assert sub.check.cases_checked == 1 + 8 + 1 + 8
    assert sub.hopf.dim == 8
    axioms = exhaustive_axioms(sub.hopf)
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
    rescaled, coords = change_basis_hopf(primal, vecs, labels,
                                         name="rescaled")
    assert rescaled.dim == primal.dim
    assert all(veq(coords(v), {i: ctx.one}) for i, v in enumerate(vecs))
    axioms = exhaustive_axioms(rescaled)
    assert all(r.status == "pass" for r in axioms)


def test_double_quotient_dimensions(sys2):
    uq = uqsl2(2)
    assert uq.dbar.dim == 32            # 4 p^3
    assert uq.hopf.dim == 16            # 2 p^3
    by_name = {c.name: c for c in uq.checks}
    ideal_check = by_name["uq-ideal-hopf"]
    assert (ideal_check.status, ideal_check.mode) == ("pass", "generators")
    # 4 generators, then eps(c), S(c) and Delta(c)
    assert ideal_check.cases_checked == 7
    # the unit, S g for the 3 generators of the 16-dim even span, its
    # span closure, then the coproduct and antipode of each basis vector
    # (273 when every product of S was walked)
    closure = by_name["Uq(p=2)-closure"]
    assert (closure.status, closure.mode) == ("pass", "generators")
    assert closure.cases_checked == 1 + 3 * 16 + 1 + 16


def test_quotient_morphism(sys2):
    uq = uqsl2(2)
    res = quotient_morphism_check(uq.hq)
    assert (res.status, res.mode) == ("pass", "exhaustive")
    # dim K + dim I = dim H, pi s = id on 32 vectors, pi(I) = 0 on 224 rows
    assert res.cases_checked == 1 + 32 + 224


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


# -- the central Hopf ideal, certified from its generator ----------------------

def _kk_minus_one(sys):
    D = sys.double.hopf
    g = double_elements(sys)
    kk = D.product(g["kap"], g["k"])
    return kk, vsub(kk, dict(D.unit))


def _double_with(D, antipode=None, comult=None, generators=None):
    return FiniteHopf(D.ctx, D.space, D.mult, D.unit, comult or D.comult,
                      D.counit, antipode or D.antipode,
                      generators=generators or D.generators, name=D.name)


def test_a_central_group_like_fails_the_counit_step(sys2):
    """kap k is central, but eps(kap k) = 1."""
    D = sys2.double.hopf
    kk, _ = _kk_minus_one(sys2)
    _, res = central_hopf_ideal(D, kk, name="kk-ideal")
    assert (res.status, res.cases_checked) == ("fail", 5)
    assert res.witness == "counit does not vanish on c = kap(x)k"


def test_a_scaled_antipode_row_under_c_fails_the_antipode_step(sys2):
    """S(kap k) times zeta: S(c) = zeta (kap k)^(-1) - 1 maps to zeta - 1
    in H/I, so it is not in I."""
    D = sys2.double.hopf
    kk, c = _kk_minus_one(sys2)
    (i,) = kk
    bad_row = tuple((k, v * D.ctx.zeta) for k, v in D.antipode.get(i))
    bad = _double_with(D, antipode=LazyLinearMap(
        D.dim, D.dim, lambda j: bad_row if j == i else D.antipode.get(j)))
    _, res = central_hopf_ideal(bad, c, name="uq-ideal")
    assert (res.status, res.cases_checked) == ("fail", 6)
    assert res.witness == "antipode escapes on c = -1(x)1 + kap(x)k"


def test_a_scaled_coproduct_row_under_c_fails_the_coproduct_step(sys2):
    D = sys2.double.hopf
    kk, c = _kk_minus_one(sys2)
    (i,) = kk
    bad_row = tuple((j, k, v * D.ctx.zeta) for j, k, v in D.comult.get(i))
    bad = _double_with(D, comult=ColinearMap(
        D.dim, D.dim, D.dim,
        fn=lambda j: bad_row if j == i else D.comult.get(j)))
    _, res = central_hopf_ideal(bad, c, name="uq-ideal")
    assert (res.status, res.cases_checked) == ("fail", 7)
    assert res.witness == ("coproduct of c = -1(x)1 + kap(x)k escapes "
                           "I(x)H + H(x)I")


def test_too_few_generators_fail_the_centrality_certificate(sys2):
    D = sys2.double.hopf
    _, c = _kk_minus_one(sys2)
    _, res = central_hopf_ideal(
        _double_with(D, generators=D.generators[:-1]), c)
    assert (res.status, res.cases_checked) == ("fail", 3)
    assert res.witness.endswith("; generation certificate failed")


# -- the lambda-z-delta subalgebra, certified from its generators -------------

def _lam_z_del(sys):
    """The span of lam^a z^b del^c in H(B*) (a < 4p; b, c < p), its labels,
    and the position of each label."""
    p = sys.ctx.p
    A = sys.heis.algebra
    els = heis_elements(sys)

    def pows(v, count):
        out = [dict(A.unit)]
        for _ in range(count - 1):
            out.append(A.product(out[-1], v))
        return out

    lam, z, dl = pows(els["lam"], 4 * p), pows(els["z"], p), pows(els["del"], p)
    labels = [(a, b, c) for a in range(4 * p) for b in range(p)
              for c in range(p)]
    basis = [A.product(A.product(lam[a], z[b]), dl[c]) for a, b, c in labels]
    return basis, labels, {lab: i for i, lab in enumerate(labels)}


def _sub_closure(ts):
    return next(c for c in ts.certificates if c.name.endswith("-sub-closure"))


def test_lazy_sub_table_equals_the_eager_table(sys2):
    """Certified from lam, z and del, the transport fills its product table
    lazily; every pair agrees with the table the k + k^2 walk fills."""
    basis, labels, pos = _lam_z_del(sys2)
    gens = (pos[(1, 0, 0)], pos[(0, 1, 0)], pos[(0, 0, 1)])
    lazy = transport_action(sys2.yd, basis, labels, target_generators=gens,
                            prefix="lazy")
    eager = transport_action(sys2.yd, basis, labels, prefix="eager")
    assert lazy.ok and eager.ok
    assert [(c.mode, c.cases_checked) for c in map(_sub_closure,
                                                   (lazy, eager))] == [
        ("generators", 32 + 32 * 3), ("exhaustive", 32 + 32 * 32)]
    L, E = lazy.yd.algebra.mult, eager.yd.algebra.mult
    for i in range(32):
        for j in range(32):
            assert [(k, id(c)) for k, c in L.get(i, j)] == [
                (k, id(c)) for k, c in E.get(i, j)]


def test_generators_without_del_fail_the_rank_certificate(sys2):
    basis, labels, pos = _lam_z_del(sys2)
    ts = transport_action(sys2.yd, basis, labels,
                          target_generators=(pos[(1, 0, 0)], pos[(0, 1, 0)]))
    chk = _sub_closure(ts)
    assert (chk.status, chk.mode, chk.cases_checked) == ("fail", "generators",
                                                         32 + 32 * 2)
    assert chk.witness == ("generating set spans rank 16 of 32; "
                           "generation certificate failed")
    assert ts.yd is None


def test_a_non_closed_sub_basis_fails_both_routes(sys2):
    """lam^7 z del replaced by kap: kap lam = kap^2 # k leaves the span."""
    basis, labels, pos = _lam_z_del(sys2)
    basis[pos[(7, 1, 1)]] = heis_elements(sys2)["kap"]
    gens = (pos[(1, 0, 0)], pos[(0, 1, 0)], pos[(0, 0, 1)])
    for target_generators in (gens, ()):
        chk = _sub_closure(transport_action(
            sys2.yd, basis, labels, target_generators=target_generators))
        assert chk.status == "fail"
        assert chk.witness.endswith(" escapes the span")


# -- the three u_q(sl_2) tables against their defining formulas ---------------

def _first_mismatch(T, P, lift, push):
    """The first entry of T's tables that differs from its definition as
    P carried through `lift` (T's basis in P) and `push` (P coordinates
    to T's), or None.  Each formula is applied term by term."""
    n, one = T.dim, T.ctx.one

    def push_pairs(flat):
        out: dict = {}
        for key, c in flat.items():
            a, b = divmod(key, P.dim)
            for k, ck in tensor_flat(push({a: one}), push({b: one}), n).items():
                vadd_term(out, k, c * ck)
        return out

    if not veq(T.unit, push(dict(P.unit))):
        return "unit"
    for i in range(n):
        if T.counit.get(i, T.ctx.zero) != P.counit_of(lift(i)):
            return f"counit {i}"
        for j in range(n):
            if not veq(dict(T.mult.get(i, j)),
                       push(P.product(lift(i), lift(j)))):
                return f"mult {i} {j}"
        if not veq({a * n + b: c for a, b, c in T.comult.get(i)},
                   push_pairs(P.coproduct(lift(i)))):
            return f"comult {i}"
        if not veq(dict(T.antipode.get(i)), push(P.antipode_of(lift(i)))):
            return f"antipode {i}"
    return None


@pytest.fixture(scope="module")
def uq_tables():
    """name -> (table, parent, lift, push) for the quotient of D(B) by the
    ideal, its monomial basis Dbar and the even-k-power sub-Hopf algebra,
    at p = 2.  lift and push are built here from QuotientSpace, SpanSolver
    and the index map, not read from the constructions."""
    uq = uqsl2(2)
    D, K, Dbar = uq.system.double.hopf, uq.hq.quotient, uq.dbar
    pair = uq.system.pair
    one = D.ctx.one
    Q = QuotientSpace(D.dim, uq.ideal)
    nB = pair.primal.dim
    fi, bi = pair.dual.space.index, pair.primal.space.index
    vecs = [Q.project({fi[(l, 0)] * nB + bi[(m, d)]: one})
            for l, m, d in Dbar.space.labels]
    solver = SpanSolver(K.dim)
    assert solver.add_many(vecs) == K.dim
    even = [i for i, (_l, _m, d) in enumerate(Dbar.space.labels) if d % 2 == 0]
    pos = {a: j for j, a in enumerate(even)}
    return {
        "quotient": (K, D, lambda i: {Q.labels[i]: one}, Q.project),
        "basis-change": (Dbar, K, lambda i: vecs[i], solver.solve),
        "sub": (uq.sub.hopf, Dbar, lambda i: {even[i]: one},
                lambda v: {pos[k]: c for k, c in v.items()}),
    }


@pytest.mark.parametrize("name", ["quotient", "basis-change", "sub"])
def test_every_table_row_matches_its_definition(uq_tables, name):
    T, P, lift, push = uq_tables[name]
    assert (T.dim, P.dim) == {"quotient": (32, 256), "basis-change": (32, 32),
                              "sub": (16, 32)}[name]
    assert _first_mismatch(T, P, lift, push) is None


@pytest.mark.parametrize("name,table", [("quotient", "mult"),
                                        ("basis-change", "comult"),
                                        ("sub", "antipode")])
def test_one_entry_scaled_by_zeta_is_caught(uq_tables, name, table):
    T, P, lift, push = uq_tables[name]
    n, zeta = T.dim, T.ctx.zeta
    get = getattr(T, table).get
    keys = (itertools.product(range(n), repeat=2) if table == "mult"
            else ((i,) for i in range(n)))
    at = next(key for key in keys if get(*key))
    head, *rest = get(*at)
    bad_row = (head[:-1] + (head[-1] * zeta,), *rest)

    def fn(*key):
        return bad_row if key == at else get(*key)

    mult = BilinearMap(n, n, fn=fn) if table == "mult" else T.mult
    comult = ColinearMap(n, n, n, fn=fn) if table == "comult" else T.comult
    antipode = LazyLinearMap(n, n, fn) if table == "antipode" else T.antipode
    bad = FiniteHopf(T.ctx, T.space, mult, T.unit, comult, T.counit,
                     antipode, generators=T.generators, name=T.name)
    assert _first_mismatch(bad, P, lift, push) == " ".join(
        map(str, (table, *at)))
