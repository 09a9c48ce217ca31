"""Tests for the module/comodule compatibility layer and the braiding, and
for the factor embeddings of braided products and chains, which are read
off the twisted-product records of their steps."""

from __future__ import annotations

import pytest

import hopfbench.ydcat as ydcat_module
from hopfbench.doubles import factor_structures, heisenberg_chain
from hopfbench.hopf import FiniteAlgebra, check_product_rows, twisted_product
from hopfbench.results import TupleWalks, gen_indices, lemma_walk
from hopfbench.sparse import (BilinearMap, tensor_flat, vadd_into, vadd_term,
                              veq)
from hopfbench.taft import taft_system, truly_heisenberg_chain
from hopfbench.ydcat import (
    Action, Coaction, braided_product, braiding_row,
    check_braided_commutative, check_comodule, check_comodule_algebra,
    check_factor_embeddings, check_locked_identity, check_module,
    check_module_algebra, check_yd, flip_isomorphism,
)
from test_results import SampleWalks


EXHAUSTIVE = TupleWalks("exhaustive", 0, 0)
GENERATORS = TupleWalks("generators", 0, 10_000)


@pytest.fixture(scope="module")
def sys2():
    return taft_system(2)


@pytest.fixture(scope="module")
def factors(sys2):
    return factor_structures(sys2.yd)


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
    checks = list(flip_isomorphism(dual_yd, base_yd))
    assert [c.name for c in checks] == [
        "flip-bijective", "flip-algebra-morphism", "flip-module-morphism",
        "flip-comodule-morphism"]
    assert all(c.status == "pass" for c in checks)


def test_flip_yields_bijective_before_it_asks_for_a_walk(factors,
                                                         monkeypatch):
    """The lines come one at a time: the first, flip-bijective, reads no
    walk, so a suite with fail_fast can stop before the others run."""
    def unwalkable(alg):
        raise AssertionError("a walk was asked for before its line")

    monkeypatch.setattr(ydcat_module, "lemma_walk", unwalkable)
    dual_yd, base_yd = factors
    flips = flip_isomorphism(dual_yd, base_yd)
    first = next(flips)
    assert (first.name, first.status) == ("flip-bijective", "pass")
    with pytest.raises(AssertionError, match="asked for before its line"):
        next(flips)


def flip_morphism_walks(x_mod, y_mod, walks):
    """The full walks of flip-algebra-morphism and flip-module-morphism,
    the oracle of their lemma routes in `flip_isomorphism`: phi(uv) =
    phi(u) phi(v) on the (u, v) pairs of `walks`, and phi(h |> u) =
    h |> phi(u) on its (h, u) pairs, phi being the braiding
    X >< Y -> Y >< X."""
    xy = braided_product(x_mod, y_mod).yd
    yx = braided_product(y_mod, x_mod).yd
    H, one = x_mod.hopf, x_mod.hopf.ctx.one
    d, dy = xy.algebra.dim, y_mod.algebra.dim
    rows = [braiding_row(x_mod, y_mod, *divmod(key, dy)) for key in range(d)]

    def phi(v):
        out = {}
        for key, c in v.items():
            vadd_into(out, rows[key], c)
        return out

    def multiplicative(u, v):
        if veq(phi(dict(xy.algebra.mult.get(u, v))),
               yx.algebra.mult.apply(rows[u], rows[v])):
            return None
        return f"phi(uv) != phi(u)phi(v) at u={u}, v={v}"

    def linear(h, u):
        if veq(phi(dict(xy.action.row(h, u))),
               yx.action.apply({h: one}, rows[u])):
            return None
        return f"phi not H-linear at h={h}, u={u}"

    g = gen_indices(xy.algebra)
    return (walks.over((d, d), (g, g)).check("flip-algebra-morphism",
                                             multiplicative),
            walks.over((H.dim, d), (gen_indices(H), g)).check(
                "flip-module-morphism", linear))


def _coaction_scaled(mod, x):
    """mod with its coaction row of e_x times zeta."""
    zeta, rows = mod.hopf.ctx.zeta, mod.coaction.terms
    return mod._replace(coaction=Coaction(mod.hopf, mod.algebra, lambda i: (
        tuple((h, y, c * zeta) for h, y, c in rows(i)) if i == x
        else rows(i))))


def _action_scaled(mod, h, x):
    """mod with its action row of (e_h, e_x) times zeta."""
    zeta, row = mod.hopf.ctx.zeta, mod.action.row
    return mod._replace(action=Action(mod.hopf, mod.algebra, lambda j, i: {
        k: c * zeta if (j, i) == (h, x) else c for k, c in row(j, i)}))


@pytest.mark.parametrize("system", ["healthy", "coaction-scaled",
                                    "action-scaled"])
def test_the_flip_lemma_routes_and_the_full_walks_agree(factors, system):
    """flip-algebra-morphism and flip-module-morphism give the status of
    their full walks over all 65,536 pairs: on the healthy factors; with
    the dual factor's coaction row of F times zeta, which fails both
    (the algebra route at the normality of Y >< X's R, an obligation);
    and with the base factor's action row of (1 (x) k, E) times zeta,
    which keeps phi an algebra map but not H-linear."""
    x_mod, y_mod = factors
    F = x_mod.algebra.space.index[(1, 0)]
    if system == "coaction-scaled":
        x_mod = _coaction_scaled(x_mod, F)
    elif system == "action-scaled":
        H = y_mod.hopf
        y_mod = _action_scaled(y_mod, H.space.index[((0, 0), (0, 1))],
                               y_mod.algebra.space.index[(1, 0)])
    _, algebra, module, _ = flip_isomorphism(x_mod, y_mod)
    walks = flip_morphism_walks(x_mod, y_mod, EXHAUSTIVE)
    want = {"healthy": ("pass", "pass"), "coaction-scaled": ("fail", "fail"),
            "action-scaled": ("pass", "fail")}[system]
    for route, walk, status in zip((algebra, module), walks, want):
        assert (route.name, route.mode, route.status) == (
            walk.name, "generators", status)
        assert walk.status == status
    dB = x_mod.algebra.dim
    if system == "healthy":
        assert [r.cases_checked for r in (algebra, module, *walks)] == [
            1 + 4 * dB + 12 * dB ** 2, 5 * dB ** 2, 16 ** 4, 16 ** 4]
    elif system == "coaction-scaled":
        assert algebra.witness == "R(b (x) 1) != 1 (x) b at b=F"
        assert module.witness == "phi not H-linear at M=1(x)E, u=F >< 1"
    else:
        assert module.witness == "phi not H-linear at M=1(x)k, u=F >< E"


def test_rebracketing(factors):
    """(X >< Y) >< Z and X >< (Y >< Z) are one algebra: row-major
    flattening puts both products on the same index set and unit."""
    x, y = factors
    left = braided_product(braided_product(x, y).yd, x).yd.algebra
    right = braided_product(x, braided_product(y, x).yd).yd.algebra
    assert veq(left.unit, right.unit)
    res = check_product_rows("rebracketing", left,
                             lambda i, j: dict(right.mult.get(i, j)),
                             SampleWalks(0, 200), (None, None))
    assert res.status == "pass"


def braiding_inv_row(u_mod, v_mod, j, i):
    """c^{-1}(e_j (x) e_i) = u_(0) (x) (S^{-1}(u_(-1)) |> e_j), flat over U (x) V.

    Here j indexes V and i indexes U (the input lives in V (x) U).
    """
    if u_mod.hopf is not v_mod.hopf:
        raise ValueError("braiding needs both modules over the same Hopf algebra")
    H = u_mod.hopf
    sinv = H.antipode_inv()
    dv = v_mod.algebra.dim
    out = {}
    for h, u0, c in u_mod.coaction.terms(i):
        for hs, cs in sinv.get(h):
            c1 = c * cs
            if not c1:
                continue
            vadd_into(out, v_mod.action.row(hs, j), c1, u0 * dv)
    return out


def check_braided_symmetric(x_mod, y_mod, walk, name="braided-symmetric"):
    """The braiding Y (x) X -> X (x) Y agrees with the inverse braiding,
    on the (x, y) pairs of `walk`: the oracle of the heisenberg suite's
    braided-symmetric, a corollary of the factor restrictions there.

    Pointwise: (y_(-1) |> x) (x) y_(0)  =  x_(0) (x) (S^{-1}(x_(-1)) |> y).
    """
    X, Y = x_mod.algebra, y_mod.algebra

    def case(i, j):
        lhs = braiding_row(y_mod, x_mod, j, i)       # flat X (x) Y
        rhs = braiding_inv_row(x_mod, y_mod, j, i)   # flat X (x) Y
        if veq(lhs, rhs):
            return None
        return (f"x={X.space.label(i)}, y={Y.space.label(j)}: "
                f"braiding and inverse braiding disagree on y (x) x")

    return walk.over((X.dim, Y.dim), (gen_indices(X), gen_indices(Y))
                     ).check(name, case)


def yang_baxter_check(v_mod, walk):
    """(c (x) id)(id (x) c)(c (x) id) = (id (x) c)(c (x) id)(id (x) c) on
    the triples of `walk` in V^3, generator indices in every slot, c the
    braiding of v_mod with itself."""
    n = v_mod.algebra.dim
    gv = gen_indices(v_mod.algebra)
    walk = walk.over((n, n, n), (gv, gv, gv))
    n2 = n * n
    one = v_mod.hopf.ctx.one
    cache = {}

    def crow(i, j):
        key = i * n + j
        if key not in cache:
            cache[key] = braiding_row(v_mod, v_mod, i, j)
        return cache[key]

    def c12(vec):
        out = {}
        for key, c in vec.items():
            ab, k = divmod(key, n)
            a, b = divmod(ab, n)
            for key2, c2 in crow(a, b).items():
                vadd_term(out, key2 * n + k, c * c2)
        return out

    def c23(vec):
        out = {}
        for key, c in vec.items():
            a, bk = divmod(key, n2)
            b, k = divmod(bk, n)
            vadd_into(out, crow(b, k), c, a * n2)
        return out

    def case(i, j, k):
        e = {(i * n + j) * n + k: one}
        if veq(c12(c23(c12(e))), c23(c12(c23(e)))):
            return None
        sp = v_mod.algebra.space
        return (f"braid relation fails at ({sp.label(i)}, "
                f"{sp.label(j)}, {sp.label(k)})")

    return walk.check("braid-relation", case)


def test_yang_baxter(sys2):
    res = yang_baxter_check(sys2.yd, SampleWalks(0, 50))
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
    ch2 = heisenberg_chain(sys2.yd, 2)
    res = check_factor_embeddings(ch2)
    assert (res.status, res.mode, res.cases_checked) == ("pass", "exhaustive",
                                                         16 + 16)


def _chain(key, p):
    """The two-factor braided product of B*cop and B, the three-factor
    chain of B*cop, B and B*cop, or the z/del chain(n)."""
    if key.startswith("zdel-chain"):
        return truly_heisenberg_chain(p, int(key[-1])).chain
    sys = taft_system(p)
    n = {"bp2": 2, "full-chain3": 3}[key]
    return heisenberg_chain(sys.yd, n)


@pytest.mark.parametrize("key,p,cases", [
    ("bp2", 2, 16 + 16), ("full-chain3", 2, (16 + 16) + (256 + 16)),
    ("zdel-chain4", 2, (2 + 2) + (4 + 2) + (8 + 2)), ("bp2", 3, 36 + 36),
    ("zdel-chain4", 3, (3 + 3) + (9 + 3) + (27 + 3)), ("zdel-chain1", 2, 0)])
def test_the_embedding_certificate_counts_d_a_plus_d_b_per_step(key, p,
                                                                 cases):
    """One R-normality case per basis vector of each step's two factors,
    read from R alone: no product of the chain is formed."""
    res = check_factor_embeddings(_chain(key, p))
    assert (res.status, res.mode, res.cases_checked) == ("pass", "exhaustive",
                                                         cases)


def _as_algebra(tw, like):
    """The algebra of the twisted product record `tw`, named as `like`."""
    return FiniteAlgebra(like.ctx, like.space, tw.mult, tw.unit,
                         generators=tw.gens, name=like.name, twist=tw)


def _with_step_r(bp, k, b, a):
    """bp with the first term of R(b (x) a) of step k times zeta: step k
    and every later step rebuilt by `twisted_product`."""
    steps = bp.steps()
    tw, zeta = steps[k - 1].twist, bp.yd.algebra.ctx.zeta

    def r_row(bb, aa):
        row = tw.r_row(bb, aa)
        if (bb, aa) != (b, a):
            return row
        (x, y, c), *rest = row
        return ((x, y, c * zeta), *rest)

    alg = _as_algebra(twisted_product(tw.A, tw.B, r_row), steps[k - 1])
    for outer in steps[k:]:
        alg = _as_algebra(twisted_product(alg, outer.twist.B,
                                          outer.twist.r_row), outer)
    return bp._replace(yd=bp.yd._replace(algebra=alg))


@pytest.mark.parametrize("key,k,side,x,before", [
    # R(b (x) 1) at b = kap in the outer step of full-chain3, after the
    # 32 cases of step 1 and the 256 of R(1 (x) a) in step 2
    ("full-chain3", 2, "b", 1, 32 + 256),
    # R(1 (x) a) at the fifth basis vector a of B*cop, in its inner step
    ("full-chain3", 1, "a", 4, 0),
    # R(1 (x) a) at a = del >< 1 >< del in the outer step of the z/del
    # chain(4), and R(b (x) 1) at b = del in its middle step
    ("zdel-chain4", 3, "a", 5, 4 + 6),
    ("zdel-chain4", 2, "b", 1, 4 + 4)])
def test_a_scaled_r_entry_at_a_unit_fails_the_embedding_line(key, k, side, x,
                                                             before):
    """A zeta-scaled R(1 (x) a) or R(b (x) 1), made through
    `twisted_product`, fails the certificate of its step at that a or b."""
    bp = _chain(key, 2)
    tw = bp.steps()[k - 1].twist
    (ua,), (ub,) = tw.A.unit, tw.B.unit
    b, a = (ub, x) if side == "a" else (x, ua)
    res = check_factor_embeddings(_with_step_r(bp, k, b, a), key)
    assert (res.status, res.mode, res.cases_checked) == ("fail", "exhaustive",
                                                         before + x + 1)
    want = ("R(1 (x) a) != a (x) 1 at a=" + tw.A.space.label(x)
            if side == "a" else
            "R(b (x) 1) != 1 (x) b at b=" + tw.B.space.label(x))
    assert res.witness == f"step {k}: {want}"


def test_a_chain_on_a_copied_product_is_refused():
    """The outer algebra of full-chain3 on a copy of its table without the
    record, and a chain whose inner step is such a copy: the certificate
    and the embeddings read the records, so both refuse."""
    bp = _chain("full-chain3", 2)
    outer, inner = bp.yd.algebra, bp.steps()[0]

    def bare(alg):
        return FiniteAlgebra(alg.ctx, alg.space,
                             BilinearMap(alg.dim, alg.dim, fn=alg.mult.get),
                             alg.unit, generators=alg.generators,
                             name=alg.name)

    tw = outer.twist
    for alg in (bare(outer), _as_algebra(
            twisted_product(bare(inner), tw.B, tw.r_row), outer)):
        bad = bp._replace(yd=bp.yd._replace(algebra=alg))
        with pytest.raises(ValueError, match="twisted-product formula"):
            check_factor_embeddings(bad)
        with pytest.raises(ValueError, match="twisted-product formula"):
            bad.embed(0, {0: alg.ctx.one})


def _tensored_units(bp, pos, v):
    """v at position `pos` with the units of the other factors tensored
    on by hand, left to right, without the step records."""
    out = None
    for k, f in enumerate(bp.factors):
        w = v if k == pos else f.algebra.unit
        out = dict(w) if out is None else tensor_flat(out, w, f.algebra.dim)
    return out


def _embedding_table_failure(bp):
    """The route that the R-normality certificate replaced: each factor's
    unit and its d^2 products, read back from the chain's product table.
    (cases, the first witness or None)."""
    alg, cases = bp.yd.algebra, 0
    for pos, f in enumerate(bp.factors):
        A, one = f.algebra, f.algebra.ctx.one
        cases += 1
        if not veq(bp.embed(pos, A.unit), alg.unit):
            return cases, f"factor {pos}: unit not preserved"
        for i in range(A.dim):
            ei = bp.embed(pos, {i: one})
            for j in range(A.dim):
                cases += 1
                lhs = alg.mult.apply(ei, bp.embed(pos, {j: one}))
                if not veq(lhs, bp.embed(pos, dict(A.mult.get(i, j)))):
                    return cases, (f"factor {pos}: embedding breaks the "
                                   f"product at ({A.space.label(i)}, "
                                   f"{A.space.label(j)})")
    return cases, None


@pytest.mark.parametrize("key", ["bp2", "full-chain3", "zdel-chain4"])
def test_embed_tensors_on_the_other_factors_units(key):
    """Every basis vector of every position: the embedding read off the
    step records is the tensor product with the other factors' units."""
    bp = _chain(key, 2)
    one = bp.yd.algebra.ctx.one
    for pos, f in enumerate(bp.factors):
        for i in range(f.algebra.dim):
            assert veq(bp.embed(pos, {i: one}),
                       _tensored_units(bp, pos, {i: one})), (pos, i)


def test_a_one_factor_chain_embeds_as_the_identity():
    bp = _chain("zdel-chain1", 2)
    assert bp.steps() == []
    v = {1: bp.yd.algebra.ctx.zeta}
    assert bp.embed(0, v) is v
    for pos in (-1, 1):
        with pytest.raises(IndexError, match="no factor at position"):
            bp.embed(pos, v)


@pytest.mark.parametrize("key,cases", [("bp2", 2 * (1 + 16 * 16)),
                                       ("full-chain3", 3 * (1 + 16 * 16)),
                                       ("zdel-chain4", 4 * (1 + 2 * 2))])
def test_every_embedding_is_a_unital_algebra_map_on_the_table_p2(key, cases):
    """The certificate's cross-check: the table walk that it replaced
    passes on every position, with the case counts the lines had."""
    assert _embedding_table_failure(_chain(key, 2)) == (cases, None)


def test_both_routes_fail_on_a_scaled_r_at_the_unit_p2():
    """R(k (x) 1) times zeta in bp2: the certificate fails at b=k after
    the 16 cases of R(1 (x) a) and two of R(b (x) 1), and the table walk
    sees (1 (x) k)(1 (x) 1) = zeta (1 (x) k)."""
    bp = _chain("bp2", 2)
    (ua,), k = bp.yd.algebra.twist.A.unit, 1
    bad = _with_step_r(bp, 1, k, ua)
    res = check_factor_embeddings(bad)
    assert (res.status, res.cases_checked, res.witness) == (
        "fail", 16 + k + 1, "step 1: R(b (x) 1) != 1 (x) b at b=k")
    assert _embedding_table_failure(bad) == (
        (1 + 256) + 1 + 16 * k + 1,
        "factor 1: embedding breaks the product at (k, 1)")


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
    h0, v0 = 1 * sys2.double.hopf.twist.B.dim + 1, 1    # kap (x) k
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
