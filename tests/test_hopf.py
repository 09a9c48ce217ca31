"""Tests for the Hopf-algebra container and axiom checks.

Fixtures: group algebras of cyclic groups (commutative, cocommutative)
and of S3 (noncommutative), the classic 4-dimensional algebra with a
group-like g and a skew primitive x (noncommutative, non-involutive
antipode), and a twisted "quantum torus" algebra whose structure
constants are root-of-unity powers -- the last one drives the
associativity lemma walk (triples headed by a declared generator)
against the walk over every triple.
"""

from __future__ import annotations

import itertools

import pytest

from hopfbench.cyclo import QContext
from hopfbench.hopf import (
    FiniteHopf, HopfPairing, check_algebra_axioms, check_hopf_axioms,
    check_hopf_pairing, dual_hopf, pair_product, render_element,
    tensor_flat,
)
from hopfbench.results import (TupleWalks, associativity_walk,
                               two_sided_lemma_walk)
from hopfbench.sparse import (BilinearMap, ColinearMap, LinearMap, Space,
                              vadd_into, veq)
from test_results import SampleWalks

CTX = QContext(2)
EXHAUSTIVE = TupleWalks("exhaustive", 0, 0)


def group_algebra(ctx, n, name="kZ"):
    """Group algebra of Z_n: group-likes g^i, S(g^i) = g^(-i)."""
    one = ctx.one
    mult = BilinearMap(n, n, fn=lambda i, j: (((i + j) % n, one),))
    comult = ColinearMap(n, n, n, {i: ((i, i, one),) for i in range(n)})
    counit = {i: one for i in range(n)}
    antipode = LinearMap(n, n, {i: (((-i) % n, one),) for i in range(n)})
    space = Space(f"{name}{n}", tuple(f"g^{i}" if i else "1" for i in range(n)))
    return FiniteHopf(ctx, space, mult, {0: one}, comult, counit, antipode,
                      generators=[{1: one}], name=f"{name}{n}")


def s3_group_algebra(ctx):
    """Group algebra of S3 on the permutations of (0, 1, 2), ascending,
    labelled by their images; generated by the transposition 102 and the
    3-cycle 120."""
    one = ctx.one
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)

    def compose(i, j):
        return index[tuple(perms[i][t] for t in perms[j])]

    mult = BilinearMap(n, n, fn=lambda i, j: ((compose(i, j), one),))
    comult = ColinearMap(n, n, n, {i: ((i, i, one),) for i in range(n)})
    counit = {i: one for i in range(n)}
    antipode = LinearMap(n, n, {
        i: ((index[tuple(p.index(t) for t in range(3))], one),)
        for i, p in enumerate(perms)})
    space = Space("kS3", tuple("".join(map(str, p)) for p in perms))
    return FiniteHopf(ctx, space, mult, {0: one}, comult, counit, antipode,
                      generators=[{index[(1, 0, 2)]: one},
                                  {index[(1, 2, 0)]: one}], name="kS3")


def four_dim_hopf(ctx):
    """Basis (1, g, x, xg): g*g = 1, x*x = 0, x*g = -g*x,
    comult(x) = 1(x)x + x(x)g."""
    one = ctx.one
    neg = -one
    mult = BilinearMap(4, 4)
    rows = {
        (0, 0): ((0, one),), (0, 1): ((1, one),), (0, 2): ((2, one),),
        (0, 3): ((3, one),),
        (1, 0): ((1, one),), (1, 1): ((0, one),), (1, 2): ((3, neg),),
        (1, 3): ((2, neg),),
        (2, 0): ((2, one),), (2, 1): ((3, one),), (2, 2): (), (2, 3): (),
        (3, 0): ((3, one),), (3, 1): ((2, one),), (3, 2): (), (3, 3): (),
    }
    for (i, j), row in rows.items():
        mult.set(i, j, row)
    comult = ColinearMap(4, 4, 4, {
        0: ((0, 0, one),),
        1: ((1, 1, one),),
        2: ((0, 2, one), (2, 1, one)),
        3: ((1, 3, one), (3, 0, one)),
    })
    counit = {0: one, 1: one}
    antipode = LinearMap(4, 4, {
        0: ((0, one),), 1: ((1, one),), 2: ((3, neg),), 3: ((2, one),),
    })
    space = Space("H4", ("1", "g", "x", "xg"))
    return FiniteHopf(ctx, space, mult, {0: one}, comult, counit, antipode,
                      generators=[{1: one}, {2: one}], name="H4")


def quantum_torus(ctx, n, with_generators=True):
    """dim n^2 algebra u^a v^b with v u = zeta u v, generated by u and v
    unless `with_generators` is false (coalgebra data is a placeholder:
    only the product is exercised)."""
    one = ctx.one
    dim = n * n

    def fn(i, j):
        a, b = divmod(i, n)
        c, d = divmod(j, n)
        coeff = ctx.zeta_pow(b * c)
        return ((((a + c) % n) * n + (b + d) % n, coeff),)

    mult = BilinearMap(dim, dim, fn=fn)
    comult = ColinearMap(dim, dim, dim, {i: ((i, i, one),) for i in range(dim)})
    counit = {i: one for i in range(dim)}
    antipode = LinearMap(dim, dim, {i: ((i, one),) for i in range(dim)})
    space = Space(f"qt{n}", tuple((a, b) for a in range(n) for b in range(n)),
                  lambda ab: f"u^{ab[0]}v^{ab[1]}")
    gens = [{n: one}, {1: one}] if with_generators else None   # u, v
    return FiniteHopf(ctx, space, mult, {0: one}, comult, counit, antipode,
                      generators=gens)


def all_pass(results):
    bad = [r for r in results if r.status == "fail"]
    assert not bad, "\n".join(r.line() for r in bad)


def antipode_antimultiplicative(H, walk):
    """S(xy) = S(y) S(x) on the basis pairs of `walk`, a law that follows
    from the others and that no suite checks."""
    def case(i, j):
        lhs = H.antipode_of(H.product(H.basis(i), H.basis(j)))
        rhs = H.product(H.antipode_of(H.basis(j)), H.antipode_of(H.basis(i)))
        if veq(lhs, rhs):
            return None
        return f"basis pair ({H.space.label(i)}, {H.space.label(j)})"

    return walk.over((H.dim, H.dim), (None, None)).check(
        "antipode-antimultiplicative", case)


def axioms(H, mode="exhaustive", seed=0, samples=2000, antihom=False,
           pairs=None):
    """check_hopf_axioms on the walks that the report's plan gives each
    law of H, and with `antihom` the antipode law on the plan's walk for
    pairs: the pair lemma, or the tuple walks `pairs` when given.
    Associativity takes the plan's route, `associativity_walk`, whatever
    the mode and the samples, but for "sample", which walks seeded tuples
    only.  The plan's lemma walks need declared generators, which every
    algebra of the suites has; a fixture without them walks the run's
    tuples, sampled in a "generators" run."""
    if H.generators and mode != "sample":
        assoc = associativity_walk(H)
    else:
        assoc = (EXHAUSTIVE if mode == "exhaustive"
                 else SampleWalks(seed, samples))
        if not H.generators:
            pairs = pairs or assoc
    walks = [pairs or two_sided_lemma_walk(H) for _ in range(2 + antihom)]
    results = check_hopf_axioms(H, assoc, *walks[:2])
    if antihom:
        results.append(antipode_antimultiplicative(H, walks[2]))
    return results


# -- axiom checks on honest fixtures ------------------------------------------

def test_group_algebra_axioms_exhaustive():
    H = group_algebra(CTX, 8)
    all_pass(axioms(H, antihom=True, pairs=EXHAUSTIVE))


def test_four_dim_axioms_exhaustive():
    H = four_dim_hopf(CTX)
    all_pass(axioms(H, antihom=True, pairs=EXHAUSTIVE))


def test_group_algebra_generator_mode():
    """Associativity takes the triple lemma, |G| d^2 = 144 triples,
    whatever the sample size: fewer samples than triples no longer turn
    it into a sample."""
    H = group_algebra(CTX, 12)
    for samples in (200, 143):
        results = axioms(H, mode="generators", seed=3, samples=samples)
        all_pass(results)
        by_name = {r.name: r for r in results}
        assert by_name["comult-multiplicative"].mode == "generators"
        r = by_name["mult-associativity"]
        assert (r.mode, r.cases_checked) == ("generators", 144)


def test_generator_mode_with_nongenerating_set_fails_closed():
    H = group_algebra(CTX, 8)
    H.generators = [{2: CTX.one}]      # g^2 only spans half the algebra
    results = axioms(H, mode="generators", seed=0, samples=50)
    by_name = {r.name: r for r in results}
    assert by_name["comult-multiplicative"].status == "fail"
    assert "certificate" in by_name["comult-multiplicative"].witness


def test_sampled_mode_runs():
    H = group_algebra(CTX, 6)
    all_pass(axioms(H, mode="sample", seed=1, samples=100))


def test_s3_group_algebra_axioms_in_every_mode():
    H = s3_group_algebra(CTX)
    for mode in ("exhaustive", "generators", "sample"):
        all_pass(axioms(H, mode=mode, samples=50, antihom=True))


@pytest.mark.parametrize("check", [check_algebra_axioms, check_hopf_axioms])
def test_a_misspelled_mode_is_an_error_before_any_check(check):
    """The tuple walks reject the mode when they are built, before the
    check is called."""
    H = group_algebra(CTX, 4)
    with pytest.raises(ValueError, match="exhuastive"):
        check(H, TupleWalks("exhuastive", 0, 10))


# -- mutations must be caught with matching witnesses --------------------------

def test_broken_associativity_detected():
    H = group_algebra(CTX, 4)
    H.mult.materialize()
    H.mult.set(1, 1, ((3, CTX.one),))          # g*g := g^3
    res = [r for r in axioms(H) if r.name == "mult-associativity"][0]
    assert res.status == "fail"
    assert res.witness is not None


def test_broken_comult_multiplicativity_detected():
    H = four_dim_hopf(CTX)
    H.comult.set(3, ((1, 3, CTX.one),))        # drop the xg (x) 1 term
    names = {r.name: r for r in axioms(H)}
    assert names["comult-multiplicative"].status == "fail"


def test_broken_antipode_detected():
    H = four_dim_hopf(CTX)
    H.antipode.set(2, ((3, CTX.one),))         # wrong sign on S(x)
    names = {r.name: r for r in axioms(H)}
    assert names["antipode-convolution"].status == "fail"


def test_a_failing_element_check_counts_only_the_elements_it_reached():
    """S(x) := xg breaks m(S (x) id) comult at x, basis index 2, on the
    first of its two laws: 2 laws on 1 and g, then 1 on x, where the
    count was the full 2 * 4 before any element ran."""
    H = four_dim_hopf(CTX)
    H.antipode.set(2, ((3, CTX.one),))
    res = {r.name: r for r in axioms(H)}["antipode-convolution"]
    assert (res.status, res.cases_checked) == ("fail", 5)
    assert res.witness == "m(S(x)id)comult != unit*counit on x"


@pytest.mark.parametrize("name,corrupt,cases", [
    # 1 x := -x: the left unit law fails on x, the fifth law checked
    ("mult-unit", lambda H: H.mult.set(0, 2, ((2, -CTX.one),)), 5),
    # comult(g) := g (x) 1: the counit laws fail on g, the second
    # element, and coassociativity on x, whose comult has the leg g
    ("comult-coassociativity",
     lambda H: H.comult.set(1, ((1, 0, CTX.one),)), 3),
    ("counit-laws", lambda H: H.comult.set(1, ((1, 0, CTX.one),)), 2),
], ids=["mult-unit", "comult-coassociativity", "counit-laws"])
def test_each_element_check_counts_to_its_first_failure(name, corrupt, cases):
    H = four_dim_hopf(CTX)
    corrupt(H)
    res = {r.name: r for r in axioms(H)}[name]
    assert (res.status, res.cases_checked) == ("fail", cases)


def test_the_pairing_unit_and_antipode_law_counts_to_its_first_failure():
    """S*(e^2) := -e^3 breaks <S* f, x> = <f, S x> at (f, x) = (2, 3):
    4 + 4 unit cases, then the 12th of the 16 antipode pairs."""
    H = four_dim_hopf(CTX)
    H.mult.materialize()
    D = dual_hopf(H)
    D.antipode.set(2, ((3, -CTX.one),))
    res = {r.name: r for r in check_hopf_pairing(
        HopfPairing.canonical(D, H), EXHAUSTIVE, EXHAUSTIVE)}
    assert (res["pairing-units-antipode"].status,
            res["pairing-units-antipode"].cases_checked) == ("fail", 20)


def test_a_comult_row_broken_off_the_generator_side_fails_both_walks():
    """Delta(201) := zeta 201 (x) 201 breaks comult(u v) = comult(u)
    comult(v) at (021, 102), whose product is 201, before any pair headed
    by a generator: 102 * 021 = 120.  The generators walk must reach that
    pair from the (j, g) half of the lemma walk."""
    H = s3_group_algebra(CTX)
    k = H.space.index["201"]
    H.comult.set(k, ((k, k, CTX.zeta),))
    gens = {r.name: r for r in axioms(H)}
    full = {r.name: r for r in axioms(H, pairs=EXHAUSTIVE)}
    line, ref = gens["comult-multiplicative"], full["comult-multiplicative"]
    assert (line.status, line.mode) == ("fail", "generators")
    assert line.witness == "basis pair (021, 102)"
    assert line.cases_checked == 4     # (g, j) and (j, g) for j = 012, 021
    assert ref.status == "fail"


# A zeta-corrupted entry at basis index 5 of Z_8: each pair line then
# fails exactly where [i + j = 5] differs from [i = 5] + [j = 5].
_SCALED = {
    "comult-multiplicative": lambda H: H.comult.set(5, ((5, 5, CTX.zeta),)),
    "counit-multiplicative": lambda H: H.counit.__setitem__(5, CTX.zeta),
    "antipode-antimultiplicative":
        lambda H: H.antipode.set(5, ((3, CTX.zeta),)),
}


@pytest.mark.parametrize("name,include_antihom", [
    ("comult-multiplicative", False), ("counit-multiplicative", False),
    ("counit-multiplicative", True), ("antipode-antimultiplicative", True)])
def test_a_sampled_pair_line_walks_its_own_seeded_pairs(name,
                                                        include_antihom):
    n, seed, samples = 8, 7, 60
    H = group_algebra(CTX, n)
    _SCALED[name](H)
    walk = SampleWalks(seed, samples).over((n, n), (None, None))
    first = next((i, j) for i, j in walk.tuples
                 if ((i + j) % n == 5) != (i == 5) + (j == 5))
    results = axioms(H, mode="sample", seed=seed, samples=samples,
                     antihom=include_antihom,
                     pairs=SampleWalks(seed, samples))
    line = {r.name: r for r in results}[name]
    assert (line.status, line.mode) == ("fail", walk.label)
    assert line.witness == (f"basis pair ({H.space.label(first[0])}, "
                            f"{H.space.label(first[1])})")


# -- the associativity lemma walk vs the walk over every triple ----------------

def _product_laws(H):
    """(mult-associativity, mult-unit) of one exhaustive axioms call."""
    by_name = {r.name: r for r in axioms(H)}
    return by_name["mult-associativity"], by_name["mult-unit"]


def _first_failing_triple(H, triples):
    for t in triples:
        i, j, k = (H.basis(x) for x in t)
        if not veq(H.product(H.product(i, j), k),
                   H.product(i, H.product(j, k))):
            return t
    return None


def _zeta_corrupted_torus(with_generators):
    H = quantum_torus(CTX, 8, with_generators)
    H.mult.materialize()
    # corrupt one entry: u^1 v^1 * u^1 v^0 gets an extra zeta
    i = 1 * 8 + 1
    j = 1 * 8 + 0
    (k, c), = H.mult.get(i, j)
    H.mult.set(i, j, ((k, c * CTX.zeta_pow(1)),))
    return H


def test_clean_torus_associativity_is_proved_from_generators():
    H = quantum_torus(CTX, 8)                  # dim 64
    assoc, unit = _product_laws(H)
    assert (assoc.status, assoc.mode, assoc.cases_checked) == (
        "pass", "generators", 2 * 64 ** 2)
    assert unit.status == "pass"


def test_corrupted_torus_fails_both_walks_at_their_first_triple():
    n = 64
    H = _zeta_corrupted_torus(True)
    lemma, unit = _product_laws(H)
    full, _ = _product_laws(_zeta_corrupted_torus(False))
    assert unit.status == "pass"
    assert (lemma.status, lemma.mode) == ("fail", "generators")
    assert (full.status, full.mode) == ("fail", "exhaustive")
    r = H.space.render
    for res, triples in (
            (lemma, itertools.product([1, 8], range(n), range(n))),
            (full, itertools.product(range(n), repeat=3))):
        t = _first_failing_triple(H, triples)
        labs = ", ".join(r(H.space.labels[x]) for x in t)
        assert res.witness == f"basis triple ({labs}): (xy)z != x(yz)"


def test_torus_with_denominators_is_associative():
    # the zeta twist needs zeta^n = 1, so the torus must use n = 8 here
    H = quantum_torus(CTX, 8)
    H.mult.materialize()
    dim = H.dim
    half = CTX.rational(1) * CTX.rational(2).inv()
    two = CTX.rational(2)
    # rescale one basis direction: e := 2*u^0v^1; still associative
    i = 1
    for a in range(dim):
        row = H.mult.get(a, i)
        H.mult.set(a, i, tuple((kk, cc * half) for kk, cc in row))
        row = H.mult.get(i, a)
        H.mult.set(i, a, tuple((kk, cc * half) for kk, cc in row))
    # products landing on e need doubling; e*e was rescaled twice
    for a in range(dim):
        for b in range(dim):
            row = H.mult.get(a, b)
            H.mult.set(a, b, tuple(
                (kk, cc * two if kk == i else cc) for kk, cc in row))
    assoc, unit = _product_laws(H)
    assert (assoc.status, assoc.mode) == ("pass", "generators")
    assert unit.status == "pass"


# -- duals, op/cop, pairings ----------------------------------------------------

def test_dual_of_group_algebra_is_hopf():
    H = group_algebra(CTX, 6)
    D = dual_hopf(H)
    all_pass(axioms(D, antihom=True))


def test_double_dual_returns_original_tables():
    H = four_dim_hopf(CTX)
    H.mult.materialize()
    DD = dual_hopf(dual_hopf(H))
    for i in range(4):
        for j in range(4):
            assert sorted(DD.mult.get(i, j)) == sorted(H.mult.get(i, j))
        assert sorted(DD.comult.get(i)) == sorted(H.comult.get(i))
    assert DD.counit == H.counit
    assert DD.unit == H.unit


def test_antipode_inverse_roundtrip():
    H = four_dim_hopf(CTX)
    inv = H.antipode_inv()
    for i in range(4):
        e = H.basis(i)
        assert veq(inv.apply(H.antipode_of(e)), e)
        assert veq(H.antipode_of(inv.apply(e)), e)


def test_canonical_pairing_axioms():
    H = group_algebra(CTX, 5)
    D = dual_hopf(H)
    P = HopfPairing.canonical(D, H)
    all_pass(check_hopf_pairing(P, EXHAUSTIVE, EXHAUSTIVE))


def test_a_pairing_failure_counts_the_cases_that_ran():
    """e^2 e^2 := 0 in the dual of kZ5 breaks <fg, x> = <f (x) g, comult x>
    first at (f, g, x) = (2, 2, 2), the 63rd triple of the exhaustive walk;
    the other product law walks all 125 of its triples."""
    H = group_algebra(CTX, 5)
    D = dual_hopf(H)
    D.mult.materialize()
    D.mult.set(2, 2, ())
    P = HopfPairing.canonical(D, H)
    res = {r.name: r for r in check_hopf_pairing(P, EXHAUSTIVE, EXHAUSTIVE)}
    mult, comult = res["pairing-mult-vs-comult"], res["pairing-comult-vs-mult"]
    assert (mult.status, mult.cases_checked) == ("fail", 63)
    assert (comult.status, comult.cases_checked) == ("pass", 125)


def test_pairing_axioms_on_noncommutative_fixture():
    H = four_dim_hopf(CTX)
    H.mult.materialize()
    D = dual_hopf(H)
    P = HopfPairing.canonical(D, H)
    all_pass(check_hopf_pairing(P, EXHAUSTIVE, EXHAUSTIVE))


# -- regular actions ------------------------------------------------------------

def expand(arrow, u, v):
    """The bilinear extension of a pairing's basis arrow to vectors."""
    out = {}
    for i, ci in u.items():
        for j, cj in v.items():
            vadd_into(out, arrow(i, j), ci * cj)
    return out


def test_regular_actions_on_group_algebra():
    n = 6
    H = group_algebra(CTX, n)
    D = dual_hopf(H)
    P = HopfPairing.canonical(D, H)
    one = CTX.one
    # comult on the dual of a group algebra: e^j -> sum e^a (x) e^b, a+b=j
    for i in range(n):
        for j in range(n):
            out = P.dual_left(i, j)                    # g^i acts: e^(j-i)
            assert veq(out, {(j - i) % n: one})
            out = P.dual_right(j, i)                   # <e', g^i> e''
            assert veq(out, {(j - i) % n: one})
    # the dual acting on the algebra picks out coefficients
    for i in range(n):
        for j in range(n):
            out = P.alg_left(i, j)
            expect = {j: one} if i == j else {}
            assert veq(out, expect)
            assert veq(P.alg_right(j, i), expect)


def test_hit_actions_are_module_actions():
    """(ab) acting = a acting after b acting, on the 4-dim fixture."""
    H = four_dim_hopf(CTX)
    H.mult.materialize()
    D = dual_hopf(H)
    P = HopfPairing.canonical(D, H)
    for a in range(4):
        for b in range(4):
            ab = H.product(H.basis(a), H.basis(b))
            for f in range(4):
                lhs = expand(P.dual_left, ab, D.basis(f))
                rhs = expand(P.dual_left, H.basis(a),
                              P.dual_left(b, f))
                assert veq(lhs, rhs), (a, b, f)
    for f in range(4):
        for g in range(4):
            fg = D.product(D.basis(f), D.basis(g))
            for x in range(4):
                lhs = expand(P.alg_left, fg, H.basis(x))
                rhs = expand(P.alg_left, D.basis(f), P.alg_left(g, x))
                assert veq(lhs, rhs), (f, g, x)


# -- small helpers ---------------------------------------------------------------

def test_coproduct_nested_on_group_like():
    H = group_algebra(CTX, 5)
    n = H.dim
    v = H.basis(2)
    out = H.coproduct_nested(v, 3)
    assert veq(out, {(2 * n + 2) * n + 2: CTX.one})
    assert veq(H.coproduct_nested(v, 1), v)


def test_coproduct_nested_matches_coassociativity():
    H = four_dim_hopf(CTX)
    n = H.dim
    # right-nested (id (x) comult) comult must equal the left-nested form
    for i in range(n):
        left = H.coproduct_nested(H.basis(i), 3)
        right = {}
        for j, k, c in H.comult.get(i):
            for a, b, cc in H.comult.get(k):
                key = (j * n + a) * n + b
                cur = right.get(key)
                val = c * cc
                right[key] = val if cur is None else cur + val
                if not right[key]:
                    del right[key]
        assert veq(left, right)


def test_pair_product_and_tensor_flat():
    H = group_algebra(CTX, 4)
    x = tensor_flat(H.basis(1), H.basis(2), 4)
    y = tensor_flat(H.basis(2), H.basis(3), 4)
    out = pair_product(H, x, y)
    assert veq(out, tensor_flat(H.basis(3), H.basis(1), 4))


def test_render_element_deterministic():
    H = four_dim_hopf(CTX)
    v = {2: CTX.one, 1: -CTX.one, 3: CTX.rational(3) * CTX.rational(2).inv()}
    assert render_element(H.space, v) == "-g + x + 3/2*xg"
    assert render_element(H.space, {}) == "0"
