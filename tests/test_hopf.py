"""Tests for the Hopf-algebra container and axiom checks.

Fixtures: group algebras of cyclic groups (commutative, cocommutative),
the classic 4-dimensional algebra with a group-like g and a skew
primitive x (noncommutative, non-involutive antipode), and a twisted
"quantum torus" algebra whose structure constants are root-of-unity
powers -- the last one exercises the integer associativity certificate
above the pure-loop size cutoff.
"""

from __future__ import annotations

from hopfbench.cyclo import QContext
from hopfbench.hopf import (
    FiniteHopf, HopfPairing, check_hopf_axioms, check_hopf_pairing,
    dual_hopf, hit_alg_left, hit_alg_right, hit_dual_left,
    hit_dual_right, pair_product, render_element, tensor_flat,
    _assoc_int_certificate, _assoc_loop,
)
from hopfbench.sparse import BilinearMap, ColinearMap, LinearMap, Space, veq

CTX = QContext(2)


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


def quantum_torus(ctx, n):
    """dim n^2 algebra u^a v^b with v u = zeta u v (coalgebra data is a
    placeholder: only the product is exercised)."""
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
    return FiniteHopf(ctx, space, mult, {0: one}, comult, counit, antipode)


def all_pass(results):
    bad = [r for r in results if r.status == "fail"]
    assert not bad, "\n".join(r.line() for r in bad)


# -- axiom checks on honest fixtures ------------------------------------------

def test_group_algebra_axioms_exhaustive():
    H = group_algebra(CTX, 8)
    all_pass(check_hopf_axioms(H, include_antihom=True))


def test_four_dim_axioms_exhaustive():
    H = four_dim_hopf(CTX)
    all_pass(check_hopf_axioms(H, include_antihom=True))


def test_group_algebra_generator_mode():
    H = group_algebra(CTX, 12)
    results = check_hopf_axioms(H, mode="generators", seed=3, samples=200)
    all_pass(results)
    by_name = {r.name: r for r in results}
    assert by_name["comult-multiplicative"].mode == "generators"
    assert by_name["mult-associativity"].mode == "sampled"


def test_generator_mode_with_nongenerating_set_fails_closed():
    H = group_algebra(CTX, 8)
    H.generators = [{2: CTX.one}]      # g^2 only spans half the algebra
    results = check_hopf_axioms(H, mode="generators", seed=0, samples=50)
    by_name = {r.name: r for r in results}
    assert by_name["comult-multiplicative"].status == "fail"
    assert "certificate" in by_name["comult-multiplicative"].witness


def test_sampled_mode_runs():
    H = group_algebra(CTX, 6)
    all_pass(check_hopf_axioms(H, mode="sample", seed=1, samples=100))


# -- mutations must be caught with matching witnesses --------------------------

def test_broken_associativity_detected():
    H = group_algebra(CTX, 4)
    H.mult.materialize()
    H.mult.set(1, 1, ((3, CTX.one),))          # g*g := g^3
    res = [r for r in check_hopf_axioms(H) if r.name == "mult-associativity"][0]
    assert res.status == "fail"
    assert res.witness is not None


def test_broken_comult_multiplicativity_detected():
    H = four_dim_hopf(CTX)
    H.comult.set(3, ((1, 3, CTX.one),))        # drop the xg (x) 1 term
    names = {r.name: r for r in check_hopf_axioms(H)}
    assert names["comult-multiplicative"].status == "fail"


def test_broken_antipode_detected():
    H = four_dim_hopf(CTX)
    H.antipode.set(2, ((3, CTX.one),))         # wrong sign on S(x)
    names = {r.name: r for r in check_hopf_axioms(H)}
    assert names["antipode-convolution"].status == "fail"


# -- the integer certificate vs the pure loop ----------------------------------

def test_int_certificate_agrees_on_clean_torus():
    H = quantum_torus(CTX, 8)                  # dim 64
    wit, cases = _assoc_int_certificate(H)
    assert wit is None
    assert cases == 64 ** 3


def test_int_certificate_witness_matches_loop():
    H = quantum_torus(CTX, 8)
    H.mult.materialize()
    # corrupt one entry: u^1 v^1 * u^1 v^0 gets an extra zeta
    i = 1 * 8 + 1
    j = 1 * 8 + 0
    (k, c), = H.mult.get(i, j)
    H.mult.set(i, j, ((k, c * CTX.zeta_pow(1)),))
    wit_cert, _ = _assoc_int_certificate(H)
    assert wit_cert is not None
    n = H.dim
    wit_loop, _ = _assoc_loop(
        H, ((a, b, d) for a in range(n) for b in range(n) for d in range(n)))
    assert wit_cert == wit_loop


def test_certificate_handles_denominators():
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
    wit, _ = _assoc_int_certificate(H)
    assert wit is None


# -- duals, op/cop, pairings ----------------------------------------------------

def test_dual_of_group_algebra_is_hopf():
    H = group_algebra(CTX, 6)
    D = dual_hopf(H)
    all_pass(check_hopf_axioms(D, include_antihom=True))


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
    all_pass(check_hopf_pairing(P))


def test_pairing_axioms_on_noncommutative_fixture():
    H = four_dim_hopf(CTX)
    H.mult.materialize()
    D = dual_hopf(H)
    P = HopfPairing.canonical(D, H)
    all_pass(check_hopf_pairing(P))


# -- regular actions ------------------------------------------------------------

def test_regular_actions_on_group_algebra():
    n = 6
    H = group_algebra(CTX, n)
    D = dual_hopf(H)
    P = HopfPairing.canonical(D, H)
    one = CTX.one
    # comult on the dual of a group algebra: e^j -> sum e^a (x) e^b, a+b=j
    for i in range(n):
        for j in range(n):
            out = hit_dual_left(P, {i: one}, {j: one})      # g^i acts: e^(j-i)
            assert veq(out, {(j - i) % n: one})
            out = hit_dual_right(P, {j: one}, {i: one})     # <e', g^i> e''
            assert veq(out, {(j - i) % n: one})
    # the dual acting on the algebra picks out coefficients
    for i in range(n):
        for j in range(n):
            out = hit_alg_left(P, {i: one}, {j: one})
            expect = {j: one} if i == j else {}
            assert veq(out, expect)
            assert veq(hit_alg_right(P, {j: one}, {i: one}), expect)


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
                lhs = hit_dual_left(P, ab, D.basis(f))
                rhs = hit_dual_left(P, H.basis(a), hit_dual_left(P, H.basis(b), D.basis(f)))
                assert veq(lhs, rhs), (a, b, f)
    for f in range(4):
        for g in range(4):
            fg = D.product(D.basis(f), D.basis(g))
            for x in range(4):
                lhs = hit_alg_left(P, fg, H.basis(x))
                rhs = hit_alg_left(P, D.basis(f), hit_alg_left(P, D.basis(g), H.basis(x)))
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
