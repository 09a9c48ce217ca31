"""Scalar layer: cyclotomic arithmetic, q-numbers, q-binomials.

Expected values here were fixed from independent oracles: sympy's
cyclotomic_poly for Phi_N, and the division-free factorial identity
qbin(n,k)*[k]!*[n-k]! == [n]! (a polynomial identity in Z[q,q^-1],
hence valid at every root of unity) for the binomials.
"""

from fractions import Fraction
import math
import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from hopfbench.cyclo import QContext, Cyc, cyclotomic_polynomial


CTX2 = QContext(2)
CTX3 = QContext(3)


def test_cyclotomic_small_frozen():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(8) == [1, 0, 0, 0, 1]          # x^4 + 1
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]        # x^4 - x^2 + 1
    assert cyclotomic_polynomial(20) == [1, 0, -1, 0, 1, 0, -1, 0, 1]


@pytest.mark.parametrize("n", list(range(1, 49)))
def test_cyclotomic_matches_sympy(n):
    x = sympy.symbols("x")
    expected = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
    assert cyclotomic_polynomial(n) == [int(c) for c in expected]


def test_root_of_unity_orders():
    for ctx in (CTX2, CTX3):
        z = ctx.zeta
        assert z ** ctx.order == ctx.one
        for k in range(1, ctx.order):
            assert z ** k != ctx.one, f"zeta^{k} trivial at p={ctx.p}"
        # q = zeta^2 is a primitive 2p-th root
        assert ctx.q ** (2 * ctx.p) == ctx.one
        assert ctx.q ** ctx.p == ctx.rational(-1)


def _random_scalar(ctx, rng, size=6):
    coeffs = [rng.randint(-size, size) for _ in range(ctx.phi)]
    den = rng.randint(1, size)
    return Cyc(ctx, coeffs, den)


@pytest.mark.parametrize("p", [2, 3])
def test_field_laws_bulk_seeded(p):
    # >= 10^4 randomized triples, fixed seed, exact equality.
    ctx = QContext(p)
    rng = random.Random(20260401 + p)
    for _ in range(10_000):
        a = _random_scalar(ctx, rng)
        b = _random_scalar(ctx, rng)
        c = _random_scalar(ctx, rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ctx.zero == a
        assert a * ctx.one == a
        assert a - a == ctx.zero


coeff_strategy = st.lists(st.integers(-50, 50), min_size=4, max_size=4)


@given(coeffs=coeff_strategy, den=st.integers(1, 40))
@settings(max_examples=300, deadline=None)
def test_inverse_law_hypothesis(coeffs, den):
    a = Cyc(CTX2, coeffs, den)
    if not a:
        return
    inv = a.inv()
    assert a * inv == CTX2.one
    assert inv * a == CTX2.one


@given(coeffs=coeff_strategy, den=st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_normalization_canonical(coeffs, den):
    a = Cyc(CTX3, coeffs, den)
    b = Cyc(CTX3, [c * 6 for c in coeffs], den * 6)
    assert a == b
    assert hash(a) == hash(b)
    assert a.d > 0


def test_q_int_frozen_values():
    # p=3, q primitive 6th root: [2] = q + q^-1 = 1, [3] = 0.
    assert CTX3.q_int(2) == CTX3.q + CTX3.q_inv
    assert CTX3.q_int(2) == CTX3.one
    assert CTX3.q_int(3) == CTX3.zero
    # p=2, q primitive 4th root: [2] = 0.
    assert CTX2.q_int(2) == CTX2.zero
    for ctx in (CTX2, CTX3):
        assert ctx.q_int(0) == ctx.zero
        assert ctx.q_int(1) == ctx.one
        assert ctx.q_int(-5) == -ctx.q_int(5)


def test_q_int_half_integer():
    # [1/2] * (q - q^-1) = q^(1/2) - q^(-1/2), through zeta directly.
    for ctx in (CTX2, CTX3):
        half = Fraction(1, 2)
        lhs = ctx.q_int(half) * ctx.qdiff
        assert lhs == ctx.zeta - ctx.zeta_pow(-1)
        assert ctx.q_int(Fraction(3, 2)) * ctx.qdiff == ctx.zeta_pow(3) - ctx.zeta_pow(-3)
    with pytest.raises(ValueError):
        CTX2.q_int(Fraction(1, 3))


@pytest.mark.parametrize("p", [2, 3])
def test_q_binomial_factorial_identity(p):
    # Division-free oracle: qbin(n,k) * [k]! * [n-k]! == [n]! identically.
    ctx = QContext(p)
    for n in range(0, 4 * p + 1):
        for k in range(0, n + 1):
            lhs = ctx.q_binomial(n, k) * ctx.q_factorial(k) * ctx.q_factorial(n - k)
            assert lhs == ctx.q_factorial(n), (n, k)


@pytest.mark.parametrize("p", [2, 3])
def test_q_binomial_symmetry_and_bounds(p):
    ctx = QContext(p)
    for n in range(0, 3 * p):
        assert ctx.q_binomial(n, -1) == ctx.zero
        assert ctx.q_binomial(n, n + 1) == ctx.zero
        for k in range(0, n + 1):
            assert ctx.q_binomial(n, k) == ctx.q_binomial(n, n - k)


def test_q_binomial_conventions_differ():
    # The balanced and one-sided conventions genuinely disagree (so the
    # convention adjudication test downstream is not vacuous).
    ctx = CTX3
    assert ctx.q_binomial(2, 1) == ctx.q + ctx.q_inv
    assert ctx.q_binomial_onesided(2, 1) == ctx.one + ctx.q
    assert ctx.q_binomial(2, 1) != ctx.q_binomial_onesided(2, 1)


def test_inverse_of_qdiff():
    for ctx in (CTX2, CTX3):
        assert ctx.qdiff * ctx.qdiff_inv == ctx.one


def test_scalar_rendering():
    assert str(CTX2.zero) == "0"
    assert str(CTX2.one) == "1"
    assert str(CTX2.q) == "q"
    assert str(CTX2.rational(Fraction(-3, 2))) == "-3/2"
    assert str(CTX2.zeta) == "q^(1/2)"
    assert str(CTX2.one + CTX2.q) == "1 + q"
    assert str(-CTX2.q) == "-q"


def test_pow_negative_exponent():
    a = CTX3.q + CTX3.one
    assert a ** -2 == (a * a).inv()
    assert a ** 0 == CTX3.one


# -- single-term and dense forms against a dense-only reference -----------------

FORM_CTXS = {p: QContext(p) for p in (2, 3, 5, 7)}


def _ref_reduce(poly, ctx):
    """Fraction coefficients of poly mod Phi_N (long division by the monic
    Phi_N), padded to phi entries."""
    poly = [Fraction(x) for x in poly]
    phi = ctx.phi
    for k in range(len(poly) - 1, phi - 1, -1):
        top = poly[k]
        if top:
            for i, m in enumerate(ctx.poly):
                poly[k - phi + i] -= top * m
    return (poly + [Fraction(0)] * phi)[:phi]


def _ref_mul(a, b, ctx):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _ref_reduce(prod, ctx)


def _ref_one(ctx):
    return _ref_reduce([1], ctx)


@st.composite
def _scalar_and_ref(draw, ctx):
    """(Cyc, reference coefficients): a single term r*zeta^j built from
    rational() and zeta_pow(), or a dense scalar from the constructor."""
    if draw(st.booleans()):
        r = Fraction(draw(st.integers(-9, 9).filter(bool)),
                     draw(st.integers(1, 9)))
        j = draw(st.integers(-2 * ctx.order, 2 * ctx.order))
        ref = [r * x for x in _ref_reduce([0] * (j % ctx.order) + [1], ctx)]
        return ctx.rational(r) * ctx.zeta_pow(j), ref
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=ctx.phi,
                           max_size=ctx.phi))
    den = draw(st.integers(1, 9))
    return Cyc(ctx, coeffs, den), [Fraction(c, den) for c in coeffs]


def _assert_matches(x, ref, ctx):
    """x has the reference value, and agrees on ==, hash, bool, str, .c and
    .d with the same value rebuilt from power-basis coordinates."""
    den = math.lcm(*(f.denominator for f in ref))
    coeffs = tuple(int(f * den) for f in ref)
    assert (x.c, x.d) == (coeffs, den)
    y = Cyc(ctx, list(coeffs), den)
    assert x == y and y == x
    assert hash(x) == hash(y)
    assert bool(x) == any(coeffs)
    assert str(x) == str(y)


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_single_term_and_dense_forms_match_reference(data):
    ctx = FORM_CTXS[data.draw(st.sampled_from(sorted(FORM_CTXS)))]
    a, ra = data.draw(_scalar_and_ref(ctx))
    b, rb = data.draw(_scalar_and_ref(ctx))
    _assert_matches(a, ra, ctx)
    _assert_matches(b, rb, ctx)
    _assert_matches(a + b, [x + y for x, y in zip(ra, rb)], ctx)
    _assert_matches(a - b, [x - y for x, y in zip(ra, rb)], ctx)
    _assert_matches(-a, [-x for x in ra], ctx)
    _assert_matches(a * b, _ref_mul(ra, rb, ctx), ctx)
    assert (a == b) == (ra == rb)
    assert (a != b) == (ra != rb)
    n = data.draw(st.integers(-3, 4))
    if any(ra):
        inv = a.inv()
        _assert_matches(a * inv, _ref_one(ctx), ctx)
        base = [Fraction(x, inv.d) for x in inv.c] if n < 0 else ra
    else:
        with pytest.raises(ZeroDivisionError):
            a.inv()
        if n < 0:
            return
        base = ra
    expected = _ref_one(ctx)
    for _ in range(abs(n)):
        expected = _ref_mul(expected, base, ctx)
    _assert_matches(a ** n, expected, ctx)


def test_single_term_beyond_power_basis_equals_dense_sum():
    # At p=3, phi = 4 < N/2 = 6: zeta^4 and zeta^5 are single terms whose
    # power-basis coordinates have two nonzero entries.  The same values
    # reached as sums are held densely and must still compare equal.
    ctx = CTX3
    for j, dense in ((4, ctx.zeta_pow(2) - ctx.one),
                     (5, ctx.zeta_pow(3) - ctx.zeta)):
        single = ctx.zeta_pow(j)
        assert single._j == j and dense._j is None    # the two forms
        assert single == dense and dense == single
        assert hash(single) == hash(dense)
        assert (single.c, single.d) == (dense.c, dense.d)
        assert str(single) == str(dense)
        assert single * dense.inv() == ctx.one
        assert dense * single.inv() == ctx.one
        assert not single - dense and not dense - single
        assert -single == -dense
    assert ctx.zeta_pow(4) + ctx.one == ctx.q


def test_single_term_inverse_folds_sign():
    for ctx in FORM_CTXS.values():
        for j in range(ctx.order):
            x = ctx.rational(Fraction(-3, 7)) * ctx.zeta_pow(j)
            assert x.inv() * x == ctx.one
            assert x.inv() == ctx.rational(Fraction(-7, 3)) * ctx.zeta_pow(-j)


def test_equality_respects_the_field_and_agrees_with_hash():
    # Q(zeta_20) and Q(zeta_24) both have degree 8, so their coordinates
    # have the same shape; equal coordinates in different fields are
    # still different scalars.
    c5, c6 = QContext(5), QContext(6)
    assert c5.zeta_pow(8) != c6.zeta_pow(8)
    assert c5.zeta_pow(8) == QContext(5).zeta_pow(8)
    dense5 = Cyc(c5, [1, 2, 0, 0, 0, 0, 0, 3])
    dense6 = Cyc(c6, [1, 2, 0, 0, 0, 0, 0, 3])
    assert dense5.c == dense6.c and dense5 != dense6
    values = [ctx.rational(Fraction(r, 3)) * ctx.zeta_pow(j)
              for ctx in (c5, c6) for j in range(ctx.order) for r in (-2, 1)]
    values += [dense5, dense6, c5.zeta_pow(3) + c5.one,
               c6.zeta_pow(3) + c6.one]
    for x in values:
        for y in values:
            if x == y:
                assert hash(x) == hash(y) and x.ctx.order == y.ctx.order
    assert c5.one != c6.one and c5.one == 1 and c6.one == 1
