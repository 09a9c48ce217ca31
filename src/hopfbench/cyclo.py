"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Scalars live in Q(zeta_N) represented as Q[x]/Phi_N(x) with integer
coefficient vectors over a common denominator, or, for every value
r * zeta^j, as (numerator, denominator, j) (see Cyc).  Every operation is
exact and there is never a floating-point tolerance anywhere downstream.

Scalars are hash-consed (Filliatre and Conchon, "Type-safe modular
hash-consing", ML Workshop 2006): a field holds one Cyc per value, and
each Cyc memoizes its own products, sums, negation and inverse for the
life of the process, since the same few thousand operand pairs recur
hundreds of thousands of times (see Cyc).

The intended use is N = 4*p: zeta = zeta_N is a primitive N-th root of
unity, q = zeta^2 is a primitive 2p-th root of unity, and zeta itself
serves as the square root of q that the half-integer q-numbers and the
kappa-type group-like functionals need.

q-combinatorics here is *balanced*: [n] = (q^n - q^-n)/(q - q^-1),
extended to half-integer n via zeta.  Binomials are computed with a
division-free Pascal recursion so they stay well-defined at roots of
unity where the naive factorial quotient would divide by zero.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd
from typing import Iterable, Sequence, Union

__all__ = [
    "cyclotomic_polynomial",
    "QContext",
    "Cyc",
    "HalfInt",
]

# A half-integer exponent: plain int, or a Fraction with denominator 1 or 2.
HalfInt = Union[int, Fraction]


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (den monic); raises if inexact."""
    num = list(num)
    dn = len(den) - 1
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    out = [0] * (len(num) - dn)
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k]
        out[k - dn] = c
        if c:
            for i, d in enumerate(den):
                num[k - dn + i] -= c * d
    if any(num[:dn]):
        raise ArithmeticError("inexact polynomial division")
    return out


def cyclotomic_polynomial(n: int) -> list[int]:
    """Coefficient vector (ascending) of the n-th cyclotomic polynomial.

    Computed by recursive exact division: Phi_n = (x^n - 1) / prod of
    Phi_d over proper divisors d of n.  Integer arithmetic throughout.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return [-1, 1]
    poly = [0] * (n + 1)
    poly[0], poly[n] = -1, 1  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divide_exact(poly, cyclotomic_polynomial(d))
    return poly


def _content(coeffs: Iterable[int], den: int) -> int:
    g = den
    for c in coeffs:
        if c:
            g = gcd(g, c)
            if g == 1:
                return 1
    return g


class QContext:
    """Everything fixed by the root-of-unity order: N = 4p, Phi_N, caches.

    A context owns the reduction rows for x^k mod Phi_N, memo tables for
    powers of zeta/q, q-integers and q-binomials, the intern table that
    holds its one Cyc per value (see Cyc), and `shared_entries`, the one
    entry tuple per (indices, scalar serial) of the stored row format
    (`sparse.shared_row`).  Scalars carry a reference to their context;
    arithmetic that mixes two contexts raises ValueError.  The tables
    are unbounded and private to the context.
    """

    __slots__ = (
        "p", "order", "half", "phi", "poly", "_red_rows", "_zeta_vecs",
        "_interned", "_beyond", "zero", "one", "_zeta_pows", "_qint_cache",
        "_qbin_cache", "_qfac_cache", "q", "q_inv", "zeta", "qdiff",
        "qdiff_inv", "shared_entries",
    )

    def __init__(self, p: int):
        if p < 2:
            raise ValueError("p must be >= 2")
        self.p = p
        self.order = 4 * p
        self.half = 2 * p            # zeta^half = -1
        self.poly = cyclotomic_polynomial(self.order)
        self.phi = len(self.poly) - 1
        # x^(phi+k) mod Phi_N for k = 0 .. phi-2, as integer rows.
        rows: list[tuple[int, ...]] = []
        base = [-c for c in self.poly[:-1]]
        rows.append(tuple(base))
        for _ in range(self.phi - 2):
            prev = rows[-1]
            shifted = [0] + list(prev[:-1])
            top = prev[-1]
            if top:
                for i in range(self.phi):
                    shifted[i] += top * base[i]
            rows.append(tuple(shifted))
        self._red_rows = tuple(rows)
        # Power-basis coordinates of zeta^j for 0 <= j < half: x^j mod
        # Phi_N, by repeated multiplication by x.
        vec = [0] * self.phi
        vec[0] = 1
        vecs = [tuple(vec)]
        for _ in range(self.half - 1):
            top = vec[-1]
            vec = [0] + vec[:-1]
            if top:
                for i in range(self.phi):
                    vec[i] += top * base[i]
            vecs.append(tuple(vec))
        self._zeta_vecs = tuple(vecs)
        # Stored form -> the field's one Cyc (see _raw), and the dense form
        # of each r * zeta^j with j >= phi -> its single term.
        self._interned: dict[tuple, Cyc] = {}
        # Coordinates of +-zeta^j -> (j, +-1) for phi <= j < half (p odd);
        # their content is 1, as x is a unit mod Phi_N.
        self._beyond: dict[tuple[int, ...], tuple[int, int]] = {}
        for j in range(self.phi, self.half):
            self._beyond[vecs[j]] = (j, 1)
            self._beyond[tuple([-x for x in vecs[j]])] = (j, -1)
        self.zero = _raw(self, (0,) * self.phi, 1, None)
        self.one = _raw(self, 1, 1, 0)
        self._zeta_pows: dict[int, Cyc] = {}
        self._qint_cache: dict[Fraction, Cyc] = {}
        self._qbin_cache: dict[tuple[int, int], Cyc] = {}
        self._qfac_cache: dict[int, Cyc] = {}
        self.shared_entries: dict[tuple, tuple] = {}
        self.zeta = self.zeta_pow(1)
        self.q = self.zeta_pow(2)
        self.q_inv = self.zeta_pow(-2)
        self.qdiff = self.q - self.q_inv          # q - q^-1
        self.qdiff_inv = self.qdiff.inv()

    def __repr__(self) -> str:
        return f"QContext(p={self.p}, N={self.order})"

    def rational(self, value: Union[int, Fraction]) -> Cyc:
        fr = Fraction(value)
        if not fr:
            return self.zero
        return _raw(self, fr.numerator, fr.denominator, 0)

    def zeta_pow(self, j: int) -> Cyc:
        """zeta^j, i.e. q^(j/2); j is reduced mod N."""
        j %= self.order
        hit = self._zeta_pows.get(j)
        if hit is not None:
            return hit
        phi = self.phi
        if j < phi:
            out = _raw(self, 1, 1, j)
        else:
            out = self.zeta_pow(j - phi + 1) * self.zeta_pow(phi - 1)
        self._zeta_pows[j] = out
        return out

    def q_pow(self, j: int) -> Cyc:
        return self.zeta_pow(2 * j)

    def q_half_pow(self, j2: int) -> Cyc:
        """q^(j2/2) for integer j2 (exponent counted in half units)."""
        return self.zeta_pow(j2)

    def q_int(self, n: HalfInt) -> Cyc:
        """Balanced q-number [n] = (q^n - q^-n)/(q - q^-1); n may be a
        half-integer (denominator 2), resolved through zeta = q^(1/2)."""
        fr = Fraction(n)
        if fr.denominator not in (1, 2):
            raise ValueError("q_int argument must be integer or half-integer")
        hit = self._qint_cache.get(fr)
        if hit is not None:
            return hit
        t = int(fr * 2)  # 2n, always an integer
        val = (self.zeta_pow(t) - self.zeta_pow(-t)) * self.qdiff_inv
        self._qint_cache[fr] = val
        return val

    def q_factorial(self, n: int) -> Cyc:
        """[n]! = [1][2]...[n] (balanced); division-free."""
        if n < 0:
            raise ValueError("q_factorial of negative n")
        hit = self._qfac_cache.get(n)
        if hit is not None:
            return hit
        val = self.one if n == 0 else self.q_factorial(n - 1) * self.q_int(n)
        self._qfac_cache[n] = val
        return val

    def q_binomial(self, n: int, k: int) -> Cyc:
        """Balanced q-binomial via the division-free Pascal recursion

            [n,k] = q^(k-n) [n-1,k-1] + q^k [n-1,k]

        which agrees with [n]!/([k]![n-k]!) whenever that quotient is
        defined, but stays well-defined at roots of unity.
        """
        if k < 0 or k > n:
            return self.zero
        if k == 0 or k == n:
            return self.one
        key = (n, k)
        hit = self._qbin_cache.get(key)
        if hit is not None:
            return hit
        val = self.q_pow(k - n) * self.q_binomial(n - 1, k - 1) \
            + self.q_pow(k) * self.q_binomial(n - 1, k)
        self._qbin_cache[key] = val
        return val


class Cyc:
    """An element of Q(zeta_N), in the one canonical form of its value.

    * Single term: r * zeta^j with r = num/den a nonzero rational in lowest
      terms (den > 0) and 0 <= j < N/2.  Because zeta^(N/2) = -1, any
      r * zeta^k folds to this range by flipping the sign of r.  The form
      is unique: if r * zeta^j = s * zeta^k with r, s rational, then
      zeta^(j-k) = s/r is a rational root of unity, hence +-1, so
      j = k mod N/2, and with 0 <= j, k < N/2 that means j = k and r = s.
    * Dense: every other value, as integer coefficients on the power basis
      1, zeta, ..., zeta^(phi-1) over a common positive denominator,
      content-free.  Zero is dense, with all coefficients 0.

    Every value r * zeta^j is single-term, also for phi <= j < N/2 (p
    odd), where a dense result with its coordinates is recognized and
    replaced (zeta^2 - 1 is zeta^4 at p = 3); so the stored form
    (_v, _j, d) depends only on the value and N.

    `Cyc(ctx, coeffs, den)` and every operation return the field's one
    object for the value, from its intern table, so within a field `==`
    is `is`; scalars of two fields of the same order are equal when their
    stored forms are, which `__hash__` reads.  Each scalar has a serial,
    unique across fields, and memoizes its products and sums under the
    other operand's serial (`_mul`, `_add`, filled on both operands) and
    its negation and inverse (`_neg`, `_inv`).  A miss takes the O(1)
    single-term path or the power-basis convolution, reduction or Euclid.
    `c` (coefficient tuple) and `d` (denominator) read the power-basis
    form of either.

    The value never changes: `_raw` sets `ctx`, `d`, `_v`, `_j` and
    `serial` once, and only the memo slots change afterwards.  Scalars
    are shared by every table row that holds them; `tests/test_cyclo.py`
    scans the package for slot assignments and for scalars built around
    the intern table.
    """

    # _v: the numerator (single term) or the coefficient tuple (dense);
    # _j: the zeta exponent (single term) or None (dense).
    __slots__ = ("ctx", "d", "_v", "_j", "serial", "_mul", "_add", "_neg",
                 "_inv")

    def __new__(cls, ctx: QContext, coeffs: Sequence[int], den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            return _from_coeffs(ctx, [-x for x in coeffs], -den)
        return _from_coeffs(ctx, list(coeffs), den)

    @property
    def c(self) -> tuple[int, ...]:
        """Power-basis numerators over the denominator `d`."""
        j = self._j
        if j is None:
            return self._v
        num = self._v
        vec = self.ctx._zeta_vecs[j]
        return vec if num == 1 else tuple([num * x for x in vec])

    # -- ring operations -------------------------------------------------

    def __add__(self, other: Cyc) -> Cyc:
        out = self._add.get(other.serial)
        if out is None:
            out = _sum(self, other)
        return out

    def __sub__(self, other: Cyc) -> Cyc:
        neg = -other
        out = self._add.get(neg.serial)
        if out is None:
            out = _sum(self, neg)
        return out

    def __neg__(self) -> Cyc:
        out = self._neg
        if out is None:
            v = self._v
            v = -v if self._j is not None else tuple([-x for x in v])
            out = self._neg = _raw(self.ctx, v, self.d, self._j)
            out._neg = self
        return out

    def __mul__(self, other: Cyc) -> Cyc:
        out = self._mul.get(other.serial)
        if out is None:
            out = _product(self, other)
        return out

    def inv(self) -> Cyc:
        """Multiplicative inverse: O(1) for a single term, else the
        extended Euclidean algorithm in Q[x] against Phi_N; memoized."""
        out = self._inv
        if out is None:
            j = self._j
            if j is not None:
                # (num/den * zeta^j)^-1 = den/num * zeta^-j, and for j > 0
                # zeta^-j = -zeta^(N/2 - j).
                num, den = self.d, self._v
                if den < 0:
                    num, den = -num, -den
                if j:
                    num = -num
                    j = self.ctx.half - j
                out = _raw(self.ctx, num, den, j)
            elif self is self.ctx.zero:
                raise ZeroDivisionError("inverse of zero in Q(zeta)")
            else:
                out = self._inv_uncached()
            self._inv = out
            out._inv = self
        return out

    def _inv_uncached(self) -> Cyc:
        ctx = self.ctx
        # Extended Euclid over Q[x]: find u with u*a = 1 mod Phi_N.
        a = [Fraction(x, self.d) for x in self.c]
        b = [Fraction(x) for x in ctx.poly]
        # Invariant: r0 = s0*a mod Phi, r1 = s1*a mod Phi.
        r0, s0 = b, [Fraction(0)]
        r1, s1 = list(a), [Fraction(1)]
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            if not r1:
                raise ZeroDivisionError("not invertible (reducible modulus?)")
            if len(r1) == 1:
                c = r1[0]
                coeffs = [x / c for x in s1]
                break
            q_poly, rem = _frac_poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s_new = _frac_poly_sub(s0, _frac_poly_mul(q_poly, s1))
            s0, s1 = s1, s_new
        coeffs = coeffs[:ctx.phi] + [Fraction(0)] * max(0, ctx.phi - len(coeffs))
        den = 1
        for fr in coeffs:
            den = den * fr.denominator // gcd(den, fr.denominator)
        ints = [int(fr * den) for fr in coeffs]
        out = Cyc(ctx, ints, den)
        # Exactness guard: u * a must be exactly 1.
        if out * self is not ctx.one:
            raise ArithmeticError("inverse verification failed")
        return out

    def __pow__(self, n: int) -> Cyc:
        if n < 0:
            return self.inv() ** (-n)
        out = self.ctx.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates / conversions ----------------------------------------

    def __bool__(self) -> bool:
        return self is not self.ctx.zero

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, Cyc):
            # one object per value within a field; a field of another
            # order holds other values even with equal coordinates
            a, b = self.ctx, other.ctx
            return (a is not b and a.order == b.order and self.d == other.d
                    and self._j == other._j and self._v == other._v)
        if isinstance(other, (int, Fraction)):
            return self is self.ctx.rational(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._v, self._j, self.d))

    def to_fractions(self) -> list[Fraction]:
        return [Fraction(x, self.d) for x in self.c]

    # -- rendering --------------------------------------------------------

    def __repr__(self) -> str:
        return f"Cyc({self})"

    def __str__(self) -> str:
        return render_scalar(self)


_new = object.__new__
# Serials are unique across fields, so that no memo entry of one field
# can answer for an operand of another.
_serials = count()


def _raw(ctx: QContext, v, den: int, j) -> Cyc:
    """The field's one Cyc with these parts (see the `_v`/`_j` slots),
    which must already be the canonical form of the value: looked up in
    the intern table, and built on a miss."""
    key = (v, den) if j is None else (v, den, j)
    out = ctx._interned.get(key)
    if out is None:
        out = ctx._interned[key] = _new(Cyc)
        out.ctx = ctx
        out.d = den
        out._v = v
        out._j = j
        out.serial = next(_serials)
        out._mul = {}
        out._add = {}
        out._neg = out._inv = None
    return out


def _from_coeffs(ctx: QContext, coeffs: list[int], den: int) -> Cyc:
    """The field's one Cyc with power-basis numerators coeffs over den > 0."""
    g = _content(coeffs, den)
    if g > 1:
        coeffs = [x // g for x in coeffs]
        den //= g
    nonzero = len(coeffs) - coeffs.count(0)
    if nonzero == 1:
        num = sum(coeffs)
        return _raw(ctx, num, den, coeffs.index(num))
    if not nonzero:
        return ctx.zero
    v = tuple(coeffs)
    out = ctx._interned.get((v, den))
    if out is not None:
        return out
    g = gcd(*v)
    term = ctx._beyond.get(tuple([x // g for x in v]))
    if term is None:
        return _raw(ctx, v, den, None)
    # v = g * sign * (coordinates of zeta^j)
    j, sign = term
    r = Fraction(sign * g, den)
    out = ctx._interned[v, den] = _raw(ctx, r.numerator, r.denominator, j)
    return out


def _product(a: Cyc, b: Cyc) -> Cyc:
    """a * b on a memo miss, recorded on both operands."""
    ctx = a.ctx
    if b.ctx is not ctx:
        raise ValueError("product of scalars of two fields")
    ja, jb = a._j, b._j
    if ja is not None and jb is not None:
        num = a._v * b._v
        den = a.d * b.d
        j = ja + jb
        if j >= ctx.half:
            j -= ctx.half
            num = -num
        g = gcd(num, den)
        out = _raw(ctx, num // g, den // g, j)
    else:
        out = _from_coeffs(ctx, _mul_vec(ctx, a.c, b.c), a.d * b.d)
    a._mul[b.serial] = out
    b._mul[a.serial] = out
    return out


def _sum(a: Cyc, b: Cyc) -> Cyc:
    """a + b on a memo miss, recorded on both operands."""
    ctx = a.ctx
    if b.ctx is not ctx:
        raise ValueError("sum of scalars of two fields")
    j, da, db = a._j, a.d, b.d
    if j is not None and j == b._j:     # single terms, one exponent
        num = a._v * db + b._v * da
        g = gcd(num, da * db)
        out = _raw(ctx, num // g, da * db // g, j) if num else ctx.zero
    else:
        out = _from_coeffs(
            ctx, [x * db + y * da for x, y in zip(a.c, b.c)], da * db)
    a._add[b.serial] = out
    b._add[a.serial] = out
    return out


def _mul_vec(ctx: QContext, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Power-basis coordinates of a * b mod Phi_N."""
    phi = ctx.phi
    prod = [0] * (2 * phi - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    out = prod[:phi]
    rows = ctx._red_rows
    for k in range(phi, 2 * phi - 1):
        pk = prod[k]
        if pk:
            row = rows[k - phi]
            for i in range(phi):
                ri = row[i]
                if ri:
                    out[i] += pk * ri
    return out


def _frac_poly_divmod(num: list[Fraction],
                      den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    num = list(num)
    while num and not num[-1]:
        num.pop()
    dn = len(den) - 1
    lead = den[-1]
    if len(num) - 1 < dn:
        return [Fraction(0)], num
    out = [Fraction(0)] * (len(num) - dn)
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k] / lead
        out[k - dn] = c
        if c:
            for i, d in enumerate(den):
                num[k - dn + i] -= c * d
    rem = num[:dn]
    while rem and not rem[-1]:
        rem.pop()
    return out, rem


def _frac_poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _frac_poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _render_coeff(fr: Fraction, *, lead: bool) -> tuple[str, str]:
    sign = "-" if fr < 0 else ("" if lead else "+")
    mag = -fr if fr < 0 else fr
    body = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
    return sign, body


def render_scalar(x: Cyc) -> str:
    """Deterministic human-readable form: a Q-combination of q-powers.

    zeta^j is printed as q^(j/2) for odd j and q^(j//2) for even j, so
    the output reads in terms of q wherever possible.
    """
    if not x:
        return "0"
    parts: list[str] = []
    for j, cj in enumerate(x.c):
        if not cj:
            continue
        fr = Fraction(cj, x.d)
        sign, body = _render_coeff(fr, lead=not parts)
        if j == 0:
            term = body
        else:
            if j % 2 == 0:
                e = j // 2
                qp = "q" if e == 1 else f"q^{e}"
            else:
                qp = f"q^({j}/2)"
            term = qp if body == "1" else f"{body}*{qp}"
        parts.append(sign + term if not parts else f" {sign} {term}")
    return "".join(parts)
