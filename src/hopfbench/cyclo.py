"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Scalars live in Q(zeta_N) represented as Q[x]/Phi_N(x) with integer
coefficient vectors over a common denominator, or, for the common case
of a single term r * zeta^j, as (numerator, denominator, j) (see Cyc).
Every operation is exact and there is never a floating-point tolerance
anywhere downstream.

The intended use is N = 4*p: zeta = zeta_N is a primitive N-th root of
unity, q = zeta^2 is a primitive 2p-th root of unity, and zeta itself
serves as the square root of q that the half-integer q-numbers and the
kappa-type group-like functionals need.

q-combinatorics here is *balanced*: [n] = (q^n - q^-n)/(q - q^-1),
extended to half-integer n via zeta.  Binomials are computed with a
division-free Pascal recursion so they stay well-defined at roots of
unity where the naive factorial quotient would divide by zero.  The
one-sided Gaussian variant is kept around for cross-checks and for the
deliberately-wrong mutation fixtures.
"""

from __future__ import annotations

from fractions import Fraction
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

    A context owns the reduction rows for x^k mod Phi_N and memo tables
    for powers of zeta/q, inverses, q-integers and q-binomials.  Scalars
    (Cyc) carry a reference to their context; mixing contexts is an error.
    """

    __slots__ = (
        "p", "order", "half", "phi", "poly", "_red_rows", "_zeta_vecs",
        "zero", "one", "_zeta_pows", "_inv_cache", "_qint_cache",
        "_qbin_cache", "_qbin1_cache", "_qfac_cache", "q", "q_inv", "zeta",
        "qdiff", "qdiff_inv",
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
        self.zero = _raw(self, (0,) * self.phi, 1, None)
        self.one = _raw(self, 1, 1, 0)
        self._zeta_pows: dict[int, Cyc] = {}
        self._inv_cache: dict[tuple[tuple[int, ...], int], Cyc] = {}
        self._qint_cache: dict[Fraction, Cyc] = {}
        self._qbin_cache: dict[tuple[int, int], Cyc] = {}
        self._qbin1_cache: dict[tuple[int, int], Cyc] = {}
        self._qfac_cache: dict[int, Cyc] = {}
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

    def q_binomial_onesided(self, n: int, k: int) -> Cyc:
        """One-sided Gaussian binomial (base q), Pascal form

            C[n,k] = C[n-1,k-1] + q^k C[n-1,k].

        Not what the double constructions use; kept for convention
        cross-checks and mutation fixtures.
        """
        if k < 0 or k > n:
            return self.zero
        if k == 0 or k == n:
            return self.one
        key = (n, k)
        hit = self._qbin1_cache.get(key)
        if hit is not None:
            return hit
        val = self.q_binomial_onesided(n - 1, k - 1) \
            + self.q_pow(k) * self.q_binomial_onesided(n - 1, k)
        self._qbin1_cache[key] = val
        return val


class Cyc:
    """An element of Q(zeta_N), held in one of two forms.

    * Single term: r * zeta^j with r = num/den a nonzero rational in lowest
      terms (den > 0) and 0 <= j < N/2.  Because zeta^(N/2) = -1, any
      r * zeta^k folds to this range by flipping the sign of r.  The form
      is unique: if r * zeta^j = s * zeta^k with r, s rational, then
      zeta^(j-k) = s/r is a rational root of unity, hence +-1, so
      j = k mod N/2, and with 0 <= j, k < N/2 that means j = k and r = s.
    * Dense: integer coefficients on the power basis 1, zeta, ...,
      zeta^(phi-1) over a common positive denominator, content-free.

    Every result with exactly one nonzero power-basis coefficient is built
    in the single-term form, so a dense scalar has zero or at least two
    nonzero coefficients.  A single term r * zeta^j with j >= phi (p odd)
    may still arrive as a dense sum (zeta^4 = zeta^2 - 1 at p = 3);
    equality and hashing compare power-basis coordinates in that case.

    Products and inverses of single terms are O(1); everything else runs
    the power-basis convolution and reduction mod Phi_N.  `c` (coefficient
    tuple) and `d` (denominator) read the power-basis form of either.
    """

    # _v: the numerator (single term) or the coefficient tuple (dense);
    # _j: the zeta exponent (single term) or None (dense).
    __slots__ = ("ctx", "d", "_v", "_j")

    def __init__(self, ctx: QContext, coeffs: Sequence[int], den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            coeffs = [-x for x in coeffs]
        g = _content(coeffs, den)
        if g > 1:
            coeffs = [x // g for x in coeffs]
            den //= g
        self.ctx = ctx
        self.d = den
        if len(coeffs) - coeffs.count(0) == 1:
            num = sum(coeffs)
            self._v = num
            self._j = coeffs.index(num)
        else:
            self._v = tuple(coeffs)
            self._j = None

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
        ja, jb = self._j, other._j
        if ja is None and jb is None:
            # Kept inline (here and in __sub__): dense +- dense is the
            # common sum at p >= 3.
            a, b = self._v, other._v
            da, db = self.d, other.d
            if da == db:
                return Cyc(self.ctx, [x + y for x, y in zip(a, b)], da)
            return Cyc(self.ctx, [x * db + y * da for x, y in zip(a, b)],
                       da * db)
        if ja == jb:
            return _term_sum(self, other._v, other.d)
        return _power_basis_sum(self, other, 1)

    def __sub__(self, other: Cyc) -> Cyc:
        ja, jb = self._j, other._j
        if ja is None and jb is None:
            a, b = self._v, other._v
            da, db = self.d, other.d
            if da == db:
                return Cyc(self.ctx, [x - y for x, y in zip(a, b)], da)
            return Cyc(self.ctx, [x * db - y * da for x, y in zip(a, b)],
                       da * db)
        if ja == jb:
            return _term_sum(self, -other._v, other.d)
        return _power_basis_sum(self, other, -1)

    def __neg__(self) -> Cyc:
        j = self._j
        if j is None:
            return _raw(self.ctx, tuple([-x for x in self._v]), self.d, None)
        return _raw(self.ctx, -self._v, self.d, j)

    def __mul__(self, other: Cyc) -> Cyc:
        ja, jb = self._j, other._j
        ctx = self.ctx
        if ja is not None and jb is not None:
            num = self._v * other._v
            den = self.d * other.d
            j = ja + jb
            if j >= ctx.half:
                j -= ctx.half
                num = -num
            if den > 1:
                g = gcd(num, den)
                if g > 1:
                    num //= g
                    den //= g
            out = _new(Cyc)     # _raw, inlined on the hottest path
            out.ctx = ctx
            out.d = den
            out._v = num
            out._j = j
            return out
        if ja is None:
            if jb is None:
                return Cyc(ctx, _mul_vec(ctx, self._v, other._v, 1),
                           self.d * other.d)
            return Cyc(ctx, _mul_vec(ctx, ctx._zeta_vecs[jb], self._v,
                                     other._v), self.d * other.d)
        return Cyc(ctx, _mul_vec(ctx, ctx._zeta_vecs[ja], other._v,
                                 self._v), self.d * other.d)

    def inv(self) -> Cyc:
        """Multiplicative inverse: O(1) for a single term, else the
        extended Euclidean algorithm in Q[x] against Phi_N (cached per
        context)."""
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
            return _raw(self.ctx, num, den, j)
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(zeta)")
        key = (self._v, self.d)
        cache = self.ctx._inv_cache
        hit = cache.get(key)
        if hit is not None:
            return hit
        out = self._inv_uncached()
        cache[key] = out
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
        if out * self != ctx.one:
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
        return self._j is not None or any(self._v)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Cyc):
            if self._j == other._j:
                same = self._v == other._v and self.d == other.d
            elif self._j is None or other._j is None:
                same = self.d == other.d and self.c == other.c
            else:
                return False
            # scalars of different fields differ even with equal coordinates
            return same and (self.ctx is other.ctx
                             or self.ctx.order == other.ctx.order)
        if isinstance(other, (int, Fraction)):
            return self == self.ctx.rational(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.c, self.d))

    def is_rational(self) -> bool:
        return not any(self.c[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational scalar")
        return Fraction(self.c[0], self.d)

    def to_fractions(self) -> list[Fraction]:
        return [Fraction(x, self.d) for x in self.c]

    # -- rendering --------------------------------------------------------

    def __repr__(self) -> str:
        return f"Cyc({self})"

    def __str__(self) -> str:
        return render_scalar(self)


_new = object.__new__


def _raw(ctx: QContext, v, den: int, j) -> Cyc:
    """A Cyc from already-normalized parts (see the `_v`/`_j` slots)."""
    out = _new(Cyc)
    out.ctx = ctx
    out.d = den
    out._v = v
    out._j = j
    return out


def _term_sum(a: Cyc, num: int, den: int) -> Cyc:
    """a + num/den * zeta^j for a single term a = r * zeta^j."""
    da = a.d
    if da == den:
        num += a._v
    else:
        num = a._v * den + num * da
        den *= da
    if not num:
        return a.ctx.zero
    g = gcd(num, den)
    if g > 1:
        num //= g
        den //= g
    return _raw(a.ctx, num, den, a._j)


def _power_basis_sum(a: Cyc, b: Cyc, sign: int) -> Cyc:
    """a + sign * b, summed on power-basis coordinates."""
    da, db = a.d, b.d
    if da == db:
        sa, sb, den = 1, sign, da
    else:
        sa, sb, den = db, sign * da, da * db
    out = [0] * a.ctx.phi
    _accumulate(out, a, sa)
    _accumulate(out, b, sb)
    return Cyc(a.ctx, out, den)


def _accumulate(out: list[int], x: Cyc, scale: int) -> None:
    """out += scale * (power-basis numerators of x)."""
    j = x._j
    if j is None:
        vec = x._v
    elif j < len(out):
        out[j] += scale * x._v
        return
    else:
        vec = x.ctx._zeta_vecs[j]
        scale *= x._v
    for i, v in enumerate(vec):
        if v:
            out[i] += scale * v


def _mul_vec(ctx: QContext, a: Sequence[int], b: Sequence[int],
             scale: int) -> list[int]:
    """Power-basis coordinates of scale * a * b mod Phi_N."""
    phi = ctx.phi
    prod = [0] * (2 * phi - 1)
    for i, ai in enumerate(a):
        if ai:
            ai *= scale
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
