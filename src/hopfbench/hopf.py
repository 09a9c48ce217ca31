"""Finite-dimensional Hopf algebra data and mechanical axiom checking.

A FiniteHopf carries explicit structure tensors over a cyclotomic
field: multiplication and comultiplication rows, unit vector, counit
functional and antipode matrix.  Per-element axioms are checked on every
basis element, and each axiom over basis tuples on the walk its caller
gives it (see `results`).  Walks stop at the first failure, so the
witness of an exhaustive walk is its lexicographically smallest failing
tuple.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .cyclo import Cyc, QContext
from .results import (CheckResult, certificate_check, counted, gen_indices,
                      obligation, run_check, twist_of)
from .sparse import (
    BilinearMap, ColinearMap, LinearMap, Space,
    Subspace, linear_map_inverse, shared_row, tensor_flat, vadd_into,
    vadd_outer, vadd_term, veq, vscale,
)

__all__ = [
    "FiniteHopf", "FiniteAlgebra", "check_hopf_axioms",
    "check_algebra_axioms", "check_product_rows", "product_row_case",
    "dual_hopf",
    "HopfPairing", "check_hopf_pairing", "render_element",
    "pair_product", "TwistedProduct", "twisted_product",
    "check_same_twist", "pairing_counit_cases",
]

Vec = dict

# -- element rendering -------------------------------------------------------

def _coef_str(c: Cyc) -> str:
    s = str(c)
    if ("+" in s[1:]) or ("-" in s[1:]) or (" " in s):
        return f"({s})"
    return s


def _render_terms(v: Vec, label) -> str:
    """Deterministic human-readable form of a vector, sorted by index;
    label(i) names basis index i."""
    if not v:
        return "0"
    parts = []
    for i in sorted(v):
        lab = label(i)
        cs = _coef_str(v[i])
        if cs == "1":
            parts.append(lab)
        elif cs == "-1":
            parts.append(f"-{lab}")
        else:
            parts.append(f"{cs}*{lab}")
    return " + ".join(parts).replace("+ -", "- ")


def render_element(space: Space, v: Vec) -> str:
    """Deterministic human-readable form of a vector, sorted by index."""
    return _render_terms(v, space.label)


def render_tensor(space1: Space, space2: Space, v: Vec) -> str:
    """Render a vector living on flat pair indices i * dim2 + j."""
    def label(key: int) -> str:
        i, j = divmod(key, space2.dim)
        return f"{space1.label(i)} (x) {space2.label(j)}"

    return _render_terms(v, label)


# -- the structure container -------------------------------------------------

class FiniteAlgebra:
    """An associative unital algebra with a labeled basis.

    The product may be lazily backed; the unit is explicit.  `generators`
    is an optional list of vectors used by generator-mode checks; it
    should generate the algebra together with the unit.  `twist` is the
    `TwistedProduct` that built the product, unit and generators, if one
    did (see `results.twist_of`).
    """

    __slots__ = ("ctx", "space", "mult", "unit", "generators", "name",
                 "twist", "__weakref__")

    def __init__(self, ctx: QContext, space: Space, mult: BilinearMap,
                 unit: Vec, generators: Optional[list] = None, name: str = "",
                 twist: Optional[TwistedProduct] = None):
        self.ctx = ctx
        self.space = space
        self.mult = mult
        self.unit = unit
        self.generators = generators
        self.name = name or space.name
        self.twist = twist

    @property
    def dim(self) -> int:
        return self.space.dim

    def basis(self, i: int) -> Vec:
        return {i: self.ctx.one}

    def product(self, u: Vec, v: Vec) -> Vec:
        return self.mult.apply(u, v)

    def render(self, v: Vec) -> str:
        return render_element(self.space, v)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name}, dim={self.dim})"


class FiniteHopf(FiniteAlgebra):
    """A finite-dimensional Hopf algebra given by structure tensors.

    The algebra part is a FiniteAlgebra.  comult and antipode rows may be
    lazily backed; the counit is always explicit.
    """

    __slots__ = ("comult", "counit", "antipode", "_antipode_inv")

    def __init__(self, ctx: QContext, space: Space, mult: BilinearMap,
                 unit: Vec, comult: ColinearMap, counit: dict,
                 antipode: LinearMap, generators: Optional[list] = None,
                 name: str = "", twist: Optional[TwistedProduct] = None):
        super().__init__(ctx, space, mult, unit, generators, name, twist)
        self.comult = comult
        self.counit = counit
        self.antipode = antipode
        self._antipode_inv: Optional[LinearMap] = None

    def coproduct(self, v: Vec) -> Vec:
        return self.comult.apply(v)

    def counit_of(self, v: Vec) -> Cyc:
        total = self.ctx.zero
        for i, c in v.items():
            e = self.counit.get(i)
            if e is not None:
                total = total + c * e
        return total

    def antipode_of(self, v: Vec) -> Vec:
        return self.antipode.apply(v)

    def antipode_inv(self) -> LinearMap:
        if self._antipode_inv is None:
            self._antipode_inv = linear_map_inverse(self.antipode)
        return self._antipode_inv

    def coproduct_nested(self, v: Vec, parts: int) -> Vec:
        """Iterated coproduct with left-nested flat indices.

        parts=1 returns v; parts=2 is the plain coproduct; parts=m
        applies (coproduct (x) id^(m-2)) o ... recursively on the first
        tensor leg, so a flat index reads (((i1*n+i2)*n+i3)...).
        """
        if parts == 1:
            return dict(v)
        n = self.dim
        cur = self.coproduct(v)           # flat pairs, leftmost split
        for _ in range(parts - 2):
            nxt: Vec = {}
            for key, c in cur.items():
                head, tail = divmod(key, n)
                for j, k, cc in self.comult.get(head):
                    vadd_term(nxt, (j * n + k) * n + tail, c * cc)
            cur = nxt
        return cur


class TwistedProduct(NamedTuple):
    """A (x)_R B as `twisted_product` built it, the one maker of these:
    the factors, R's memoized stored rows r_row(b, a) of (a', b', c)
    terms, and the product, unit and generators made from them."""

    A: object
    B: object
    r_row: Callable[[int, int], tuple]
    mult: BilinearMap
    unit: Vec
    gens: Optional[list]

    def r(self, b: int, a: int) -> Vec:
        """R(b (x) a) as a vector on the flat indices a' * B.dim + b'."""
        out: Vec = {}
        for x, y, c in self.r_row(b, a):
            vadd_term(out, x * self.B.dim + y, c)
        return out

    def factor_indices(self) -> tuple[list, list]:
        """Flat indices of a (x) 1 over A's basis, of 1 (x) b over B's."""
        (ua,), (ub,), nB = self.A.unit, self.B.unit, self.B.dim
        return ([a * nB + ub for a in range(self.A.dim)],
                [ua * nB + b for b in range(nB)])


def twisted_product(A, B, r_row) -> TwistedProduct:
    """Twisted tensor product A (x)_R B on flat indices a * B.dim + b:

        (a1 (x) b1)(a2 (x) b2) = sum over (a, b, c) in r_row(b1, a2)
                                 of c * a1 a (x) b b2,

    where r_row(b1, a2) lists R(b1 (x) a2) as (a, b, c) terms (Cap,
    Schichl and Vanzura, Comm. Algebra 23, 1995).  Each R row is computed
    on first use and memoized as a stored row (see `sparse.shared_row`).
    The generators are g (x) 1 and 1 (x) g over those of A and of B (None
    if neither has any).  The algebra built on the record keeps it as
    its `twist`; nothing in this package calls `.set` on its `mult`, so
    its rows are the formula's.
    """
    nA, nB = A.dim, B.dim
    rmemo: dict[int, tuple] = {}

    def row(b: int, a: int) -> tuple:
        key = b * nA + a
        r = rmemo.get(key)
        if r is None:
            r = rmemo[key] = shared_row(r_row(b, a))
        return r

    def mult_fn(k1: int, k2: int) -> tuple:
        a1, b1 = divmod(k1, nB)
        a2, b2 = divmod(k2, nB)
        acc: Vec = {}
        for a, b, c in row(b1, a2):
            ra = A.mult.get(a1, a)
            if not ra:
                continue
            rb = B.mult.get(b, b2)
            if rb:
                vadd_outer(acc, c, ra, rb, nB)
        return tuple(sorted(acc.items()))

    gens = ([tensor_flat(g, B.unit, nB) for g in A.generators or ()]
            + [tensor_flat(A.unit, g, nB) for g in B.generators or ()])
    return TwistedProduct(A, B, row, BilinearMap(nA * nB, nA * nB, fn=mult_fn),
                          tensor_flat(A.unit, B.unit, nB), gens or None)


def pair_product(H: FiniteHopf, x: Vec, y: Vec) -> Vec:
    """Componentwise product on H (x) H given by flat pair vectors."""
    n = H.dim
    get = H.mult.get
    out: Vec = {}
    for p1, c1 in x.items():
        a, b = divmod(p1, n)
        for p2, c2 in y.items():
            c, d = divmod(p2, n)
            row_l = get(a, c)
            if not row_l:
                continue
            row_r = get(b, d)
            if not row_r:
                continue
            vadd_outer(out, c1 * c2, row_l, row_r, n)
    return out


def check_algebra_axioms(A, associativity) -> list:
    """Associativity on `associativity`, and the unit laws, for a
    FiniteAlgebra (or FiniteHopf).

    `results.lemma_walk(A, 3)`, the triples (g, x, y) headed by a
    generator index, proves associativity.  S = {a : (ax)y = a(xy) for
    all x, y} is a subspace closed under the product without assuming
    associativity: for a, b in S, ((ab)x)y = (a(bx))y = a((bx)y) =
    a(b(xy)) = (ab)(xy).  It holds 1 when 1 is a left unit, the
    `mult-unit` line beside it, and the walk's certificate
    `generation_failure(A)` makes S all of A.
    """
    return [_check_associativity(A, associativity),
            run_check("mult-unit", "exhaustive", _unit_cases(A))]


def product_row_case(A, row) -> Callable[[int, int], Optional[str]]:
    """The case (i, j) of A's product agreeing with another product on
    A's basis: A.mult(e_i, e_j) = row(i, j), a vector on A's basis.  The
    witness renders both sides."""
    def case(i: int, j: int) -> Optional[str]:
        got = dict(A.mult.get(i, j))
        want = row(i, j)
        if veq(got, want):
            return None
        return (f"products of ({A.space.label(i)}, {A.space.label(j)}) "
                f"differ: {render_element(A.space, got)} vs "
                f"{render_element(A.space, want)}")

    return case


def check_product_rows(name: str, A, row, walk, gen_sets) -> CheckResult:
    """`product_row_case(A, row)` on the pairs (i, j) of `walk`, with
    `gen_sets` heading its two slots."""
    return walk.over((A.dim, A.dim), gen_sets).check(
        name, product_row_case(A, row))


def check_same_twist(X, Y, name: str, prelude: Iterable = ()) -> CheckResult:
    """X and Y, twisted products built by the formula (`results.twist_of`),
    are one algebra: the cases of `prelude`, a body, then their factors
    have equal dimensions and units (no case), then, one case each, equal
    products on every pair of the first factors and of the second, and
    equal R(b (x) a) on every pair, labelled "exhaustive".  Each product
    row is made from one R row and rows of the two factor tables, so equal
    inputs give equal products and units, with no associativity
    assumed."""
    s, t = twist_of(X), twist_of(Y)

    def body():
        wit = yield from prelude
        if wit is not None:
            return wit
        if (s.A.dim, s.B.dim, s.A.unit, s.B.unit) != (t.A.dim, t.B.dim,
                                                      t.A.unit, t.B.unit):
            return "the factors differ in dimension or unit"
        for F, G in ((s.A, t.A), (s.B, t.B)):
            for i, j in itertools.product(range(F.dim), repeat=2):
                u, v = dict(F.mult.get(i, j)), dict(G.mult.get(i, j))
                yield None if veq(u, v) else (
                    f"products of ({F.space.label(i)}, {F.space.label(j)}) "
                    f"in {F.name} differ: {render_element(F.space, u)} vs "
                    f"{render_element(F.space, v)}")
        for b, a in itertools.product(range(s.B.dim), range(s.A.dim)):
            u, v = s.r(b, a), t.r(b, a)
            yield None if veq(u, v) else (
                f"R({s.B.space.label(b)} (x) {s.A.space.label(a)}) differs: "
                f"{render_tensor(s.A.space, s.B.space, u)} vs "
                f"{render_tensor(s.A.space, s.B.space, v)}")

    return run_check(name, "exhaustive", body())


# -- axiom checks -------------------------------------------------------------

def _check_associativity(H: FiniteHopf, walk) -> CheckResult:
    """(xy)z = x(yz) on the basis triples (x, y, z) of the walk, with the
    generator indices of H in every slot."""
    n = H.dim
    g = gen_indices(H)
    get = H.mult.get

    def case(i: int, j: int, k: int) -> Optional[str]:
        lhs: Vec = {}
        for m, c in get(i, j):
            vadd_into(lhs, get(m, k), c)
        rhs: Vec = {}
        for m, c in get(j, k):
            vadd_into(rhs, get(i, m), c)
        if veq(lhs, rhs):
            return None
        labs = [H.space.label(t) for t in (i, j, k)]
        return f"basis triple ({', '.join(labs)}): (xy)z != x(yz)"

    return walk.over((n, n, n), (g, g, g)).check("mult-associativity", case)


def _unit_cases(H: FiniteHopf):
    for i in range(H.dim):
        e = H.basis(i)
        yield (None if veq(H.product(H.unit, e), e)
               else f"1*{H.space.label(i)} != itself")
        yield (None if veq(H.product(e, H.unit), e)
               else f"{H.space.label(i)}*1 != itself")


def _coassociativity_cases(H: FiniteHopf):
    n = H.dim
    for i in range(n):
        # (comult (x) id) comult vs (id (x) comult) comult on e_i
        left: Vec = {}
        right: Vec = {}
        for j, k, c in H.comult.get(i):
            for a, b, cc in H.comult.get(j):
                vadd_term(left, (a * n + b) * n + k, c * cc)
            for a, b, cc in H.comult.get(k):
                vadd_term(right, (j * n + a) * n + b, c * cc)
        yield (None if veq(left, right)
               else f"coassociativity fails on {H.space.label(i)}")


def _counit_cases(H: FiniteHopf):
    for i in range(H.dim):
        left: Vec = {}
        right: Vec = {}
        for j, k, c in H.comult.get(i):
            ej = H.counit.get(j)
            if ej is not None:
                vadd_term(left, k, c * ej)
            ek = H.counit.get(k)
            if ek is not None:
                vadd_term(right, j, c * ek)
        e = H.basis(i)
        yield (None if veq(left, e) and veq(right, e)
               else f"counit law fails on {H.space.label(i)}")


def _comult_mult_pair_ok(H: FiniteHopf, i: int, j: int) -> bool:
    lhs = H.coproduct(H.product(H.basis(i), H.basis(j)))
    rhs = pair_product(H, H.coproduct(H.basis(i)), H.coproduct(H.basis(j)))
    return veq(lhs, rhs)


def _counit_mult_pair_ok(H: FiniteHopf, i: int, j: int) -> bool:
    lhs = H.counit_of(H.product(H.basis(i), H.basis(j)))
    ei = H.counit.get(i)
    ej = H.counit.get(j)
    rhs = (ei * ej) if (ei is not None and ej is not None) else H.ctx.zero
    return lhs == rhs


def _check_pairwise(H: FiniteHopf, name: str, pair_ok,
                    walk) -> CheckResult:
    """A bilinear axiom on the basis pairs of the walk, with no generator
    slot."""
    def case(i: int, j: int) -> Optional[str]:
        if pair_ok(H, i, j):
            return None
        return f"basis pair ({H.space.label(i)}, {H.space.label(j)})"

    return walk.over((H.dim, H.dim), (None, None)).check(name, case)


def _comult_unit_failure(H: FiniteHopf) -> Optional[str]:
    if H.counit_of(H.unit) != H.ctx.one:
        return "counit(1) != 1"
    if not veq(H.coproduct(H.unit), tensor_flat(H.unit, H.unit, H.dim)):
        return "comult(1) != 1(x)1"
    return None


def _antipode_cases(H: FiniteHopf):
    for i in range(H.dim):
        left: Vec = {}
        right: Vec = {}
        for j, k, c in H.comult.get(i):
            vadd_into(left, H.product(H.antipode_of(H.basis(j)), H.basis(k)), c)
            vadd_into(right, H.product(H.basis(j), H.antipode_of(H.basis(k))), c)
        target = vscale(H.unit, H.counit.get(i, H.ctx.zero))
        yield (None if veq(left, target) else
               f"m(S(x)id)comult != unit*counit on {H.space.label(i)}")
        yield (None if veq(right, target) else
               f"m(id(x)S)comult != unit*counit on {H.space.label(i)}")


def check_hopf_axioms(H: FiniteHopf, associativity, comult,
                      counit) -> list:
    """All Hopf-algebra axioms for H: associativity on `associativity`
    (see `check_algebra_axioms`) and each law on pairs on its own walk.

    `results.two_sided_lemma_walk(H)` proves a law on pairs, a map phi
    with phi(xy) = phi(x) phi(y) into an associative algebra: its pairs
    (g, j) put the generators in
    S = {x : phi(xy) = phi(x) phi(y) for all y}, a subalgebra of an
    associative H that holds 1 when phi(1) is the unit, and its
    certificate `generation_failure(H)` makes S all of H.
    """
    return [
        *check_algebra_axioms(H, associativity),
        run_check("comult-coassociativity", "exhaustive",
                  _coassociativity_cases(H)),
        run_check("counit-laws", "exhaustive", _counit_cases(H)),
        certificate_check("comult-counit-unital", 2,
                          partial(_comult_unit_failure, H)),
        _check_pairwise(H, "comult-multiplicative", _comult_mult_pair_ok,
                        comult),
        _check_pairwise(H, "counit-multiplicative", _counit_mult_pair_ok,
                        counit),
        run_check("antipode-convolution", "exhaustive", _antipode_cases(H)),
    ]


# -- duals and twists ---------------------------------------------------------

def dual_hopf(H: FiniteHopf) -> FiniteHopf:
    """Dual Hopf algebra on the dual basis <e^i, e_j> = delta_ij.

    Multiplication transposes the coproduct (<fg, x> = <f, x'><g, x''>),
    comultiplication transposes the product, the unit is the counit
    functional, the counit evaluates at the unit, and the antipode is
    the transpose matrix.  Requires materialized structure rows.
    """
    n = H.dim
    H.mult.materialize()
    mult_rows: dict[int, list] = {}
    for i in range(n):
        for j, k, c in H.comult.get(i):
            mult_rows.setdefault(j * n + k, []).append((i, c))
    mult = BilinearMap(n, n,
                       {key: tuple(sorted(row)) for key, row in mult_rows.items()})
    comult_rows: dict[int, list] = {}
    for i in range(n):
        for j in range(n):
            for k, c in H.mult.get(i, j):
                comult_rows.setdefault(k, []).append((i, j, c))
    comult = ColinearMap(n, n, n,
                         {k: tuple(sorted(row)) for k, row in comult_rows.items()})
    unit = {i: c for i, c in H.counit.items()}
    counit = {i: c for i, c in H.unit.items()}
    antipode = H.antipode.transpose()
    space = Space(f"{H.space.name}^*", H.space.labels,
                  lambda lab, r=H.space.render: f"{r(lab)}^*")
    return FiniteHopf(H.ctx, space, mult, unit, comult, counit, antipode,
                      name=f"{H.name}^*")


# -- pairings and the regular actions -----------------------------------------

class HopfPairing:
    """A bilinear pairing between a dual-side and a primal-side algebra.

    rows[f] lists (b, <f, e_b>) for basis functionals f.  The canonical
    dual pairing is the identity matrix; a relabeled dual (e.g. a
    monomial basis on the dual side) carries a genuine matrix.

    The four regular actions of a basis pair (`dual_left`, `dual_right`,
    `alg_left`, `alg_right`) are computed once per pair and memoized on
    the pairing.  That
    assumes `rows` and the tables of `dual` and `alg` are never edited
    after construction: a fixture that corrupts a table builds a fresh
    pairing (taft_setup(p, cached=False)).  The memoized vectors are
    shared, so callers read them and never edit them.
    """

    __slots__ = ("dual", "alg", "rows", "_arrows", "__weakref__")

    def __init__(self, dual: FiniteHopf, alg: FiniteHopf, rows: dict):
        self.dual = dual
        self.alg = alg
        self.rows = rows    # {f_index: ((b_index, Cyc), ...)}
        self._arrows: tuple = ({}, {}, {}, {})

    @classmethod
    def canonical(cls, dual: FiniteHopf, alg: FiniteHopf) -> "HopfPairing":
        one = alg.ctx.one
        return cls(dual, alg, {i: ((i, one),) for i in range(alg.dim)})

    def pair_basis(self, f: int, b: int) -> Optional[Cyc]:
        for bb, c in self.rows.get(f, ()):
            if bb == b:
                return c
        return None

    def pair(self, fvec: Vec, bvec: Vec) -> Cyc:
        total = self.alg.ctx.zero
        for f, cf in fvec.items():
            row = self.rows.get(f)
            if not row:
                continue
            for b, c in row:
                cb = bvec.get(b)
                if cb is not None:
                    total = total + cf * cb * c
        return total

    def dual_left(self, m: int, f: int) -> Vec:
        """e_m -> e^f = f' <f'', e_m>."""
        return self._arrow(0, f, m)

    def dual_right(self, f: int, m: int) -> Vec:
        """e^f <- e_m = <f', e_m> f''."""
        return self._arrow(1, f, m)

    def alg_left(self, f: int, b: int) -> Vec:
        """e^f -> e_b = b' <e^f, b''>."""
        return self._arrow(2, b, f)

    def alg_right(self, b: int, f: int) -> Vec:
        """e_b <- e^f = <e^f, b'> b''."""
        return self._arrow(3, b, f)

    def _arrow(self, kind: int, s: int, o: int) -> Vec:
        """Split basis vector s by its coproduct, keep one leg (the left
        one for even kinds) and pair the other with basis vector o; kinds
        0 and 1 split a functional, 2 and 3 an algebra element."""
        memo = self._arrows[kind]
        key = (s, o)
        out = memo.get(key)
        if out is None:
            on_dual = kind < 2
            zero = self.alg.ctx.zero
            out = {}
            for j, k, c in (self.dual if on_dual else self.alg).comult.get(s):
                keep, leg = (j, k) if kind % 2 == 0 else (k, j)
                pc = self.pair_basis(*((leg, o) if on_dual else (o, leg)))
                if pc is None:
                    continue
                val = zero + c * pc     # summed onto zero as `pair` does,
                if val:                 # so it keeps that stored form
                    vadd_term(out, keep, val)
            memo[key] = out
        return out


def check_hopf_pairing(P: HopfPairing, mult_vs_comult,
                       comult_vs_mult) -> Iterator[CheckResult]:
    """Compatibility axioms making P a Hopf pairing, yielded one line at a
    time: nondegeneracy via the rank of the pairing matrix, then
    <1*, x> = counit(x), counit*(f) = <f, 1> and <S* f, x> = <f, S x>,
    then <fg, x> = <f (x) g, comult x> and <comult* f, x (x) y> = <f, xy>.

    The two product laws walk their own triples: (f, g, x) with the
    dual's generator indices in f and g, and (x, f, y) with the
    algebra's in x and y.  The other two are always exhaustive.  Each
    line is an `results.obligation` on P: inside `obligations_once` a law
    walked before replays its witness and counts no case
    (`doubles.check_quasitriangular` reads these lines as hypotheses).

    `results.lemma_walk(P.dual, 3)` proves the first product law:
    {f : <fg, x> = <f, x'><g, x''> for all g, x} holds 1, by the unit
    law <1*, x> = counit(x) and B's counit law, and is closed under
    products when B* is associative and B coassociative, as
    <(f1 f2) g, x> = <f1, x'><f2, x''><g, x'''> = <f1 f2, x'><g, x''>;
    the walk's certificate makes it all of B*.  `lemma_walk(P.alg, 3)`
    proves the second in the same way, with B associative and B*
    coassociative.
    """
    D, A = P.dual, P.alg
    n, zero = A.dim, A.ctx.zero

    def mult_case(f: int, g: int, x: int) -> Optional[str]:
        rhs = sum((c * (P.pair_basis(f, j) or zero)
                   * (P.pair_basis(g, k) or zero)
                   for j, k, c in A.comult.get(x)), zero)
        return (None if P.pair(dict(D.mult.get(f, g)), A.basis(x)) == rhs
                else f"<f g, x> mismatch at f={D.space.label(f)}, "
                     f"g={D.space.label(g)}, x={A.space.label(x)}")

    def comult_case(x: int, f: int, y: int) -> Optional[str]:
        rhs = sum((c * (P.pair_basis(j, x) or zero)
                   * (P.pair_basis(k, y) or zero)
                   for j, k, c in D.comult.get(f)), zero)
        return (None if P.pair(D.basis(f), dict(A.mult.get(x, y))) == rhs
                else f"<comult* f, x(x)y> mismatch at f={D.space.label(f)}, "
                     f"x={A.space.label(x)}, y={A.space.label(y)}")

    def law(name: str, label: str, body) -> CheckResult:
        return run_check(name, label, obligation(name, P, body))

    yield law("pairing-nondegenerate", "exhaustive",
              partial(counted, n, partial(_pairing_rank_failure, P)))
    yield law("pairing-units-antipode", "exhaustive",
              partial(_pairing_unit_cases, P))
    gd, ga = gen_indices(D), gen_indices(A)
    for name, walk, gens, case in (
            ("pairing-mult-vs-comult", mult_vs_comult, (gd, gd, None),
             mult_case),
            ("pairing-comult-vs-mult", comult_vs_mult, (ga, None, ga),
             comult_case)):
        walk = walk.over((n, n, n), gens)
        yield law(name, walk.label, partial(walk.cases, name, case))


def _pairing_unit_cases(P: HopfPairing):
    D, A = P.dual, P.alg
    n = A.dim
    for x in range(n):
        yield (None if P.pair(D.unit, A.basis(x)) == A.counit.get(x, A.ctx.zero)
               else f"<1*, {A.space.label(x)}> != counit")
    yield from pairing_counit_cases(P)
    for f, x in itertools.product(range(n), repeat=2):
        lhs = P.pair(D.antipode_of(D.basis(f)), A.basis(x))
        rhs = P.pair(D.basis(f), A.antipode_of(A.basis(x)))
        yield (None if lhs == rhs else
               f"<S* f, x> != <f, S x> at f={D.space.label(f)}, "
               f"x={A.space.label(x)}")


def pairing_counit_cases(P: HopfPairing):
    """The unit law <f, 1> = counit*(f) of the pairing, one case for each
    basis vector f of the dual side."""
    D, A = P.dual, P.alg
    for f in range(D.dim):
        yield (None if P.pair(D.basis(f), A.unit) == D.counit.get(f, A.ctx.zero)
               else f"counit*({D.space.label(f)}) != <f, 1>")


def _pairing_rank_failure(P: HopfPairing) -> Optional[str]:
    n = P.alg.dim
    span = Subspace(n)
    for f in range(n):
        span.add({b: c for b, c in P.rows.get(f, ())})
    return None if span.rank == n else f"pairing matrix rank {span.rank} < {n}"
