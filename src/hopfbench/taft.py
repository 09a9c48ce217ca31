"""The bosonized-line algebra family at an even root of unity.

For half-period p the algebra B has basis E^m k^n (m < p, n < 4p),
dim 4p^2, with

    k E = q E k,   E^p = 0,   k^(4p) = 1,
    comult(E) = 1 (x) E + E (x) k^2,   comult(k) = k (x) k,
    S(E) = -E k^(-2),   S(k) = k^(-1),

where q is the primitive (2p)-th root of unity zeta^2 in the ambient
cyclotomic field of order 4p.  Only the generator data above is taken
as input: coproducts and antipodes of general basis monomials are
computed by powering inside the tensor square, never from a closed
formula, so they can serve as oracles for formula-based code paths.

The dual algebra lives on a monomial basis: two functionals

    <F, E^m k^n> = delta(m,1) q^(-n) / (q - q^(-1)),
    <kappa, E^m k^n> = delta(m,0) q^(-n/2),

generate the dual, and the products F^a kappa^b (a < p, b < 4p) form a
basis, which keeps every later quotient construction sparse.  The algebra
is self-dual: on that basis F and kappa obey the relations of E and k, so
one constructor builds the tables of both B and B*, and a certificate at
construction shows that the monomials carry the canonical dual's
structure (`taft_dual_monomial`).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple, Optional

from .cyclo import QContext
from .doubles import (
    DrinfeldDouble, HeisenbergDouble, drinfeld_double, heisenberg_double,
    yd_structure,
)
from .hopf import (
    FiniteAlgebra, FiniteHopf, HopfPairing, check_algebra_axioms,
    check_product_rows, dual_hopf, pair_product, product_row_case,
    render_element, render_tensor, twisted_product,
)
from .results import (CheckResult, certificate_check, chained, counted,
                      gen_indices, generation_failure,
                      invert_expected_failure, lemma_walk, run_check)
from .sparse import (
    BilinearMap, ColinearMap, LazyLinearMap, LinearMap,
    SingularMapError, Space, SpanSolver, Subspace, tensor_flat,
    vadd_into, vadd_outer, vadd_term, veq, vscale, vsub,
)
from .truncate import (
    HopfQuotient, SubHopf, TransportedStructure, central_hopf_ideal,
    change_basis_hopf, hopf_quotient, sub_hopf, transport_action,
)
from .ydcat import (
    BraidedProductAlgebra, YDModuleAlgebra, chain_product,
)

__all__ = [
    "taft_algebra", "taft_dual_monomial", "TaftPair", "taft_setup",
    "closed_form_smash_row",
    "TaftSystem", "taft_system", "double_elements", "heis_elements",
    "double_presentation_check", "taft_dual_check", "closed_form_check",
    "basis_change",
    "UqSl2", "uqsl2", "uq_presentation_check",
    "HqSl2", "hqsl2", "hq_transport", "uq_elements",
    "hq_action_table_check", "hq_coaction_table_check",
    "hq_factorization_check",
    "cqzd", "cqzd_center_check",
    "HeisenbergChain", "truly_heisenberg_chain", "zdel_factors",
    "chain_heisenberg_checks", "h2_matches_cqzd_check",
]

Vec = dict


def _monomial(names: tuple, sep: str = ""):
    """A label renderer: the exponents of a label on `names`, as name^e,
    ^1 dropped and e = 0 left out, joined by `sep`; "1" for the unit."""
    def render(label) -> str:
        return sep.join(n if e == 1 else f"{n}^{e}"
                        for n, e in zip(names, label) if e) or "1"
    return render


_render_primal = _monomial(("E", "k"))
_render_dual = _monomial(("F", "kap"))
_render_uq = _monomial(("F", "E", "k"))
_render_hq = _monomial(("lam", "z", "del"), " ")


def _taft_hopf(ctx: QContext, space: Space) -> FiniteHopf:
    """The structure of the module doc on `space`, whose label (m, n)
    stands for X^m g^n: E^m k^n for B, F^a kappa^b for B*.  Its tables are
    lazy and read only the generator data: kX = qXk, comult(X) and
    comult(g) powered in the tensor square, S(g)^n S(X)^m for S(X^m g^n).
    """
    p, order, dim = ctx.p, 4 * ctx.p, space.dim
    labels, idx = space.labels, space.index
    one = ctx.one

    def mult_fn(i: int, j: int):
        m1, n1 = labels[i]
        m2, n2 = labels[j]
        if m1 + m2 >= p:
            return ()
        return ((idx[(m1 + m2, (n1 + n2) % order)], ctx.q_pow(n1 * m2)),)

    d_x = {idx[(0, 0)] * dim + idx[(1, 0)]: one,
           idx[(1, 0)] * dim + idx[(0, 2)]: one}
    d_g = {idx[(0, 1)] * dim + idx[(0, 1)]: one}

    def comult_fn(i: int) -> tuple:
        m, n = labels[i]
        cur = {idx[(0, 0)] * dim + idx[(0, 0)]: one}
        for d in [d_x] * m + [d_g] * n:
            cur = pair_product(H, cur, d)
        return tuple((key // dim, key % dim, c) for key, c in sorted(cur.items()))

    def antipode_fn(i: int) -> tuple:
        m, n = labels[i]
        power = H.unit
        for _ in range(m):
            power = H.product(power, {idx[(1, order - 2)]: -one})
        return tuple(sorted(H.product({idx[(0, -n % order)]: one},
                                      power).items()))

    H = FiniteHopf(ctx, space, BilinearMap(dim, dim, fn=mult_fn),
                   {idx[(0, 0)]: one}, ColinearMap(dim, dim, dim, fn=comult_fn),
                   {idx[(0, n)]: one for n in range(order)},
                   LazyLinearMap(dim, dim, antipode_fn),
                   generators=[{idx[(1, 0)]: one}, {idx[(0, 1)]: one}])
    return H


def _taft_labels(p: int) -> tuple:
    return tuple((m, n) for m in range(p) for n in range(4 * p))


def taft_algebra(ctx: QContext) -> FiniteHopf:
    """The dim-4p^2 algebra on basis E^m k^n described in the module doc."""
    return _taft_hopf(ctx, Space(f"B(p={ctx.p})", _taft_labels(ctx.p),
                                 _render_primal))


class TaftPair:
    """The algebra, its monomial-basis dual, and the pairing between them;
    `to_canonical` maps monomial coordinates to canonical dual ones."""

    __slots__ = ("ctx", "primal", "dual", "pairing", "to_canonical")

    def __init__(self, ctx: QContext, primal: FiniteHopf, dual: FiniteHopf,
                 pairing: HopfPairing, to_canonical: LinearMap):
        self.ctx = ctx
        self.primal = primal
        self.dual = dual
        self.pairing = pairing
        self.to_canonical = to_canonical


def taft_dual_monomial(ctx: QContext, B: FiniteHopf) -> TaftPair:
    """The dual of B on the monomial basis F^a kappa^b.

    The algebra is self-dual (Radford, Hopf Algebras, 2012): on these
    monomials B* has B's structure constants, so `_taft_hopf` builds its
    lazy tables too.  A certificate shows that phi: e_i -> mono[i], the
    monomial computed in dual_hopf(B), is a Hopf-algebra isomorphism.  The
    monomials are a basis (else SingularMapError), phi(1) = 1, and on
    the generators g: phi(g y) = phi(g) phi(y) for y over the basis,
    (phi (x) phi) comult(g) = comult_can(phi(g)) (for g = 1 too), and the
    counit and the antipode agree.  The x with phi(xy) = phi(x) phi(y) for
    all y form a unital subalgebra when both products are associative
    (`taft-dual-mult-associativity`, `taft-comult-coassociativity`); the
    x where the coproducts agree form one when both are multiplicative
    (`taft-dual-comult-multiplicative`, `taft-comult-multiplicative`).
    Both hold the generators, so `generation_failure(B*)` makes them all
    of B*, and a bialgebra isomorphism carries the unique counit and
    antipode over.  The certificate reads a copy of the tables, so B*'s
    own start empty; a failure raises RuntimeError.

    The basis property is proved from the monomials' Vandermonde
    structure (`_vandermonde_failure`), which checks exactly, writing
    mono(a, b) for F^a kappa^b and (a, n) for the B index of E^a k^n:

    1. the blocks S_a = {(a, n) : n < 4p}, a < p, tile B's basis (B and
       B* are labelled by the same p x 4p grid), so each has 4p points;
    2. mono(a, 0) is nonzero at every point of S_a and nowhere else;
    3. mono(a, b)[j] = mono(a, b-1)[j] x_j on S_a and zero elsewhere, for
       b >= 1, with the node x_(a,n) = zeta^(-(n + 2a));
    4. the 4p nodes of each block are pairwise distinct.

    By 2 and 3, mono(a, b) = x^b mono(a, 0) on S_a and vanishes off it,
    so with the basis of B ordered by blocks the matrix of the monomials
    is block diagonal (1), and its block a is V_a D_a: V_a[b][n] =
    x_(a,n)^b is a square Vandermonde matrix, with det = prod over n < n'
    of (x_(a,n') - x_(a,n)), nonzero by 4, and D_a = diag(mono(a, 0)) is
    invertible by 2.  So the dim x dim matrix is invertible and the
    monomials are a basis.  On B, F^a kappa^b takes E^a k^n to
    <F^a, E^a k^n> <kappa^b, k^(n + 2a)>, which is why the nodes are
    characters of Z/4p.
    """
    p, order, dim = ctx.p, 4 * ctx.p, B.dim
    Bcan = dual_hopf(B)
    bidx = B.space.index
    fvec = {bidx[(1, n)]: ctx.q_pow(-n) * ctx.qdiff_inv for n in range(order)}
    kvec = {bidx[(0, n)]: ctx.q_half_pow(-n) for n in range(order)}

    mono = []
    cur_f = dict(Bcan.unit)
    for a in range(p):
        cur = dict(cur_f)
        for b in range(order):
            mono.append(dict(cur))
            cur = Bcan.product(cur, kvec)
        cur_f = Bcan.product(cur_f, fvec)
    space = Space(f"B*(p={p})", _taft_labels(p), _render_dual)
    wit = _vandermonde_failure(ctx, B.space, space, mono.__getitem__)
    if wit is not None:
        raise SingularMapError(f"dual monomials are not a basis: {wit}")

    to_can = LinearMap(dim, dim,
                       {i: tuple(sorted(v.items())) for i, v in enumerate(mono)})
    wit = _dual_iso_failure(_taft_hopf(ctx, space), Bcan, to_can)
    if wit is not None:
        raise RuntimeError(f"B* is not the dual of B: {wit}")
    star = _taft_hopf(ctx, space)
    return TaftPair(ctx, B, star, HopfPairing(star, B, to_can.rows), to_can)


def _vandermonde_failure(ctx: QContext, B: Space, star: Space,
                         mono) -> Optional[str]:
    """The basis certificate of `taft_dual_monomial`: None when its four
    hypotheses hold for the vectors mono(i), i over the basis of `star`,
    in the coordinates of `B`; else the first that fails."""
    order = 4 * ctx.p
    grid = _taft_labels(ctx.p)
    for sp in (B, star):
        if len(sp.labels) != len(grid) or set(sp.labels) != set(grid):
            return f"{sp.name} is not labelled by the {ctx.p} x {order} grid"
    bidx, sidx = B.index, star.index
    for a in range(ctx.p):
        block = [bidx[(a, n)] for n in range(order)]
        nodes = [ctx.zeta_pow(-(n + 2 * a)) for n in range(order)]
        if len(set(nodes)) != order:
            return f"the nodes of block {a} are not distinct"
        prev = mono(sidx[(a, 0)])
        if len(prev) != order or not all(prev.get(j) for j in block):
            return (f"{star.label(sidx[(a, 0)])} is not supported on "
                    f"exactly block {a}")
        for b in range(1, order):
            i = sidx[(a, b)]
            cur = mono(i)
            if not veq(cur, {j: prev[j] * x for j, x in zip(block, nodes)}):
                before = star.label(sidx[(a, b - 1)])
                return (f"{star.label(i)} is not {before} times the nodes of "
                        f"block {a}")
            prev = cur
    return None


def _dual_iso_failure(star: FiniteHopf, Bcan: FiniteHopf,
                      phi: LinearMap) -> Optional[str]:
    """The certificate of `taft_dual_monomial`: None when phi is a Hopf
    isomorphism from star onto Bcan, else the first mismatch."""
    n = star.dim

    def phi2(v: Vec) -> Vec:
        out: Vec = {}
        for key, c in v.items():
            a, b = divmod(key, n)
            vadd_outer(out, c, phi.get(a), phi.get(b), n)
        return out

    if not veq(phi.apply(star.unit), Bcan.unit):
        return "phi(1) != 1"
    for g in star.generators:
        name = render_element(star.space, g)
        for y in range(n):
            ey = star.basis(y)
            if not veq(phi.apply(star.product(g, ey)),
                       Bcan.product(phi.apply(g), phi.apply(ey))):
                return f"phi({name} {star.space.label(y)}) is not a product"
        if (star.counit_of(g) != Bcan.counit_of(phi.apply(g))
                or not veq(phi.apply(star.antipode_of(g)),
                           Bcan.antipode_of(phi.apply(g)))):
            return f"counit or antipode of {name}"
    for g in [star.unit] + star.generators:
        if not veq(phi2(star.coproduct(g)), Bcan.coproduct(phi.apply(g))):
            return f"coproduct of {render_element(star.space, g)}"
    return generation_failure(star)


_SETUP_CACHE: dict = {}


def taft_setup(p: int, cached: bool = True) -> TaftPair:
    """Build (or fetch) the algebra/dual/pairing bundle for half-period p.

    Cached bundles are shared; callers that mutate tables must pass
    cached=False.
    """
    if cached and p in _SETUP_CACHE:
        return _SETUP_CACHE[p]
    ctx = QContext(p)
    pair = taft_dual_monomial(ctx, taft_algebra(ctx))
    if cached:
        _SETUP_CACHE[p] = pair
    return pair


# -- closed-form smash product -------------------------------------------------

def closed_form_smash_row(ctx: QContext, lab1, lab2) -> list:
    """Structure constants of the smash product in closed form.

    ((r,s),(m,n)) * ((a,b),(c,d)) = sum over u >= 0 of

        q^(-u(u-1)/2) [m;u] [a;u] ([u]! / (q-q^(-1))^u)
        q^(-bn/2 + cn + a(s-n) + u(2c - a - b + m - s))
        ((a+r-u, b+s), (m+c-u, n+d+2u))

    with balanced q-binomials [;] and exponents taken mod the group
    order; terms with a+r-u >= p or m+c-u >= p drop out.  Returns a
    list of (label, Cyc).
    """
    p = ctx.p
    order = 4 * p
    (r, s), (m, n) = lab1
    (a, b), (c, d) = lab2
    out = []
    for u in range(0, min(m, a) + 1):
        fa = a + r - u
        em = m + c - u
        if fa >= p or em >= p:
            continue
        coeff = ctx.q_binomial(m, u) * ctx.q_binomial(a, u) * ctx.q_factorial(u)
        if not coeff:
            continue
        coeff = coeff * ctx.q_pow(-(u * (u - 1)) // 2)
        coeff = coeff * (ctx.qdiff_inv ** u)
        half_exp = -b * n          # exponent of q^(1/2) piece, times 2
        int_exp = c * n + a * (s - n) + u * (2 * c - a - b + m - s)
        coeff = coeff * ctx.zeta_pow(half_exp + 2 * int_exp)
        if coeff:
            out.append((((fa, (b + s) % order), (em, (n + d + 2 * u) % order)),
                        coeff))
    return out


# -- assembled double systems --------------------------------------------------

class TaftSystem(NamedTuple):
    """The pair together with both doubles and the canonical YD structure."""
    pair: TaftPair
    double: "DrinfeldDouble"
    heis: "HeisenbergDouble"
    yd: "YDModuleAlgebra"

    @property
    def ctx(self) -> QContext:
        return self.pair.ctx


_SYS_CACHE: dict = {}


def taft_system(p: int, cached: bool = True) -> TaftSystem:
    """Pair + D(B) + H(B*) + YD structure, shared across callers."""
    if cached and p in _SYS_CACHE:
        return _SYS_CACHE[p]
    pair = taft_setup(p, cached=cached)
    D = drinfeld_double(pair.primal, pair.dual, pair.pairing)
    Hd = heisenberg_double(pair.primal, pair.dual, pair.pairing)
    yd = yd_structure(Hd, D)
    sys = TaftSystem(pair, D, Hd, yd)
    if cached:
        _SYS_CACHE[p] = sys
    return sys


def double_elements(sys: TaftSystem) -> dict:
    """Named generators of D(B) as vectors: E, k (right leg), F, kap (left)."""
    pair = sys.pair
    nB = pair.primal.dim
    one = pair.ctx.one
    bl, dl = pair.primal.space.index, pair.dual.space.index
    du, bu = dict(pair.dual.unit), dict(pair.primal.unit)
    return {
        "E": tensor_flat(du, {bl[(1, 0)]: one}, nB),
        "k": tensor_flat(du, {bl[(0, 1)]: one}, nB),
        "F": tensor_flat({dl[(1, 0)]: one}, bu, nB),
        "kap": tensor_flat({dl[(0, 1)]: one}, bu, nB),
    }


def heis_elements(sys: TaftSystem) -> dict:
    """Named elements of H(B*): kap, z, lam, del (smash coordinates)."""
    pair = sys.pair
    ctx = pair.ctx
    nB = pair.primal.dim
    one = ctx.one
    order = 4 * ctx.p
    bl, dl = pair.primal.space.index, pair.dual.space.index
    du, bu = dict(pair.dual.unit), dict(pair.primal.unit)
    return {
        "kap": tensor_flat({dl[(0, 1)]: one}, bu, nB),
        "z": tensor_flat(du, {bl[(1, order - 2)]: -ctx.qdiff}, nB),
        "lam": tensor_flat({dl[(0, 1)]: one}, {bl[(0, 1)]: one}, nB),
        "del": tensor_flat({dl[(1, 0)]: ctx.qdiff}, bu, nB),
    }


# -- relation-list helpers -----------------------------------------------------

def _powers(mul, unit: Vec, v: Vec, n: int) -> list:
    """[v^0, v^1, ..., v^n] under `mul`, v^0 a copy of `unit` and each
    power the product of the one before it with v."""
    out = [dict(unit)]
    for _ in range(n):
        out.append(mul(out[-1], v))
    return out


def _vadd(a: Vec, b: Vec) -> Vec:
    out = dict(a)
    vadd_into(out, b)
    return out


def _relations(rels, renderer):
    """The body of a relation check: one case per (label, lhs, rhs) row of
    `rels`, lhs = rhs; renderer(v) -> str renders a witness's sides."""
    for label, lhs, rhs in rels:
        yield (None if veq(lhs, rhs) else
               f"{label}: lhs = {renderer(lhs)}, rhs = {renderer(rhs)}")


def _relation_result(name: str, rels, renderer) -> CheckResult:
    """The relation check `name` on the rows of `rels` (`_relations`)."""
    return run_check(name, "exhaustive", _relations(rels, renderer))


def _presentation_checks(prefix: str, H: FiniteHopf, rels: list,
                         coalgebra: list, counits: list,
                         gens: list) -> list:
    """The lines of a presentation of H on named elements: the (label,
    lhs, rhs) rows `rels` in H; the rows `coalgebra` in H or H (x) H, then
    the (label, holds) counit values `counits` at once; and that `gens`
    generate H (`_generation_failure`)."""
    n = H.dim

    def render(v: Vec) -> str:
        return (render_tensor(H.space, H.space, v) if not v or max(v) >= n
                else render_element(H.space, v))

    def coalgebra_cases():
        yield from _relations(coalgebra, render)
        yield from counted(len(counits), lambda: next(
            (lab for lab, holds in counits if not holds), None))

    return [_relation_result(f"{prefix}-relations", rels,
                             lambda v: render_element(H.space, v)),
            run_check(f"{prefix}-coalgebra", "exhaustive",
                      coalgebra_cases()),
            certificate_check(f"{prefix}-generation", H.dim,
                              partial(_generation_failure, H, gens))]


def double_presentation_check(sys: TaftSystem) -> list:
    """Defining relations and coalgebra values of D(B) on named generators."""
    ctx = sys.ctx
    H = sys.double.hopf
    p = ctx.p
    g = double_elements(sys)
    E, k, F, kap = g["E"], g["k"], g["F"], g["kap"]
    mul = H.product
    unit = dict(H.unit)
    rels = [
        ("kE = qEk", mul(k, E), vscale(mul(E, k), ctx.q)),
        ("E^p = 0", _powers(mul, unit, E, p)[-1], {}),
        ("k^(4p) = 1", _powers(mul, unit, k, 4 * p)[-1], unit),
        ("kap F = q F kap", mul(kap, F), vscale(mul(F, kap), ctx.q)),
        ("F^p = 0", _powers(mul, unit, F, p)[-1], {}),
        ("kap^(4p) = 1", _powers(mul, unit, kap, 4 * p)[-1], unit),
        ("k kap = kap k", mul(k, kap), mul(kap, k)),
        ("kF = q^(-1) Fk", mul(k, F), vscale(mul(F, k), ctx.q_inv)),
        ("kap E = q^(-1) E kap", mul(kap, E), vscale(mul(E, kap), ctx.q_inv)),
        ("[E,F] = (k^2 - kap^2)/(q - q^(-1))",
         vsub(mul(E, F), mul(F, E)),
         vscale(vsub(mul(k, k), mul(kap, kap)), ctx.qdiff_inv)),
    ]
    n = H.dim
    k2 = mul(k, k)
    kinv2 = _powers(mul, unit, k, 4 * p - 2)[-1]
    kapinv = _powers(mul, unit, kap, 4 * p - 1)[-1]
    kapinv2 = _powers(mul, unit, kap, 4 * p - 2)[-1]
    crels = [
        ("Delta(F) = kap^2 (x) F + F (x) 1", H.coproduct(F),
         _vadd(tensor_flat(mul(kap, kap), F, n), tensor_flat(F, unit, n))),
        ("Delta(kap) = kap (x) kap", H.coproduct(kap),
         tensor_flat(kap, kap, n)),
        ("Delta(E) = 1 (x) E + E (x) k^2", H.coproduct(E),
         _vadd(tensor_flat(unit, E, n), tensor_flat(E, k2, n))),
        ("Delta(k) = k (x) k", H.coproduct(k), tensor_flat(k, k, n)),
        ("S(F) = -kap^(-2) F", H.antipode_of(F), vscale(mul(kapinv2, F), -ctx.one)),
        ("S(kap) = kap^(-1)", H.antipode_of(kap), kapinv),
        ("S(E) = -E k^(-2)", H.antipode_of(E), vscale(mul(E, kinv2), -ctx.one)),
        ("S(k) = k^(-1)", H.antipode_of(k),
         _powers(mul, unit, k, 4 * p - 1)[-1]),
    ]
    counits = [("eps(F) = 0", not H.counit_of(F)),
               ("eps(kap) = 1", H.counit_of(kap) == ctx.one),
               ("eps(E) = 0", not H.counit_of(E)),
               ("eps(k) = 1", H.counit_of(k) == ctx.one)]
    return _presentation_checks("double-presentation", H, rels, crels,
                                counits, [unit, E, k, F, kap])


def _generation_failure(H: FiniteHopf, gens: list) -> Optional[str]:
    """None when the given elements generate H as an algebra: they are the
    unit and the declared generators of H, which
    `results.generation_failure(H)` certifies."""
    declared = [dict(H.unit)] + [dict(g) for g in H.generators or ()]
    for some, others, what in (
            (gens, declared, "is not the unit or a declared generator"),
            (declared, gens, "is not listed")):
        miss = next((v for v in some if not any(veq(v, w) for w in others)),
                    None)
        if miss is not None:
            return f"{render_element(H.space, miss)} {what}"
    return generation_failure(H)


def taft_dual_check(pair: TaftPair) -> "CheckResult":
    """Monomial basis of B*: the basis certificate of `taft_dual_monomial`
    on `pair.to_canonical`, then relations and pairing values."""
    ctx = pair.ctx
    B, Bd = pair.primal, pair.dual
    p = ctx.p
    order = 4 * p
    dl = Bd.space.index
    one = ctx.one

    def values(b: int, m: int, nn: int) -> Optional[str]:
        """The pairing values of F, kap and 1 against the monomial b."""
        got = pair.pairing.pair_basis(dl[(1, 0)], b)
        want = ctx.q_pow(-nn) * ctx.qdiff_inv if m == 1 else None
        if got != want:
            return f"<F, {B.space.label(b)}> = {got}, expected {want}"
        got = pair.pairing.pair_basis(dl[(0, 1)], b)
        want = ctx.zeta_pow(-nn) if m == 0 else None
        if got != want:
            return f"<kap, {B.space.label(b)}> = {got}, expected {want}"
        got = pair.pairing.pair_basis(dl[(0, 0)], b)
        if got != B.counit.get(b):
            return f"<1, {B.space.label(b)}> != eps({B.space.label(b)})"
        return None

    def body():
        yield from counted(Bd.dim, lambda: _vandermonde_failure(
            ctx, B.space, Bd.space, lambda i: dict(pair.to_canonical.get(i))))
        Fv: Vec = {dl[(1, 0)]: one}
        kapv: Vec = {dl[(0, 1)]: one}
        mul = Bd.product
        unit = dict(Bd.unit)
        yield from _relations([
            ("kap F = q F kap", mul(kapv, Fv), vscale(mul(Fv, kapv), ctx.q)),
            ("F^p = 0", _powers(mul, unit, Fv, p)[-1], {}),
            ("kap^(4p) = 1", _powers(mul, unit, kapv, order)[-1], unit),
        ], lambda v: render_element(Bd.space, v))

        # F^p as a functional kills every basis monomial of B
        Fp = _powers(mul, unit, Fv, p)[-1]
        for b in range(B.dim):
            val = pair.pairing.pair(Fp, {b: one})
            yield f"<F^p, {B.space.label(b)}> = {val} != 0" if val else None

        # pairing values on the generators, against every monomial of B
        for b, (m, nn) in enumerate(B.space.labels):
            yield from counted(3, lambda: values(b, m, nn))

    return run_check("taft-dual", "exhaustive", body())


def closed_form_check(sys: TaftSystem, walk) -> "CheckResult":
    """The u-sum product formula equals the generic smash product on the
    basis pairs of H(B*) that `walk` gives, with the generator indices of
    H(B*) in the left slot.  This equality also pins the q-binomial
    convention used by the scalar layer.
    """
    ctx = sys.ctx
    A = sys.heis.algebra
    labels, index = A.space.labels, A.space.index

    def row(i: int, j: int) -> Vec:
        want: Vec = {}
        for lab, c in closed_form_smash_row(ctx, labels[i], labels[j]):
            vadd_term(want, index[lab], c)
        return want

    return check_product_rows("smash-closed-form", A, row, walk,
                              (gen_indices(A), None))


# -- the (kap, z, lam, del) presentation of H(B*) -------------------------------

def basis_change(sys: TaftSystem) -> list:
    """The checks that the del^b z^a lam^c kap^d monomials satisfy the
    kap/z/lam/del relations and each land on a single smash basis vector,
    one vector per monomial (which makes the correspondence invertible)."""
    ctx = sys.ctx
    A = sys.heis.algebra
    p = ctx.p
    order = 4 * p
    els = heis_elements(sys)
    kapv, zv, lamv, delv = els["kap"], els["z"], els["lam"], els["del"]
    mul = A.product
    unit = dict(A.unit)
    rels = [
        ("kap z = q^(-1) z kap", mul(kapv, zv), vscale(mul(zv, kapv), ctx.q_inv)),
        ("kap lam = q^(1/2) lam kap", mul(kapv, lamv),
         vscale(mul(lamv, kapv), ctx.zeta)),
        ("kap del = q del kap", mul(kapv, delv), vscale(mul(delv, kapv), ctx.q)),
        ("kap^(4p) = 1", _powers(mul, unit, kapv, order)[-1], unit),
        ("lam^(4p) = -1", _powers(mul, unit, lamv, order)[-1],
         vscale(unit, -ctx.one)),
        ("lam^(2p) = (-1)^p i kap^(2p)#k^(2p)",
         _powers(mul, unit, lamv, 2 * p)[-1],
         {A.space.index[((0, 2 * p), (0, 2 * p))]:
          ctx.zeta_pow(p) if p % 2 == 0 else -ctx.zeta_pow(p)}),
        ("z^p = 0", _powers(mul, unit, zv, p)[-1], {}),
        ("del^p = 0", _powers(mul, unit, delv, p)[-1], {}),
        ("lam z = z lam", mul(lamv, zv), mul(zv, lamv)),
        ("lam del = del lam", mul(lamv, delv), mul(delv, lamv)),
        ("del z = (q - q^(-1)) 1 + q^(-2) z del", mul(delv, zv),
         _vadd(vscale(unit, ctx.qdiff), vscale(mul(zv, delv), ctx.q_pow(-2)))),
    ]
    checks = [_relation_result("heis-basis-relations", rels,
                               lambda v: render_element(A.space, v))]

    # The 4p-th power of lam is -1, not +1: lam^2 picks up <kap, k> =
    # q^(-1/2) per step, and the accumulated half-power lands on the
    # -1 branch.  The +1 normalization would need an 8p-th root of
    # unity, which the coefficient field does not contain, so the
    # naive relation is kept as an expected counterexample.
    naive = _relation_result(
        "heis-basis-lambda-naive",
        [("lam^(4p) = 1", _powers(mul, unit, lamv, order)[-1], unit)],
        lambda v: render_element(A.space, v))
    checks.append(invert_expected_failure(naive, "heis-basis-lambda-order"))

    # each monomial del^b z^a lam^c kap^d is a nonzero multiple of exactly
    # one smash basis vector, and the assignment is a bijection
    backward: dict = {}                  # smash index -> (b, a, c, d)
    z_pows = _powers(mul, unit, zv, p - 1)
    del_pows = _powers(mul, unit, delv, p - 1)
    lam_pows = _powers(mul, unit, lamv, order - 1)
    kap_pows = _powers(mul, unit, kapv, order - 1)

    def place(mono: tuple, v: Vec) -> Optional[str]:
        """Record v, the monomial del^b z^a lam^c kap^d of `mono`."""
        named = "del^{} z^{} lam^{} kap^{}".format(*mono)
        if len(v) != 1:
            return f"{named} has {len(v)} smash terms"
        idx, = v
        if idx in backward:
            return (f"{named} collides with {backward[idx]} on "
                    f"{A.space.label(idx)}")
        backward[idx] = mono
        return None

    def body():
        for b in range(p):
            for a in range(p):
                dz = mul(del_pows[b], z_pows[a])
                for c in range(order):
                    dzl = mul(dz, lam_pows[c])
                    for d in range(order):
                        yield place((b, a, c, d), mul(dzl, kap_pows[d]))
        if len(backward) != A.dim:
            return f"monomials reach {len(backward)} of {A.dim} basis vectors"

    checks.append(run_check("heis-basis-bijective", "exhaustive", body()))
    return checks


# -- the 2p^3-dimensional quantum group ------------------------------------------

class UqSl2(NamedTuple):
    """The even-k-power sub-Hopf-algebra of the quotient of D(B) by the
    central group-like kap k = 1, relabeled on monomials F^l E^m k^d;
    `dbar_coords` maps quotient coordinates to dbar ones."""

    p: int
    system: TaftSystem
    ideal: Subspace
    hq: HopfQuotient
    dbar: FiniteHopf              # labels (l, m, d), d < 4p
    sub: SubHopf                  # even d rows of dbar
    hopf: Optional[FiniteHopf]    # labels (l, m, 2n); None: not closed
    checks: list
    dbar_coords: Callable[[Vec], Vec]

    @property
    def ctx(self) -> QContext:
        return self.system.ctx

    def lift(self, i: int) -> Vec:
        """Monomial lift of a basis vector into D(B) coordinates."""
        pair = self.system.pair
        l, m, d = self.hopf.space.labels[i]
        nB = pair.primal.dim
        fi = pair.dual.space.index[(l, 0)]
        bi = pair.primal.space.index[(m, d)]
        return {fi * nB + bi: self.ctx.one}

    def to_dbar(self, v: Vec) -> Vec:
        """D(B) coordinates -> dbar coordinates through the quotient."""
        return self.dbar_coords(self.hq.project(v))

    def corestrict(self, v: Vec) -> Optional[Vec]:
        """D(B) coordinates -> hopf coordinates; None if the image has
        support on odd k-powers."""
        return self.sub.restrict(self.to_dbar(v))


_UQ_CACHE: dict = {}


def uqsl2(p: int, cached: bool = True) -> UqSl2:
    """Quotient D(B) by (kap k - 1), then cut the even-k-power sub.  Its
    checks are the certificates of the ideal and of the sub; when the sub's
    fails, its `hopf` is None."""
    if cached and p in _UQ_CACHE:
        return _UQ_CACHE[p]
    sys = taft_system(p, cached=cached)
    ctx = sys.ctx
    D = sys.double.hopf
    g = double_elements(sys)
    checks = []

    kk = D.product(g["kap"], g["k"])
    ideal, certified = central_hopf_ideal(D, vsub(kk, dict(D.unit)),
                                          name="uq-ideal-hopf")
    checks.append(certified)
    hq = hopf_quotient(D, ideal, name=f"Dbar(p={p})")

    pair = sys.pair
    nB = pair.primal.dim
    one = ctx.one
    fi, bi = pair.dual.space.index, pair.primal.space.index
    labels, vecs = [], []
    for l in range(p):
        for m in range(p):
            for d in range(4 * p):
                labels.append((l, m, d))
                vecs.append(hq.project({fi[(l, 0)] * nB + bi[(m, d)]: one}))
    dbar, dbar_coords = change_basis_hopf(hq.quotient, vecs, labels,
                                          render=_render_uq,
                                          name=f"Dbar(p={p})")

    lab_idx = dbar.space.index
    even = [i for i, (l, m, d) in enumerate(labels) if d % 2 == 0]
    gen_idx = [lab_idx[(0, 1, 0)], lab_idx[(1, 0, 0)], lab_idx[(0, 0, 2)]]
    sub = sub_hopf(dbar, even, generators=gen_idx, name=f"Uq(p={p})")
    checks.append(sub.check)

    uq = UqSl2(p, sys, ideal, hq, dbar, sub, sub.hopf, checks, dbar_coords)
    if cached:
        _UQ_CACHE[p] = uq
    return uq


def uq_elements(uq: UqSl2) -> dict:
    """Named basis vectors E, F, K, K^(-1) of the truncated quantum group."""
    idx = uq.hopf.space.index
    one = uq.ctx.one
    p = uq.p
    return {
        "E": {idx[(0, 1, 0)]: one},
        "F": {idx[(1, 0, 0)]: one},
        "K": {idx[(0, 0, 2)]: one},
        "Kinv": {idx[(0, 0, 4 * p - 2)]: one},
    }


def uq_presentation_check(uq: UqSl2) -> list:
    """Defining relations and Hopf structure of the truncated quantum group."""
    ctx = uq.ctx
    U = uq.hopf
    p = ctx.p
    els = uq_elements(uq)
    E, F, K, Kinv = els["E"], els["F"], els["K"], els["Kinv"]
    mul = U.product
    unit = dict(U.unit)
    n = U.dim
    rels = [
        ("K E K^(-1) = q^2 E", mul(mul(K, E), Kinv), vscale(E, ctx.q_pow(2))),
        ("K F K^(-1) = q^(-2) F", mul(mul(K, F), Kinv),
         vscale(F, ctx.q_pow(-2))),
        ("[E,F] = (K - K^(-1))/(q - q^(-1))", vsub(mul(E, F), mul(F, E)),
         vscale(vsub(K, Kinv), ctx.qdiff_inv)),
        ("E^p = 0", _powers(mul, unit, E, p)[-1], {}),
        ("F^p = 0", _powers(mul, unit, F, p)[-1], {}),
        ("K^(2p) = 1", _powers(mul, unit, K, 2 * p)[-1], unit),
        ("K K^(-1) = 1", mul(K, Kinv), unit),
    ]
    crels = [
        ("Delta(E) = E (x) K + 1 (x) E", U.coproduct(E),
         _vadd(tensor_flat(E, K, n), tensor_flat(unit, E, n))),
        ("Delta(K) = K (x) K", U.coproduct(K), tensor_flat(K, K, n)),
        ("Delta(F) = F (x) 1 + K^(-1) (x) F", U.coproduct(F),
         _vadd(tensor_flat(F, unit, n), tensor_flat(Kinv, F, n))),
        ("S(E) = -E K^(-1)", U.antipode_of(E), vscale(mul(E, Kinv), -ctx.one)),
        ("S(K) = K^(-1)", U.antipode_of(K), Kinv),
        ("S(F) = -K F", U.antipode_of(F), vscale(mul(K, F), -ctx.one)),
    ]
    counits = [("eps(E) = 0", not U.counit_of(E)),
               ("eps(F) = 0", not U.counit_of(F)),
               ("eps(K) = 1", U.counit_of(K) == ctx.one)]
    return _presentation_checks("uq-presentation", U, rels, crels,
                                counits, [unit, E, F, K])


# -- the 2p^3-dimensional module algebra over it ---------------------------------

class HqSl2(NamedTuple):
    """Truncation of the Heisenberg double to a 2p^3-dimensional
    Yetter-Drinfeld module algebra over the truncated quantum group:
    restrict to the span of lam^a z^b del^c, then identify the central
    involution kap^(2p) # k^(2p) with 1."""

    p: int
    system: TaftSystem
    uq: UqSl2
    transport: TransportedStructure
    checks: list

    @property
    def ctx(self) -> QContext:
        return self.system.ctx

    @property
    def yd(self) -> YDModuleAlgebra:
        """The transported structure; a RuntimeError naming the first
        failed certificate when the transport failed."""
        if self.transport.yd is None:
            bad = next(c for c in self.checks if not c.ok)
            raise RuntimeError(f"transport failed: {bad.line()}")
        return self.transport.yd

    @property
    def algebra(self) -> FiniteAlgebra:
        return self.yd.algebra


_HQ_CACHE: dict = {}


def hqsl2(p: int) -> HqSl2:
    """Transport the YD structure of H(B*) onto the lam-z-del truncation
    (`hq_transport`).  Its checks are the transport's certificates, then
    `hq-lambda-power`; when a certificate fails, the certificates alone,
    and its `yd` raises RuntimeError."""
    if p in _HQ_CACHE:
        return _HQ_CACHE[p]
    uq = uqsl2(p)
    sys = uq.system
    ctx = sys.ctx
    ts = hq_transport(uq, sys.yd)
    checks = list(ts.certificates)
    if ts.ok:
        # after the identification, lam^(2p) must equal the scalar (-1)^p i
        half = ctx.zeta_pow(p)                       # i
        T = ts.yd.algebra
        lam_t = {T.space.index[(1, 0, 0)]: ctx.one}
        lhs = _powers(T.product, T.unit, lam_t, 2 * p)[-1]
        rhs = vscale(dict(T.unit), half if p % 2 == 0 else -half)
        checks.append(certificate_check(
            "hq-lambda-power", 1, lambda: None if veq(lhs, rhs)
            else f"lam^(2p) = {render_element(T.space, lhs)}"))

    hq = HqSl2(p, sys, uq, ts, checks)
    _HQ_CACHE[p] = hq
    return hq


def hq_transport(uq: UqSl2, source: YDModuleAlgebra) -> TransportedStructure:
    """`truncate.transport_action` of `source`, the YD structure of H(B*)
    over D(B), onto the lam-z-del truncation over u_q(sl_2).

    The subalgebra span{lam^a z^b del^c} is enumerated with the high lam
    powers (a >= 2p) first, so the quotient by the ideal generated by
    kap^(2p) # k^(2p) - 1 keeps the monomials with a < 2p as its basis.
    Inside the span, kap^(2p) # k^(2p) equals (-1)^(p+1) i lam^(2p), a
    central involution; the quotient therefore identifies lam^(2p) with
    the scalar (-1)^p i.
    """
    sys = uq.system
    p = uq.p
    ctx = sys.ctx
    A = sys.heis.algebra
    mul = A.product
    one = ctx.one
    els = heis_elements(sys)

    lam_pows = _powers(mul, A.unit, els["lam"], 4 * p - 1)
    z_pows = _powers(mul, A.unit, els["z"], p - 1)
    del_pows = _powers(mul, A.unit, els["del"], p - 1)

    sub_basis, sub_labels = [], []
    for a_rot in range(4 * p):
        a = (a_rot + 2 * p) % (4 * p)
        for b in range(p):
            for c in range(p):
                sub_basis.append(mul(mul(lam_pows[a], z_pows[b]),
                                     del_pows[c]))
                sub_labels.append((a, b, c))
    pos = {lab: i for i, lab in enumerate(sub_labels)}

    half = ctx.zeta_pow(p)                       # i
    seed = {pos[(2 * p, 0, 0)]: half if p % 2 else -half,
            pos[(0, 0, 0)]: -one}
    ideal_gens = [{pos[(1, 0, 0)]: one}, {pos[(0, 1, 0)]: one},
                  {pos[(0, 0, 1)]: one}]
    g = double_elements(sys)
    D = sys.double.hopf
    kk = D.product(g["kap"], g["k"])
    lifted_gens = [g["E"], g["F"], D.product(g["k"], g["k"])]

    return transport_action(
        source, sub_basis, sub_labels,
        ideal_seed=[seed], ideal_gens=ideal_gens,
        action_lifts=lifted_gens,
        target_hopf=uq.hopf, hopf_lift=uq.lift,
        hopf_corestrict=uq.corestrict,
        descent_central=[kk],
        target_generators=(pos[(1, 0, 0)], pos[(0, 1, 0)], pos[(0, 0, 1)]),
        render=_render_hq, name=f"Hq(p={p})", prefix="hq-transport")


def hq_action_table_check(hq: HqSl2) -> CheckResult:
    """Regenerated action of E, K, F on lam/z/del powers against the
    closed-form scalar tables."""
    ctx = hq.ctx
    p = ctx.p
    T = hq.algebra
    act = hq.yd.action
    uel = uq_elements(hq.uq)
    idx = T.space.index
    one = ctx.one

    def mono(a, b, c) -> Vec:
        return {idx[(a, b, c)]: one}

    def expect(a, b, c, coeff) -> Vec:
        if b >= p or c >= p or not coeff:
            return {}
        return {idx[(a, b, c)]: coeff}

    rows = []
    for n in range(2 * p):        # lam-power rows
        half_int = ctx.q_int(Fraction(n, 2))
        rows += [
            (f"E |> lam^{n}", act.apply(uel["E"], mono(n, 0, 0)),
             expect(n, 1, 0, ctx.zeta_pow(-n) * half_int)),
            (f"K |> lam^{n}", act.apply(uel["K"], mono(n, 0, 0)),
             expect(n, 0, 0, ctx.q_pow(-n))),
            (f"F |> lam^{n}", act.apply(uel["F"], mono(n, 0, 0)),
             expect(n, 0, 1, -ctx.zeta_pow(n) * half_int)),
        ]
    for n in range(p):            # z-power rows
        qn = ctx.q_int(n)
        rows += [
            (f"E |> z^{n}", act.apply(uel["E"], mono(0, n, 0)),
             expect(0, n + 1, 0, -ctx.q_pow(n) * qn)),
            (f"K |> z^{n}", act.apply(uel["K"], mono(0, n, 0)),
             expect(0, n, 0, ctx.q_pow(2 * n))),
            (f"F |> z^{n}", act.apply(uel["F"], mono(0, n, 0)),
             expect(0, n - 1, 0, qn * ctx.q_pow(1 - n))),
        ]
    for n in range(p):            # del-power rows
        qn = ctx.q_int(n)
        rows += [
            (f"E |> del^{n}", act.apply(uel["E"], mono(0, 0, n)),
             expect(0, 0, n - 1, ctx.q_pow(1 - n) * qn)),
            (f"K |> del^{n}", act.apply(uel["K"], mono(0, 0, n)),
             expect(0, 0, n, ctx.q_pow(-2 * n))),
            (f"F |> del^{n}", act.apply(uel["F"], mono(0, 0, n)),
             expect(0, 0, n + 1, -ctx.q_pow(n) * qn)),
        ]
    return _relation_result("hq-action-table", rows,
                            lambda v: render_element(T.space, v))


def hq_coaction_table_check(hq: HqSl2) -> CheckResult:
    """Regenerated coaction on lam/z/del powers against the closed forms.

    The binomial coefficients in the closed forms follow the balanced
    convention, matching the regenerated side exactly.
    """
    ctx = hq.ctx
    p = ctx.p
    T = hq.algebra
    U = hq.uq.hopf
    coact = hq.yd.coaction
    nT = T.dim
    idx, uidx = T.space.index, U.space.index
    one = ctx.one
    qd = ctx.qdiff

    def flat(pairs) -> Vec:
        out: Vec = {}
        for ulab, tlab, c in pairs:
            if not c:
                continue
            out[uidx[ulab] * nT + idx[tlab]] = c
        return out

    rows = []
    for n in range(2 * p):
        rows.append((f"coaction of lam^{n}",
                     coact.apply({idx[(n, 0, 0)]: one}),
                     flat([((0, 0, 0), (n, 0, 0), one)])))
    for m in range(p):
        terms = []
        for s in range(m + 1):
            coeff = (ctx.q_pow(s * (1 - m)) * qd ** s
                     * ctx.q_binomial(m, s))
            if s % 2:
                coeff = -coeff
            terms.append(((0, s, (-2 * m) % (4 * p)), (0, m - s, 0), coeff))
        rows.append((f"coaction of z^{m}",
                     coact.apply({idx[(0, m, 0)]: one}), flat(terms)))
    for m in range(p):
        terms = []
        for s in range(m + 1):
            coeff = (ctx.q_pow(s * (m - s)) * qd ** s
                     * ctx.q_binomial(m, s))
            terms.append(((s, 0, (-2 * (m - s)) % (4 * p)),
                          (0, 0, m - s), coeff))
        rows.append((f"coaction of del^{m}",
                     coact.apply({idx[(0, 0, m)]: one}), flat(terms)))
    return _relation_result("hq-coaction-table", rows,
                            lambda v: render_tensor(U.space, T.space, v))


# -- the q-deformed Weyl algebra on one pair -------------------------------------

def cqzd(p: int) -> FiniteAlgebra:
    """The q-deformed Weyl algebra over the shared field of taft_setup(p):
    p^2-dimensional on z, del with del z = (q - q^(-1)) + q^(-2) z del and
    z^p = del^p = 0, in the normally ordered basis z^a del^b."""
    ctx = taft_setup(p).ctx
    t = ctx.qdiff
    u = ctx.q_pow(-2)
    space = Space(f"CqZd(p={p})", [(a, b) for a in range(p) for b in range(p)],
                  _monomial(("z", "del"), " "))
    labels, idx = space.labels, space.index
    one = ctx.one

    # one del moved past z^i:  del z^i = t [i]_u z^(i-1) + u^i z^i del,
    # with [i]_u the one-sided u-integer
    def del_past(i: int) -> dict:
        geo = ctx.zero
        upow = one
        for _ in range(i):
            geo = geo + upow
            upow = upow * u
        out = {}
        if i and geo:
            out[(i - 1, 0)] = t * geo
        out[(i, 1)] = upow
        return out

    def straighten(b: int, a: int) -> dict:
        """del^b z^a as a combination of normally ordered monomials."""
        if b == 0 or a == 0:
            return {(a, b): one}
        acc = {(a, 0): one}     # will carry del^(b) applied one at a time
        for _ in range(b):
            nxt: dict = {}
            for (i, j), c in acc.items():
                for (i2, j2), c2 in del_past(i).items():
                    vadd_term(nxt, (i2, j + j2), c * c2)
            acc = nxt
        return acc

    mult = BilinearMap(p * p, p * p)
    for (a, b) in labels:
        for (a2, b2) in labels:
            row: Vec = {}
            for (i, j), c in straighten(b, a2).items():
                if a + i < p and j + b2 < p:
                    vadd_term(row, idx[(a + i, j + b2)], c)
            mult.set(idx[(a, b)], idx[(a2, b2)], tuple(sorted(row.items())))

    return FiniteAlgebra(ctx, space, mult, {idx[(0, 0)]: one},
                         generators=[{idx[(1, 0)]: one}, {idx[(0, 1)]: one}],
                         name=space.name)


def cqzd_center_check(A: FiniteAlgebra) -> CheckResult:
    """The center is exactly the scalars: kernel of v -> ([v,z], [v,del])."""
    ctx = A.ctx
    n = A.dim
    one = ctx.one
    zv = {A.space.index[(1, 0)]: one}
    dv = {A.space.index[(0, 1)]: one}

    def failure() -> Optional[str]:
        solver = SpanSolver(2 * n)
        kernel: list[Vec] = []
        for i in range(n):
            e = {i: one}
            w = {}
            for k, c in vsub(A.product(e, zv), A.product(zv, e)).items():
                w[k] = c
            for k, c in vsub(A.product(e, dv), A.product(dv, e)).items():
                w[n + k] = c
            if not solver.add(w):
                combo = solver.solve(w) or {}
                vec = {i: one}
                for j, c in combo.items():
                    vadd_term(vec, j, -c)
                kernel.append(vec)
        if len(kernel) == 1 and veq(
                vscale(kernel[0], next(iter(kernel[0].values())).inv()),
                dict(A.unit)):
            return None
        return "center basis: " + "; ".join(render_element(A.space, v)
                                            for v in kernel)

    return certificate_check("cqzd-center", n, failure)


def _hq_closed_form(p: int) -> FiniteAlgebra:
    """(k[lam]/(lam^(2p) - (-1)^p i)) (x) CqZd(p), the tensor product of
    algebras that `hopf.twisted_product` builds with the flip as R, on
    the labels (a, b, c) of lam^a z^b del^c."""
    ctx = taft_setup(p).ctx
    one, n = ctx.one, 2 * p
    wrap = ctx.zeta_pow(p) if p % 2 == 0 else -ctx.zeta_pow(p)   # (-1)^p i
    lam_mult = BilinearMap(n, n)
    for a, b in itertools.product(range(n), repeat=2):
        lam_mult.set(a, b, (((a + b) % n, one if a + b < n else wrap),))
    lam = FiniteAlgebra(ctx, Space(f"lam(p={p})", list(range(n)),
                                   lambda a: f"lam^{a}"),
                        lam_mult, {0: one}, generators=[{1: one}],
                        name=f"lam(p={p})")
    weyl = cqzd(p)
    tw = twisted_product(lam, weyl, lambda b, a: ((a, b, one),))
    labels = [(a, *lab) for a in range(n) for lab in weyl.space.labels]
    return FiniteAlgebra(ctx, Space(f"closed-form(p={p})", labels,
                                    _render_hq),
                         tw.mult, tw.unit, generators=tw.gens,
                         name=f"closed-form(p={p})", twist=tw)


def hq_factorization_check(hq: HqSl2, walk) -> CheckResult:
    """The product of the truncation T is that of the closed form C =
    (k[lam]/(lam^(2p) - (-1)^p i)) (x) CqZd(p) (`_hq_closed_form`),
    through the map phi that sends each basis label lam^a z^b del^c of T
    to the same label of C: phi(x y) = phi(x) phi(y) on the pairs (1, y)
    for every basis y, and then on the pairs of `walk`.

    First, counting their cases, `hopf.check_algebra_axioms` of the two
    factors of C on their `results.lemma_walk(F, 3)`: C is associative
    and unital because they are, the flip being a normal twisting map
    for which both identities of Cap, Schichl and Vanzura (Comm.
    Algebra 23, 1995) hold by the factors' unit laws.

    `results.lemma_walk(T)` proves the identity for every pair, labelled
    "generators": S = {x : phi(xy) = phi(x) phi(y) for all y} holds 1
    and the walked generators, and it is closed under products when T
    and C are associative (see `results`); the walk's certificate makes
    S all of T.  The hypothesis is `hdouble-mult-associativity`, for T,
    a subquotient of H(B*) (the `hq-transport-*` certificates).
    """
    p = hq.p
    T = hq.algebra
    C = _hq_closed_form(p)
    to_c = [C.space.index[lab] for lab in T.space.labels]
    to_t = {k: i for i, k in enumerate(to_c)}

    def row(i: int, j: int) -> Vec:
        return {to_t[k]: c for k, c in C.mult.get(to_c[i], to_c[j])}

    def factor_axioms():
        for F in (C.twist.A, C.twist.B):
            for res in check_algebra_axioms(F, lemma_walk(F, 3)):
                yield from counted(res.cases_checked, lambda: (
                    None if res.ok
                    else f"factor {F.name}: {res.name}: {res.witness}"))

    case = product_row_case(T, row)

    head = chained(factor_axioms(), (case(u, y) for u, y in itertools.product(
        sorted(T.unit), range(T.dim))))
    return walk.over((T.dim, T.dim), (gen_indices(T), None)).check(
        "hq-factorization", case, head=head)


# -- alternating chains of z- and del-factors ------------------------------------

_FACTOR_CACHE: dict = {}


def _heis_factor(uq: UqSl2, kind: str) -> TransportedStructure:
    """One battery of the chain: the span of z^i (or del^i), i < p, as a
    YD module algebra over the truncated quantum group."""
    sys = uq.system
    ctx = sys.ctx
    p = ctx.p
    A = sys.heis.algebra
    els = heis_elements(sys)
    v = els["z" if kind == "z" else "del"]
    basis = _powers(A.product, A.unit, v, p - 1)
    g = double_elements(sys)
    D = sys.double.hopf
    kk = D.product(g["kap"], g["k"])
    lifted_gens = [g["E"], g["F"], D.product(g["k"], g["k"])]

    def render(i):
        return "1" if i == 0 else (kind if i == 1 else f"{kind}^{i}")

    return transport_action(
        sys.yd, basis, tuple(range(p)),
        action_lifts=lifted_gens,
        target_hopf=uq.hopf, hopf_lift=uq.lift,
        hopf_corestrict=uq.corestrict,
        descent_central=[kk], target_generators=(1,),
        render=render, name=f"{kind}-factor(p={p})",
        prefix=f"{kind}-factor")


def zdel_factors(p: int) -> tuple[list, dict]:
    """The certificates that the z/del chains rest on, u_q(sl_2)'s and
    then each factor transport's, and the two factors by kind, "del" and
    "z"; no factor when u_q(sl_2) is missing."""
    uq = uqsl2(p)
    if uq.hopf is None:
        return list(uq.checks), {}
    if p not in _FACTOR_CACHE:
        _FACTOR_CACHE[p] = {kind: _heis_factor(uq, kind)
                            for kind in ("z", "del")}
    factors = _FACTOR_CACHE[p]
    return [*uq.checks, *(c for ts in factors.values()
                          for c in ts.certificates)], factors


class HeisenbergChain(NamedTuple):
    """Iterated braided product of alternating del- and z-factors."""

    p: int
    n: int
    uq: UqSl2
    chain: BraidedProductAlgebra

    @property
    def ctx(self) -> QContext:
        return self.uq.ctx

    @property
    def yd(self) -> YDModuleAlgebra:
        return self.chain.yd

    @property
    def algebra(self) -> FiniteAlgebra:
        return self.chain.yd.algebra

    def position_element(self, pos: int) -> Vec:
        """The generator of battery `pos` (0-based), embedded: the units
        of the other factors tensored on by the records of the chain's
        steps (`BraidedProductAlgebra.embed`)."""
        return self.chain.embed(pos, {1: self.ctx.one})

    def kind(self, pos: int) -> str:
        return "z" if pos % 2 else "del"


def truly_heisenberg_chain(p: int, n: int) -> HeisenbergChain:
    """Chain of n alternating factors, starting with del; a RuntimeError
    naming the first failed certificate of `zdel_factors` when one
    failed."""
    if n < 1:
        raise ValueError("need at least one factor")
    checks, factors = zdel_factors(p)
    bad = next((c for c in checks if not c.ok), None)
    if bad is not None:
        raise RuntimeError(f"the z/del factors need {bad.line()}")
    chain = chain_product([factors["z" if i % 2 else "del"].yd
                           for i in range(n)], name=f"H{n}(p={p},dual)")
    return HeisenbergChain(p, n, uqsl2(p), chain)


def chain_heisenberg_checks(ch: HeisenbergChain,
                            prefix: str = "chain") -> list:
    """The three straightening families plus nilpotency, on the chain."""
    ctx = ch.ctx
    p, n = ch.p, ch.n
    alg = ch.algebra
    mul = alg.product
    unit = dict(alg.unit)
    qd = ctx.qdiff
    u = ctx.q_pow(-2)
    del_pos = [i for i in range(n) if ch.kind(i) == "del"]
    z_pos = [i for i in range(n) if ch.kind(i) == "z"]
    gens = [ch.position_element(i) for i in range(n)]

    def rend(v):
        return render_element(alg.space, v)

    def straighten(kind: str, pos: list, w) -> CheckResult:
        """x_i x_j = w x_j x_i + (1 - w) x_j^2 for j <= i of `kind`."""
        rels = []
        for ii, i in enumerate(pos):
            for j in pos[:ii + 1]:
                rhs = _vadd(vscale(mul(gens[j], gens[i]), w),
                            vscale(mul(gens[j], gens[j]), ctx.one - w))
                rels.append((f"{kind}_{i} {kind}_{j}", mul(gens[i], gens[j]),
                             rhs))
        return _relation_result(f"{prefix}-{kind}-straighten", rels, rend)

    rels = []
    for i in del_pos:
        for j in z_pos:
            lhs = mul(gens[i], gens[j])
            rhs = _vadd(vscale(unit, qd), vscale(mul(gens[j], gens[i]), u))
            rels.append((f"del_{i} z_{j}", lhs, rhs))
    out = [_relation_result(f"{prefix}-mixed", rels, rend),
           straighten("z", z_pos, u), straighten("del", del_pos, ctx.q_pow(2))]

    rels = [(f"({ch.kind(i)}_{i})^p = 0", _powers(mul, unit, gens[i], p)[-1],
             {}) for i in range(n)]
    out.append(_relation_result(f"{prefix}-nilpotent", rels, rend))
    return out


def h2_matches_cqzd_check(ch: HeisenbergChain) -> CheckResult:
    """z^a del^b -> Z^a D^b is an algebra isomorphism from the q-deformed
    Weyl algebra onto the two-factor chain."""
    if ch.n != 2:
        raise ValueError("the isomorphism check needs a two-factor chain")
    ctx = ch.ctx
    p = ctx.p
    cq = cqzd(p)
    alg = ch.algebra
    mul = alg.product
    zpos = 0 if ch.kind(0) == "z" else 1
    Z = ch.position_element(zpos)
    D = ch.position_element(1 - zpos)

    def body():
        images = []
        solver = SpanSolver(alg.dim)
        for (a, b) in cq.space.labels:
            img = _powers(mul, alg.unit, Z, a)[-1]
            img = mul(img, _powers(mul, alg.unit, D, b)[-1])
            images.append(img)
            yield (None if solver.add(img)
                   else f"image of z^{a} del^{b} is dependent")
        for i in range(cq.dim):
            for j in range(cq.dim):
                lhs = mul(images[i], images[j])
                rhs: Vec = {}
                for k, c in cq.mult.get(i, j):
                    vadd_into(rhs, images[k], c)
                li, lj = cq.space.labels[i], cq.space.labels[j]
                yield (None if veq(lhs, rhs) else
                       f"images of {cq.space.render(li)} and "
                       f"{cq.space.render(lj)} multiply to "
                       f"{render_element(alg.space, lhs)}, expected "
                       f"{render_element(alg.space, rhs)}")

    return run_check("h2-weyl-isomorphism", "exhaustive", body())
