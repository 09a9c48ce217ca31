"""Drinfeld and Heisenberg doubles of a finite-dimensional Hopf algebra.

Both doubles live on the labeled space B* (x) B, where B is a Hopf algebra
with bijective antipode and B* a dual Hopf algebra realized through a
nondegenerate Hopf pairing < , >:

* The Drinfeld double D(B): product

      (mu (x) m)(nu (x) n) = mu (m' -> nu <- S^{-1}(m''')) (x) m'' n,

  coalgebra equal to that of B^{*cop} (x) B, antipode
  S_D(mu (x) m) = (eps (x) S(m)) (S*^{-1}(mu) (x) 1), and the canonical
  R-matrix  sum_I (eps (x) e_I) (x) (e^I (x) 1)  over pairing-dual bases.

* The Heisenberg double H(B*): the smash-product algebra

      (alpha # a)(beta # b) = alpha (a' -> beta) # a'' b,

  which also arises from D(B) by twisting the double's product with the
  cocycle eta(mu (x) m, nu (x) n) = <mu, 1> eps(n) <nu, m>.

H(B*) carries a coaction and an action of D(B) that make it a braided
commutative Yetter-Drinfeld D(B)-module algebra.  The constructors here
build all of that generically in B, and the check_* functions certify the
defining identities case by case, including the two quantum-commutativity
remarks (the R-matrix form that holds and the one that fails) and the
alternating chain algebras with their straightening relations.

Arrow conventions (P the pairing, b in B, f in B*):
    b -> f = f' <f'', b>     f <- b = <f', b> f''
    f -> b = b' <f, b''>     b <- f = <f, b'> b''
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Optional

from .cyclo import Cyc, QContext
from .hopf import (FiniteAlgebra, FiniteHopf, HopfPairing, dual_hopf,
                   hit_alg_left, hit_alg_right, hit_dual_left, hit_dual_right,
                   pair_product, render_element, tensor_flat, triple_product)
from .results import Check, CheckResult, invert_expected_failure
from .sparse import (BilinearMap, ColinearMap, LazyLinearMap, LinearMap,
                     Space, Vec, linear_map_inverse, vadd_into, vadd_outer,
                     vadd_term, veq)
from .ydcat import (Action, BraidedProductAlgebra, Coaction, ComoduleAlgebra,
                    ModuleAlgebra, YDModuleAlgebra, chain_product,
                    _iter_tuples, _mode_tag)

__all__ = [
    "DrinfeldDouble",
    "HeisenbergDouble",
    "drinfeld_double",
    "heisenberg_double",
    "eta_twist_product",
    "canonical_coaction",
    "canonical_action",
    "FactoredAction",
    "to_show_action_check",
    "check_double_identity",
    "yd_structure",
    "factor_structures",
    "heisenberg_chain",
    "chain_relations_check",
    "check_quasitriangular",
    "check_quantum_comm_remarks",
]


def _iter3(H: FiniteHopf, cache: dict, i: int) -> tuple:
    """Two-fold coproduct of e_i as (leg1, leg2, leg3, coeff) tuples."""
    r = cache.get(i)
    if r is None:
        n = H.dim
        n2 = n * n
        flat = H.coproduct_nested({i: H.ctx.one}, 3)
        r = tuple((k // n2, (k // n) % n, k % n, c) for k, c in flat.items())
        cache[i] = r
    return r


# -- the Drinfeld double -----------------------------------------------------

@dataclass
class DrinfeldDouble:
    """Hopf algebra on B* (x) B with references to the two factors."""

    ctx: QContext
    hopf: FiniteHopf
    base: FiniteHopf
    dual: FiniteHopf
    pairing: HopfPairing
    _rmatrix: Optional[Vec] = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.hopf.dim

    def index(self, f: int, b: int) -> int:
        return f * self.base.dim + b

    def rmatrix(self) -> Vec:
        """sum_I (eps (x) e_I) (x) (e^I (x) 1), flat over D (x) D.

        e_I runs over the basis of B and e^I over the pairing-dual basis
        of B*, obtained by inverting the pairing matrix exactly.
        """
        if self._rmatrix is None:
            nB = self.base.dim
            d = self.dim
            pm = LinearMap(self.dual.dim, nB)
            for f in range(self.dual.dim):
                row = []
                for b in range(nB):
                    c = self.pairing.pair_basis(f, b)
                    if c:
                        row.append((b, c))
                pm.set(f, tuple(row))
            inv = linear_map_inverse(pm, self.ctx)
            out: Vec = {}
            for bi in range(nB):
                left = tensor_flat(self.dual.unit, {bi: self.ctx.one}, nB)
                right = tensor_flat(dict(inv.get(bi)), self.base.unit, nB)
                for k1, c1 in left.items():
                    vadd_into(out, right, c1, k1 * d)
            self._rmatrix = out
        return self._rmatrix


def drinfeld_double(base: FiniteHopf, dual: Optional[FiniteHopf] = None,
                    pairing: Optional[HopfPairing] = None,
                    name: str = "") -> DrinfeldDouble:
    """Drinfeld double on basis labels (dual label, base label).

    When no presented dual is supplied the canonical functional dual is
    used with the evaluation pairing.
    """
    if dual is None:
        dual = dual_hopf(base)
        pairing = HopfPairing.canonical(dual, base)
    if pairing is None:
        raise ValueError("a presented dual needs its pairing")
    ctx = base.ctx
    P = pairing
    nB, nF = base.dim, dual.dim
    d = nF * nB
    if not name:
        name = f"D({base.name})"

    rd, rb = dual.space.render, base.space.render
    labels = [(lf, lb) for lf in dual.space.labels for lb in base.space.labels]
    space = Space(name, labels,
                  render=lambda lab: f"{rd(lab[0])}(x){rb(lab[1])}")

    one = ctx.one
    d3base: dict[int, tuple] = {}
    arrow_left: dict[int, Vec] = {}     # (m, f) -> e_m -> e_f
    arrow_rs: dict[int, Vec] = {}       # (f, m) -> e_f <- S^{-1}(e_m)
    base_sinv = base.antipode_inv()

    def arr_left(m: int, f: int) -> Vec:
        key = m * nF + f
        r = arrow_left.get(key)
        if r is None:
            r = hit_dual_left(P, {m: one}, {f: one})
            arrow_left[key] = r
        return r

    def arr_rs(f: int, m: int) -> Vec:
        key = f * nB + m
        r = arrow_rs.get(key)
        if r is None:
            r = {}
            for ms, cs in base_sinv.get(m):
                vadd_into(r, hit_dual_right(P, {f: one}, {ms: one}), cs)
            arrow_rs[key] = r
        return r

    def mult_fn(k1: int, k2: int) -> tuple:
        f1, b1 = divmod(k1, nB)
        f2, b2 = divmod(k2, nB)
        acc: Vec = {}
        for m1, m2, m3, c3 in _iter3(base, d3base, b1):
            mid = arr_rs(f2, m3)
            if not mid:
                continue
            rb_ = base.mult.get(m2, b2)
            if not rb_:
                continue
            for fm, cm in mid.items():
                c4 = c3 * cm
                if not c4:
                    continue
                mid2 = arr_left(m1, fm)
                for fn_, cn in mid2.items():
                    c5 = c4 * cn
                    if not c5:
                        continue
                    rf = dual.mult.get(f1, fn_)
                    if not rf:
                        continue
                    vadd_outer(acc, c5, rf, rb_, nB)
        return tuple(sorted(acc.items()))

    mult = BilinearMap(d, d, fn=mult_fn)

    def comult_fn(key: int) -> tuple:
        f, b = divmod(key, nB)
        acc: dict = {}
        for f1, f2, cf in dual.comult.get(f):
            for b1, b2, cb in base.comult.get(b):
                # leg1 = mu'' (x) m', leg2 = mu' (x) m''
                vadd_term(acc, (f2 * nB + b1, f1 * nB + b2), cf * cb)
        return tuple(sorted((j, k, c) for (j, k), c in acc.items()))

    comult = ColinearMap(d, d, d, fn=comult_fn)

    counit: dict[int, Cyc] = {}
    for f, cf in dual.counit.items():
        for b, cb in base.counit.items():
            c = cf * cb
            if c:
                counit[f * nB + b] = c

    unit = tensor_flat(dual.unit, base.unit, nB)
    dual_sinv = dual.antipode_inv()

    def antipode_fn(key: int) -> tuple:
        f, b = divmod(key, nB)
        left = tensor_flat(dual.unit, dict(base.antipode.get(b)), nB)
        right = tensor_flat(dict(dual_sinv.get(f)), base.unit, nB)
        return tuple(sorted(mult.apply(left, right).items()))

    antipode = LazyLinearMap(d, d, antipode_fn)

    gens = []
    if dual.generators:
        gens += [tensor_flat(g, base.unit, nB) for g in dual.generators]
    if base.generators:
        gens += [tensor_flat(dual.unit, g, nB) for g in base.generators]

    hopf = FiniteHopf(ctx, space, mult, unit, comult, counit, antipode,
                      generators=gens or None, name=name)
    return DrinfeldDouble(ctx, hopf, base, dual, P)


# -- the Heisenberg double ---------------------------------------------------

@dataclass
class HeisenbergDouble:
    """Smash-product algebra on B* (x) B; `yd` is attached by yd_structure."""

    ctx: QContext
    algebra: FiniteAlgebra
    base: FiniteHopf
    dual: FiniteHopf
    pairing: HopfPairing
    yd: Optional[YDModuleAlgebra] = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def index(self, f: int, b: int) -> int:
        return f * self.base.dim + b


def heisenberg_double(base: FiniteHopf, dual: Optional[FiniteHopf] = None,
                      pairing: Optional[HopfPairing] = None,
                      name: str = "") -> HeisenbergDouble:
    """Smash product (alpha # a)(beta # b) = alpha (a' -> beta) # a'' b."""
    if dual is None:
        dual = dual_hopf(base)
        pairing = HopfPairing.canonical(dual, base)
    if pairing is None:
        raise ValueError("a presented dual needs its pairing")
    ctx = base.ctx
    P = pairing
    nB, nF = base.dim, dual.dim
    d = nF * nB
    if not name:
        name = f"H({base.name}*)"

    rd, rb = dual.space.render, base.space.render
    labels = [(lf, lb) for lf in dual.space.labels for lb in base.space.labels]
    space = Space(name, labels,
                  render=lambda lab: f"{rd(lab[0])}#{rb(lab[1])}")

    one = ctx.one
    arrow_left: dict[int, Vec] = {}

    def arr_left(m: int, f: int) -> Vec:
        key = m * nF + f
        r = arrow_left.get(key)
        if r is None:
            r = hit_dual_left(P, {m: one}, {f: one})
            arrow_left[key] = r
        return r

    def mult_fn(k1: int, k2: int) -> tuple:
        f1, b1 = divmod(k1, nB)
        f2, b2 = divmod(k2, nB)
        acc: Vec = {}
        for a1, a2, ca in base.comult.get(b1):
            mid = arr_left(a1, f2)
            if not mid:
                continue
            rb_ = base.mult.get(a2, b2)
            if not rb_:
                continue
            for fm, cm in mid.items():
                c1 = ca * cm
                if not c1:
                    continue
                rf = dual.mult.get(f1, fm)
                vadd_outer(acc, c1, rf, rb_, nB)
        return tuple(sorted(acc.items()))

    unit = tensor_flat(dual.unit, base.unit, nB)
    gens = []
    if dual.generators:
        gens += [tensor_flat(g, base.unit, nB) for g in dual.generators]
    if base.generators:
        gens += [tensor_flat(dual.unit, g, nB) for g in base.generators]
    algebra = FiniteAlgebra(ctx, space, BilinearMap(d, d, fn=mult_fn), unit,
                            generators=gens or None, name=name)
    return HeisenbergDouble(ctx, algebra, base, dual, P)


def eta_twist_product(D: DrinfeldDouble, Hd: Optional[HeisenbergDouble] = None,
                      mode: str = "exhaustive", seed: int = 0,
                      samples: int = 10_000,
                      name: str = "eta-twist") -> CheckResult:
    """Twist the double's product by eta and compare with the smash product.

    M ._eta N = M' N' eta(M'', N'') with
    eta(mu (x) m, nu (x) n) = <mu, 1> eps(n) <nu, m>.
    """
    if Hd is None:
        Hd = heisenberg_double(D.base, D.dual, D.pairing)
    H = D.hopf
    base, dual, P = D.base, D.dual, D.pairing
    nB = base.dim
    d = D.dim
    chk = Check(name, _mode_tag(mode, seed, samples))

    # <mu, 1> per dual basis vector, eps(n) per base basis vector
    pair_unit: dict[int, Cyc] = {}
    for f in range(dual.dim):
        c = P.pair({f: D.ctx.one}, base.unit)
        if c:
            pair_unit[f] = c
    eps_b = base.counit

    # Delta_D legs filtered by the eta factor they feed:
    #   for M: keep (M', base part of M'') weighted by <dual part of M'', 1>
    #   for N: keep (N', dual part of N'') weighted by eps(base part of N'')
    legs_m: dict[int, tuple] = {}
    legs_n: dict[int, tuple] = {}

    def get_legs_m(k: int) -> tuple:
        r = legs_m.get(k)
        if r is None:
            out = []
            for j, kk, c in H.comult.get(k):
                fm, bm = divmod(kk, nB)
                w = pair_unit.get(fm)
                if w:
                    out.append((j, bm, c * w))
            r = tuple(out)
            legs_m[k] = r
        return r

    def get_legs_n(k: int) -> tuple:
        r = legs_n.get(k)
        if r is None:
            out = []
            for j, kk, c in H.comult.get(k):
                fn_, bn = divmod(kk, nB)
                w = eps_b.get(bn)
                if w:
                    out.append((j, fn_, c * w))
            r = tuple(out)
            legs_n[k] = r
        return r

    rng = random.Random(seed)
    for k1, k2 in _iter_tuples(mode, (d, d), (None, None), rng, samples):
        chk.cases += 1
        acc: Vec = {}
        for j1, bm, c1 in get_legs_m(k1):
            for j2, fn_, c2 in get_legs_n(k2):
                pv = P.pair_basis(fn_, bm)
                if pv:
                    vadd_into(acc, H.mult.get(j1, j2), c1 * c2 * pv)
        if not veq(acc, dict(Hd.algebra.mult.get(k1, k2))):
            sp = H.space
            return chk.result(
                f"M={sp.render(sp.labels[k1])}, N={sp.render(sp.labels[k2])}: "
                f"eta-twisted product disagrees with the smash product")
    return chk.result()


# -- coaction and action of D(B) on H(B*) ------------------------------------

def canonical_coaction(Hd: HeisenbergDouble, D: DrinfeldDouble) -> ComoduleAlgebra:
    """delta(beta # b) = (beta'' (x) b') (x) (beta' # b'')."""
    base, dual = D.base, D.dual
    nB = base.dim

    def coact_fn(key: int) -> tuple:
        f, b = divmod(key, nB)
        acc: dict = {}
        for f1, f2, cf in dual.comult.get(f):
            for b1, b2, cb in base.comult.get(b):
                vadd_term(acc, (f2 * nB + b1, f1 * nB + b2), cf * cb)
        return tuple(sorted((h, x, c) for (h, x), c in acc.items()))

    coact = Coaction(D.hopf, Hd.algebra, coact_fn)
    return ComoduleAlgebra(D.hopf, Hd.algebra, coact, name=Hd.algebra.name)


class FactoredAction(Action):
    """Action of D(B) on H(B*), assembled from its two factor actions.

    (mu (x) m) acts as (mu (x) 1) after (eps (x) m), where

        (eps (x) m) |> (alpha # a) = (m' -> alpha) # m'' a S(m''')
        (mu (x) 1) |> (alpha # a) = mu''' alpha S*^{-1}(mu'')
                                      # (a <- S*^{-1}(mu'))

    Both factor maps are exposed with their own memoized rows.
    """

    __slots__ = ("base", "dual", "pairing", "_prim", "_dualrows",
                 "_d3b", "_d3f")

    def __init__(self, Hd: HeisenbergDouble, D: DrinfeldDouble):
        super().__init__(D.hopf, Hd.algebra, self._row_fn)
        self.base = D.base
        self.dual = D.dual
        self.pairing = D.pairing
        self._prim: dict[int, Vec] = {}
        self._dualrows: dict[int, Vec] = {}
        self._d3b: dict[int, tuple] = {}
        self._d3f: dict[int, tuple] = {}

    def prim_row(self, m: int, x: int) -> Vec:
        """(eps (x) e_m) |> e_x."""
        key = m * self.algebra.dim + x
        r = self._prim.get(key)
        if r is None:
            base, dual, P = self.base, self.dual, self.pairing
            nB = base.dim
            one = base.ctx.one
            f, b = divmod(x, nB)
            r = {}
            for m1, m2, m3, c in _iter3(base, self._d3b, m):
                mid = hit_dual_left(P, {m1: one}, {f: one})
                if not mid:
                    continue
                t1 = dict(base.mult.get(m2, b))
                if not t1:
                    continue
                conj: Vec = {}
                for s, cs in base.antipode.get(m3):
                    for t, ct in t1.items():
                        for k, ck in base.mult.get(t, s):
                            vadd_term(conj, k, cs * ct * ck)
                if not conj:
                    continue
                vadd_outer(r, c, mid, conj, nB)
            self._prim[key] = r
        return r

    def dual_row(self, f: int, x: int) -> Vec:
        """(e_f (x) 1) |> e_x."""
        key = f * self.algebra.dim + x
        r = self._dualrows.get(key)
        if r is None:
            base, dual, P = self.base, self.dual, self.pairing
            nB = base.dim
            one = base.ctx.one
            sinv = dual.antipode_inv()
            fx, b = divmod(x, nB)
            r = {}
            for u1, u2, u3, c in _iter3(dual, self._d3f, f):
                right: Vec = {}
                for nu, cs in sinv.get(u1):
                    vadd_into(right, hit_alg_right(P, {b: one}, {nu: one}), cs)
                if not right:
                    continue
                left: Vec = {}
                t1 = dict(dual.mult.get(u3, fx))
                for nu, cs in sinv.get(u2):
                    for t, ct in t1.items():
                        for k, ck in dual.mult.get(t, nu):
                            vadd_term(left, k, cs * ct * ck)
                if not left:
                    continue
                vadd_outer(r, c, left, right, nB)
            self._dualrows[key] = r
        return r

    def _row_fn(self, h: int, x: int) -> Vec:
        f, m = divmod(h, self.base.dim)
        out: Vec = {}
        for xp, c in self.prim_row(m, x).items():
            vadd_into(out, self.dual_row(f, xp), c)
        return out


def canonical_action(Hd: HeisenbergDouble, D: DrinfeldDouble) -> ModuleAlgebra:
    act = FactoredAction(Hd, D)
    return ModuleAlgebra(D.hopf, Hd.algebra, act, name=Hd.algebra.name)


def yd_structure(Hd: HeisenbergDouble, D: DrinfeldDouble) -> YDModuleAlgebra:
    """Bundle the canonical action and coaction; attaches the result to Hd."""
    if Hd.yd is None:
        act = canonical_action(Hd, D)
        coact = canonical_coaction(Hd, D)
        Hd.yd = YDModuleAlgebra(D.hopf, Hd.algebra, act.action, coact.coaction,
                                name=Hd.algebra.name)
    return Hd.yd


def to_show_action_check(D: DrinfeldDouble, act: FactoredAction,
                         mode: str = "exhaustive", seed: int = 0,
                         samples: int = 10_000,
                         name: str = "action-composition") -> CheckResult:
    """The two factor actions compose through the double's product:

        (eps (x) m) |> ((mu (x) 1) |> A)
            = ((m' -> mu <- S^{-1}(m''')) (x) m'') |> A.
    """
    base, dual, P = D.base, D.dual, D.pairing
    nB, nF = base.dim, dual.dim
    dHd = act.algebra.dim
    one = D.ctx.one
    chk = Check(name, _mode_tag(mode, seed, samples))
    base_sinv = base.antipode_inv()
    d3: dict[int, tuple] = {}
    rng = random.Random(seed)

    gm = gf = None
    if mode == "generators":
        if base.generators:
            gm = {i for g in base.generators for i in g}
        if dual.generators:
            gf = {i for g in dual.generators for i in g}

    for f, m, x in _iter_tuples(mode, (nF, nB, dHd), (gf, gm, None),
                                rng, samples):
        chk.cases += 1
        lhs: Vec = {}
        for xp, c in act.dual_row(f, x).items():
            vadd_into(lhs, act.prim_row(m, xp), c)
        dvec: Vec = {}
        for m1, m2, m3, c in _iter3(base, d3, m):
            mid: Vec = {}
            for ms, cs in base_sinv.get(m3):
                vadd_into(mid, hit_dual_right(P, {f: one}, {ms: one}), cs)
            if not mid:
                continue
            for fm, cm in mid.items():
                c1 = c * cm
                for fo, co in hit_dual_left(P, {m1: one}, {fm: one}).items():
                    vadd_term(dvec, fo * nB + m2, c1 * co)
        rhs = act.apply(dvec, {x: one})
        if not veq(lhs, rhs):
            return chk.result(f"mu={_rlab(dual, f)}, m={_rlab(base, m)}, "
                              f"A={_rlab(act.algebra, x)}: factor actions do "
                              f"not compose through the double product")
    return chk.result()


def _rlab(obj, i: int) -> str:
    sp = obj.space
    return sp.render(sp.labels[i])


def check_double_identity(D: DrinfeldDouble,
                          name: str = "double-identity") -> CheckResult:
    """(eps (x) (a <- S*^{-1}(mu''))) (mu' (x) 1) = mu'' (x) (S*^{-1}(mu') -> a)

    as elements of D(B), exhaustively over basis pairs (mu, a).
    """
    base, dual, P = D.base, D.dual, D.pairing
    nB, nF = base.dim, dual.dim
    one = D.ctx.one
    sinv = dual.antipode_inv()
    chk = Check(name, "exhaustive")
    for f, a in itertools.product(range(nF), range(nB)):
        chk.cases += 1
        lhs: Vec = {}
        rhs: Vec = {}
        for u1, u2, cf in dual.comult.get(f):
            mid: Vec = {}
            for nu, cs in sinv.get(u2):
                vadd_into(mid, hit_alg_right(P, {a: one}, {nu: one}), cs)
            if mid:
                left = tensor_flat(dual.unit, mid, nB)
                right = tensor_flat({u1: one}, base.unit, nB)
                vadd_into(lhs, D.hopf.mult.apply(left, right), cf)
            hit: Vec = {}
            for nu, cs in sinv.get(u1):
                vadd_into(hit, hit_alg_left(P, {nu: one}, {a: one}), cs)
            vadd_into(rhs, hit, cf, u2 * nB)
        if not veq(lhs, rhs):
            return chk.result(f"mu={_rlab(dual, f)}, a={_rlab(base, a)}: "
                              f"the double identity fails")
    return chk.result()


# -- quasitriangularity ------------------------------------------------------

def check_quasitriangular(D: DrinfeldDouble,
                          prefix: str = "r") -> list[CheckResult]:
    """Hexagon identities, intertwining, and the antipode inverse for R."""
    H = D.hopf
    d = H.dim
    R = D.rmatrix()

    def intertwine() -> CheckResult:
        chk = Check(f"{prefix}-intertwine", "exhaustive")
        for x in range(d):
            chk.cases += 1
            row = H.comult.get(x)
            dvec = {j * d + k: c for j, k, c in row}
            dop = {k * d + j: c for j, k, c in row}
            if not veq(pair_product(H, R, dvec), pair_product(H, dop, R)):
                return chk.result(f"R Delta(x) != Delta-op(x) R at x={_rlab(H, x)}")
        return chk.result()

    results = [intertwine()]
    chk = Check(f"{prefix}-hexagon-1", "exhaustive", cases=len(R))
    r13: Vec = {}
    r23: Vec = {}
    r12: Vec = {}
    for key, c in R.items():
        k1, k2 = divmod(key, d)
        for u, cu in H.unit.items():
            vadd_term(r13, (k1 * d + u) * d + k2, c * cu)
            vadd_term(r23, (u * d + k1) * d + k2, c * cu)
            vadd_term(r12, (k1 * d + k2) * d + u, c * cu)
    lhs1: Vec = {}
    lhs2: Vec = {}
    for key, c in R.items():
        k1, k2 = divmod(key, d)
        for j, k, cc in H.comult.get(k1):
            vadd_term(lhs1, (j * d + k) * d + k2, c * cc)
        for j, k, cc in H.comult.get(k2):
            vadd_term(lhs2, (k1 * d + j) * d + k, c * cc)
    ok = veq(lhs1, triple_product(H, r13, r23))
    results.append(chk.result(None if ok else "(Delta (x) id)R != R13 R23"))
    chk = Check(f"{prefix}-hexagon-2", "exhaustive", cases=len(R))
    ok = veq(lhs2, triple_product(H, r13, r12))
    results.append(chk.result(None if ok else "(id (x) Delta)R != R13 R12"))

    chk = Check(f"{prefix}-inverse", "exhaustive", cases=2)
    rinv: Vec = {}
    for key, c in R.items():
        k1, k2 = divmod(key, d)
        for k1s, cs in H.antipode.get(k1):
            vadd_term(rinv, k1s * d + k2, c * cs)
    unit2 = tensor_flat(H.unit, H.unit, d)
    ok = (veq(pair_product(H, R, rinv), unit2)
          and veq(pair_product(H, rinv, R), unit2))
    results.append(chk.result(None if ok else "(S (x) id)R is not inverse to R"))
    return results


# -- quantum commutativity remarks -------------------------------------------

def check_quantum_comm_remarks(D: DrinfeldDouble, Hd: HeisenbergDouble,
                               mode: str = "generators", seed: int = 0,
                               samples: int = 200,
                               prefix: str = "") -> tuple[CheckResult, CheckResult]:
    """Two R-matrix forms of commutativity on H(B*).

    1. y x = (R2 |> x)(R1 |> y) does NOT hold; the returned first check
       passes when a counterexample is found (and records it).
    2. y x = sum_A <e^A, S_D^{-1}(y_(-1))> (S_D(e_A) |> x) y_(0), the
       inverse-R restatement of braided commutativity, DOES hold.
    """
    yd = yd_structure(Hd, D)
    H = D.hopf
    alg, act, coact = yd.algebra, yd.action, yd.coaction
    d = H.dim
    dX = alg.dim
    R = D.rmatrix()
    one = D.ctx.one
    rng = random.Random(seed)
    gx = {i for g in (alg.generators or []) for i in g} or None

    name1 = (prefix + "r-comm-negative") if prefix else "r-comm-negative"
    chk = Check("__rcomm", _mode_tag(mode, seed, samples))
    found = None
    for iy, ix in _iter_tuples(mode, (dX, dX), (gx, gx), rng, samples):
        chk.cases += 1
        lhs = dict(alg.mult.get(iy, ix))
        rhs: Vec = {}
        for key, c in R.items():
            r1, r2 = divmod(key, d)
            v2 = act.row(r2, ix)
            if not v2:
                continue
            v1 = act.row(r1, iy)
            if not v1:
                continue
            for xp, cx in v2.items():
                c1 = c * cx
                for yp, cy in v1.items():
                    vadd_into(rhs, alg.mult.get(xp, yp), c1 * cy)
        if not veq(lhs, rhs):
            found = (f"y={_rlab(alg, iy)}, x={_rlab(alg, ix)}: yx = "
                     f"{render_element(alg.space, lhs)} but "
                     f"(R2|>x)(R1|>y) = {render_element(alg.space, rhs)}")
            break
    res1 = invert_expected_failure(chk.result(found), name1)

    name2 = (prefix + "rinv-braided-comm") if prefix else "rinv-braided-comm"
    chk = Check(name2, chk.mode)
    sD = H.antipode
    sinvD = H.antipode_inv()
    found = None
    rng = random.Random(seed)
    for iy, ix in _iter_tuples(mode, (dX, dX), (gx, gx), rng, samples):
        chk.cases += 1
        lhs = dict(alg.mult.get(iy, ix))
        rhs2: Vec = {}
        for h, y0, c in coact.terms(iy):
            v = sinvD.apply({h: one})
            for A, vA in v.items():
                c1 = c * vA
                for hs, cs in sD.get(A):
                    c2 = c1 * cs
                    if not c2:
                        continue
                    r = act.row(hs, ix)
                    if not r:
                        continue
                    for xp, cx in r.items():
                        vadd_into(rhs2, alg.mult.get(xp, y0), c2 * cx)
        if not veq(lhs, rhs2):
            found = (f"y={_rlab(alg, iy)}, x={_rlab(alg, ix)}: the inverse-R "
                     f"form of braided commutativity fails")
            break
    return res1, chk.result(found)


# -- the two factors as YD module algebras ------------------------------------

def factor_structures(D: DrinfeldDouble) -> tuple[YDModuleAlgebra, YDModuleAlgebra]:
    """B^{*cop} and B as YD module algebras over D(B).

    Coactions: beta -> (beta'' (x) 1) (x) beta',  b -> (eps (x) b') (x) b''.
    Actions:   (mu (x) m) |> beta = mu'' (m -> beta) S*^{-1}(mu'),
               (mu (x) m) |> b = (m' b S(m'')) <- S*^{-1}(mu).
    """
    base, dual, P = D.base, D.dual, D.pairing
    ctx = D.ctx
    nB = base.dim
    one = ctx.one
    dual_sinv = dual.antipode_inv()

    dual_alg = FiniteAlgebra(ctx, dual.space, dual.mult, dual.unit,
                             generators=dual.generators,
                             name=f"{dual.name}(cop)")
    base_alg = FiniteAlgebra(ctx, base.space, base.mult, base.unit,
                             generators=base.generators, name=base.name)

    def coact_dual_fn(f: int) -> tuple:
        acc: dict = {}
        for f1, f2, cf in dual.comult.get(f):
            for bu, cu in base.unit.items():
                vadd_term(acc, (f2 * nB + bu, f1), cf * cu)
        return tuple(sorted((h, x, c) for (h, x), c in acc.items()))

    def coact_base_fn(b: int) -> tuple:
        acc: dict = {}
        for b1, b2, cb in base.comult.get(b):
            for fu, cu in dual.unit.items():
                vadd_term(acc, (fu * nB + b1, b2), cb * cu)
        return tuple(sorted((h, x, c) for (h, x), c in acc.items()))

    def act_dual_fn(h: int, f: int) -> Vec:
        fm, m = divmod(h, nB)
        mid = hit_dual_left(P, {m: one}, {f: one})
        if not mid:
            return {}
        out: Vec = {}
        for u1, u2, cf in dual.comult.get(fm):
            sv = dict(dual_sinv.get(u1))
            if not sv:
                continue
            for t, ct in mid.items():
                c1 = cf * ct
                for w, cw in dual.mult.get(u2, t):
                    c2 = c1 * cw
                    if not c2:
                        continue
                    for nu, cs in sv.items():
                        for k, ck in dual.mult.get(w, nu):
                            vadd_term(out, k, c2 * cs * ck)
        return out

    def act_base_fn(h: int, b: int) -> Vec:
        fm, m = divmod(h, nB)
        conj: Vec = {}
        for m1, m2, cm in base.comult.get(m):
            t1 = base.mult.get(m1, b)
            if not t1:
                continue
            for s, cs in base.antipode.get(m2):
                c1 = cm * cs
                for t, ct in t1:
                    vadd_into(conj, base.mult.get(t, s), c1 * ct)
        if not conj:
            return {}
        out: Vec = {}
        sv = dict(dual_sinv.get(fm))
        for nu, cs in sv.items():
            for t, ct in conj.items():
                c1 = cs * ct
                vadd_into(out, hit_alg_right(P, {t: one}, {nu: one}), c1)
        return out

    dual_yd = YDModuleAlgebra(D.hopf, dual_alg,
                              Action(D.hopf, dual_alg, act_dual_fn),
                              Coaction(D.hopf, dual_alg, coact_dual_fn),
                              name=dual_alg.name)
    base_yd = YDModuleAlgebra(D.hopf, base_alg,
                              Action(D.hopf, base_alg, act_base_fn),
                              Coaction(D.hopf, base_alg, coact_base_fn),
                              name=base_alg.name)
    return dual_yd, base_yd


# -- alternating chains -------------------------------------------------------

def heisenberg_chain(base: FiniteHopf, n: int, leftmost: str = "dual",
                     D: Optional[DrinfeldDouble] = None,
                     dual: Optional[FiniteHopf] = None,
                     pairing: Optional[HopfPairing] = None) -> BraidedProductAlgebra:
    """Alternating braided product of B^{*cop} and B factors, n factors long.

    leftmost chooses which factor sits in position 0.  With leftmost="dual"
    and n = 2 the result has the structure constants of H(B*).
    """
    if n < 1:
        raise ValueError("need at least one factor")
    if leftmost not in ("dual", "primal"):
        raise ValueError("leftmost must be 'dual' or 'primal'")
    if D is None:
        D = drinfeld_double(base, dual, pairing)
    dual_yd, base_yd = factor_structures(D)
    mods = []
    for i in range(n):
        even = (i % 2 == 0)
        take_dual = (leftmost == "dual") == even
        mods.append(dual_yd if take_dual else base_yd)
    bp = chain_product(mods, name=f"chain({base.name}, n={n})")
    return bp


def chain_relations_check(bp: BraidedProductAlgebra, D: DrinfeldDouble,
                          prefix: str = "chain") -> list[CheckResult]:
    """Straightening relations of the alternating chain, exhaustively.

    With positions numbered left to right from 0, b at a primal position
    and beta, alpha at dual positions:

      * b[i] beta[j] = (b' -> beta)[j] b''[i]          for ALL primal i, dual j
      * alpha[i] beta[j] = (alpha''' beta S*^{-1}(alpha''))[j] alpha'[i]
                                                        for dual i >= j
      * a[i] b[j] = (a' b S(a''))[j] a'''[i]            for primal i >= j
      * beta[i] alpha[j] = alpha'[j] (S*(alpha'') beta alpha''')[i]
                                                        for dual i <= j
      * b[i] a[j] = a'''[j] (S^{-1}(a'') b a')[i]        for primal i <= j
    """
    base, dual, P = D.base, D.dual, D.pairing
    nB, nF = base.dim, dual.dim
    one = D.ctx.one
    alg = bp.yd.algebra
    mult = alg.mult
    base_sinv = base.antipode_inv()
    dual_sinv = dual.antipode_inv()
    d3b: dict[int, tuple] = {}
    d3f: dict[int, tuple] = {}

    kinds = []
    for f in bp.factors:
        if f.algebra.space is dual.space:
            kinds.append("dual")
        elif f.algebra.space is base.space:
            kinds.append("primal")
        else:
            raise ValueError("chain factor does not come from this double")
    dual_pos = [i for i, k in enumerate(kinds) if k == "dual"]
    prim_pos = [i for i, k in enumerate(kinds) if k == "primal"]

    emb_cache: dict[tuple, Vec] = {}

    def emb(pos: int, i: int) -> Vec:
        key = (pos, i)
        r = emb_cache.get(key)
        if r is None:
            r = bp.embed(pos, {i: one})
            emb_cache[key] = r
        return r

    def embv(pos: int, v: Vec) -> Vec:
        out: Vec = {}
        for i, c in v.items():
            vadd_into(out, emb(pos, i), c)
        return out

    def run(name: str, positions, nx: int, ny: int, rhs_fn, labels) -> CheckResult:
        """lhs = x[i] y[j] against rhs_fn(i, j, x, y) over every position
        pair (i, j) and basis pair (x, y)."""
        chk = Check(f"{prefix}-{name}", "exhaustive")
        for (i, j), x, y in itertools.product(positions, range(nx), range(ny)):
            chk.cases += 1
            if not veq(mult.apply(emb(i, x), emb(j, y)), rhs_fn(i, j, x, y)):
                return chk.result(f"positions ({i},{j}): {labels(x, y)}")
        return chk.result()

    def mixed(ip: int, jd: int, b: int, f: int) -> Vec:
        rhs: Vec = {}
        for b1, b2, cb in base.comult.get(b):
            for fm, cm in hit_dual_left(P, {b1: one}, {f: one}).items():
                vadd_into(rhs, mult.apply(emb(jd, fm), emb(ip, b2)), cb * cm)
        return rhs

    def dual_straighten(i1: int, j2: int, fa: int, fb: int) -> Vec:
        rhs: Vec = {}
        for u1, u2, u3, c in _iter3(dual, d3f, fa):
            inner: Vec = {}
            for t, ct in dual.mult.get(u3, fb):
                for nu, cs in dual_sinv.get(u2):
                    for k, ck in dual.mult.get(t, nu):
                        vadd_term(inner, k, c * ct * cs * ck)
            if inner:
                vadd_into(rhs, mult.apply(embv(j2, inner), emb(i1, u1)))
        return rhs

    def primal_straighten(i1: int, j2: int, a: int, b: int) -> Vec:
        rhs: Vec = {}
        for a1, a2, a3, c in _iter3(base, d3b, a):
            inner: Vec = {}
            for t, ct in base.mult.get(a1, b):
                for s, cs in base.antipode.get(a2):
                    for k, ck in base.mult.get(t, s):
                        vadd_term(inner, k, c * ct * cs * ck)
            if inner:
                vadd_into(rhs, mult.apply(embv(j2, inner), emb(i1, a3)))
        return rhs

    def dual_straighten_inverse(i1: int, j2: int, fb: int, fa: int) -> Vec:
        rhs: Vec = {}
        for u1, u2, u3, c in _iter3(dual, d3f, fa):
            inner: Vec = {}
            for s, cs in dual.antipode.get(u2):
                for t, ct in dual.mult.get(s, fb):
                    for k, ck in dual.mult.get(t, u3):
                        vadd_term(inner, k, c * cs * ct * ck)
            if inner:
                vadd_into(rhs, mult.apply(emb(j2, u1), embv(i1, inner)))
        return rhs

    def primal_straighten_inverse(i1: int, j2: int, b: int, a: int) -> Vec:
        rhs: Vec = {}
        for a1, a2, a3, c in _iter3(base, d3b, a):
            inner: Vec = {}
            for s, cs in base_sinv.get(a2):
                for t, ct in base.mult.get(s, b):
                    for k, ck in base.mult.get(t, a1):
                        vadd_term(inner, k, c * cs * ct * ck)
            if inner:
                vadd_into(rhs, mult.apply(emb(j2, a3), embv(i1, inner)))
        return rhs

    def ordered(pos: list, keep) -> list:
        return [(i, j) for i in pos for j in pos if keep(i, j)]

    return [
        run("mixed", [(i, j) for i in prim_pos for j in dual_pos], nB, nF,
            mixed, lambda b, f: f"b={_rlab(base, b)}, beta={_rlab(dual, f)}"),
        run("dual-straighten", ordered(dual_pos, int.__ge__), nF, nF,
            dual_straighten,
            lambda fa, fb: f"alpha={_rlab(dual, fa)}, beta={_rlab(dual, fb)}"),
        run("primal-straighten", ordered(prim_pos, int.__ge__), nB, nB,
            primal_straighten,
            lambda a, b: f"a={_rlab(base, a)}, b={_rlab(base, b)}"),
        run("dual-straighten-inverse", ordered(dual_pos, int.__le__), nF, nF,
            dual_straighten_inverse,
            lambda fb, fa: f"beta={_rlab(dual, fb)}, alpha={_rlab(dual, fa)}"),
        run("primal-straighten-inverse", ordered(prim_pos, int.__le__), nB, nB,
            primal_straighten_inverse,
            lambda b, a: f"b={_rlab(base, b)}, a={_rlab(base, a)}"),
    ]
