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

Each D(B)-action is defined once.  A DrinfeldDouble memoizes the four leg
actions hit and ad of B and adF and rhit of B*; the action on H(B*)
(FactoredAction) is a composite of them, and its coaction is the
coproduct of D(B).  Its factors B*cop and B carry that structure
restricted (factor_structures, certified by check_factor_restrictions).

Both doubles, and the braided products behind the chains (ydcat), are
twisted tensor products A (x)_R B (Cap, Schichl and Vanzura, Comm. Algebra
23, 1995): each constructor supplies only its map R, and
hopf.twisted_product memoizes the R rows and multiplies them out; each
product keeps that record as its `twist`, which the generation
certificate and the factor walks of results read.  The eta-twist of
D(B) is one more: its R is built from D(B)'s, so eta_twist_product
proves H(B*) = D(B)_eta from d_B^2 R rows and the factor tables
(hopf.check_same_twist), and multiplies out no product.

Arrow conventions (P the pairing, b in B, f in B*; HopfPairing memoizes
them on basis pairs):
    b -> f = f' <f'', b>     f <- b = <f', b> f''
    f -> b = b' <f, b''>     b <- f = <f, b'> b''
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Callable, Iterator, Optional

from .cyclo import Cyc, QContext
from .hopf import (FiniteAlgebra, FiniteHopf, HopfPairing,
                   check_hopf_pairing, check_same_twist, dual_hopf,
                   pair_product, pairing_counit_cases, render_element,
                   twisted_product)
from .results import (CheckResult, Walk, chained,
                      coalgebra_closure, counted, factor_pair_walk,
                      gen_indices, generation_failure,
                      invert_expected_failure, lemma_walk, normality_cases,
                      obligation, run_check, twist_of, twisting_cases)
from .sparse import (ColinearMap, LazyLinearMap, LinearMap, Row, Space, Vec,
                     linear_map_inverse, shared_row, tensor_flat, vadd_into,
                     vadd_outer, vadd_term, veq)
from .ydcat import (Action, BraidedProductAlgebra, Coaction, ModuleAlgebra,
                    YDModuleAlgebra, chain_product, check_module)

__all__ = [
    "DrinfeldDouble",
    "HeisenbergDouble",
    "drinfeld_double",
    "heisenberg_double",
    "eta_twist_product",
    "FactoredAction",
    "module_factor_walk",
    "module_algebra_factor_walk",
    "comodule_algebra_factor_walk",
    "check_double_identity",
    "yd_structure",
    "factor_structures",
    "check_factor_restrictions",
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

class DrinfeldDouble:
    """Hopf algebra on B* (x) B with references to the two factors, and
    the four leg actions of B and B* on the two factors:

        hit(m) alpha = m -> alpha        adF(f) alpha = f'' alpha S*^{-1}(f')
        ad(m) a = m' a S(m'')            rhit(f) a = a <- S*^{-1}(f).

    B acts on B* by hit and on B by ad, B* on B* by adF and on B by rhit.
    Each leg table needs only `base`, `dual` and `pairing`, and is
    memoized once per double, its rows stored rows (see
    `sparse.shared_row`).  They are the one definition of these actions:
    the D(B)-action on H(B*) (`FactoredAction`) is a composite of them,
    and B*cop and B carry its restrictions (`factor_structures`).
    """

    __slots__ = ("ctx", "hopf", "base", "dual", "pairing", "_rmatrix",
                 "_legs")

    def __init__(self, ctx: QContext, hopf: FiniteHopf, base: FiniteHopf,
                 dual: FiniteHopf, pairing: HopfPairing):
        self.ctx = ctx
        self.hopf = hopf
        self.base = base
        self.dual = dual
        self.pairing = pairing
        self._rmatrix: Optional[Vec] = None
        self._legs: tuple[dict, ...] = ({}, {}, {}, {})

    def _leg(self, which: int, build, i: int, v: int) -> Row:
        memo = self._legs[which]
        r = memo.get((i, v))
        if r is None:
            r = memo[i, v] = shared_row(build(i, v))
        return r

    def hit(self, m: int, alpha: int) -> Row:
        """e_m -> e^alpha, in B*."""
        return self._leg(0, self.pairing.dual_left, m, alpha)

    def ad(self, m: int, a: int) -> Row:
        """m' e_a S(m''), in B."""
        return self._leg(1, self._ad, m, a)

    def adf(self, f: int, alpha: int) -> Row:
        """f'' e^alpha S*^{-1}(f'), in B*."""
        return self._leg(2, self._adf, f, alpha)

    def rhit(self, f: int, a: int) -> Row:
        """e_a <- S*^{-1}(e^f), in B."""
        return self._leg(3, self._rhit, f, a)

    def _ad(self, m: int, a: int) -> Vec:
        base = self.base
        acc: Vec = {}
        for m1, m2, c in base.comult.get(m):
            for t, ct in base.mult.get(m1, a):
                c1 = c * ct
                for s, cs in base.antipode.get(m2):
                    vadd_into(acc, base.mult.get(t, s), c1 * cs)
        return acc

    def _adf(self, f: int, alpha: int) -> Vec:
        dual = self.dual
        sinv = dual.antipode_inv()
        acc: Vec = {}
        for f1, f2, c in dual.comult.get(f):
            for t, ct in dual.mult.get(f2, alpha):
                c1 = c * ct
                for s, cs in sinv.get(f1):
                    vadd_into(acc, dual.mult.get(t, s), c1 * cs)
        return acc

    def _rhit(self, f: int, a: int) -> Vec:
        acc: Vec = {}
        for nu, cs in self.dual.antipode_inv().get(f):
            vadd_into(acc, self.pairing.alg_right(a, nu), cs)
        return acc

    @property
    def dim(self) -> int:
        return self.hopf.dim

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
            inv = linear_map_inverse(pm)
            out: Vec = {}
            for bi in range(nB):
                left = tensor_flat(self.dual.unit, {bi: self.ctx.one}, nB)
                right = tensor_flat(dict(inv.get(bi)), self.base.unit, nB)
                for k1, c1 in left.items():
                    vadd_into(out, right, c1, k1 * d)
            self._rmatrix = out
        return self._rmatrix


def drinfeld_double(base: FiniteHopf, dual: Optional[FiniteHopf] = None,
                    pairing: Optional[HopfPairing] = None) -> DrinfeldDouble:
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
    name = f"D({base.name})"

    rd, rb = dual.space.render, base.space.render
    labels = [(lf, lb) for lf in dual.space.labels for lb in base.space.labels]
    space = Space(name, labels,
                  render=lambda lab: f"{rd(lab[0])}(x){rb(lab[1])}")

    d3base: dict[int, tuple] = {}
    base_sinv = base.antipode_inv()

    def r_row(m: int, f: int) -> tuple:
        """R(m (x) f) = sum (m' -> f <- S^{-1}(m''')) (x) m''."""
        out = []
        for m1, m2, m3, c3 in _iter3(base, d3base, m):
            mid: Vec = {}
            for ms, cs in base_sinv.get(m3):
                vadd_into(mid, P.dual_right(f, ms), cs)
            for fm, cm in mid.items():
                c4 = c3 * cm
                if not c4:
                    continue
                for fn_, cn in P.dual_left(m1, fm).items():
                    c5 = c4 * cn
                    if c5:
                        out.append((fn_, m2, c5))
        return tuple(out)

    tw = twisted_product(dual, base, r_row)

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

    dual_sinv = dual.antipode_inv()

    def antipode_fn(key: int) -> tuple:
        f, b = divmod(key, nB)
        left = tensor_flat(dual.unit, dict(base.antipode.get(b)), nB)
        right = tensor_flat(dict(dual_sinv.get(f)), base.unit, nB)
        return tuple(sorted(tw.mult.apply(left, right).items()))

    antipode = LazyLinearMap(d, d, antipode_fn)
    hopf = FiniteHopf(ctx, space, tw.mult, tw.unit, comult, counit, antipode,
                      generators=tw.gens, name=name, twist=tw)
    return DrinfeldDouble(ctx, hopf, base, dual, P)


# -- the Heisenberg double ---------------------------------------------------

class HeisenbergDouble:
    """Smash-product algebra on B* (x) B; `yd` is attached by yd_structure."""

    __slots__ = ("ctx", "algebra", "base", "dual", "pairing", "yd")

    def __init__(self, ctx: QContext, algebra: FiniteAlgebra,
                 base: FiniteHopf, dual: FiniteHopf, pairing: HopfPairing):
        self.ctx = ctx
        self.algebra = algebra
        self.base = base
        self.dual = dual
        self.pairing = pairing
        self.yd: Optional[YDModuleAlgebra] = None

    @property
    def dim(self) -> int:
        return self.algebra.dim


def heisenberg_double(base: FiniteHopf, dual: Optional[FiniteHopf] = None,
                      pairing: Optional[HopfPairing] = None
                      ) -> HeisenbergDouble:
    """Smash product (alpha # a)(beta # b) = alpha (a' -> beta) # a'' b."""
    if dual is None:
        dual = dual_hopf(base)
        pairing = HopfPairing.canonical(dual, base)
    if pairing is None:
        raise ValueError("a presented dual needs its pairing")
    ctx = base.ctx
    P = pairing
    name = f"H({base.name}*)"

    rd, rb = dual.space.render, base.space.render
    labels = [(lf, lb) for lf in dual.space.labels for lb in base.space.labels]
    space = Space(name, labels,
                  render=lambda lab: f"{rd(lab[0])}#{rb(lab[1])}")

    def r_row(a: int, f: int) -> tuple:
        """R(a (x) f) = sum (a' -> f) (x) a''."""
        out = []
        for a1, a2, ca in base.comult.get(a):
            for fm, cm in P.dual_left(a1, f).items():
                c1 = ca * cm
                if c1:
                    out.append((fm, a2, c1))
        return tuple(out)

    tw = twisted_product(dual, base, r_row)
    algebra = FiniteAlgebra(ctx, space, tw.mult, tw.unit, generators=tw.gens,
                            name=name, twist=tw)
    return HeisenbergDouble(ctx, algebra, base, dual, P)


def eta_twist_product(D: DrinfeldDouble, Hd: HeisenbergDouble,
                      eta: Optional[Callable] = None,
                      name: str = "eta-twist") -> CheckResult:
    """H(B*) is D(B) with its product twisted by the cocycle

        eta(mu (x) m, nu (x) n) = <mu, 1> eps(n) <nu, m>,

    M ._eta N = M' N' eta(M'', N''), proved from R rows: equal factor
    tables and equal R rows (`hopf.check_same_twist`) of H(B*) and of
    B* (x)_{R_eta} B, with

        R_eta(m (x) g) = sum eta(1 (x) m'', g' (x) 1) R_D(m' (x) g''),

    R_D read from D(B)'s record (`results.twist_of`).  `eta(g, m)` gives
    eta(1 (x) m, g (x) 1) on basis vectors, or None for zero; by default
    <g, m> (`HopfPairing.pair_basis`).

    The lemma.  Write M = f (x) m and N = g (x) n.  D's coproduct is the
    tensor coalgebra of B*cop and B, so M' (x) M'' = (f'' (x) m') (x)
    (f' (x) m''), and likewise for N; then

        M ._eta N = sum (f'' (x) m')(g'' (x) n') <f', 1> eps(n'') <g', m''>
                  = sum (f (x) m')(g'' (x) n) <g', m''>,

    by the unit law <f', 1> = eps(f') of the pairing and the counit laws
    of B* and B.  By the formula of D(B)'s twisted product the right side
    is f R_eta(m (x) g) n, where f (a (x) b) n = fa (x) bn: the formula
    of B* (x)_{R_eta} B.  So equal factor tables and R rows give equal
    products, with no associativity or cocycle condition assumed.  The
    line walks, before the comparison, the tensor coalgebra of D
    (`_tensor_coalgebra`) and the unit law of its pairing
    (`hopf.pairing_counit_cases`), each an `results.obligation`; the
    counit laws are `hopf-axioms.taft-counit-laws` and
    `taft-dual-counit-laws`.
    """
    base, dual, P = D.base, D.dual, D.pairing
    eta = eta or P.pair_basis
    r_d = twist_of(D.hopf).r_row

    def r_eta(m: int, g: int) -> tuple:
        acc: dict = {}
        for m1, m2, cm in base.comult.get(m):
            for g1, g2, cg in dual.comult.get(g):
                w = eta(g1, m2)
                if w:
                    w = w * cm * cg
                    for a, b, c in r_d(m1, g2):
                        vadd_term(acc, (a, b), w * c)
        return tuple((a, b, c) for (a, b), c in acc.items())

    tw = twisted_product(dual, base, r_eta)
    twisted = FiniteAlgebra(D.ctx, D.hopf.space, tw.mult, tw.unit,
                            generators=tw.gens, name=f"{D.hopf.name}^eta",
                            twist=tw)
    return check_same_twist(twisted, Hd.algebra, name, chained(
        _tensor_coalgebra(D), obligation("pairing-counit", D.hopf,
                                         partial(pairing_counit_cases, P))))


# -- coaction and action of D(B) on H(B*) ------------------------------------

class FactoredAction(Action):
    """Action of D(B) on H(B*), assembled from its two factor actions,
    which are assembled from the four leg actions of D.

    (mu (x) m) acts as (mu (x) 1) after (eps (x) m), where

        (eps (x) m) |> (alpha # a) = (m' -> alpha) # m'' a S(m''')
        (mu (x) 1) |> (alpha # a) = mu''' alpha S*^{-1}(mu'')
                                      # (a <- S*^{-1}(mu'))

    On H(B*) = B* (x) B as a space, each factor row is a sum of tensor
    products of two leg actions over one coproduct:

        prim(m) = sum hit(m') (x) ad(m''),
        dual(f) = sum adF(f'') (x) rhit(f'),

    with the legs hit and ad over B, adF and rhit over B*, defined once
    per double by `DrinfeldDouble`.  The methods `hit`, `ad`, `adf` and
    `rhit` read D's leg tables; a subclass may override them, and its
    factor rows are then built from its own legs.  The factor rows and
    the action's own rows are memoized, as stored rows: tuples of shared
    (y, c) entries in the order in which the row was filled (see
    `sparse.shared_row`).  `module_factor_walk` proves the module law
    from these definitions.
    """

    __slots__ = ("double", "base", "dual", "_prim", "_dualrows")

    def __init__(self, Hd: HeisenbergDouble, D: DrinfeldDouble):
        super().__init__(D.hopf, Hd.algebra, self._row_fn)
        self.double = D
        self.base = D.base
        self.dual = D.dual
        self._prim: dict[int, Row] = {}
        self._dualrows: dict[int, Row] = {}

    def hit(self, m: int, alpha: int) -> Row:
        return self.double.hit(m, alpha)

    def ad(self, m: int, a: int) -> Row:
        return self.double.ad(m, a)

    def adf(self, f: int, alpha: int) -> Row:
        return self.double.adf(f, alpha)

    def rhit(self, f: int, a: int) -> Row:
        return self.double.rhit(f, a)

    def prim_row(self, m: int, x: int) -> Row:
        """(eps (x) e_m) |> e_x = sum hit(m') (x) ad(m'') e_x."""
        key = m * self.dim + x
        r = self._prim.get(key)
        if r is None:
            nB = self.base.dim
            alpha, a = divmod(x, nB)
            acc: Vec = {}
            for m1, m2, c in self.base.comult.get(m):
                left = self.hit(m1, alpha)
                if left:
                    vadd_outer(acc, c, left, self.ad(m2, a), nB)
            r = self._prim[key] = shared_row(acc)
        return r

    def dual_row(self, f: int, x: int) -> Row:
        """(e_f (x) 1) |> e_x = sum adF(f'') (x) rhit(f') e_x."""
        key = f * self.dim + x
        r = self._dualrows.get(key)
        if r is None:
            nB = self.base.dim
            alpha, a = divmod(x, nB)
            acc: Vec = {}
            for f1, f2, c in self.dual.comult.get(f):
                right = self.rhit(f1, a)
                if right:
                    vadd_outer(acc, c, self.adf(f2, alpha), right, nB)
            r = self._dualrows[key] = shared_row(acc)
        return r

    def _row_fn(self, h: int, x: int) -> Vec:
        """rho(f (x) m) e_x := (e_f (x) 1) |> ((eps (x) e_m) |> e_x); the
        module law of `module_factor_walk` rests on this definition."""
        f, m = divmod(h, self.base.dim)
        out: Vec = {}
        for xp, c in self.prim_row(m, x):
            vadd_into(out, self.dual_row(f, xp), c)
        return out


def yd_structure(Hd: HeisenbergDouble, D: DrinfeldDouble) -> YDModuleAlgebra:
    """Bundle the canonical action and coaction; attaches the result to Hd.

    The action is `FactoredAction`.  The coaction delta(beta # b) =
    (beta'' (x) b') (x) (beta' # b'') is, on B* (x) B, the coproduct of
    D(B), so its rows are `D.hopf.comult`'s.
    """
    if Hd.yd is None:
        Hd.yd = YDModuleAlgebra(
            D.hopf, Hd.algebra, FactoredAction(Hd, D),
            Coaction(D.hopf, Hd.algebra, D.hopf.comult.get),
            name=Hd.algebra.name)
    return Hd.yd


def _leg_defined(act) -> bool:
    """Whether `act` is a FactoredAction whose factor rows and own rows
    are the class's leg-defined ones (a subclass may override the legs)."""
    return isinstance(act, FactoredAction) and all(
        getattr(fn, "__func__", None) is own
        for fn, own in ((act.prim_row, FactoredAction.prim_row),
                        (act.dual_row, FactoredAction.dual_row),
                        (act._fn, FactoredAction._row_fn)))


def _require_factored(D: DrinfeldDouble, act) -> None:
    """A ValueError unless `act` is a leg-defined FactoredAction of
    `D.hopf` itself: the factor walks read the product and coproduct of
    D, and the laws must hold for those of the algebra that acts."""
    if not _leg_defined(act):
        raise ValueError("the factor walk needs a FactoredAction whose rows "
                         "are defined from its four leg actions")
    if act.hopf is not D.hopf:
        raise ValueError("the factor walk needs an action of D's own algebra")


def _factored_obligations(D: DrinfeldDouble, act: FactoredAction):
    """The body of the two facts that make the rows of `act` rho =
    (s1 (x) s2) Delta_D, with s1 = adF(f) hit(m) acting on B* and s2 =
    rhit(f) ad(m) on B, one case each, each an `results.obligation`:

    * the leg unit facts ad(m) 1 = eps(m) 1 and rhit(f) 1 = eps(f) 1 in
      B, and hit(m) eps = eps(m) eps and adF(f) eps = eps(f) eps in B*,
      for every basis m of B and f of B*, on `act`;
    * D's coproduct table is the tensor coalgebra of B*cop and B,
      Delta(f (x) m) = sum (f'' (x) m') (x) (f' (x) m''), on every basis
      vector (`_tensor_coalgebra_cases`), on D's algebra.

    By the first, rho(f (x) m)(alpha (x) 1) = s1(f (x) m) alpha (x) 1 and
    rho(f (x) m)(1 (x) a) = 1 (x) s2(f (x) m) a (with the counit laws of B
    and B*), since rho(f (x) m) = dual_row(f) prim_row(m) =
    sum adF(f'') hit(m') (x) rhit(f') ad(m''); by the second that sum is
    (s1 (x) s2) Delta_D(f (x) m)."""
    return chained(obligation("leg-units", act,
                              partial(_leg_unit_cases, D, act)),
                   _tensor_coalgebra(D))


def _leg_unit_cases(D: DrinfeldDouble, act: FactoredAction):
    base, dual = D.base, D.dual
    (ub,), (uf,) = base.unit, dual.unit
    for name, leg, A, u, V in (("ad", act.ad, base, ub, base),
                               ("rhit", act.rhit, dual, ub, base),
                               ("hit", act.hit, base, uf, dual),
                               ("adF", act.adf, dual, uf, dual)):
        for i in range(A.dim):
            eps = A.counit.get(i)
            yield (None if veq(dict(leg(i, u)), {u: eps} if eps else {})
                   else f"leg {name}: {name}(x) 1 != eps(x) 1 at "
                        f"x={A.space.label(i)}")


def _tensor_coalgebra(D: DrinfeldDouble):
    """The obligation that D's coproduct table is the tensor coalgebra of
    B*cop and B, one case per basis vector."""
    return obligation("tensor-coalgebra", D.hopf,
                      partial(_tensor_coalgebra_cases, D))


def _tensor_coalgebra_cases(D: DrinfeldDouble):
    base, dual = D.base, D.dual
    H, nB, d = D.hopf, base.dim, D.dim
    for key in range(d):
        f, b = divmod(key, nB)
        want: Vec = {}
        for f1, f2, cf in dual.comult.get(f):
            for b1, b2, cb in base.comult.get(b):
                vadd_term(want, (f2 * nB + b1) * d + f1 * nB + b2, cf * cb)
        yield (None if veq({j * d + k: c for j, k, c in H.comult.get(key)},
                           want)
               else f"Delta of {H.name} is not the tensor coalgebra of its "
                    f"factors at x={H.space.label(key)}")


def module_factor_walk(D: DrinfeldDouble, act: FactoredAction) -> Walk:
    """The walk on which `ydcat.check_module` proves that `act`, an action
    of D(B) = B*cop |><| B assembled from its two factor actions, is a
    module.

    D must be built by the formula of `hopf.twisted_product`: otherwise
    `results.twist_of` raises a ValueError, and nothing in this package
    calls `.set` on its `mult`.  Write f (x) 1 and 1 (x) m for f in B*cop
    and m in B, and inside X = H(B*), on the same basis,
    X1 = B* (x) 1 and X2 = 1 (x) B, and V for the 2 d_B basis vectors
    alpha (x) 1 and 1 (x) a that span them.  Let C_B be
    `results.coalgebra_closure(B)`: the basis indices of 1 and of the
    generators of B, closed under the legs of Delta, so their span is a
    subcoalgebra of B.  `check_module` walks, in order, and stops at the
    first failure:

    1. the unit law 1 |> x = x, for every x;
    2. (prelude) `results.normality_cases` of D, an obligation, which gives
       (f (x) 1)(1 (x) m) = f (x) m, (f (x) 1)(g (x) 1) = fg (x) 1 and
       (1 (x) m)(1 (x) n) = 1 (x) mn: D is built by the formula from a
       normal R;
    3. (prelude) the factor unit laws `act.prim_row(1, x)` = e_x and
       `act.dual_row(1, x)` = e_x, for x in V;
    4. (prelude) for each leg L of `act` -- hit and ad over B, adF and
       rhit over B*, which `FactoredAction` reads from the leg tables of
       `DrinfeldDouble` unless a subclass overrides them -- `check_module`
       on L: the unit law L(1) v = v and the law L(gh) v = L(g) L(h) v,
       for g over the generators of its algebra and h, v over the bases;
    5. (prelude) the leg unit facts and the tensor coalgebra of D
       (`_factored_obligations`);
    6. (prelude) every B-leg of (1 (x) c)(f (x) 1) lies in C_B, for c in
       C_B and every basis f;
    7. the law on (1 (x) c, g (x) 1, x), for c in C_B, g over the
       generators of B* and x in V;
    8. (certificate) `results.generation_failure` of B* and of B.

    The definitions of `FactoredAction` are part of the proof.  Its rows
    are rho(f (x) m) := dual_row(f) after prim_row(m), with factor rows
    prim(m) = sum hit(m') (x) ad(m'') and dual(f) = sum adF(f'') (x)
    rhit(f').  An action whose rows or factor rows are defined otherwise
    -- not a `FactoredAction`, or a subclass that overrides `prim_row`,
    `dual_row` or `_row_fn` -- is refused with a ValueError, since this
    walk does not check those definitions.  So is an action of an
    algebra other than `D.hopf`: 2, 5 and 6 read the product and the
    coproduct of D, and the law must hold for those of the algebra that
    acts.

    Proof that these give rho(hk) = rho(h) rho(k) on all of D.  The
    hypotheses are `hopf-axioms.taft-mult-associativity` and
    `taft-dual-mult-associativity` (B and B* are associative),
    `taft-comult-multiplicative` and `taft-dual-comult-multiplicative`
    (their Delta are algebra maps), `taft-counit-laws` and
    `taft-dual-counit-laws`, `ddouble-mult-associativity` and
    `ddouble-comult-multiplicative`.

    The two factors of X.  By 5, X1 and X2 are stable under prim_row,
    dual_row and so rho, and rho acts on them as s1 = adF hit on B* and
    s2 = rhit ad on B, with rho = (s1 (x) s2) Delta_D on X = B* (x) B
    (see `_factored_obligations`).  So rho is a module once s1 and s2
    are: with Delta_D multiplicative,

        rho(hk) = sum s1(h'k') (x) s2(h''k'')
                = sum s1(h') s1(k') (x) s2(h'') s2(k'') = rho(h) rho(k)

    (Montgomery, Hopf Algebras and Their Actions on Rings, CBMS 82, 1993,
    section 1.8).  What remains is the law on V: the argument below runs
    with x over the span of V, which is stable under every row it reads.
    With 3, (F) rho(f (x) m) = rho(f (x) 1) rho(1 (x) m) on it for every f
    and m, which by 2 is the law on (f (x) 1, 1 (x) m, x).

    The legs.  With B associative, {g : L(gh) = L(g) L(h) for all h} is
    a subalgebra of B, so by 4 and 8 each leg over B is a module, and
    likewise over B*.  A tensor product of two modules is a module when
    Delta is multiplicative:

        prim(mn) = sum hit(m'n') (x) ad(m''n'')
                 = sum hit(m') hit(n') (x) ad(m'') ad(n'') = prim(m) prim(n),

    and dual(fg) = dual(f) dual(g) the same way.  With 2 this is the law
    on (1 (x) b, 1 (x) m, x) and on (g (x) 1, f (x) 1, x) for every b,
    m, g, f and x: rho is multiplicative on each factor of D.

    The cross relation on C_B.  T' = {f in B* : rho((1 (x) c)(f (x) 1))
    = rho(1 (x) c) rho(f (x) 1) for every c in C_B} is a subspace that
    holds 1 and, by 7, the generators of B*.  It is closed under products:
    for f, g in T' and c in C_B, write (1 (x) c)(f (x) 1) =
    sum_i (f_i (x) 1)(1 (x) c_i) with c_i in C_B (by 2 and 6), and
    (1 (x) c_i)(g (x) 1) as sum_j (g_ij (x) 1)(1 (x) c_ij).  By
    D-associativity and 2, (1 (x) c)(fg (x) 1) = sum f_i g_ij (x) c_ij,
    and (F) with the B*-module law gives

        rho((1 (x) c)(fg (x) 1))
            = sum rho(f_i (x) 1) rho(g_ij (x) 1) rho(1 (x) c_ij)
            = sum rho(f_i (x) 1) rho(1 (x) c_i) rho(g (x) 1)    [g in T']
            = rho(1 (x) c) rho(f (x) 1) rho(g (x) 1)            [f in T']
            = rho(1 (x) c) rho(fg (x) 1).

    The second line needs c_i in C_B: that is why 6 is walked.  So T' =
    B* by 8.

    The cross relation on B.  T = {b in B : rho((1 (x) b)(f (x) 1)) =
    rho(1 (x) b) rho(f (x) 1) for every f} holds C_B, so 1 and the
    generators of B.  It is closed under products: for b, c in T write
    (1 (x) c)(f (x) 1) as sum_i (f_i (x) 1)(1 (x) c_i) and
    (1 (x) b)(f_i (x) 1) as sum_j (f_ij (x) 1)(1 (x) b_ij); associativity,
    2 and (F) give

        rho((1 (x) bc)(f (x) 1))
            = sum rho(f_ij (x) 1) rho(1 (x) b_ij) rho(1 (x) c_i)
            = sum rho(1 (x) b) rho(f_i (x) 1) rho(1 (x) c_i)
            = rho(1 (x) b) rho(1 (x) c) rho(f (x) 1).

    So T = B by 8.  Last, for h = f (x) m and k = g (x) n, the twisted
    product row formula hk = sum_i (f g_i (x) 1)(1 (x) m_i n), where
    (1 (x) m)(g (x) 1) = sum_i (g_i (x) 1)(1 (x) m_i), gives

        rho(hk) = sum rho(f (x) 1) rho(g_i (x) 1) rho(1 (x) m_i) rho(1 (x) n)
                = rho(f (x) 1) rho(1 (x) m) rho(g (x) 1) rho(1 (x) n)
                = rho(h) rho(k)

    on the span of V, that is s1 and s2 are modules.  The walk is
    labelled "generators".
    """
    _require_factored(D, act)
    base, dual, one = D.base, D.dual, D.ctx.one
    nB, nF = base.dim, dual.dim
    tw = twist_of(D.hopf)
    (uf,), (ub,) = tw.A.unit, tw.B.unit
    mult = D.hopf.mult
    left, right = tw.factor_indices()   # f (x) 1 and 1 (x) m, in D and X
    xs = left + right
    closure = coalgebra_closure(base)
    in_closure = set(closure)

    def products():
        wit = yield from obligation("r-normality", D.hopf,
                                    partial(normality_cases, D.hopf))
        if wit is not None:
            return wit
        for unit, row, factor in ((ub, act.prim_row, "B"),
                                  (uf, act.dual_row, "B*")):
            for x in xs:
                yield (None if veq(dict(row(unit, x)), {x: one})
                       else f"the unit of {factor} moves "
                            f"x={act.algebra.space.label(x)}")
        for name, A, V, leg in (("hit", base, dual, act.hit),
                                ("ad", base, base, act.ad),
                                ("adF", dual, dual, act.adf),
                                ("rhit", dual, base, act.rhit)):
            res = check_module(
                ModuleAlgebra(A, V, Action(A, V, leg)), name=name,
                walk=Walk("generators", itertools.product(
                    sorted(gen_indices(A)), range(A.dim), range(V.dim))))
            yield from counted(res.cases_checked, lambda: (
                None if res.ok else f"leg {name}: {res.witness}"))
        wit = yield from _factored_obligations(D, act)
        if wit is not None:
            return wit
        for c in closure:
            for f in range(nF):
                yield (None if all(k % nB in in_closure
                                   for k, _ in mult.get(right[c], left[f]))
                       else f"(1 (x) c)(f (x) 1) has a B-leg outside the "
                            f"coalgebra closure at c={base.space.label(c)}, "
                            f"f={dual.space.label(f)}")

    triples = ((right[c], left[g], x) for c in closure
               for g in sorted(gen_indices(dual)) for x in xs)
    return Walk("generators", triples, prelude=products(),
                certificate=lambda: (generation_failure(dual)
                                     or generation_failure(base)))


def module_algebra_factor_walk(D: DrinfeldDouble,
                               act: FactoredAction) -> Walk:
    """The walk on which `ydcat.check_module_algebra` proves the
    module-algebra law of `act`, the D(B)-action on X = H(B*) assembled
    from its two factor actions: `results.factor_pair_walk` on X with c
    over C = `results.coalgebra_closure(D)`, without the X1 x X2 pairs,
    with `_factored_obligations` in its prelude and D's generation
    certificate after its own.

    The X1 x X2 pairs follow from the definition of the rows: with rho =
    (s1 (x) s2) Delta_D and rho acting on X1 and X2 as s1 and s2 (the
    obligations), and (alpha (x) 1)(1 (x) a) = alpha (x) a (the prelude),

        c |> (alpha (x) a) = sum s1(c') alpha (x) s2(c'') a
                           = (c' |> (alpha (x) 1))(c'' |> (1 (x) a)).

    So the action must be a leg-defined `FactoredAction` of `D.hopf`,
    as for `module_factor_walk`, or a ValueError is raised.  Step D of
    the lemma reads associativity on g v w and on the products of
    c |> g, c |> v and c |> w, for g and v in X2: c |> X2 lies in X2 by
    the obligations, so `results.twisting_cases(X)` proves it.  The walk
    proves the law on C (see `factor_pair_walk`); the second step of
    `ydcat.check_module_algebra` carries it to all of D with D's
    certificate.  The hypotheses are `hopf-axioms.hdouble-mult-
    associativity`, `taft-mult-associativity`,
    `ddouble-comult-coassociativity`, `ddouble-comult-counit-unital`,
    `ddouble-comult-multiplicative`, `taft-counit-laws`,
    `taft-dual-counit-laws` and `yd.module-action`.
    """
    _require_factored(D, act)
    return factor_pair_walk(act.algebra, closure=coalgebra_closure(D.hopf),
                            mixed=False,
                            obligations=_factored_obligations(D, act),
                            certificate=partial(generation_failure, D.hopf))


def comodule_algebra_factor_walk(D: DrinfeldDouble, y) -> Walk:
    """The walk on which `ydcat.check_comodule_algebra` proves the
    comodule-algebra law of y, a D(B)-comodule algebra on X = H(B*):
    `results.factor_pair_walk` on X, with its obligations the normality
    of D's R, D's tensor coalgebra (`_tensor_coalgebra`) and
    `results.twisting_cases(D)`.  y must coact by D's own algebra, and
    X's factors must be D's, B* and B, or a ValueError is raised.

    When y's coaction is D's coproduct by definition -- a `Coaction`
    whose rows are read from `D.hopf.comult`, as `yd_structure` makes it
    -- the walk leaves out the X1 x X2 pairs.  With Delta(1) = 1 (x) 1 in
    B and in B*, the normality of both R and the tensor coalgebra,

        delta((alpha (x) 1)(1 (x) a)) = Delta_D(alpha (x) a)
            = sum (alpha'' (x) a') (x) (alpha' (x) a'')
            = sum (alpha'' (x) 1)(1 (x) a') (x) (alpha' (x) 1)(1 (x) a'')
            = delta(alpha (x) 1) delta(1 (x) a).

    Step D of the lemma then reads associativity on delta(g) delta(v)
    delta(w) and g v w for g and v in X2, and delta(X2) lies in
    (1 (x) B) (x) X2: `results.twisting_cases` of D and of X prove it.
    Any other coaction walks the X1 x X2 pairs, and step D rests on the
    hypotheses.  They are `hopf-axioms.ddouble-mult-associativity` and
    `hdouble-mult-associativity` (D (x) X and X associative),
    `taft-mult-associativity`, and `taft-comult-multiplicative` and
    `taft-dual-comult-multiplicative` (Delta(1) = 1 (x) 1).
    """
    X, coaction, H = y.algebra, y.coaction, D.hopf
    tw = twist_of(X)
    if y.hopf is not H:
        raise ValueError("the comodule factor walk needs a coaction of D's "
                         "own algebra")
    if tw.A is not D.dual or tw.B is not D.base:
        raise ValueError(f"{X.name} is not a twisted product of D's factors")

    obligations = chained(
        obligation("r-normality", H, partial(normality_cases, H)),
        _tensor_coalgebra(D),
        obligation("twisting", H, partial(twisting_cases, H)))
    coproduct = type(coaction) is Coaction and coaction._fn == H.comult.get
    return factor_pair_walk(X, mixed=not coproduct, obligations=obligations)


def check_double_identity(D: DrinfeldDouble) -> CheckResult:
    """(eps (x) (a <- S*^{-1}(mu''))) (mu' (x) 1) = mu'' (x) (S*^{-1}(mu') -> a)

    as elements of D(B), exhaustively over basis pairs (mu, a).
    """
    base, dual, P = D.base, D.dual, D.pairing
    nB, nF = base.dim, dual.dim
    one = D.ctx.one
    sinv = dual.antipode_inv()

    def case(f: int, a: int) -> Optional[str]:
        lhs: Vec = {}
        rhs: Vec = {}
        for u1, u2, cf in dual.comult.get(f):
            mid = D.rhit(u2, a)
            if mid:
                left = tensor_flat(dual.unit, dict(mid), nB)
                right = tensor_flat({u1: one}, base.unit, nB)
                vadd_into(lhs, D.hopf.mult.apply(left, right), cf)
            hit: Vec = {}
            for nu, cs in sinv.get(u1):
                vadd_into(hit, P.alg_left(nu, a), cs)
            vadd_into(rhs, hit, cf, u2 * nB)
        if veq(lhs, rhs):
            return None
        return (f"mu={dual.space.label(f)}, a={base.space.label(a)}: "
                f"the double identity fails")

    return run_check("double-identity", "exhaustive", itertools.starmap(
        case, itertools.product(range(nF), range(nB))))


# -- quasitriangularity ------------------------------------------------------

def check_quasitriangular(D: DrinfeldDouble,
                          intertwining) -> Iterator[CheckResult]:
    """The lines that make R = D.rmatrix() a quasitriangular structure on
    D(B) (Kassel, Quantum Groups, GTM 155, ch. IX), yielded one at a time:
    r-intertwine, R Delta(x) = Delta-op(x) R on the x of the walk
    `intertwining`; r-hexagon-1, (Delta (x) id)R = R13 R23; r-hexagon-2,
    (id (x) Delta)R = R13 R12; and r-inverse, (S (x) id)R = R^{-1}.

    `results.lemma_walk(D.hopf, 1)` proves intertwining from D(B)'s
    generators: the x that satisfy it form a subspace that holds 1 when
    Delta(1) = 1 (x) 1 (`ddouble-comult-counit-unital`) and is closed
    under products when Delta is multiplicative
    (`ddouble-comult-multiplicative`) and D(B) associative
    (`ddouble-mult-associativity`), as R Delta(xy) = Delta-op(x) R
    Delta(y) = Delta-op(xy) R; the walk's certificate then makes it all
    of D(B).

    The other three lines are corollaries of the Hopf pairing < , > of
    B* and B, labelled "generators".  Each walks, as obligations
    (`results.obligation`): the lines of `hopf.check_hopf_pairing` on D's
    pairing up to the product law it reads, on the lemma walks of B* and
    of B; then `_canonical_cases`, R = sum_I (1 (x) e_I) (x) (e^I (x) 1)
    with <e^I, e_J> = delta_IJ (the legs of `DrinfeldDouble.rmatrix`);
    then R-normality (`results.normality_cases`), which gives
    (1 (x) m)(1 (x) n) = 1 (x) mn and (f (x) 1)(g (x) 1) = fg (x) 1; then
    D's tensor coalgebra (`_tensor_coalgebra`) for a hexagon, or
    S_D(1 (x) b) = 1 (x) S(b) (`_base_antipode_cases`) for r-inverse.
    Each identity below is one of elements with legs in 1 (x) B and
    B* (x) 1; by pairing-nondegenerate a B*-leg is fixed by its pairings
    with B's basis, and sum_I e_I <e^I, x> = x for x in B.

    r-hexagon-1 (up to pairing-mult-vs-comult).  Delta_D(1 (x) m) =
    (1 (x) m') (x) (1 (x) m''), by the tensor coalgebra of B*cop and B
    and Delta(1) = 1 (x) 1 in B*; and R13 R23 = sum_{I,J} (1 (x) e_I)
    (x) (1 (x) e_J) (x) (e^I e^J (x) 1).  Paired with x on the third leg,

        sum_I Delta(e_I) <e^I, x> = Delta(x),
        sum_{I,J} e_I (x) e_J <e^I e^J, x>
            = sum_{I,J} e_I (x) e_J <e^I, x'><e^J, x''> = x' (x) x''.

    r-hexagon-2 (up to pairing-comult-vs-mult).  Delta_D(f (x) 1) =
    (f'' (x) 1) (x) (f' (x) 1), with Delta(1) = 1 (x) 1 in B; and
    R13 R12 = sum_{I,J} (1 (x) e_I e_J) (x) (e^J (x) 1) (x) (e^I (x) 1).
    Paired with y on the second leg and x on the third,

        sum_I e_I <e^I'', y><e^I', x> = sum_I e_I <e^I, xy> = xy,
        sum_{I,J} e_I e_J <e^J, y><e^I, x> = xy.

    r-inverse (up to pairing-mult-vs-comult).  (S_D (x) id)R =
    sum_J (1 (x) S(e_J)) (x) (e^J (x) 1), so R (S_D (x) id)R =
    sum_{I,J} (1 (x) e_I S(e_J)) (x) (e^I e^J (x) 1), whose second leg
    paired with x gives sum e_I S(e_J) <e^I, x'><e^J, x''> = x' S(x'') =
    eps(x) 1; so does 1 (x) 1, as <1*, x> = eps(x)
    (pairing-units-antipode).  (S_D (x) id)R R gives S(x') x'' = eps(x) 1.

    The hypotheses are `hopf-axioms.taft-mult-associativity` and
    `taft-dual-mult-associativity`, `taft-comult-coassociativity` and
    `taft-dual-comult-coassociativity` (the pairing lemmas, with
    `taft-counit-laws` and `taft-dual-counit-laws`),
    `taft-comult-counit-unital` and `taft-dual-comult-counit-unital`
    (Delta(1) = 1 (x) 1), and `taft-antipode-convolution`.
    """
    H = D.hopf
    d = H.dim
    R = D.rmatrix()

    def intertwines(x: int) -> Optional[str]:
        row = H.comult.get(x)
        dvec = {j * d + k: c for j, k, c in row}
        dop = {k * d + j: c for j, k, c in row}
        if veq(pair_product(H, R, dvec), pair_product(H, dop, R)):
            return None
        return f"R Delta(x) != Delta-op(x) R at x={H.space.label(x)}"

    yield intertwining.over((d,), (gen_indices(H),)).check(
        "r-intertwine", intertwines)
    for name, last, own in (
            ("r-hexagon-1", "pairing-mult-vs-comult", _tensor_coalgebra(D)),
            ("r-hexagon-2", "pairing-comult-vs-mult", _tensor_coalgebra(D)),
            ("r-inverse", "pairing-mult-vs-comult",
             obligation("base-antipode", H,
                        partial(_base_antipode_cases, D)))):
        yield run_check(name, "generators", _r_corollary(D, last, own))


def _r_corollary(D: DrinfeldDouble, last: str, own) -> Iterator:
    """The body of an R line read off the pairing (`check_quasitriangular`):
    the lines of `hopf.check_hopf_pairing` on D's pairing up to `last`,
    each counting its cases, then the obligations `_canonical_cases` and
    R-normality on D, then `own`."""
    P, H = D.pairing, D.hopf
    for res in check_hopf_pairing(P, lemma_walk(P.dual, 3),
                                  lemma_walk(P.alg, 3)):
        wit = res.witness and f"[{res.name}] {res.witness}"
        if res.cases_checked:
            yield from counted(res.cases_checked, lambda: wit)
        if wit or res.name == last:
            break
    for step in (obligation("r-canonical", H, partial(_canonical_cases, D)),
                 obligation("r-normality", H, partial(normality_cases, H)),
                 own):
        if wit is None:
            wit = yield from step
    return wit


def _canonical_cases(D: DrinfeldDouble) -> Iterator:
    """The body of the obligation that R = D.rmatrix() is the canonical
    element of D's pairing P: counting no case, D's factors are P's and
    every term of R lies in (1 (x) B) (x) (B* (x) 1); then one case per
    basis vector e_I of B, that the B*-leg e^I beside 1 (x) e_I pairs
    with B's basis as <e^I, e_J> = delta_IJ."""
    P, tw, base = D.pairing, twist_of(D.hopf), D.base
    if tw.A is not P.dual or tw.B is not P.alg:
        return (f"{D.hopf.name} is not a twisted product of its pairing's "
                "factors")
    (uf,), (ub,) = tw.A.unit, tw.B.unit
    legs: dict = {}
    for key, c in sorted(D.rmatrix().items()):
        (f1, b), (f, b2) = (divmod(k, base.dim) for k in divmod(key, D.dim))
        if (f1, b2) != (uf, ub):
            return (f"R has a term outside (1 (x) B) (x) (B* (x) 1) at "
                    f"{D.hopf.space.label(key // D.dim)} (x) "
                    f"{D.hopf.space.label(key % D.dim)}")
        legs.setdefault(b, {})[f] = c
    for i in range(base.dim):
        got: Vec = {}
        for f, c in legs.get(i, {}).items():
            vadd_into(got, P.rows.get(f, ()), c)
        yield (None if veq(got, {i: D.ctx.one})
               else f"sum_J <e^I, e_J> e_J = {render_element(base.space, got)}"
                    f" != e_I at I={base.space.label(i)}")


def _base_antipode_cases(D: DrinfeldDouble) -> Iterator:
    """S_D(1 (x) b) = 1 (x) S(b), one case per basis vector b of B."""
    H, base = D.hopf, D.base
    right = twist_of(H).factor_indices()[1]
    for b in range(base.dim):
        want = {right[s]: c for s, c in base.antipode.get(b)}
        yield (None if veq(dict(H.antipode.get(right[b])), want)
               else f"S(1 (x) b) != 1 (x) S(b) at b={base.space.label(b)}")


# -- quantum commutativity remarks -------------------------------------------

def check_quantum_comm_remarks(D: DrinfeldDouble, Hd: HeisenbergDouble,
                               r_walk, rinv_walk
                               ) -> tuple[CheckResult, CheckResult]:
    """Two R-matrix forms of commutativity on the (y, x) basis pairs of
    H(B*) of `r_walk` and `rinv_walk`, with its generator indices in both.

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
    gx = gen_indices(alg)

    def r_comm(iy: int, ix: int) -> Optional[str]:
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
            for xp, cx in v2:
                c1 = c * cx
                for yp, cy in v1:
                    vadd_into(rhs, alg.mult.get(xp, yp), c1 * cy)
        if veq(lhs, rhs):
            return None
        return (f"y={alg.space.label(iy)}, x={alg.space.label(ix)}: yx = "
                f"{render_element(alg.space, lhs)} but "
                f"(R2|>x)(R1|>y) = {render_element(alg.space, rhs)}")

    res1 = invert_expected_failure(
        r_walk.over((dX, dX), (gx, gx)).check("__rcomm", r_comm),
        "r-comm-negative")
    sD = H.antipode
    sinvD = H.antipode_inv()

    def rinv_comm(iy: int, ix: int) -> Optional[str]:
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
                    for xp, cx in r:
                        vadd_into(rhs2, alg.mult.get(xp, y0), c2 * cx)
        if veq(lhs, rhs2):
            return None
        return (f"y={alg.space.label(iy)}, x={alg.space.label(ix)}: the inverse-R "
                f"form of braided commutativity fails")

    return res1, rinv_walk.over((dX, dX), (gx, gx)).check(
        "rinv-braided-comm", rinv_comm)


# -- the two factors as YD module algebras ------------------------------------

def factor_structures(yd: YDModuleAlgebra
                      ) -> tuple[YDModuleAlgebra, YDModuleAlgebra]:
    """B^{*cop} and B as YD D(B)-module algebras: the restrictions of
    H(B*)'s structure `yd` to its factors B* (x) 1 and 1 (x) B (Majid,
    Foundations of Quantum Group Theory, CUP 1995, ch. 9).

    The algebras are B*'s and B's own tables, f -> f (x) 1 and
    m -> 1 (x) m being algebra maps (`results.normality_cases`).  Each
    action and coaction row is yd's row on the embedded basis vector,
    re-indexed through `twist_of(yd.algebra).factor_indices()`; a leg
    outside the factor raises a ValueError that names it, and
    `check_factor_restrictions` certifies that none does.
    """
    X, H, tw = yd.algebra, yd.hopf, twist_of(yd.algebra)

    def restriction(f, name: str, embed: list) -> YDModuleAlgebra:
        alg = FiniteAlgebra(f.ctx, f.space, f.mult, f.unit,
                            generators=f.generators, name=name)
        index = {x: v for v, x in enumerate(embed)}

        def inside(x: int, v: int, h: Optional[int] = None) -> int:
            if x in index:
                return index[x]
            row = (f"delta({f.space.label(v)})" if h is None
                   else f"{H.space.label(h)} |> {f.space.label(v)}")
            raise ValueError(f"{row} has the leg {X.space.label(x)} "
                             f"outside {name}")

        def act(h: int, v: int) -> Vec:
            return {inside(x, v, h): c for x, c in yd.action.row(h, embed[v])}

        def coact(v: int) -> tuple:
            return tuple(sorted((h, inside(x, v), c)
                                for h, x, c in yd.coaction.terms(embed[v])))

        return YDModuleAlgebra(H, alg, Action(H, alg, act),
                               Coaction(H, alg, coact), name=name)

    left, right = tw.factor_indices()
    return (restriction(tw.A, f"{tw.A.name}(cop)", left),
            restriction(tw.B, tw.B.name, right))


def check_factor_restrictions(yd: YDModuleAlgebra) -> list[CheckResult]:
    """The restriction certificates of the two `factor_structures(yd)`,
    labelled "generators": the lines dual-factor-braided-commutative and
    base-factor-braided-commutative.

    For a factor S of X = H(B*), one case per row reads the action rows
    g |> s, g over the declared generator indices of H = D(B) and s over
    S's basis, then the coaction rows delta(s); a leg outside S fails it.
    The prelude, the normality of H(B*)'s R, makes S a subalgebra holding
    1, and the certificate `generation_failure(H)` makes S stable under
    H: {h : h |> S in S} holds 1 and the generators and is closed under
    products by the module law.  S is then a YD sub-module algebra of X.

    Lemma 1: such an S is braided commutative when X is: for s, t in S,
    st = (s_(-1) |> t) s_(0) holds in X, and both sides lie in S.

    Lemma 2 (`locked-identity`): with Y = B* (x) 1 and Z = 1 (x) B,
    c_{Z,Y} c_{Y,Z} = id on Y (x) Z.  For y in Y and z in Z, braided
    commutativity of X gives yz = sum z'y' with sum z' (x) y' =
    c_{Y,Z}(y (x) z) in Z (x) Y, and again z'y' = m(c_{Z,Y}(z' (x) y')),
    m the product: m(c_{Z,Y} c_{Y,Z}(y (x) z)) = yz = m(y (x) z), and by
    R-normality m, y (x) z -> yz, is a bijection from Y (x) Z onto X.

    Lemma 3 (`braided-symmetric`): c_{Z,Y} is the explicit inverse
    c^{-1}(z (x) y) = y_(0) (x) (S^{-1}(y_(-1)) |> z).  That formula is a
    left inverse of c_{Y,Z} by the coassociativity and counit law of the
    coaction, the module law and S^{-1}(h'') h' = eps(h) 1, and so is
    c_{Z,Y} by lemma 2; a map with a left inverse between spaces of one
    finite dimension is bijective, so both are c_{Y,Z}^{-1}.

    The lemmas rest on `yd.braided-commutative`, proved at every p,
    `yd.module-action`, `yd.comodule-coaction` and D(B)'s antipode laws;
    lemmas 2 and 3 on both certificates (`truncate.transport_corollaries`).
    """
    H, X = yd.hopf, yd.algebra

    def outside(read, *args) -> Optional[str]:
        try:
            read(*args)
        except ValueError as leg:       # a leg outside the factor
            return str(leg)
        return None

    return [Walk("generators", itertools.chain(
                ((f.action.row, g, s) for g in sorted(gen_indices(H))
                 for s in range(f.dim)),
                ((f.coaction.terms, s) for s in range(f.dim))),
                 prelude=obligation("r-normality", X,
                                    partial(normality_cases, X)),
                 certificate=partial(generation_failure, H)).check(
                f"{side}-factor-braided-commutative", outside)
            for side, f in zip(("dual", "base"), factor_structures(yd))]


# -- alternating chains -------------------------------------------------------

def heisenberg_chain(yd: YDModuleAlgebra, n: int) -> BraidedProductAlgebra:
    """Alternating braided product of the factors B^{*cop} and B of
    H(B*)'s structure `yd` (`factor_structures`), n >= 1 factors long,
    with B^{*cop} in position 0; for n = 2 it has H(B*)'s products.
    """
    dual_yd, base_yd = factor_structures(yd)
    mods = [base_yd if i % 2 else dual_yd for i in range(n)]
    return chain_product(mods, name=f"chain({base_yd.name}, n={n})")


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
    base, dual = D.base, D.dual
    nB, nF = base.dim, dual.dim
    one = D.ctx.one
    alg = bp.yd.algebra
    mult = alg.mult
    base_sinv = base.antipode_inv()
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

    def family(name: str, positions, nx: int, ny: int, rhs_fn, labels
               ) -> CheckResult:
        """lhs = x[i] y[j] against rhs_fn(i, j, x, y) over every position
        pair (i, j) and basis pair (x, y)."""
        return run_check(f"{prefix}-{name}", "exhaustive", (
            None if veq(mult.apply(emb(i, x), emb(j, y)), rhs_fn(i, j, x, y))
            else f"positions ({i},{j}): {labels(x, y)}"
            for (i, j), x, y in itertools.product(positions, range(nx),
                                                  range(ny))))

    def mixed(ip: int, jd: int, b: int, f: int) -> Vec:
        rhs: Vec = {}
        for b1, b2, cb in base.comult.get(b):
            for fm, cm in D.hit(b1, f):
                vadd_into(rhs, mult.apply(emb(jd, fm), emb(ip, b2)), cb * cm)
        return rhs

    def dual_straighten(i1: int, j2: int, fa: int, fb: int) -> Vec:
        """sum adF(alpha'')(beta)[j] alpha'[i]."""
        rhs: Vec = {}
        for u1, u2, c in dual.comult.get(fa):
            inner = dict(D.adf(u2, fb))
            if inner:
                vadd_into(rhs, mult.apply(embv(j2, inner), emb(i1, u1)), c)
        return rhs

    def primal_straighten(i1: int, j2: int, a: int, b: int) -> Vec:
        """sum ad(a')(b)[j] a''[i]."""
        rhs: Vec = {}
        for a1, a2, c in base.comult.get(a):
            inner = dict(D.ad(a1, b))
            if inner:
                vadd_into(rhs, mult.apply(embv(j2, inner), emb(i1, a2)), c)
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
        family("mixed", [(i, j) for i in prim_pos for j in dual_pos], nB, nF,
            mixed,
            lambda b, f: f"b={base.space.label(b)}, beta={dual.space.label(f)}"),
        family("dual-straighten", ordered(dual_pos, int.__ge__), nF, nF,
            dual_straighten,
            lambda fa, fb: (f"alpha={dual.space.label(fa)}, "
                            f"beta={dual.space.label(fb)}")),
        family("primal-straighten", ordered(prim_pos, int.__ge__), nB, nB,
            primal_straighten,
            lambda a, b: f"a={base.space.label(a)}, b={base.space.label(b)}"),
        family("dual-straighten-inverse", ordered(dual_pos, int.__le__), nF, nF,
            dual_straighten_inverse,
            lambda fb, fa: (f"beta={dual.space.label(fb)}, "
                            f"alpha={dual.space.label(fa)}")),
        family("primal-straighten-inverse", ordered(prim_pos, int.__le__), nB, nB,
            primal_straighten_inverse,
            lambda b, a: f"b={base.space.label(b)}, a={base.space.label(a)}"),
    ]
