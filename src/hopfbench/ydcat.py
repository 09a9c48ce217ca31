"""Module algebras, comodule algebras, and Yetter-Drinfeld structure checks.

A Hopf algebra H acts and coacts on various algebras in what follows.  This
module packages the three layers generically:

* `Action` / `Coaction` wrap lazy structure maps H (x) X -> X and
  X -> H (x) X with memoized basis rows, so repeated checks share work.
* `ModuleAlgebra`, `ComoduleAlgebra`, `YDModuleAlgebra` bundle an algebra
  with its action/coaction data; checks consume the bundles.
* For a Yetter-Drinfeld module algebra the induced braiding
  c(x (x) y) = (x_(-1) |> y) (x) x_(0) is available row-by-row, along with
  its inverse, braided commutativity / symmetry tests, the "locked" double
  braiding identity, and braided (smash-like) products of YD algebras with
  the diagonal action and codiagonal coaction.

Checks run in one of three modes: "exhaustive" walks every index tuple,
"generators" walks declared generator indices in the acted/coacted slots
(plus a seeded random sample over the full basis as a guard), and "sample"
draws seeded random tuples only.  Failures report the lexicographically
smallest witness in exhaustive mode and the first one found otherwise.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .hopf import FiniteAlgebra, FiniteHopf, render_element, tensor_flat
from .results import Check, CheckResult
from .sparse import (BilinearMap, LinearMap, Space, Vec, colinear_apply,
                     vadd_into, vadd_outer, vadd_term, veq)

__all__ = [
    "Action",
    "Coaction",
    "ModuleAlgebra",
    "ComoduleAlgebra",
    "YDModuleAlgebra",
    "BraidedProductAlgebra",
    "check_module",
    "check_module_algebra",
    "check_comodule",
    "check_comodule_algebra",
    "check_yd",
    "braiding_row",
    "braiding_inv_row",
    "check_braiding_inverse",
    "check_braided_commutative",
    "check_braided_symmetric",
    "check_locked_identity",
    "braided_product",
    "chain_product",
    "flip_isomorphism",
    "yang_baxter_check",
    "check_rebracketing",
    "check_factor_embeddings",
]


# -- actions and coactions ---------------------------------------------------

class Action:
    """Left action of a Hopf algebra on an algebra, by memoized basis rows.

    `fn(h, x)` must return the vector h |> e_x as a dict.  Rows are cached
    under the flat key h * dim_X + x.
    """

    __slots__ = ("hopf", "algebra", "_fn", "_rows")

    def __init__(self, hopf: FiniteHopf, algebra, fn: Callable[[int, int], Vec]):
        self.hopf = hopf
        self.algebra = algebra
        self._fn = fn
        self._rows: dict[int, Vec] = {}

    @classmethod
    def trivial(cls, hopf: FiniteHopf, algebra) -> "Action":
        """h |> x = counit(h) x."""
        counit = hopf.counit

        def fn(h: int, x: int) -> Vec:
            c = counit.get(h)
            return {x: c} if c else {}

        return cls(hopf, algebra, fn)

    def row(self, h: int, x: int) -> Vec:
        key = h * self.algebra.dim + x
        r = self._rows.get(key)
        if r is None:
            r = self._fn(h, x)
            self._rows[key] = r
        return r

    def apply(self, hv: Vec, xv: Vec) -> Vec:
        out: Vec = {}
        for h, ch in hv.items():
            for x, cx in xv.items():
                c = ch * cx
                if c:
                    vadd_into(out, self.row(h, x), c)
        return out


class Coaction:
    """Left coaction X -> H (x) X, by memoized rows of (h, x, coeff) terms."""

    __slots__ = ("hopf", "algebra", "_fn", "_rows")

    def __init__(self, hopf: FiniteHopf, algebra, fn: Callable[[int], tuple]):
        self.hopf = hopf
        self.algebra = algebra
        self._fn = fn
        self._rows: dict[int, tuple] = {}

    @classmethod
    def trivial(cls, hopf: FiniteHopf, algebra) -> "Coaction":
        """x -> 1_H (x) x."""
        unit_terms = tuple(sorted(hopf.unit.items()))

        def fn(x: int) -> tuple:
            return tuple((h, x, c) for h, c in unit_terms)

        return cls(hopf, algebra, fn)

    def terms(self, x: int) -> tuple:
        r = self._rows.get(x)
        if r is None:
            r = tuple(self._fn(x))
            self._rows[x] = r
        return r

    def apply(self, xv: Vec) -> Vec:
        """Flat image in H (x) X, keyed h * dim_X + x."""
        return colinear_apply(self.terms, xv, self.algebra.dim)


# -- bundles -----------------------------------------------------------------

@dataclass
class ModuleAlgebra:
    hopf: FiniteHopf
    algebra: FiniteAlgebra
    action: Action
    name: str = ""


@dataclass
class ComoduleAlgebra:
    hopf: FiniteHopf
    algebra: FiniteAlgebra
    coaction: Coaction
    name: str = ""


@dataclass
class YDModuleAlgebra:
    """An algebra carrying both an action and a coaction of the same H."""

    hopf: FiniteHopf
    algebra: FiniteAlgebra
    action: Action
    coaction: Coaction
    name: str = ""

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def module(self) -> ModuleAlgebra:
        return ModuleAlgebra(self.hopf, self.algebra, self.action, self.name)

    def comodule(self) -> ComoduleAlgebra:
        return ComoduleAlgebra(self.hopf, self.algebra, self.coaction, self.name)


@dataclass
class BraidedProductAlgebra:
    """Iterated braided product; `yd` holds the product YD structure.

    `embeddings[i]` maps a vector of factor i into the product algebra.
    Factor order matches the left-to-right construction order.
    """

    factors: tuple
    yd: YDModuleAlgebra
    embeddings: tuple
    name: str = ""

    @property
    def algebra(self) -> FiniteAlgebra:
        return self.yd.algebra

    @property
    def dim(self) -> int:
        return self.yd.algebra.dim

    def embed(self, pos: int, v: Vec) -> Vec:
        return self.embeddings[pos](v)


# -- mode handling -----------------------------------------------------------

def _gen_indices(obj) -> Optional[set]:
    """Indices touched by declared generators, or None when undeclared."""
    gens = getattr(obj, "generators", None)
    if not gens:
        return None
    idx: set = set()
    for g in gens:
        idx.update(g.keys())
    return idx


def _iter_tuples(mode: str, dims: tuple, gen_sets: tuple, rng, samples: int):
    if mode == "exhaustive":
        return itertools.product(*[range(d) for d in dims])
    if mode == "generators":
        ranges = [sorted(g) if g is not None else range(d)
                  for d, g in zip(dims, gen_sets)]
        head = itertools.product(*ranges)
        tail = (tuple(rng.randrange(d) for d in dims) for _ in range(samples))
        return itertools.chain(head, tail)
    if mode == "sample":
        return (tuple(rng.randrange(d) for d in dims) for _ in range(samples))
    raise ValueError(f"unknown check mode: {mode!r}")


def _mode_tag(mode: str, seed: int, samples: int) -> str:
    if mode == "exhaustive":
        return "exhaustive"
    if mode == "generators":
        return f"generators+sample(n={samples},seed={seed})"
    return f"sample(n={samples},seed={seed})"


def _lab(space: Space, i: int) -> str:
    return space.render(space.labels[i])


# -- module / comodule checks ------------------------------------------------

def check_module(m, mode: str = "exhaustive", seed: int = 0,
                 samples: int = 10_000, name: str = "module-action") -> CheckResult:
    """Unit law 1 |> x = x (always exhaustive) and (MN) |> x = M |> (N |> x)."""
    H, alg, act = m.hopf, m.algebra, m.action
    chk = Check(name, _mode_tag(mode, seed, samples))
    for x in range(alg.dim):
        chk.cases += 1
        if not veq(act.apply(H.unit, {x: H.ctx.one}), {x: H.ctx.one}):
            return chk.result(f"1 |> {_lab(alg.space, x)} != itself")
    gh = _gen_indices(H)
    rng = random.Random(seed)
    for hm, hn, x in _iter_tuples(mode, (H.dim, H.dim, alg.dim),
                                  (gh, gh, None), rng, samples):
        chk.cases += 1
        lhs: Vec = {}
        for k, c in H.mult.get(hm, hn):
            vadd_into(lhs, act.row(k, x), c)
        inner = act.row(hn, x)
        rhs: Vec = {}
        for xp, c in inner.items():
            vadd_into(rhs, act.row(hm, xp), c)
        if not veq(lhs, rhs):
            return chk.result(
                f"M={_lab(H.space, hm)}, N={_lab(H.space, hn)}, "
                f"x={_lab(alg.space, x)}: (MN)|>x = {render_element(alg.space, lhs)} "
                f"but M|>(N|>x) = {render_element(alg.space, rhs)}")
    return chk.result()


def check_module_algebra(m, mode: str = "exhaustive", seed: int = 0,
                         samples: int = 10_000,
                         name: str = "module-algebra") -> CheckResult:
    """M |> (xy) = (M' |> x)(M'' |> y), plus M |> 1 = counit(M) 1."""
    H, alg, act = m.hopf, m.algebra, m.action
    chk = Check(name, _mode_tag(mode, seed, samples))
    one = H.ctx.one
    for h in range(H.dim):
        chk.cases += 1
        lhs = act.apply({h: one}, alg.unit)
        eps = H.counit.get(h)
        rhs = {k: eps * c for k, c in alg.unit.items()} if eps else {}
        rhs = {k: c for k, c in rhs.items() if c}
        if not veq(lhs, rhs):
            return chk.result(f"M={_lab(H.space, h)}: M|>1 != counit(M) 1")
    gh = _gen_indices(H)
    ga = _gen_indices(alg)
    rng = random.Random(seed)
    for h, x, y in _iter_tuples(mode, (H.dim, alg.dim, alg.dim),
                                (gh, ga, ga), rng, samples):
        chk.cases += 1
        lhs: Vec = {}
        for z, cz in alg.mult.get(x, y):
            vadd_into(lhs, act.row(h, z), cz)
        rhs: Vec = {}
        for h1, h2, cd in H.comult.get(h):
            r1 = act.row(h1, x)
            if not r1:
                continue
            r2 = act.row(h2, y)
            if not r2:
                continue
            for xp, cx in r1.items():
                c1 = cd * cx
                for yp, cy in r2.items():
                    vadd_into(rhs, alg.mult.get(xp, yp), c1 * cy)
        if not veq(lhs, rhs):
            return chk.result(
                f"M={_lab(H.space, h)}, x={_lab(alg.space, x)}, "
                f"y={_lab(alg.space, y)}: M|>(xy) = {render_element(alg.space, lhs)} "
                f"but (M'|>x)(M''|>y) = {render_element(alg.space, rhs)}")
    return chk.result()


def check_comodule(c, name: str = "comodule-coaction") -> CheckResult:
    """Counit law and coassociativity of the coaction (always exhaustive)."""
    H, alg, coact = c.hopf, c.algebra, c.coaction
    chk = Check(name, "exhaustive")
    dH, dX = H.dim, alg.dim
    for x in range(dX):
        chk.cases += 1
        acc: Vec = {}
        for h, x0, cc in coact.terms(x):
            eps = H.counit.get(h)
            if eps is not None:
                vadd_term(acc, x0, eps * cc)
        if not veq(acc, {x: H.ctx.one}):
            return chk.result(f"(counit (x) id) delta({_lab(alg.space, x)}) != it")
    for x in range(dX):
        chk.cases += 1
        lhs: Vec = {}
        for h, x0, cc in coact.terms(x):
            for h1, h2, cd in H.comult.get(h):
                vadd_term(lhs, (h1 * dH + h2) * dX + x0, cc * cd)
        rhs: Vec = {}
        for h, x0, cc in coact.terms(x):
            for h2, x00, c2 in coact.terms(x0):
                vadd_term(rhs, (h * dH + h2) * dX + x00, cc * c2)
        if not veq(lhs, rhs):
            return chk.result(f"coaction not coassociative at x={_lab(alg.space, x)}")
    return chk.result()


def check_comodule_algebra(c, mode: str = "exhaustive", seed: int = 0,
                           samples: int = 10_000,
                           name: str = "comodule-algebra") -> CheckResult:
    """delta(xy) = delta(x) delta(y) and delta(1) = 1 (x) 1."""
    H, alg, coact = c.hopf, c.algebra, c.coaction
    chk = Check(name, _mode_tag(mode, seed, samples), cases=1)
    dX = alg.dim
    if not veq(coact.apply(alg.unit), tensor_flat(H.unit, alg.unit, dX)):
        return chk.result("delta(1) != 1 (x) 1")
    ga = _gen_indices(alg)
    rng = random.Random(seed)
    for x, y in _iter_tuples(mode, (dX, dX), (ga, ga), rng, samples):
        chk.cases += 1
        lhs = coact.apply(dict(alg.mult.get(x, y)))
        rhs: Vec = {}
        for h1, x0, c1 in coact.terms(x):
            for h2, y0, c2 in coact.terms(y):
                c12 = c1 * c2
                rh = H.mult.get(h1, h2)
                if not rh:
                    continue
                rx = alg.mult.get(x0, y0)
                if not rx:
                    continue
                vadd_outer(rhs, c12, rh, rx, dX)
        if not veq(lhs, rhs):
            return chk.result(f"x={_lab(alg.space, x)}, y={_lab(alg.space, y)}: "
                              f"delta(xy) != delta(x) delta(y)")
    return chk.result()


def check_yd(y, mode: str = "exhaustive", seed: int = 0,
             samples: int = 10_000, name: str = "yd-condition") -> CheckResult:
    """Compatibility of action and coaction:

        (M' |> A)_(-1) M'' (x) (M' |> A)_(0)  =  M' A_(-1) (x) (M'' |> A_(0)).
    """
    H, alg = y.hopf, y.algebra
    act, coact = y.action, y.coaction
    chk = Check(name, _mode_tag(mode, seed, samples))
    dH, dX = H.dim, alg.dim
    gh = _gen_indices(H)
    rng = random.Random(seed)
    for m, a in _iter_tuples(mode, (dH, dX), (gh, None), rng, samples):
        chk.cases += 1
        lhs: Vec = {}
        for m1, m2, cd in H.comult.get(m):
            r = act.row(m1, a)
            if not r:
                continue
            for ap, ca in r.items():
                c1 = cd * ca
                for h, a0, cc in coact.terms(ap):
                    c2 = c1 * cc
                    if not c2:
                        continue
                    for hh, ch in H.mult.get(h, m2):
                        vadd_term(lhs, hh * dX + a0, c2 * ch)
        rhs: Vec = {}
        for h, a0, cc in coact.terms(a):
            for m1, m2, cd in H.comult.get(m):
                c1 = cc * cd
                rh = H.mult.get(m1, h)
                if not rh:
                    continue
                r = act.row(m2, a0)
                if not r:
                    continue
                vadd_outer(rhs, c1, rh, r, dX)
        if not veq(lhs, rhs):
            return chk.result(f"M={_lab(H.space, m)}, A={_lab(alg.space, a)}: "
                              f"YD compatibility fails")
    return chk.result()


# -- the braiding ------------------------------------------------------------

def braiding_row(u_mod: YDModuleAlgebra, v_mod: YDModuleAlgebra,
                 i: int, j: int) -> Vec:
    """c(e_i (x) e_j) = (u_(-1) |> e_j) (x) u_(0), flat over V (x) U."""
    if u_mod.hopf is not v_mod.hopf:
        raise ValueError("braiding needs both modules over the same Hopf algebra")
    du = u_mod.algebra.dim
    out: Vec = {}
    for h, u0, c in u_mod.coaction.terms(i):
        for vp, cv in v_mod.action.row(h, j).items():
            vadd_term(out, vp * du + u0, c * cv)
    return out


def braiding_inv_row(u_mod: YDModuleAlgebra, v_mod: YDModuleAlgebra,
                     j: int, i: int) -> Vec:
    """c^{-1}(e_j (x) e_i) = u_(0) (x) (S^{-1}(u_(-1)) |> e_j), flat over U (x) V.

    Here j indexes V and i indexes U (the input lives in V (x) U).
    """
    if u_mod.hopf is not v_mod.hopf:
        raise ValueError("braiding needs both modules over the same Hopf algebra")
    H = u_mod.hopf
    sinv = H.antipode_inv()
    dv = v_mod.algebra.dim
    out: Vec = {}
    for h, u0, c in u_mod.coaction.terms(i):
        for hs, cs in sinv.get(h):
            c1 = c * cs
            if not c1:
                continue
            vadd_into(out, v_mod.action.row(hs, j), c1, u0 * dv)
    return out


def check_braiding_inverse(u_mod: YDModuleAlgebra, v_mod: YDModuleAlgebra,
                           mode: str = "exhaustive", seed: int = 0,
                           samples: int = 2000,
                           name: str = "braiding-inverse") -> CheckResult:
    """c^{-1} o c = id on U (x) V and c o c^{-1} = id on V (x) U."""
    chk = Check(name, _mode_tag(mode, seed, samples))
    du, dv = u_mod.algebra.dim, v_mod.algebra.dim
    one = u_mod.hopf.ctx.one
    rng = random.Random(seed)
    gu, gv = _gen_indices(u_mod.algebra), _gen_indices(v_mod.algebra)
    for i, j in _iter_tuples(mode, (du, dv), (gu, gv), rng, samples):
        chk.cases += 2
        mid = braiding_row(u_mod, v_mod, i, j)          # flat V (x) U
        back: Vec = {}
        for key, c in mid.items():
            vi, ui = divmod(key, du)
            vadd_into(back, braiding_inv_row(u_mod, v_mod, vi, ui), c)
        if not veq(back, {i * dv + j: one}):
            return chk.result(
                f"u={_lab(u_mod.algebra.space, i)}, v={_lab(v_mod.algebra.space, j)}: "
                f"c^-1(c(u (x) v)) != u (x) v")
        mid2 = braiding_inv_row(u_mod, v_mod, j, i)     # flat U (x) V
        back2: Vec = {}
        for key, c in mid2.items():
            ui, vi = divmod(key, dv)
            vadd_into(back2, braiding_row(u_mod, v_mod, ui, vi), c)
        if not veq(back2, {j * du + i: one}):
            return chk.result(
                f"v={_lab(v_mod.algebra.space, j)}, u={_lab(u_mod.algebra.space, i)}: "
                f"c(c^-1(v (x) u)) != v (x) u")
    return chk.result()


def check_braided_commutative(y: YDModuleAlgebra, mode: str = "exhaustive",
                              seed: int = 0, samples: int = 10_000,
                              name: str = "braided-commutative") -> CheckResult:
    """y x = (y_(-1) |> x) y_(0) for all basis pairs (y, x)."""
    alg, act, coact = y.algebra, y.action, y.coaction
    chk = Check(name, _mode_tag(mode, seed, samples))
    dX = alg.dim
    ga = _gen_indices(alg)
    rng = random.Random(seed)
    for i, j in _iter_tuples(mode, (dX, dX), (ga, ga), rng, samples):
        chk.cases += 1
        lhs = dict(alg.mult.get(i, j))
        rhs: Vec = {}
        for h, y0, c in coact.terms(i):
            for xp, cx in act.row(h, j).items():
                vadd_into(rhs, alg.mult.get(xp, y0), c * cx)
        if not veq(lhs, rhs):
            return chk.result(
                f"y={_lab(alg.space, i)}, x={_lab(alg.space, j)}: yx = "
                f"{render_element(alg.space, lhs)} but braided side = "
                f"{render_element(alg.space, rhs)}")
    return chk.result()


def check_braided_symmetric(x_mod: YDModuleAlgebra, y_mod: YDModuleAlgebra,
                            mode: str = "exhaustive", seed: int = 0,
                            samples: int = 10_000,
                            name: str = "braided-symmetric") -> CheckResult:
    """The braiding Y (x) X -> X (x) Y agrees with the inverse braiding.

    Pointwise: (y_(-1) |> x) (x) y_(0)  =  x_(0) (x) (S^{-1}(x_(-1)) |> y).
    """
    chk = Check(name, _mode_tag(mode, seed, samples))
    dx, dy = x_mod.algebra.dim, y_mod.algebra.dim
    gx, gy = _gen_indices(x_mod.algebra), _gen_indices(y_mod.algebra)
    rng = random.Random(seed)
    for i, j in _iter_tuples(mode, (dx, dy), (gx, gy), rng, samples):
        chk.cases += 1
        lhs = braiding_row(y_mod, x_mod, j, i)       # flat X (x) Y
        rhs = braiding_inv_row(x_mod, y_mod, j, i)   # flat X (x) Y
        if not veq(lhs, rhs):
            return chk.result(
                f"x={_lab(x_mod.algebra.space, i)}, y={_lab(y_mod.algebra.space, j)}: "
                f"braiding and inverse braiding disagree on y (x) x")
    return chk.result()


def check_locked_identity(x_mod: YDModuleAlgebra, y_mod: YDModuleAlgebra,
                          mode: str = "exhaustive", seed: int = 0,
                          samples: int = 10_000,
                          name: str = "locked-identity") -> CheckResult:
    """Double braiding is the identity: c_{Y,X} o c_{X,Y} = id on X (x) Y.

    Pointwise: ((x_(-1) |> y)_(-1) |> x_(0)) (x) (x_(-1) |> y)_(0) = x (x) y.
    """
    chk = Check(name, _mode_tag(mode, seed, samples))
    dx, dy = x_mod.algebra.dim, y_mod.algebra.dim
    one = x_mod.hopf.ctx.one
    gx, gy = _gen_indices(x_mod.algebra), _gen_indices(y_mod.algebra)
    rng = random.Random(seed)
    for i, j in _iter_tuples(mode, (dx, dy), (gx, gy), rng, samples):
        chk.cases += 1
        mid = braiding_row(x_mod, y_mod, i, j)       # flat Y (x) X
        out: Vec = {}
        for key, c in mid.items():
            yi, xi = divmod(key, dx)
            vadd_into(out, braiding_row(y_mod, x_mod, yi, xi), c)
        if not veq(out, {i * dy + j: one}):
            return chk.result(
                f"x={_lab(x_mod.algebra.space, i)}, y={_lab(y_mod.algebra.space, j)}: "
                f"double braiding moves x (x) y")
    return chk.result()


# -- braided products --------------------------------------------------------

def braided_product(x_mod: YDModuleAlgebra, y_mod: YDModuleAlgebra,
                    name: str = "") -> BraidedProductAlgebra:
    """The algebra X (x) Y with product twisted by the braiding:

        (x (x) y)(v (x) u) = x (y_(-1) |> v) (x) y_(0) u,

    carrying the diagonal action and codiagonal coaction of H.
    """
    if x_mod.hopf is not y_mod.hopf:
        raise ValueError("braided product needs a common Hopf algebra")
    H = x_mod.hopf
    ctx = H.ctx
    X, Y = x_mod.algebra, y_mod.algebra
    dx, dy = X.dim, Y.dim
    d = dx * dy
    if not name:
        name = f"{X.name} >< {Y.name}"

    rx, ry = X.space.render, Y.space.render
    labels = [(lx, ly) for lx in X.space.labels for ly in Y.space.labels]
    space = Space(name, labels,
                  render=lambda lab: f"{rx(lab[0])} >< {ry(lab[1])}")

    def mult_fn(k1: int, k2: int) -> tuple:
        ix, iy = divmod(k1, dy)
        iv, iu = divmod(k2, dy)
        acc: Vec = {}
        for h, y0, c in y_mod.coaction.terms(iy):
            rvec = x_mod.action.row(h, iv)
            if not rvec:
                continue
            ru = Y.mult.get(y0, iu)
            if not ru:
                continue
            for vp, cv in rvec.items():
                c1 = c * cv
                if not c1:
                    continue
                rxx = X.mult.get(ix, vp)
                if not rxx:
                    continue
                vadd_outer(acc, c1, rxx, ru, dy)
        return tuple(sorted(acc.items()))

    unit = tensor_flat(X.unit, Y.unit, dy)
    gens = None
    gx = getattr(X, "generators", None)
    gy = getattr(Y, "generators", None)
    if gx or gy:
        gens = ([tensor_flat(g, Y.unit, dy) for g in (gx or [])]
                + [tensor_flat(X.unit, g, dy) for g in (gy or [])])
    algebra = FiniteAlgebra(ctx, space, BilinearMap(d, d, fn=mult_fn),
                            unit, generators=gens, name=name)

    def act_fn(h: int, key: int) -> Vec:
        ix, iy = divmod(key, dy)
        out: Vec = {}
        for h1, h2, cd in H.comult.get(h):
            r1 = x_mod.action.row(h1, ix)
            if not r1:
                continue
            r2 = y_mod.action.row(h2, iy)
            if not r2:
                continue
            vadd_outer(out, cd, r1, r2, dy)
        return out

    def coact_fn(key: int) -> tuple:
        ix, iy = divmod(key, dy)
        acc: dict = {}
        for h1, x0, c1 in x_mod.coaction.terms(ix):
            for h2, y0, c2 in y_mod.coaction.terms(iy):
                c12 = c1 * c2
                if not c12:
                    continue
                for hh, ch in H.mult.get(h1, h2):
                    vadd_term(acc, (hh, x0 * dy + y0), c12 * ch)
        return tuple(sorted((h, xy, c) for (h, xy), c in acc.items()))

    yd = YDModuleAlgebra(H, algebra, Action(H, algebra, act_fn),
                         Coaction(H, algebra, coact_fn), name=name)
    embed_left = lambda v, _u=Y.unit: tensor_flat(v, _u, dy)
    embed_right = lambda v, _u=X.unit: tensor_flat(_u, v, dy)
    return BraidedProductAlgebra((x_mod, y_mod), yd,
                                 (embed_left, embed_right), name=name)


def chain_product(factors: Iterable[YDModuleAlgebra],
                  name: str = "") -> BraidedProductAlgebra:
    """Left-associated iterated braided product of the given YD algebras."""
    factors = tuple(factors)
    if not factors:
        raise ValueError("chain_product needs at least one factor")
    cur = factors[0]
    embeds: list = [lambda v: v]
    for f in factors[1:]:
        step = braided_product(cur, f)
        le, re = step.embeddings
        embeds = [(lambda g, _le=le: lambda v: _le(g(v)))(g) for g in embeds]
        embeds.append(re)
        cur = step.yd
    if name:
        cur = YDModuleAlgebra(cur.hopf, cur.algebra, cur.action,
                              cur.coaction, name=name)
    return BraidedProductAlgebra(factors, cur, tuple(embeds),
                                 name=name or cur.name)


def check_factor_embeddings(bp: BraidedProductAlgebra,
                            name: str = "factor-embedding") -> CheckResult:
    """Each embedding is a unital algebra map on its factor (exhaustive)."""
    chk = Check(name, "exhaustive")
    alg = bp.yd.algebra
    for pos, f in enumerate(bp.factors):
        emb = bp.embeddings[pos]
        chk.cases += 1
        if not veq(emb(f.algebra.unit), alg.unit):
            return chk.result(f"factor {pos}: unit not preserved")
        dfac = f.algebra.dim
        one = f.hopf.ctx.one
        for i in range(dfac):
            ei = emb({i: one})
            for j in range(dfac):
                chk.cases += 1
                lhs = alg.mult.apply(ei, emb({j: one}))
                rhs = emb(dict(f.algebra.mult.get(i, j)))
                if not veq(lhs, rhs):
                    return chk.result(
                        f"factor {pos}: embedding breaks the product at "
                        f"({_lab(f.algebra.space, i)}, {_lab(f.algebra.space, j)})")
    return chk.result()


def check_rebracketing(x_mod: YDModuleAlgebra, y_mod: YDModuleAlgebra,
                       z_mod: YDModuleAlgebra, mode: str = "sample",
                       seed: int = 0, samples: int = 2000,
                       name: str = "rebracketing") -> CheckResult:
    """(X >< Y) >< Z and X >< (Y >< Z) have identical structure constants.

    Row-major flattening makes both products live on the same index set, so
    rows can be compared directly.
    """
    left = braided_product(braided_product(x_mod, y_mod).yd, z_mod).yd
    right = braided_product(x_mod, braided_product(y_mod, z_mod).yd).yd
    chk = Check(name, _mode_tag(mode, seed, samples), cases=1)
    d = left.algebra.dim
    if right.algebra.dim != d:
        return chk.result("dimension mismatch")
    if not veq(left.algebra.unit, right.algebra.unit):
        return chk.result("units differ")
    rng = random.Random(seed)
    chk.cases = 0
    for i, j in _iter_tuples(mode, (d, d),
                             (_gen_indices(left.algebra),
                              _gen_indices(left.algebra)), rng, samples):
        chk.cases += 1
        if not veq(dict(left.algebra.mult.get(i, j)),
                   dict(right.algebra.mult.get(i, j))):
            return chk.result(f"products differ at ({_lab(left.algebra.space, i)}, "
                              f"{_lab(left.algebra.space, j)})")
    return chk.result()


def flip_isomorphism(x_mod: YDModuleAlgebra, y_mod: YDModuleAlgebra,
                     xy: Optional[BraidedProductAlgebra] = None,
                     yx: Optional[BraidedProductAlgebra] = None,
                     mode: str = "exhaustive", seed: int = 0,
                     samples: int = 2000, prefix: str = "flip"):
    """The braiding as a map X >< Y -> Y >< X, with morphism certificates.

    phi(x (x) y) = (x_(-1) |> y) (x) x_(0).  Returns (phi, checks) where the
    checks certify that phi is bijective, an algebra morphism, an H-module
    morphism, and an H-comodule morphism.
    """
    from .sparse import SingularMapError, linear_map_inverse

    if xy is None:
        xy = braided_product(x_mod, y_mod)
    if yx is None:
        yx = braided_product(y_mod, x_mod)
    H = x_mod.hopf
    dx, dy = x_mod.algebra.dim, y_mod.algebra.dim
    d = dx * dy
    phi = LinearMap(d, d)
    for key in range(d):
        i, j = divmod(key, dy)
        row = braiding_row(x_mod, y_mod, i, j)       # flat Y (x) X
        if row:
            phi.set(key, tuple(sorted(row.items())))

    tag = _mode_tag(mode, seed, samples)
    XYs, YXs = xy.yd.algebra.space, yx.yd.algebra.space

    def bijective() -> CheckResult:
        chk = Check(f"{prefix}-bijective", "exhaustive", cases=d)
        try:
            linear_map_inverse(phi, H.ctx)
        except SingularMapError:
            return chk.result("flip map is singular")
        return chk.result()

    def algebra_morphism() -> CheckResult:
        chk = Check(f"{prefix}-algebra-morphism", tag)
        rng = random.Random(seed)
        for u, v in _iter_tuples(mode, (d, d), (gxy, gxy), rng, samples):
            chk.cases += 1
            lhs = phi.apply(dict(xy.yd.algebra.mult.get(u, v)))
            rhs = yx.yd.algebra.mult.apply(dict(phi.get(u)), dict(phi.get(v)))
            if not veq(lhs, rhs):
                return chk.result(f"phi(uv) != phi(u)phi(v) at "
                                  f"u={_lab(XYs, u)}, v={_lab(XYs, v)}")
        return chk.result()

    def module_morphism() -> CheckResult:
        chk = Check(f"{prefix}-module-morphism", tag)
        rng = random.Random(seed)
        gh = _gen_indices(H)
        for h, u in _iter_tuples(mode, (H.dim, d), (gh, gxy), rng, samples):
            chk.cases += 1
            lhs = phi.apply(xy.yd.action.row(h, u))
            rhs = yx.yd.action.apply({h: H.ctx.one}, dict(phi.get(u)))
            if not veq(lhs, rhs):
                return chk.result(f"phi not H-linear at M={_lab(H.space, h)}, "
                                  f"u={_lab(XYs, u)}")
        return chk.result()

    def comodule_morphism() -> CheckResult:
        chk = Check(f"{prefix}-comodule-morphism", "exhaustive")
        for u in range(d):
            chk.cases += 1
            lhs: Vec = {}
            for h, u0, c in xy.yd.coaction.terms(u):
                vadd_into(lhs, phi.get(u0), c, h * d)
            rhs = yx.yd.coaction.apply(dict(phi.get(u)))
            if not veq(lhs, rhs):
                return chk.result(f"phi not H-colinear at u={_lab(XYs, u)}")
        return chk.result()

    gxy = _gen_indices(xy.yd.algebra)
    return phi, [bijective(), algebra_morphism(), module_morphism(),
                 comodule_morphism()]


def yang_baxter_check(v_mod: YDModuleAlgebra, mode: str = "sample",
                      seed: int = 0, samples: int = 200,
                      name: str = "braid-relation") -> CheckResult:
    """(c (x) id)(id (x) c)(c (x) id) = (id (x) c)(c (x) id)(id (x) c) on V^3."""
    chk = Check(name, _mode_tag(mode, seed, samples))
    n = v_mod.algebra.dim
    n2 = n * n
    one = v_mod.hopf.ctx.one
    cache: dict[int, Vec] = {}

    def crow(i: int, j: int) -> Vec:
        key = i * n + j
        r = cache.get(key)
        if r is None:
            r = braiding_row(v_mod, v_mod, i, j)
            cache[key] = r
        return r

    def c12(vec: Vec) -> Vec:
        out: Vec = {}
        for key, c in vec.items():
            ab, k = divmod(key, n)
            a, b = divmod(ab, n)
            for key2, c2 in crow(a, b).items():
                vadd_term(out, key2 * n + k, c * c2)
        return out

    def c23(vec: Vec) -> Vec:
        out: Vec = {}
        for key, c in vec.items():
            a, bk = divmod(key, n2)
            b, k = divmod(bk, n)
            vadd_into(out, crow(b, k), c, a * n2)
        return out

    gv = _gen_indices(v_mod.algebra)
    rng = random.Random(seed)
    for i, j, k in _iter_tuples(mode, (n, n, n), (gv, gv, gv), rng, samples):
        chk.cases += 1
        e: Vec = {(i * n + j) * n + k: one}
        if not veq(c12(c23(c12(e))), c23(c12(c23(e)))):
            sp = v_mod.algebra.space
            return chk.result(f"braid relation fails at ({_lab(sp, i)}, "
                              f"{_lab(sp, j)}, {_lab(sp, k)})")
    return chk.result()
