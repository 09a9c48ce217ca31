"""Module algebras, comodule algebras, and Yetter-Drinfeld structure checks.

A Hopf algebra H acts and coacts on various algebras in what follows.  This
module packages the three layers generically:

* `Action` / `Coaction` wrap lazy structure maps H (x) X -> X and
  X -> H (x) X with memoized basis rows, so repeated checks share work.
* `ModuleAlgebra` and `YDModuleAlgebra` bundle an algebra with its
  action, or its action and coaction; checks consume the bundles.
* For a Yetter-Drinfeld module algebra the induced braiding
  c(x (x) y) = (x_(-1) |> y) (x) x_(0) is available row-by-row, along with
  braided commutativity, the "locked" double braiding identity, and
  braided (smash-like) products of YD algebras with the diagonal action
  and codiagonal coaction.  A chain's factor embeddings and their
  certificate read its steps' twisted-product records.

Every check over basis tuples walks each law on the walk its caller
gives it (see `results`), with the declared generator indices in the
acted/coacted slots; the module, module-algebra, comodule-algebra and YD
laws and braided commutativity state the lemmas that prove them from
generators.  Failures report the first failing tuple in walk order: the
lexicographically smallest one on an exhaustive walk.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .hopf import FiniteAlgebra, FiniteHopf, render_element, twisted_product
from .results import (CheckResult, Walk, certificate_check, chained, counted,
                      gen_indices, generation_failure, lemma_walk,
                      normality_cases, run_check, twist_of,
                      twisting_map_cases)
from .sparse import (LinearMap, Row, Space, Vec, colinear_apply, shared_row,
                     tensor_flat, vadd_into, vadd_outer, vadd_term, veq,
                     vscale)

__all__ = [
    "Action",
    "Coaction",
    "ModuleAlgebra",
    "YDModuleAlgebra",
    "BraidedProductAlgebra",
    "check_module",
    "check_module_algebra",
    "check_comodule",
    "check_comodule_algebra",
    "check_yd",
    "braiding_row",
    "check_braided_commutative",
    "check_locked_identity",
    "braided_product",
    "chain_product",
    "flip_isomorphism",
    "check_factor_embeddings",
]


# -- actions and coactions ---------------------------------------------------

class Action:
    """Left action of a Hopf algebra on an algebra, by memoized basis rows.

    `fn(h, x)` must return the vector h |> e_x as a dict.  `row(h, x)`
    returns it as a stored row, a tuple of shared (y, c) entries in the
    order in which `fn` filled the dict (see `sparse.shared_row`), cached
    under the flat key h * dim + x, dim being that of the algebra.
    Readers iterate the tuple, or take `dict(row)` where they need a
    vector.
    """

    __slots__ = ("hopf", "algebra", "dim", "_fn", "_rows", "__weakref__")

    def __init__(self, hopf: FiniteHopf, algebra, fn: Callable[[int, int], Vec]):
        self.hopf = hopf
        self.algebra = algebra
        self.dim = algebra.dim
        self._fn = fn
        self._rows: dict[int, Row] = {}

    @classmethod
    def trivial(cls, hopf: FiniteHopf, algebra) -> "Action":
        """h |> x = counit(h) x."""
        counit = hopf.counit

        def fn(h: int, x: int) -> Vec:
            c = counit.get(h)
            return {x: c} if c else {}

        return cls(hopf, algebra, fn)

    def row(self, h: int, x: int) -> Row:
        key = h * self.dim + x
        r = self._rows.get(key)
        if r is None:
            r = self._rows[key] = shared_row(self._fn(h, x))
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
    """Left coaction X -> H (x) X, by memoized stored rows of (h, x, coeff)
    terms (see `sparse.shared_row`)."""

    __slots__ = ("hopf", "algebra", "_fn", "_rows")

    def __init__(self, hopf: FiniteHopf, algebra, fn: Callable[[int], tuple]):
        self.hopf = hopf
        self.algebra = algebra
        self._fn = fn
        self._rows: dict[int, Row] = {}

    @classmethod
    def trivial(cls, hopf: FiniteHopf, algebra) -> "Coaction":
        """x -> 1_H (x) x."""
        unit_terms = tuple(sorted(hopf.unit.items()))

        def fn(x: int) -> tuple:
            return tuple((h, x, c) for h, c in unit_terms)

        return cls(hopf, algebra, fn)

    def terms(self, x: int) -> Row:
        r = self._rows.get(x)
        if r is None:
            r = self._rows[x] = shared_row(self._fn(x))
        return r

    def apply(self, xv: Vec) -> Vec:
        """Flat image in H (x) X, keyed h * dim_X + x."""
        return colinear_apply(self.terms, xv, self.algebra.dim)


# -- bundles -----------------------------------------------------------------

class ModuleAlgebra(NamedTuple):
    hopf: FiniteHopf
    algebra: FiniteAlgebra
    action: Action
    name: str = ""


class YDModuleAlgebra(NamedTuple):
    """An algebra carrying both an action and a coaction of the same H."""

    hopf: FiniteHopf
    algebra: FiniteAlgebra
    action: Action
    coaction: Coaction
    name: str = ""

    @property
    def dim(self) -> int:
        return self.algebra.dim


class BraidedProductAlgebra(NamedTuple):
    """Iterated braided product; `yd` holds the product YD structure.

    Factor order matches the left-to-right construction order: n factors
    make ((f_0 >< f_1) >< ...) >< f_{n-1}, whose n - 1 steps are twisted
    products, each algebra keeping its record as `twist`.
    """

    factors: tuple
    yd: YDModuleAlgebra
    name: str = ""

    def steps(self) -> list:
        """The algebras of the steps, innermost first: step k = 1 .. n - 1
        is (f_0 >< ... >< f_{k-1}) (x)_R f_k (`results.twist_of`)."""
        out, alg = [], self.yd.algebra
        for _ in self.factors[1:]:
            out.append(alg)
            alg = twist_of(alg).A
        return out[::-1]

    def embed(self, pos: int, v: Vec) -> Vec:
        """v of factor `pos` in the product: step `pos` puts its left
        unit on the left of v, every later step its right unit on the
        right (a one-factor product: the identity)."""
        if not 0 <= pos < len(self.factors):
            raise IndexError(f"no factor at position {pos}")
        for k, alg in enumerate(self.steps(), 1):
            tw = alg.twist
            if k == pos:
                v = tensor_flat(tw.A.unit, v, tw.B.dim)
            elif k > pos:
                v = tensor_flat(v, tw.B.unit, tw.B.dim)
        return v


# -- module / comodule checks ------------------------------------------------

def check_module(m, walk, name: str = "module-action") -> CheckResult:
    """Unit law 1 |> x = x (always exhaustive) and (MN) |> x = M |> (N |> x)
    on the (M, N, x) basis triples of `walk`.

    The run's tuple walks head M and N with the generator indices of H.
    That is evidence, not a proof, on any but an exhaustive walk: the
    lemma -- S = {M : (MN) |> x = M |> (N |> x) for all N, x} is a
    subalgebra of an associative H -- needs N and x over the whole
    basis.  For H = D(B) acting by a `doubles.FactoredAction`,
    `doubles.module_factor_walk` proves the law on the two factors of
    D(B) and of X = H(B*) instead: the action's rows are (s1 (x) s2)
    Delta_D for two actions s1 on B* (x) 1 and s2 on 1 (x) B, defined
    from four leg actions of B and B* on B and B*, so it is a module when
    s1 and s2 are, and those rest on the module laws of the legs, the
    unit laws and the cross relation of the factors of D(B) on a
    subcoalgebra of B, walked on the 2 dim B basis vectors of B* (x) 1
    and 1 (x) B; its docstring has the proof.  Its hypotheses are
    `hopf-axioms.taft-mult-associativity`, `taft-dual-mult-associativity`,
    `taft-comult-multiplicative`, `taft-dual-comult-multiplicative`,
    `taft-counit-laws`, `taft-dual-counit-laws`,
    `ddouble-mult-associativity` and `ddouble-comult-multiplicative`.
    In the truncations suite the law is a corollary of the transport
    lemma (`truncate.transport_action`).
    """
    H, alg, act = m.hopf, m.algebra, m.action
    gh = gen_indices(H)
    walk = walk.over((H.dim, H.dim, alg.dim), (gh, gh, None))
    unit_law = (None if veq(act.apply(H.unit, {x: H.ctx.one}), {x: H.ctx.one})
                else f"1 |> {alg.space.label(x)} != itself"
                for x in range(alg.dim))

    def case(hm: int, hn: int, x: int) -> Optional[str]:
        lhs: Vec = {}
        for k, c in H.mult.get(hm, hn):
            vadd_into(lhs, act.row(k, x), c)
        rhs: Vec = {}
        for xp, c in act.row(hn, x):
            vadd_into(rhs, act.row(hm, xp), c)
        if veq(lhs, rhs):
            return None
        return (f"M={H.space.label(hm)}, N={H.space.label(hn)}, "
                f"x={alg.space.label(x)}: (MN)|>x = {render_element(alg.space, lhs)} "
                f"but M|>(N|>x) = {render_element(alg.space, rhs)}")

    return walk.check(name, case, head=unit_law)


def check_module_algebra(m, walk) -> CheckResult:
    """M |> 1 = counit(M) 1 for every M (always exhaustive), then
    M |> (xy) = (M' |> x)(M'' |> y) on the (M, x, y) basis triples of
    `walk`.  The run's tuple walks head M with the generator indices of
    H and x and y with those of X: evidence on any but an exhaustive
    walk.

    Two walks prove the law for every triple in two steps, both with M
    over C = `results.coalgebra_closure(H)`, whose span is a
    subcoalgebra holding 1 and the generators of H.  The first step has
    two routes.  `results.subcoalgebra_walk(H, X)` walks x over the
    generators of X and y over its basis.  For X = H(B*) acted on by a
    `doubles.FactoredAction`, the yd suite's route,
    `doubles.module_algebra_factor_walk` walks the pairs of the two
    tensor factors B* (x) 1 and 1 (x) B of X instead
    (`results.factor_pair_walk` states that lemma).

    Step 1, the law on C x X x X, by `subcoalgebra_walk`.  T = {x :
    c |> (xy) = (c' |> x)(c'' |> y) for every c in C and every y} is a
    subspace.  It holds 1, by the unit law above and (counit (x) id)
    Delta = id.  It is closed under products: for x1, x2 in T, X
    associative, Delta coassociative and Delta(C) in C (x) C give

        c |> (x1 x2 y) = (c' |> x1)(c'' |> x2)(c''' |> y)
                       = (c' |> x1 x2)(c'' |> y).

    The walk puts the generators of X in T, and its certificate
    `generation_failure(X)` makes T all of X.  This step needs no module
    law.

    Step 2, the law on all of H.  S = {h : it holds for all x, y} is a
    subspace that holds C, so 1 and the generators of H.  It is closed
    under products: for h, k in S, the module law and a multiplicative
    Delta give

        hk |> (xy) = h |> ((k' |> x)(k'' |> y))
                   = (h'k' |> x)(h''k'' |> y).

    The certificate `generation_failure(H)` makes S all of H.  For the
    yd suite the hypotheses are `yd.module-action`, which must not rest
    on this check, and `hopf-axioms.ddouble-comult-multiplicative`,
    `ddouble-comult-counit-unital`, `ddouble-comult-coassociativity` and
    `hdouble-mult-associativity`, with `taft-mult-associativity`,
    `taft-counit-laws` and `taft-dual-counit-laws` on the factor route.
    In the truncations suite the law is a corollary of the transport
    lemma (`truncate.transport_action`).
    """
    H, alg, act = m.hopf, m.algebra, m.action
    ga = gen_indices(alg)
    walk = walk.over((H.dim, alg.dim, alg.dim), (gen_indices(H), ga, ga))
    one = H.ctx.one
    unit_law = (None if veq(act.apply({h: one}, alg.unit),
                            vscale(alg.unit, H.counit.get(h)))
                else f"M={H.space.label(h)}: M|>1 != counit(M) 1"
                for h in range(H.dim))

    def case(h: int, x: int, y: int) -> Optional[str]:
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
            for xp, cx in r1:
                c1 = cd * cx
                for yp, cy in r2:
                    vadd_into(rhs, alg.mult.get(xp, yp), c1 * cy)
        if veq(lhs, rhs):
            return None
        return (f"M={H.space.label(h)}, x={alg.space.label(x)}, "
                f"y={alg.space.label(y)}: M|>(xy) = {render_element(alg.space, lhs)} "
                f"but (M'|>x)(M''|>y) = {render_element(alg.space, rhs)}")

    return walk.check("module-algebra", case, head=unit_law)


def check_comodule(c) -> CheckResult:
    """Counit law and coassociativity of the coaction (always exhaustive)."""
    H, alg, coact = c.hopf, c.algebra, c.coaction
    dH, dX = H.dim, alg.dim

    def body():
        for x in range(dX):
            acc: Vec = {}
            for h, x0, cc in coact.terms(x):
                eps = H.counit.get(h)
                if eps is not None:
                    vadd_term(acc, x0, eps * cc)
            yield (None if veq(acc, {x: H.ctx.one}) else
                   f"(counit (x) id) delta({alg.space.label(x)}) != it")
        for x in range(dX):
            lhs: Vec = {}
            for h, x0, cc in coact.terms(x):
                for h1, h2, cd in H.comult.get(h):
                    vadd_term(lhs, (h1 * dH + h2) * dX + x0, cc * cd)
            rhs: Vec = {}
            for h, x0, cc in coact.terms(x):
                for h2, x00, c2 in coact.terms(x0):
                    vadd_term(rhs, (h * dH + h2) * dX + x00, cc * c2)
            yield (None if veq(lhs, rhs) else
                   f"coaction not coassociative at x={alg.space.label(x)}")

    return run_check("comodule-coaction", "exhaustive", body())


def check_comodule_algebra(c, walk) -> CheckResult:
    """delta(1) = 1 (x) 1, and delta(xy) = delta(x) delta(y) on the (x, y)
    basis pairs of `walk`, with the generator indices of X in both.

    `results.lemma_walk(X)` proves the law for all pairs, labelled
    "generators": delta(1) = 1 (x) 1 and the walk put the unit
    and the generators in S = {x : delta(xy) = delta(x) delta(y) for all
    y}, a subalgebra because X and H (x) X are associative, and the
    walk's certificate makes S all of X; the truncations suite takes it.
    On a twisted product X = A (x)_R B, such as H(B*) in the yd suite,
    `results.factor_pair_walk(X)` proves it from the pairs of the two
    tensor factors A (x) 1 and 1 (x) B, with the same hypotheses and the
    associativity of B (that walk states the lemma); the yd suite takes
    it as `doubles.comodule_algebra_factor_walk`.
    For the yd suite those hypotheses are proved by
    `hopf-axioms.ddouble-mult-associativity` (H = D(B)) and
    `hopf-axioms.hdouble-mult-associativity` (X = H(B*)); in the
    truncations suite H and X are subquotients of those two, certified by
    the `uq-*` and `hq-transport-*` checks.
    """
    H, alg, coact = c.hopf, c.algebra, c.coaction
    dX = alg.dim
    ga = gen_indices(alg)
    walk = walk.over((dX, dX), (ga, ga))
    unit_law = [None if veq(coact.apply(alg.unit),
                            tensor_flat(H.unit, alg.unit, dX))
                else "delta(1) != 1 (x) 1"]

    def case(x: int, y: int) -> Optional[str]:
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
        if veq(lhs, rhs):
            return None
        return (f"x={alg.space.label(x)}, y={alg.space.label(y)}: "
                f"delta(xy) != delta(x) delta(y)")

    return walk.check("comodule-algebra", case, head=unit_law)


def check_yd(y, walk, name: str = "yd-condition") -> CheckResult:
    """Compatibility of action and coaction on the (M, A) basis pairs of
    `walk`, with the generator indices of H in M:

        YD(M, A):  (M' |> A)_(-1) M'' (x) (M' |> A)_(0)
                   =  M' A_(-1) (x) (M'' |> A_(0)).

    `results.subcoalgebra_walk(H, X, 2)` proves it for every pair: M over
    C = `results.coalgebra_closure(H)`, whose span is a subcoalgebra
    holding 1 and the generators of H, and A over the generators of X.
    Write Delta^2(c) = c1 (x) c2 (x) c3, every leg in C.

    Step 1, YD(c, A) for c in C and every A.  T = {a : YD(c, a) for every
    c in C} is a subspace.  It holds 1: c1 |> 1 = eps(c1) 1 and
    delta(1) = 1 (x) 1 turn both sides into c (x) 1.  It is closed under
    products: for a, b in T and c in C, the module-algebra law on C, the
    comodule-algebra law, YD(c2, b), then YD(c1, a) give

        (c1 |> ab)_(-1) c2 (x) (c1 |> ab)_(0)
          = (c1 |> a)_(-1) (c2 |> b)_(-1) c3 (x) (c1 |> a)_(0) (c2 |> b)_(0)
          = (c1 |> a)_(-1) c2 b_(-1) (x) (c1 |> a)_(0) (c3 |> b_(0))
          = c1 a_(-1) b_(-1) (x) (c2 |> a_(0)) (c3 |> b_(0))
          = c1 (ab)_(-1) (x) (c2 |> (ab)_(0)).

    The walk puts the generators of X in T, and its certificate
    `generation_failure(X)` makes T all of X.

    Step 2, YD(M, A) for every M.  S = {M : YD(M, A) for every A} is a
    subspace that holds C, so 1 and the generators of H.  It is closed
    under products when H is associative, Delta is multiplicative and
    (MN) |> A = M |> (N |> A): apply YD for M to N' |> A, then for N to
    A.  The certificate `generation_failure(H)` makes S all of H.

    For the yd suite the hypotheses are `yd.module-action`,
    `yd.module-algebra` and `yd.comodule-algebra`, and
    `hopf-axioms.ddouble-mult-associativity`,
    `ddouble-comult-coassociativity`, `ddouble-counit-laws` and
    `ddouble-comult-multiplicative`.  None of them rests on this check.
    In the truncations suite the law is a corollary of the transport
    lemma (`truncate.transport_action`).
    """
    H, alg = y.hopf, y.algebra
    act, coact = y.action, y.coaction
    dH, dX = H.dim, alg.dim

    def case(m: int, a: int) -> Optional[str]:
        lhs: Vec = {}
        for m1, m2, cd in H.comult.get(m):
            r = act.row(m1, a)
            if not r:
                continue
            for ap, ca in r:
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
        if veq(lhs, rhs):
            return None
        return (f"M={H.space.label(m)}, A={alg.space.label(a)}: "
                f"YD compatibility fails")

    return walk.over((dH, dX), (gen_indices(H), None)).check(name, case)


# -- the braiding ------------------------------------------------------------

def braiding_row(u_mod: YDModuleAlgebra, v_mod: YDModuleAlgebra,
                 i: int, j: int) -> Vec:
    """c(e_i (x) e_j) = (u_(-1) |> e_j) (x) u_(0), flat over V (x) U."""
    if u_mod.hopf is not v_mod.hopf:
        raise ValueError("braiding needs both modules over the same Hopf algebra")
    du = u_mod.algebra.dim
    out: Vec = {}
    for h, u0, c in u_mod.coaction.terms(i):
        for vp, cv in v_mod.action.row(h, j):
            vadd_term(out, vp * du + u0, c * cv)
    return out


def check_braided_commutative(y: YDModuleAlgebra, walk,
                              name: str = "braided-commutative") -> CheckResult:
    """y x = (y_(-1) |> x) y_(0) on the (y, x) basis pairs of `walk`, with
    the generator indices of X in both.

    `results.subcomodule_walk(y)` proves it for every pair: its first
    slot u runs over `results.coaction_closure(y)`, whose span Y holds 1
    and the generators of X and is a subcomodule, delta(Y) in H (x) Y,
    and its second slot over the generators of X.

    Step 1, the law for u in Y and every x.  U = {x : ux = (u_(-1) |> x)
    u_(0) for every u in Y} is a subspace.  It holds 1: M |> 1 =
    eps(M) 1 and the counit law of the coaction give (u_(-1) |> 1) u_(0)
    = u.  It is closed under products: for x1, x2 in U and u in Y, u_(0)
    lies in Y, and X associative, coassociativity of the coaction and
    the module-algebra law give

        u x1 x2 = (u_(-1) |> x1) u_(0) x2
                = (u_(-1) |> x1) (u_(0)(-1) |> x2) u_(0)(0)
                = (u_(-1)' |> x1) (u_(-1)'' |> x2) u_(0)
                = (u_(-1) |> x1 x2) u_(0).

    The walk puts the generators of X in U, and its certificate
    `generation_failure(X)` makes U all of X.

    Step 2, the law for every y.  S = {y : it holds for every x} is a
    subspace that holds Y, so 1 and the generators of X.  It is closed
    under products when X is associative, (MN) |> x = M |> (N |> x) and
    delta(yz) = delta(y) delta(z):

        (yz) x = y ((z_(-1) |> x) z_(0))
               = ((y_(-1) z_(-1)) |> x) y_(0) z_(0).

    The certificate makes S all of X.  For the yd suite the hypotheses
    are `hopf-axioms.hdouble-mult-associativity` and
    `hdouble-mult-unit`, and `yd.module-action`, `yd.module-algebra`,
    `yd.comodule-coaction` and `yd.comodule-algebra`.  None of them
    rests on this check.  In the truncations suite the law is a
    corollary of the transport lemma (`truncate.transport_action`).
    """
    alg, act, coact = y.algebra, y.action, y.coaction
    dX = alg.dim
    ga = gen_indices(alg)

    def case(i: int, j: int) -> Optional[str]:
        lhs = dict(alg.mult.get(i, j))
        rhs: Vec = {}
        for h, y0, c in coact.terms(i):
            for xp, cx in act.row(h, j):
                vadd_into(rhs, alg.mult.get(xp, y0), c * cx)
        if veq(lhs, rhs):
            return None
        return (f"y={alg.space.label(i)}, x={alg.space.label(j)}: yx = "
                f"{render_element(alg.space, lhs)} but braided side = "
                f"{render_element(alg.space, rhs)}")

    return walk.over((dX, dX), (ga, ga)).check(name, case)


def check_locked_identity(x_mod: YDModuleAlgebra, y_mod: YDModuleAlgebra,
                          walk, name: str = "locked-identity") -> CheckResult:
    """Double braiding is the identity: c_{Y,X} o c_{X,Y} = id on X (x) Y.

    Pointwise: ((x_(-1) |> y)_(-1) |> x_(0)) (x) (x_(-1) |> y)_(0) = x (x) y.
    """
    X, Y = x_mod.algebra, y_mod.algebra
    dx, dy = X.dim, Y.dim
    one = x_mod.hopf.ctx.one

    def case(i: int, j: int) -> Optional[str]:
        mid = braiding_row(x_mod, y_mod, i, j)       # flat Y (x) X
        out: Vec = {}
        for key, c in mid.items():
            yi, xi = divmod(key, dx)
            vadd_into(out, braiding_row(y_mod, x_mod, yi, xi), c)
        if veq(out, {i * dy + j: one}):
            return None
        return (f"x={X.space.label(i)}, y={Y.space.label(j)}: "
                f"double braiding moves x (x) y")

    return walk.over((dx, dy), (gen_indices(X), gen_indices(Y))).check(
        name, case)


# -- braided products --------------------------------------------------------

def braided_product(x_mod: YDModuleAlgebra,
                    y_mod: YDModuleAlgebra) -> BraidedProductAlgebra:
    """The algebra X (x) Y with product twisted by the braiding:

        (x (x) y)(v (x) u) = x (y_(-1) |> v) (x) y_(0) u,

    carrying the diagonal action and codiagonal coaction of H: the
    `hopf.twisted_product` with R(y (x) v) = (y_(-1) |> v) (x) y_(0), whose
    record the embeddings and `check_factor_embeddings` read.
    """
    if x_mod.hopf is not y_mod.hopf:
        raise ValueError("braided product needs a common Hopf algebra")
    H = x_mod.hopf
    ctx = H.ctx
    X, Y = x_mod.algebra, y_mod.algebra
    dy = Y.dim
    name = f"{X.name} >< {Y.name}"

    rx, ry = X.space.render, Y.space.render
    labels = [(lx, ly) for lx in X.space.labels for ly in Y.space.labels]
    space = Space(name, labels,
                  render=lambda lab: f"{rx(lab[0])} >< {ry(lab[1])}")

    def r_row(iy: int, iv: int) -> tuple:
        """R(y (x) v) = c(y (x) v), the braiding."""
        return tuple((*divmod(k, dy), c)
                     for k, c in braiding_row(y_mod, x_mod, iy, iv).items())

    tw = twisted_product(X, Y, r_row)
    algebra = FiniteAlgebra(ctx, space, tw.mult, tw.unit, generators=tw.gens,
                            name=name, twist=tw)

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
    return BraidedProductAlgebra((x_mod, y_mod), yd, name=name)


def chain_product(factors: Iterable[YDModuleAlgebra],
                  name: str = "") -> BraidedProductAlgebra:
    """Left-associated iterated braided product of the given YD algebras;
    each step's algebra keeps its record (`BraidedProductAlgebra.steps`)."""
    factors = tuple(factors)
    if not factors:
        raise ValueError("chain_product needs at least one factor")
    cur = factors[0]
    for f in factors[1:]:
        cur = braided_product(cur, f).yd
    if name:
        cur = YDModuleAlgebra(cur.hopf, cur.algebra, cur.action,
                              cur.coaction, name=name)
    return BraidedProductAlgebra(factors, cur, name=name or cur.name)


def check_factor_embeddings(bp: BraidedProductAlgebra,
                            name: str = "factor-embedding") -> CheckResult:
    """Each factor's embedding is a unital algebra map: the R-normality
    certificate (`results.normality_cases`) of every step, innermost
    first, on one exhaustive check; no product is read.

    Proof.  A step A (x)_R B has unit 1 (x) 1, and by the formula of
    `hopf.twisted_product`, R(1 (x) a) = a (x) 1, R(b (x) 1) = 1 (x) b and
    the factor unit laws give (f (x) 1)(g (x) 1) = fg (x) 1 and
    (1 (x) m)(1 (x) n) = 1 (x) mn: a -> a (x) 1 and b -> 1 (x) b are
    unital algebra maps.  Factor k of an n-chain enters at step k by
    b -> 1 (x) b (k = 0: the identity), then a -> a (x) 1 at every later
    step; `embed` is that composite, so a unital algebra map.
    """
    def body():
        for k, alg in enumerate(bp.steps(), 1):
            step = run_check(name, "exhaustive", normality_cases(alg))
            yield from counted(step.cases_checked, lambda: (
                None if step.ok else f"step {k}: {step.witness}"))

    return run_check(name, "exhaustive", body())


def flip_isomorphism(x_mod: YDModuleAlgebra,
                     y_mod: YDModuleAlgebra) -> Iterator[CheckResult]:
    """Morphism certificates for the braiding as a map X >< Y -> Y >< X.

    phi(x (x) y) = (x_(-1) |> y) (x) x_(0).  Yields, one at a time, the
    checks that certify that phi is bijective, an algebra morphism, an
    H-module morphism and an H-comodule morphism.  The two middle lines
    are lemmas (Montgomery, Hopf Algebras and Their Actions on Rings,
    CBMS 82, 1993, section 1.8), each labelled "generators":

    * Algebra morphism.  When X >< Y and Y >< X are associative, S = {u :
      phi(uv) = phi(u) phi(v) for every v} is a subalgebra of X >< Y.
      The line checks phi(1) = 1, then that both braided products are
      associative (`results.twisting_map_cases` of each, the certificate
      of `results.associativity_walk`, run as obligations), then the
      pairs (u, v) with u over the generators of X >< Y and v over its
      basis (`results.lemma_walk`), and its certificate
      `results.generation_failure` makes S all of X >< Y.
    * H-module morphism.  When the diagonal actions (rho_X (x) rho_Y)
      Delta on X >< Y and Y >< X are modules, {h : phi(h |> u) =
      h |> phi(u) for every u} is a subalgebra of H:
      phi(hk |> u) = h |> phi(k |> u) = hk |> phi(u).  The line checks
      h = 1, then h over the generators of H, each against every u, and
      `results.generation_failure(H)` makes it all of H.  The diagonal
      actions are modules when rho_X and rho_Y are and Delta is
      multiplicative: in the heisenberg suite X and Y are the factor
      structures of H(B*), whose action is H(B*)'s restricted, so the
      hypotheses are `yd.module-action` (through the factor restriction
      certificates, `doubles.check_factor_restrictions`) and
      `hopf-axioms.ddouble-comult-multiplicative`.
    """
    from .sparse import SingularMapError, linear_map_inverse

    xy = braided_product(x_mod, y_mod)
    yx = braided_product(y_mod, x_mod)
    H = x_mod.hopf
    one = H.ctx.one
    XY, YX = xy.yd.algebra, yx.yd.algebra
    dx, dy = x_mod.algebra.dim, y_mod.algebra.dim
    d = dx * dy
    phi = LinearMap(d, d)
    for key in range(d):
        i, j = divmod(key, dy)
        row = braiding_row(x_mod, y_mod, i, j)       # flat Y (x) X
        if row:
            phi.set(key, tuple(sorted(row.items())))

    def singular() -> Optional[str]:
        try:
            linear_map_inverse(phi)
        except SingularMapError:
            return "flip map is singular"
        return None

    def multiplicative(u: int, v: int) -> Optional[str]:
        lhs = phi.apply(dict(XY.mult.get(u, v)))
        rhs = YX.mult.apply(dict(phi.get(u)), dict(phi.get(v)))
        if veq(lhs, rhs):
            return None
        return (f"phi(uv) != phi(u)phi(v) at u={XY.space.label(u)}, "
                f"v={XY.space.label(v)}")

    def linear(hv: Vec, u: int) -> Optional[str]:
        lhs = phi.apply(xy.yd.action.apply(hv, {u: one}))
        rhs = yx.yd.action.apply(hv, dict(phi.get(u)))
        if veq(lhs, rhs):
            return None
        return (f"phi not H-linear at M={render_element(H.space, hv)}, "
                f"u={XY.space.label(u)}")

    def colinear(u: int) -> Optional[str]:
        lhs: Vec = {}
        for h, u0, c in xy.yd.coaction.terms(u):
            vadd_into(lhs, phi.get(u0), c, h * d)
        rhs = yx.yd.coaction.apply(dict(phi.get(u)))
        return (None if veq(lhs, rhs)
                else f"phi not H-colinear at u={XY.space.label(u)}")

    unital = counted(1, lambda: None if veq(phi.apply(dict(XY.unit)),
                                           YX.unit) else "phi(1) != 1")
    yield certificate_check("flip-bijective", d, singular)
    yield lemma_walk(XY).check(
        "flip-algebra-morphism", multiplicative, head=chained(
            unital, twisting_map_cases(XY), twisting_map_cases(YX)))
    yield Walk("generators",
               itertools.product(sorted(gen_indices(H)), range(d)),
               certificate=partial(generation_failure, H)).check(
        "flip-module-morphism", lambda h, u: linear({h: one}, u),
        head=(linear(H.unit, u) for u in range(d)))
    yield run_check("flip-comodule-morphism", "exhaustive",
                    map(colinear, range(d)))
