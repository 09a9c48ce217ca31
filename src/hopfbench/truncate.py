"""Hopf-ideal quotients, sub-Hopf extraction, and structure transport.

Three mechanical constructions used to pass from a big algebra to a
smaller one without re-deriving any structure by hand.  Each carries the
structure tensors through one pushforward (`_pushforward`), given
lift(i), the parent vector of new basis vector i, and push, a `_Push`:
the new coordinates of each parent basis vector, memoized once and
extended linearly.  The new tables are

    mult = push . m . (lift (x) lift)      unit = push(1)
    comult = (push (x) push) . Delta . lift
    antipode = push . S . lift             counit = eps . lift

A quotient lifts by its monomial section and pushes by the projection, a
sub-Hopf algebra lifts by its index and pushes by the reindex, and a
change of basis lifts to the new basis and pushes by `SpanSolver.solve`.
The same push and (push (x) push) (`_Push.pairs`) serve the Hopf-ideal
check of `central_hopf_ideal` and the transported algebra; the quotient
morphism check certifies the push of a quotient itself.

* `hopf_quotient` -- quotient a Hopf algebra by a two-sided Hopf ideal,
  with exact projection and a monomial section: the quotient basis is
  the complement of the ideal's echelon pivots, so quotient labels stay
  parent monomials.  `central_hopf_ideal` builds the ideal Hc of a
  central c and certifies it from c alone: c commutes with the
  generators (closed by their generation certificate), eps(c) = 0, S(c)
  lies in Hc and Delta(c) in Hc (x) H + H (x) Hc.

* `sub_hopf` -- cut out the sub-Hopf-algebra spanned by a subset of
  basis vectors, after certifying that the span is closed under
  multiplication, comultiplication, and the antipode.

* `change_basis_hopf` -- the same Hopf algebra on a new basis, with the
  map from old coordinates to new ones.

* `transport_action` -- move a Yetter-Drinfeld module-algebra
  structure to a subalgebra and/or an algebra quotient of the module,
  over a smaller acting Hopf algebra, emitting explicit certificates
  (span closure, action stability, ideal stability under action and
  coaction, coaction corestriction, descent through central
  identifications) instead of assuming any of it.  The span closure is
  certified from the generators of the subalgebra when they are given,
  and the subalgebra's product table is filled as it is read.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

from .hopf import FiniteAlgebra, FiniteHopf, render_element
from .results import (CheckResult, Walk, counted, generation_failure,
                      run_check)
from .sparse import (BilinearMap, ColinearMap, LazyLinearMap, QuotientSpace,
                     Space, SpanSolver, Subspace, Vec, span_closure,
                     vadd_into, vadd_term, veq, vsub)
from .ydcat import Action, Coaction, YDModuleAlgebra

__all__ = [
    "HopfQuotient",
    "SubHopf",
    "TransportedStructure",
    "central_hopf_ideal",
    "change_basis_hopf",
    "hopf_quotient",
    "quotient_morphism_check",
    "sub_hopf",
    "transport_action",
    "transport_corollaries",
]


# -- the one pushforward -------------------------------------------------------

class _Push:
    """A linear map into `dim` coordinates, given by the image(k) of each
    basis vector k, computed once into `memo` and extended linearly."""

    __slots__ = ("image", "dim", "memo")

    def __init__(self, image: Callable[[int], Vec], dim: int):
        self.image = image
        self.dim = dim
        self.memo: dict[int, Vec] = {}

    def basis(self, k: int) -> Vec:
        """The image of basis vector k (shared: read it, never edit it)."""
        pk = self.memo.get(k)
        if pk is None:
            pk = self.memo[k] = self.image(k)
        return pk

    def __call__(self, v: Vec) -> Vec:
        out: Vec = {}
        for k, c in v.items():
            vadd_into(out, self.basis(k), c)
        return out

    def pairs(self, flat: Vec, n: int) -> Vec:
        """(push (x) push) of a vector on flat pairs a * n + b, on flat
        pairs of the image coordinates.  The second legs under each first
        leg are pushed together, so a group that cancels stops there."""
        out: Vec = {}
        m = self.dim
        for a, w in _by_first(flat, n).items():
            pw = self(w)
            if pw:
                for a2, ca in self.basis(a).items():
                    vadd_into(out, pw, ca, a2 * m)
        return out


def _by_first(flat: Vec, n: int) -> dict[int, Vec]:
    """A vector on flat pairs a * n + b as {a: its vector of b legs}."""
    out: dict[int, Vec] = {}
    for key, c in flat.items():
        a, b = divmod(key, n)
        out.setdefault(a, {})[b] = c
    return out


def _projection(Q: QuotientSpace, one) -> _Push:
    """The projection onto the quotient coordinates of Q."""
    return _Push(lambda k: Q.project({k: one}), Q.dim)


def _pushforward(A, space: Space, lift: Callable[[int], Vec], push: _Push,
                 generators: Optional[list], name: str):
    """A on the basis of `space`: product push . m . (lift (x) lift) and
    unit push(1); for a FiniteHopf also coproduct (push (x) push) . Delta
    . lift, antipode push . S . lift and counit eps . lift.  The tables
    are filled as they are read."""
    n = space.dim

    def mult_fn(i: int, j: int):
        return tuple(sorted(push(A.product(lift(i), lift(j))).items()))

    mult = BilinearMap(n, n, fn=mult_fn)
    if not isinstance(A, FiniteHopf):
        return FiniteAlgebra(A.ctx, space, mult, push(A.unit),
                             generators=generators, name=name)

    def comult_fn(i: int):
        flat = push.pairs(A.coproduct(lift(i)), A.dim)
        return tuple((key // n, key % n, c) for key, c in sorted(flat.items()))

    def antipode_fn(i: int):
        return tuple(sorted(push(A.antipode_of(lift(i))).items()))

    counit = {i: e for i in range(n) if (e := A.counit_of(lift(i)))}
    return FiniteHopf(A.ctx, space, mult, push(A.unit),
                      ColinearMap(n, n, n, fn=comult_fn), counit,
                      LazyLinearMap(n, n, antipode_fn),
                      generators=generators, name=name)


def change_basis_hopf(H: FiniteHopf, vectors: Sequence[Vec], labels: Sequence,
                      render=None, name: str = "") -> tuple[FiniteHopf, _Push]:
    """The same Hopf algebra presented on a new basis, and the change of
    coordinates: the map from H coordinates to new ones, memoized on H's
    basis.

    `vectors` (in H coordinates) must be a basis; every structure tensor
    is conjugated through the change of coordinates.  Raises ValueError
    on a dependent family.
    """
    n = H.dim
    if len(vectors) != n:
        raise ValueError("basis must have exactly dim(H) vectors")
    solver = SpanSolver(n)
    for i, v in enumerate(vectors):
        if not solver.add(v):
            raise ValueError(f"basis vector #{i} is dependent")
    one = H.ctx.one
    push = _Push(lambda k: solver.solve({k: one}), n)
    gens = [push(g) for g in H.generators] if H.generators else None
    return _pushforward(H, Space(name or H.space.name, labels, render=render),
                        lambda i: vectors[i], push, gens, name or H.name), push


def central_hopf_ideal(H: FiniteHopf, c: Vec, name: str = "hopf-ideal"
                       ) -> tuple[Subspace, CheckResult]:
    """The ideal I = Hc, the span of the products e_i c, and the check
    that it is a Hopf ideal, made on c alone.

    The check walks, in order, and stops at the first failure:

    1. cg = gc for each declared generator g of H, closed by
       `results.generation_failure(H)`;
    2. eps(c) = 0;
    3. S(c) lies in I;
    4. (pi (x) pi) Delta(c) = 0, pi the projection H -> H/I: Delta(c)
       lies in I (x) H + H (x) I.

    Proof that I is then a Hopf ideal (Montgomery, Hopf Algebras and
    Their Actions on Rings, CBMS 82, 1993; Radford, Hopf Algebras,
    2012).  The hypotheses, for H = D(B), are
    `hopf-axioms.ddouble-mult-associativity`,
    `ddouble-counit-multiplicative`, `ddouble-comult-multiplicative` and
    `ddouble-antipode-convolution`; the step on S also uses the
    coalgebra axioms (`ddouble-comult-coassociativity`,
    `ddouble-counit-laws`).

    c is central.  Z = {h : hc = ch} is a subspace that holds 1, and it
    is closed under products when H is associative: (hk)c = h(ck) =
    (hc)k = c(hk) for h, k in Z.  By 1 it holds the generators, so Z = H.

    I is a two-sided ideal.  k(hc) = (kh)c, and (hc)k = h(ck) = (hk)c
    since c is central.

    I is a Hopf ideal.  eps is multiplicative, so eps(hc) = eps(h) eps(c)
    = 0 by 2.  S is antimultiplicative, which follows from the antipode
    law once H is a bialgebra (Sweedler, Hopf Algebras, 1969, ch. IV):
    S(xy) and S(y)S(x) are both convolution inverses of the product
    H (x) H -> H.  So S(hc) = S(c) S(h) lies in IH = I by 3.  Delta is
    multiplicative, so by 4 Delta(hc) = Delta(h) Delta(c) lies in
    (H (x) H)(I (x) H + H (x) I), which is inside I (x) H + H (x) I
    because I is a left ideal.
    """
    one = H.ctx.one
    ideal = Subspace(H.dim)
    ideal.add_many(H.product({i: one}, c) for i in range(H.dim))
    walk = Walk("generators", ((g,) for g in H.generators),
                certificate=partial(generation_failure, H))

    def commutes(g: Vec) -> Optional[str]:
        if veq(H.product(c, g), H.product(g, c)):
            return None
        return f"c does not commute with {render_element(H.space, g)}"

    def body():
        wit = yield from walk.cases(name, commutes)
        if wit is not None:
            return wit
        rendered = render_element(H.space, c)
        yield (f"counit does not vanish on c = {rendered}"
               if H.counit_of(c) else None)
        yield (None if ideal.contains(H.antipode_of(c))
               else f"antipode escapes on c = {rendered}")
        yield (f"coproduct of c = {rendered} escapes I(x)H + H(x)I"
               if _projection(QuotientSpace(H.dim, ideal), one).pairs(
                   H.coproduct(c), H.dim) else None)

    return ideal, run_check(name, walk.label, body())


class HopfQuotient:
    """A Hopf algebra quotient with its projection and monomial section.

    `_pushed` is None, or the (quotient, parent, qspace, projection) that
    `hopf_quotient` pushed the quotient's tables through."""

    __slots__ = ("parent", "ideal", "qspace", "quotient", "_push", "_pushed")

    def __init__(self, parent: FiniteHopf, ideal: Subspace,
                 qspace: QuotientSpace, quotient: Optional[FiniteHopf]):
        self.parent = parent
        self.ideal = ideal
        self.qspace = qspace
        self.quotient = quotient
        self._push = _projection(qspace, parent.ctx.one)
        self._pushed = None

    def project(self, v: Vec) -> Vec:
        """Parent coordinates -> quotient coordinates."""
        return self._push(v)

    def section(self, qv: Vec) -> Vec:
        return self.qspace.section(qv)


def hopf_quotient(H: FiniteHopf, I: Subspace, name: str = "") -> HopfQuotient:
    """Quotient Hopf algebra on the complement of the ideal's pivots.

    Structure tensors are projection . (parent structure) . section;
    I must be a Hopf ideal (`central_hopf_ideal` certifies Hc), and
    check_hopf_axioms certifies the result.
    """
    Q = QuotientSpace(H.dim, I)
    hq = HopfQuotient(H, I, Q, None)    # its projection builds the quotient
    push = hq._push
    one = H.ctx.one
    name = name or f"{H.name}/I"
    space = Space(name, tuple(H.space.labels[a] for a in Q.labels),
                  render=H.space.render)
    gens = ([g2 for g in H.generators if (g2 := push(g))] if H.generators
            else None)
    hq.quotient = _pushforward(H, space, lambda i: Q.section({i: one}), push,
                               gens, name)
    hq._pushed = (hq.quotient, H, Q, push)
    return hq


def quotient_morphism_check(hq: HopfQuotient) -> CheckResult:
    """The projection pi: H -> K = H/I is a Hopf-algebra morphism,
    certified from the construction of K.

    `hopf_quotient` builds K as the pushforward (`_pushforward`) of H
    through pi and the section s:

        m_K = pi . m . (s (x) s)     1_K = pi(1)
        Delta_K = (pi (x) pi) . Delta . s
        S_K = pi . S . s             eps_K = eps . s

    The check reads none of these tables, so a quotient they were not
    built for -- not made by `hopf_quotient` from this `hq`'s parent,
    quotient space and projection -- is refused with a ValueError.  It
    walks, in order, and stops at the first failure:

    1. dim K + dim I = dim H;
    2. pi(s(e_i)) = e_i for every basis vector e_i of K;
    3. pi(r) = 0 for every echelon row r of I, named by its pivot.

    By 2, pi is onto, so ker pi has dimension dim H - dim K, which is
    dim I by 1; by 3, ker pi holds I.  So ker pi = I, and x - s(pi(x))
    lies in I for every x, by 2.

    Proof that pi is then a Hopf-algebra morphism.  The hypothesis is
    that I is a Hopf ideal: `truncations.uq-ideal-hopf` certifies the
    ideal of `taft.uqsl2`, and its `hq` holds that same ideal.  For x, y
    in H put a = s(pi(x)) - x and b = s(pi(y)) - y, both in I.  Then

        pi(x) pi(y) = pi(s(pi(x)) s(pi(y))) = pi(xy + ay + xb + ab)
                    = pi(xy), as I is a two-sided ideal;
        Delta_K(pi(x)) = (pi (x) pi) Delta(x + a) = (pi (x) pi) Delta(x),
                    as Delta(I) lies in I (x) H + H (x) I;
        eps_K(pi(x)) = eps(x + a) = eps(x), as eps(I) = 0;
        S_K(pi(x)) = pi(S(x + a)) = pi(S(x)), as S(I) lies in I;

    and pi(1) = 1_K by definition.  Every basis vector of K and every
    row of I is checked, so the result is labelled "exhaustive".
    """
    H, I, Q, K = hq.parent, hq.ideal, hq.qspace, hq.quotient
    pi = hq._push
    if hq._pushed is None or any(
            a is not b for a, b in zip(hq._pushed, (K, H, Q, pi))):
        raise ValueError("quotient-morphism: the quotient was not built by "
                         "hopf_quotient through this projection")
    one = H.ctx.one

    def body():
        yield (None if K.dim + I.rank == H.dim else
               f"dim K + dim I = {K.dim} + {I.rank}, expected dim H = {H.dim}")
        for i in range(K.dim):
            yield (None if veq(pi(Q.section({i: one})), {i: one})
                   else f"pi(s(x)) != x at x={K.space.label(i)}")
        for pivot in I.pivots:
            yield (f"pi does not vanish on the row of I with pivot "
                   f"{H.space.label(pivot)}" if pi(I.pivot_row[pivot])
                   else None)

    return run_check("quotient-morphism", "exhaustive", body())


class SubHopf(NamedTuple):
    """A sub-Hopf-algebra on a subset of the parent's basis."""

    parent: FiniteHopf
    indices: tuple            # parent basis indices, ascending
    hopf: Optional[FiniteHopf]
    check: CheckResult
    positions: dict           # parent index -> sub index

    def restrict(self, v: Vec) -> Optional[Vec]:
        """Parent coordinates -> sub coordinates, None if outside."""
        pos = self.positions
        out = {}
        for k, c in v.items():
            j = pos.get(k)
            if j is None:
                return None
            out[j] = c
        return out

    def embed(self, sv: Vec) -> Vec:
        idx = self.indices
        return {idx[j]: c for j, c in sv.items()}


def sub_hopf(H: FiniteHopf, indices: Sequence[int],
             generators: Optional[Sequence[int]] = None,
             name: str = "") -> SubHopf:
    """Sub-Hopf-algebra spanned by the given basis vectors of H.

    Certifies that the span S contains the unit and is closed under
    multiplication, comultiplication, and the antipode; returns the sub
    with reindexed tensors, or hopf=None with the failing witness.

    Without `generators` the check walks every product of two basis
    vectors of S, labelled "exhaustive".  With them -- basis indices of
    H inside S -- it walks S g for each generator g, one case per
    product, then one case for the span closure of the unit and the
    generators under right multiplication by them, which must reach
    rank |S|, labelled "generators".  Proof that S S lies in S, for H
    associative: every element of S is then a sum of words
    g1 g2 ... gk, and for s in S, s (g1 ... gk) = (... (s g1) ...) gk
    lies in S one factor at a time.  The hypothesis is the associativity
    of H.
    """
    idx = tuple(sorted(indices))
    pos = {amb: j for j, amb in enumerate(idx)}
    cname = name or f"sub({H.name})"
    label = H.space.label
    one = H.ctx.one

    def outside(row) -> list:
        return [k for k, _c in row if k not in pos]

    def coalgebra_closed(a: int) -> Optional[str]:
        if any(j not in pos or k not in pos for j, k, _c in H.comult.get(a)):
            return f"coproduct of {label(a)} has a leg outside the span"
        out = outside(H.antipode.get(a))
        return f"antipode of {label(a)} escapes at {label(out[0])}" if out else None

    def spanned() -> Optional[str]:
        if not pos.keys() >= set(generators):
            return "a generator lies outside the span"
        seed = [dict(H.unit)] + [{g: one} for g in generators]
        rank = span_closure(seed, H.product, H.dim).rank
        return (None if rank == len(idx) else
                f"the unit and the generators span rank {rank} of {len(idx)}")

    def body():
        for k in H.unit:
            yield (None if k in pos
                   else f"unit has support outside the span at {label(k)}")
        right = idx if generators is None else sorted(generators)
        for a, b in itertools.product(idx, right):
            out = outside(H.mult.get(a, b))
            yield (f"product {label(a)} * {label(b)} escapes at {label(out[0])}"
                   if out else None)
        if generators is not None:
            yield spanned()
        yield from map(coalgebra_closed, idx)

    check = run_check(f"{cname}-closure", "exhaustive" if generators is None
                      else "generators", body())
    if not check.ok:
        return SubHopf(H, idx, None, check, pos)
    space = Space(cname, tuple(H.space.labels[a] for a in idx),
                  render=H.space.render)
    gens = ([{pos[a]: one} for a in generators] if generators is not None
            else None)
    hopf = _pushforward(H, space, lambda i: {idx[i]: one},
                        _Push(lambda k: {pos[k]: one}, len(idx)), gens, cname)
    return SubHopf(H, idx, hopf, check, pos)


# -- transport of YD structures to subquotients -------------------------------

class TransportedStructure(NamedTuple):
    """A YD module-algebra structure moved to a subquotient of its module.

    The target algebra lives on quotient coordinates of the chosen
    subalgebra; `yd` is None when any certificate failed.
    """

    certificates: list
    yd: Optional[YDModuleAlgebra]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.certificates)


def transport_action(source: YDModuleAlgebra,
                     sub_basis: Sequence[Vec],
                     sub_labels: Sequence,
                     ideal_seed: Sequence[Vec] = (),
                     ideal_gens: Optional[Sequence[Vec]] = None,
                     action_lifts: Optional[Sequence[Vec]] = None,
                     target_hopf: Optional[FiniteHopf] = None,
                     hopf_lift: Optional[Callable[[int], Vec]] = None,
                     hopf_corestrict: Optional[Callable[[Vec], Optional[Vec]]] = None,
                     descent_central: Sequence[Vec] = (),
                     target_generators: Sequence[int] = (),
                     render=None, name: str = "",
                     prefix: str = "transport") -> TransportedStructure:
    """Restrict a YD structure to a subalgebra, then an algebra quotient.

    sub_basis spans the subalgebra inside the source module; ideal_seed
    (in sub coordinates) generates the algebra ideal to quotient by.
    target_hopf (with basis `hopf_lift` into the source Hopf algebra and
    linear `hopf_corestrict` out of it) is the Hopf algebra acting after
    transport; identity by default.  descent_central lists central
    source-Hopf elements gamma whose action must equal the identity on
    the target, certifying that the action descends through the
    identification gamma = 1.

    action_lifts, when given, are source-coordinate elements whose
    products span every lift of the target Hopf algebra; the
    ideal-stability certificate quantifies over these instead of the
    source generators.  (The span-stability certificate always uses the
    source generators: full stability is what lets central descent
    elements absorb arbitrary source factors.)

    target_generators are sub-basis indices G that, with 1, generate the
    subalgebra S spanned by sub_basis.  The sub-closure certificate then
    walks S * g for every sub basis vector and every g in G, and checks
    that the span closure of {1} and G under the product has rank k =
    len(sub_basis) (`results.generation_failure`); it is labelled
    "generators".  Proof that S * S lies in S: T = {t : S t in S} holds
    1 and G, and it is closed under products when the source algebra is
    associative, S (t t') = (S t) t' in S t' in S; so T holds the
    algebra generated by G, which is S by the rank.  The hypothesis is
    `hopf-axioms.hdouble-mult-associativity`.  Without target_generators
    G is the whole sub basis, the walk covers every pair and is labelled
    "exhaustive".  Products outside the walk are computed when first
    read.

    Certificates emitted: sub-closure, action-stable, ideal-stable,
    coaction-corestricts, descent (one per gamma).

    The transport lemma: S/J is a YD K-module algebra, braided
    commutative when X is, so `transport_corollaries` reads the
    module-action, module-algebra, yd-condition and braided-commutative
    laws of the result off the certificates.  Write X and H for the
    source algebra and Hopf algebra, S for the span of sub_basis, J for
    the ideal, K for target_hopf, l for hopf_lift and k for
    hopf_corestrict, and [s] for the class of s in S/J.  The tables of
    S/J and of K are the `_pushforward` formulas: [s][t] = [st],
    h . [s] = [l(h) |> s] and delta[s] = (k (x) proj) delta(s).  For
    `hqsl2` the hypotheses are the `yd` lines of H(B*) --
    `yd.module-action`, `yd.module-algebra`, `yd.comodule-algebra`,
    `yd.yd-condition` and `yd.braided-commutative` -- and these
    certificates:

    * `hq-transport-sub-closure`: S is a subalgebra holding 1, so S/J
      is an algebra once J is an ideal of S, which the span closure in
      ideal mode makes it;
    * `hq-transport-action-stable`: the generators of H, so by
      `yd.module-action` all of H, map S into S;
    * `hq-transport-ideal-stable`: the action_lifts, whose products span
      l(K), map J into J, and (k (x) proj) delta(J) = 0, so the action
      and the coaction are well defined on S/J;
    * `hq-transport-coaction-corestricts`: delta(S) lies in H (x) S with
      first legs that k carries into K;
    * `hq-transport-descent-0`: gamma = kap k acts as the identity on
      S/J;
    * `uq-ideal-hopf`: I = H(gamma - 1) is a Hopf ideal with gamma
      central; `quotient-morphism`: the projection pi: H -> H/I is the
      quotient map, with kernel I; `Uq(p=...)-closure`: K is a sub-Hopf
      algebra of H/I.  l and k are built through pi, so pi l is the
      inclusion of K and w - l(k(w)) lies in I wherever k(w) is defined.

    I acts by zero on S/J: for d in H and s in S, (d(gamma - 1)) |> s =
    (gamma - 1) |> (d |> s), as gamma is central, d |> s lies in S and
    gamma - 1 maps S into J.  So every identity of X pushes through pi:
    l(hh') - l(h) l(h') and (l (x) l) Delta_K(h) - Delta_H(l(h)) lie in
    I and I (x) H + H (x) I, which act by zero.  Then the module law of
    X gives (hh') . [s] = h . (h' . [s]); `yd.module-algebra` gives
    h . [st] = (h' . [s])(h'' . [t]); the YD condition of X for l(h)
    and s, pushed through pi (x) proj, gives the YD condition of S/J;
    and braided commutativity of X, st = (s_(-1) |> t) s_(0) with
    s_(-1) (x) s_(0) in H (x) S, gives [s][t] = (k(s_(-1)) . [t]) [s_(0)].
    Each of the four laws on S/J fails only when one of these
    certificates or hypotheses fails; the truncations suite's
    comodule-coaction and comodule-algebra lines still walk the result.
    """
    X = source.algebra
    H = source.hopf
    ctx = X.ctx
    one = ctx.one
    k = len(sub_basis)
    certs: list[CheckResult] = []
    gens = list(target_generators) or range(k)
    solver = SpanSolver(X.dim)

    def sub_row(i: int, j: int) -> Optional[tuple]:
        row = solver.solve(X.product(sub_basis[i], sub_basis[j]))
        return None if row is None else tuple(sorted(row.items()))

    def certified_row(i: int, j: int) -> tuple:
        row = sub_row(i, j)
        if row is None:
            raise ValueError("product left the certified span")
        return row

    sub_mult = BilinearMap(k, k, fn=certified_row)
    sub = None

    def spanned() -> Optional[str]:
        """None, once `sub` is the algebra on the span of sub_basis, when
        the vectors are independent and their span holds the unit."""
        nonlocal sub
        for i, v in enumerate(sub_basis):
            if not solver.add(v):
                return f"sub basis vector #{i} ({sub_labels[i]}) is dependent"
        unit_sub = solver.solve(dict(X.unit))
        if unit_sub is None:
            return "unit is outside the span"
        sub = FiniteAlgebra(ctx, Space(f"{prefix}-sub", sub_labels), sub_mult,
                            unit_sub, generators=[{g: one} for g in gens])
        return None

    def closed(i: int, j: int) -> Optional[str]:
        row = sub_row(i, j)
        if row is None:
            return (f"product ({sub_labels[i]}) * ({sub_labels[j]}) "
                    f"escapes the span")
        sub_mult.set(i, j, row)
        return None

    certs.append(Walk("generators" if target_generators else "exhaustive",
                      itertools.product(range(k), gens),
                      certificate=lambda: generation_failure(sub)).check(
        f"{prefix}-sub-closure", closed, head=counted(k, spanned)))
    if not certs[-1].ok:
        return TransportedStructure(certs, None)

    # action stability of the subalgebra under the source Hopf algebra
    act_gens = ([dict(g) for g in H.generators] if H.generators
                else [{i: one} for i in range(H.dim)])
    certs.append(run_check(f"{prefix}-action-stable", "exhaustive", (
        None if solver.solve(source.action.apply(g, sub_basis[i])) is not None
        else f"action drives ({sub_labels[i]}) out of the span"
        for g in act_gens for i in range(k))))
    if not certs[-1].ok:
        return TransportedStructure(certs, None)

    # the algebra ideal inside the sub, and its quotient
    if ideal_seed:
        gens_for_closure = (list(ideal_gens) if ideal_gens is not None
                            else [{i: one} for i in range(k)])
        J = span_closure(list(ideal_seed), sub.product, k, mode="ideal",
                         generators=gens_for_closure)
    else:
        J = Subspace(k)
    Q = QuotientSpace(k, J)
    proj = _projection(Q, one)
    lift_sub = _Push(lambda i: sub_basis[i], X.dim)

    if target_hopf is None:
        target_hopf = H
    if hopf_lift is None:
        hopf_lift = lambda h: {h: one}
    if hopf_corestrict is None:
        hopf_corestrict = lambda w: w

    # ideal stability under the action and under the coaction: the image
    # (corestrict (x) project) delta(j) must vanish -- legs that differ in
    # the source Hopf algebra may only cancel after corestriction.
    stab_gens = ([dict(g) for g in action_lifts] if action_lifts is not None
                 else act_gens)

    def coaction_vanishes(j_X: Vec) -> Optional[str]:
        acc: Vec = {}
        for h, w in _by_first(source.coaction.apply(j_X), X.dim).items():
            r = solver.solve(w)
            if r is None:
                return "coaction leg escapes the span"
            xq = proj(r)
            if not xq:
                continue
            tw = hopf_corestrict({h: one})
            if tw is None:
                return ("coaction leg with support modulo the ideal is "
                        "outside the target Hopf algebra")
            for ht, cth in tw.items():
                vadd_into(acc, xq, cth, ht * Q.dim)
        return "coaction leg does not vanish modulo the ideal" if acc else None

    def ideal_stable():
        for jr in J.basis_rows():
            j_X = lift_sub(jr)
            for g in stab_gens:
                r = solver.solve(source.action.apply(g, j_X))
                yield (None if r is not None and J.contains(r)
                       else "action does not preserve the ideal")
            yield coaction_vanishes(j_X)

    certs.append(run_check(f"{prefix}-ideal-stable", "exhaustive",
                           ideal_stable()))

    # coaction corestriction to the target Hopf algebra
    coact_rows: list[list] = []

    def corestricts(i: int) -> Optional[str]:
        by_sub: dict[int, Vec] = {}
        for h, w in _by_first(source.coaction.apply(sub_basis[i]),
                              X.dim).items():
            r = solver.solve(w)
            if r is None:
                return (f"coaction second leg of ({sub_labels[i]}) escapes "
                        f"the span")
            for sj, c in r.items():
                by_sub.setdefault(sj, {})[h] = c
        row = []
        for sj, hw in sorted(by_sub.items()):
            tw = hopf_corestrict(hw)
            if tw is None:
                return (f"coaction first leg of ({sub_labels[i]}) is outside "
                        f"the target Hopf algebra")
            row.append((sj, tw))
        coact_rows.append(row)
        return None

    certs.append(run_check(f"{prefix}-coaction-corestricts", "exhaustive",
                           map(corestricts, range(k))))

    # descent: each declared central gamma must act as the identity
    def fixes(gamma: Vec, v: Vec) -> bool:
        r = solver.solve(vsub(source.action.apply(gamma, v), v))
        return r is not None and not proj(r)

    for gi, gamma in enumerate(descent_central):
        certs.append(run_check(f"{prefix}-descent-{gi}", "exhaustive", (
            None if fixes(gamma, v) else
            f"central element #{gi} does not act as the identity on "
            f"({sub_labels[i]}) modulo the ideal"
            for i, v in enumerate(sub_basis))))

    if not all(c.ok for c in certs):
        return TransportedStructure(certs, None)

    # assemble the transported structure on quotient coordinates
    t_space = Space(name or f"{X.name}-transported",
                    tuple(sub_labels[a] for a in Q.labels), render=render)
    t_alg = _pushforward(sub, t_space, lambda i: Q.section({i: one}), proj,
                         [proj({g: one}) for g in target_generators] or None,
                         t_space.name)

    def t_act_fn(ht: int, xt: int) -> Vec:
        lifted = hopf_lift(ht)
        v = sub_basis[Q.labels[xt]]
        r = solver.solve(source.action.apply(lifted, v))
        if r is None:
            raise ValueError("transported action left the certified span")
        return proj(r)

    def t_coact_fn(xt: int):
        row = coact_rows[Q.labels[xt]]
        acc: dict = {}
        for sj, tw in row:
            for xq, cq in proj.basis(sj).items():
                for ht, cth in tw.items():
                    vadd_term(acc, (ht, xq), cth * cq)
        return tuple(sorted((h, x, c) for (h, x), c in acc.items()))

    yd = YDModuleAlgebra(target_hopf, t_alg,
                         Action(target_hopf, t_alg, t_act_fn),
                         Coaction(target_hopf, t_alg, t_coact_fn),
                         name=t_space.name)
    return TransportedStructure(certs, yd)


def transport_corollaries(certificates: Sequence[CheckResult],
                          laws: Sequence[str] = (
                              "module-action", "module-algebra",
                              "yd-condition", "braided-commutative")) -> list:
    """`laws` as corollaries of the lemma that reads them off
    `certificates`, labelled "generators": by default the four laws of a
    transported structure (see `transport_action`).

    The certificates are read in order, one case each: every law passes
    when every one of them passed, and every law fails at the first that
    did not, with its name and witness.
    """
    return [run_check(law, "generators", (
                None if cert.status == "pass"
                else f"rests on {cert.name} ({cert.status}): {cert.witness}"
                for cert in certificates))
            for law in laws]
