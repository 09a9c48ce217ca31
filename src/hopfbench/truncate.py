"""Hopf-ideal quotients, sub-Hopf extraction, and structure transport.

Three mechanical constructions used to pass from a big algebra to a
smaller one without re-deriving any structure by hand:

* `hopf_quotient` -- quotient a Hopf algebra by a two-sided Hopf ideal,
  with exact projection and a monomial section: the quotient basis is
  the complement of the ideal's echelon pivots, so quotient labels stay
  parent monomials.  `central_hopf_ideal` builds the ideal Hc of a
  central c and certifies it from c alone: c commutes with the
  generators (closed by their generation certificate), eps(c) = 0, S(c)
  lies in Hc and Delta(c) in Hc (x) H + H (x) Hc.  `check_hopf_ideal`
  certifies any other ideal on every basis row.

* `sub_hopf` -- cut out the sub-Hopf-algebra spanned by a subset of
  basis vectors, after certifying that the span is closed under
  multiplication, comultiplication, and the antipode.

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
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional, Sequence

from .hopf import FiniteAlgebra, FiniteHopf, render_element
from .results import (Check, CheckResult, Walk, gen_indices,
                      generation_failure, lemma_walk)
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
    "check_hopf_ideal",
    "hopf_quotient",
    "quotient_morphism_check",
    "sub_hopf",
    "transport_action",
]


def change_basis_hopf(H: FiniteHopf, vectors: Sequence[Vec], labels: Sequence,
                      render=None, name: str = "") -> FiniteHopf:
    """The same Hopf algebra presented on a new basis.

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

    space = Space(name or H.space.name, tuple(labels), render=render)

    def mult_fn(i: int, j: int):
        return tuple(sorted(solver.solve(H.product(vectors[i],
                                                   vectors[j])).items()))

    def comult_fn(i: int):
        flat = H.coproduct(vectors[i])
        by_second: dict[int, Vec] = {}
        for key, c in flat.items():
            a, b = divmod(key, n)
            by_second.setdefault(b, {})[a] = c
        mid: dict[int, Vec] = {}
        for b, u in by_second.items():
            for inew, c in solver.solve(u).items():
                mid.setdefault(inew, {})[b] = c
        out = []
        for inew, y in sorted(mid.items()):
            for jnew, c in sorted(solver.solve(y).items()):
                out.append((inew, jnew, c))
        return tuple(out)

    def antipode_fn(i: int):
        return tuple(sorted(solver.solve(H.antipode_of(vectors[i])).items()))

    counit = {}
    for i, v in enumerate(vectors):
        c = H.counit_of(v)
        if c:
            counit[i] = c
    unit = solver.solve(dict(H.unit))
    gens = None
    if H.generators:
        gens = [solver.solve(dict(g)) for g in H.generators]
    return FiniteHopf(H.ctx, space, BilinearMap(n, n, fn=mult_fn), unit,
                      ColinearMap(n, n, n, fn=comult_fn), counit,
                      LazyLinearMap(n, n, antipode_fn),
                      generators=gens, name=name or H.name)


def _multipliers(H: FiniteHopf):
    """Elements whose ideal-stability implies two-sidedness.

    Generators suffice when they generate H as a unital algebra (which
    is certified); otherwise every basis vector is used.
    """
    one = H.ctx.one
    if H.generators and generation_failure(H) is None:
        return [dict(g) for g in H.generators]
    return [{i: one} for i in range(H.dim)]


def _comult_escapes(H: FiniteHopf, Q: QuotientSpace) -> Callable[[Vec], bool]:
    """A test of Delta(v) outside I (x) H + H (x) I, I the ideal of Q:
    (pi (x) pi) Delta(v) != 0, pi the projection H -> H/I."""
    one = H.ctx.one
    pcache: dict[int, Vec] = {}

    def proj(v: Vec) -> Vec:
        out: Vec = {}
        for k, c in v.items():
            pk = pcache.get(k)
            if pk is None:
                pk = Q.project({k: one})
                pcache[k] = pk
            vadd_into(out, pk, c)
        return out

    def escapes(v: Vec) -> bool:
        by_first: dict[int, Vec] = {}
        for key, c in H.coproduct(v).items():
            a, b = divmod(key, H.dim)
            by_first.setdefault(a, {})[b] = c
        by_second: dict[int, Vec] = {}
        for a, w in by_first.items():
            for qb, c in proj(w).items():
                by_second.setdefault(qb, {})[a] = c
        return any(proj(w) for w in by_second.values())

    return escapes


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
    chk = Check(name, walk.label)

    def commutes(g: Vec) -> Optional[str]:
        if veq(H.product(c, g), H.product(g, c)):
            return None
        return f"c does not commute with {render_element(H.space, g)}"

    def failure() -> Optional[str]:
        wit = walk.failure(chk, commutes)
        if wit is not None:
            return wit
        rendered = render_element(H.space, c)
        chk.cases += 1
        if H.counit_of(c):
            return f"counit does not vanish on c = {rendered}"
        chk.cases += 1
        if not ideal.contains(H.antipode_of(c)):
            return f"antipode escapes on c = {rendered}"
        chk.cases += 1
        if _comult_escapes(H, QuotientSpace(H.dim, ideal))(c):
            return f"coproduct of c = {rendered} escapes I(x)H + H(x)I"
        return None

    return ideal, chk.result(failure())


def check_hopf_ideal(H: FiniteHopf, I: Subspace,
                     name: str = "hopf-ideal") -> CheckResult:
    """Certify that the echelonized span I is a Hopf ideal of H.

    Checks, on every basis row of I: I is a two-sided ideal; eps(I) = 0;
    S(I) is contained in I; and Delta(I) lands in I (x) H + H (x) I,
    tested as vanishing under the tensor square of the quotient
    projection.  An ideal generated by one central element is certified
    from that element by `central_hopf_ideal`.
    """
    chk = Check(name, "exhaustive")
    rows = I.basis_rows()
    mults = _multipliers(H)
    for r in rows:
        for g in mults:
            chk.cases += 2
            if not I.contains(H.product(g, r)):
                return chk.result(
                    f"left multiple escapes: row {render_element(H.space, r)}")
            if not I.contains(H.product(r, g)):
                return chk.result(
                    f"right multiple escapes: row {render_element(H.space, r)}")

    for r in rows:
        chk.cases += 1
        if H.counit_of(r):
            return chk.result(
                f"counit does not vanish on {render_element(H.space, r)}")

    for r in rows:
        chk.cases += 1
        if not I.contains(H.antipode_of(r)):
            return chk.result(f"antipode escapes on {render_element(H.space, r)}")

    escapes = _comult_escapes(H, QuotientSpace(H.dim, I))
    for r in rows:
        chk.cases += 1
        if escapes(r):
            return chk.result(f"coproduct of {render_element(H.space, r)} "
                              f"escapes I(x)H + H(x)I")
    return chk.result()


@dataclass
class HopfQuotient:
    """A Hopf algebra quotient with its projection and monomial section."""

    parent: FiniteHopf
    ideal: Subspace
    qspace: QuotientSpace
    quotient: FiniteHopf
    _pcache: dict = field(default_factory=dict, repr=False)

    def project(self, v: Vec) -> Vec:
        """Parent coordinates -> quotient coordinates (linear cache)."""
        one = self.parent.ctx.one
        out: Vec = {}
        for k, c in v.items():
            pk = self._pcache.get(k)
            if pk is None:
                pk = self.qspace.project({k: one})
                self._pcache[k] = pk
            vadd_into(out, pk, c)
        return out

    def section(self, qv: Vec) -> Vec:
        return self.qspace.section(qv)


def hopf_quotient(H: FiniteHopf, I: Subspace, name: str = "") -> HopfQuotient:
    """Quotient Hopf algebra on the complement of the ideal's pivots.

    Structure tensors are projection . (parent structure) . section;
    run check_hopf_ideal first, and check_hopf_axioms on the result.
    """
    Q = QuotientSpace(H.dim, I)
    nq = Q.dim
    amb = Q.labels                      # quotient index -> parent index
    labels = tuple(H.space.labels[a] for a in amb)
    if not name:
        name = f"{H.name}/I"
    space = Space(name, labels, render=H.space.render)
    hq = HopfQuotient(H, I, Q, None)    # filled below; project() needs it
    one = H.ctx.one

    def mult_fn(i: int, j: int):
        return tuple(sorted(hq.project(dict(H.mult.get(amb[i], amb[j]))).items()))

    def comult_fn(i: int):
        flat = {}
        for j, k, c in H.comult.get(amb[i]):
            # project both legs
            for j2, cj in hq.project({j: one}).items():
                for k2, ck in hq.project({k: one}).items():
                    vadd_term(flat, j2 * nq + k2, c * cj * ck)
        return tuple((key // nq, key % nq, c) for key, c in sorted(flat.items()))

    def antipode_fn(i: int):
        return tuple(sorted(hq.project(dict(H.antipode.get(amb[i]))).items()))

    counit = {}
    for i, a in enumerate(amb):
        c = H.counit.get(a)
        if c:
            counit[i] = c

    unit = hq.project(H.unit)
    gens = None
    if H.generators:
        gens = [g2 for g in H.generators if (g2 := hq.project(dict(g)))]

    quotient = FiniteHopf(H.ctx, space, BilinearMap(nq, nq, fn=mult_fn), unit,
                          ColinearMap(nq, nq, nq, fn=comult_fn), counit,
                          LazyLinearMap(nq, nq, antipode_fn),
                          generators=gens, name=name)
    hq.quotient = quotient
    return hq


def quotient_morphism_check(hq: HopfQuotient,
                            name: str = "quotient-morphism") -> CheckResult:
    """The projection pi: H -> K is a Hopf-algebra morphism.

    Multiplicativity pi(xy) = pi(x) pi(y): when H declares generators,
    pi(1) = 1_K and the pairs of `results.lemma_walk(H)` put the unit
    and the generators in S = {x : pi(xy) = pi(x) pi(y) for all y}, a
    subalgebra because H and K are associative, and the walk's
    certificate makes S all of H; the result is labelled "generators".
    Its hypotheses are proved elsewhere: for u_q(sl_2), H = D(B) by
    `hopf-axioms.ddouble-mult-associativity`, and K is the quotient by
    the ideal that `uq-ideal-hopf` certifies.  When H declares no
    generators every basis pair is walked.  Delta, eps and S are then
    checked on every basis vector.
    """
    H, K = hq.parent, hq.quotient
    nq = K.dim
    one = H.ctx.one

    def unit_failure(chk: Check) -> Optional[str]:
        chk.cases += 1
        return None if veq(hq.project(dict(H.unit)), K.unit) else "pi(1) != 1"

    def case(i: int, j: int) -> Optional[str]:
        lhs = hq.project(dict(H.mult.get(i, j)))
        rhs = K.mult.apply(hq.project({i: one}), hq.project({j: one}))
        if veq(lhs, rhs):
            return None
        return f"pi(xy) != pi(x)pi(y) at x={H.space.label(i)}, y={H.space.label(j)}"

    if gen_indices(H) is None:
        walk = Walk("exhaustive", itertools.product(range(H.dim), repeat=2))
    else:
        walk = replace(lemma_walk(H), prelude=unit_failure)
    chk = Check(name, walk.label)
    wit = walk.failure(chk, case)
    if wit is not None:
        return chk.result(wit)
    for i in range(H.dim):
        chk.cases += 1
        pi = hq.project({i: one})
        lhs: Vec = {}
        for j, k, c in H.comult.get(i):
            for j2, cj in hq.project({j: one}).items():
                for k2, ck in hq.project({k: one}).items():
                    vadd_term(lhs, j2 * nq + k2, c * cj * ck)
        if not veq(lhs, K.coproduct(pi)):
            return chk.result(f"(pi(x)pi)Delta(x) != Delta(pi(x)) "
                              f"at x={H.space.label(i)}")
        if H.counit.get(i, None) != K.counit_of(pi) and \
                (H.counit.get(i) or K.counit_of(pi)):
            return chk.result(f"counit mismatch at x={H.space.label(i)}")
        if not veq(hq.project(dict(H.antipode.get(i))), K.antipode_of(pi)):
            return chk.result(f"pi(S(x)) != S(pi(x)) at x={H.space.label(i)}")
    return chk.result()


@dataclass
class SubHopf:
    """A sub-Hopf-algebra on a subset of the parent's basis."""

    parent: FiniteHopf
    indices: tuple            # parent basis indices, ascending
    hopf: Optional[FiniteHopf]
    check: CheckResult

    def restrict(self, v: Vec) -> Optional[Vec]:
        """Parent coordinates -> sub coordinates, None if outside."""
        pos = self._pos
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

    @property
    def _pos(self):
        return {amb: j for j, amb in enumerate(self.indices)}


def sub_hopf(H: FiniteHopf, indices: Sequence[int],
             generators: Optional[Sequence[int]] = None,
             name: str = "") -> SubHopf:
    """Sub-Hopf-algebra spanned by the given basis vectors of H.

    Certifies that the span contains the unit and is closed under
    multiplication, comultiplication, and the antipode; returns the sub
    with reindexed tensors, or hopf=None with the failing witness.
    """
    idx = tuple(sorted(indices))
    iset = set(idx)
    pos = {amb: j for j, amb in enumerate(idx)}
    n = len(idx)
    cname = name or f"sub({H.name})"
    chk = Check(f"{cname}-closure", "exhaustive")

    def fail(w):
        return SubHopf(H, idx, None, chk.result(w))

    for k in H.unit:
        chk.cases += 1
        if k not in iset:
            return fail(f"unit has support outside the span at {H.space.label(k)}")
    for a in idx:
        for b in idx:
            chk.cases += 1
            for k, _c in H.mult.get(a, b):
                if k not in iset:
                    return fail(f"product {H.space.label(a)} * {H.space.label(b)} "
                                f"escapes at {H.space.label(k)}")
    for a in idx:
        chk.cases += 1
        for j, k, _c in H.comult.get(a):
            if j not in iset or k not in iset:
                return fail(f"coproduct of {H.space.label(a)} has a leg outside "
                            f"the span")
        for k, _c in H.antipode.get(a):
            if k not in iset:
                return fail(f"antipode of {H.space.label(a)} escapes "
                            f"at {H.space.label(k)}")

    labels = tuple(H.space.labels[a] for a in idx)
    space = Space(cname, labels, render=H.space.render)

    def mult_fn(i: int, j: int):
        return tuple(sorted((pos[k], c) for k, c in H.mult.get(idx[i], idx[j])))

    def comult_fn(i: int):
        return tuple(sorted((pos[j], pos[k], c)
                            for j, k, c in H.comult.get(idx[i])))

    def antipode_fn(i: int):
        return tuple(sorted((pos[k], c) for k, c in H.antipode.get(idx[i])))

    counit = {}
    for j, a in enumerate(idx):
        c = H.counit.get(a)
        if c:
            counit[j] = c
    unit = {pos[k]: c for k, c in H.unit.items()}
    gens = None
    if generators is not None:
        gens = [{pos[a]: H.ctx.one} for a in generators]

    hopf = FiniteHopf(H.ctx, space, BilinearMap(n, n, fn=mult_fn), unit,
                      ColinearMap(n, n, n, fn=comult_fn), counit,
                      LazyLinearMap(n, n, antipode_fn),
                      generators=gens, name=cname)
    return SubHopf(H, idx, hopf, chk.result())


# -- transport of YD structures to subquotients -------------------------------

@dataclass
class TransportedStructure:
    """A YD module-algebra structure moved to a subquotient of its module.

    The target algebra lives on quotient coordinates of the chosen
    subalgebra; `yd` is None when any certificate failed.
    """

    source: YDModuleAlgebra
    sub: SpanSolver
    sub_basis: list
    ideal: Subspace
    qspace: QuotientSpace
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
    """
    X = source.algebra
    H = source.hopf
    ctx = X.ctx
    one = ctx.one
    k = len(sub_basis)
    certs: list[CheckResult] = []
    gens = list(target_generators) or range(k)
    chk = Check(f"{prefix}-sub-closure",
                "generators" if target_generators else "exhaustive", cases=k)

    solver = SpanSolver(X.dim)
    bad = None
    for i, v in enumerate(sub_basis):
        if not solver.add(v):
            bad = f"sub basis vector #{i} ({sub_labels[i]}) is dependent"
            break

    def sub_row(i: int, j: int) -> Optional[tuple]:
        row = solver.solve(X.product(sub_basis[i], sub_basis[j]))
        return None if row is None else tuple(sorted(row.items()))

    def certified_row(i: int, j: int) -> tuple:
        row = sub_row(i, j)
        if row is None:
            raise ValueError("product left the certified span")
        return row

    sub_mult = BilinearMap(k, k, fn=certified_row)
    unit_sub = None
    if bad is None:
        unit_sub = solver.solve(dict(X.unit))
        if unit_sub is None:
            bad = "unit is outside the span"
    if bad is None:
        def closed(i: int, j: int) -> Optional[str]:
            row = sub_row(i, j)
            if row is None:
                return (f"product ({sub_labels[i]}) * ({sub_labels[j]}) "
                        f"escapes the span")
            sub_mult.set(i, j, row)
            return None

        sub = FiniteAlgebra(ctx, Space(f"{prefix}-sub", sub_labels), sub_mult,
                            unit_sub, generators=[{g: one} for g in gens])
        bad = Walk(chk.mode, itertools.product(range(k), gens),
                   certificate=partial(generation_failure, sub)
                   ).failure(chk, closed)
    certs.append(chk.result(bad))
    if bad:
        return TransportedStructure(source, solver, list(sub_basis),
                                    Subspace(k), None, certs, None)

    def sub_product(a: Vec, b: Vec) -> Vec:
        return sub_mult.apply(a, b)

    # action stability of the subalgebra under the source Hopf algebra
    chk = Check(f"{prefix}-action-stable", "exhaustive")
    act_gens = ([dict(g) for g in H.generators] if H.generators
                else [{i: one} for i in range(H.dim)])
    act_rows: list[list[Optional[Vec]]] = []
    for g in act_gens:
        rows_g: list[Optional[Vec]] = []
        for i in range(k):
            chk.cases += 1
            r = solver.solve(source.action.apply(g, sub_basis[i]))
            if r is None:
                bad = f"action drives ({sub_labels[i]}) out of the span"
                break
            rows_g.append(r)
        act_rows.append(rows_g)
        if bad:
            break
    certs.append(chk.result(bad))
    if bad:
        return TransportedStructure(source, solver, list(sub_basis),
                                    Subspace(k), None, certs, None)

    # the algebra ideal inside the sub, and its quotient
    if ideal_seed:
        gens_for_closure = (list(ideal_gens) if ideal_gens is not None
                            else [{i: one} for i in range(k)])
        J = span_closure(list(ideal_seed), sub_product, k, mode="ideal",
                         generators=gens_for_closure)
    else:
        J = Subspace(k)
    Q = QuotientSpace(k, J)

    def lift_sub(sv: Vec) -> Vec:
        out: Vec = {}
        for i, c in sv.items():
            vadd_into(out, sub_basis[i], c)
        return out

    if target_hopf is None:
        target_hopf = H
    if hopf_lift is None:
        hopf_lift = lambda h: {h: one}
    if hopf_corestrict is None:
        hopf_corestrict = lambda w: w

    # ideal stability under the action and under the coaction: the image
    # (corestrict (x) project) delta(j) must vanish -- legs that differ in
    # the source Hopf algebra may only cancel after corestriction.
    chk = Check(f"{prefix}-ideal-stable", "exhaustive")
    stab_gens = ([dict(g) for g in action_lifts] if action_lifts is not None
                 else act_gens)
    for jr in J.basis_rows():
        j_X = lift_sub(jr)
        for g in stab_gens:
            chk.cases += 1
            r = solver.solve(source.action.apply(g, j_X))
            if r is None or not J.contains(r):
                bad = "action does not preserve the ideal"
                break
        if bad:
            break
        chk.cases += 1
        flat = source.coaction.apply(j_X)
        by_first: dict[int, Vec] = {}
        for key, c in flat.items():
            h, x = divmod(key, X.dim)
            by_first.setdefault(h, {})[x] = c
        acc: Vec = {}
        for h, w in by_first.items():
            r = solver.solve(w)
            if r is None:
                bad = "coaction leg escapes the span"
                break
            xq = Q.project(r)
            if not xq:
                continue
            tw = hopf_corestrict({h: one})
            if tw is None:
                bad = ("coaction leg with support modulo the ideal is "
                       "outside the target Hopf algebra")
                break
            for ht, cth in tw.items():
                vadd_into(acc, xq, cth, ht * Q.dim)
        if bad is None and acc:
            bad = "coaction leg does not vanish modulo the ideal"
        if bad:
            break
    certs.append(chk.result(bad))

    # coaction corestriction to the target Hopf algebra
    chk = Check(f"{prefix}-coaction-corestricts", "exhaustive")
    bad = None
    coact_rows: list[Optional[list]] = []
    for i in range(k):
        chk.cases += 1
        flat = source.coaction.apply(sub_basis[i])
        by_first: dict[int, Vec] = {}
        for key, c in flat.items():
            h, x = divmod(key, X.dim)
            by_first.setdefault(h, {})[x] = c
        by_sub: dict[int, Vec] = {}
        row_ok = True
        for h, w in by_first.items():
            r = solver.solve(w)
            if r is None:
                bad = f"coaction second leg of ({sub_labels[i]}) escapes the span"
                row_ok = False
                break
            for sj, c in r.items():
                by_sub.setdefault(sj, {})[h] = c
        if not row_ok:
            break
        row = []
        for sj, hw in sorted(by_sub.items()):
            tw = hopf_corestrict(hw)
            if tw is None:
                bad = (f"coaction first leg of ({sub_labels[i]}) is outside "
                       f"the target Hopf algebra")
                row_ok = False
                break
            row.append((sj, tw))
        if not row_ok:
            break
        coact_rows.append(row)
    certs.append(chk.result(bad))

    # descent: each declared central gamma must act as the identity
    for gi, gamma in enumerate(descent_central):
        chk = Check(f"{prefix}-descent-{gi}", "exhaustive")
        bad_g = None
        for i in range(k):
            chk.cases += 1
            w = source.action.apply(gamma, sub_basis[i])
            r = solver.solve(vsub(w, sub_basis[i]))
            if r is None or Q.project(r):
                bad_g = (f"central element #{gi} does not act as the identity "
                         f"on ({sub_labels[i]}) modulo the ideal")
                break
        certs.append(chk.result(bad_g))

    if not all(c.ok for c in certs):
        return TransportedStructure(source, solver, list(sub_basis), J, Q,
                                    certs, None)

    # assemble the transported structure on quotient coordinates
    nt = Q.dim
    t_labels = tuple(sub_labels[a] for a in Q.labels)
    t_space = Space(name or f"{X.name}-transported", t_labels, render=render)
    pcache: dict[int, Vec] = {}

    def proj(sv: Vec) -> Vec:
        out: Vec = {}
        for i, c in sv.items():
            pk = pcache.get(i)
            if pk is None:
                pk = Q.project({i: one})
                pcache[i] = pk
            vadd_into(out, pk, c)
        return out

    def t_mult_fn(i: int, j: int):
        row = sub_mult.get(Q.labels[i], Q.labels[j])
        return tuple(sorted(proj(dict(row)).items()))

    t_alg = FiniteAlgebra(ctx, t_space, BilinearMap(nt, nt, fn=t_mult_fn),
                          proj(unit_sub),
                          generators=[proj({g: one}) for g in target_generators]
                          or None,
                          name=t_space.name)

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
            for xq, cq in proj({sj: one}).items():
                for ht, cth in tw.items():
                    vadd_term(acc, (ht, xq), cth * cq)
        return tuple(sorted((h, x, c) for (h, x), c in acc.items()))

    yd = YDModuleAlgebra(target_hopf, t_alg,
                         Action(target_hopf, t_alg, t_act_fn),
                         Coaction(target_hopf, t_alg, t_coact_fn),
                         name=t_space.name)
    return TransportedStructure(source, solver, list(sub_basis), J, Q,
                                certs, yd)
