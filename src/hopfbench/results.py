"""Check results, the one case loop that builds them, and the walks over
basis tuples.

A check states its cases as a body, which yields one value per case:
None when it holds, else the witness (a rendered counterexample) that
fails the check there.  `run_check` is the one case loop that counts
them.  A generator body may `return` a witness that counts no case, as
a certificate does; bodies compose with `yield from`, passing it on.
Results whose status does not follow from a witness -- skipped checks
and inverted expected failures -- build `CheckResult` directly.

A check that quantifies over basis tuples takes, for each law it walks,
a lemma walk or the run's `TupleWalks`, and asks it once for the `Walk`
over the law's tuples: `over(dims, gen_sets)`, with the declared
generator indices that head each slot (None: the whole slot).  A lemma
walk already holds its tuples and gives itself; `TupleWalks` gives a
fresh walk in one of `MODES`: "exhaustive" walks every index tuple in
lexicographic order, and "generators" the generator indices in the slots
that have them and then a seeded random sample over the full basis.  A
`Walk` carries the coverage label its tuples earn, and `Walk.cases` is
the body of its law: the prelude's cases, one case per tuple, then the
certificate's witness, returned.
No other module draws tuples or spells a coverage label of its own, and
only `report.py` chooses the walk of a law.

Checks of a multiplicative map phi(xy) = phi(x) phi(y) on an algebra A
may take `lemma_walk`: `generator_pairs`, (g, j) for g over A's
declared generator indices and j over its whole basis, with no sample
tail, labelled "generators".  When A and the target are associative,
S = {x : phi(xy) = phi(x) phi(y) for all y} is a subalgebra of A
(Montgomery, Hopf Algebras and Their Actions on Rings, CBMS 82, 1993),
so the walk and phi(1) = 1 put the generators and the unit in S, and
`generation_failure` -- the span closure of the unit and the generators
under A's product must reach full rank, or, for a twisted product built
by the formula, R must be normal and both factors certified -- makes S
all of A: the walk is then a proof.

Laws of an H-action on an algebra X may take `subcoalgebra_walk`, and
braided commutativity `subcomodule_walk`; `ydcat.check_module_algebra`,
`check_yd` and `check_braided_commutative` state their lemmas.

The module-algebra and comodule-algebra laws on a twisted product
X = A (x)_R B (`hopf.twisted_product`) may take `factor_pair_walk`,
which walks them on the two tensor factors X1 = A (x) 1 and X2 = 1 (x) B
instead of on generators against the whole basis; it states the lemma.
It reads R from X's record (`twist_of`), not the products from X's table.

Associativity takes `associativity_walk`: the triple lemma, or, on a
twisted product, R's normal twisting-map certificate
(`twisting_map_cases`).

A fact that the walks of several laws rest on, such as the normality or
the twisting identity of an R (`normality_cases`, `twisting_cases`), is
an `obligation` of the structure it is about: inside `obligations_once`
it runs once, and a later walk replays its witness and counts no case.
"""

from __future__ import annotations

import itertools
import math
import random
import time
import weakref
from contextlib import contextmanager
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .sparse import Vec, span_closure, vadd_term, veq

__all__ = ["MODES", "CheckResult", "run_check", "counted", "chained",
           "certificate_check", "dim_check", "summarize",
           "invert_expected_failure", "gen_indices", "generator_pairs",
           "generation_failure", "Walk", "TupleWalks", "lemma_walk",
           "two_sided_lemma_walk", "coalgebra_closure",
           "coaction_closure", "subcoalgebra_walk", "subcomodule_walk",
           "twist_of", "normality_cases", "normality_failure",
           "twisting_cases", "second_twisting_cases", "twisting_map_cases",
           "associativity_walk", "obligations_once", "obligation",
           "factor_pair_walk"]

MODES = ("exhaustive", "generators")


class CheckResult(NamedTuple):
    """Outcome of one named verification pass.

    status is "pass", "fail" or "skipped"; mode records how the claim
    was covered: "exhaustive", "generators" (a lemma walk), the
    `TupleWalks` label "generators+sample(n=N,seed=S)", or, for a
    skipped check, the reason it was skipped.  witness holds a rendered
    counterexample for failures.
    """

    name: str
    status: str
    mode: str
    cases_checked: int = 0
    witness: Optional[str] = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "mode": self.mode,
            "cases_checked": self.cases_checked,
            "witness": self.witness,
        }

    def line(self) -> str:
        flag = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[self.status]
        extra = f"  [{self.mode}, {self.cases_checked} cases]"
        msg = f"{flag:4s}  {self.name}{extra}"
        if self.witness:
            msg += f"\n      witness: {self.witness}"
        return msg


def run_check(name: str, label: str, body: Iterable) -> CheckResult:
    """The result of the check `name`, labelled `label`, on the cases that
    `body` yields: it fails at the first witness, yielded or returned,
    and the body is never advanced past it; `elapsed` covers the body."""
    t0 = time.perf_counter()
    cases, witness = 0, None
    step = iter(body).__next__
    try:
        while witness is None:
            witness = step()
            cases += 1
    except StopIteration as stop:
        witness = stop.value
    return CheckResult(name, "pass" if witness is None else "fail", label,
                       cases, witness, time.perf_counter() - t0)


def counted(n: int, failure: Callable[[], Optional[str]]) -> Iterator:
    """A step that counts n >= 1 cases at once: n - 1 that hold, then the
    witness of `failure()`, or None, on the last."""
    yield from itertools.repeat(None, n - 1)
    yield failure()


def chained(*bodies: Iterable) -> Iterator:
    """The bodies one after another: the cases of each, up to the first
    witness that one returns, which is returned."""
    for body in bodies:
        wit = yield from body
        if wit is not None:
            return wit


def certificate_check(name: str, cases: int,
                      failure: Callable[[], Optional[str]]) -> CheckResult:
    """A one-shot certificate, labelled "exhaustive", that counts `cases`
    cases at once and fails with the witness of `failure()`."""
    return run_check(name, "exhaustive", counted(cases, failure))


def dim_check(name: str, got: int, want: int) -> CheckResult:
    """One case: a dimension `got` equals `want`."""
    return certificate_check(name, 1, lambda: None if got == want else
                             f"dimension is {got}, expected {want}")


def summarize(results: list) -> tuple[int, int, int]:
    """(passed, failed, skipped) counts."""
    p = sum(1 for r in results if r.status == "pass")
    f = sum(1 for r in results if r.status == "fail")
    s = sum(1 for r in results if r.status == "skipped")
    return p, f, s


def invert_expected_failure(res: CheckResult, name: str) -> CheckResult:
    """Wrap a check whose *failure* is the claim being verified.

    The wrapped result passes exactly when the inner check found a
    counterexample; the counterexample is kept as the witness so the
    failure it certifies can be replayed.
    """
    if res.status == "fail":
        return CheckResult(name, "pass", res.mode, res.cases_checked,
                           res.witness, res.elapsed)
    if res.status == "pass":
        return CheckResult(name, "fail", res.mode, res.cases_checked,
                           "expected a counterexample; none found",
                           res.elapsed)
    return CheckResult(name, res.status, res.mode, res.cases_checked,
                       res.witness, res.elapsed)


def gen_indices(obj) -> Optional[set]:
    """Indices touched by declared generators, or None when undeclared."""
    gens = getattr(obj, "generators", None)
    return set().union(*gens) if gens else None


def _generators(alg) -> list:
    """The declared generator indices of `alg`, ascending, which every
    lemma walk heads with; a ValueError naming `alg` if it declares none."""
    gens = gen_indices(alg)
    if gens is None:
        raise ValueError(f"{alg.name} declares no generators, so no lemma "
                         "walk can be built on it")
    return sorted(gens)


def generator_pairs(alg):
    """The lemma walk on `alg`: (g, j) for g over its declared generator
    indices, ascending, and j over its whole basis, ascending."""
    return itertools.product(_generators(alg), range(alg.dim))


# algebra object -> the witness of its generation certificate, or None
_generated = weakref.WeakKeyDictionary()


def generation_failure(alg) -> Optional[str]:
    """None when the unit and the declared generators of `alg` generate it
    under its product, otherwise the failed certificate as a witness.

    The certificate, built once per algebra object, is the span closure
    of the seeds (the unit and the generators) under right multiplication
    by them; it must reach full rank.  An algebra with a `twist` must be
    built by the formula from a normal R (`twist_of`, `normality_failure`;
    nothing in this package calls `.set` on its `mult`), and both
    factors must pass their certificates.  The formula, R(1 (x) g) =
    g (x) 1, R(b (x) 1) = 1 (x) b and the factor unit laws give
    (a (x) 1)(g (x) 1) = ag (x) 1 and (a (x) b)(1 (x) h) = a (x) bh for
    the generators g of A and h of B.  A subspace S that holds the seeds
    and is closed under right multiplication by them then holds A (x) 1,
    and for each a, {b : a (x) b in S} is all of B.  No step needs
    associativity.
    """
    if alg not in _generated:
        tw = getattr(alg, "twist", None)
        _generated[alg] = (_closure_failure(alg) if tw is None
                           else _factored_failure(alg, tw))
    return _generated[alg]


def _closure_failure(alg) -> Optional[str]:
    seed = [dict(alg.unit)] + [dict(g) for g in alg.generators or ()]
    rank = span_closure(seed, alg.product, alg.dim).rank
    if rank == alg.dim:
        return None
    return (f"generating set spans rank {rank} of {alg.dim}; "
            "generation certificate failed")


def _factored_failure(alg, tw) -> Optional[str]:
    wit = normality_failure(alg)
    if wit is not None:
        return f"{wit}; generation certificate failed"
    return next((f"factor {f.name}: {generation_failure(f)}"
                 for f in (tw.A, tw.B) if generation_failure(f)), None)


def twist_of(alg):
    """The `hopf.TwistedProduct` record of `alg`; a ValueError unless alg
    has its `mult`, unit and generators and its factors basis-vector
    units: the checks that rest on the formula hold only for those."""
    tw = getattr(alg, "twist", None)
    if (tw is None or alg.mult is not tw.mult or not veq(alg.unit, tw.unit)
            or alg.generators != tw.gens
            or any(len(f.unit) != 1 or f.unit[min(f.unit)] != alg.ctx.one
                   for f in (tw.A, tw.B))):
        raise ValueError(f"{alg.name} is not built by the twisted-product "
                         "formula of a record with basis-vector units")
    return tw


def normality_cases(alg) -> Iterator:
    """The body of the R-normality certificate of a twisted product `alg`
    = A (x)_R B (`twist_of`): R(1 (x) a) = a (x) 1 for every basis vector
    a of A, then R(b (x) 1) = 1 (x) b for every b of B, one case each,
    then, counting no case, the factor unit laws 1x = x = x1 on both
    bases.  By the formula they give, for f, g in A and m, n in B,

        (f (x) 1)(1 (x) m) = f (x) m,   (f (x) 1)(g (x) 1) = fg (x) 1,
        (1 (x) m)(1 (x) n) = 1 (x) mn,

    so f -> f (x) 1 and m -> 1 (x) m are algebra maps onto subalgebras
    X1 and X2 of alg whose products X1 X2 span it: the first condition of
    Cap, Schichl and Vanzura (Comm. Algebra 23, 1995).
    """
    tw, one = twist_of(alg), alg.ctx.one
    A, B = tw.A, tw.B
    (ua,), (ub,) = A.unit, B.unit
    left, right = tw.factor_indices()
    for a in range(A.dim):
        yield (None if veq(tw.r(ub, a), {left[a]: one})
               else f"R(1 (x) a) != a (x) 1 at a={A.space.label(a)}")
    for b in range(B.dim):
        yield (None if veq(tw.r(b, ua), {right[b]: one})
               else f"R(b (x) 1) != 1 (x) b at b={B.space.label(b)}")
    for f in (A, B):
        for i in range(f.dim):
            e = f.basis(i)
            if not veq(f.product(f.unit, e), e) or not veq(
                    f.product(e, f.unit), e):
                return (f"factor {f.name}: 1x = x = x1 fails at "
                        f"x={f.space.label(i)}")


def normality_failure(alg) -> Optional[str]:
    """The first witness of `normality_cases(alg)`, or None."""
    return run_check("r-normality", "exhaustive",
                     normality_cases(alg)).witness


def twisting_cases(alg) -> Iterator:
    """The body of the twisting-identity certificate of a twisted product
    `alg` = A (x)_R B (`twist_of`), the first identity of Cap, Schichl
    and Vanzura (Comm. Algebra 23, 1995),

        R(b1 b2 (x) a) = (A (x) m_B)(R (x) B)(b1 (x) R(b2 (x) a)),

    one case for each b1 over the declared generator indices of B, b2
    over B's basis and a over A's, then, counting no case, B's
    generation certificate.

    The lemma.  T = {b1 : the identity holds for every b2 and a} is a
    subspace.  It holds 1, since R(1 (x) a) = a (x) 1 (`normality_cases`)
    and 1 is B's unit.  It is closed under products when B is
    associative: for b1, c in T, write R(b2 (x) a) = sum a' (x) b' and
    R(c (x) a') = sum a'' (x) b''; then

        R(b1 c b2 (x) a) = (A (x) m_B)(R (x) B)(b1 (x) R(c b2 (x) a))
                         = sum R(b1 (x) a'') (b'' b')
                         = sum R(b1 c (x) a') b',

    reading the identity for b1 at (c b2, a), for c at (b2, a), and for
    b1 at (c, a').  The walk puts the generators in T, and the
    certificate makes T all of B.  By the product formula of
    `hopf.twisted_product` the identity is associativity on the triples
    (1 (x) b1)(1 (x) b2)(a (x) b): the factor walks read it so
    (`factor_pair_walk`).  The hypotheses are R's normality and the
    associativity of B.
    """
    tw = twist_of(alg)
    A, B = tw.A, tw.B
    nB, r_row, get = B.dim, tw.r_row, B.mult.get
    for g, b, a in itertools.product(_generators(B), range(nB),
                                     range(A.dim)):
        lhs: Vec = {}
        for k, c in get(g, b):
            for a1, b1, c1 in r_row(k, a):
                vadd_term(lhs, a1 * nB + b1, c * c1)
        rhs: Vec = {}
        for a1, b1, c1 in r_row(b, a):
            for a2, b2, c2 in r_row(g, a1):
                c12 = c1 * c2
                for k, c in get(b2, b1):
                    vadd_term(rhs, a2 * nB + k, c12 * c)
        yield (None if veq(lhs, rhs) else
               f"R(b1 b2 (x) a) != (A (x) m)(R (x) B)(b1 (x) R(b2 (x) a)) "
               f"at b1={B.space.label(g)}, b2={B.space.label(b)}, "
               f"a={A.space.label(a)}")
    wit = generation_failure(B)
    return None if wit is None else f"factor {B.name}: {wit}"


def second_twisting_cases(alg) -> Iterator:
    """The body of the second twisting identity of a twisted product
    `alg` = A (x)_R B (`twist_of`), the mirror of `twisting_cases`,

        R(b (x) a1 a2) = (m_A (x) B)(A (x) R)(R (x) A)(b (x) a1 (x) a2),

    one case for each b over B's basis, a1 over A's and a2 over the
    declared generator indices of A, then, counting no case, A's
    generation certificate.

    The lemma.  T = {a2 : the identity holds for every b and a1} is a
    subspace.  It holds 1, since R(b (x) 1) = 1 (x) b (`normality_cases`)
    and 1 is A's unit.  It is closed under products when A is
    associative: for a2, c in T, write R(b (x) a1) = sum a' (x) b',
    R(b' (x) a2) = sum a'' (x) b'' and R(b (x) a1 a2) = sum a^ (x) b^;
    then, with a R(...) multiplying the A leg on the left,

        R(b (x) a1 a2 c) = sum a^ R(b^ (x) c)
                         = sum a' a'' R(b'' (x) c)
                         = sum a' R(b' (x) a2 c),

    reading the identity for c at (b, a1 a2), for a2 at (b, a1), and for
    c at (b', a2).  The walk puts the generators in T, and the
    certificate makes T all of A.  The hypotheses are R's normality and
    the associativity of A.
    """
    tw = twist_of(alg)
    A, B = tw.A, tw.B
    nB, r_row, get = B.dim, tw.r_row, A.mult.get
    for b, a, g in itertools.product(range(nB), range(A.dim),
                                     _generators(A)):
        lhs: Vec = {}
        for k, c in get(a, g):
            for a1, b1, c1 in r_row(b, k):
                vadd_term(lhs, a1 * nB + b1, c * c1)
        rhs: Vec = {}
        for a1, b1, c1 in r_row(b, a):
            for a2, b2, c2 in r_row(b1, g):
                c12 = c1 * c2
                for k, c in get(a1, a2):
                    vadd_term(rhs, k * nB + b2, c12 * c)
        yield (None if veq(lhs, rhs) else
               f"R(b (x) a1 a2) != (m (x) B)(A (x) R)(R (x) A)"
               f"(b (x) a1 (x) a2) at b={B.space.label(b)}, "
               f"a1={A.space.label(a)}, a2={A.space.label(g)}")
    wit = generation_failure(A)
    return None if wit is None else f"factor {A.name}: {wit}"


# while `obligations_once` is active: structure object -> {name: witness}
_replays: Optional[weakref.WeakKeyDictionary] = None


@contextmanager
def obligations_once():
    """Inside the block each `obligation` runs once per structure object;
    `report` runs each suite inside one.  Outside, every obligation runs
    each time it is walked, so a check run on its own counts the same
    cases whatever ran before it in the process."""
    global _replays
    outer, _replays = _replays, weakref.WeakKeyDictionary()
    try:
        yield
    finally:
        _replays = outer


def obligation(name: str, obj, make: Callable[[], Iterable]) -> Iterator:
    """The body `make()` of the obligation `name` on the structure `obj`,
    a fact that several laws' walks rest on.  Inside `obligations_once`
    its first walk on `obj` runs it and keeps its witness; a later walk
    replays it: it returns that witness and counts no case, so a failed
    obligation fails every law that rests on it."""
    memo = {} if _replays is None else _replays.setdefault(obj, {})
    if name in memo:
        return memo[name]
    step = iter(make()).__next__
    wit = None
    try:
        while wit is None:
            wit = step()
            if wit is not None:
                memo[name] = wit
            yield wit
    except StopIteration as stop:
        wit = memo[name] = stop.value
    return wit


class Walk:
    """The basis tuples a check walks, and the coverage label they earn.

    A lemma walk covers a claim on every tuple from a few: `prelude`, a
    body walked before the tuples, and `certificate`, which returns a
    witness or None after them, check the lemma's remaining hypotheses.
    The tuples are consumed: a walk serves one law, and `cases` raises
    RuntimeError when it is walked again, instead of passing on no tuples.
    """

    __slots__ = ("label", "tuples", "prelude", "certificate", "walked")

    def __init__(self, label: str, tuples: Iterable, prelude: Iterable = (),
                 certificate: Optional[Callable[[], Optional[str]]] = None):
        self.label = label
        self.tuples = tuples
        self.prelude = prelude
        self.certificate = certificate
        self.walked = False

    def over(self, dims: tuple, gen_sets: tuple) -> "Walk":
        """The walk itself: a lemma walk already holds its tuples."""
        return self

    def cases(self, name: str, case: Callable[..., Optional[str]],
              head: Iterable = ()) -> Iterator:
        """The body of law `name` on this walk: the cases of `head`, the
        check's own, then of the prelude, then `case(*t)` for each tuple
        t, then the certificate's witness, returned."""
        wit = yield from head
        if wit is not None:
            return wit
        if self.walked:
            raise RuntimeError(f"the {self.label} walk of {name!r} was "
                               "already walked; a walk serves one law")
        self.walked = True
        wit = yield from self.prelude
        if wit is not None:
            return wit
        for t in self.tuples:
            yield case(*t)
        return self.certificate() if self.certificate is not None else None

    def check(self, name: str, case: Callable[..., Optional[str]],
              head: Iterable = ()) -> CheckResult:
        """`run_check` of law `name` on this walk (see `cases`)."""
        return run_check(name, self.label, self.cases(name, case, head))


class TupleWalks:
    """The run's tuple walks: a fresh `Walk` in `mode`, one of `MODES`,
    for each law; a ValueError for any other mode, before any check."""

    __slots__ = ("mode", "seed", "samples")

    def __init__(self, mode: str, seed: int, samples: int):
        if mode not in MODES:
            raise ValueError(f"unknown coverage mode {mode!r}")
        self.mode = mode
        self.seed = seed
        self.samples = samples

    def over(self, dims: tuple, gen_sets: tuple) -> Walk:
        """Index tuples over `dims`, under the label they earn.

        A "generators" walk needs a generator slot (None: the whole
        slot), as a lemma walk does, or it is a ValueError; with no more
        tuples than `samples` it is the exhaustive walk.  The `samples`
        random tuples are drawn from `random.Random(seed)`, slot by slot,
        so a walk cut short draws only what it visited.
        """
        seed, samples = self.seed, self.samples
        if self.mode == "generators" and all(g is None for g in gen_sets):
            raise ValueError("a generators walk needs a generator slot")
        if self.mode == "exhaustive" or math.prod(dims) <= samples:
            return Walk("exhaustive", itertools.product(*map(range, dims)))
        rng = random.Random(seed)
        drawn = (tuple(rng.randrange(d) for d in dims)
                 for _ in range(samples))
        head = itertools.product(*[sorted(g) if g is not None else range(d)
                                   for d, g in zip(dims, gen_sets)])
        return Walk(f"generators+sample(n={samples},seed={seed})",
                    itertools.chain(head, drawn))


def lemma_walk(alg, arity: int = 2) -> Walk:
    """The tuples (g, x, ...) of length `arity`, g over the declared
    generator indices of `alg` and the rest over its basis, closed by
    `generation_failure(alg)`, labelled "generators"; the check that
    walks it states its lemma (`hopf.check_algebra_axioms` for 3)."""
    rest = [range(alg.dim)] * (arity - 1)
    return Walk("generators", itertools.product(_generators(alg), *rest),
                certificate=partial(generation_failure, alg))


def associativity_walk(alg) -> Walk:
    """The walk that proves associativity of `alg`, labelled "generators"
    (`hopf.check_algebra_axioms`): `lemma_walk(alg, 3)`, or, for a
    twisted product A (x)_R B (an algebra with a `twist`, which must be
    built by the formula: `twist_of` raises otherwise when it is walked),
    a walk of no tuples whose prelude is R's normal twisting-map
    certificate, each part an `obligation` on alg: `normality_cases`,
    `twisting_cases` and `second_twisting_cases`.

    A (x)_R B is associative with unit 1 (x) 1 when A and B are
    associative and unital and R is a normal twisting map (Cap, Schichl
    and Vanzura, Comm. Algebra 23, 1995).  The walk reads only R's rows
    and the factor tables, never the products that R defines.  Its
    hypotheses are the associativity of A and of B, which for D(B) and
    H(B*), whose factors are B* and B themselves, are the lines
    `hopf-axioms.taft-dual-mult-associativity` and
    `taft-mult-associativity`, and the factor unit laws, which
    `normality_cases` checks.  B*cop, D(B)'s first factor, shares B*'s
    product: only D(B)'s coproduct reads the opposite one.
    """
    if getattr(alg, "twist", None) is None:
        return lemma_walk(alg, 3)
    return Walk("generators", (), prelude=twisting_map_cases(alg))


def twisting_map_cases(alg) -> Iterator:
    """The body of the certificate that the R of a twisted product `alg`
    is a normal twisting map (`associativity_walk`): `normality_cases`,
    `twisting_cases` and `second_twisting_cases`, each an `obligation` on
    alg, up to the first witness."""
    return chained(
        obligation("r-normality", alg, partial(normality_cases, alg)),
        obligation("twisting", alg, partial(twisting_cases, alg)),
        obligation("second-twisting", alg,
                   partial(second_twisting_cases, alg)))


def two_sided_lemma_walk(alg) -> Walk:
    """(g, j) and then (j, g) for each (g, j) of `lemma_walk(alg)`, with its
    certificate; `hopf.check_hopf_axioms` states the lemma."""
    return Walk("generators", itertools.chain.from_iterable(
        ((g, j), (j, g)) for g, j in generator_pairs(alg)),
        certificate=partial(generation_failure, alg))


def _closure(seeds: set, legs: Callable[[int], Iterable[int]]) -> list:
    """`seeds` closed under `legs`, the indices each index reaches,
    ascending."""
    closed = set(seeds)
    todo = list(closed)
    while todo:
        for leg in legs(todo.pop()):
            if leg not in closed:
                closed.add(leg)
                todo.append(leg)
    return sorted(closed)


def coalgebra_closure(H) -> list:
    """The basis indices of H's unit and declared generators, closed
    under the legs of H's coproduct, ascending: their span C is then a
    subcoalgebra, Delta(C) in C (x) C, that holds 1 and the generators
    (Radford, Hopf Algebras, 2012, section 2.2)."""
    return _closure({*H.unit, *_generators(H)},
                    lambda i: (leg for j, k, _ in H.comult.get(i)
                               for leg in (j, k)))


def coaction_closure(y) -> list:
    """The basis indices of the unit and the declared generators of y's
    algebra X, closed under the x_0 legs of y's coaction, ascending:
    their span Y then holds 1 and the generators, and delta(Y) lies in
    H (x) Y, so Y is a subcomodule."""
    X = y.algebra
    return _closure({*X.unit, *_generators(X)},
                    lambda x: (x0 for _, x0, _ in y.coaction.terms(x)))


def subcoalgebra_walk(H, X, arity: int = 3) -> Walk:
    """The tuples (c, g, x, ...) of length `arity`: c over
    `coalgebra_closure(H)`, g over the declared generator indices of X
    and the rest over X's basis, closed by the generation certificates
    of X and of H, labelled "generators"; `ydcat.check_module_algebra`
    (3) and `ydcat.check_yd` (2) state the lemmas."""
    rest = [range(X.dim)] * (arity - 2)
    return Walk("generators",
                itertools.product(coalgebra_closure(H), _generators(X),
                                  *rest),
                certificate=lambda: (generation_failure(X)
                                     or generation_failure(H)))


def subcomodule_walk(y) -> Walk:
    """(u, g): u over `coaction_closure(y)` and g over the declared
    generator indices of y's algebra X, closed by the generation
    certificate of X, labelled "generators";
    `ydcat.check_braided_commutative` states the lemma."""
    X = y.algebra
    return Walk("generators",
                itertools.product(coaction_closure(y), _generators(X)),
                certificate=partial(generation_failure, X))


def factor_pair_walk(X, closure: Optional[list] = None, mixed: bool = True,
                     obligations: Iterable = (),
                     certificate: Optional[Callable[[], Optional[str]]] = None
                     ) -> Walk:
    """The walk that proves a law with a bilinear defect D(x, y) on a
    twisted product X = A (x)_R B from its two factors X1 = A (x) 1 and
    X2 = 1 (x) B, labelled "generators".

    Its pairs (x, y), in order, are X1 x X1 with x over the generators of
    A (g (x) 1), X2 x X2 with y over the generators of B (1 (x) g), then,
    when `mixed`, every pair of X1 x X2, and X2 x X1 with x over the
    generators of B.  With a `closure` each pair is walked as (c, x, y)
    for every c in it.  The prelude is `normality_cases(X)`, then
    `obligations`, a body, then `twisting_cases(X)`, the first and the
    last each an `obligation` on X; the certificate is
    `generation_failure` of A and of B and then `certificate`.  X must be
    built by the formula (`twist_of`; nothing in this package calls
    `.set` on its `mult`), or a ValueError is raised.

    The lemma.  Let the defect satisfy

        D(uv, w) = D(u, vw) + l(u) D(v, w) - D(u, v) r(w)

    for linear maps l and r, with D(1, w) = D(w, 1) = 0.  Then D vanishes
    on X x X once it vanishes on the walked pairs.  On X1 x X1, T = {u in
    X1 : D(u, X1) = 0} holds 1 and the walked g (x) 1, and it is closed
    under products, as vw lies in X1 for v, w in X1; so T = X1 by A's
    certificate, f -> f (x) 1 being an algebra map (the prelude: X is
    built by the formula from a normal R).  On
    X2 x X2 likewise {w in X2 : D(X2, w) = 0} = X2, read on the right:
    D(u, vw) = D(uv, w) - l(u) D(v, w) + D(u, v) r(w).  Then, for u1, v1
    in X1 and u2, v2 in X2, and with D = 0 on X1 x X2:

    * A. D(u1, v1 v2) = D(u1 v1, v2) - l(u1) D(v1, v2) + D(u1, v1) r(v2)
      = 0, so D(X1, X) = 0, as X1 X2 spans X;
    * B. D(a b, v2) = D(a, b v2) + l(a) D(b, v2) - D(a, b) r(v2) = 0 for a
      in X1 and b in X2, so D(X, X2) = 0;
    * C. for each walked generator g of X2, D(g, v1 v2) = D(g v1, v2) -
      l(g) D(v1, v2) + D(g, v1) r(v2) = 0 by B and the walked pairs of
      X2 x X1, so D(g, X) = 0;
    * D. P = {v in X2 : D(v, X) = 0} holds 1, and g P lies in P by C:
      D(g v, w) = D(g, v w) + l(g) D(v, w) - D(g, v) r(w) = 0, with g v
      in X2.  So P holds every product of generators, and these span X2
      (B associative, and B's certificate): D(X2, X) = 0;
    * D(u1 u2, y) = D(u1, u2 y) + l(u1) D(u2, y) - D(u1, u2) r(y) = 0.

    Step D reads the defect identity on the triples (g, v, w) of
    X2 x X2 x X, so the associativity of X there:
    `twisting_cases(X)` proves it from R and B alone.

    The module-algebra law, c |> (xy) = (c' |> x)(c'' |> y) for every c
    in a subcoalgebra C (`coalgebra_closure`), has such a defect, taken
    over C, with l(u) = (c' |> u) and r(w) = (c'' |> w), when X is
    associative and Delta is coassociative with Delta(C) in C (x) C;
    M |> 1 = eps(M) 1 gives D(1, w) = D(w, 1) = 0.  The comodule-algebra
    law, delta(xy) = delta(x) delta(y), has one with l(u) = delta(u) and
    r(w) = delta(w) multiplying in H (x) X, when X and H (x) X are
    associative; delta(1) = 1 (x) 1 gives the unit cases.
    `ydcat.check_module_algebra` and `ydcat.check_comodule_algebra` check
    those unit laws before the walk.  A caller that leaves out the
    X1 x X2 pairs (`mixed` False) proves them in its `obligations`.
    Where l(g) lies outside X, as delta(g) does, step D also reads
    associativity where l(g) lies, and the caller proves it in its
    `obligations` (`doubles.comodule_algebra_factor_walk`).
    """
    tw = twist_of(X)
    A, B = tw.A, tw.B
    left, right = tw.factor_indices()
    heads = [right[g] for g in _generators(B)]
    parts = [itertools.product([left[g] for g in _generators(A)], left),
             itertools.product(right, heads)]
    if mixed:
        parts.append(itertools.product(left, right))
    parts.append(itertools.product(heads, left))
    if closure is None:
        tuples = itertools.chain.from_iterable(parts)
    else:
        tuples = ((c, x, y) for part in parts
                  for c, (x, y) in itertools.product(closure, part))

    prelude = chained(
        obligation("r-normality", X, partial(normality_cases, X)),
        obligations, obligation("twisting", X, partial(twisting_cases, X)))

    def closed() -> Optional[str]:
        wit = generation_failure(A) or generation_failure(B)
        if wit is None and certificate is not None:
            wit = certificate()
        return wit

    return Walk("generators", tuples, prelude=prelude, certificate=closed)
