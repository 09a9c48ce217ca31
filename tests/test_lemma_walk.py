"""Soundness net of the lemma walks.

`comodule-algebra` proves delta(xy) = delta(x) delta(y) from generator
indices x and every basis y, plus a generation certificate.  It is run
here both ways at p=2: as the lemma walk, and as the full pair walk on a
copy of the structure that declares no generators.  The two must agree
on intact structures and on seeded single-term corruptions, and a
lemma-walk failure must name the first failing pair in walk order.

`quotient-morphism` certifies the projection of u_q(sl_2)'s quotient
from its construction: ker pi = I and pi s = id.  On the intact quotient
and on seeded corruptions of the projection memo it fails exactly when
the walk of the Hopf-morphism laws over every pair and every basis
vector fails, and its witness names the corrupted basis vector.  A
quotient that `truncate.hopf_quotient` did not build through the
certified projection is refused.

`mult-associativity` at p=2 walks the triples headed by a
generator index.  On seeded single-entry corruptions of the Taft
algebra's product it passes together with `mult-unit` exactly when the
walk over every triple passes, and it catches a corruption of D(B)'s
product on a pair that touches no generator.

`module-action` is proved on the two factors of D(B) and of H(B*)
(`doubles.module_factor_walk`), from the four leg actions that define
the factor rows of the `doubles.FactoredAction`; `module-algebra`
(`doubles.module_algebra_factor_walk`) and `comodule-algebra`
(`results.factor_pair_walk`) on the pairs of the two tensor factors
B* (x) 1 and 1 (x) B of H(B*), the first on the subcoalgebra of D(B)
spanned by `results.coalgebra_closure` given `module-action`;
`yd-condition` on the same subcoalgebra against the generators of
H(B*), and `braided-commutative` on the subcomodule of H(B*) spanned by
`results.coaction_closure` against its generators, each given
`module-action`, `module-algebra`, `comodule-coaction` and
`comodule-algebra`.  On the intact p=2 structure and on seeded
corruptions of its leg actions and of its coaction, each lemma walk
passes together with those hypotheses exactly when its reference walk
passes.  The factor routes give the verdicts of the routes they
replaced -- the subalgebra lemma on D(B), `subcoalgebra_walk(H, X)` and
`lemma_walk(X)` -- on every such corruption and on every corruption of
a product of D(B) or of H(B*), made through its R or a factor table by
`hopf.twisted_product`, but where the corrupted product is no longer
associative; each obligation of theirs fails on a corruption of what it
states, and a product table copied beside its record is refused.
"""

from __future__ import annotations

import itertools
import random

import pytest

from hopfbench.doubles import (DrinfeldDouble, FactoredAction,
                               HeisenbergDouble, comodule_algebra_factor_walk,
                               factor_structures, module_algebra_factor_walk,
                               module_factor_walk)
from hopfbench.hopf import (FiniteAlgebra, FiniteHopf, check_algebra_axioms,
                           twisted_product)
from hopfbench.mutations import MUTATIONS
from hopfbench.results import (TupleWalks, Walk, coaction_closure,
                               coalgebra_closure, factor_pair_walk,
                               gen_indices, generation_failure,
                               generator_pairs, lemma_walk, obligations_once,
                               run_check, subcoalgebra_walk, subcomodule_walk,
                               twisting_cases, two_sided_lemma_walk)
from hopfbench.sparse import BilinearMap, ColinearMap, Subspace, veq
from hopfbench.taft import hqsl2, taft_system, uqsl2
from hopfbench.truncate import (HopfQuotient, hopf_quotient,
                                quotient_morphism_check)
from hopfbench.ydcat import (Action, Coaction, check_braided_commutative,
                             check_comodule, check_comodule_algebra,
                             check_module, check_module_algebra, check_yd)


EXHAUSTIVE = TupleWalks("exhaustive", 0, 0)


def _algebra(A, generators=None, mult=None):
    return FiniteAlgebra(A.ctx, A.space, mult or A.mult, A.unit,
                         generators=generators, name=A.name)


def _hopf(H, generators=None):
    return FiniteHopf(H.ctx, H.space, H.mult, H.unit, H.comult, H.counit,
                      H.antipode, generators=generators, name=H.name)


def _axioms(A):
    """(mult-associativity, mult-unit) of A, associativity by the triple
    lemma when A declares generators and on every triple otherwise."""
    return check_algebra_axioms(
        A, lemma_walk(A, 3) if A.generators else EXHAUSTIVE)


def _yd(key):
    return taft_system(2).yd if key == "taft" else hqsl2(2).yd


def _both_ways(y):
    """(lemma walk, full pair walk) of comodule-algebra on y."""
    full = y._replace(algebra=_algebra(y.algebra))
    return (check_comodule_algebra(y, walk=lemma_walk(y.algebra)),
            check_comodule_algebra(full, walk=EXHAUSTIVE))


def _morphism_failure(hq):
    """Where pi: H -> K first fails to be a Hopf-algebra morphism: ("unit",),
    ("mult", x, y) for the first pair in lexicographic order with
    pi(xy) != pi(x)pi(y), or ("hopf", x) for the first basis vector at
    which pi does not commute with Delta, eps or S; None when it is
    one."""
    H, K = hq.parent, hq.quotient
    one = H.ctx.one
    pi = hq.project
    if not veq(pi(H.unit), K.unit):
        return ("unit",)
    for i, j in itertools.product(range(H.dim), repeat=2):
        if not veq(pi(dict(H.mult.get(i, j))),
                   K.product(pi({i: one}), pi({j: one}))):
            return ("mult", i, j)
    for i in range(H.dim):
        x = {i: one}
        if not (veq(hq._push.pairs(H.coproduct(x), H.dim),
                    K.coproduct(pi(x)))
                and H.counit_of(x) == K.counit_of(pi(x))
                and veq(pi(H.antipode_of(x)), K.antipode_of(pi(x)))):
            return ("hopf", i)
    return None


def _labels(space, x, y):
    return space.label(x), space.label(y)


def _coaction_pair_ok(y, x, z) -> bool:
    """delta(xz) = delta(x) delta(z), computed through the public maps."""
    H, A, coact = y.hopf, y.algebra, y.coaction
    d = A.dim
    one = H.ctx.one
    lhs = coact.apply(A.product({x: one}, {z: one}))
    rhs: dict = {}
    for k1, c1 in coact.apply({x: one}).items():
        for k2, c2 in coact.apply({z: one}).items():
            h = H.product({k1 // d: one}, {k2 // d: one})
            a = A.product({k1 % d: one}, {k2 % d: one})
            for hk, ch in h.items():
                for ak, ca in a.items():
                    key = hk * d + ak
                    rhs[key] = rhs.get(key, H.ctx.zero) + c1 * c2 * ch * ca
    return veq(lhs, {k: c for k, c in rhs.items() if c})


def _first_failing(A, ok):
    """The first failing pair with g over the generator indices, then j
    over the basis, both ascending."""
    gens = sorted(set().union(*A.generators))
    return next(((g, j) for g in gens for j in range(A.dim) if not ok(g, j)),
                None)


def test_generator_pairs_walk_generators_then_the_basis():
    A = hqsl2(2).yd.algebra
    pairs = list(generator_pairs(A))
    assert pairs == sorted(pairs)
    assert pairs == [(g, j) for g in (1, 2, 4) for j in range(16)]


def test_the_certificate_is_built_once_per_algebra(monkeypatch):
    import hopfbench.results as results
    A = _algebra(hqsl2(2).yd.algebra, hqsl2(2).yd.algebra.generators)
    calls = []
    real = results.span_closure
    monkeypatch.setattr(results, "span_closure",
                        lambda *a: calls.append(1) or real(*a))
    assert generation_failure(A) is None
    assert generation_failure(A) is None
    assert len(calls) == 1


# Each walk that reads declared generators, built on structures at p=2 in
# which B, or B as a factor, is a copy that declares none.
_GENERATORLESS = {
    "lemma_walk": lambda sys, B: lemma_walk(B, 3),
    "two_sided_lemma_walk": lambda sys, B: two_sided_lemma_walk(B),
    "subcoalgebra_walk": lambda sys, B: subcoalgebra_walk(sys.double.hopf, B),
    "subcomodule_walk": lambda sys, B: subcomodule_walk(
        factor_structures(sys.yd)[1]._replace(algebra=B)),
    "factor_pair_walk": lambda sys, B: factor_pair_walk(
        _rebuilt(sys.heis.algebra, B=B)),
}


@pytest.mark.parametrize("walk", sorted(_GENERATORLESS))
def test_a_walk_on_an_algebra_without_generators_names_it(walk):
    """The walk refuses, when it is built, with a ValueError that names
    the algebra, not a TypeError from its missing generator list."""
    sys = taft_system(2)
    B = _hopf(sys.pair.primal)
    with pytest.raises(ValueError) as err:
        _GENERATORLESS[walk](sys, B)
    assert str(err.value).startswith(f"{B.name} declares no generators")


@pytest.mark.parametrize("key", ["taft", "hqsl2"])
def test_intact_comodule_algebra_agrees_both_ways(key):
    lemma, full = _both_ways(_yd(key))
    assert (lemma.status, lemma.mode) == ("pass", "generators")
    assert (full.status, full.mode) == ("pass", "exhaustive")
    d = _yd(key).algebra.dim
    assert full.cases_checked == 1 + d * d
    assert lemma.cases_checked < full.cases_checked


def test_intact_quotient_morphism_agrees_both_ways():
    hq = uqsl2(2).hq
    res = quotient_morphism_check(hq)
    # dim K + dim I = dim H, then pi s = id on K's 32 basis vectors and
    # pi = 0 on I's 224 rows
    assert (res.status, res.mode, res.cases_checked) == (
        "pass", "exhaustive", 1 + 32 + 224)
    assert _morphism_failure(hq) is None


def _corrupt_coaction(y, seed):
    """y with one coaction term of a basis vector times zeta; the vector
    is neither a generator index nor in the unit's support (delta(1) is
    tested on its own)."""
    rng = random.Random(seed)
    skip = set(y.algebra.unit).union(*y.algebra.generators)
    coact = y.coaction
    x = rng.choice([i for i in range(y.algebra.dim)
                    if i not in skip and coact.terms(i)])
    row = coact.terms(x)
    t = rng.randrange(len(row))
    zeta = y.hopf.ctx.zeta
    bad = tuple((h, x0, c * zeta) if n == t else (h, x0, c)
                for n, (h, x0, c) in enumerate(row))
    fn = lambda i: bad if i == x else coact.terms(i)  # noqa: E731
    return y._replace(coaction=Coaction(y.hopf, y.algebra, fn))


@pytest.mark.parametrize("key,seed", [("taft", 1), ("taft", 2),
                                      ("hqsl2", 1), ("hqsl2", 2),
                                      ("hqsl2", 3)])
def test_corrupted_coaction_agrees_both_ways_and_fails_first(key, seed):
    bad = _corrupt_coaction(_yd(key), seed)
    lemma, full = _both_ways(bad)
    assert lemma.status == full.status == "fail"
    x, z = _first_failing(bad.algebra,
                          lambda a, b: _coaction_pair_ok(bad, a, b))
    lx, lz = _labels(bad.algebra.space, x, z)
    assert lemma.witness == f"x={lx}, y={lz}: delta(xy) != delta(x) delta(y)"


def _fresh_quotient():
    """The quotient of u_q(sl_2) at p=2 built again by `hopf_quotient`,
    with a projection memo that none of its tables has read."""
    hq = uqsl2(2).hq
    return hopf_quotient(hq.parent, hq.ideal, name=hq.quotient.name)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_corrupted_quotient_map_agrees_both_ways_and_fails_first(seed):
    """One term of the memoized projection of a seeded basis vector e_k,
    neither a generator index nor the unit, times zeta, before K's lazy
    tables read it: pi is then no Hopf-algebra morphism onto the K that
    it builds, and the certificate fails at e_k, by pi s = id when k is
    a quotient label and by pi(I) = 0 on the row of pivot k
    otherwise."""
    hq = _fresh_quotient()
    H, Q = hq.parent, hq.qspace
    one = H.ctx.one
    rng = random.Random(seed)
    skip = set(H.unit).union(*H.generators)
    k = rng.choice([i for i in range(H.dim) if i not in skip])
    true = Q.project({k: one})
    t = rng.choice(sorted(true))
    hq._push.memo[k] = {**true, t: true[t] * H.ctx.zeta}
    res = quotient_morphism_check(hq)
    assert res.status == "fail"
    label = H.space.label(k)
    assert res.witness == (
        f"pi(s(x)) != x at x={label}" if k in Q.index_of_ambient else
        f"pi does not vanish on the row of I with pivot {label}")
    assert _morphism_failure(hq) is not None


def test_an_ideal_short_of_the_kernel_fails_the_dimension_count():
    """I without its last row still lies in ker pi, and pi s = id, so
    only dim K + dim I = dim H shows that ker pi is larger than I."""
    hq = _fresh_quotient()
    rows = hq.ideal.basis_rows()
    hq.ideal = Subspace(hq.parent.dim)
    hq.ideal.add_many(rows[:-1])
    res = quotient_morphism_check(hq)
    assert (res.status, res.cases_checked) == ("fail", 1)
    assert res.witness == "dim K + dim I = 32 + 223, expected dim H = 256"


def test_a_quotient_not_built_by_hopf_quotient_is_refused(monkeypatch,
                                                           capsys):
    """The certificate reads none of K's tables, so it refuses a K that
    `hopf_quotient` did not push through the projection it certifies: a
    copy of K's tables, or a quotient record with a projection of its
    own.  Through the CLI the refusal is an engine error, exit 3."""
    from hopfbench import report as report_module
    from hopfbench.cli import main

    uq = uqsl2(2)
    hq = uq.hq
    K = hq.quotient
    for bad in (HopfQuotient(hq.parent, hq.ideal, hq.qspace,
                             _hopf(K, K.generators)),
                HopfQuotient(hq.parent, hq.ideal, hq.qspace, K)):
        with pytest.raises(ValueError, match="not built by hopf_quotient"):
            quotient_morphism_check(bad)
    monkeypatch.setattr(report_module, "uqsl2", lambda p: uq._replace(
        hq=HopfQuotient(hq.parent, hq.ideal, hq.qspace, K)))
    assert main(["verify", "--p", "2", "--suite", "truncations"]) == 3
    assert "not built by hopf_quotient" in capsys.readouterr().err


def test_a_lemma_only_pass_rests_on_a_failed_associativity():
    """Corrupt one product entry of hqsl2(2)'s algebra on a pair of
    non-generator indices: wherever the full walk fails and the lemma
    walk passes, the algebra is no longer associative, which
    `mult-associativity` reports."""
    y = hqsl2(2).yd
    A = y.algebra
    gens = set().union(*A.generators)
    zeta = A.ctx.zeta
    others = [i for i in range(A.dim) if i not in gens]
    lemma_only = 0
    for x in others:
        for z in others:
            row = A.mult.get(x, z)
            if not row:
                continue
            bad_row = ((row[0][0], row[0][1] * zeta),) + row[1:]
            fn = (lambda i, j, x=x, z=z, bad_row=bad_row:
                  bad_row if (i, j) == (x, z) else A.mult.get(i, j))
            bad = _algebra(A, A.generators, BilinearMap(A.dim, A.dim, fn=fn))
            lemma, full = _both_ways(y._replace(algebra=bad))
            if full.status == "fail" and lemma.status == "pass":
                lemma_only += 1
                assoc = _axioms(bad)[0]
                assert (assoc.name, assoc.status) == ("mult-associativity",
                                                      "fail")
    assert lemma_only > 0


def test_too_few_generators_fail_the_certificate():
    y = hqsl2(2).yd
    few = y._replace(algebra=_algebra(y.algebra, y.algebra.generators[:-1]))
    res = check_comodule_algebra(few, walk=lemma_walk(few.algebra))
    assert res.status == "fail"
    assert res.witness.endswith("; generation certificate failed")
    assert res.witness.startswith("generating set spans rank ")

    sys2 = taft_system(2)
    D, y = sys2.double, sys2.yd
    H, X = y.hopf, y.algebra
    few_b = DrinfeldDouble(D.ctx, D.hopf,
                           _hopf(D.base, D.base.generators[:-1]), D.dual,
                           D.pairing)
    few_dual = DrinfeldDouble(D.ctx, D.hopf, D.base,
                              _hopf(D.dual, D.dual.generators[:-1]), D.pairing)
    for res in (check_module(y, walk=module_factor_walk(few_b, y.action)),
                check_module(y, walk=module_factor_walk(few_dual, y.action)),
                check_module_algebra(y, walk=subcoalgebra_walk(
                    H, _algebra(X, X.generators[:-1]))),
                check_module_algebra(y, walk=subcoalgebra_walk(
                    _hopf(H, H.generators[:-1]), X)),
                check_yd(y, walk=subcoalgebra_walk(
                    H, _algebra(X, X.generators[:-1]), 2)),
                check_yd(y, walk=subcoalgebra_walk(
                    _hopf(H, H.generators[:-1]), X, 2)),
                check_braided_commutative(y, walk=subcomodule_walk(
                    y._replace(algebra=_algebra(X, X.generators[:-1])))),
                _axioms(_algebra(X, X.generators[:-1]))[0]):
        assert res.status == "fail"
        assert res.witness.endswith("; generation certificate failed")


# -- the module law on the factors of D(B), and the walks that rest on it ----

LEGS = ("hit", "ad", "adf", "rhit")


def _leg_spaces(leg):
    """(acting algebra, acted-on space) of a leg of `FactoredAction`."""
    D = taft_system(2).double
    return {"hit": (D.base, D.dual), "ad": (D.base, D.base),
            "adf": (D.dual, D.dual), "rhit": (D.dual, D.base)}[leg]


class _FactorLegs(FactoredAction):
    """The factored action of `taft_system(2)` with its leg tables read
    from `legs` (leg name -> function of (i, v)); it builds its factor
    rows and composite rows afresh from them, as `FactoredAction`
    defines."""

    def __init__(self, legs):
        sys2 = taft_system(2)
        super().__init__(sys2.heis, sys2.double)
        self.leg_fns = legs

    def hit(self, m, alpha):
        return self.leg_fns["hit"](m, alpha)

    def ad(self, m, a):
        return self.leg_fns["ad"](m, a)

    def adf(self, f, alpha):
        return self.leg_fns["adf"](f, alpha)

    def rhit(self, f, a):
        return self.leg_fns["rhit"](f, a)


def _with_legs(y, **legs):
    """y acting by `_FactorLegs`, each leg intact unless given."""
    return y._replace(action=_FactorLegs(
        {leg: legs.get(leg) or getattr(y.action, leg) for leg in LEGS}))


def _corrupt_leg(y, leg, i, v, t, scale):
    """y with entry t of leg(e_i) e_v times scale."""
    table = getattr(y.action, leg)
    bad = tuple((k, c * scale) if n == t else (k, c)
                for n, (k, c) in enumerate(table(i, v)))
    fn = lambda j, w: bad if (j, w) == (i, v) else table(j, w)  # noqa: E731
    return _with_legs(y, **{leg: fn})


def _seeded_leg_corruption(y, seed, leg, outside=False):
    """y with one entry of a seeded nonzero row of `leg` times zeta; for
    `outside`, the row of an element outside the coalgebra closure of
    the leg's algebra, so outside its generators too."""
    A, V = _leg_spaces(leg)
    spared = set(coalgebra_closure(A)) if outside else set()
    rng = random.Random(seed)
    while True:
        i, v = rng.randrange(A.dim), rng.randrange(V.dim)
        row = getattr(y.action, leg)(i, v)
        if row and i not in spared:
            return _corrupt_leg(y, leg, i, v, rng.randrange(len(row)),
                                y.hopf.ctx.zeta)


def _generic_module_walk(y):
    """The subalgebra lemma on D(B) itself: M over its generators, N over
    its basis and x over that of H(B*), closed by its certificate."""
    H = y.hopf
    return Walk("generators",
                itertools.product(sorted(gen_indices(H)), range(H.dim),
                                  range(y.algebra.dim)),
                certificate=lambda: generation_failure(H))


def _walks(y) -> dict:
    """Each claim's (lemma walk, reference walk) on y."""
    D = taft_system(2).double
    return {
        "module-action": (
            check_module(y, walk=module_factor_walk(D, y.action)),
            check_module(y, walk=_generic_module_walk(y))),
        "comodule-algebra": _both_ways(y),
        "yd-condition": (
            check_yd(y, walk=subcoalgebra_walk(y.hopf, y.algebra, 2)),
            check_yd(y, walk=EXHAUSTIVE)),
        "braided-commutative": (
            check_braided_commutative(y, walk=subcomodule_walk(y)),
            check_braided_commutative(y, walk=EXHAUSTIVE)),
    }


def _assert_lemma_walks_agree(y, walks: dict) -> None:
    """Each lemma walk of `_walks(y)`, with the hypothesis checks it rests
    on, passes exactly when its reference walk passes."""
    def ok(r):
        return r.status == "pass"

    rests_on = (walks["module-action"][0],
                check_module_algebra(y, walk=module_algebra_factor_walk(
                    taft_system(2).double, y.action)),
                check_comodule(y),
                check_comodule_algebra(y, walk=factor_pair_walk(y.algebra)))
    for claim, hypotheses in (("module-action", ()),
                              ("comodule-algebra", ()),
                              ("yd-condition", rests_on),
                              ("braided-commutative", rests_on)):
        lemma, reference = walks[claim]
        assert lemma.mode == "generators"
        assert (ok(lemma) and all(map(ok, hypotheses))) == ok(reference), claim


def test_intact_yd_structure_passes_every_lemma_walk():
    y = taft_system(2).yd
    walks = _walks(y)
    _assert_lemma_walks_agree(y, walks)
    assert {claim: (lemma.status, lemma.cases_checked, reference.status,
                    reference.cases_checked)
            for claim, (lemma, reference) in walks.items()} == {
        # the unit law, the normality of R (16 + 16), the factor unit
        # laws on the 32 vectors of X1 and X2, the four legs, their unit
        # facts, the tensor coalgebra, the closure prelude and the cross
        # walk
        "module-action": ("pass", 256 + 32 + 2 * 32
                          + 4 * (16 + 2 * 16 * 16) + 4 * 16 + 256 + 4 * 16
                          + 4 * 2 * 32,
                          "pass", 256 + 4 * 256 * 256),
        "comodule-algebra": ("pass", 1_025, "pass", 1 + 256 * 256),
        # 7 elements of the closure of D(B), 6 of H(B*), 4 generators
        "yd-condition": ("pass", 7 * 4, "pass", 256 * 256),
        "braided-commutative": ("pass", 6 * 4, "pass", 256 * 256),
    }


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_corrupted_action_rows_fail_where_the_references_fail(seed):
    """Seed n corrupts one entry of the leg LEGS[n - 1]."""
    y = _seeded_leg_corruption(taft_system(2).yd, seed, LEGS[seed - 1])
    walks = _walks(y)
    _assert_lemma_walks_agree(y, walks)
    assert [r.status for r in walks["module-action"]] == ["fail", "fail"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_corrupted_coaction_fails_where_the_references_fail(seed):
    y = _corrupt_coaction(taft_system(2).yd, seed)
    walks = _walks(y)
    _assert_lemma_walks_agree(y, walks)
    assert walks["module-action"][0].status == "pass"


def test_a_lemma_pass_on_a_broken_action_still_fails_the_run():
    """The lemma walks read few action rows, so on a corrupted action
    they can pass (`yd-condition` reads only rows of the closure C, and
    the corrupted leg row belongs to an element outside it);
    `module-action` then fails, and so does the run."""
    y = _seeded_leg_corruption(taft_system(2).yd, 1, "ad", outside=True)
    walks = _walks(y)
    assert [walks[c][0].status for c in ("yd-condition", "braided-commutative",
                                         "comodule-algebra")] == ["pass"] * 3
    assert walks["module-action"][0].status == "fail"
    assert walks["yd-condition"][1].status == "fail"
    assert walks["braided-commutative"][1].status == "fail"


class _FactorRowOverride(FactoredAction):
    """The factored action of `taft_system(2)` with the factor row `which`
    ("prim" or "dual") read from `fn`, which `module_factor_walk` must
    refuse: its rows are no longer defined from the leg tables."""

    def __init__(self, which, fn):
        sys2 = taft_system(2)
        super().__init__(sys2.heis, sys2.double)
        self.which, self.fn = which, fn

    def prim_row(self, m, x):
        if self.which == "prim":
            return self.fn(m, x)
        return super().prim_row(m, x)

    def dual_row(self, f, x):
        if self.which == "dual":
            return self.fn(f, x)
        return super().dual_row(f, x)


def test_the_factor_route_catches_what_the_sampled_walk_missed():
    """A wrong entry in the factor row of k^3 on F#Ek^4 escapes the
    generator head and seeded tail of the old walk.  An action with such
    a row is not defined from its legs, so the factor walk refuses it;
    the generic module walk fails it."""
    sys2 = taft_system(2)
    D, y = sys2.double, sys2.yd
    X, H = y.algebra, y.hopf
    assert (D.base.space.label(3), X.space.label(140)) == ("k^3", "F#Ek^4")
    row = y.action.prim_row(3, 140)
    bad_row = ((row[0][0], row[0][1] * H.ctx.rational(2)),) + row[1:]
    bad = y._replace(action=_FactorRowOverride("prim", lambda m, x: (
        bad_row if (m, x) == (3, 140) else y.action.prim_row(m, x))))
    old = check_module(bad, walk=TupleWalks("generators", 601, 10_000))
    assert old.status == "pass"
    with pytest.raises(ValueError, match="four leg actions"):
        module_factor_walk(D, bad.action)
    assert check_module(bad, walk=_generic_module_walk(bad)).status == "fail"


@pytest.mark.parametrize("which", ["prim", "dual", "row"])
def test_the_factor_walk_refuses_an_overriding_subclass(which):
    """Overriding a factor row, or the composite row built from them,
    takes the rows off the leg definition the proof rests on."""
    sys2 = taft_system(2)
    y = sys2.yd
    if which == "row":
        class Override(FactoredAction):
            def _row_fn(self, h, x):
                return dict(y.action.row(h, x))
        act = Override(sys2.heis, sys2.double)
    else:
        act = _FactorRowOverride(which, getattr(y.action, f"{which}_row"))
    with pytest.raises(ValueError, match="four leg actions"):
        module_factor_walk(sys2.double, act)


def _rebuilt(alg, r_row=None, B=None):
    """An algebra like `alg`, built by `twisted_product` from its record
    with R or its second factor replaced."""
    tw = alg.twist
    new = twisted_product(tw.A, B or tw.B, r_row or tw.r_row)
    extra = ((alg.comult, alg.counit, alg.antipode)
             if isinstance(alg, FiniteHopf) else ())
    return type(alg)(alg.ctx, alg.space, new.mult, new.unit, *extra,
                     generators=new.gens, name=alg.name, twist=new)


def _r_with(alg, b, a, row):
    """The R of `alg` with R(b (x) a) replaced by the terms `row`."""
    r_row = alg.twist.r_row
    return lambda bb, aa: row if (bb, aa) == (b, a) else r_row(bb, aa)


def _flat(alg, a, b):
    """The flat index of a (x) b in the twisted product `alg`."""
    return a * alg.twist.B.dim + b


def _with_double(D, **change):
    """D with its algebra rebuilt by `_rebuilt(D.hopf, **change)`."""
    return DrinfeldDouble(D.ctx, _rebuilt(D.hopf, **change), D.base, D.dual,
                          D.pairing)


def _with_double_table(D, pair, row):
    """D's algebra on a copy of its table with the product of the basis
    pair `pair` replaced by `row`, beside its unchanged record."""
    H = D.hopf
    mult = BilinearMap(H.dim, H.dim, fn=lambda i, j: (
        row if (i, j) == pair else H.mult.get(i, j)))
    return DrinfeldDouble(D.ctx, FiniteHopf(H.ctx, H.space, mult, H.unit,
                                            H.comult, H.counit, H.antipode,
                                            generators=H.generators,
                                            name=H.name, twist=H.twist),
                          D.base, D.dual, D.pairing)


def _acted_on_by(y, D):
    """y with D's algebra acting by the factored action built on D: the
    product that the module law reads is D's."""
    return y._replace(hopf=D.hopf,
                      action=FactoredAction(taft_system(2).heis, D))


# cases that the factor walk counts before its closure prelude at p=2: the
# unit law, the normality of R (16 + 16), the factor unit laws on the 32
# vectors of X1 and X2, the four legs, their unit facts and the tensor
# coalgebra of D(B)
_BEFORE_CLOSURE = (256 + 32 + 2 * 32
                   + 4 * (16 + 2 * 16 * 16) + 4 * 16 + 256)


def test_a_double_product_leaving_the_closure_fails_the_prelude():
    """R(k (x) f), and so (1 (x) k)(f (x) 1), moved to a multiple of
    f (x) k^3, for f off the generators of B*: k^3 lies outside
    C_B = {1, k, k^2, E}, which the cross walk's proof needs, and the
    cross walk never reads f."""
    sys2 = taft_system(2)
    D, y = sys2.double, sys2.yd
    left, right = D.hopf.twist.factor_indices()
    closure = coalgebra_closure(D.base)
    k, f = 1, 3
    assert (D.base.space.label(k), D.dual.space.label(f)) == ("k", "kap^3")
    assert f not in gen_indices(D.dual) and 3 not in closure
    pair = (right[k], left[f])
    ((key, c),) = D.hopf.mult.get(*pair)
    assert key == _flat(D.hopf, f, k)
    assert D.hopf.twist.r_row(k, f) == ((f, k, c),)
    bad = _with_double(D, r_row=_r_with(D.hopf, k, f, ((f, 3, c),)))
    assert bad.hopf.mult.get(*pair) == ((_flat(D.hopf, f, 3), c),)
    bad_y = _acted_on_by(y, bad)
    res = check_module(bad_y, walk=module_factor_walk(bad, bad_y.action))
    assert res.status == "fail"
    assert res.cases_checked == (_BEFORE_CLOSURE
                                 + closure.index(k) * 16 + f + 1)
    assert res.witness == (
        "(1 (x) c)(f (x) 1) has a B-leg outside the coalgebra closure at "
        "c=k, f=kap^3")


def test_the_cross_walk_reads_every_element_of_the_closure():
    """R(k^2 (x) kap), and so (1 (x) k^2)(kap (x) 1), times zeta, in D(B)
    as the factor walk and `check_module` read it: k^2 is in C_B but not
    among the generators of B, and the cross walk fails on it."""
    sys2 = taft_system(2)
    D, y = sys2.double, sys2.yd
    H = D.hopf
    left, right = H.twist.factor_indices()
    pair = (right[2], left[1])
    assert [H.space.label(i) for i in pair] == ["1(x)k^2", "kap(x)1"]
    bad = _with_double(D, r_row=_r_with(H, 2, 1, _zeta_first(
        H.twist.r_row(2, 1))))
    assert bad.hopf.mult.get(*pair) != H.mult.get(*pair)
    bad_y = _acted_on_by(y, bad)
    res = check_module(bad_y, walk=module_factor_walk(bad, bad_y.action))
    assert res.status == "fail"
    assert res.witness.startswith("M=1(x)k^2, N=kap(x)1, ")


def test_a_wrong_double_product_fails_the_prelude():
    """(f (x) 1)(1 (x) m) times zeta in D(B).  Beside the record, in a
    copied table, the walk refuses it: it reads R and the factor tables
    instead.  Through the formula, (f (x) 1)(1 (x) m) = f 1 (x) 1 m, and
    1 m times zeta in B's table fails the factor unit laws of the
    prelude, after the normality cases."""
    sys2 = taft_system(2)
    D, y = sys2.double, sys2.yd
    H = D.hopf
    (ub,) = D.base.unit
    left, right = H.twist.factor_indices()
    f, m = 3, 5
    pair = (left[f], right[m])
    copy = _with_double_table(D, pair, ((_flat(H, f, m), H.ctx.zeta),))
    with pytest.raises(ValueError, match="twisted-product formula"):
        module_factor_walk(copy, _acted_on_by(y, copy).action)
    B = D.base
    scaled = BilinearMap(B.dim, B.dim, fn=lambda i, j: (
        _zeta_first(B.mult.get(i, j)) if (i, j) == (ub, m)
        else B.mult.get(i, j)))
    bad = _with_double(D, B=_algebra(B, B.generators, scaled))
    assert bad.hopf.mult.get(*pair) == ((_flat(H, f, m), H.ctx.zeta),)
    bad_y = _acted_on_by(y, bad)
    res = check_module(bad_y, walk=module_factor_walk(bad, bad_y.action))
    assert res.status == "fail"
    assert res.cases_checked == y.algebra.dim + 32
    assert res.witness == (
        f"factor {B.name}: 1x = x = x1 fails at x={B.space.label(m)}")


def test_the_factor_walk_refuses_an_action_of_another_algebra():
    """The walk reads the product of D, and the law is walked on the
    product of the algebra that acts: they must be one object, even when
    a copy holds the same tables."""
    sys2 = taft_system(2)
    D, y = sys2.double, sys2.yd
    copy = DrinfeldDouble(D.ctx, _hopf(D.hopf, D.hopf.generators), D.base,
                          D.dual, D.pairing)
    with pytest.raises(ValueError, match="own algebra"):
        module_factor_walk(copy, y.action)
    with pytest.raises(ValueError, match="own algebra"):
        module_factor_walk(D, _acted_on_by(y, copy).action)


def test_only_the_cross_relation_catches_an_action_that_forgets_the_twist():
    """hit(m) = ad(m) = eps(m) id make prim(m) = eps(m) id and
    rho'(f (x) m) = eps(m) rho(f (x) 1): the legs are modules and the
    factor unit laws hold, but it is no D(B)-module: of the factor route,
    only the (1 (x) c, g (x) 1, x) part of the law fails."""
    sys2 = taft_system(2)
    D, y = sys2.double, sys2.yd
    H, eps = y.hopf, D.base.counit

    def trivial(m, v):
        c = eps.get(m)
        return ((v, c),) if c else ()

    bad = _with_legs(y, hit=trivial, ad=trivial)
    res = check_module(bad, walk=module_factor_walk(D, bad.action))
    assert res.status == "fail"
    closure = coalgebra_closure(D.base)
    assert res.cases_checked > _BEFORE_CLOSURE + len(closure) * 16
    _, right = D.hopf.twist.factor_indices()
    assert res.witness.split(",")[0] in {
        f"M={H.space.label(right[c])}" for c in closure}
    assert check_module(bad, walk=_generic_module_walk(bad)).status == "fail"


def test_factored_rows_match_their_definition():
    """(F), which the factor walk no longer walks: every composite row of
    the factored action is rho(f (x) 1) rho(1 (x) m), exhaustively."""
    sys2 = taft_system(2)
    D, y = sys2.double, sys2.yd
    left, right = D.hopf.twist.factor_indices()
    walk = Walk("exhaustive", ((left[f], right[m], x)
                               for f in range(D.dual.dim)
                               for m in range(D.base.dim)
                               for x in range(y.algebra.dim)))
    res = check_module(y, walk=walk)
    assert (res.status, res.cases_checked) == ("pass", 256 + 65_536)


def test_the_factor_walk_refuses_a_plain_action():
    sys2 = taft_system(2)
    y = sys2.yd
    plain = Action(y.hopf, y.algebra, lambda h, x: dict(y.action.row(h, x)))
    with pytest.raises(ValueError, match="FactoredAction"):
        module_factor_walk(sys2.double, plain)


# -- the module-algebra law on a subcoalgebra of D(B) ------------------------

def _generic_module_algebra_walk(y):
    """The module-algebra lemma with C all of D(B): h over its basis, x
    over the generators of H(B*) and y over its basis, closed by the
    certificate of H(B*); it needs no module law."""
    X = y.algebra
    return Walk("generators",
                itertools.product(range(y.hopf.dim), sorted(gen_indices(X)),
                                  range(X.dim)),
                certificate=lambda: generation_failure(X))


@pytest.mark.parametrize("p", [2, 3])
def test_the_coalgebra_closure_is_a_seven_element_subcoalgebra(p):
    H = taft_system(p).yd.hopf
    closure = coalgebra_closure(H)
    assert [H.space.label(c) for c in closure] == [
        "1(x)1", "1(x)k", "1(x)k^2", "1(x)E", "kap(x)1", "kap^2(x)1",
        "F(x)1"]
    C = set(closure)
    assert set(H.unit) | gen_indices(H) <= C
    assert all(j in C and k in C
               for c in closure for j, k, _ in H.comult.get(c))


@pytest.mark.parametrize("key", ["taft2", "taft3", "hqsl2"])
def test_the_coaction_closure_spans_a_subcomodule(key):
    """Y holds the unit and the generators of X, and delta(Y) lies in
    H (x) span Y, read through the public coaction map."""
    y = {"taft2": lambda: taft_system(2).yd,
         "taft3": lambda: taft_system(3).yd,
         "hqsl2": lambda: hqsl2(2).yd}[key]()
    X = y.algebra
    closure = coaction_closure(y)
    assert closure == sorted(set(closure))
    Y = set(closure)
    assert set(X.unit) | gen_indices(X) <= Y
    one = y.hopf.ctx.one
    assert all(flat % X.dim in Y for u in closure
               for flat in y.coaction.apply({u: one}))
    if key != "hqsl2":
        assert [X.space.label(u) for u in closure] == [
            "1#1", "1#k", "1#k^2", "1#E", "kap#1", "F#1"]


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("tag", ["hdouble-coaction-swapped",
                                 "trivial-coaction"])
def test_corrupted_coactions_fail_the_subcoalgebra_yd_walk(tag, p):
    """The two mutation fixtures that replace H(B*)'s coaction, with
    `yd-condition` on the route the yd suite takes instead of the pinned
    sample: the walk fails before its certificate."""
    y = taft_system(p).yd
    results = MUTATIONS[tag](p, subcoalgebra_walk(y.hopf, y.algebra, 2))
    res, = (r for r in results if r.name == "yd-condition")
    assert (res.status, res.mode) == ("fail", "generators")
    assert res.witness.endswith(": YD compatibility fails")
    assert res.cases_checked <= 7 * 4


def test_intact_module_algebra_agrees_with_the_reference():
    y = taft_system(2).yd
    lemma = check_module_algebra(y, walk=subcoalgebra_walk(y.hopf,
                                                           y.algebra))
    reference = check_module_algebra(y, walk=_generic_module_algebra_walk(y))
    assert (lemma.status, lemma.mode, lemma.cases_checked) == (
        "pass", "generators", 256 + 7 * 4 * 256)
    assert (reference.status, reference.cases_checked) == (
        "pass", 256 + 256 * 4 * 256)


@pytest.mark.parametrize("seed,outside", [(1, False), (2, False),
                                          (3, False), (4, False),
                                          (1, True), (2, True), (3, True),
                                          (4, True)])
def test_factor_row_corruptions_fail_both_routes(seed, outside):
    """A zeta-corruption of one entry of the leg LEGS[seed - 1], for
    `outside` in the row of an element outside the coalgebra closure of
    the leg's algebra (so off its generators), fails `module-action` by
    the factor walk and by the generic module walk alike."""
    y = taft_system(2).yd
    bad = _seeded_leg_corruption(y, seed, LEGS[seed - 1], outside)
    lemma = check_module(bad, walk=module_factor_walk(taft_system(2).double,
                                                      bad.action))
    reference = check_module(bad, walk=_generic_module_walk(bad))
    assert (lemma.status, reference.status) == ("fail", "fail")
    if outside:
        # only the leg walks read the legs of an element outside a closure
        assert lemma.witness.startswith("leg ")


def test_only_module_algebra_catches_a_conjugated_action():
    """Conjugating the two legs that act on B* (hit and adF) by phi, which
    scales one basis vector of B* by zeta, conjugates the action by
    phi (x) id: it keeps a module, and breaks the module-algebra law:
    `module-action` passes, `module-algebra` fails on C and on all of
    D(B)."""
    y = taft_system(2).yd
    act, zeta = y.action, y.hopf.ctx.zeta
    z = max(gen_indices(act.dual))

    def conjugated(leg):
        def fn(i, v):
            s = zeta.inv() if v == z else y.hopf.ctx.one
            return tuple((k, c * s * zeta) if k == z else (k, c * s)
                         for k, c in leg(i, v))
        return fn

    bad = _with_legs(y, hit=conjugated(act.hit), adf=conjugated(act.adf))
    module = check_module(bad, walk=module_factor_walk(
        taft_system(2).double, bad.action))
    assert module.status == "pass"
    lemma = check_module_algebra(bad, walk=subcoalgebra_walk(bad.hopf,
                                                             bad.algebra))
    reference = check_module_algebra(bad,
                                     walk=_generic_module_algebra_walk(bad))
    assert (lemma.status, reference.status) == ("fail", "fail")
    assert lemma.witness == reference.witness


# -- associativity from generator-headed triples --------------------------------

def _zeta_corrupted(A, x, z):
    """A's product with the first entry of e_x e_z times zeta."""
    row = A.mult.get(x, z)
    bad_row = ((row[0][0], row[0][1] * A.ctx.zeta),) + row[1:]
    return BilinearMap(A.dim, A.dim, fn=lambda i, j: (
        bad_row if (i, j) == (x, z) else A.mult.get(i, j)))


def _seeded_product_pairs(A, seed, count):
    """`count` seeded pairs (x, z) with e_x e_z != 0: half of them touch
    no generator index, half touch one."""
    gens = gen_indices(A)
    pairs = [(x, z) for x in range(A.dim) for z in range(A.dim)
             if A.mult.get(x, z)]
    rng = random.Random(seed)
    return (rng.sample([p for p in pairs if gens.isdisjoint(p)], count // 2)
            + rng.sample([p for p in pairs if not gens.isdisjoint(p)],
                         count // 2))


def test_associativity_lemma_walk_is_sound_under_seeded_corruptions():
    """On each zeta-corruption of one product entry of B, the lemma walk
    and `mult-unit` pass together exactly when the walk over every
    triple passes, and corruptions of pairs off the generators are
    caught."""
    B = taft_system(2).pair.primal
    gens = gen_indices(B)
    n = B.dim
    caught_off_generators = 0
    for x, z in _seeded_product_pairs(B, seed=7, count=24):
        mult = _zeta_corrupted(B, x, z)
        lemma, unit = _axioms(_algebra(B, B.generators, mult))
        full, _ = _axioms(_algebra(B, None, mult))
        assert (lemma.mode, full.mode) == ("generators", "exhaustive")
        assert lemma.cases_checked <= len(gens) * n * n
        proved = lemma.status == "pass" and unit.status == "pass"
        assert proved == (full.status == "pass"), (x, z)
        if lemma.status == "fail" and gens.isdisjoint((x, z)):
            caught_off_generators += 1
    assert caught_off_generators > 0


def test_a_corrupted_double_product_off_the_generators_fails():
    D = taft_system(2).double.hopf
    spared = gen_indices(D) | set(D.unit)
    rng = random.Random(7)
    while True:
        x, z = rng.randrange(D.dim), rng.randrange(D.dim)
        if spared.isdisjoint((x, z)) and D.mult.get(x, z):
            break
    bad = _algebra(D, D.generators, _zeta_corrupted(D, x, z))
    assoc, unit = _axioms(bad)
    assert (assoc.name, assoc.status, assoc.mode) == (
        "mult-associativity", "fail", "generators")
    assert assoc.witness.startswith("basis triple (")
    assert unit.status == "pass"



# -- module-algebra and comodule-algebra on the two factors of H(B*) ---------

def _with_double_coproduct(D, key, row):
    """D with the coproduct row of the basis vector `key` replaced by
    `row`."""
    H = D.hopf
    comult = ColinearMap(H.dim, H.dim, H.dim, fn=lambda i: (
        row if i == key else H.comult.get(i)))
    return DrinfeldDouble(D.ctx, FiniteHopf(H.ctx, H.space, H.mult, H.unit,
                                            comult, H.counit, H.antipode,
                                            generators=H.generators,
                                            name=H.name, twist=H.twist),
                          D.base, D.dual, D.pairing)


def _with_heis_r(b, a, row):
    """The YD structure of `taft_system(2)` on H(B*) rebuilt with R(b (x) a)
    replaced by the terms `row`, acted on and coacted on through that
    algebra."""
    sys2 = taft_system(2)
    Hd, D, y = sys2.heis, sys2.double, sys2.yd
    bad = _rebuilt(Hd.algebra, r_row=_r_with(Hd.algebra, b, a, row))
    heis = HeisenbergDouble(Hd.ctx, bad, Hd.base, Hd.dual, Hd.pairing)
    return y._replace(algebra=bad, action=FactoredAction(heis, D),
                      coaction=Coaction(D.hopf, bad, D.hopf.comult.get))


def _zeta_first(row):
    """`row`, a stored row or R row, with its first scalar times zeta."""
    (*head, c), *rest = row
    return ((*head, c * taft_system(2).ctx.zeta), *rest)


def _rhit_character(y):
    """y with rhit(f) scaled by the character <f, k> of B*, k the
    group-like generator of B: the leg is still a module, but
    rhit(kap) 1 = <kap, k> 1 != eps(kap) 1."""
    D = taft_system(2).double
    k = D.base.space.index[(0, 1)]
    rhit = y.action.rhit

    def twisted(f, a):
        c = D.pairing.pair_basis(f, k)
        return tuple((b, c * cb) for b, cb in rhit(f, a)) if c else ()

    return _with_legs(y, rhit=twisted)


def _corruption(name):
    """(y, D, the corrupted product or None) for one corruption of the
    p=2 structure, by name; see `CORRUPTIONS`."""
    sys2 = taft_system(2)
    D, y = sys2.double, sys2.yd
    H, X = D.hopf, y.algebra
    kind, _, arg = name.partition(":")
    if kind == "intact":
        return y, D, None
    if kind in ("leg", "leg-outside"):
        seed = int(arg)
        return (_seeded_leg_corruption(y, seed, LEGS[seed - 1],
                                       kind == "leg-outside"), D, None)
    if kind == "forgets-the-twist":
        def trivial(m, v):
            c = D.base.counit.get(m)
            return ((v, c),) if c else ()
        return _with_legs(y, hit=trivial, ad=trivial), D, None
    if kind == "rhit-character":
        return _rhit_character(y), D, None
    if kind == "coaction":
        return _corrupt_coaction(y, int(arg)), D, None
    if kind == "double-product":
        # through R(b (x) a) = (1 (x) b)(a (x) 1); "smash" scales
        # R(1 (x) kap^3), and so (x (x) 1)(kap^3 (x) y) for every x, y
        (ub,) = D.base.unit
        b, a = {"closure": (1, 3), "cross": (2, 1), "smash": (ub, 3),
                "x2-x1": (3, 9)}[arg]
        row = H.twist.r_row(b, a)
        if arg == "closure":
            row = ((3, 3, row[0][2]),)
        bad = _with_double(D, r_row=_r_with(H, b, a, _zeta_first(row)))
        return _acted_on_by(y, bad), bad, bad.hopf
    if kind == "double-coproduct":
        key = int(arg)
        bad = _with_double_coproduct(D, key, tuple(
            (j, k, c * H.ctx.zeta if n == 0 else c)
            for n, (j, k, c) in enumerate(H.comult.get(key))))
        return _acted_on_by(y, bad), bad, None
    if kind == "heis-product":
        # through R(b (x) a) = (1 # b)(a # 1), as for "double-product"
        (ub,) = D.base.unit
        b, a = {"smash": (ub, 3), "x2-x1": (3, 9)}[arg]
        bad = _with_heis_r(b, a, _zeta_first(X.twist.r_row(b, a)))
        return bad, D, bad.algebra
    raise KeyError(name)


CORRUPTIONS = (
    ["intact", "forgets-the-twist", "rhit-character"]
    + [f"leg:{s}" for s in (1, 2, 3, 4)]
    + [f"leg-outside:{s}" for s in (1, 2, 3, 4)]
    + [f"coaction:{s}" for s in (1, 2, 3)]
    + [f"double-product:{a}" for a in ("closure", "cross", "smash", "x2-x1")]
    + ["double-coproduct:150", "heis-product:smash", "heis-product:x2-x1"])


def _routes(y, D) -> dict:
    """Each law's (factor route, the route it replaced) on y, acted on
    through D."""
    X = y.algebra
    return {
        "module-action": (
            check_module(y, walk=module_factor_walk(D, y.action)),
            check_module(y, walk=_generic_module_walk(y))),
        "module-algebra": (
            check_module_algebra(y, walk=module_algebra_factor_walk(
                D, y.action)),
            check_module_algebra(y, walk=subcoalgebra_walk(y.hopf, X))),
        "comodule-algebra": (
            check_comodule_algebra(y, walk=comodule_algebra_factor_walk(D, y)),
            check_comodule_algebra(y, walk=lemma_walk(X))),
    }


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_the_factor_routes_give_the_old_verdicts(name):
    """Both routes rest on the associativity of the product they read,
    so where a corrupted product is not associative
    (`mult-associativity` fails) they may differ: the factor routes
    read the products of the two factors' pairs, the old ones those of
    generator pairs.  Everywhere else they agree.  The coproduct of D(B)
    is read by the factor routes alone: its corruption leaves D(B) no
    bialgebra, and the factor routes fail on it."""
    y, D, product = _corruption(name)
    verdicts = {law: (new.status, old.status)
                for law, (new, old) in _routes(y, D).items()}
    if name.startswith("double-coproduct"):
        assert verdicts["module-action"] == ("fail", "pass")
        assert verdicts["module-algebra"][0] == "fail"
        return
    differ = [law for law, (new, old) in verdicts.items() if new != old]
    if differ:
        assert product is not None, verdicts
        assert _axioms(product)[0].status == "fail", verdicts
    if name == "intact":
        assert set(verdicts.values()) == {("pass", "pass")}


def test_the_intact_factor_routes_count_their_cases():
    """At p=2, each route run on its own: module-algebra walks the counit
    law of the action on all 256 basis vectors of D(B), the normality of
    H(B*)'s R (16 + 16), the leg unit facts (4 * 16), the tensor
    coalgebra (256) and the twisting identity of H(B*) (2 generators x
    16 x 16), then the 7 elements of C against X1 x X1 (2 generators x
    16), X2 x X2 (16 x 2) and X2 x X1 (2 generators x 16);
    comodule-algebra walks delta(1), the normality of both R, the tensor
    coalgebra and both twisting identities, then the three blocks once."""
    y, D, _ = _corruption("intact")
    module, _ = _routes(y, D)["module-algebra"]
    comodule, _ = _routes(y, D)["comodule-algebra"]
    assert (module.status, module.mode, module.cases_checked) == (
        "pass", "generators",
        256 + 32 + 4 * 16 + 256 + 2 * 256 + 7 * (2 * 16 + 16 * 2 + 2 * 16))
    assert (comodule.status, comodule.mode, comodule.cases_checked) == (
        "pass", "generators",
        1 + 32 + 32 + 256 + 2 * 256 + 2 * 256 + 2 * 16 + 16 * 2 + 2 * 16)


def test_shared_obligations_run_once_in_a_suite():
    """Inside `obligations_once`, as each suite runs, an obligation that a
    law's walk already ran is replayed and counts no case: after
    module-action, module-algebra walks the twisting identity of H(B*)
    but no leg unit fact and no tensor coalgebra, and comodule-algebra
    walks only the twisting identity of D(B) besides its pairs.  Outside
    it every law counts every case, whatever ran before."""
    y, D, _ = _corruption("intact")

    def laws():
        return [check_module(y, walk=module_factor_walk(D, y.action)),
                check_module_algebra(y, walk=module_algebra_factor_walk(
                    D, y.action)),
                check_comodule_algebra(y, walk=comodule_algebra_factor_walk(
                    D, y))]

    alone = [r.cases_checked for r in laws()]
    with obligations_once():
        once = laws()
    assert [r.cases_checked for r in laws()] == alone
    assert {r.status for r in once} == {"pass"}
    assert [r.cases_checked for r in once] == [
        alone[0],
        256 + 32 + 2 * 256 + 7 * 3 * 2 * 16,
        1 + 2 * 256 + 3 * 2 * 16]


def test_a_replayed_obligation_fails_every_law_that_rests_on_it():
    """A failed obligation keeps its witness: the law that replays it
    fails with it, at no case of its own, whichever law ran it first.
    module-action after comodule-algebra replays R's normality and the
    tensor coalgebra of D(B), and walks only the legs and their unit
    facts."""
    y, D, _ = _corruption("double-coproduct:150")
    want = (f"Delta of {D.hopf.name} is not the tensor coalgebra of its "
            "factors at x=Fkap(x)k^6")
    with obligations_once():
        module = check_module(y, walk=module_factor_walk(D, y.action))
        algebra = check_module_algebra(y, walk=module_algebra_factor_walk(
            D, y.action))
    assert (module.status, module.witness) == ("fail", want)
    assert (algebra.status, algebra.witness) == ("fail", want)
    assert algebra.cases_checked == 256 + 32
    with obligations_once():
        comodule = check_comodule_algebra(
            y, walk=comodule_algebra_factor_walk(D, y))
        module = check_module(y, walk=module_factor_walk(D, y.action))
    assert (comodule.status, comodule.witness) == ("fail", want)
    assert (module.status, module.witness) == ("fail", want)
    assert module.cases_checked == _BEFORE_CLOSURE - 256 - 32


def test_a_scaled_double_coproduct_entry_fails_the_tensor_coalgebra():
    """One zeta-scaled entry of Delta_D(Fkap (x) k^6): the legs and R are
    intact, so the module-action prelude fails at that basis vector of
    its tensor-coalgebra step, and so does the module-algebra prelude."""
    y, D, _ = _corruption("double-coproduct:150")
    assert D.hopf.space.label(150) == "Fkap(x)k^6"
    want = (f"Delta of {D.hopf.name} is not the tensor coalgebra of its "
            "factors at x=Fkap(x)k^6")
    res = check_module(y, walk=module_factor_walk(D, y.action))
    assert (res.status, res.witness) == ("fail", want)
    assert res.cases_checked == _BEFORE_CLOSURE - 256 + 150 + 1
    res = check_module_algebra(y, walk=module_algebra_factor_walk(D,
                                                                 y.action))
    assert (res.status, res.witness) == ("fail", want)
    assert res.cases_checked == 256 + 32 + 4 * 16 + 150 + 1


def test_a_character_scaled_rhit_fails_the_leg_unit_facts():
    """rhit(f) scaled by <f, k> keeps every leg a module, so only the leg
    unit facts of the factor walk see that rhit(kap) 1 = <kap, k> 1; the
    action is no D(B)-module, and the generic walk fails too."""
    y, D, _ = _corruption("rhit-character")
    res = check_module(y, walk=module_factor_walk(D, y.action))
    assert (res.status, res.witness) == (
        "fail", "leg rhit: rhit(x) 1 != eps(x) 1 at x=kap")
    # the ad facts (16), then the unit and kap of rhit
    assert res.cases_checked == _BEFORE_CLOSURE - 256 - 4 * 16 + 16 + 2
    assert check_module(y, walk=_generic_module_walk(y)).status == "fail"


def test_a_scaled_smash_product_fails_the_factor_prelude():
    """R(1 (x) kap^3) times zeta in H(B*), which scales (x # 1)(kap^3 # y)
    for every x and y: both factor walks fail at that row of their
    normality prelude."""
    y, D, _ = _corruption("heis-product:smash")
    want = "R(1 (x) a) != a (x) 1 at a=kap^3"
    module = check_module_algebra(y, walk=module_algebra_factor_walk(
        D, y.action))
    comodule = check_comodule_algebra(y, walk=factor_pair_walk(y.algebra))
    assert (module.status, module.witness) == ("fail", want)
    assert module.cases_checked == 256 + 3 + 1
    assert (comodule.status, comodule.witness) == ("fail", want)
    assert comodule.cases_checked == 1 + 3 + 1


def test_a_scaled_x2_x1_product_fails_both_laws_on_x2_x1():
    """R(k^3 (x) Fkap), and so (1 # k^3)(Fkap # 1), a product of
    X2 x X1 off the generators of B, times zeta: the walks of X2 x X1
    read only the generators of B, and the twisting identity of H(B*)
    in both preludes fails at b1 b2 = k k^2 = k^3, before any pair."""
    y, D, _ = _corruption("heis-product:x2-x1")
    X = y.algebra
    want = ("R(b1 b2 (x) a) != (A (x) m)(R (x) B)(b1 (x) R(b2 (x) a)) "
            "at b1=k, b2=k^2, a=Fkap")
    at = 2 * 16 + 9 + 1                 # (k, k^2, Fkap) in walk order
    assert run_check("twisting", "exhaustive", twisting_cases(X))[1:5] == (
        "fail", "exhaustive", at, want)
    module, _ = _routes(y, D)["module-algebra"]
    comodule, _ = _routes(y, D)["comodule-algebra"]
    assert (module.status, module.witness) == ("fail", want)
    assert module.cases_checked == 256 + 32 + 4 * 16 + 256 + at
    assert (comodule.status, comodule.witness) == ("fail", want)
    assert comodule.cases_checked == 1 + 32 + 32 + 256 + 2 * 256 + at


def test_a_scaled_double_r_row_off_the_generators_fails_comodule_algebra():
    """R(k^3 (x) Fkap) of D(B) times zeta: the comodule-algebra route,
    whose products are taken in D (x) X, fails at the twisting identity
    of D(B).  The old route reads D's products on generator pairs only,
    and passes: it rests on the associativity of D, which fails."""
    y, D, bad = _corruption("double-product:x2-x1")
    want = ("R(b1 b2 (x) a) != (A (x) m)(R (x) B)(b1 (x) R(b2 (x) a)) "
            "at b1=k, b2=k^2, a=Fkap")
    assert run_check("twisting", "exhaustive",
                     twisting_cases(bad)).witness == want
    new, old = _routes(y, D)["comodule-algebra"]
    assert (new.status, new.witness) == ("fail", want)
    assert new.cases_checked == 1 + 32 + 32 + 256 + 2 * 16 + 9 + 1
    assert old.status == "pass"
    assert _axioms(bad)[0].status == "fail"


def test_the_module_algebra_factor_walk_refuses_other_actions():
    """A plain action, an overriding subclass and an action of another
    algebra are refused, as by `module_factor_walk`."""
    sys2 = taft_system(2)
    D, y = sys2.double, sys2.yd
    plain = Action(y.hopf, y.algebra, lambda h, x: dict(y.action.row(h, x)))
    with pytest.raises(ValueError, match="FactoredAction"):
        module_algebra_factor_walk(D, plain)
    with pytest.raises(ValueError, match="four leg actions"):
        module_algebra_factor_walk(D, _FactorRowOverride(
            "dual", y.action.dual_row))
    copy = DrinfeldDouble(D.ctx, _hopf(D.hopf, D.hopf.generators), D.base,
                          D.dual, D.pairing)
    with pytest.raises(ValueError, match="own algebra"):
        module_algebra_factor_walk(copy, y.action)


def _coaction_fixture(tag):
    """The p=2 YD structure with the coaction of the mutation fixture
    `tag`, built as `mutations` builds it."""
    sys2 = taft_system(2)
    y, H = sys2.yd, sys2.double.hopf
    if tag == "hdouble-coaction-swapped":
        return y._replace(coaction=Coaction(H, y.algebra, lambda key: tuple(
            sorted((k, j, c) for j, k, c in H.comult.get(key)))))
    return y._replace(coaction=Coaction.trivial(H, y.algebra))


@pytest.mark.parametrize("tag", ["hdouble-coaction-swapped",
                                 "trivial-coaction"])
def test_the_comodule_route_gives_the_full_walks_verdict_on_fixtures(tag):
    """The two fixtures that change H(B*)'s coaction: their coaction is
    not D(B)'s coproduct by definition, so the route walks X1 x X2 too,
    and its verdict is that of the walk over every pair (the trivial
    coaction is a comodule algebra; the swapped one is not)."""
    assert tag in MUTATIONS
    y = _coaction_fixture(tag)
    new = check_comodule_algebra(y, walk=comodule_algebra_factor_walk(
        taft_system(2).double, y))
    full = check_comodule_algebra(y, walk=EXHAUSTIVE)
    assert new.status == full.status == (
        "pass" if tag == "trivial-coaction" else "fail")
