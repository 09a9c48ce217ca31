"""Soundness net of the lemma walks.

`comodule-algebra` and `quotient-morphism` prove phi(xy) = phi(x) phi(y)
from generator indices x and every basis y, plus a generation
certificate.  Each is run here both ways at p=2: as the lemma walk, and
as the full pair walk on a copy of the structure that declares no
generators.  The two must agree on intact structures and on seeded
single-term corruptions, and a lemma-walk failure must name the first
failing pair in walk order.

`mult-associativity` in exhaustive mode walks the triples headed by a
generator index.  On seeded single-entry corruptions of the Taft
algebra's product it passes together with `mult-unit` exactly when the
walk over every triple passes, and it catches a corruption of D(B)'s
product on a pair that touches no generator.

`module-action` is proved on the two factors of D(B)
(`doubles.module_factor_walk`), from the factor rows of the
`doubles.FactoredAction`; `module-algebra` on the subcoalgebra of D(B)
spanned by `results.coalgebra_closure` given `module-action`; and
`yd-condition` and `braided-commutative` from generators given
`module-action` and `comodule-algebra`.  On the intact p=2 structure and
on seeded corruptions of its factor action rows and of its coaction,
each lemma walk passes together with those hypotheses exactly when its
reference walk passes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace

import pytest

from hopfbench.doubles import FactoredAction, module_factor_walk
from hopfbench.hopf import FiniteAlgebra, FiniteHopf, check_algebra_axioms
from hopfbench.results import (Walk, coalgebra_closure, gen_indices,
                               generation_failure, generator_pairs,
                               lemma_walk, subcoalgebra_walk)
from hopfbench.sparse import BilinearMap, veq
from hopfbench.taft import hqsl2, taft_system, uqsl2
from hopfbench.truncate import HopfQuotient, quotient_morphism_check
from hopfbench.ydcat import (Action, Coaction, check_braided_commutative,
                             check_comodule_algebra, check_module,
                             check_module_algebra, check_yd)


def _algebra(A, generators=None, mult=None):
    return FiniteAlgebra(A.ctx, A.space, mult or A.mult, A.unit,
                         generators=generators, name=A.name)


def _hopf(H, generators=None):
    return FiniteHopf(H.ctx, H.space, H.mult, H.unit, H.comult, H.counit,
                      H.antipode, generators=generators, name=H.name)


def _yd(key):
    return taft_system(2).yd if key == "taft" else hqsl2(2).yd


def _both_ways(y):
    """(lemma walk, full pair walk) of comodule-algebra on y."""
    full = replace(y, algebra=_algebra(y.algebra))
    return (check_comodule_algebra(y, mode="exhaustive"),
            check_comodule_algebra(full, mode="exhaustive"))


def _quotient_both_ways(hq, pcache=None):
    """(lemma walk, full pair walk) of quotient-morphism on hq."""
    def copy(parent):
        return HopfQuotient(parent, hq.ideal, hq.qspace, hq.quotient,
                            dict(pcache if pcache is not None else {}))
    return (quotient_morphism_check(copy(hq.parent)),
            quotient_morphism_check(copy(_hopf(hq.parent))))


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


@pytest.mark.parametrize("key", ["taft", "hqsl2"])
def test_intact_comodule_algebra_agrees_both_ways(key):
    lemma, full = _both_ways(_yd(key))
    assert (lemma.status, lemma.mode) == ("pass", "generators")
    assert (full.status, full.mode) == ("pass", "exhaustive")
    d = _yd(key).algebra.dim
    assert full.cases_checked == 1 + d * d
    assert lemma.cases_checked < full.cases_checked


def test_intact_quotient_morphism_agrees_both_ways():
    lemma, full = _quotient_both_ways(uqsl2(2).hq)
    assert (lemma.status, lemma.mode) == ("pass", "generators")
    assert (full.status, full.mode) == ("pass", "exhaustive")
    assert (lemma.cases_checked, full.cases_checked) == (1281, 65_792)


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
    return replace(y, coaction=Coaction(y.hopf, y.algebra, fn))


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


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_corrupted_quotient_map_agrees_both_ways_and_fails_first(seed):
    hq = uqsl2(2).hq
    H, K = hq.parent, hq.quotient
    one = H.ctx.one
    rng = random.Random(seed)
    skip = set(H.unit).union(*H.generators)
    pcache = {k: hq.project({k: one}) for k in range(H.dim)}
    k = rng.choice([i for i in range(H.dim) if i not in skip and pcache[i]])
    t = rng.choice(sorted(pcache[k]))
    pcache[k] = {**pcache[k], t: pcache[k][t] * H.ctx.zeta}
    lemma, full = _quotient_both_ways(hq, pcache)
    assert lemma.status == full.status == "fail"

    def proj(v):
        out: dict = {}
        for i, c in v.items():
            for q, cq in pcache[i].items():
                out[q] = out.get(q, H.ctx.zero) + c * cq
        return {q: c for q, c in out.items() if c}

    def ok(i, j):
        return veq(proj(H.product({i: one}, {j: one})),
                   K.product(proj({i: one}), proj({j: one})))

    i, j = _first_failing(H, ok)
    li, lj = _labels(H.space, i, j)
    assert lemma.witness == f"pi(xy) != pi(x)pi(y) at x={li}, y={lj}"


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
            lemma, full = _both_ways(replace(y, algebra=bad))
            if full.status == "fail" and lemma.status == "pass":
                lemma_only += 1
                assoc = check_algebra_axioms(bad)[0]
                assert (assoc.name, assoc.status) == ("mult-associativity",
                                                      "fail")
    assert lemma_only > 0


def test_too_few_generators_fail_the_certificate():
    y = hqsl2(2).yd
    few = replace(y, algebra=_algebra(y.algebra, y.algebra.generators[:-1]))
    res = check_comodule_algebra(few, mode="generators")
    assert res.status == "fail"
    assert res.witness.endswith("; generation certificate failed")
    assert res.witness.startswith("generating set spans rank ")

    hq = uqsl2(2).hq
    H = hq.parent
    few_q = HopfQuotient(_hopf(H, H.generators[:-1]), hq.ideal, hq.qspace,
                         hq.quotient)
    res = quotient_morphism_check(few_q)
    assert res.status == "fail"
    assert res.witness.endswith("; generation certificate failed")

    sys2 = taft_system(2)
    D, y = sys2.double, sys2.yd
    H, X = y.hopf, y.algebra
    few_b = replace(D, base=_hopf(D.base, D.base.generators[:-1]))
    few_dual = replace(D, dual=_hopf(D.dual, D.dual.generators[:-1]))
    for res in (check_module(y, walk=module_factor_walk(few_b, y.action)),
                check_module(y, walk=module_factor_walk(few_dual, y.action)),
                check_module_algebra(y, walk=subcoalgebra_walk(
                    H, _algebra(X, X.generators[:-1]))),
                check_module_algebra(y, walk=subcoalgebra_walk(
                    _hopf(H, H.generators[:-1]), X)),
                check_yd(y, walk=lemma_walk(_hopf(H, H.generators[:-1]))),
                check_braided_commutative(
                    y, walk=lemma_walk(_algebra(X, X.generators[:-1]))),
                check_algebra_axioms(_algebra(X, X.generators[:-1]))[0]):
        assert res.status == "fail"
        assert res.witness.endswith("; generation certificate failed")


# -- the module law on the factors of D(B), and the walks that rest on it ----

class _FactorRows(FactoredAction):
    """The factored action of `taft_system(2)` with its factor rows read
    from `prim(m, x)` and `dual(f, x)`; it builds its composite rows
    afresh from them, as `FactoredAction._row_fn` defines."""

    def __init__(self, prim, dual):
        sys2 = taft_system(2)
        super().__init__(sys2.heis, sys2.double)
        self.prim_fn, self.dual_fn = prim, dual

    def prim_row(self, m, x):
        return self.prim_fn(m, x)

    def dual_row(self, f, x):
        return self.dual_fn(f, x)


def _with_factor_rows(y, prim=None, dual=None):
    """y acting by `_FactorRows`, each factor row intact unless given."""
    act = y.action
    return replace(y, action=_FactorRows(prim or act.prim_row,
                                         dual or act.dual_row))


def _factor_element(which, i):
    """The index in D(B) of 1 (x) e_i ("prim") or of e_i (x) 1 ("dual")."""
    D = taft_system(2).double
    (ub,), (uf,) = D.base.unit, D.dual.unit
    return D.index(uf, i) if which == "prim" else D.index(i, ub)


def _corrupt_factor_row(y, which, i, x, t, scale):
    """y with entry t of the factor row `which` of e_i on e_x times scale:
    (eps (x) e_i) |> e_x for "prim", (e_i (x) 1) |> e_x for "dual"."""
    row = getattr(y.action, f"{which}_row")
    bad = tuple((k, c * scale) if n == t else (k, c)
                for n, (k, c) in enumerate(row(i, x)))
    fn = lambda j, z: bad if (j, z) == (i, x) else row(j, z)  # noqa: E731
    return _with_factor_rows(y, **{which: fn})


def _seeded_action_corruption(y, seed, spared=frozenset()):
    """y with one entry of a seeded nonzero factor row times zeta, the
    row of an element of D(B) outside `spared`."""
    rng = random.Random(seed)
    n = y.action.base.dim
    while True:
        which = rng.choice(("prim", "dual"))
        i, x = rng.randrange(n), rng.randrange(y.algebra.dim)
        row = getattr(y.action, f"{which}_row")(i, x)
        if row and _factor_element(which, i) not in spared:
            return _corrupt_factor_row(y, which, i, x,
                                       rng.randrange(len(row)),
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
        "yd-condition": (check_yd(y, walk=lemma_walk(y.hopf)),
                         check_yd(y, mode="exhaustive")),
        "braided-commutative": (
            check_braided_commutative(y, walk=lemma_walk(y.algebra)),
            check_braided_commutative(y, mode="exhaustive")),
    }


def _assert_lemma_walks_agree(walks: dict) -> None:
    """Each lemma walk, with the hypothesis checks it rests on, passes
    exactly when its reference walk passes."""
    def ok(r):
        return r.status == "pass"

    module, comodule = walks["module-action"][0], walks["comodule-algebra"][0]
    for claim, hypotheses in (("module-action", ()),
                              ("comodule-algebra", ()),
                              ("yd-condition", (module, comodule)),
                              ("braided-commutative", (module, comodule))):
        lemma, reference = walks[claim]
        assert lemma.mode == "generators"
        assert (ok(lemma) and all(map(ok, hypotheses))) == ok(reference), claim


def test_intact_yd_structure_passes_every_lemma_walk():
    walks = _walks(taft_system(2).yd)
    _assert_lemma_walks_agree(walks)
    assert {claim: (lemma.status, lemma.cases_checked, reference.status,
                    reference.cases_checked)
            for claim, (lemma, reference) in walks.items()} == {
        "module-action": ("pass", 26_112, "pass", 256 + 4 * 256 * 256),
        "comodule-algebra": ("pass", 1_025, "pass", 1 + 256 * 256),
        "yd-condition": ("pass", 1_024, "pass", 256 * 256),
        "braided-commutative": ("pass", 1_024, "pass", 256 * 256),
    }


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_corrupted_action_rows_fail_where_the_references_fail(seed):
    walks = _walks(_seeded_action_corruption(taft_system(2).yd, seed))
    _assert_lemma_walks_agree(walks)
    assert [r.status for r in walks["module-action"]] == ["fail", "fail"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_corrupted_coaction_fails_where_the_references_fail(seed):
    walks = _walks(_corrupt_coaction(taft_system(2).yd, seed))
    _assert_lemma_walks_agree(walks)
    assert walks["module-action"][0].status == "pass"


def test_a_lemma_pass_on_a_broken_action_still_fails_the_run():
    """The lemma walks read few action rows, so on a corrupted action
    they can pass (`yd-condition` reads only rows of the closure C, and
    the corrupted factor row belongs to an element outside it);
    `module-action` then fails, and so does the run."""
    y = taft_system(2).yd
    y = _seeded_action_corruption(y, 1, set(coalgebra_closure(y.hopf)))
    walks = _walks(y)
    assert [walks[c][0].status for c in ("yd-condition", "braided-commutative",
                                         "comodule-algebra")] == ["pass"] * 3
    assert walks["module-action"][0].status == "fail"
    assert walks["yd-condition"][1].status == "fail"
    assert walks["braided-commutative"][1].status == "fail"


def test_the_factor_route_catches_what_the_sampled_walk_missed():
    """A wrong entry in the factor row of k^3 on F#Ek^4 escapes the
    generator head and seeded tail of the old walk."""
    sys2 = taft_system(2)
    D, X = sys2.double, sys2.yd.algebra
    H = sys2.yd.hopf
    assert (D.base.space.label(3), X.space.label(140)) == ("k^3", "F#Ek^4")
    bad = _corrupt_factor_row(sys2.yd, "prim", 3, 140, 0, H.ctx.rational(2))
    old = check_module(bad, mode="generators", seed=601, samples=10_000)
    assert old.status == "pass"
    new = check_module(bad, walk=module_factor_walk(D, bad.action))
    assert new.status == "fail"
    r = H.space.render
    k, k2 = _factor_element("prim", 1), _factor_element("prim", 2)
    assert new.witness.startswith(
        f"M={r(H.space.labels[k])}, N={r(H.space.labels[k2])}, "
        f"x=F#Ek^4: ")


def test_a_wrong_double_product_fails_the_prelude():
    sys2 = taft_system(2)
    D, y = sys2.double, sys2.yd
    H = D.hopf
    (ub,), (uf,) = D.base.unit, D.dual.unit
    f, m = 3, 5
    pair = (D.index(f, ub), D.index(uf, m))
    wrong = ((D.index(f, m), H.ctx.zeta),)
    mult = BilinearMap(H.dim, H.dim, fn=lambda i, j: (
        wrong if (i, j) == pair else H.mult.get(i, j)))
    bad = replace(D, hopf=FiniteHopf(H.ctx, H.space, mult, H.unit, H.comult,
                                     H.counit, H.antipode,
                                     generators=H.generators, name=H.name))
    res = check_module(y, walk=module_factor_walk(bad, y.action))
    assert res.status == "fail"
    assert res.cases_checked == y.algebra.dim + f * D.base.dim + m + 1
    assert res.witness == (
        f"(f (x) 1)(1 (x) m) != f (x) m at "
        f"f={D.dual.space.label(f)}, m={D.base.space.label(m)}")


def test_only_the_cross_relation_catches_an_action_that_forgets_the_twist():
    """prim_row(m, x) = eps(m) e_x leaves rho'(f (x) m) = eps(m) rho(f (x) 1):
    it acts by algebra maps on B*cop and on B and passes the factor unit
    laws, but it is no D(B)-module: of the factor route, only the
    (1 (x) b, f (x) 1, x) part of the law fails."""
    sys2 = taft_system(2)
    D, y = sys2.double, sys2.yd
    H, eps = y.hopf, D.base.counit

    def prim(m, x):
        c = eps.get(m)
        return ((x, c),) if c else ()

    bad = _with_factor_rows(y, prim=prim)
    res = check_module(bad, walk=module_factor_walk(D, bad.action))
    assert res.status == "fail"
    before_cross = 256 + 3 * 256 + 2 * 256 + 2 * 2 * 16 * 256
    assert res.cases_checked > before_cross
    (uf,) = D.dual.unit
    assert res.witness.split(",")[0] in {
        f"M={H.space.label(D.index(uf, b))}"
        for b in gen_indices(D.base)}
    assert check_module(bad, walk=_generic_module_walk(bad)).status == "fail"


def test_factored_rows_match_their_definition():
    """(F), which the factor walk no longer walks: every composite row of
    the factored action is rho(f (x) 1) rho(1 (x) m), exhaustively."""
    sys2 = taft_system(2)
    D, y = sys2.double, sys2.yd
    (ub,), (uf,) = D.base.unit, D.dual.unit
    walk = Walk("exhaustive", ((D.index(f, ub), D.index(uf, m), x)
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
                                          (1, True), (2, True), (3, True),
                                          (4, True)])
def test_factor_row_corruptions_fail_both_routes(seed, outside):
    """A zeta-corruption of one factor row, for `outside` of an element of
    D(B) outside the closure C, fails the lemma route (`module-action`
    from the factor rows or `module-algebra` on C) and the reference
    route (the generic module walk or the module-algebra walk over all
    of D(B)) alike."""
    y = taft_system(2).yd
    spared = set(coalgebra_closure(y.hopf)) if outside else frozenset()
    bad = _seeded_action_corruption(y, seed, spared)
    lemma = [check_module(bad, walk=module_factor_walk(
                 taft_system(2).double, bad.action)),
             check_module_algebra(bad, walk=subcoalgebra_walk(
                 bad.hopf, bad.algebra))]
    reference = (check_module(bad, walk=_generic_module_walk(bad)),)
    if reference[0].status == "pass":
        reference += (check_module_algebra(
            bad, walk=_generic_module_algebra_walk(bad)),)
    assert "fail" in {r.status for r in lemma}
    assert "fail" in {r.status for r in reference}


def test_only_module_algebra_catches_a_conjugated_action():
    """Conjugating both factor rows by phi, which scales one basis vector
    of H(B*) by zeta, keeps a module, and breaks the module-algebra law:
    `module-action` passes, `module-algebra` fails on C and on all of
    D(B)."""
    y = taft_system(2).yd
    act, zeta = y.action, y.hopf.ctx.zeta
    z = max(gen_indices(y.algebra))

    def conjugated(row):
        def fn(i, x):
            s = zeta.inv() if x == z else y.hopf.ctx.one
            return tuple((k, c * s * zeta) if k == z else (k, c * s)
                         for k, c in row(i, x))
        return fn

    bad = _with_factor_rows(y, conjugated(act.prim_row),
                            conjugated(act.dual_row))
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
        lemma, unit = check_algebra_axioms(_algebra(B, B.generators, mult))
        full, _ = check_algebra_axioms(_algebra(B, None, mult))
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
    assoc, unit = check_algebra_axioms(bad)
    assert (assoc.name, assoc.status, assoc.mode) == (
        "mult-associativity", "fail", "generators")
    assert assoc.witness.startswith("basis triple (")
    assert unit.status == "pass"
