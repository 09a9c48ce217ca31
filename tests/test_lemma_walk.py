"""Soundness net of the multiplicative-map lemma walk.

`comodule-algebra` and `quotient-morphism` prove phi(xy) = phi(x) phi(y)
from generator indices x and every basis y, plus a generation
certificate.  Each is run here both ways at p=2: as the lemma walk, and
as the full pair walk on a copy of the structure that declares no
generators.  The two must agree on intact structures and on seeded
single-term corruptions, and a lemma-walk failure must name the first
failing pair in walk order.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from hopfbench.hopf import FiniteAlgebra, FiniteHopf, check_algebra_axioms
from hopfbench.results import generation_failure, generator_pairs
from hopfbench.sparse import BilinearMap, veq
from hopfbench.taft import hqsl2, taft_system, uqsl2
from hopfbench.truncate import HopfQuotient, quotient_morphism_check
from hopfbench.ydcat import Coaction, check_comodule_algebra


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
    r = space.render
    return r(space.labels[x]), r(space.labels[y])


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
