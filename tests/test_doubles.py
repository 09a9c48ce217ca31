"""Tests for the two double constructions and their interaction."""

from __future__ import annotations

import itertools
import random

import pytest

import hopfbench.report as report_module
from hopfbench.cli import main
from hopfbench.doubles import (
    DrinfeldDouble, HeisenbergDouble, check_double_identity,
    check_factor_restrictions, check_quantum_comm_remarks,
    check_quasitriangular,
    chain_relations_check, eta_twist_product, FactoredAction,
    factor_structures, heisenberg_chain, to_show_action_check,
)
from hopfbench.hopf import (FiniteAlgebra, FiniteHopf, check_hopf_axioms,
                           check_product_rows, check_same_twist)
from hopfbench.report import SuiteConfig, run_suite
from hopfbench.results import (TupleWalks, gen_indices,
                               invert_expected_failure, lemma_walk)
from hopfbench.sparse import BilinearMap, vadd_into, vadd_term, veq
from hopfbench.taft import (
    closed_form_check, double_elements, double_presentation_check,
    taft_dual_check, taft_system,
)
from hopfbench.ydcat import Action, check_braided_commutative


EXHAUSTIVE = TupleWalks("exhaustive", 0, 0)


def all_pass(results):
    bad = [r for r in results if r.status == "fail"]
    assert not bad, "\n".join(r.line() for r in bad)


@pytest.fixture(scope="module", params=[2, 3])
def system(request):
    return taft_system(request.param)


@pytest.fixture(scope="module")
def sys2():
    return taft_system(2)


def test_double_dimensions(system):
    nB = system.pair.primal.dim
    assert system.double.hopf.dim == nB * nB
    assert system.heis.algebra.dim == nB * nB


def test_double_hopf_axioms_p2(sys2):
    H = sys2.double.hopf
    results = check_hopf_axioms(H, lemma_walk(H, 3), EXHAUSTIVE,
                                EXHAUSTIVE)
    all_pass(results)
    assert {r.name: r.mode for r in results if r.mode != "exhaustive"} == {
        "mult-associativity": "generators"}


def test_double_presentation(system):
    all_pass(double_presentation_check(system))


@pytest.mark.parametrize("change,witness", [
    ("drop k", "1(x)k is not the unit or a declared generator"),
    ("add k^2", "1(x)k^2 is not listed"),
    ("none", None)])
def test_presentation_generation_reads_the_declared_generators(sys2, change,
                                                               witness):
    """The generation line certifies the listed 1, E, k, F, kap through
    D(B)'s declared generators, so it fails once the two lists differ."""
    D = sys2.double.hopf
    gens = list(D.generators)
    if change == "drop k":
        gens.pop()
    elif change == "add k^2":
        gens.append(D.product(gens[-1], gens[-1]))
    H = FiniteHopf(D.ctx, D.space, D.mult, D.unit, D.comult, D.counit,
                   D.antipode, generators=gens, name=D.name)
    D2 = sys2.double
    bad = sys2._replace(double=DrinfeldDouble(D2.ctx, H, D2.base, D2.dual,
                                              D2.pairing))
    res = double_presentation_check(bad)[-1]
    assert (res.name, res.mode, res.cases_checked, res.witness) == (
        "double-presentation-generation", "exhaustive", 256, witness)


def test_dual_monomial_tables(system):
    assert taft_dual_check(system.pair).status == "pass"


def test_double_identity_decomposition(system):
    res = check_double_identity(system.double)
    assert res.status == "pass"


def test_eta_twist_recovers_heisenberg_p2(sys2):
    res = eta_twist_product(sys2.double, sys2.heis, EXHAUSTIVE)
    assert res.status == "pass"
    assert res.cases_checked == 65_536  # all pairs of smash basis vectors


def test_eta_twist_sampled_p3():
    sys3 = taft_system(3)
    res = eta_twist_product(sys3.double, sys3.heis,
                            TupleWalks("sample", 0, 2000))
    assert res.status == "pass"


def test_closed_form_product(system):
    if system.ctx.p == 2:
        res = closed_form_check(system, EXHAUSTIVE)
        assert res.cases_checked == 65_536
    else:
        res = closed_form_check(system, TupleWalks("sample", 0, 100_000))
    assert res.status == "pass"


def _zeta_scaled(sys, i: int, j: int):
    """`sys` with the first entry of H(B*)'s product row (i, j) scaled by
    zeta, and every other row unchanged: a copied table, which no
    twisted-product record describes."""
    Hd = sys.heis
    A = Hd.algebra

    def fn(a: int, b: int):
        row = A.mult.get(a, b)
        if (a, b) != (i, j):
            return row
        (k, c), *rest = row
        return ((k, c * sys.ctx.zeta), *rest)

    bad = FiniteAlgebra(A.ctx, A.space, BilinearMap(A.dim, A.dim, fn=fn),
                        A.unit, generators=A.generators,
                        name="hdouble(zeta-scaled)")
    return sys._replace(heis=HeisenbergDouble(sys.ctx, bad, Hd.base, Hd.dual,
                                              Hd.pairing))


@pytest.mark.parametrize("p,samples", [(2, None), (3, 20_000)])
def test_the_yd_structure_of_hdouble_is_the_braided_products(p, samples):
    """H(B*) = B*cop >< B as YD D(B)-module algebras, not only as algebras
    (`braided-product-is-hdouble`): the action of H(B*), `FactoredAction`,
    and its coaction, D(B)'s coproduct, equal the diagonal action and the
    codiagonal coaction of the braided product of its two factors, on
    every coaction row, and on every action row at p=2 and on a seeded
    sample of them at p=3."""
    sys = taft_system(p)
    y = sys.yd
    bp = heisenberg_chain(sys.yd, 2).yd
    assert bp.hopf is y.hopf and bp.dim == y.dim
    n, d = y.hopf.dim, y.dim
    if samples is None:
        rows = itertools.product(range(n), range(d))
    else:
        rows = (divmod(k, d)
                for k in random.Random(p).sample(range(n * d), samples))
    for h, x in rows:
        assert veq(dict(y.action.row(h, x)), dict(bp.action.row(h, x))), (
            h, x)
    one = sys.ctx.one
    for x in range(d):
        assert veq(y.coaction.apply({x: one}), bp.coaction.apply({x: one})), x


@pytest.mark.parametrize("i,j", [(1, 17), (16, 3), (200, 255)])
def test_a_zeta_scaled_product_entry_fails_each_identity_at_its_pair(
        sys2, i, j):
    """eta-twist and smash-closed-form compare H(B*)'s product with another
    through one comparator, and so does the table walk that
    braided-product-is-hdouble replaced, which stays as its cross-check:
    each fails at the corrupted pair, the first it walks that differs.
    braided-product-is-hdouble itself compares the inputs of the
    twisted-product formula, so it refuses a table that has none."""
    bad = _zeta_scaled(sys2, i, j)
    A = bad.heis.algebra
    assert A.mult.get(i, j) != sys2.heis.algebra.mult.get(i, j)
    B = heisenberg_chain(sys2.yd, 2).yd.algebra
    # each result, with the algebra whose labels its witness shows
    results = {
        "eta-twist": (eta_twist_product(sys2.double, bad.heis, EXHAUSTIVE),
                      A),
        "smash-closed-form": (closed_form_check(bad, EXHAUSTIVE), A),
        "braided-product-is-hdouble": (
            check_product_rows("braided-product-is-hdouble", B,
                               lambda a, b: dict(A.mult.get(a, b)),
                               EXHAUSTIVE, (None, None)), B),
    }
    for name, (res, X) in results.items():
        assert (res.name, res.status, res.mode) == (name, "fail",
                                                    "exhaustive")
        assert res.cases_checked == i * A.dim + j + 1
        assert res.witness.startswith(
            f"products of ({X.space.label(i)}, {X.space.label(j)}) differ: ")
    with pytest.raises(ValueError, match="twisted-product formula"):
        check_same_twist(B, A, "braided-product-is-hdouble")


def test_action_composes_through_double(sys2):
    act = FactoredAction(sys2.heis, sys2.double)
    res = to_show_action_check(sys2.double, act,
                               TupleWalks("generators", 0, 10_000))
    assert res.status == "pass"


def test_quasitriangular_p2(sys2):
    all_pass(check_quasitriangular(sys2.double, EXHAUSTIVE))


@pytest.mark.parametrize("scaled", [False, True],
                         ids=["healthy", "first-r-term-times-zeta"])
def test_both_intertwining_routes_give_the_same_verdict(sys2, monkeypatch,
                                                        scaled):
    """R Delta(x) = Delta-op(x) R on D(B)'s generators, closed by its
    generation certificate, against every basis vector x: both pass on
    the healthy R, and both fail with R's first term times zeta, the
    full walk at its 9th basis vector and the generators at their 2nd."""
    D = sys2.double
    if scaled:
        R = D.rmatrix()
        first = min(R)
        monkeypatch.setattr(D, "_rmatrix",
                            {**R, first: R[first] * D.ctx.zeta})
    full = check_quasitriangular(D, EXHAUSTIVE)[0]
    gens = check_quasitriangular(D, lemma_walk(D.hopf, 1))[0]
    assert (full.name, full.mode, gens.mode) == (
        "r-intertwine", "exhaustive", "generators")
    assert full.status == gens.status == ("fail" if scaled else "pass")
    assert (full.cases_checked, gens.cases_checked) == (
        (9, 2) if scaled else (256, 4))


def test_r_matrix_commutativity_forms(sys2):
    hunt = TupleWalks("generators", 0, 200)
    neg, pos = check_quantum_comm_remarks(sys2.double, sys2.heis, hunt, hunt)
    assert neg.status == "pass"   # counterexample to the naive form exists
    assert "kap#k - 4*Fkap#Ek^7" in neg.witness
    assert pos.status == "pass"   # the corrected form holds


def test_heisenberg_is_braided_commutative(sys2):
    res = check_braided_commutative(sys2.yd, EXHAUSTIVE)
    assert res.status == "pass"
    assert res.cases_checked == 65_536


def test_three_factor_chain_relations(sys2):
    ch3 = heisenberg_chain(sys2.yd, 3)
    assert ch3.yd.algebra.dim == 16 ** 3
    all_pass(chain_relations_check(ch3, sys2.double, prefix="chain3"))


def test_three_factor_chain_not_braided_commutative(sys2):
    ch3 = heisenberg_chain(sys2.yd, 3)
    inner = check_braided_commutative(ch3.yd,
                                      TupleWalks("generators", 0, 200))
    res = invert_expected_failure(inner, "chain3-fails")
    assert res.status == "pass"
    assert "kap >< 1 >< F" in res.witness
    assert "Fkap >< 1 >< 1" in res.witness


def test_named_double_generators(system):
    D = system.double
    els = double_elements(system)
    # kap is grouplike in D and k E = q E k survives into the double
    kapv, kv, Ev = els["kap"], els["k"], els["E"]
    ctx = system.ctx
    lhs = D.hopf.product(kv, Ev)
    rhs = {i: ctx.q * c for i, c in D.hopf.product(Ev, kv).items()}
    assert veq(lhs, rhs)


def _leg_composite(D, side, h, v):
    """The factor actions as composites of D's leg tables:
    (mu (x) m) |> beta = adF(mu)(hit(m) beta) on B*, and
    (mu (x) m) |> b = rhit(mu)(ad(m) b) on B."""
    mu, m = divmod(h, D.base.dim)
    outer, inner = (D.adf, D.hit) if side == 0 else (D.rhit, D.ad)
    out = {}
    for t, c in inner(m, v):
        vadd_into(out, outer(mu, t), c)
    return out


def _projected_coproduct(D, side, v):
    """Delta_D on beta (x) 1 (side 0) or 1 (x) b (side 1), its second leg
    taken back to the factor by the counit of the other factor."""
    nB, d = D.base.dim, D.dim
    base, dual = D.base, D.dual
    embed = (v * nB + min(base.unit) if side == 0
             else min(dual.unit) * nB + v)
    acc = {}
    for key, c in D.hopf.comult.apply({embed: D.ctx.one}).items():
        h, (f, b) = key // d, divmod(key % d, nB)
        y, w = (f, base.counit.get(b)) if side == 0 else (
            b, dual.counit.get(f))
        if w:
            vadd_term(acc, (h, y), c * w)
    return sorted(acc.items())


def test_the_factor_restrictions_are_the_leg_composites(sys2):
    """Every action and coaction row of H(B*)'s structure restricted to
    B* (x) 1 and 1 (x) B is the factor's own, from D's leg tables and
    coproduct."""
    D = sys2.double
    for side, f in enumerate(factor_structures(sys2.yd)):
        for h in range(D.hopf.dim):
            for v in range(f.dim):
                assert veq(dict(f.action.row(h, v)),
                           _leg_composite(D, side, h, v))
        for v in range(f.dim):
            assert [((h, y), c) for h, y, c in f.coaction.terms(v)] == (
                _projected_coproduct(D, side, v))
    assert [(r.name, r.status, r.mode, r.cases_checked)
            for r in check_factor_restrictions(sys2.yd)] == [
        ("dual-factor-braided-commutative", "pass", "generators", 7 * 16),
        ("base-factor-braided-commutative", "pass", "generators", 7 * 16)]


def _pushed_out(sys, x):
    """sys with the row of D(B)'s first generator on the basis vector x
    of H(B*) given zeta times a basis vector in neither factor."""
    X, H = sys.yd.algebra, sys.yd.hopf
    left, right = X.twist.factor_indices()
    g = min(gen_indices(H))
    odd = next(i for i in range(X.dim) if i not in left + right)
    real = sys.yd.action.row

    def fn(h, y):
        row = dict(real(h, y))
        if (h, y) == (g, x):
            vadd_term(row, odd, sys.ctx.zeta)
        return row

    return sys._replace(yd=sys.yd._replace(action=Action(H, X, fn)))


@pytest.mark.parametrize("where,failed", [
    ("unit", ("dual", "base")), ("dual-vector", ("dual",))])
def test_a_factor_row_pushed_out_fails_the_factor_laws(monkeypatch, capsys,
                                                       sys2, where, failed):
    """A row of H(B*)'s action on a factor vector pushed out of B* (x) 1
    fails the restriction certificate of each factor that holds the
    vector, and with it both corollaries; the lines that read the factors
    skip naming it, the run exits 1, and the factor's action refuses to
    read the row."""
    left, _ = sys2.heis.algebra.twist.factor_indices()
    x = min(sys2.heis.algebra.unit) if where == "unit" else left[1]
    bad = _pushed_out(sys2, x)
    monkeypatch.setattr(report_module, "taft_system", lambda p: bad)
    lines = {r.name: r for r in run_suite(SuiteConfig(
        p=2, suite="heisenberg,chains")).results}
    cert = f"{failed[0]}-factor-braided-commutative"
    for law in ("dual-factor-braided-commutative",
                "base-factor-braided-commutative"):
        r = lines[f"heisenberg.{law}.p2"]
        assert r.status == ("fail" if law.split("-")[0] in failed
                            else "pass")
    witness = lines[f"heisenberg.{cert}.p2"].witness
    assert witness.endswith("has the leg kap#k outside B*(p=2)(cop)")
    for law in ("braided-symmetric", "locked-identity"):
        assert (lines[f"heisenberg.{law}.p2"].status,
                lines[f"heisenberg.{law}.p2"].witness) == (
            "fail", f"rests on {cert} (fail): {witness}")
    assert {name for name, r in lines.items() if r.status == "fail"} == {
        *(f"{suite}.{side}-factor-braided-commutative.p2"
          for suite in ("heisenberg", "chains") for side in failed),
        "heisenberg.braided-symmetric.p2", "heisenberg.locked-identity.p2"}
    assert {name: r.mode for name, r in lines.items()
            if r.status == "skipped"} == dict.fromkeys((
        *(f"heisenberg.{law}.p2" for law in (
            "braided-product-is-hdouble", "factor-embedding",
            "flip-bijective", "flip-algebra-morphism",
            "flip-module-morphism", "flip-comodule-morphism")),
        *(f"chains.full-chain3-{law}.p2" for law in (
            "relations", "braided-commutativity-fails", "embedding"))),
        f"needs the factor structures; {cert} failed")
    assert main(["verify", "--p", "2", "--suite", "heisenberg,chains"]) == 1
    capsys.readouterr()
    dual_yd, _ = factor_structures(bad.yd)
    with pytest.raises(ValueError, match=r"\|> .* has the leg .* outside"):
        dual_yd.action.row(min(gen_indices(bad.yd.hopf)), left.index(x))
