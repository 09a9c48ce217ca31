"""Tests for the truncated quantum group, its Heisenberg counterpart,
the q-Weyl algebra, and the alternating z/del chains."""

from __future__ import annotations

import pytest

import hopfbench.taft as taft_module
from hopfbench.cli import main
from hopfbench.report import SuiteConfig, run_suite
from hopfbench.results import (CheckResult, TupleWalks,
                               invert_expected_failure, lemma_walk)
from hopfbench.sparse import veq
from hopfbench.taft import (basis_change, chain_heisenberg_checks, cqzd,
                            cqzd_center_check, double_elements,
                            h2_matches_cqzd_check, heis_elements,
                            hq_action_table_check, hq_coaction_table_check,
                            hq_factorization_check, hq_transport, hqsl2,
                            taft_system, truly_heisenberg_chain, uq_elements,
                            uq_presentation_check, uqsl2)
from hopfbench.hopf import FiniteAlgebra, FiniteHopf
from hopfbench.sparse import BilinearMap
from hopfbench.truncate import sub_hopf, transport_corollaries
from hopfbench.ydcat import (Action, check_braided_commutative,
                             check_comodule, check_comodule_algebra,
                             check_module, check_module_algebra, check_yd)


EXHAUSTIVE = TupleWalks("exhaustive", 0, 0)


def all_pass(checks):
    bad = [c.line() for c in checks if c.status != "pass"]
    assert not bad, "\n".join(bad)


# ---------------------------------------------------------------- Uq


@pytest.mark.parametrize("p,dim,gen_cases,closure_cases",
                         [(2, 16, 7, 273), (3, 54, 7, 2971)])
def test_uq_dimension_and_certificates(p, dim, gen_cases, closure_cases):
    """The closure of the even span S, |S| = 2p^3, walks S g for its three
    generators, one span-closure case and the coproduct and antipode of
    S, after the unit: 2 + 8p^3 cases.  The walk of every product of S,
    without generators, counts `closure_cases` = 1 + |S|^2 + |S|, with
    the same verdict."""
    uq = uqsl2(p)
    assert uq.hopf.dim == 2 * p ** 3
    assert uq.hopf.dim == dim
    assert uq.dbar.dim == 4 * p ** 3
    by_name = {c.name: c for c in uq.checks}
    assert by_name["uq-ideal-hopf"].status == "pass"
    assert by_name["uq-ideal-hopf"].mode == "generators"
    assert by_name["uq-ideal-hopf"].cases_checked == gen_cases
    closure = by_name[f"Uq(p={p})-closure"]
    assert (closure.status, closure.mode, closure.cases_checked) == (
        "pass", "generators", 2 + 8 * p ** 3)
    every = sub_hopf(uq.dbar, uq.sub.indices).check
    assert (every.status, every.mode, every.cases_checked) == (
        "pass", "exhaustive", closure_cases)
    assert closure_cases == 1 + dim ** 2 + dim


@pytest.mark.parametrize("p,rows", [(2, 602), (3, 2_872)])
def test_uq_reads_few_product_rows_of_the_double(p, rows):
    """Certified from its central generator, the ideal leaves fewer rows
    of D(B)'s product memoized than the check on every basis row of the
    ideal did (3,224 at p=2 and 18,264 at p=3); the generation certificate
    of D(B), taken from its factors, reads fewer than its span closure
    did (1,801 and 10,729 in all), and it reads R and the factor tables,
    not D(B)'s products (1,331 and 8,229 when it read those).  The
    closure of the even span walks S g for the generators g, not S S
    (794 and 5,572 rows when it walked every product)."""
    uq = uqsl2(p, cached=False)
    assert len(uq.system.double.hopf.mult.rows) == rows


@pytest.mark.parametrize("p,gen_cases", [(2, 16), (3, 54)])
def test_uq_presentation(p, gen_cases):
    uq = uqsl2(p)
    checks = uq_presentation_check(uq)
    all_pass(checks)
    by_name = {c.name: c for c in checks}
    assert by_name["uq-presentation-relations"].cases_checked == 7
    assert by_name["uq-presentation-generation"].cases_checked == gen_cases
    assert by_name["uq-presentation-coalgebra"].cases_checked == 9


def test_uq_commutation_relation():
    """K E K^{-1} = q^2 E inside the quotient."""
    uq = uqsl2(3)
    U = uq.hopf
    els = uq_elements(uq)
    lhs = U.product(U.product(els["K"], els["E"]), els["Kinv"])
    rhs = {i: uq.ctx.q_pow(2) * c for i, c in els["E"].items()}
    assert veq(lhs, rhs)


# ------------------------------------------------- PBW basis of H(B*)


@pytest.mark.parametrize("p", [2, 3])
def test_heisenberg_pbw_basis(p):
    sys = taft_system(p)
    by_name = {c.name: c for c in basis_change(sys)}
    assert by_name["heis-basis-relations"].status == "pass"
    assert by_name["heis-basis-relations"].cases_checked == 11
    assert by_name["heis-basis-lambda-order"].status == "pass"
    assert by_name["heis-basis-bijective"].cases_checked == sys.heis.algebra.dim


def test_lambda_eighth_power_is_minus_one():
    """lam^(4p) = -1 in H(B*), so lam has multiplicative order 8p."""
    sys = taft_system(2)
    A = sys.heis.algebra
    lam = heis_elements(sys)["lam"]
    v = dict(A.unit)
    for _ in range(8):
        v = A.product(v, lam)
    assert veq(v, {k: -c for k, c in dict(A.unit).items()})


# ---------------------------------------------------------------- Hq


@pytest.mark.parametrize("p,sub_cases,act_cases,ideal_cases,descent_cases",
                         [(2, 128, 128, 64, 32),
                          (3, 432, 432, 216, 108)])
def test_hq_transport_certificates(p, sub_cases, act_cases, ideal_cases,
                                   descent_cases):
    hq = hqsl2(p)
    assert hq.algebra.dim == 2 * p ** 3
    all_pass(hq.checks)
    by_name = {c.name: c for c in hq.checks}
    assert set(by_name) == {
        "hq-transport-sub-closure", "hq-transport-action-stable",
        "hq-transport-ideal-stable", "hq-transport-coaction-corestricts",
        "hq-transport-descent-0", "hq-lambda-power"}
    assert by_name["hq-transport-sub-closure"].mode == "generators"
    assert by_name["hq-transport-sub-closure"].cases_checked == sub_cases
    assert by_name["hq-transport-action-stable"].cases_checked == act_cases
    assert by_name["hq-transport-ideal-stable"].cases_checked == ideal_cases
    assert by_name["hq-transport-descent-0"].cases_checked == descent_cases


@pytest.mark.parametrize("p,act_rows,coact_rows", [(2, 24, 8), (3, 36, 12)])
def test_hq_structure_tables(p, act_rows, coact_rows):
    hq = hqsl2(p)
    act = hq_action_table_check(hq)
    assert act.status == "pass"
    assert act.cases_checked == act_rows
    coact = hq_coaction_table_check(hq)
    assert coact.status == "pass"
    assert coact.cases_checked == coact_rows


# cases of hq-factorization before its pairs: the triple lemma and the
# unit laws of lam (2p-dim, one generator) and CqZd (p^2-dim, two), then
# the pairs (1, y) of the 2p^3-dim T
def _factorization_head(p):
    return (2 * p * 2 * p + 2 * 2 * p) + (2 * p ** 4 + 2 * p ** 2) \
        + 2 * p ** 3


@pytest.mark.parametrize("p,cases", [(2, 256), (3, 2916)])
def test_hq_factorization(p, cases):
    """The lemma walk reads the three generators of T against its basis;
    the walk of every one of the `cases` pairs gives the same verdict."""
    hq = hqsl2(p)
    res = hq_factorization_check(hq, lemma_walk(hq.algebra))
    assert (res.status, res.mode) == ("pass", "generators")
    assert res.cases_checked == _factorization_head(p) + 3 * 2 * p ** 3
    assert res.cases_checked == 2 * p ** 4 + 8 * p ** 3 + 6 * p ** 2 + 4 * p
    every = hq_factorization_check(hq, EXHAUSTIVE)
    assert (every.status, every.mode) == ("pass", "exhaustive")
    assert every.cases_checked == _factorization_head(p) + cases
    assert cases == (2 * p ** 3) ** 2


def test_hq_is_yd_module_algebra():
    """The exhaustive cross-check of the four laws that the truncations
    suite reads off the transport certificates."""
    hq = hqsl2(2)
    results = [
        check_module(hq.yd, EXHAUSTIVE),
        check_module_algebra(hq.yd, EXHAUSTIVE),
        check_comodule(hq.yd),
        check_comodule_algebra(hq.yd, lemma_walk(hq.yd.algebra)),
        check_yd(hq.yd, EXHAUSTIVE),
        check_braided_commutative(hq.yd, EXHAUSTIVE),
    ]
    all_pass(results)
    assert [r.cases_checked for r in results] == [
        4112, 4112, 32, 49, 256, 256]


COROLLARIES = ("module-action", "module-algebra", "yd-condition",
               "braided-commutative")


def _truncation_lines(rep) -> dict:
    return {r.name.split(".")[1]: r for r in rep.results
            if r.name.split(".")[1] in COROLLARIES}


@pytest.mark.parametrize("p", [2, 3])
def test_the_transported_laws_are_corollaries(p):
    """At every p the four laws read the certificates of u_q(sl_2) (2),
    quotient-morphism (1) and the transport (5), one case each."""
    rep = run_suite(SuiteConfig(p=p, suite="truncations", sample_size=50))
    lines = _truncation_lines(rep)
    assert sorted(lines) == sorted(COROLLARIES)
    assert {(r.status, r.mode, r.cases_checked, r.witness)
            for r in lines.values()} == {("pass", "generators", 8, None)}


def test_corollaries_fail_at_the_first_certificate_that_did_not_pass():
    ok = CheckResult("a", "pass", "exhaustive", 3)
    bad = CheckResult("b", "fail", "exhaustive", 1, "it broke")
    skipped = CheckResult("c", "skipped", "run with p=2")
    assert [(r.name, r.status, r.cases_checked, r.witness)
            for r in transport_corollaries([ok, bad, skipped])] == [
        (law, "fail", 2, "rests on b (fail): it broke") for law in COROLLARIES]
    assert {r.witness for r in transport_corollaries([ok, skipped])} == {
        "rests on c (skipped): None"}


def _descent_breaking_source(uq):
    """H(B*)'s YD structure with the row of kap k on 1 # 1 times zeta:
    kap k, which the truncation identifies with 1, then moves the unit of
    the subalgebra, and the descent certificate fails."""
    y = uq.system.yd
    D = uq.system.double.hopf
    g = double_elements(uq.system)
    (h,) = D.product(g["kap"], g["k"])
    (x,) = y.algebra.unit
    row = y.action.row(h, x)
    bad = ((row[0][0], row[0][1] * D.ctx.zeta),) + row[1:]
    return y._replace(action=Action(y.hopf, y.algebra, lambda i, j: dict(
        bad if (i, j) == (h, x) else y.action.row(i, j))))


def test_a_failed_transport_certificate_fails_every_corollary(monkeypatch,
                                                              capsys):
    """`hqsl2` on a source action corrupted by zeta keeps the failed
    certificates as its checks: the four laws fail, naming the descent
    certificate, the lines on the transported structure skip, the run
    exits 1, and the structure itself is refused."""
    transport = taft_module.hq_transport
    monkeypatch.setattr(taft_module, "hq_transport", lambda uq, source:
                        transport(uq, _descent_breaking_source(uq)))
    monkeypatch.setattr(taft_module, "_HQ_CACHE", {})
    hq = hqsl2(2)
    assert [c.name for c in hq.checks if not c.ok] == ["hq-transport-descent-0"]
    assert hq.checks == hq.transport.certificates
    with pytest.raises(RuntimeError, match="transport failed: FAIL  "
                                           "hq-transport-descent-0"):
        hq.yd
    rep = run_suite(SuiteConfig(p=2, suite="truncations"))
    lines = {r.name.split(".")[1]: r for r in rep.results}
    for name in COROLLARIES:
        r = lines[name]
        assert (r.status, r.mode) == ("fail", "generators")
        assert r.witness.startswith("rests on hq-transport-descent-0 (fail): "
                                    "central element #0 does not act")
    skipped = {name: r.mode for name, r in lines.items()
               if r.status == "skipped"}
    assert skipped == dict.fromkeys(
        ("hq-lambda-power", "hq-dimension", "hq-action-table",
         "hq-coaction-table", "hq-factorization", "comodule-coaction",
         "comodule-algebra"),
        "needs the transported structure; hq-transport-descent-0 failed")
    assert main(["verify", "--p", "2", "--suite", "truncations"]) == 1
    assert main(["export", "--p", "2", "hqsl2"]) == 3
    assert "hq-transport-descent-0" in capsys.readouterr().err


def _drop_uq_generator_k(monkeypatch):
    real = taft_module.sub_hopf
    monkeypatch.setattr(taft_module, "sub_hopf", lambda H, idx, generators,
                        name: real(H, idx, generators=generators[:2],
                                   name=name))


def test_a_failed_uq_closure_fails_every_corollary(monkeypatch, capsys):
    """`uqsl2` with a generator list that does not span the even span
    keeps its failed closure certificate as a check, with no Hopf
    algebra: the four laws fail, naming it, the lines on u_q(sl_2) skip,
    and the run exits 1 instead of crashing."""
    _drop_uq_generator_k(monkeypatch)
    monkeypatch.setattr(taft_module, "_UQ_CACHE", {})
    monkeypatch.setattr(taft_module, "_HQ_CACHE", {})
    uq = uqsl2(2)
    assert uq.hopf is None
    assert [(c.name, c.status) for c in uq.checks] == [
        ("uq-ideal-hopf", "pass"), ("Uq(p=2)-closure", "fail")]
    witness = uq.checks[1].witness
    assert witness.startswith("the unit and the generators span rank ")
    rep = run_suite(SuiteConfig(p=2, suite="truncations"))
    lines = {r.name.split(".")[1]: r for r in rep.results}
    for name in COROLLARIES:
        assert (lines[name].status, lines[name].witness) == (
            "fail", f"rests on Uq(p=2)-closure (fail): {witness}")
    assert lines["quotient-morphism"].status == "pass"
    skipped = {name: r.mode for name, r in lines.items()
               if r.status == "skipped"}
    assert skipped == dict.fromkeys(
        ("uq-presentation-relations", "uq-presentation-coalgebra",
         "uq-presentation-generation", "uq-dimension", "hq-lambda-power",
         "hq-dimension", "hq-action-table", "hq-coaction-table",
         "hq-factorization", "comodule-coaction", "comodule-algebra"),
        "needs u_q(sl_2); Uq(p=2)-closure failed")
    assert main(["verify", "--p", "2", "--suite", "truncations"]) == 1
    capsys.readouterr()


def _break_z_factor_descent(monkeypatch):
    real = taft_module.transport_action
    monkeypatch.setattr(taft_module, "transport_action", lambda source, *a,
                        prefix, **kw: real(
                            _descent_breaking_source(taft_module.uqsl2(2))
                            if prefix == "z-factor" else source,
                            *a, prefix=prefix, **kw))


@pytest.mark.parametrize("corrupt,bad", [
    (_drop_uq_generator_k, "Uq(p=2)-closure"),
    (_break_z_factor_descent, "z-factor-descent-0")],
    ids=["uq-closure", "z-factor-descent"])
def test_a_failed_zdel_certificate_skips_the_zdel_lines(monkeypatch, capsys,
                                                        corrupt, bad):
    """With no u_q(sl_2), or a failed factor transport, the chains suite
    reports the failed certificate, skips the lines on the z/del chains
    naming it, runs the rest as in a healthy run, and exits 1; the
    export of a z/del chain is refused, naming it."""
    healthy = {r.name: r.to_dict() for r in
               run_suite(SuiteConfig(p=2, suite="chains")).results}
    corrupt(monkeypatch)
    for cache in ("_UQ_CACHE", "_HQ_CACHE", "_FACTOR_CACHE"):
        monkeypatch.setattr(taft_module, cache, {})
    lines = {r.name: r for r in
             run_suite(SuiteConfig(p=2, suite="chains")).results}
    assert [name for name, r in lines.items() if r.status == "fail"] == [
        f"chains.{bad}.p2"]
    zdel = {name for name in healthy
            if name.startswith(("chains.zdel-", "chains.h2-weyl"))}
    assert len(zdel) == 13
    assert {name: r.mode for name, r in lines.items()
            if r.status == "skipped"} == dict.fromkeys(
        zdel, f"needs the z/del factors; {bad} failed")
    assert {name: r.to_dict() for name, r in lines.items()
            if name not in zdel and r.status != "fail"} == {
        name: r for name, r in healthy.items() if name not in zdel}
    assert main(["verify", "--p", "2", "--suite", "chains"]) == 1
    assert main(["export", "--p", "2", "chain(3)"]) == 3
    assert f"the z/del factors need FAIL  {bad}" in capsys.readouterr().err


def _pushed_out(dbar, pair, odd):
    """dbar with the product of the basis pair `pair` given a term on the
    basis vector `odd`."""
    row = dbar.mult.get(*pair) + ((odd, dbar.ctx.one),)
    mult = BilinearMap(dbar.dim, dbar.dim, fn=lambda i, j: (
        row if (i, j) == pair else dbar.mult.get(i, j)))
    return FiniteHopf(dbar.ctx, dbar.space, mult, dbar.unit, dbar.comult,
                      dbar.counit, dbar.antipode,
                      generators=dbar.generators, name=dbar.name)


def test_a_dbar_product_pushed_out_of_the_even_span_fails_the_closure():
    """E K^2 pushed onto an odd k-power: the generator walk of the even
    span S fails at that product, as the walk of every product of S
    does."""
    uq = uqsl2(2)
    dbar, even = uq.dbar, uq.sub.indices
    idx = dbar.space.index
    gens = [idx[(0, 1, 0)], idx[(1, 0, 0)], idx[(0, 0, 2)]]
    pair, odd = (idx[(0, 1, 2)], idx[(0, 0, 2)]), idx[(0, 0, 1)]
    bad = _pushed_out(dbar, pair, odd)
    lemma = sub_hopf(bad, even, generators=gens, name="Uq(p=2)").check
    every = sub_hopf(bad, even, name="Uq(p=2)").check
    want = f"product {dbar.space.label(pair[0])} * " \
        f"{dbar.space.label(pair[1])} escapes at {dbar.space.label(odd)}"
    assert (lemma.name, lemma.status, lemma.witness) == (
        "Uq(p=2)-closure", "fail", want)
    assert (every.status, every.witness) == ("fail", want)


def test_a_scaled_truncation_product_fails_both_factorization_walks():
    """del times lam^3 z scaled by zeta in T: the lemma walk, which reads
    the generators of T against its basis, and the walk of every pair
    both fail there."""
    hq = hqsl2(2)
    T = hq.algebra
    idx = T.space.index
    pair = (idx[(0, 0, 1)], idx[(3, 1, 0)])
    row = tuple((k, c * T.ctx.zeta) for k, c in T.mult.get(*pair))
    assert row
    mult = BilinearMap(T.dim, T.dim, fn=lambda i, j: (
        row if (i, j) == pair else T.mult.get(i, j)))
    bad = hq._replace(transport=hq.transport._replace(
        yd=hq.yd._replace(algebra=FiniteAlgebra(
            T.ctx, T.space, mult, T.unit, generators=T.generators,
            name=T.name))))
    lemma = hq_factorization_check(bad, lemma_walk(bad.algebra))
    every = hq_factorization_check(bad, EXHAUSTIVE)
    assert lemma.status == every.status == "fail"
    assert lemma.witness == every.witness
    assert lemma.witness.startswith("products of (del, lam^3 z) differ")


def test_hq_relations():
    """del z - q^{-2} z del = q - q^{-1}, and lam is central."""
    hq = hqsl2(3)
    ctx = hq.ctx
    A = hq.algebra
    idx = {lab: i for i, lab in enumerate(A.space.labels)}
    lam, z, dl = [{idx[lab]: ctx.one}
                  for lab in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]
    lhs = A.product(dl, z)
    qm2 = ctx.q_pow(-2)
    rhs = {k: qm2 * c for k, c in A.product(z, dl).items()}
    delta = {}
    for k, c in lhs.items():
        delta[k] = delta.get(k, ctx.zero) + c
    for k, c in rhs.items():
        delta[k] = delta.get(k, ctx.zero) - c
    delta = {k: c for k, c in delta.items() if c}
    scale = ctx.q - ctx.q_inv
    assert veq(delta, {k: scale * c for k, c in dict(A.unit).items()})
    # lam commutes with both z and del (it is central in the truncation)
    assert veq(A.product(lam, z), A.product(z, lam))
    assert veq(A.product(lam, dl), A.product(dl, lam))


# ------------------------------------------------------------- chains


def test_cqzd_relation_p2():
    w = cqzd(2)
    labels = list(w.space.labels)
    i_del, i_z = labels.index((0, 1)), labels.index((1, 0))
    row = dict(w.mult.get(i_del, i_z))
    ctx = w.ctx
    two_q = ctx.rational(2) * ctx.q
    assert veq(row, {labels.index((0, 0)): two_q,
                     labels.index((1, 1)): -ctx.one})


def test_cqzd_relation_p3():
    w = cqzd(3)
    labels = list(w.space.labels)
    i_del, i_z = labels.index((0, 1)), labels.index((1, 0))
    row = dict(w.mult.get(i_del, i_z))
    ctx = w.ctx
    const = ctx.q - ctx.q_inv                 # = -1 + 2q at p = 3
    assert veq(row, {labels.index((0, 0)): const,
                     labels.index((1, 1)): -ctx.q})


@pytest.mark.parametrize("p,cases", [(2, 4), (3, 9)])
def test_cqzd_center_is_trivial(p, cases):
    res = cqzd_center_check(cqzd(p))
    assert res.status == "pass"
    assert res.cases_checked == cases


@pytest.mark.parametrize("p", [2, 3])
def test_chain_dimensions(p):
    for n in range(1, 5):
        ch = truly_heisenberg_chain(p, n)
        assert ch.algebra.dim == p ** n


def test_chain_relation_families():
    ch = truly_heisenberg_chain(2, 4)
    checks = chain_heisenberg_checks(ch, prefix="zdel-chain4")
    all_pass(checks)
    assert {c.name for c in checks} == {
        "zdel-chain4-mixed", "zdel-chain4-z-straighten",
        "zdel-chain4-del-straighten", "zdel-chain4-nilpotent"}


@pytest.mark.parametrize("p,cases", [(2, 20), (3, 90)])
def test_h2_is_weyl_algebra(p, cases):
    """The two-step chain is isomorphic to the q-deformed polynomial
    Weyl algebra on one variable."""
    res = h2_matches_cqzd_check(truly_heisenberg_chain(p, 2))
    assert res.status == "pass"
    assert res.cases_checked == cases


def test_chain3_braided_commutativity_is_nilpotency_artifact():
    """At p=2 the three-step chain is braided-commutative only because
    squares vanish; at p=3 the like-type factors two positions apart
    give a genuine counterexample."""
    ch2 = truly_heisenberg_chain(2, 3)
    res2 = check_braided_commutative(ch2.yd, EXHAUSTIVE)
    assert res2.status == "pass"
    assert res2.cases_checked == 64

    ch3 = truly_heisenberg_chain(3, 3)
    res3 = check_braided_commutative(ch3.yd,
                                     TupleWalks("generators", 0, 200))
    inv = invert_expected_failure(res3, "chain3-fails-p3")
    assert inv.status == "pass"
    assert res3.witness is not None
    assert "del" in res3.witness
