"""Acceptance gate: one test per shipped guarantee, exact equality only.

Each test is a single pass/fail line under `pytest -v`.  Everything is
checked over the exact cyclotomic field — there are no tolerances
anywhere; the few wall-clock budgets are asserted explicitly.
"""

from __future__ import annotations

import json
import time

import pytest

from hopfbench.cli import main
from hopfbench.doubles import (FactoredAction, chain_relations_check,
                               check_quantum_comm_remarks,
                               check_quasitriangular, eta_twist_product,
                               factor_structures, heisenberg_chain,
                               to_show_action_check)
from hopfbench.hopf import check_hopf_axioms
from hopfbench.mutations import mutation_suite
from hopfbench.report import SuiteConfig, render, run_suite
from hopfbench.results import invert_expected_failure
from hopfbench.taft import (chain_heisenberg_checks, closed_form_check,
                            cqzd, cqzd_center_check, double_presentation_check,
                            h2_matches_cqzd_check, hq_action_table_check,
                            hq_coaction_table_check, hqsl2, taft_system,
                            truly_heisenberg_chain, uq_presentation_check,
                            uqsl2)
from hopfbench.ydcat import (check_braided_commutative,
                             check_braided_symmetric, check_locked_identity,
                             check_module_algebra, check_yd, flip_isomorphism)


def all_pass(results):
    bad = [r.line() for r in results if r.status == "fail"]
    assert not bad, "\n".join(bad)


@pytest.fixture(scope="module")
def sys2():
    return taft_system(2)


@pytest.fixture(scope="module")
def sys3():
    return taft_system(3)


def test_01_hopf_axioms_exhaustive_under_a_minute(sys2):
    t0 = time.perf_counter()
    all_pass(check_hopf_axioms(sys2.pair.primal, mode="exhaustive"))
    all_pass(check_hopf_axioms(sys2.double.hopf, mode="exhaustive"))
    assert time.perf_counter() - t0 < 60.0


def test_02_double_presentation_both_p(sys2, sys3):
    all_pass(double_presentation_check(sys2))
    all_pass(double_presentation_check(sys3))


def test_03_eta_twist_equals_smash_under_two_minutes(sys2):
    t0 = time.perf_counter()
    res = eta_twist_product(sys2.double, sys2.heis, mode="exhaustive")
    assert res.status == "pass"
    assert res.cases_checked == 256 * 256
    assert time.perf_counter() - t0 < 120.0


def test_04_closed_form_matches_smash_oracle(sys2, sys3):
    res2 = closed_form_check(sys2, mode="exhaustive")
    assert res2.status == "pass" and res2.cases_checked == 256 * 256
    res3 = closed_form_check(sys3, mode="sample", seed=0, samples=100_000)
    assert res3.status == "pass" and res3.cases_checked == 100_000


def test_05_action_well_defined_and_module_algebra(sys2):
    act = FactoredAction(sys2.heis, sys2.double)
    res = to_show_action_check(sys2.double, act, mode="generators",
                               seed=0, samples=10_000)
    assert res.status == "pass"
    ma = check_module_algebra(sys2.yd, mode="generators", seed=0,
                              samples=10_000)
    assert ma.status == "pass"


def test_06_yd_condition_and_braided_commutativity_under_ten_minutes(sys2):
    t0 = time.perf_counter()
    yd = check_yd(sys2.yd, mode="generators", seed=0, samples=10_000)
    assert yd.status == "pass"
    bc = check_braided_commutative(sys2.yd, mode="exhaustive")
    assert bc.status == "pass"
    assert bc.cases_checked == 256 * 256
    assert time.perf_counter() - t0 < 600.0


def test_07_braided_product_reconstructs_heisenberg_double(sys2):
    dual_yd, base_yd = factor_structures(sys2.double)
    for mod in (dual_yd, base_yd):
        assert check_braided_commutative(mod,
                                         mode="exhaustive").status == "pass"
    assert check_braided_symmetric(dual_yd, base_yd,
                                   mode="exhaustive").status == "pass"

    bp = heisenberg_chain(sys2.pair.primal, 2, leftmost="dual",
                          D=sys2.double)
    A, B = bp.yd.algebra, sys2.heis.algebra
    assert A.dim == B.dim
    for i in range(A.dim):
        for j in range(A.dim):
            assert dict(A.mult.get(i, j)) == dict(B.mult.get(i, j))

    _, flips = flip_isomorphism(dual_yd, base_yd, mode="exhaustive")
    assert len(flips) == 4
    all_pass(flips)


def test_08_locked_identity_and_chain_counterexample(sys2):
    dual_yd, base_yd = factor_structures(sys2.double)
    locked = check_locked_identity(dual_yd, base_yd, mode="exhaustive")
    assert locked.status == "pass"
    assert locked.cases_checked == 16 * 16

    ch3 = heisenberg_chain(sys2.pair.primal, 3, leftmost="dual",
                           D=sys2.double)
    all_pass(chain_relations_check(ch3, sys2.double, prefix="chain3"))
    inner = check_braided_commutative(ch3.yd, mode="generators", seed=0,
                                      samples=200)
    res = invert_expected_failure(inner, "chain3-counterexample")
    assert res.status == "pass"
    assert inner.witness is not None


def test_09_truncation_dimensions_and_certificates():
    for p, dim in ((2, 16), (3, 54)):
        uq = uqsl2(p)
        assert uq.hopf.dim == 2 * p ** 3 == dim
        all_pass(uq.checks)
        all_pass(uq_presentation_check(uq))
        hq = hqsl2(p)
        assert hq.algebra.dim == 2 * p ** 3
        all_pass(hq.checks)


def test_10_truncated_tables_match_closed_forms():
    for p in (2, 3):
        hq = hqsl2(p)
        assert hq_action_table_check(hq).status == "pass"
        assert hq_coaction_table_check(hq).status == "pass"
    bc = check_braided_commutative(hqsl2(2).yd, mode="exhaustive")
    assert bc.status == "pass"
    assert bc.cases_checked == 16 * 16


def test_11_chains_weyl_algebra_and_center():
    for n in range(1, 5):
        assert truly_heisenberg_chain(2, n).algebra.dim == 2 ** n
    ch4 = truly_heisenberg_chain(2, 4)
    all_pass(chain_heisenberg_checks(ch4, prefix="chain4"))
    assert h2_matches_cqzd_check(truly_heisenberg_chain(2, 2)).status == "pass"
    for p in (2, 3):
        assert cqzd_center_check(cqzd(p)).status == "pass"


def test_12_r_matrix_remarks(sys2):
    neg, pos = check_quantum_comm_remarks(sys2.double, sys2.heis,
                                          mode="generators", seed=0,
                                          samples=200)
    assert pos.status == "pass"          # restated inverse-R form holds
    assert neg.status == "pass"          # naive form refuted with witness
    assert neg.witness is not None
    all_pass(check_quasitriangular(sys2.double))


def test_13_mutations_all_caught_and_exit_code_one():
    suite = mutation_suite(2)
    assert len(suite) >= 6
    for res in suite:
        assert res.status == "fail"
        assert res.witness
    assert main(["verify", "--p", "2", "--suite", "mutations"]) == 1


def test_14_reports_byte_identical():
    cfg = dict(p=2, suite="yd", seed=11, sample_size=500, mode="generators")
    a = render(run_suite(SuiteConfig(**cfg)), "json")
    b = render(run_suite(SuiteConfig(**cfg)), "json")
    assert a == b
    parsed = json.loads(a)
    assert parsed["schema_version"] == 1
