"""Tests for the two double constructions and their interaction."""

from __future__ import annotations

import pytest

from hopfbench.doubles import (
    check_double_identity, check_quantum_comm_remarks, check_quasitriangular,
    chain_relations_check, eta_twist_product, FactoredAction,
    heisenberg_chain, to_show_action_check,
)
from hopfbench.hopf import check_hopf_axioms
from hopfbench.results import invert_expected_failure
from hopfbench.sparse import veq
from hopfbench.taft import (
    closed_form_check, double_elements, double_presentation_check,
    taft_dual_check, taft_system,
)
from hopfbench.ydcat import check_braided_commutative


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
    results = check_hopf_axioms(sys2.double.hopf, mode="exhaustive")
    all_pass(results)
    assert all(r.mode == "exhaustive" for r in results)


def test_double_presentation(system):
    all_pass(double_presentation_check(system))


def test_dual_monomial_tables(system):
    assert taft_dual_check(system.pair).status == "pass"


def test_double_identity_decomposition(system):
    res = check_double_identity(system.double)
    assert res.status == "pass"


def test_eta_twist_recovers_heisenberg_p2(sys2):
    res = eta_twist_product(sys2.double, sys2.heis, mode="exhaustive")
    assert res.status == "pass"
    assert res.cases_checked == 65_536  # all pairs of smash basis vectors


def test_eta_twist_sampled_p3():
    sys3 = taft_system(3)
    res = eta_twist_product(sys3.double, sys3.heis, mode="sample",
                            seed=0, samples=2000)
    assert res.status == "pass"


def test_closed_form_product(system):
    if system.ctx.p == 2:
        res = closed_form_check(system, mode="exhaustive")
        assert res.cases_checked == 65_536
    else:
        res = closed_form_check(system, mode="sample", samples=100_000)
    assert res.status == "pass"


def test_action_composes_through_double(sys2):
    act = FactoredAction(sys2.heis, sys2.double)
    res = to_show_action_check(sys2.double, act, mode="generators")
    assert res.status == "pass"


def test_quasitriangular_p2(sys2):
    all_pass(check_quasitriangular(sys2.double))


def test_r_matrix_commutativity_forms(sys2):
    neg, pos = check_quantum_comm_remarks(sys2.double, sys2.heis,
                                          mode="generators")
    assert neg.status == "pass"   # counterexample to the naive form exists
    assert "kap#k - 4*Fkap#Ek^7" in neg.witness
    assert pos.status == "pass"   # the corrected form holds


def test_heisenberg_is_braided_commutative(sys2):
    res = check_braided_commutative(sys2.yd, mode="exhaustive")
    assert res.status == "pass"
    assert res.cases_checked == 65_536


def test_three_factor_chain_relations(sys2):
    ch3 = heisenberg_chain(sys2.pair.primal, 3, leftmost="dual",
                           D=sys2.double)
    assert ch3.yd.algebra.dim == 16 ** 3
    all_pass(chain_relations_check(ch3, sys2.double, prefix="chain3"))


def test_three_factor_chain_not_braided_commutative(sys2):
    ch3 = heisenberg_chain(sys2.pair.primal, 3, leftmost="dual",
                           D=sys2.double)
    inner = check_braided_commutative(ch3.yd, mode="generators", samples=200)
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
