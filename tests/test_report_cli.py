"""Tests for the suite runner, report serialization, and the CLI."""

from __future__ import annotations

import copy
import hashlib
import json
import os
import pathlib
import re
import stat
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import hopfbench.cli as cli_module
import hopfbench.doubles as doubles_module
import hopfbench.mutations as mutations_module
import hopfbench.report as report_module
from hopfbench.cli import export_bytes, import_object, main, reexport_bytes
from hopfbench.cyclo import QContext
from hopfbench.mutations import MUTATIONS
from hopfbench.report import (ConfigError, SuiteConfig, parse, render,
                              run_suite)
from hopfbench.doubles import factor_structures
from hopfbench.results import CheckResult, lemma_walk
from hopfbench.taft import taft_setup, taft_system
from hopfbench.ydcat import check_braided_commutative, check_locked_identity

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def _run_python(script: str, *args):
    """Run `script` in a fresh interpreter that imports this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)


# ------------------------------------------------------------- report


def test_reports_are_deterministic():
    cfg = SuiteConfig(p=2, suite="mutations", seed=7)
    a = render(run_suite(cfg), "json")
    b = render(run_suite(SuiteConfig(p=2, suite="mutations", seed=7)), "json")
    assert a == b
    assert a.endswith(b"\n")


def test_parse_render_round_trip():
    rep = run_suite(SuiteConfig(p=2, suite="mutations"))
    again = parse(render(rep, "json"))
    assert again == rep


def test_text_render_carries_witnesses():
    rep = run_suite(SuiteConfig(p=2, suite="mutations"))
    text = render(rep, "text").decode()
    assert "FAIL  mutations.mutation-taft-antipode-sign.p2" in text
    assert "[antipode-convolution]" in text
    assert "summary: 0 passed, 7 failed, 0 skipped (7 checks)" in text
    assert not rep.ok


def test_a_report_whose_mode_is_not_its_p_rule_is_refused():
    """p alone picks the mode of a run's tuple walks, so a report that
    names another mode came from no run of this engine."""
    obj = json.loads(render(run_suite(SuiteConfig(p=2, suite="mutations")),
                            "json"))
    assert obj["config"]["mode"] == "exhaustive"
    obj["config"]["mode"] = "sample"
    with pytest.raises(ValueError, match="'sample'.*'exhaustive'"):
        parse(json.dumps(obj))


def test_a_config_takes_no_mode():
    with pytest.raises(TypeError):
        SuiteConfig(p=2, mode="generators")


@pytest.mark.parametrize("kwargs", [
    {"p": 1},
    {"p": "3"},
    {"suite": "no-such-suite"},
    {"p": 3, "sample_size": 0},
    {"p": 2, "sample_size": 0},
    {"p": 2, "sample_size": -5},
    {"seed": -1},
    {"p": 2, "sample_size": 2.5},
    {"p": 2, "sample_size": "7"},
    {"p": 2, "sample_size": True},
    {"p": 2, "seed": True},
    {"p": 2, "fail_fast": 1},
])
def test_bad_configs_are_rejected(kwargs):
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(**kwargs))


def test_selected_suites_are_ordered_and_deduped():
    cfg = SuiteConfig(suite="yd,double,yd")
    assert cfg.selected() == ("double", "yd")
    assert "mutations" not in SuiteConfig(suite="all").selected()


def test_duplicate_check_names_are_an_engine_error(monkeypatch, capsys):
    def twice(cfg):
        return [CheckResult("same", "pass", "exhaustive")] * 2

    monkeypatch.setitem(report_module._SUITES, "mutations", twice)
    with pytest.raises(RuntimeError, match="duplicate check name"):
        run_suite(SuiteConfig(p=2, suite="mutations"))
    assert main(["verify", "--p", "2", "--suite", "mutations"]) == 3
    assert "duplicate check name 'mutations.same.p2'" in capsys.readouterr().err


def test_a_walk_reused_for_a_second_law_exits_3(monkeypatch, capsys):
    def reuse(cfg):
        dual_yd, base_yd = factor_structures(taft_system(2).yd)
        walk = lemma_walk(dual_yd.algebra)
        yield check_braided_commutative(dual_yd, walk)
        yield check_locked_identity(dual_yd, base_yd, walk)

    monkeypatch.setitem(report_module._SUITES, "mutations", reuse)
    assert main(["verify", "--p", "2", "--suite", "mutations"]) == 3
    assert ("RuntimeError: the generators walk of 'locked-identity' was "
            "already walked") in capsys.readouterr().err


def test_fail_fast_stops_pulling_checks(monkeypatch):
    computed = []

    def suite(cfg):
        computed.append("first")
        yield CheckResult("first", "fail", "exhaustive", 1, "witness")
        computed.append("second")
        yield CheckResult("second", "pass", "exhaustive", 1)

    monkeypatch.setitem(report_module._SUITES, "mutations", suite)
    rep = run_suite(SuiteConfig(p=2, suite="mutations", fail_fast=True))
    assert [r.name for r in rep.results] == ["mutations.first.p2"]
    assert computed == ["first"]
    rep = run_suite(SuiteConfig(p=2, suite="mutations"))
    assert [r.name for r in rep.results] == ["mutations.first.p2",
                                             "mutations.second.p2"]


def test_fail_fast_stops_a_real_suite_and_keeps_its_results(monkeypatch):
    built = []
    run_mutation = mutations_module.run_mutation

    def counted(tag, p, walks):
        built.append(tag)
        return run_mutation(tag, p, walks)

    # the mutations suite imports run_mutation when it runs
    monkeypatch.setattr(mutations_module, "run_mutation", counted)
    full = run_suite(SuiteConfig(p=2, suite="mutations")).to_dict()["checks"]
    assert built == list(MUTATIONS)
    built.clear()
    fast = run_suite(SuiteConfig(p=2, suite="mutations", fail_fast=True))
    first = next(iter(MUTATIONS))
    assert built == [first]               # the other fixtures are never built
    assert [r.to_dict() for r in fast.results] == [
        c for c in full if c["name"] == f"mutations.mutation-{first}.p2"]


# sha256 of `hopfbench verify --p 2 --suite <suite> --format json`: these
# reports carry failure witnesses (mutations) and inverted expected
# failures (chains), so they pin the bytes of the failure paths too; the
# double report pins the exhaustive pair walk of smash-closed-form, the
# heisenberg report the four factor laws read off the restriction
# certificates of B*cop and B and the two flip lemmas, and the yd
# report pins the proofs of module-action on the factors of D(B) and of
# H(B*), of module-algebra and comodule-algebra on the pairs of the
# factors of H(B*), of yd-condition on a subcoalgebra of D(B) and of
# braided-commutative on a subcomodule of H(B*); the truncations report
# pins the four laws read off the transport certificates; the hopf-axioms
# report pins the associativity proofs, from generator-headed triples on
# B and B* and from R's normal twisting-map certificate on D(B) and
# H(B*), and the pair lemma, and the double report the intertwining of R
# proved on D(B)'s generators, eta-twist proved from R rows, the
# hexagon and inverse lines of R read off the Hopf pairing, and
# action-composition proved as a case of the module law.
REPORT_SHA256_P2 = {
    "hopf-axioms":
        "5cba5b95c0e2f7c91d465e6a99adcdff30c7942558f71cf355d05e6a6479dde6",
    "yd":
        "79ab3933874c3b8550181286bb29fd4a784f1270b91a0f6f6a154878d1116da2",
    "double":
        "d64604b6fce19ea354421c25e5ee55965941ab841521eea7241373106488429c",
    "heisenberg":
        "a151871ac1cd45eec9453bd3c21f013441a3b1202f4d087337545d546e077874",
    "mutations":
        "2e9b2cca00d898f81b1bec5047ec723ab480001b5dfe150407125dd93621ab0e",
    "chains":
        "e49081aada899cca5e9604e220667b686e26679e68069a5b3a018d94f07843e5",
    "truncations":
        "ca8f22c4c84c97dbc3386d2b32e9610acf2b24bfcd79f757f4edb01c0f09189d",
}


def _assert_yd_lines_are_proofs(rep):
    """Every yd line reads exhaustive or generators: a proof, not a
    sample."""
    yd = [r for r in rep.results if r.name.startswith("yd.")]
    assert len(yd) == 6
    assert {r.name: r.mode for r in yd
            if r.mode not in ("exhaustive", "generators")} == {}


@pytest.mark.parametrize("suite", sorted(REPORT_SHA256_P2))
def test_report_bytes_are_pinned(suite):
    rep = _pinned(f"p2-{suite}", REPORT_SHA256_P2[suite])
    if suite == "yd":
        _assert_yd_lines_are_proofs(rep)


# the four factor laws of the heisenberg suite, read off the restriction
# certificates of B*cop and B (`doubles.check_factor_restrictions`)
FACTOR_LAWS = ("dual-factor-braided-commutative",
               "base-factor-braided-commutative", "braided-symmetric",
               "locked-identity")


# the two flip lines that take lemma routes (`ydcat.flip_isomorphism`)
FLIP_LEMMAS = ("flip-algebra-morphism", "flip-module-morphism")


def _routed(name: str) -> bool:
    """A line of a law with a proof route: every yd and truncations line,
    the R lines, eta-twist and action-composition of double, the
    associativity and pair laws of hopf-axioms, and the four factor laws
    and two flip lemmas of heisenberg."""
    suite, law = name.split(".")[:2]
    return (suite in ("yd", "truncations") or law.startswith("r-")
            or law.endswith(("-mult-associativity", "-comult-multiplicative",
                             "-counit-multiplicative"))
            or suite == "double" and law in ("eta-twist",
                                             "action-composition")
            or suite == "heisenberg" and law in FACTOR_LAWS + FLIP_LEMMAS)


def _golden_routed_labels(p: int) -> dict:
    """The coverage label of each routed line in the golden reports at p,
    by its name without the p tag and with the p in it written as P."""
    labels = {}
    for path in GOLDEN.glob(f"p{p}-*.txt"):
        checks, _ = _report_lines(path.read_text())
        for name, (_, label, _, _) in checks.items():
            if _routed(name):
                labels[name.rsplit(".", 1)[0].replace(f"p={p}", "p=P")] = label
    return labels


def test_a_law_with_a_proof_route_takes_it_at_every_p():
    """A routed line reads the same label in the p=2 and the p=3 golden
    reports: the route, and not the run's tuple walks, picks its walk."""
    at_2 = _golden_routed_labels(2)
    assert len(at_2) == 4 + 6 + 6 + 6 + 4 + 23 + 3
    assert _golden_routed_labels(3) == at_2


# sha256 of `hopfbench verify --p 3 --suite yd,truncations --sample-size 1000
# --format json`: at p=3 most structure constants are dense scalars, which
# the p=2 reports hardly reach.  Its yd lines are the same proofs as in the
# p=2 yd report, and so are its four transported truncations laws.
REPORT_SHA256_P3_YD_TRUNCATIONS = \
    "ff10949ddfede8dc516b377554414c895f76a71a3619ed38abb5b38277e51917"


def test_p3_report_bytes_are_pinned():
    rep = _pinned("p3-yd-truncations", REPORT_SHA256_P3_YD_TRUNCATIONS)
    _assert_yd_lines_are_proofs(rep)


def _route_counts(p):
    """Cases of the generator routes of hopf-axioms' associativity lines,
    double's action-composition, yd, heisenberg and truncations, as
    formulas in p, with the obligations that a suite replays counting no
    case: d_B = 4p^2 and d = d_B^2, with 2 generators for B and for B*,
    4 for D(B) and for X >< Y = B* >< B, the 4-element subcoalgebra C_B
    of B and the 7-element subcoalgebra C of D(B); the even span of
    u_q(sl_2) has 2p^3 basis vectors and 3 generators."""
    dB = 4 * p ** 2
    d = dB ** 2
    return {
        # the unit law on H(B*); the factor unit laws on the 2 d_B basis
        # vectors V of B* (x) 1 and 1 (x) B; the four legs' module laws
        # (unit law, then 2 generators against every pair); the four leg
        # unit facts; C_B against B*, then C_B x generators of B* x V.
        # R's normality and D(B)'s tensor coalgebra are replayed: the R
        # lines and eta-twist walk them first
        "double.action-composition":
            d + 2 * 2 * dB + 4 * (dB + 2 * dB ** 2) + 4 * dB
            + 4 * dB + 4 * 2 * 2 * dB,
        # phi(1) = 1, the twisting-map certificates of X >< Y and Y >< X,
        # then the 4 generators of X >< Y against its basis
        "heisenberg.flip-algebra-morphism": 1 + 2 * (2 * dB + 4 * d) + 4 * d,
        # h = 1, then the 4 generators of D(B), each against every u
        "heisenberg.flip-module-morphism": d + 4 * d,
        # normality of R, then its two twisting identities, each headed by
        # the 2 generators of one factor
        "hopf-axioms.ddouble-mult-associativity": 2 * dB + 4 * d,
        "hopf-axioms.hdouble-mult-associativity": 2 * dB + 4 * d,
        # the triple lemma: 2 generators, then every pair
        "hopf-axioms.taft-mult-associativity": 2 * d,
        "hopf-axioms.taft-dual-mult-associativity": 2 * d,
        # counit law, normality of H(B*)'s R, its twisting identity, then
        # C against X1 x X1, X2 x X2 and the generators of B against X1
        "yd.module-algebra": d + 2 * dB + 2 * d + 7 * 3 * 2 * dB,
        # delta(1), the twisting identity of D(B)'s R, the three blocks
        "yd.comodule-algebra": 1 + 2 * d + 3 * 2 * dB,
        # normality of H(B*)'s R, run once in the suite, then the rows of
        # D(B)'s generators on the factor's basis and its coaction rows
        "heisenberg.dual-factor-braided-commutative": 2 * dB + 4 * dB + dB,
        "heisenberg.base-factor-braided-commutative": 4 * dB + dB,
        # one case for each of the two restriction certificates
        "heisenberg.braided-symmetric": 2,
        "heisenberg.locked-identity": 2,
        "truncations.Uq(p=%d)-closure" % p: 2 + 8 * p ** 3,
        "truncations.hq-factorization":
            2 * p ** 4 + 8 * p ** 3 + 6 * p ** 2 + 4 * p,
    }


def _r_counts(p):
    """Cases of the three R lines of double, read off the Hopf pairing, as
    formulas in p: d_B = 4p^2, with 2 generators for B and for B*.  In the
    suite each obligation is walked once: r-hexagon-1 walks the rank law
    (d_B), the unit and antipode laws (2 d_B + d_B^2), <fg, x> headed by
    the generators of B* (2 d_B^2), the canonical element (d_B) and
    the normality of D(B)'s R (2 d_B), eta-twist having walked the tensor
    coalgebra; r-hexagon-2 then walks <comult* f, x (x) y> headed by the
    generators of B (2 d_B^2), and r-inverse S_D on 1 (x) B (d_B)."""
    dB = 4 * p ** 2
    return {
        "double.r-hexagon-1":
            dB + (2 * dB + dB ** 2) + 2 * dB ** 2 + dB + 2 * dB,
        "double.r-hexagon-2": 2 * dB ** 2,
        "double.r-inverse": dB,
    }


@pytest.mark.parametrize("p", [2, 3])
def test_the_r_lines_count_their_cases_as_formulas_in_p(p):
    rep = run_suite(SuiteConfig(p=p, suite="double"))
    got = {r.name.rsplit(".", 1)[0]: (r.status, r.mode, r.cases_checked)
           for r in rep.results}
    for name, cases in _r_counts(p).items():
        assert got[name] == ("pass", "generators", cases), name


def test_fail_fast_stops_the_r_lines_at_a_failed_pairing_route(monkeypatch):
    """check_quasitriangular yields its lines one at a time: with the
    pairing route of r-hexagon-1 failing, fail_fast neither reports nor
    computes r-hexagon-2 and r-inverse."""
    calls = []

    def failing(P, mult_vs_comult, comult_vs_mult):
        calls.append(P)
        yield CheckResult("pairing-nondegenerate", "fail", "exhaustive", 1,
                          "planted")

    monkeypatch.setattr(doubles_module, "check_hopf_pairing", failing)
    rep = run_suite(SuiteConfig(p=2, suite="double", fail_fast=True))
    got = {r.name: (r.status, r.witness) for r in rep.results}
    assert got["double.r-hexagon-1.p2"] == (
        "fail", "[pairing-nondegenerate] planted")
    assert not {"double.r-hexagon-2.p2", "double.r-inverse.p2"} & set(got)
    assert len(calls) == 1


@pytest.mark.parametrize("p", [2, 3])
def test_the_generator_routes_count_their_cases_as_formulas_in_p(p):
    rep = run_suite(SuiteConfig(
        p=p, suite="hopf-axioms,double,yd,heisenberg,truncations",
        sample_size=1000))
    got = {r.name.rsplit(".", 1)[0]: (r.status, r.mode, r.cases_checked)
           for r in rep.results}
    for name, cases in _route_counts(p).items():
        assert got[name] == ("pass", "generators", cases), name


# sha256 of `render(run_suite(SuiteConfig(p=3, suite=<suite>, sample_size=300,
# seed=11)), "json")`: these suites read the p=3 factor-action rows of
# B*cop and B inside braided products, so they pin those rows, which are
# H(B*)'s rows restricted to its factors (`doubles.factor_structures`);
# heisenberg pins the restriction certificates and their corollaries,
# and the two flip lemmas.
REPORT_SHA256_P3_BRAIDED = {
    "heisenberg":
        "80669f728f74ac9db0b6e2578e6a87fbec5dcedcd4db35a6623070f612f65ec9",
    "chains":
        "0cd38fc537bfb12c20a5649a41cb590461ec93aa2dd036d12a11713a0369fcc8",
    "hopf-axioms":
        "01a2ace3e932ee7650d8b334fc1fae35dc078cb21a9945809fa7d4ee2e0ba3bc",
}


@pytest.mark.parametrize("suite", sorted(REPORT_SHA256_P3_BRAIDED))
def test_p3_braided_product_report_bytes_are_pinned(suite):
    _pinned(f"p3-braided-{suite}", REPORT_SHA256_P3_BRAIDED[suite])


# sha256 of `hopfbench verify --p 3 --suite double --format json`, the
# default run: eta-twist compares R rows and the R lines read the Hopf
# pairing, so the suite is cheap at p=3, and this pins its
# generator-headed lines and searches on dense scalars.
REPORT_SHA256_P3_DOUBLE = \
    "c1ff316755f6cd8f2e4bd802b8d84bca702237f3d69842643508bd1a0433e8d0"


def test_the_default_p3_double_report_is_pinned():
    _pinned("p3-double", REPORT_SHA256_P3_DOUBLE)


# The lines of the default p=3 run, all six default suites, that may
# still carry a sample label, each with the ROADMAP item that removes
# it.  A line that gains a proof route leaves this list, so it only
# shrinks (ROADMAP item 22), but for a skipped line that becomes
# a search: full-chain3-braided-commutativity-fails was skipped at p >= 3
# and now finds its counterexample there.
P3_SAMPLED = {
    "double.smash-closed-form": "item 25",
    "double.r-comm-negative": "item 22, a search",
    "double.rinv-braided-comm": "item 22, a search",
    "chains.full-chain3-braided-commutativity-fails": "item 22, a search",
    "chains.zdel-chain3-braided-commutativity-fails": "item 22, a search",
}


def test_the_default_p3_run_samples_only_the_listed_lines():
    rep = run_suite(SuiteConfig(p=3, suite="all"))
    assert rep.ok
    assert {r.name.rsplit(".", 1)[0] for r in rep.results
            if "sample" in r.mode} == set(P3_SAMPLED)


# sha256 of `render(run_suite(SuiteConfig(p=2, suite="chains,truncations")),
# "json")`, recorded from a serial run (one CPU).
REPORT_SHA256_P2_TWO_SUITES = \
    "43e44bba3735689c19f794d96d91b3682c9fd2a13c32a78a744314d6afa7997a"


# Every pinned run by the name of its golden text report,
# tests/golden/<name>.txt: `render(rep, "text")` of the run whose JSON
# bytes the sha256 pin beside it fixes.  The text report puts one check
# on a line, so a re-pin is a reviewable diff of the golden file;
# tests/rewrite_golden.py rewrites the files and prints that diff.
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
GOLDEN_RUNS = {
    **{f"p2-{s}": SuiteConfig(p=2, suite=s) for s in REPORT_SHA256_P2},
    "p3-yd-truncations": SuiteConfig(p=3, suite="yd,truncations",
                                     sample_size=1000),
    **{f"p3-braided-{s}": SuiteConfig(p=3, suite=s, sample_size=300, seed=11)
       for s in REPORT_SHA256_P3_BRAIDED},
    "p3-double": SuiteConfig(p=3, suite="double"),
    "p2-chains-truncations": SuiteConfig(p=2, suite="chains,truncations"),
}

_CHECK_LINE = re.compile(r"(PASS|FAIL|SKIP)  (\S+)  \[(.*), (\d+) cases\]$")
_WITNESS = "      witness: "


def _report_lines(text: str) -> tuple:
    """The check lines of a text report as name -> [status, mode, cases,
    witness], and its other lines."""
    checks, other, name = {}, [], None
    for line in text.splitlines():
        m = _CHECK_LINE.match(line)
        if m:
            name = m[2]
            checks[name] = [m[1], m[3], int(m[4]), None]
        elif name is not None and line.startswith(_WITNESS):
            checks[name][3] = line[len(_WITNESS):]
        else:
            other.append(line)
            name = None
    return checks, other


def golden_diff(old: str, new: str) -> list:
    """One line for each check whose status, mode, cases or witness
    differ between two text reports, naming each changed field, then the
    other lines (header and summary) that differ."""
    (a, a_other), (b, b_other) = _report_lines(old), _report_lines(new)
    out = []
    for name in sorted(a.keys() | b.keys()):
        if name not in b:
            out.append(f"- {name} {a[name]}")
        elif name not in a:
            out.append(f"+ {name} {b[name]}")
        elif a[name] != b[name]:
            out.append(f"~ {name}: " + "; ".join(
                f"{field} {x!r} -> {y!r}" for field, x, y in zip(
                    ("status", "mode", "cases", "witness"), a[name], b[name])
                if x != y))
    out += [f"- {line}" for line in a_other if line not in b_other]
    out += [f"+ {line}" for line in b_other if line not in a_other]
    return out


def _pinned(name: str, sha: str):
    """Run the pinned run `name`; its text report must be the bytes of its
    golden file (a mismatch prints `golden_diff`) and its JSON report
    must hash to `sha`."""
    rep = run_suite(GOLDEN_RUNS[name])
    got = render(rep, "text")
    want = (GOLDEN / f"{name}.txt").read_bytes()
    assert got == want, "\n".join([f"{name} differs from its golden file:",
                                   *golden_diff(want.decode(), got.decode())])
    assert hashlib.sha256(render(rep, "json")).hexdigest() == sha
    return rep


def test_the_golden_diff_names_each_changed_field():
    old = ("header\n\nPASS  s.a.p2  [exhaustive, 3 cases]\n"
           "FAIL  s.b.p2  [generators, 2 cases]\n      witness: x=1\n"
           "PASS  s.c.p2  [exhaustive, 1 cases]\n\nsummary: 2 passed\n")
    new = ("header\n\nPASS  s.a.p2  [exhaustive, 3 cases]\n"
           "PASS  s.b.p2  [generators, 4 cases]\n"
           "PASS  s.d.p2  [exhaustive, 1 cases]\n\nsummary: 3 passed\n")
    assert golden_diff(old, old) == []
    assert golden_diff(old, new) == [
        "~ s.b.p2: status 'FAIL' -> 'PASS'; cases 2 -> 4; "
        "witness 'x=1' -> None",
        "- s.c.p2 ['PASS', 'exhaustive', 1, None]",
        "+ s.d.p2 ['PASS', 'exhaustive', 1, None]",
        "- summary: 2 passed", "+ summary: 3 passed"]


def test_every_pinned_run_has_its_golden_file():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(GOLDEN_RUNS)


def _two_cpus(monkeypatch):
    """Make the pool path reachable on any host."""
    monkeypatch.setattr(report_module.os, "sched_getaffinity",
                        lambda pid: {0, 1})


def test_suites_run_in_workers_with_the_serial_report_bytes(monkeypatch):
    _two_cpus(monkeypatch)
    _pinned("p2-chains-truncations", REPORT_SHA256_P2_TWO_SUITES)


def test_a_crash_inside_a_worker_exits_3(monkeypatch, capsys):
    parent = os.getpid()

    def crash(cfg):
        where = "worker" if os.getpid() != parent else "parent"
        raise RuntimeError(f"engine fault in the {where}")

    _two_cpus(monkeypatch)
    monkeypatch.setitem(report_module._SUITES, "chains", lambda cfg: iter(()))
    monkeypatch.setitem(report_module._SUITES, "mutations", crash)
    assert main(["verify", "--p", "2", "--suite", "chains,mutations"]) == 3
    assert "RuntimeError: engine fault in the worker" in capsys.readouterr().err


KILLED_WORKER = """
import os, signal, sys
import hopfbench.report as report
from hopfbench.cli import main

parent = os.getpid()

def die(cfg):
    assert os.getpid() != parent, "suite ran in the parent"
    os.kill(os.getpid(), signal.SIGKILL)

report.os.sched_getaffinity = lambda pid: {0, 1}
report._SUITES["chains"] = lambda cfg: iter(())
report._SUITES["mutations"] = die
"""

# The last line of a script for _run_python: main() in process, or the
# console entry, which ends the process with os._exit.
IN_PROCESS = "sys.exit(main(sys.argv[1:]))\n"
CONSOLE = "from hopfbench.cli import console_main; console_main()\n"
# The parent writes each worker's pid, in one write, the moment os.fork
# returns it: before the parent can kill any worker, and whether or not
# the worker itself ever runs.
LOG_WORKERS = """
import os
_fork = os.fork

def _logged_fork():
    pid = _fork()
    if pid:
        os.write(1, b"worker %d\\n" % pid)
    return pid

os.fork = _logged_fork
"""
TWO_SUITES = ("verify", "--p", "2", "--suite", "chains,mutations")


def test_a_killed_worker_exits_3_without_a_hang():
    """The run ends at once with exit 3, naming the suite whose worker
    died and the signal, and leaves no worker running."""
    t0 = time.monotonic()
    proc = _run_python(LOG_WORKERS + KILLED_WORKER + IN_PROCESS, *TWO_SUITES)
    elapsed = time.monotonic() - t0
    assert proc.returncode == 3, proc.stderr
    assert ("the worker of suite 'mutations' ended without its results "
            "(killed by signal 9)") in proc.stderr
    assert elapsed < 10, f"the exit waited {elapsed:.1f} s"
    workers = [int(line.split()[1]) for line in proc.stdout.splitlines()
               if line.startswith("worker ")]
    assert len(workers) == 2
    assert not [pid for pid in workers if _running(pid)]


CRASH_BESIDE_A_SLEEPER = """
import sys, time
import hopfbench.report as report
from hopfbench.cli import main

def sleep(cfg):
    time.sleep(20)
    return iter(())

def crash(cfg):
    raise RuntimeError("engine fault")

report.os.sched_getaffinity = lambda pid: {0, 1}
report._SUITES["chains"] = sleep
report._SUITES["mutations"] = crash
"""


def test_a_crash_does_not_wait_for_the_other_suites():
    t0 = time.monotonic()
    proc = _run_python(CRASH_BESIDE_A_SLEEPER + IN_PROCESS, *TWO_SUITES)
    elapsed = time.monotonic() - t0
    assert proc.returncode == 3, proc.stderr
    assert "RuntimeError: engine fault" in proc.stderr
    assert elapsed < 10, f"the crash waited {elapsed:.1f} s for a sleeper"


def _running(pid: int) -> bool:
    """Whether process pid exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.parametrize("script,error", [
    (KILLED_WORKER, "BrokenProcessPool"),
    (CRASH_BESIDE_A_SLEEPER, "RuntimeError: engine fault"),
], ids=["killed-worker", "crash-beside-a-sleeper"])
def test_the_console_entry_leaves_no_worker_running(script, error):
    """os._exit runs no atexit hook, so the workers must be gone before
    it: a sleeper left running would also hold the output pipes open."""
    t0 = time.monotonic()
    proc = _run_python(LOG_WORKERS + script + CONSOLE, *TWO_SUITES)
    elapsed = time.monotonic() - t0
    assert proc.returncode == 3, proc.stderr
    assert error in proc.stderr and "Traceback" in proc.stderr
    assert elapsed < 10, f"the exit waited {elapsed:.1f} s for a sleeper"
    workers = [int(line.split()[1]) for line in proc.stdout.splitlines()
               if line.startswith("worker ")]
    assert len(workers) == 2
    assert not [pid for pid in workers if _running(pid)]


@pytest.mark.parametrize("suite,fail_fast,cpus,pool", [
    ("chains,mutations", False, {0, 1}, True),  # control: workers fork
    ("chains", False, {0, 1}, False),           # one suite
    ("chains,mutations", True, {0, 1}, False),  # fail_fast pulls lazily
    ("chains,mutations", False, {0}, False),    # one usable CPU
])
def test_no_pool_unless_it_can_help(monkeypatch, suite, fail_fast, cpus,
                                    pool):
    def no_fork():
        raise AssertionError("a suite worker was forked")

    monkeypatch.setattr(report_module.os, "fork", no_fork)
    monkeypatch.setattr(report_module.os, "sched_getaffinity",
                        lambda pid: cpus)
    monkeypatch.setitem(report_module._SUITES, "chains", lambda cfg: iter(
        [CheckResult("c", "pass", "exhaustive", 1)]))
    monkeypatch.setitem(report_module._SUITES, "mutations", lambda cfg: iter(
        [CheckResult("m", "fail", "exhaustive", 1, "witness")]))
    cfg = SuiteConfig(p=2, suite=suite, fail_fast=fail_fast)
    if pool:
        with pytest.raises(AssertionError, match="worker was forked"):
            run_suite(cfg)
    else:
        assert [r.name for r in run_suite(cfg).results] == [
            f"{s}.{s[0]}.p2" for s in suite.split(",")]


def test_fail_fast_stops_pulling_suites(monkeypatch):
    _two_cpus(monkeypatch)
    pulled = []

    def suite(name, status):
        def run(cfg):
            pulled.append(name)
            yield CheckResult(name, status, "exhaustive", 1,
                              "witness" if status == "fail" else None)
        return run

    monkeypatch.setitem(report_module._SUITES, "chains",
                        suite("c", "fail"))
    monkeypatch.setitem(report_module._SUITES, "truncations",
                        suite("t", "pass"))
    rep = run_suite(SuiteConfig(p=2, suite="chains,truncations",
                                fail_fast=True))
    assert [r.name for r in rep.results] == ["chains.c.p2"]
    assert pulled == ["c"]


CLI_IMPORTS = """
import sys
import hopfbench.cli
from hopfbench.cli import main

assert main(["eval", "--p", "2", "z"]) == 0
assert main(["verify", "--p", "2", "--suite", "chains", "--out", sys.argv[1]]) == 0
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("concurrent", "multiprocessing")))
"""


def test_cli_start_up_loads_no_pool_modules(tmp_path):
    # Every eval starts a fresh process, so the CLI must not pay for the
    # pool's imports unless several suites run.
    proc = _run_python(CLI_IMPORTS, str(tmp_path / "report.txt"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


WORKER_IMPORTS = """
import sys
import hopfbench.report as report
from hopfbench.cli import main

report.os.sched_getaffinity = lambda pid: {0, 1}
report._SUITES["chains"] = lambda cfg: iter(())
report._SUITES["truncations"] = lambda cfg: iter(())
assert main(["verify", "--p", "2", "--suite", "chains,truncations",
             "--out", sys.argv[1]]) == 0
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("concurrent", "multiprocessing")))
"""


def test_suite_workers_load_no_pool_modules(tmp_path):
    # The suite workers are forked by hand: a run of several suites
    # loads neither multiprocessing nor concurrent.futures.
    proc = _run_python(LOG_WORKERS + WORKER_IMPORTS,
                       str(tmp_path / "report.txt"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len([line for line in lines if line.startswith("worker ")]) == 2
    assert lines[-1] == "[]"


# ---------------------------------------------------------------- cli


def test_verify_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--p", "2", "--suite", "mutations",
                 "--format", "json", "--out", str(out)])
    assert code == 1                      # mutations are designed to fail
    data = json.loads(out.read_bytes())
    assert data["schema_version"] == 1
    assert data["config"]["p"] == 2
    assert len(data["checks"]) == 7

    assert main(["verify", "--p", "1"]) == 2
    assert main(["verify", "--p", "2", "--suite", "yd",
                 "--sample-size", "-5"]) == 2


def test_verify_rejects_mode_flag(monkeypatch, capsys):
    # p alone picks the coverage mode; --mode is gone, so it is a usage
    # error, raised before any suite runs.
    runs = []
    monkeypatch.setattr(report_module, "run_suite", runs.append)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--p", "2", "--mode", "generators"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode generators" in (
        capsys.readouterr().err)
    assert runs == []


def test_verify_rejects_jobs_flag(capsys):
    # --jobs was parsed and never used; it is gone, so it is a usage error.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "mutations", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_engine_crash_exits_3(monkeypatch, capsys):
    def crash(cfg):
        raise RuntimeError("engine fault")

    monkeypatch.setitem(report_module._SUITES, "mutations", crash)
    assert main(["verify", "--p", "2", "--suite", "mutations"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: engine fault" in err


def _hopfbench(*args, stdout=subprocess.PIPE):
    """`python3 -m hopfbench ARGS` in a fresh process: the console entry,
    with stdout block-buffered as in a shell pipeline."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "hopfbench", *args],
                            env=env, stdout=stdout, stderr=subprocess.PIPE)


def _finish(proc):
    out, err = proc.communicate(timeout=120)
    return proc.returncode, out, err.decode()


def test_one_console_entry():
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml")) as fh:
        assert 'hopfbench = "hopfbench.cli:console_main"' in fh.read()
    with open(os.path.join(SRC, "hopfbench", "__main__.py")) as fh:
        assert "console_main()" in fh.read()


def test_the_console_entry_keeps_output_and_exit_codes(tmp_path):
    assert _finish(_hopfbench("eval", "--p", "2", "z del")) == (
        0, b"2*q*1 - del z\n", "")

    code, out, err = _finish(_hopfbench("verify", "--p", "2", "--suite",
                                        "mutations", "--format", "json"))
    assert code == 1, err
    assert out == render(run_suite(SuiteConfig(p=2, suite="mutations")),
                         "json")

    code, out, err = _finish(_hopfbench("eval", "--bogus", "z"))
    assert (code, out) == (2, b"") and "unrecognized arguments" in err
    # argparse prints --version into stdout's buffer, which only the
    # entry's flush writes out
    assert _finish(_hopfbench("--version")) == (0, b"hopfbench 0.1.0\n", "")

    target = tmp_path / "hdouble.json"
    assert _finish(_hopfbench("export", "--p", "2", "hdouble", "--out",
                              str(target))) == (0, b"", "")
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == EXPORT_SHA256_P2["hdouble"]
    assert os.listdir(tmp_path) == ["hdouble.json"]


def test_the_console_entry_reports_an_engine_crash():
    script = ("import sys\n"
              "import hopfbench.report as report\n"
              "def crash(cfg):\n"
              "    raise RuntimeError('engine fault')\n"
              "report._SUITES['mutations'] = crash\n" + CONSOLE)
    proc = _run_python(script, "verify", "--p", "2", "--suite", "mutations")
    assert proc.returncode == 3
    assert "Traceback" in proc.stderr
    assert proc.stderr.rstrip().endswith("RuntimeError: engine fault")


def test_a_closed_stdout_is_a_one_line_usage_error():
    """The reader of stdout goes away mid-export, or before an eval
    writes: exit 2, one error line, no traceback, and nothing flushed
    into the dead pipe again on the way out."""
    proc = _hopfbench("export", "--p", "2", "ddouble")
    assert len(proc.stdout.read(100)) == 100          # 7.3 MB are coming
    proc.stdout.close()
    code, _, err = _finish(proc)
    assert (code, err) == (2, "hopfbench export: error: stdout was closed "
                              "before all output was written\n")

    read_end, write_end = os.pipe()
    proc = _hopfbench("eval", "--p", "2", "z del", stdout=write_end)
    os.close(write_end)
    os.close(read_end)                                # before any output
    code, _, err = _finish(proc)
    assert (code, err) == (2, "hopfbench eval: error: stdout was closed "
                              "before all output was written\n")


EVAL_CASES = [
    (["eval", "--p", "2", "del * z"], "del z"),
    (["eval", "--p", "2", "z del"], "2*q*1 - del z"),
    (["eval", "--p", "2", "E |> z"], "0"),
    (["eval", "--p", "3", "E |> z"], "-q*z^2"),
    (["eval", "--p", "2", "1 # 1"], "1"),
    (["eval", "--p", "2", "lam^4"], "lam^4"),
    (["eval", "--p", "2", "lam^8"], "-1"),
    (["eval", "--p", "2", "K^-1"], "q^(3/2)*lam^6 kap^2"),
    (["eval", "--p", "2", "k |> lam"], "-q^(3/2)*lam"),
    (["eval", "--p", "2", "kap # E"], "-1/2*q^(3/2)*z lam^2 kap^7"),
    (["eval", "--p", "2", "--structure", "coaction", "z"],
     "1(x)k^6 (x) z - 2*q*1(x)Ek^6 (x) 1"),
    (["eval", "--p", "2", "--structure", "braiding", "z | del"],
     "2*q*1 (x) 1 - del (x) z"),
]


@pytest.mark.parametrize("argv,expected", EVAL_CASES)
def test_eval_normal_forms(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out.strip() == expected


def test_eval_takes_powers_by_squaring(capsys):
    assert main(["eval", "--p", "2", "k"]) == 0      # set-up, untimed
    capsys.readouterr()
    t0 = time.perf_counter()
    assert main(["eval", "--p", "2", "k^1000000000"]) == 0
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().out.strip() == "1"


def test_every_eval_reference():
    """The 200 requests the benchmark draws from, evaluated in process,
    give the stored outputs byte for byte."""
    path = os.path.join(os.path.dirname(SRC), "bench", "eval_reference.json")
    with open(path, encoding="utf-8") as fh:
        reference = json.load(fh)
    assert len(reference) == 200
    for key, want in reference.items():
        structure, expression = key.split("\t")
        assert cli_module.evaluate_expression(2, expression,
                                              structure) == want, key


def test_one_eval_builds_part_of_the_dual_product(monkeypatch):
    monkeypatch.setattr(cli_module, "_ENV_CACHE", {})
    monkeypatch.setattr(cli_module, "taft_system",
                        lambda p: taft_system(p, cached=False))
    assert cli_module.evaluate_expression(2, "kap # E") == \
        "-1/2*q^(3/2)*z lam^2 kap^7"
    mult = cli_module._ENV_CACHE[2].sys.pair.dual.mult
    assert 0 < len(mult.rows) < mult.dim_v * mult.dim_w
    full = taft_setup(2, cached=False).dual.mult
    full.materialize()
    nonzero = {key for key, row in full.rows.items() if row}
    assert nonzero - set(mult.rows)       # some nonzero rows were never built


def test_a_monomial_off_its_basis_vector_is_an_engine_error(monkeypatch,
                                                           capsys):
    env = cli_module._EvalContext(2)
    labels = list(env.pbw_space.labels)
    labels[0], labels[1] = labels[1], labels[0]
    env.pbw_space = cli_module.Space("pbw", labels)
    monkeypatch.setitem(cli_module._ENV_CACHE, 2, env)
    assert main(["eval", "--p", "2", "1"]) == 3
    assert "is not a multiple of smash basis vector 0" in \
        capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eval", "--p", "2", "z ^^ 2"],       # parse error
    ["eval", "--p", "2", "z + w"],        # '+' is not an operator
    ["eval", "--p", "2", "nosuch"],       # unknown name
    ["eval", "--p", "2", "z^-1"],         # not invertible
    ["eval", "--p", "2", "(z"],           # unbalanced parenthesis
    ["eval", "--p", "1", "z"],            # bad parameter
])
def test_eval_usage_errors(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err


@pytest.mark.parametrize("name", ["taft", "taft-dual", "cqzd", "chain(2)",
                                  "ddouble", "hdouble", "uqsl2", "hqsl2",
                                  "chain(3)"])
def test_export_round_trip(name):
    blob = export_bytes(name, 2)
    obj = import_object(json.loads(blob))
    assert reexport_bytes(obj) == blob


# sha256 of `hopfbench export --p 2 <name>`: how tables are built or
# encoded may change, their bytes may not.
EXPORT_SHA256_P2 = {
    "taft": "1d518109ed38b4935ed8530c92a52ae0a31ddb4fab82daf96bd69a317f869c5f",
    "taft-dual":
        "c4cfafd0504701367230beccd36d88f25186b5d72e151ccc55db9a03bb9d5c49",
    "ddouble":
        "321292dfcb35d16910d8bafee27e42a87f70e08385b8db36604c05a71fe2b6ec",
    "hdouble":
        "a44bd2779c86a53c01ad2c6231e2f6e05a74287b4d1a27c906bcdfc1c0c97a77",
    "uqsl2": "1ff0977cf548ac088604a110eecb86ce9d0c29241c50e5f4bff97d8d0fc8b599",
    "hqsl2": "d3c57b175aa88b658d9b5371a36e60acfcec75dbd883b55f82374d0c91cf8c2c",
    "cqzd": "fb3908205ecbdccc8f7cce9951fc490033e33a202f21cfed022547fd97b3d180",
    "chain(3)":
        "553e2af080014e5c3efa87ecb32925b63989b0cd90b26d6bec0776e84dc2c847",
}


@pytest.mark.parametrize("name", sorted(EXPORT_SHA256_P2))
def test_export_bytes_are_pinned(name):
    digest = hashlib.sha256(export_bytes(name, 2)).hexdigest()
    assert digest == EXPORT_SHA256_P2[name]


def test_repeated_exports_in_one_process_are_identical():
    for name in ("taft-dual", "hqsl2"):
        assert export_bytes(name, 2) == export_bytes(name, 2)


def test_scalar_encoding_is_shared_across_cyc_forms():
    ctx = QContext(3)
    single = ctx.zeta_pow(4)              # stored as one term
    dense = ctx.zeta_pow(2) - ctx.one     # the same value, stored densely
    assert single == dense
    enc = cli_module._scalar_text(single)
    assert cli_module._scalar_text(dense) is enc
    assert json.loads(enc) == [{"num": n, "den": "1"}
                               for n in ("-1", "0", "1", "0")]


def test_export_cli(tmp_path, capsys):
    out = tmp_path / "cqzd.json"
    assert main(["export", "--p", "2", "cqzd", "--out", str(out)]) == 0
    data = json.loads(out.read_bytes())
    assert data["dim"] == 4
    assert data["field"] == {"type": "cyclotomic", "order": 8}
    assert main(["export", "--p", "2", "nosuch"]) == 2
    assert capsys.readouterr().err


@pytest.mark.parametrize("name", ["chain3", "chain((3))", "chain(3",
                                  "chain)3(", "chain(03)", "chain(0)"])
def test_export_refuses_every_other_spelling_of_a_chain(capsys, name):
    """Only chain(N), N a decimal integer >= 1 with no sign, space or
    leading zero, names a chain; any other spelling is an unknown object."""
    assert main(["export", "--p", "2", name]) == 2
    assert f"unknown export object {name!r}" in capsys.readouterr().err


@pytest.mark.parametrize("argv,work", [
    (["verify", "--p", "2", "--suite", "chains", "--format", "json"],
     "run_suite"),
    (["export", "--p", "2", "cqzd"], "_export_chunks"),
])
def test_out_in_a_missing_directory_is_a_usage_error(tmp_path, monkeypatch,
                                                     capsys, argv, work):
    ran = []
    # verify imports the report module, and run_suite with it, on use
    owner = report_module if work == "run_suite" else cli_module
    monkeypatch.setattr(owner, work, lambda *a, **k: ran.append(a))
    out = tmp_path / "missing" / "out.json"
    assert main(argv + ["--out", str(out)]) == 2
    assert ran == []                      # checked before any work
    err = capsys.readouterr().err
    assert "does not exist" in err and "Traceback" not in err
    assert not out.exists() and not out.parent.exists()


def test_export_writes_the_same_bytes_to_a_file_and_to_stdout(
        tmp_path, capsysbinary):
    out = tmp_path / "hqsl2.json"
    assert main(["export", "--p", "2", "hqsl2", "--out", str(out)]) == 0
    assert main(["export", "--p", "2", "hqsl2"]) == 0
    blob = export_bytes("hqsl2", 2)
    assert out.read_bytes() == blob
    assert capsysbinary.readouterr().out == blob


def test_export_that_fails_halfway_leaves_no_file(tmp_path, monkeypatch,
                                                  capsys):
    out = tmp_path / "cqzd.json"
    out.write_bytes(b"an earlier file\n")
    get = cli_module.BilinearMap.get
    calls = []

    def failing_get(self, i, j):
        calls.append((i, j))
        if len(calls) == 10:
            raise RuntimeError("row getter failed")
        return get(self, i, j)

    monkeypatch.setattr(cli_module.BilinearMap, "get", failing_get)
    assert main(["export", "--p", "2", "cqzd", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "row getter failed" in err
    assert "in _table" in err                 # midway through the writing
    assert os.listdir(tmp_path) == ["cqzd.json"]
    assert out.read_bytes() == b"an earlier file\n"
    out.unlink()
    calls.clear()
    assert main(["export", "--p", "2", "cqzd", "--out", str(out)]) == 3
    assert os.listdir(tmp_path) == []


def test_export_writes_through_a_link_and_into_a_pipe(tmp_path):
    """--out renames its file over the link's target, not over the link,
    and writes a special file in place."""
    blob = export_bytes("cqzd", 2)
    real, link, fifo = (tmp_path / n for n in ("real.json", "link", "pipe"))
    real.write_bytes(b"old\n")
    link.symlink_to(real)
    assert main(["export", "--p", "2", "cqzd", "--out", str(link)]) == 0
    assert link.is_symlink() and real.read_bytes() == blob
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(["export", "--p", "2", "cqzd", "--out", str(fifo)]) == 0
        assert os.read(reader, len(blob) + 1) == blob
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["link", "pipe", "real.json"]


def test_export_holds_no_copy_of_the_document(tmp_path):
    """With its rows warm, writing hdouble (11.8 MB at p=2) allocates a
    few row-sized chunks at a time, not the document."""
    out = tmp_path / "hdouble.json"
    assert main(["export", "--p", "2", "hdouble", "--out", str(out)]) == 0
    size = out.stat().st_size
    tracemalloc.start()
    try:
        assert main(["export", "--p", "2", "hdouble", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size == size > 10_000_000
    assert peak < 3_000_000


# Index columns of each table in an exported FiniteHopf.
_HOPF_TABLES = {"unit": 1, "counit": 1, "mult": 3, "comult": 3,
                "antipode": 2}
_UQSL2_P2 = json.loads(export_bytes("uqsl2", 2))
_SCALAR = _UQSL2_P2["mult"][0][-1]
_ZERO = [{"num": "0", "den": "1"} for _ in _SCALAR]


def _canonical_bytes(block: dict) -> bytes:
    return (json.dumps(block, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


_index_values = st.one_of(st.integers(-3, 20),
                          st.sampled_from(["1", 1.0, None, True]))
_coeff_values = st.one_of(st.integers(-4, 4).map(str),
                          st.sampled_from(["-0", "+1", "01", " 1", "1.0", "",
                                           "2/4", 1, None]))


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_import_rejects_or_round_trips_mutated_tables(data):
    block = copy.deepcopy(_UQSL2_P2)
    table = data.draw(st.sampled_from(sorted(_HOPF_TABLES)))
    n = _HOPF_TABLES[table]
    rows = block[table]
    k = data.draw(st.integers(0, len(rows) - 1))
    kind = data.draw(st.sampled_from(["index", "coeff", "zero", "duplicate",
                                      "truncate"]))
    if kind == "index":
        rows[k][data.draw(st.integers(0, n - 1))] = data.draw(_index_values)
    elif kind == "coeff":
        coeff = rows[k][n][data.draw(st.integers(0, len(rows[k][n]) - 1))]
        coeff[data.draw(st.sampled_from(["num", "den"]))] = \
            data.draw(_coeff_values)
    elif kind == "zero":
        rows[k][n] = copy.deepcopy(_ZERO)
    elif kind == "duplicate":
        rows.append(copy.deepcopy(rows[k]))
    else:
        rows[k].pop()
    try:
        obj = import_object(_canonical_bytes(block))
    except ValueError:
        return
    # Accepted: every index is an in-range int, so the exporter's order
    # is well defined, and re-export must give the (re-sorted) table back.
    for name, cols in _HOPF_TABLES.items():
        block[name].sort(key=lambda e: e[:cols])
    assert reexport_bytes(obj) == _canonical_bytes(block)


@pytest.mark.parametrize("table,entry,message", [
    ("mult", [0, 0, 16, _SCALAR], "out of range"),
    ("mult", [0, -1, 0, _SCALAR], "out of range"),
    ("antipode", _UQSL2_P2["antipode"][0], "duplicate"),
    ("unit", [1, _ZERO], "zero scalar"),
])
def test_import_validation_messages(table, entry, message):
    block = copy.deepcopy(_UQSL2_P2)
    block[table].append(copy.deepcopy(entry))
    with pytest.raises(ValueError, match=message):
        import_object(block)
