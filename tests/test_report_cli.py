"""Tests for the suite runner, report serialization, and the CLI."""

from __future__ import annotations

import copy
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

import hopfbench.cli as cli_module
import hopfbench.report as report_module
from hopfbench.cli import export_bytes, import_object, main, reexport_bytes
from hopfbench.cyclo import QContext
from hopfbench.mutations import MUTATIONS
from hopfbench.report import (ConfigError, SuiteConfig, parse, render,
                              run_suite)
from hopfbench.results import CheckResult
from hopfbench.taft import taft_setup, taft_system


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


def test_resolved_mode_defaults():
    assert SuiteConfig(p=2).resolved_mode == "exhaustive"
    assert SuiteConfig(p=3).resolved_mode == "generators"
    assert SuiteConfig(p=3, mode="sample").resolved_mode == "sample"


@pytest.mark.parametrize("kwargs", [
    {"p": 1},
    {"mode": "bogus"},
    {"suite": "no-such-suite"},
    {"p": 3, "sample_size": 0},
    {"seed": -1},
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
    run_mutation = report_module.run_mutation

    def counted(tag, p):
        built.append(tag)
        return run_mutation(tag, p)

    monkeypatch.setattr(report_module, "run_mutation", counted)
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
# failures (chains), so they pin the bytes of the failure paths too.
REPORT_SHA256_P2 = {
    "mutations":
        "da228a5f744ca37e527e2ad180b4f619e13620f8dd3f8d49257592e6b478ea69",
    "chains":
        "b3e30ca0d5ab1f1279524b1725418f8f09fe5d7188209db93e41dde90dd69820",
    "truncations":
        "68d7a273277b78a4f4c6fd4f5d564203e0b06eb383a63cb9e0066d7d0d683b31",
}


@pytest.mark.parametrize("suite", sorted(REPORT_SHA256_P2))
def test_report_bytes_are_pinned(suite):
    data = render(run_suite(SuiteConfig(p=2, suite=suite)), "json")
    assert hashlib.sha256(data).hexdigest() == REPORT_SHA256_P2[suite]


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


def test_one_eval_builds_part_of_the_dual_product(monkeypatch):
    monkeypatch.setattr(cli_module, "_ENV_CACHE", {})
    monkeypatch.setattr(cli_module, "taft_system",
                        lambda p: taft_system(p, cached=False))
    assert cli_module.evaluate_expression(2, "E |> z") == "0"
    mult = cli_module._ENV_CACHE[2].sys.pair.dual.mult
    assert 0 < len(mult.rows) < mult.dim_v * mult.dim_w
    full = taft_setup(2, cached=False).dual.mult
    full.materialize()
    nonzero = {key for key, row in full.rows.items() if row}
    assert nonzero - set(mult.rows)       # some nonzero rows were never built


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


@pytest.mark.parametrize("name", ["taft", "taft-dual", "cqzd", "chain(2)"])
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
    enc = cli_module._scalar_json(single)
    assert cli_module._scalar_json(dense) is enc
    assert enc == [{"num": n, "den": "1"} for n in ("-1", "0", "1", "0")]


def test_export_cli(tmp_path, capsys):
    out = tmp_path / "cqzd.json"
    assert main(["export", "--p", "2", "cqzd", "--out", str(out)]) == 0
    data = json.loads(out.read_bytes())
    assert data["dim"] == 4
    assert data["field"] == {"type": "cyclotomic", "order": 8}
    assert main(["export", "--p", "2", "nosuch"]) == 2
    assert capsys.readouterr().err


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
