"""The benchmark's own tests: python3 -m pytest bench/tests -q"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _traced(*args) -> dict:
    runner = run.Runner(os.getcwd())
    out = subprocess.run([sys.executable, run.CHILD, *map(str, args)],
                         capture_output=True, env=runner.env, cwd=run.ROOT,
                         check=True, timeout=300).stdout
    return json.loads(out)


COUNTS = ("cyclo.mul_calls", "cyclo.mul_single_term_share", "cyclo.add_calls",
          "cyclo.inv_calls", "sparse.get_calls", "sparse.memo_hit_ratio",
          "sparse.subspace_add_calls", "sparse.rows.ddouble_mult",
          "sparse.rows.hdouble_mult", "sparse.rows.action",
          "sparse.rows.coaction", "checks.cases_total")


def _counts(data: dict) -> dict:
    trace = run.Trace()
    trace.add(data)
    metrics = trace.metrics()
    return {k: metrics[k] for k in COUNTS}


def test_traced_verify_counts_repeat_exactly():
    # p=3 runs generators plus a seeded sample, so the seed matters here.
    args = ("trace-verify", 3, 11, 20, "yd")
    first, second = _traced(*args), _traced(*args)
    assert _counts(first) == _counts(second)
    assert first["report_sha256"] == second["report_sha256"]
    assert _counts(first)["checks.cases_total"] > 0
    assert _counts(first)["sparse.rows.action"] > 0


def test_traced_eval_counts_repeat_exactly():
    kind, structure, expr = workloads.draw(4)[0]
    first = _traced("trace-eval", structure, expr)
    second = _traced("trace-eval", structure, expr)
    assert _counts(first) == _counts(second)
    reference = run._load("eval_reference.json")
    assert first["output"] == reference[workloads.reference_key(structure, expr)]


@pytest.mark.parametrize("make", [
    lambda s: probes.single_term_inputs(s, 50, 8),
    lambda s: probes.dense_inputs(s, 50, 4),
    lambda s: probes.vector_inputs(s, 50, 256, 3, 8),
    lambda s: probes.row_inputs(s, 50, 1296),
    lambda s: workloads.draw(s),
])
def test_inputs_are_generated_from_the_seed(make):
    assert make(3) == make(3)
    assert make(3) != make(4)


def test_draw_sends_every_kind_equally_and_is_covered_by_the_reference():
    reference = run._load("eval_reference.json")
    for seed in range(5):
        reqs = workloads.draw(seed)
        assert len(reqs) == workloads.EVAL_COUNT
        for kind in workloads.KINDS:
            assert sum(r[0] == kind for r in reqs) == \
                workloads.EVAL_COUNT // len(workloads.KINDS)
        for _, structure, expr in reqs:
            assert workloads.reference_key(structure, expr) in reference


class _FakeChild(run.Child):
    def __init__(self, code: int, checks: list):
        report = {"checks": [{"name": n, "status": s} for n, s in checks]}
        super().__init__(0.0, code, 1.0, 1.0, json.dumps(report).encode(), b"")


def test_gate_flags_failed_missing_and_passing_fixtures():
    names = ["a.x.p2", "a.y.p2"]
    assert run.verify_problems(_FakeChild(0, [(n, "pass") for n in names]),
                               names) == []
    assert run.verify_problems(_FakeChild(1, [(n, "pass") for n in names]),
                               names)
    assert run.verify_problems(_FakeChild(0, [("a.x.p2", "pass"),
                                              ("a.y.p2", "fail")]), names)
    assert run.verify_problems(_FakeChild(0, [("a.x.p2", "pass")]), names)
    # negative control: exit 1 and every fixture failing
    assert run.verify_problems(_FakeChild(1, [(n, "fail") for n in names]),
                               names, want_code=1) == []
    assert run.verify_problems(_FakeChild(1, [("a.x.p2", "fail"),
                                              ("a.y.p2", "pass")]),
                               names, want_code=1)


def test_gate_compares_eval_output_with_the_reference():
    reference = {workloads.reference_key("product", "z del"): "2*q*1 - del z"}

    def child(code, out):
        return run.Child(0.0, code, 1.0, 1.0, out, b"")

    assert run.eval_problems(child(0, b"2*q*1 - del z\n"), reference,
                             "product", "z del") == []
    assert run.eval_problems(child(0, b"del z\n"), reference,
                             "product", "z del")
    assert run.eval_problems(child(2, b"2*q*1 - del z\n"), reference,
                             "product", "z del")


def test_negative_control_is_detected(tmp_path):
    run.negative_control(run.Runner(str(tmp_path)),
                         run._load("expected_checks.json"))


def _write(path, stamp: dict, wall: float) -> str:
    rec = {"stamp": stamp, "workload": "verify-p2", "seed": 1, "seconds": 15,
           "trace": 0, "attempted": 1, "failed": 0,
           "metrics": {"wall_s": wall, "setup_s": 0.2, "peak_rss_mb": 80.0}}
    path.write_text(json.dumps(rec) + "\n")
    return str(path)


def test_compare_refuses_different_environments(tmp_path):
    spec = run.load_spec()
    stamp = {"python": "3.11.7", "nproc": 2, "numpy_scipy": True,
             "bench": "x", "commit": "a", "source": "s"}
    old = _write(tmp_path / "old.jsonl", stamp, 10.0)
    other_commit = _write(tmp_path / "new.jsonl", dict(stamp, commit="b",
                                                       source="t"), 10.5)
    assert run.compare(old, other_commit, spec) == 0
    slower = _write(tmp_path / "slow.jsonl", stamp, 20.0)
    assert run.compare(old, slower, spec) == 1
    for key, value in (("numpy_scipy", False), ("nproc", 4),
                       ("python", "3.12.0"), ("bench", "y")):
        other = _write(tmp_path / "other.jsonl", dict(stamp, **{key: value}),
                       10.0)
        assert run.compare(old, other, spec) == 2
