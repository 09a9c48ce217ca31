"""Child-process side of the benchmark.

    python3 bench/child.py setup P
    python3 bench/child.py trace-verify P SEED SAMPLE_SIZE|- SUITE...
    python3 bench/child.py trace-eval STRUCTURE EXPRESSION
    python3 bench/child.py trace-export OBJECT...
    python3 bench/child.py roundtrip DIR OBJECT...
    python3 bench/child.py probe SEED
    python3 bench/child.py reference

run.py starts each as its own process with `src` on
PYTHONPATH; each prints one JSON object on stdout.  `reference` instead
rewrites eval_reference.json and expected_checks.json from the engine at
hand; run it only when a deliberate change alters eval output or check
names, and commit that change on its own.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import hashlib  # noqa: E402  (T_START must be taken first)
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def cmd_setup(p: str) -> None:
    import hopfbench.cli  # noqa: F401  (what every CLI process imports)
    t_import = time.monotonic()
    from hopfbench.taft import taft_system
    taft_system(int(p))
    _emit({"t_start": T_START, "t_import": t_import,
           "t_setup": time.monotonic()})


def cmd_trace_verify(p: str, seed: str, sample_size: str, *suites) -> None:
    """Traced `verify`: one span per suite, same work as one run_suite call."""
    import tracing
    counters = tracing.install()
    spans = tracing.Spans()
    from hopfbench.report import (SuiteConfig, VerificationReport, render,
                                  run_suite)
    from hopfbench.taft import taft_system

    kw = dict(p=int(p), seed=int(seed))
    if sample_size != "-":
        kw["sample_size"] = int(sample_size)
    with spans.span("taft_system"):
        system = taft_system(int(p))
    results = []
    for suite in suites:
        with spans.span(f"suite.{suite}"):
            results += run_suite(SuiteConfig(suite=suite, **kw)).results
    with spans.span("report.render"):
        results.sort(key=lambda r: r.name)
        report = VerificationReport(SuiteConfig(suite=",".join(suites), **kw),
                                    results)
        payload = render(report, "json")
    _emit({
        "spans": spans.records,
        "counters": counters.as_dict(),
        "rows": tracing.rows_held(system),
        "checks": [{"name": r.name, "status": r.status,
                    "cases": r.cases_checked, "elapsed": r.elapsed}
                   for r in results],
        "report_sha256": hashlib.sha256(payload).hexdigest(),
    })


def cmd_trace_eval(structure: str, expression: str) -> None:
    import tracing
    counters = tracing.install()
    spans = tracing.Spans()
    with spans.span("import"):
        from hopfbench.cli import evaluate_expression
        from hopfbench.taft import taft_system
    with spans.span("taft_system"):
        system = taft_system(2)
    with spans.span("eval"):
        output = evaluate_expression(2, expression, structure)
    _emit({"output": output, "spans": spans.records,
           "counters": counters.as_dict(),
           "rows": tracing.rows_held(system)})


def cmd_trace_export(*objects) -> None:
    import tracing
    counters = tracing.install()
    spans = tracing.Spans()
    from hopfbench.cli import export_bytes, import_object, reexport_bytes
    from hopfbench.taft import taft_system
    with spans.span("taft_system"):
        system = taft_system(2)
    same = {}
    for name in objects:
        with spans.span(f"export.{name}"):
            payload = export_bytes(name, 2)
        with spans.span(f"import.{name}"):
            obj = import_object(payload)
        with spans.span(f"reexport.{name}"):
            same[name] = reexport_bytes(obj) == payload
    _emit({"same": same, "spans": spans.records,
           "counters": counters.as_dict(),
           "rows": tracing.rows_held(system)})


def cmd_roundtrip(directory: str, *objects) -> None:
    """Whether import_object then reexport_bytes gives back each exported
    file (k.json for the k-th object) byte for byte."""
    from hopfbench.cli import import_object, reexport_bytes
    same = {}
    for k, name in enumerate(objects):
        with open(os.path.join(directory, f"{k}.json"), "rb") as fh:
            payload = fh.read()
        same[name] = reexport_bytes(import_object(payload)) == payload
    _emit(same)


def cmd_probe(seed: str) -> None:
    from probes import run_probes
    _emit(run_probes(int(seed)))


def cmd_reference() -> None:
    from hopfbench.cli import evaluate_expression
    from hopfbench.report import SuiteConfig, run_suite

    import workloads

    evals = {}
    for reqs in workloads.pool().values():
        for structure, expression in reqs:
            evals[workloads.reference_key(structure, expression)] = \
                evaluate_expression(2, expression, structure)
    checks = {}
    specs = dict(workloads.VERIFY, sweep=workloads.SWEEP,
                 mutations=workloads.NEGATIVE_CONTROL)
    for name, (p, suites, _) in specs.items():
        report = run_suite(SuiteConfig(p=p, suite=",".join(suites),
                                       sample_size=1))
        checks[name] = sorted(r.name for r in report.results)
    for fname, obj in (("eval_reference.json", evals),
                       ("expected_checks.json", checks)):
        with open(os.path.join(HERE, fname), "w") as fh:
            json.dump(obj, fh, indent=1, sort_keys=True, ensure_ascii=False)
            fh.write("\n")


COMMANDS = {
    "setup": cmd_setup,
    "trace-verify": cmd_trace_verify,
    "trace-eval": cmd_trace_eval,
    "trace-export": cmd_trace_export,
    "roundtrip": cmd_roundtrip,
    "probe": cmd_probe,
    "reference": cmd_reference,
}


def main(argv) -> int:
    if not argv or argv[0] not in COMMANDS:
        sys.stderr.write(__doc__)
        return 2
    COMMANDS[argv[0]](*argv[1:])
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
