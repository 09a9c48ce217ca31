#!/usr/bin/env python3
"""hopfbench benchmark: end-to-end and per-layer metrics of the CLI.

    python3 bench/run.py                               # every workload
    python3 bench/run.py --workload verify-p2 --seed 3 --seconds 10 --trace 0
    python3 bench/run.py --trace 1                     # per-layer metrics
    python3 bench/run.py --out results.jsonl ...       # append full records
    python3 bench/run.py --compare old.jsonl new.jsonl

Every hopfbench process is a child started from this one process,
one at a time: no threads, no parallel children.  Each child's time and
peak RSS come from os.wait4 on that child alone.  Every output is checked
(see bench/README.md); the last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones.  Exit status: 0 all outputs correct, 1 some output wrong,
2 the benchmark could not run (no result line).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

# Set-up children are spread over the run, between requests, so that
# setup_s (their median) samples the whole run and not one moment of it.
# A run takes at least SETUP_MIN of them and at least SETUP_SECONDS of
# set-up in all: about ten at p=2, where one takes 0.25 s, three at p=3.
SETUP_MIN = 3
SETUP_SECONDS = 2.5
SETUP_EVERY = 10        # eval requests between set-up children
TRACED_EVALS = 20       # eval requests replayed traced and untraced
TIME_LIMIT_S = 170      # the whole run, so a stuck child cannot hang it
# Printed and recorded beside the BENCHMARK.json metrics; see README.md.
EXTRA_UNITS = {"eval_p50_ms": "ms", "eval_p90_ms": "ms", "export_s": "s",
               "failed_ratio": "ratio"}


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


# -- children ------------------------------------------------------------------

class Child:
    """A finished child: exit code, wall seconds, peak RSS MB, output."""

    def __init__(self, t0, code, wall, rss_mb, out, err):
        self.t0, self.code, self.wall, self.rss_mb = t0, code, wall, rss_mb
        self.out, self.err = out, err

    def json(self):
        try:
            return json.loads(self.out)
        except ValueError:
            raise BenchError(f"child printed no JSON (exit {self.code}): "
                             f"{self.err.decode(errors='replace')[-2000:]}")


class Runner:
    """Starts children one at a time and reaps each with os.wait4."""

    def __init__(self, work: str):
        self.work = work
        env = dict(os.environ, PYTHONHASHSEED="0")
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        # Installed packages run from cached bytecode; so do the children.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env = env

    def run(self, argv) -> Child:
        out_path = os.path.join(self.work, "stdout")
        err_path = os.path.join(self.work, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, cwd=ROOT, env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.monotonic() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        return Child(t0, code, wall, usage.ru_maxrss / 1024, stdout, stderr)

    def cli(self, *args) -> Child:
        return self.run([sys.executable, "-m", "hopfbench", *map(str, args)])

    def child(self, *args) -> Child:
        return self.run([sys.executable, CHILD, *map(str, args)])


# -- correctness gate ----------------------------------------------------------

class Gate:
    """Counts operations; an operation with any problem counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for msg in problems:
                print(f"FAILED {what}: {msg}", file=sys.stderr)


def _load(name: str):
    with open(os.path.join(HERE, name), encoding="utf-8") as fh:
        return json.load(fh)


def verify_argv(spec, seed: int) -> list:
    p, suites, flags = spec
    return ["verify", "--p", p, "--suite", ",".join(suites), *flags,
            "--seed", seed, "--format", "json"]


def verify_problems(ch: Child, expected: list, want_code: int = 0) -> list:
    """What is wrong with one `verify --format json` child, if anything."""
    if ch.code != want_code:
        return [f"exit code {ch.code}, expected {want_code}: "
                f"{ch.err.decode(errors='replace')[-500:]}"]
    try:
        checks = json.loads(ch.out)["checks"]
    except (ValueError, KeyError):
        return ["no JSON report on stdout"]
    problems = []
    names = sorted(c["name"] for c in checks)
    if names != expected:
        problems.append(f"check names differ: missing "
                        f"{sorted(set(expected) - set(names))}, unexpected "
                        f"{sorted(set(names) - set(expected))}")
    if want_code == 0:
        bad = [c["name"] for c in checks if c["status"] == "fail"]
        if bad:
            problems.append(f"failed checks {bad}")
    elif any(c["status"] != "fail" for c in checks):
        problems.append("a corrupted fixture passed")
    return problems


def eval_problems(ch: Child, reference: dict, structure: str,
                  expr: str) -> list:
    """What is wrong with one `eval` child, if anything."""
    want = reference[workloads.reference_key(structure, expr)] + "\n"
    got = ch.out.decode("utf-8", errors="replace")
    problems = [] if ch.code == 0 else [f"exit code {ch.code}"]
    if got != want:
        problems.append(f"output {got[:200]!r} differs from the reference "
                        f"{want[:200]!r}")
    return problems


def negative_control(runner: Runner, expected: dict) -> None:
    """`verify --suite mutations` must exit 1 with every check failing."""
    ch = runner.cli(*verify_argv(workloads.NEGATIVE_CONTROL, 0))
    problems = verify_problems(ch, expected["mutations"], want_code=1)
    if problems:
        raise BenchError("the correctness gate missed the mutation fixtures: "
                         + "; ".join(problems))


def setup_child(runner: Runner, p: int) -> tuple:
    """(setup_s, import_s) of one fresh child: from its start to
    taft_system(p) built, and the import of hopfbench.cli alone."""
    ch = runner.child("setup", p)
    if ch.code:
        raise BenchError(f"setup child failed: {ch.err.decode()[-500:]}")
    t = ch.json()
    return t["t_setup"] - ch.t0, t["t_import"] - t["t_start"]


def pad_setup(runner: Runner, p: int, setup: list) -> None:
    """Add set-up children until the run has enough of them."""
    setup.append(setup_child(runner, p))
    while (len(setup) < SETUP_MIN
           or sum(s for s, _ in setup) < SETUP_SECONDS):
        setup.append(setup_child(runner, p))


# -- untraced workloads --------------------------------------------------------

def run_verify(runner, gate, name, seed, seconds, expected) -> dict:
    p = workloads.VERIFY[name][0]
    argv = verify_argv(workloads.VERIFY[name], seed)
    setup, walls, rss, first = [], [], [], None
    t0 = time.monotonic()
    while not walls or time.monotonic() - t0 < seconds:
        setup.append(setup_child(runner, p))
        ch = runner.cli(*argv)
        problems = verify_problems(ch, expected[name])
        first = first or ch.out
        if ch.out != first:
            problems.append("report bytes differ between repetitions")
        gate.record(f"{name} request {len(walls)}", problems)
        walls.append(ch.wall)
        rss.append(ch.rss_mb)
    pad_setup(runner, p, setup)
    return {"wall_s": statistics.median(walls),
            "setup_s": statistics.median(s for s, _ in setup),
            "peak_rss_mb": statistics.median(rss)}


def export_round(runner, gate) -> tuple:
    """Export every object, then import and re-export it; (walls, rss)."""
    objects = workloads.EXPORT_OBJECTS
    walls, rss, codes = [], [], []
    for k, obj in enumerate(objects):
        ch = runner.cli("export", "--p", 2, obj, "--out",
                        os.path.join(runner.work, f"{k}.json"))
        walls.append(ch.wall)
        rss.append(ch.rss_mb)
        codes.append(ch.code)
    rt = runner.child("roundtrip", runner.work, *objects)
    same = rt.json() if rt.code == 0 else {}
    for obj, code in zip(objects, codes):
        problems = [f"export exit code {code}"] if code else []
        if not same.get(obj):
            problems.append("export -> import_object -> re-export is not "
                            "byte-identical")
        gate.record(f"export {obj}", problems)
    return walls, rss


def run_cli_roundtrip(runner, gate, seed, seconds, reference) -> dict:
    requests = workloads.draw(seed)
    setup, evals, exports, round_walls, round_rss = [], [], [], [], []
    t0 = time.monotonic()
    while not round_walls or time.monotonic() - t0 < seconds:
        walls, rss = [], []
        for k, (kind, structure, expr) in enumerate(requests):
            if k % SETUP_EVERY == 0:
                setup.append(setup_child(runner, 2))
            ch = runner.cli("eval", "--p", 2, "--structure", structure, expr)
            gate.record(f"eval {kind} {structure} {expr!r}",
                        eval_problems(ch, reference, structure, expr))
            walls.append(ch.wall)
            rss.append(ch.rss_mb)
        evals += walls
        ewalls, erss = export_round(runner, gate)
        pad_setup(runner, 2, setup)
        exports.append(sum(ewalls))
        round_walls.append(sum(walls) + sum(ewalls))
        round_rss.append(max(rss + erss))
    deciles = statistics.quantiles(evals, n=10, method="inclusive")
    return {"wall_s": statistics.median(round_walls),
            "setup_s": statistics.median(s for s, _ in setup),
            "peak_rss_mb": statistics.median(round_rss),
            "eval_p50_ms": statistics.median(evals) * 1e3,
            "eval_p90_ms": deciles[8] * 1e3,
            "export_s": statistics.median(exports)}


# -- traced workloads ----------------------------------------------------------

class Trace:
    """Per-layer numbers merged from the traced children of one run."""

    def __init__(self):
        self.counters: dict = {}
        self.rows: dict = {}
        self.suites: dict = {}       # suite -> (seconds, rss_mb at its end)
        self.checks: dict = {}       # (suite, check) -> (cases, elapsed)

    def add(self, data: dict) -> None:
        for k, v in data["counters"].items():
            self.counters[k] = self.counters.get(k, 0) + v
        for k, v in data["rows"].items():
            self.rows[k] = max(self.rows.get(k, 0), v)
        for sp in data["spans"]:
            if sp["name"].startswith("suite."):
                self.suites[sp["name"][6:]] = (sp["end"] - sp["start"],
                                               sp["rss_mb"])
        for c in data.get("checks", ()):
            suite, rest = c["name"].split(".", 1)     # suite.check.pN
            self.checks[(suite, rest.rsplit(".", 1)[0])] = (c["cases"],
                                                            c["elapsed"])

    def metrics(self) -> dict:
        c = self.counters
        out = {
            "cyclo.mul_calls": c["mul"],
            "cyclo.mul_single_term_share": c["mul_single"] / max(c["mul"], 1),
            "cyclo.add_calls": c["add"],
            "cyclo.inv_calls": c["inv"],
            "sparse.get_calls": c["get"],
            "sparse.memo_hit_ratio": (c["get_hits"] + c["row_hits"])
            / max(c["get"] + c["row"], 1),
            "ydcat.action_row_calls": c["row"],
            "sparse.subspace_add_calls": c["subspace_add"],
            "checks.cases_total": sum(n for n, _ in self.checks.values()),
        }
        for k, v in self.rows.items():
            out[f"sparse.rows.{k}"] = v
        for s in workloads.SWEEP[1] + ("yd",):
            secs, rss = self.suites.get(s, (0.0, 0.0))
            out[f"suite.{s}.s"] = secs
            out[f"suite.{s}.rss_mb"] = rss
        for metric, key in workloads.TRACED_CHECKS.items():
            cases, elapsed = self.checks.get(key, (0, 0.0))
            out[f"check.{metric}.cases_per_s"] = cases / elapsed if elapsed else 0.0
        return out


def trace_verify(runner, gate, trace, spec, seed, expected_names) -> tuple:
    """One traced verify child; returns (its wall, its report sha256)."""
    p, suites, flags = spec
    sample = flags[1] if flags else "-"
    ch = runner.child("trace-verify", p, seed, sample, *suites)
    data = ch.json() if ch.code == 0 else None
    problems = [] if data else [f"traced child failed: {ch.err[-500:]!r}"]
    if data:
        trace.add(data)
        names = sorted(c["name"] for c in data["checks"])
        if names != expected_names:
            problems.append("traced check names differ from the expected set")
        if any(c["status"] == "fail" for c in data["checks"]):
            problems.append("a traced check failed")
    gate.record(f"traced verify {','.join(suites)}", problems)
    return ch.wall, data and data["report_sha256"]


def run_verify_traced(runner, gate, name, seed, expected) -> dict:
    trace = Trace()
    spec = workloads.VERIFY[name]
    traced_wall, sha = trace_verify(runner, gate, trace, spec, seed,
                                    expected[name])
    ch = runner.cli(*verify_argv(spec, seed))
    problems = verify_problems(ch, expected[name])
    if hashlib.sha256(ch.out).hexdigest() != sha:
        problems.append("traced and untraced report bytes differ")
    gate.record(f"{name} untraced request", problems)
    if name == "verify-p2":
        trace_verify(runner, gate, trace, workloads.SWEEP, seed,
                     expected["sweep"])
    out = trace.metrics()
    out["trace.overhead_ratio"] = traced_wall / ch.wall
    return out


def run_cli_traced(runner, gate, seed, reference) -> dict:
    trace = Trace()
    traced, untraced = 0.0, 0.0
    for kind, structure, expr in workloads.draw(seed)[:TRACED_EVALS]:
        tch = runner.child("trace-eval", structure, expr)
        ch = runner.cli("eval", "--p", 2, "--structure", structure, expr)
        problems = eval_problems(ch, reference, structure, expr)
        data = tch.json() if tch.code == 0 else {}
        if data.get("output") != reference[workloads.reference_key(structure,
                                                                   expr)]:
            problems.append("traced eval output differs from the reference")
        gate.record(f"eval {kind} {structure} {expr!r}", problems)
        if data:
            trace.add(data)
        traced += tch.wall
        untraced += ch.wall
    ch = runner.child("trace-export", *workloads.EXPORT_OBJECTS)
    data = ch.json() if ch.code == 0 else {"same": {}}
    if ch.code == 0:
        trace.add(data)
    for obj in workloads.EXPORT_OBJECTS:
        gate.record(f"traced export {obj}", [] if data["same"].get(obj) else
                    ["export -> import_object -> re-export is not "
                     "byte-identical"])
    out = trace.metrics()
    out["trace.overhead_ratio"] = traced / untraced
    return out


def run_workload(runner, gate, name, seed, seconds, traced, refs) -> dict:
    expected, reference = refs
    negative_control(runner, expected)
    if not traced and name == "cli-roundtrip":
        out = run_cli_roundtrip(runner, gate, seed, seconds, reference)
    elif not traced:
        out = run_verify(runner, gate, name, seed, seconds, expected)
    else:
        imports = [setup_child(runner, 2)[1] for _ in range(SETUP_MIN)]
        if name == "cli-roundtrip":
            out = run_cli_traced(runner, gate, seed, reference)
        else:
            out = run_verify_traced(runner, gate, name, seed, expected)
        out["cli.import_s"] = statistics.median(imports)
        probe = runner.child("probe", seed)
        if probe.code:
            raise BenchError(f"probe child failed: {probe.err.decode()[-1000:]}")
        out.update(probe.json())
    out["failed_ratio"] = gate.failed / max(gate.attempted, 1)
    return out


# -- results, stamp, comparison ------------------------------------------------

def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def _files(top: str, exts) -> list:
    return [os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs
            if f.endswith(exts) and "__pycache__" not in d]


def _importable(name: str) -> bool:
    try:
        __import__(name)
    except ImportError:
        return False
    return True


def environment_stamp() -> dict:
    """What two compared results must share (all but `commit`/`source`)."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        # hopf.py takes the numpy/scipy associativity certificate when both
        # import and a pure-Python loop otherwise: two different programs.
        "numpy_scipy": _importable("numpy") and _importable("scipy.sparse"),
        "bench": _digest(_files(HERE, (".py", ".json"))
                         + [os.path.join(ROOT, "BENCHMARK.json")]),
        "commit": commit,
        "source": _digest(_files(os.path.join(SRC, "hopfbench"), (".py",))),
    }


COMPARED_KEYS = ("python", "nproc", "numpy_scipy", "bench")


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}")


def _units(spec: dict) -> dict:
    units = dict(EXTRA_UNITS)
    for m in spec["end_to_end"] + spec["per_layer"]:
        units[m["name"]] = m["unit"]
    return units


def _read_records(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def compare(old_path: str, new_path: str, spec: dict) -> int:
    """Print each metric's median on both sides; 1 if any bound is broken."""
    old, new = _read_records(old_path), _read_records(new_path)
    if not old or not new:
        raise BenchError("both result files need at least one record")
    stamps = {json.dumps({k: r["stamp"].get(k) for k in COMPARED_KEYS},
                         sort_keys=True) for r in old + new}
    seconds = {r["seconds"] for r in old + new}
    if len(stamps) > 1 or len(seconds) > 1:
        print("refusing to compare results from different environments, "
              "benchmark code or run lengths:", file=sys.stderr)
        for s in sorted(stamps):
            print(f"  {s}", file=sys.stderr)
        print(f"  seconds: {sorted(seconds)}", file=sys.stderr)
        return 2
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse_count = 0
    keys = sorted({(r["workload"], r["trace"]) for r in old}
                  & {(r["workload"], r["trace"]) for r in new})
    for workload, trace in keys:
        a = [r for r in old if (r["workload"], r["trace"]) == (workload, trace)]
        b = [r for r in new if (r["workload"], r["trace"]) == (workload, trace)]
        print(f"{workload} trace={trace}: {len(a)} old runs, {len(b)} new runs")
        for name in sorted(set(a[0]["metrics"]) & set(b[0]["metrics"])):
            va = [r["metrics"][name] for r in a]
            vb = [r["metrics"][name] for r in b]
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma if ma else 0.0
            verdict = ""
            if name in bounds:
                m = bounds[name]
                worse = change if m["better"] == "lower" else -change
                verdict = "ok"
                if worse > m["bound"]:
                    verdict = f"REGRESSION (bound {m['bound']:.0%})"
                    worse_count += 1
                elif max(_spread(va), _spread(vb)) > m["bound"]:
                    verdict = "unresolved (spread above bound)"
            print(f"  {name:40s} {ma:14.6g} -> {mb:14.6g} {change:+8.1%}"
                  f"  spread {_spread(va):.1%}/{_spread(vb):.1%}  {verdict}")
    return 1 if worse_count else 0


def _check_checkout() -> None:
    if not os.path.isfile(os.path.join(SRC, "hopfbench", "__init__.py")):
        raise BenchError(f"no hopfbench source under {SRC}; run the benchmark "
                         "from a checkout of the repository")


def _on_alarm(signum, frame):
    raise BenchError(f"run exceeded {TIME_LIMIT_S} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=("all", "verify-p2", "verify-p3", "cli-roundtrip"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measuring time per workload (BENCHMARK.json "
                         "run_seconds by default)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, metavar="PATH",
                    help="append one JSON record per workload here")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)
    try:
        spec = load_spec()
        if args.compare:
            return compare(*args.compare, spec)
        _check_checkout()
        refs = (_load("expected_checks.json"), _load("eval_reference.json"))
        seconds = args.seconds or spec["run_seconds"]
        names = ([w["name"] for w in spec["workloads"]]
                 if args.workload == "all" else [args.workload])
        listed = [m["name"] for m in
                  spec["per_layer" if args.trace else "end_to_end"]]
        units = _units(spec)
        stamp = environment_stamp()
        print(f"# stamp {json.dumps(stamp, sort_keys=True)}")
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(TIME_LIMIT_S * len(names))
        gate_all, metrics = Gate(), {}
        work = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
        try:
            runner = Runner(work)
            for name in names:
                gate = Gate()
                values = run_workload(runner, gate, name, args.seed, seconds,
                                      args.trace, refs)
                missing = [m for m in listed if m not in values]
                if missing:
                    raise BenchError(f"{name} produced no value for {missing}")
                for m, v in values.items():
                    print(f"{name:14s} {m:40s} {v:16.6f} {units.get(m, '')}")
                gate_all.attempted += gate.attempted
                gate_all.failed += gate.failed
                prefix = "" if len(names) == 1 else f"{name}/"
                metrics.update({prefix + m: {"value": values[m], "unit": units[m]}
                                for m in listed})
                if args.out:
                    with open(args.out, "a", encoding="utf-8") as fh:
                        fh.write(json.dumps({
                            "stamp": stamp, "workload": name, "seed": args.seed,
                            "seconds": seconds, "trace": args.trace,
                            "attempted": gate.attempted, "failed": gate.failed,
                            "metrics": values}, sort_keys=True) + "\n")
        finally:
            signal.alarm(0)
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as exc:
        print(f"bench/run.py: error: {exc}", file=sys.stderr)
        return 2
    correct = gate_all.failed == 0
    print(json.dumps({"correct": correct, "attempted": gate_all.attempted,
                      "failed": gate_all.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
