"""Suite runner with deterministic, replayable verification reports.

A report is a plain data object: the configuration that produced it, the
ordered list of check results, and counts.  Rendering is canonical --
two runs with the same configuration and seeds produce byte-identical
JSON -- and `parse(render(r, "json")) == r`, where report equality
deliberately ignores wall times (they are display-only).

The suites are also the coverage plan: they alone choose the walk of
each law a check walks, a lemma walk or the run's `TupleWalks`.
"""

from __future__ import annotations

import os
from functools import partial
from typing import NamedTuple, Sequence, Union

from . import __version__
from .doubles import (chain_relations_check, check_double_identity,
                      check_factor_restrictions, check_quantum_comm_remarks,
                      check_quasitriangular, comodule_algebra_factor_walk,
                      eta_twist_product, heisenberg_chain,
                      module_algebra_factor_walk, module_factor_walk)
from .hopf import check_algebra_axioms, check_hopf_axioms, check_same_twist
from .results import (CheckResult, TupleWalks, associativity_walk, dim_check,
                      invert_expected_failure, lemma_walk, obligations_once,
                      subcoalgebra_walk, subcomodule_walk, summarize,
                      two_sided_lemma_walk)
from .taft import (basis_change, chain_heisenberg_checks, closed_form_check,
                   cqzd, cqzd_center_check, double_presentation_check,
                   h2_matches_cqzd_check, hq_action_table_check,
                   hq_coaction_table_check, hq_factorization_check, hqsl2,
                   taft_dual_check, taft_system, truly_heisenberg_chain,
                   uq_presentation_check, uqsl2, zdel_factors)
from .truncate import quotient_morphism_check, transport_corollaries
from .ydcat import (check_braided_commutative, check_comodule,
                    check_comodule_algebra, check_factor_embeddings,
                    check_locked_identity, check_module,
                    check_module_algebra, check_yd, flip_isomorphism)

__all__ = ["SCHEMA_VERSION", "ConfigError", "SuiteConfig",
           "VerificationReport", "SUITE_NAMES", "DEFAULT_SUITES",
           "run_suite", "render", "parse"]

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid run configuration (a usage error, not a failed check)."""


class SuiteConfig(NamedTuple):
    """What to verify and how hard to try.

    p picks the mode of the run's `TupleWalks` (`_coverage_mode`), which
    serve the laws with no proof route; seed and sample_size fix their
    draws, and nothing else reads them.  A law with a route takes it at
    every p and every sample_size: every law of hopf-axioms, the four R
    lines and action-composition of double, every walked law of yd and
    truncations, and the four factor laws and the flip algebra- and
    module-morphism lemmas of heisenberg.  Above p=2, a walk no larger
    than sample_size is walked whole.
    suite is a name, "all", a comma-separated list, or a sequence of
    names; an empty selection yields an empty report.
    """

    p: int = 2
    suite: Union[str, Sequence[str]] = "all"
    seed: int = 0
    sample_size: int = 10_000
    fail_fast: bool = False

    def selected(self) -> tuple:
        """Validated tuple of suite names, in canonical run order."""
        raw = self.suite
        if isinstance(raw, str):
            names = [s.strip() for s in raw.split(",") if s.strip()]
        else:
            names = [str(s) for s in raw]
        out = []
        for name in names:
            if name == "all":
                for s in DEFAULT_SUITES:
                    if s not in out:
                        out.append(s)
                continue
            if name not in SUITE_NAMES:
                raise ConfigError(
                    f"unknown suite {name!r}; expected one of "
                    f"{', '.join(SUITE_NAMES)} or 'all'")
            if name not in out:
                out.append(name)
        # canonical run order regardless of how the request was spelled
        return tuple(s for s in SUITE_NAMES if s in out)

    def validate(self) -> None:
        if not isinstance(self.p, int) or self.p < 2:
            raise ConfigError(f"p must be an integer >= 2, got {self.p!r}")
        # a bool is an int, but it renders as true or false
        if type(self.seed) is not int or not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must be a 64-bit integer, got {self.seed!r}")
        if type(self.sample_size) is not int or self.sample_size < 1:
            raise ConfigError(f"sample_size must be an integer >= 1, "
                              f"got {self.sample_size!r}")
        if type(self.fail_fast) is not bool:
            raise ConfigError(f"fail_fast must be a bool, "
                              f"got {self.fail_fast!r}")
        self.selected()

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "suite": list(self.selected()),
            "mode": _coverage_mode(self.p),
            "seed": self.seed,
            "sample_size": self.sample_size,
            "fail_fast": self.fail_fast,
        }


class VerificationReport:
    """Configuration + ordered check results.  Equality ignores wall times."""

    __slots__ = ("config", "results", "engine_version", "schema_version")

    def __init__(self, config: SuiteConfig, results: list,
                 engine_version: str = __version__,
                 schema_version: int = SCHEMA_VERSION):
        self.config = config
        self.results = results
        self.engine_version = engine_version
        self.schema_version = schema_version

    @property
    def summary(self) -> dict:
        p, f, s = summarize(self.results)
        return {"pass": p, "fail": f, "skipped": s,
                "total": len(self.results)}

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "engine_version": self.engine_version,
            "config": self.config.to_dict(),
            "summary": self.summary,
            "checks": [r.to_dict() for r in self.results],
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, VerificationReport):
            return NotImplemented
        return self.to_dict() == other.to_dict()


def render(report: VerificationReport, fmt: str = "text") -> bytes:
    """Serialize a report; "json" is canonical and byte-stable."""
    if fmt == "json":
        import json
        text = json.dumps(report.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        return (text + "\n").encode("utf-8")
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    cfg = report.config
    lines = [
        f"hopfbench {report.engine_version} verification report "
        f"(schema {report.schema_version})",
        f"p={cfg.p}  suites=[{', '.join(cfg.selected())}]  "
        f"mode={_coverage_mode(cfg.p)}  seed={cfg.seed}  "
        f"sample_size={cfg.sample_size}",
        "",
    ]
    lines.extend(r.line() for r in report.results)
    s = report.summary
    lines.append("")
    lines.append(f"summary: {s['pass']} passed, {s['fail']} failed, "
                 f"{s['skipped']} skipped ({s['total']} checks)")
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse(data) -> VerificationReport:
    """Inverse of render(report, "json") up to report equality."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    import json
    obj = json.loads(data)
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema: "
                         f"{obj.get('schema_version')!r}")
    c = obj["config"]
    if c["mode"] != _coverage_mode(c["p"]):
        raise ValueError(f"report mode {c['mode']!r} is not "
                         f"{_coverage_mode(c['p'])!r}, the mode of p={c['p']}")
    cfg = SuiteConfig(p=c["p"], suite=tuple(c["suite"]),
                      seed=c["seed"], sample_size=c["sample_size"],
                      fail_fast=c.get("fail_fast", False))
    results = [CheckResult(r["name"], r["status"], r["mode"],
                           r["cases_checked"], r["witness"])
               for r in obj["checks"]]
    return VerificationReport(config=cfg, results=results,
                              engine_version=obj["engine_version"])


# -- helpers ------------------------------------------------------------------

def _skip_lines(what: str, certificates, names) -> list:
    """The lines `names`, skipped: they need `what`, which the first
    failed of its `certificates` denies."""
    bad = next(c for c in certificates if not c.ok)
    return [CheckResult(name, "skipped", f"needs {what}; {bad.name} failed")
            for name in names]


def _rename(results, prefix: str) -> list:
    return [r._replace(name=f"{prefix}-{r.name}") for r in results]


# -- the coverage plan ---------------------------------------------------------

def _coverage_mode(p: int) -> str:
    """The mode of the run's tuple walks: every tuple at p=2, the
    generator head and a seeded sample above it."""
    return "exhaustive" if p == 2 else "generators"


def _walks(cfg: SuiteConfig) -> TupleWalks:
    """The run's tuple walks."""
    return TupleWalks(_coverage_mode(cfg.p), cfg.seed, cfg.sample_size)


def _hunt(cfg: SuiteConfig) -> TupleWalks:
    """Counterexample searches need the generator head: "generators", 200
    samples, at every p."""
    return TupleWalks("generators", cfg.seed, 200)


# -- suites --------------------------------------------------------------------
#
# Each suite is a generator, so run_suite can stop pulling checks as soon
# as fail_fast sees a failure.

def _suite_hopf_axioms(cfg: SuiteConfig):
    sys = taft_system(cfg.p)
    for H, prefix in ((sys.pair.primal, "taft"), (sys.pair.dual, "taft-dual"),
                      (sys.double.hopf, "ddouble")):
        yield from _rename(check_hopf_axioms(
            H, associativity_walk(H), two_sided_lemma_walk(H),
            two_sided_lemma_walk(H)), prefix)
    A = sys.heis.algebra
    yield from _rename(check_algebra_axioms(A, associativity_walk(A)),
                       "hdouble")


def _suite_double(cfg: SuiteConfig):
    sys = taft_system(cfg.p)
    D, Hd = sys.double, sys.heis
    yield from double_presentation_check(sys)
    yield taft_dual_check(sys.pair)
    yield check_double_identity(D)
    yield eta_twist_product(D, Hd)
    yield closed_form_check(sys, _walks(cfg))
    yield from check_quasitriangular(D, lemma_walk(D.hopf, 1))
    # rho((1 (x) m)(mu (x) 1)) = rho(1 (x) m) rho(mu (x) 1), a case of the
    # module law; it walks after the R lines, so that they, and not it,
    # count the normality of D's R that both rest on
    yield check_module(sys.yd, module_factor_walk(D, sys.yd.action),
                       name="action-composition")
    hunt = _hunt(cfg)
    yield from check_quantum_comm_remarks(D, Hd, hunt, hunt)


def _suite_yd(cfg: SuiteConfig):
    sys = taft_system(cfg.p)
    y = sys.yd
    # The five yd proof walks, each built where its check runs:
    # module-action on the two factors of D(B) and of H(B*),
    # module-algebra and comodule-algebra on the two factors of H(B*),
    # yd-condition on a subcoalgebra of D(B) against the generators of
    # H(B*), and braided-commutative on a subcomodule of H(B*) against its
    # generators (see each check).
    yield check_module(y, module_factor_walk(sys.double, y.action))
    yield check_module_algebra(
        y, module_algebra_factor_walk(sys.double, y.action))
    yield check_comodule(y)
    yield check_comodule_algebra(y, comodule_algebra_factor_walk(sys.double, y))
    yield check_yd(y, subcoalgebra_walk(y.hopf, y.algebra, 2))
    yield check_braided_commutative(y, subcomodule_walk(y))


def _suite_heisenberg(cfg: SuiteConfig):
    sys = taft_system(cfg.p)
    yield from basis_change(sys)
    restricts = check_factor_restrictions(sys.yd)
    yield from restricts
    yield from transport_corollaries(restricts, ("braided-symmetric",
                                                 "locked-identity"))
    if not all(c.ok for c in restricts):
        yield from _skip_lines("the factor structures", restricts, (
            "braided-product-is-hdouble", "factor-embedding", "flip-bijective",
            "flip-algebra-morphism", "flip-module-morphism",
            "flip-comodule-morphism"))
        return
    bp2 = heisenberg_chain(sys.yd, 2)
    yield check_same_twist(bp2.yd.algebra, sys.heis.algebra,
                           "braided-product-is-hdouble")
    yield check_factor_embeddings(bp2)
    yield from flip_isomorphism(*bp2.factors)


def _suite_chains(cfg: SuiteConfig):
    sys = taft_system(cfg.p)
    p = cfg.p
    failed = [c for c in check_factor_restrictions(sys.yd) if not c.ok]
    if failed:
        # no three full-double factors to chain: the lines on them skip
        yield from failed
        yield from _skip_lines("the factor structures", failed, (
            "full-chain3-relations", "full-chain3-braided-commutativity-fails",
            "full-chain3-embedding"))
    else:
        ch3 = heisenberg_chain(sys.yd, 3)
        yield from chain_relations_check(ch3, sys.double, prefix="full-chain3")
        yield invert_expected_failure(
            check_braided_commutative(ch3.yd, _hunt(cfg)),
            "full-chain3-braided-commutativity-fails")
        yield check_factor_embeddings(ch3, name="full-chain3-embedding")
    yield cqzd_center_check(cqzd(p))
    checks, _ = zdel_factors(p)
    failed = [c for c in checks if not c.ok]
    if failed:
        # no z/del factors to chain: the lines on them skip
        yield from failed
        yield from _skip_lines("the z/del factors", failed, (
            *(f"zdel-chain{k}-dimension" for k in (1, 2, 3, 4)),
            *(f"zdel-chain4-{law}" for law in (
                "mixed", "z-straighten", "del-straighten", "nilpotent",
                "embedding")),
            "zdel-chain3-yd-condition", "zdel-interface-locked-identity",
            "zdel-chain3-braided-commutative" if p == 2
            else "zdel-chain3-braided-commutativity-fails",
            "h2-weyl-isomorphism"))
        return
    chains = {k: truly_heisenberg_chain(p, k) for k in (1, 2, 3, 4)}
    for k, ch in chains.items():
        yield dim_check(f"zdel-chain{k}-dimension", ch.algebra.dim, p ** k)
    yield from chain_heisenberg_checks(chains[4], prefix="zdel-chain4")
    yield check_factor_embeddings(chains[4].chain, name="zdel-chain4-embedding")
    yield check_yd(chains[3].yd, _walks(cfg), name="zdel-chain3-yd-condition")
    fd, fz = chains[2].chain.factors
    # the two p-dimensional factors of chain(2): every pair, at every p
    yield check_locked_identity(
        fd, fz, TupleWalks("exhaustive", 0, 0),
        name="zdel-interface-locked-identity")
    # Like-type factors two positions apart stop commuting in the braided
    # sense as soon as squares survive: at p=2 nilpotency of degree two
    # hides the obstruction, for larger p a counterexample must exist.
    bc = check_braided_commutative(
        chains[3].yd, _walks(cfg) if p == 2 else _hunt(cfg),
        name="zdel-chain3-braided-commutative")
    yield bc if p == 2 else invert_expected_failure(
        bc, "zdel-chain3-braided-commutativity-fails")
    yield h2_matches_cqzd_check(chains[2])


def _suite_truncations(cfg: SuiteConfig):
    p = cfg.p
    uq = uqsl2(p)
    yield from uq.checks
    hq_lines = ("hq-lambda-power", "hq-dimension", "hq-action-table",
                "hq-coaction-table", "hq-factorization", "comodule-coaction",
                "comodule-algebra")
    if uq.hopf is None:
        # no u_q(sl_2) to read: the four laws fail as corollaries of its
        # certificates, and the lines on it skip
        yield quotient_morphism_check(uq.hq)
        yield from transport_corollaries(uq.checks)
        yield from _skip_lines("u_q(sl_2)", uq.checks, (
            "uq-presentation-relations", "uq-presentation-coalgebra",
            "uq-presentation-generation", "uq-dimension", *hq_lines))
        return
    yield from uq_presentation_check(uq)
    yield dim_check("uq-dimension", uq.hopf.dim, 2 * p ** 3)
    morphism = quotient_morphism_check(uq.hq)
    yield morphism
    hq = hqsl2(p)
    yield from hq.checks
    # the four laws that the transport lemma carries from H(B*) to Hq are
    # its corollaries (see transport_action)
    yield from transport_corollaries(
        [*uq.checks, morphism, *hq.transport.certificates])
    if not hq.transport.ok:
        # no structure to read: the lines on it skip
        yield from _skip_lines("the transported structure",
                               hq.transport.certificates, hq_lines)
        return
    yield dim_check("hq-dimension", hq.yd.dim, 2 * p ** 3)
    yield hq_action_table_check(hq)
    yield hq_coaction_table_check(hq)
    yield hq_factorization_check(hq, lemma_walk(hq.algebra))
    yield check_comodule(hq.yd)
    yield check_comodule_algebra(hq.yd, lemma_walk(hq.algebra))


def _suite_mutations(cfg: SuiteConfig):
    from .mutations import MUTATIONS, run_mutation
    # the negative controls walk a pinned sample, whatever the run's seed
    # and sample size
    controls = TupleWalks("generators", 0, 10_000)
    for tag in MUTATIONS:
        yield run_mutation(tag, cfg.p, controls)


_SUITES = {
    "hopf-axioms": _suite_hopf_axioms,
    "double": _suite_double,
    "yd": _suite_yd,
    "heisenberg": _suite_heisenberg,
    "chains": _suite_chains,
    "truncations": _suite_truncations,
    "mutations": _suite_mutations,
}

SUITE_NAMES = tuple(_SUITES)

# "all" is the everything-should-pass selection; the mutation fixtures are
# negative controls that *must* fail, so they only run when named.
DEFAULT_SUITES = tuple(s for s in SUITE_NAMES if s != "mutations")


def _run_one(config: SuiteConfig, suite: str) -> list:
    """One suite's results; with fail_fast, up to its first failure.  The
    obligations that its walks share run once in it (`obligations_once`),
    and the suite's report does not depend on what ran before it."""
    out = []
    with obligations_once():
        for r in _SUITES[suite](config):
            out.append(r)
            if config.fail_fast and r.status == "fail":
                break
    return out


class BrokenProcessPool(RuntimeError):
    """A suite worker ended without sending its results: it was killed by
    a signal, or it exited early."""


class _RemoteTraceback(Exception):
    """The traceback of an exception raised in a suite worker, as text."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


def _work(run, suite: str, out: int) -> int:
    """In a forked worker: `run(suite)`, or the exception it raised with
    its traceback, pickled onto the pipe `out`; the worker's exit code."""
    import pickle
    try:
        payload, code = (True, run(suite)), 0
    except BaseException as exc:            # sent to the parent to raise
        import traceback
        payload, code = (False, exc, traceback.format_exc()), 1
    try:
        data = pickle.dumps(payload)
    except Exception as exc:                # a payload that won't pickle
        data, code = pickle.dumps((False, RuntimeError(
            f"a suite worker could not send its payload: {exc!r}"), "")), 1
    view = memoryview(data)
    while view:
        view = view[os.write(out, view):]
    return code


def _pool_map(run, suites: tuple, workers: int, p: int) -> list:
    """`list(map(run, suites))` in at most `workers` forked workers, one
    suite each, whose results come back pickled over a pipe.

    The cached taft_system is built first, so that every worker inherits
    it instead of building its own.  Forking is safe here: hopfbench
    starts no thread.

    The first exception from any suite, and a worker that ends without
    its results (BrokenProcessPool), kill every other worker and are
    raised at once, instead of after the suites still running have
    finished.  Either way every worker has been reaped when this returns
    or raises: the console entry ends the process with os._exit, which
    runs no atexit hook to reap it.
    """
    import pickle
    import selectors
    import signal

    taft_system(p)
    out = [None] * len(suites)
    todo = list(enumerate(suites))
    running = {}                            # pipe fd -> (pid, index, chunks)
    with selectors.DefaultSelector() as sel:
        try:
            while todo or running:
                while todo and len(running) < workers:
                    i, suite = todo.pop(0)
                    rfd, wfd = os.pipe()
                    try:
                        pid = os.fork()
                    except BaseException:
                        os.close(rfd)
                        os.close(wfd)
                        raise
                    if pid == 0:            # the worker: never returns
                        code = 1
                        try:
                            os.close(rfd)
                            code = _work(run, suite, wfd)
                        finally:
                            os._exit(code)
                    os.close(wfd)
                    running[rfd] = (pid, i, [])
                    sel.register(rfd, selectors.EVENT_READ)
                for key, _ in sel.select():
                    fd = key.fd
                    pid, i, chunks = running[fd]
                    chunk = os.read(fd, 1 << 16)
                    if chunk:
                        chunks.append(chunk)
                        continue
                    sel.unregister(fd)
                    os.close(fd)
                    del running[fd]
                    _, status = os.waitpid(pid, 0)
                    try:
                        ok, *got = pickle.loads(b"".join(chunks))
                    except Exception:
                        how = (f"killed by signal {os.WTERMSIG(status)}"
                               if os.WIFSIGNALED(status) else "exit code "
                               f"{os.waitstatus_to_exitcode(status)}")
                        raise BrokenProcessPool(
                            f"the worker of suite {suites[i]!r} ended "
                            f"without its results ({how})") from None
                    if not ok:
                        exc, text = got
                        raise exc from _RemoteTraceback(text)
                    out[i] = got[0]
        except BaseException:
            for fd, (pid, _, _) in running.items():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(fd)
            raise
    return out


def run_suite(config: SuiteConfig) -> VerificationReport:
    """Run the selected suites and collect a deterministic report.

    Results are sorted by (tagged) check name; every check runs even when
    earlier ones fail, unless fail_fast is set: then no suite is asked for
    another check after the first failure.  Two results with the same
    tagged name are an engine error (RuntimeError), not a silent drop.

    Two or more suites on two or more usable CPUs run side by side in
    forked workers (`_pool_map`), one suite each, unless fail_fast is
    set; the report is the same either way.
    """
    config.validate()
    suites = config.selected()
    run = partial(_run_one, config)
    workers = min(len(suites), len(os.sched_getaffinity(0)))
    if config.fail_fast or workers < 2:
        batches = map(run, suites)      # lazy: fail_fast stops pulling suites
    else:
        batches = _pool_map(run, suites, workers, config.p)
    results = []
    seen = set()
    for suite, batch in zip(suites, batches):
        for r in batch:
            tagged = r._replace(name=f"{suite}.{r.name}.p{config.p}")
            if tagged.name in seen:
                raise RuntimeError(f"duplicate check name {tagged.name!r}")
            seen.add(tagged.name)
            results.append(tagged)
        if config.fail_fast and any(r.status == "fail" for r in batch):
            break
    results.sort(key=lambda r: r.name)
    return VerificationReport(config=config, results=results)
