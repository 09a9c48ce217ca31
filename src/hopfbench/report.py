"""Suite runner with deterministic, replayable verification reports.

A report is a plain data object: the configuration that produced it, the
ordered list of check results, and counts.  Rendering is canonical --
two runs with the same configuration and seeds produce byte-identical
JSON -- and `parse(render(r, "json")) == r`, where report equality
deliberately ignores wall times (they are display-only).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

from . import __version__
from .doubles import (FactoredAction, chain_relations_check,
                      check_double_identity, check_quantum_comm_remarks,
                      check_quasitriangular, eta_twist_product,
                      heisenberg_chain, to_show_action_check)
from .hopf import check_algebra_axioms, check_hopf_axioms, render_element
from .mutations import MUTATIONS, run_mutation
from .results import Check, CheckResult, invert_expected_failure, summarize
from .taft import (basis_change, chain_heisenberg_checks, closed_form_check,
                   cqzd, cqzd_center_check, double_presentation_check,
                   h2_matches_cqzd_check, hq_action_table_check,
                   hq_coaction_table_check, hq_factorization_check, hqsl2,
                   taft_dual_check, taft_system, truly_heisenberg_chain,
                   uq_presentation_check, uqsl2)
from .truncate import quotient_morphism_check
from .ydcat import (_gen_indices, _iter_tuples, _mode_tag,
                    check_braided_commutative, check_braided_symmetric,
                    check_comodule, check_comodule_algebra,
                    check_factor_embeddings, check_locked_identity,
                    check_module, check_module_algebra, check_yd,
                    flip_isomorphism)

__all__ = ["SCHEMA_VERSION", "ConfigError", "SuiteConfig",
           "VerificationReport", "SUITE_NAMES", "DEFAULT_SUITES",
           "run_suite", "render", "parse"]

SCHEMA_VERSION = 1

MODES = ("exhaustive", "generators", "sample")


class ConfigError(ValueError):
    """Invalid run configuration (a usage error, not a failed check)."""


@dataclass
class SuiteConfig:
    """What to verify and how hard to try.

    mode=None resolves to "exhaustive" for p=2 and "generators" (generator
    tuples plus a seeded random sample) for larger p; suite is a name,
    "all", a comma-separated list, or a sequence of names.  An empty suite
    selection is allowed and yields an empty report.
    """

    p: int = 2
    suite: Union[str, Sequence[str]] = "all"
    mode: Optional[str] = None
    seed: int = 0
    sample_size: int = 10_000
    fail_fast: bool = False

    @property
    def resolved_mode(self) -> str:
        if self.mode is not None:
            return self.mode
        return "exhaustive" if self.p == 2 else "generators"

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
        if self.mode is not None and self.mode not in MODES:
            raise ConfigError(
                f"mode must be one of {', '.join(MODES)}, got {self.mode!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must be a 64-bit integer, got {self.seed!r}")
        if self.resolved_mode != "exhaustive" and self.sample_size < 1:
            raise ConfigError("sample_size must be >= 1 for sampled modes")
        self.selected()

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "suite": list(self.selected()),
            "mode": self.resolved_mode,
            "seed": self.seed,
            "sample_size": self.sample_size,
            "fail_fast": self.fail_fast,
        }


@dataclass(eq=False)
class VerificationReport:
    """Configuration + ordered check results.  Equality ignores wall times."""

    config: SuiteConfig
    results: list
    engine_version: str = __version__
    schema_version: int = SCHEMA_VERSION

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
        f"mode={cfg.resolved_mode}  seed={cfg.seed}  "
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
    obj = json.loads(data)
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema: "
                         f"{obj.get('schema_version')!r}")
    c = obj["config"]
    cfg = SuiteConfig(p=c["p"], suite=tuple(c["suite"]), mode=c["mode"],
                      seed=c["seed"], sample_size=c["sample_size"],
                      fail_fast=c.get("fail_fast", False))
    results = [CheckResult(r["name"], r["status"], r["mode"],
                           r["cases_checked"], r["witness"])
               for r in obj["checks"]]
    return VerificationReport(config=cfg, results=results,
                              engine_version=obj["engine_version"])


# -- mode adapters ------------------------------------------------------------

def _cubic_mode(cfg: SuiteConfig) -> str:
    """Triple quantifications on the full doubles: exhaustive is cubic in a
    256-dim space, so the exhaustive request maps to generator tuples plus
    the seeded sample (the coverage the module/YD claims are stated for)."""
    m = cfg.resolved_mode
    return "generators" if m == "exhaustive" else m


def _pair_mode(cfg: SuiteConfig) -> str:
    """For checks that only know exhaustive-or-sampled pair iteration."""
    m = cfg.resolved_mode
    return "exhaustive" if m == "exhaustive" else "sample"


def _hopf_mode(cfg: SuiteConfig) -> str:
    """The axiom checkers spell the sampled mode 'sampled'."""
    m = cfg.resolved_mode
    return "sampled" if m == "sample" else m


def _skip(name: str, reason: str) -> CheckResult:
    return CheckResult(name, "skipped", reason)


def _dim_check(name: str, got: int, want: int) -> CheckResult:
    chk = Check(name, "exhaustive", cases=1)
    return chk.result(None if got == want else f"dimension is {got}, expected {want}")


def _rename(results, prefix: str) -> list:
    return [replace(r, name=f"{prefix}-{r.name}") for r in results]


def _structure_identity_check(bp, algebra, mode: str, seed: int,
                              samples: int, name: str) -> CheckResult:
    """The braided-product algebra has exactly the given structure constants
    (same flat basis indexing on both sides)."""
    chk = Check(name, mode)
    A = bp.yd.algebra
    if A.dim != algebra.dim:
        return chk.result(f"dimensions differ: {A.dim} vs {algebra.dim}")
    chk.mode = _mode_tag(mode, seed, samples)
    d = A.dim
    ga = _gen_indices(A)
    gb = _gen_indices(algebra)
    gens = (ga | gb) if (ga is not None and gb is not None) else (ga or gb)
    rng = random.Random(seed)
    for i, j in _iter_tuples(mode, (d, d), (gens, gens), rng, samples):
        chk.cases += 1
        lhs = dict(A.mult.get(i, j))
        rhs = dict(algebra.mult.get(i, j))
        if lhs != rhs:
            la = A.space.render(A.space.labels[i])
            lb = A.space.render(A.space.labels[j])
            return chk.result(f"products of ({la}, {lb}) differ: "
                              f"{render_element(A.space, lhs)} vs "
                              f"{render_element(algebra.space, rhs)}")
    return chk.result()


# -- suites --------------------------------------------------------------------
#
# Each suite is a generator, so run_suite can stop pulling checks as soon
# as fail_fast sees a failure.

def _suite_hopf_axioms(cfg: SuiteConfig):
    sys = taft_system(cfg.p)
    hm, seed, n = _hopf_mode(cfg), cfg.seed, cfg.sample_size
    yield from _rename(check_hopf_axioms(sys.pair.primal, mode=hm, seed=seed,
                                         samples=n), "taft")
    yield from _rename(check_hopf_axioms(sys.pair.dual, mode=hm, seed=seed,
                                         samples=n), "taft-dual")
    yield from _rename(check_hopf_axioms(sys.double.hopf, mode=hm, seed=seed,
                                         samples=n), "ddouble")
    yield from _rename(check_algebra_axioms(sys.heis.algebra, mode=hm,
                                            seed=seed, samples=n), "hdouble")


def _suite_double(cfg: SuiteConfig):
    sys = taft_system(cfg.p)
    D, Hd = sys.double, sys.heis
    m, seed, n = cfg.resolved_mode, cfg.seed, cfg.sample_size
    yield from double_presentation_check(sys)
    yield taft_dual_check(sys.pair)
    yield check_double_identity(D)
    yield eta_twist_product(D, Hd, mode=m, seed=seed, samples=n)
    yield closed_form_check(sys, mode=_pair_mode(cfg), seed=seed, samples=n)
    yield to_show_action_check(D, FactoredAction(Hd, D), mode=m, seed=seed,
                               samples=n)
    if cfg.p == 2:
        yield from check_quasitriangular(D)
    else:
        yield _skip("r-quasitriangular",
                    "run with p=2 (R-matrix sums grow with dim^2)")
    # counterexample hunting needs the generator head, so the mode is pinned
    yield from check_quantum_comm_remarks(D, Hd, mode="generators", seed=seed,
                                          samples=200)


def _suite_yd(cfg: SuiteConfig):
    y = taft_system(cfg.p).yd
    cm, m, seed, n = _cubic_mode(cfg), cfg.resolved_mode, cfg.seed, cfg.sample_size
    yield check_module(y, mode=cm, seed=seed, samples=n)
    yield check_module_algebra(y, mode=cm, seed=seed, samples=n)
    yield check_comodule(y)
    yield check_comodule_algebra(y, mode=m, seed=seed, samples=n)
    yield check_yd(y, mode=cm, seed=seed, samples=n)
    yield check_braided_commutative(y, mode=m, seed=seed, samples=n)


def _suite_heisenberg(cfg: SuiteConfig):
    sys = taft_system(cfg.p)
    m, seed, n = cfg.resolved_mode, cfg.seed, cfg.sample_size
    yield from basis_change(sys).checks
    bp2 = heisenberg_chain(sys.pair.primal, 2, leftmost="dual", D=sys.double)
    dual_yd, base_yd = bp2.factors
    yield check_braided_commutative(dual_yd, mode=m, seed=seed, samples=n,
                                    name="dual-factor-braided-commutative")
    yield check_braided_commutative(base_yd, mode=m, seed=seed, samples=n,
                                    name="base-factor-braided-commutative")
    yield check_braided_symmetric(dual_yd, base_yd, mode=m, seed=seed,
                                  samples=n)
    yield check_locked_identity(dual_yd, base_yd, mode=m, seed=seed, samples=n)
    yield _structure_identity_check(bp2, sys.heis.algebra, mode=m, seed=seed,
                                    samples=n, name="braided-product-is-hdouble")
    yield check_factor_embeddings(bp2)
    yield from flip_isomorphism(dual_yd, base_yd, mode=m, seed=seed,
                                samples=n)[1]


def _suite_chains(cfg: SuiteConfig):
    sys = taft_system(cfg.p)
    p, m, seed, n = cfg.p, cfg.resolved_mode, cfg.seed, cfg.sample_size
    if p == 2:
        ch3 = heisenberg_chain(sys.pair.primal, 3, leftmost="dual",
                               D=sys.double)
        yield from chain_relations_check(ch3, sys.double, prefix="full-chain3")
        yield invert_expected_failure(
            check_braided_commutative(ch3.yd, mode="generators", seed=seed,
                                      samples=200),
            "full-chain3-braided-commutativity-fails")
        yield check_factor_embeddings(ch3, name="full-chain3-embedding")
    else:
        yield _skip("full-chain3-relations",
                    "run with p=2 (three full-double factors)")
        yield _skip("full-chain3-braided-commutativity-fails",
                    "run with p=2 (three full-double factors)")
    chains = {k: truly_heisenberg_chain(p, k) for k in (1, 2, 3, 4)}
    for k, ch in chains.items():
        yield _dim_check(f"zdel-chain{k}-dimension", ch.algebra.dim, p ** k)
    yield from chain_heisenberg_checks(chains[4], prefix="zdel-chain4")
    yield check_factor_embeddings(chains[4].chain, name="zdel-chain4-embedding")
    yield check_yd(chains[3].yd, mode=m, seed=seed, samples=n,
                   name="zdel-chain3-yd-condition")
    fd, fz = chains[2].chain.factors
    yield check_locked_identity(fd, fz, name="zdel-interface-locked-identity")
    # Like-type factors two positions apart stop commuting in the braided
    # sense as soon as squares survive: at p=2 nilpotency of degree two
    # hides the obstruction, for larger p a counterexample must exist.
    bc = check_braided_commutative(
        chains[3].yd, mode=(m if p == 2 else "generators"), seed=seed,
        samples=(n if p == 2 else 200),
        name="zdel-chain3-braided-commutative")
    yield bc if p == 2 else invert_expected_failure(
        bc, "zdel-chain3-braided-commutativity-fails")
    yield h2_matches_cqzd_check(chains[2])
    yield cqzd_center_check(cqzd(p))


def _suite_truncations(cfg: SuiteConfig):
    p, m, seed, n = cfg.p, cfg.resolved_mode, cfg.seed, cfg.sample_size
    uq = uqsl2(p)
    yield from uq.checks
    yield from uq_presentation_check(uq)
    yield _dim_check("uq-dimension", uq.hopf.dim, 2 * p ** 3)
    if p == 2:
        yield quotient_morphism_check(uq.hq)
    else:
        yield _skip("quotient-morphism",
                    "run with p=2 (quadratic in the parent dimension)")
    hq = hqsl2(p)
    yield from hq.checks
    yield _dim_check("hq-dimension", hq.yd.dim, 2 * p ** 3)
    yield hq_action_table_check(hq)
    yield hq_coaction_table_check(hq)
    yield hq_factorization_check(hq)
    y = hq.yd
    yield check_module(y, mode=m, seed=seed, samples=n)
    yield check_module_algebra(y, mode=m, seed=seed, samples=n)
    yield check_comodule(y)
    yield check_comodule_algebra(y, mode=m, seed=seed, samples=n)
    yield check_yd(y, mode=m, seed=seed, samples=n)
    yield check_braided_commutative(y, mode=m, seed=seed, samples=n)


def _suite_mutations(cfg: SuiteConfig):
    for tag in MUTATIONS:
        yield run_mutation(tag, cfg.p)


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


def run_suite(config: SuiteConfig) -> VerificationReport:
    """Run the selected suites and collect a deterministic report.

    Results are sorted by (tagged) check name; every check runs even when
    earlier ones fail, unless fail_fast is set: then no suite is asked for
    another check after the first failure.  Two results with the same
    tagged name are an engine error (RuntimeError), not a silent drop.
    """
    config.validate()
    results = []
    seen = set()
    stop = False
    for suite in config.selected():
        for r in _SUITES[suite](config):
            tagged = replace(r, name=f"{suite}.{r.name}.p{config.p}")
            if tagged.name in seen:
                raise RuntimeError(f"duplicate check name {tagged.name!r}")
            seen.add(tagged.name)
            results.append(tagged)
            if config.fail_fast and tagged.status == "fail":
                stop = True
                break
        if stop:
            break
    results.sort(key=lambda r: r.name)
    return VerificationReport(config=config, results=results)
