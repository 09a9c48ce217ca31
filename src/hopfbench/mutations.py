"""Deliberately corrupted fixtures: negative controls for the verifier.

A checker that never fails is untrustworthy.  Each builder here corrupts
one input with a precise, known defect -- a flipped antipode sign,
swapped coaction legs, a dropped conjugation factor, the two arguments of
eta exchanged -- and drives it through the same checks the healthy
structures pass.  No builder holds a case loop or compares vectors
itself: the checks do, and `run_mutation` alone reports.  A healthy
engine reports status "fail" with a witness for every fixture; any
"pass" below means the corresponding check has lost its teeth.

Every builder yields its checks one at a time, and `run_mutation` stops
pulling at the first that fails.  They walk their laws on `walks`, the
tuple walks the caller pins for the negative controls, but for the lemma
walks of the two Hopf-axiom fixtures (associativity of B, and the laws on
pairs of D(B)) and the eta fixture, whose line compares R rows.
"""

from __future__ import annotations

import time
from typing import Callable, Iterator

from .doubles import eta_twist_product, factor_structures
from .hopf import FiniteHopf, check_hopf_axioms
from .results import CheckResult, lemma_walk, two_sided_lemma_walk
from .sparse import LazyLinearMap, Vec, tensor_flat, vadd_into, vadd_outer
from .taft import taft_setup, taft_system
from .ydcat import (Action, Coaction, ModuleAlgebra, YDModuleAlgebra,
                    check_comodule, check_module,
                    check_module_algebra, check_yd)

__all__ = ["MUTATIONS", "run_mutation"]


def _antipode_sign(p: int, walks) -> Iterator:
    """Taft algebra with the sign of S on the nilpotent generator flipped."""
    B = taft_setup(p).primal
    e_idx = B.space.index[(1, 0)]
    orig = B.antipode

    def fn(i: int):
        row = orig.get(i)
        return tuple((j, -c) for j, c in row) if i == e_idx else row

    bad = FiniteHopf(B.ctx, B.space, B.mult, dict(B.unit), B.comult,
                     dict(B.counit), LazyLinearMap(B.dim, B.dim, fn),
                     generators=B.generators, name="taft(antipode-sign)")
    yield from check_hopf_axioms(bad, lemma_walk(bad, 3), walks, walks)


def _double_antipode(p: int, walks) -> Iterator:
    """Double with the inverse dual antipode replaced by the direct one."""
    sys = taft_system(p)
    H = sys.double.hopf
    base, dual = sys.double.base, sys.double.dual
    nB = base.dim

    def fn(k: int):
        f, b = divmod(k, nB)
        left = tensor_flat(dict(dual.unit), dict(base.antipode.get(b)), nB)
        right = tensor_flat(dict(dual.antipode.get(f)), dict(base.unit), nB)
        return tuple(sorted(H.product(left, right).items()))

    bad = FiniteHopf(H.ctx, H.space, H.mult, dict(H.unit), H.comult,
                     dict(H.counit), LazyLinearMap(H.dim, H.dim, fn),
                     generators=H.generators, name="ddouble(antipode)",
                     twist=H.twist)
    yield from check_hopf_axioms(bad, walks, two_sided_lemma_walk(bad),
                                 two_sided_lemma_walk(bad))


def _action_factor_dropped(p: int, walks) -> Iterator:
    """Smash action with the trailing antipode conjugation dropped:
    (eps (x) m) |> (alpha # a) = (m' -> alpha) # m'' a, no S(m''')."""
    sys = taft_system(p)
    D, Hd = sys.double, sys.heis
    base = D.base
    real = sys.yd.action            # keeps the healthy (mu (x) 1) factor
    nB = base.dim

    def m_part(m: int, x: int) -> Vec:
        f, b = divmod(x, nB)
        out: Vec = {}
        for m1, m2, cm in base.comult.get(m):
            mid = D.hit(m1, f)
            if mid:
                vadd_outer(out, cm, mid, base.mult.get(m2, b), nB)
        return out

    def fn(h: int, x: int) -> Vec:
        f, m = divmod(h, nB)
        out: Vec = {}
        for xp, c in m_part(m, x).items():
            vadd_into(out, real.dual_row(f, xp), c)
        return out

    mod = ModuleAlgebra(D.hopf, Hd.algebra,
                        Action(D.hopf, Hd.algebra, fn),
                        name="hdouble(conjugation-dropped)")
    yield check_module_algebra(mod, walks)
    yield check_module(mod, walks)


def _factor_coaction_swapped(p: int, walks) -> Iterator:
    """Dual-side factor with its coaction legs exchanged:
    beta -> (beta' (x) 1) (x) beta'' for (beta'' (x) 1) (x) beta'."""
    sys = taft_system(p)
    dual_yd, _ = factor_structures(sys.yd)
    nB, (ub,) = sys.double.base.dim, sys.double.base.unit

    def fn(f: int):
        return tuple(sorted((y * nB + ub, h // nB, c)
                            for h, y, c in dual_yd.coaction.terms(f)))

    swapped = Coaction(dual_yd.hopf, dual_yd.algebra, fn)
    bad = dual_yd._replace(coaction=swapped, name="dual-factor(legs-swapped)")
    yield check_comodule(bad)
    yield check_yd(bad, walks)


def _hdouble_coaction_swapped(p: int, walks) -> Iterator:
    """Smash-product coaction with its two legs exchanged."""
    sys = taft_system(p)
    D, Hd = sys.double, sys.heis

    def fn(key: int):
        return tuple(sorted((k, j, c) for j, k, c in D.hopf.comult.get(key)))

    bad = YDModuleAlgebra(D.hopf, Hd.algebra, sys.yd.action,
                          Coaction(D.hopf, Hd.algebra, fn),
                          name="hdouble(legs-swapped)")
    yield check_comodule(bad)
    yield check_yd(bad, walks)


def _eta_swapped(p: int, walks) -> Iterator:
    """Product twist with the two arguments of eta exchanged: on the
    pairs (1 (x) m, g (x) 1) that eta-twist reads, it is
    eta(g (x) 1, 1 (x) m) = <g, 1> eps(m), so R_eta is D(B)'s R."""
    sys = taft_system(p)
    D = sys.double
    (ub,) = D.base.unit

    def swapped(g: int, m: int):
        c, e = D.pairing.pair_basis(g, ub), D.base.counit.get(m)
        return c * e if c and e else None

    yield eta_twist_product(D, sys.heis, swapped, name="eta-twist-swapped")


def _trivial_coaction(p: int, walks) -> Iterator:
    """Heisenberg double with the coaction replaced by the trivial one."""
    sys = taft_system(p)
    D, Hd = sys.double, sys.heis
    bad = YDModuleAlgebra(D.hopf, Hd.algebra, sys.yd.action,
                          Coaction.trivial(D.hopf, Hd.algebra),
                          name="hdouble(trivial-coaction)")
    yield check_yd(bad, walks)


MUTATIONS: dict[str, Callable[..., Iterator]] = {
    "taft-antipode-sign": _antipode_sign,
    "double-antipode-conjugate": _double_antipode,
    "action-conjugation-dropped": _action_factor_dropped,
    "factor-coaction-swapped": _factor_coaction_swapped,
    "hdouble-coaction-swapped": _hdouble_coaction_swapped,
    "eta-arguments-swapped": _eta_swapped,
    "trivial-coaction": _trivial_coaction,
}


def run_mutation(tag: str, p: int, walks) -> CheckResult:
    """Build one corrupted fixture and report the first check it fails,
    walking its laws on `walks`.

    A healthy engine returns status "fail" here; status "pass" means the
    corruption went undetected and the corresponding check is broken.
    """
    t0 = time.perf_counter()
    results = []
    for r in MUTATIONS[tag](p, walks):
        results.append(r)
        if not r.ok:
            return CheckResult(f"mutation-{tag}", "fail", r.mode,
                               r.cases_checked, f"[{r.name}] {r.witness}",
                               time.perf_counter() - t0)
    mode = results[0].mode if results else "exhaustive"
    return CheckResult(f"mutation-{tag}", "pass", mode,
                       sum(r.cases_checked for r in results), None,
                       time.perf_counter() - t0)
