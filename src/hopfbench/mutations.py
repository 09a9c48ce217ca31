"""Deliberately corrupted fixtures: negative controls for the verifier.

A checker that never fails is untrustworthy.  Each builder here assembles
a structure with one precise, known defect -- a flipped antipode sign,
swapped coaction legs, a dropped conjugation factor, twist arguments in
the wrong order -- and drives it through the same checks the healthy
structures pass.  A healthy engine reports status "fail" with a witness
for every fixture; any "pass" below means the corresponding check has
lost its teeth.
"""

from __future__ import annotations

from typing import Callable

from .doubles import factor_structures
from .hopf import FiniteHopf, check_hopf_axioms, hit_dual_left, tensor_flat
from .results import Check, CheckResult
from .sparse import LazyLinearMap, Vec, vadd_into, vadd_term, veq
from .taft import taft_setup, taft_system
from .ydcat import (Action, Coaction, ModuleAlgebra, YDModuleAlgebra,
                    check_comodule, check_comodule_algebra, check_module,
                    check_module_algebra, check_yd)

__all__ = ["MUTATIONS", "run_mutation", "mutation_suite"]


def _antipode_sign(p: int) -> list:
    """Taft algebra with the sign of S on the nilpotent generator flipped."""
    B = taft_setup(p).primal
    e_idx = B.space.labels.index((1, 0))
    orig = B.antipode

    def fn(i: int):
        row = orig.get(i)
        return tuple((j, -c) for j, c in row) if i == e_idx else row

    bad = FiniteHopf(B.ctx, B.space, B.mult, dict(B.unit), B.comult,
                     dict(B.counit), LazyLinearMap(B.dim, B.dim, fn),
                     generators=B.generators, name="taft(antipode-sign)")
    return check_hopf_axioms(bad)


def _double_antipode(p: int) -> list:
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
                     generators=H.generators, name="ddouble(antipode)")
    return check_hopf_axioms(bad, mode="generators")


def _action_factor_dropped(p: int) -> list:
    """Smash action with the trailing antipode conjugation dropped:
    (eps (x) m) |> (alpha # a) = (m' -> alpha) # m'' a, no S(m''')."""
    sys = taft_system(p)
    D, Hd = sys.double, sys.heis
    base, P = D.base, D.pairing
    real = sys.yd.action            # keeps the healthy (mu (x) 1) factor
    nB = base.dim
    one = base.ctx.one

    def m_part(m: int, x: int) -> Vec:
        f, b = divmod(x, nB)
        out: Vec = {}
        for m1, m2, cm in base.comult.get(m):
            mid = hit_dual_left(P, {m1: one}, {f: one})
            if not mid:
                continue
            for bm, cb in base.mult.get(m2, b):
                c1 = cm * cb
                for fm, cf in mid.items():
                    vadd_term(out, fm * nB + bm, c1 * cf)
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
    return [check_module_algebra(mod, mode="generators"),
            check_module(mod, mode="generators")]


def _factor_coaction_swapped(p: int) -> list:
    """Dual-side factor with its coaction legs exchanged."""
    sys = taft_system(p)
    D = sys.double
    dual_yd, _ = factor_structures(D)
    base, dual = D.base, D.dual
    nB = base.dim

    def fn(f: int):
        acc: dict = {}
        for f1, f2, cf in dual.comult.get(f):
            for bu, cu in base.unit.items():
                vadd_term(acc, (f1 * nB + bu, f2), cf * cu)
        return tuple(sorted((h, x, c) for (h, x), c in acc.items()))

    bad = YDModuleAlgebra(D.hopf, dual_yd.algebra, dual_yd.action,
                          Coaction(D.hopf, dual_yd.algebra, fn),
                          name="dual-factor(legs-swapped)")
    return [check_comodule(bad), check_yd(bad, mode="generators")]


def _hdouble_coaction_swapped(p: int) -> list:
    """Smash-product coaction with its two legs exchanged."""
    sys = taft_system(p)
    D, Hd = sys.double, sys.heis
    base, dual = D.base, D.dual
    nB = base.dim

    def fn(key: int):
        f, b = divmod(key, nB)
        acc: dict = {}
        for f1, f2, cf in dual.comult.get(f):
            for b1, b2, cb in base.comult.get(b):
                vadd_term(acc, (f1 * nB + b2, f2 * nB + b1), cf * cb)
        return tuple(sorted((h, x, c) for (h, x), c in acc.items()))

    bad = YDModuleAlgebra(D.hopf, Hd.algebra, sys.yd.action,
                          Coaction(D.hopf, Hd.algebra, fn),
                          name="hdouble(legs-swapped)")
    return [check_comodule(bad), check_yd(bad, mode="generators")]


def _eta_swapped(p: int) -> list:
    """Product twist with the two twist arguments in the wrong order."""
    sys = taft_system(p)
    D, Hd = sys.double, sys.heis
    H = D.hopf
    base, dual, P = D.base, D.dual, D.pairing
    nB = base.dim
    d = H.dim
    one = H.ctx.one
    chk = Check("eta-twist-swapped", "exhaustive")

    pair_unit: dict = {}
    for f in range(dual.dim):
        c = P.pair({f: one}, dict(base.unit))
        if c:
            pair_unit[f] = c
    eps_b = base.counit

    # swapped filters: M'' contributes its dual part weighted by eps of its
    # base part; N'' contributes its base part weighted by <dual part, 1>
    def legs_m(k: int):
        for j, kk, c in H.comult.get(k):
            fm, bm = divmod(kk, nB)
            w = eps_b.get(bm)
            if w:
                yield j, fm, c * w

    def legs_n(k: int):
        for j, kk, c in H.comult.get(k):
            fn_, bn = divmod(kk, nB)
            w = pair_unit.get(fn_)
            if w:
                yield j, bn, c * w

    for k1 in range(d):
        rows_m = tuple(legs_m(k1))
        for k2 in range(d):
            chk.cases += 1
            acc: Vec = {}
            for j1, fm, c1 in rows_m:
                for j2, bn, c2 in legs_n(k2):
                    pv = P.pair_basis(fm, bn)
                    if pv:
                        vadd_into(acc, H.mult.get(j1, j2), c1 * c2 * pv)
            if not veq(acc, dict(Hd.algebra.mult.get(k1, k2))):
                sp = H.space
                return [chk.result(
                    f"M={sp.render(sp.labels[k1])}, "
                    f"N={sp.render(sp.labels[k2])}: twisted product with "
                    f"swapped arguments disagrees with the smash product")]
    return [chk.result()]


def _trivial_coaction(p: int) -> list:
    """Heisenberg double with the coaction replaced by the trivial one."""
    sys = taft_system(p)
    D, Hd = sys.double, sys.heis
    bad = YDModuleAlgebra(D.hopf, Hd.algebra, sys.yd.action,
                          Coaction.trivial(D.hopf, Hd.algebra),
                          name="hdouble(trivial-coaction)")
    return [check_yd(bad, mode="generators")]


MUTATIONS: dict[str, Callable[[int], list]] = {
    "taft-antipode-sign": _antipode_sign,
    "double-antipode-conjugate": _double_antipode,
    "action-conjugation-dropped": _action_factor_dropped,
    "factor-coaction-swapped": _factor_coaction_swapped,
    "hdouble-coaction-swapped": _hdouble_coaction_swapped,
    "eta-arguments-swapped": _eta_swapped,
    "trivial-coaction": _trivial_coaction,
}


def run_mutation(tag: str, p: int = 2) -> CheckResult:
    """Build one corrupted fixture and report the first check it fails.

    A healthy engine returns status "fail" here; status "pass" means the
    corruption went undetected and the corresponding check is broken.
    """
    builder = MUTATIONS[tag]
    chk = Check(f"mutation-{tag}", "exhaustive")
    results = builder(p)
    if not isinstance(results, list):
        results = [results]
    bad = next((r for r in results if not r.ok), None)
    if bad is None:
        if results:
            chk.mode = results[0].mode
        chk.cases = sum(r.cases_checked for r in results)
        return chk.result()
    chk.mode, chk.cases = bad.mode, bad.cases_checked
    return chk.result(f"[{bad.name}] {bad.witness}")


def mutation_suite(p: int = 2) -> list:
    """All corrupted fixtures, in registry order."""
    return [run_mutation(tag, p) for tag in MUTATIONS]
