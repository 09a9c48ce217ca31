"""Seeded per-layer probes, run in one child process of a traced run.

Each probe calls public functions of one layer on inputs generated from
the run's seed and reports a median over repeated batches, so one slow
batch does not move the figure.  Input generators return plain Python
values, so tests can check them without timing anything.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

from hopfbench.cli import evaluate_expression, export_bytes, import_object
from hopfbench.cyclo import Cyc, QContext
from hopfbench.doubles import drinfeld_double, heisenberg_double
from hopfbench.report import SuiteConfig, render, run_suite
from hopfbench.sparse import span_closure
from hopfbench.taft import (double_elements, hqsl2, taft_setup, taft_system,
                            uqsl2)

import workloads

__all__ = ["single_term_inputs", "dense_inputs", "vector_inputs",
           "row_inputs", "run_probes"]

BATCHES = 5


# -- seeded inputs (plain values) ----------------------------------------------

def single_term_inputs(seed: int, n: int, order: int) -> list:
    """n pairs of scalars r * zeta^j as (num, den, j) triples."""
    rng = random.Random(seed)

    def one():
        return (rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6),
                rng.randrange(order))

    return [(one(), one()) for _ in range(n)]


def dense_inputs(seed: int, n: int, phi: int) -> list:
    """n pairs of dense scalars as (coefficient tuple, denominator)."""
    rng = random.Random(seed)

    def one():
        coeffs = [rng.randint(-20, 20) for _ in range(phi)]
        coeffs[rng.randrange(phi)] = rng.randint(1, 20)   # never zero
        return tuple(coeffs), rng.randint(1, 12)

    return [(one(), one()) for _ in range(n)]


def vector_inputs(seed: int, n: int, dim: int, terms: int, order: int) -> list:
    """n pairs of sparse vectors {index: (num, den, j)}."""
    rng = random.Random(seed)

    def vec():
        return {i: (rng.randint(1, 9), rng.randint(1, 4), rng.randrange(order))
                for i in rng.sample(range(dim), terms)}

    return [(vec(), vec()) for _ in range(n)]


def row_inputs(seed: int, n: int, dim: int) -> list:
    """n distinct basis pairs (i, j) of a dim-dimensional algebra."""
    rng = random.Random(seed)
    return [divmod(k, dim) for k in rng.sample(range(dim * dim), n)]


# -- timing helpers ------------------------------------------------------------

def _per_op(fn, items) -> float:
    """Median over BATCHES of seconds per item of fn(item)."""
    times = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for item in items:
            fn(item)
        times.append((time.perf_counter() - t0) / len(items))
    return statistics.median(times)


def _once(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _scalar(ctx: QContext, spec) -> Cyc:
    num, den, j = spec
    return ctx.rational(Fraction(num, den)) * ctx.zeta_pow(j)


# -- probes --------------------------------------------------------------------

def _cyclo(seed: int) -> dict:
    ctx = QContext(2)
    single = [(_scalar(ctx, a), _scalar(ctx, b))
              for a, b in single_term_inputs(seed, 2000, ctx.order)]
    dense = [(Cyc(ctx, *a), Cyc(ctx, *b))
             for a, b in dense_inputs(seed, 2000, ctx.phi)]
    # Fresh values per batch: every inverse misses the context's cache.
    cold = [[Cyc(ctx, *a) for a, _ in dense_inputs(seed + 1 + k, 200, ctx.phi)]
            for k in range(BATCHES)]
    inv_times = []
    for batch in cold:
        t0 = time.perf_counter()
        for x in batch:
            x.inv()
        inv_times.append((time.perf_counter() - t0) / len(batch))
    return {
        "cyclo.mul_single_ns": _per_op(lambda ab: ab[0] * ab[1], single) * 1e9,
        "cyclo.mul_dense_ns": _per_op(lambda ab: ab[0] * ab[1], dense) * 1e9,
        "cyclo.add_ns": _per_op(lambda ab: ab[0] + ab[1], dense) * 1e9,
        "cyclo.inv_cold_us": statistics.median(inv_times) * 1e6,
    }


def _sparse(seed: int) -> dict:
    system = taft_system(2)
    D = system.double.hopf
    D.mult.materialize()
    ctx = system.ctx
    pairs = [({i: _scalar(ctx, s) for i, s in u.items()},
              {i: _scalar(ctx, s) for i, s in w.items()})
             for u, w in vector_inputs(seed, 300, D.dim, 3, ctx.order)]
    g = double_elements(system)
    gens = [dict(D.unit), g["E"], g["k"], g["F"], g["kap"]]
    closure = [_once(lambda: span_closure(gens, D.product, D.dim))
               for _ in range(3)]
    return {
        "sparse.apply_us": _per_op(lambda uw: D.mult.apply(*uw), pairs) * 1e6,
        "sparse.span_closure_ms": statistics.median(closure) * 1e3,
    }


def _doubles_and_setup(seed: int) -> dict:
    pair2 = taft_setup(2)
    ddouble = _once(lambda: drinfeld_double(
        pair2.primal, pair2.dual, pair2.pairing).hopf.mult.materialize())
    hdouble = _once(lambda: heisenberg_double(
        pair2.primal, pair2.dual, pair2.pairing).algebra.mult.materialize())
    t0 = time.perf_counter()
    pair3 = taft_setup(3, cached=False)
    setup3 = time.perf_counter() - t0
    D3 = drinfeld_double(pair3.primal, pair3.dual, pair3.pairing).hopf
    H3 = heisenberg_double(pair3.primal, pair3.dual, pair3.pairing).algebra
    cells = row_inputs(seed, 300, D3.dim)
    t0 = time.perf_counter()
    for i, j in cells:
        D3.mult.get(i, j)
        H3.mult.get(i, j)
    row = (time.perf_counter() - t0) / (2 * len(cells))
    return {
        "doubles.ddouble_materialize_s": ddouble,
        "doubles.hdouble_materialize_s": hdouble,
        "doubles.row_us": row * 1e6,
        "taft.setup_s": setup3,
    }


def _truncate() -> dict:
    uq = _once(lambda: uqsl2(2, cached=False))
    uqsl2(2)                       # shared parent, so the next span is
    hq = _once(lambda: hqsl2(2))   # the transport alone
    return {"truncate.uqsl2_s": uq, "truncate.hqsl2_s": hq}


def _report_and_cli(seed: int) -> dict:
    rep = run_suite(SuiteConfig(p=2, suite="chains", seed=seed))
    reps = [rep] * 20
    requests = [(s, e) for _, s, e in workloads.draw(seed)[:20]]
    evaluate_expression(2, "z", "product")      # build the eval context
    payload = export_bytes("uqsl2", 2)
    return {
        "report.render_json_ms": _per_op(lambda r: render(r, "json"), reps) * 1e3,
        "report.render_text_ms": _per_op(lambda r: render(r, "text"), reps) * 1e3,
        "cli.eval_ms": _per_op(lambda se: evaluate_expression(2, se[1], se[0]),
                               requests) * 1e3,
        "cli.export_ms": _per_op(lambda n: export_bytes(n, 2), ["uqsl2"]) * 1e3,
        "cli.import_object_ms": _per_op(import_object, [payload]) * 1e3,
    }


def run_probes(seed: int) -> dict:
    out = {}
    out.update(_cyclo(seed))
    out.update(_sparse(seed))
    out.update(_doubles_and_setup(seed))
    out.update(_truncate())
    out.update(_report_and_cli(seed))
    return out
