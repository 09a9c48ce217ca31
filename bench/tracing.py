"""Counters and spans for the benchmark's traced children.

`install()` wraps public methods of the engine's classes with counting
shims.  It patches the classes for the rest of the process, so only the
dedicated traced child processes call it; untraced runs never import this
module.  Spans are kept in memory and written out when the child ends.
"""

from __future__ import annotations

import os
import resource
import time
from contextlib import contextmanager

from hopfbench.cyclo import Cyc
from hopfbench.sparse import BilinearMap, SpanSolver, Subspace
from hopfbench.ydcat import Action

__all__ = ["Counters", "install", "Spans", "rss_mb", "rows_held"]


class Counters:
    """Call counts at the scalar, sparse and memo-table boundaries."""

    def __init__(self):
        self.mul = 0
        self.mul_single = 0      # both factors are r * zeta^j
        self.add = 0
        self.inv = 0
        self.get = 0             # BilinearMap.get
        self.get_hits = 0        # ... answered from the row memo
        self.row = 0             # Action.row
        self.row_hits = 0
        self.subspace_add = 0    # Subspace.add and SpanSolver.add

    def as_dict(self) -> dict:
        return dict(vars(self))


def _single_term(c: tuple) -> bool:
    return len(c) - c.count(0) == 1


def install() -> Counters:
    """Wrap Cyc.__mul__/__add__/inv, BilinearMap.get, Action.row and the
    two echelon `add` methods; returns the live counters."""
    cnt = Counters()
    mul, add, inv = Cyc.__mul__, Cyc.__add__, Cyc.inv
    get, row = BilinearMap.get, Action.row
    sub_add, solver_add = Subspace.add, SpanSolver.add

    def counted_mul(a, b):
        cnt.mul += 1
        if _single_term(a.c) and _single_term(b.c):
            cnt.mul_single += 1
        return mul(a, b)

    def counted_add(a, b):
        cnt.add += 1
        return add(a, b)

    def counted_inv(a):
        cnt.inv += 1
        return inv(a)

    def counted_get(m, i, j):
        cnt.get += 1
        if i * m.dim_w + j in m.rows:
            cnt.get_hits += 1
        return get(m, i, j)

    def counted_row(act, h, x):
        cnt.row += 1
        if h * act.algebra.dim + x in act._rows:
            cnt.row_hits += 1
        return row(act, h, x)

    def counted_sub_add(s, v):
        cnt.subspace_add += 1
        return sub_add(s, v)

    def counted_solver_add(s, v):
        cnt.subspace_add += 1
        return solver_add(s, v)

    Cyc.__mul__, Cyc.__add__, Cyc.inv = counted_mul, counted_add, counted_inv
    BilinearMap.get, Action.row = counted_get, counted_row
    Subspace.add, SpanSolver.add = counted_sub_add, counted_solver_add
    return cnt


def rss_mb() -> float:
    """Resident set size of this process now, in MB."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def rows_held(system) -> dict:
    """Memoized rows of the structure tables reachable from taft_system(p)."""
    return {
        "ddouble_mult": len(system.double.hopf.mult.rows),
        "hdouble_mult": len(system.heis.algebra.mult.rows),
        "action": len(system.yd.action._rows),
        "coaction": len(system.yd.coaction._rows),
    }


class Spans:
    """Nested timing spans: name, start, end, parent index, RSS at end."""

    def __init__(self):
        self.records: list = []
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.monotonic(), "end": None,
               "parent": self._stack[-1] if self._stack else None}
        self.records.append(rec)
        self._stack.append(len(self.records) - 1)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.monotonic()
            rec["rss_mb"] = rss_mb()
