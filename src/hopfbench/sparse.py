"""Sparse exact linear algebra over labeled finite-dimensional spaces.

Vectors are plain dicts {basis_index: Cyc} with zero entries dropped;
bilinear/linear/colinear structure tensors store rows keyed by basis
indices and can be backed by a compute-on-demand function with a memo,
so large objects (e.g. a 1296-dimensional double at p = 3) never have
to materialize their full product tensor.

Every accumulation goes through the kernels here: `vadd_into` (a vector,
or a row of (k, c) pairs, scaled and shifted by a key offset),
`vadd_outer` (the outer product of two rows), `colinear_apply` (rows of
(j, k, c) terms) and `vadd_term` (one entry).  None stores a zero.

Echelon forms use deterministic smallest-index pivots and are kept
fully reduced, which makes every derived object (closures, quotients,
coordinates) reproducible run to run.  Full reduction also means that
eliminating one pivot never puts another pivot into a vector's support,
so a reduction only visits the pivots already in that support, in
ascending order.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, Iterable, Optional, Sequence

from .cyclo import Cyc, QContext

__all__ = [
    "Space", "vadd_into", "vadd_outer", "vadd_term", "colinear_apply",
    "vscale", "vneg", "vsub", "veq", "vcopy",
    "BilinearMap", "LinearMap", "LazyLinearMap", "ColinearMap", "Subspace",
    "SpanSolver",
    "span_closure", "QuotientSpace", "linear_map_inverse",
    "SingularMapError",
]

Vec = dict  # {int: Cyc}
Row = tuple  # ((int, Cyc), ...)


class SingularMapError(ValueError):
    """Raised when a linear map expected to be invertible is singular."""


class Space:
    """A labeled basis: index <-> label, plus a label renderer."""

    __slots__ = ("name", "labels", "index", "render")

    def __init__(self, name: str, labels: Sequence, render: Optional[Callable] = None):
        self.name = name
        self.labels = tuple(labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.render = render if render is not None else lambda lab: str(lab)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        return f"Space({self.name}, dim={self.dim})"


# -- vector helpers ---------------------------------------------------------

def vcopy(v: Vec) -> Vec:
    return dict(v)


def vadd_into(dst: Vec, src, coeff: Optional[Cyc] = None, base: int = 0) -> Vec:
    """dst[base + k] += coeff * c for every entry (k, c) of src, in place.

    src is a vector or a row of (k, c) pairs; coeff None means 1.  A zero
    coeff or a zero product stores nothing, and a zero sum is deleted.  A
    product is tested for zero only when it would be stored, which keeps
    the test off the accumulating path.  With base 0 the keys of src are
    stored as they are (`k + 0` would allocate a new int above 256).
    """
    items = src.items() if isinstance(src, dict) else src
    if coeff is None:
        for k, c in items:
            if base:
                k += base
            cur = dst.get(k)
            if cur is None:
                dst[k] = c
            else:
                s = cur + c
                if s:
                    dst[k] = s
                else:
                    del dst[k]
    else:
        if not coeff:
            return dst
        for k, c in items:
            cc = coeff * c
            if base:
                k += base
            cur = dst.get(k)
            if cur is None:
                if cc:
                    dst[k] = cc
            else:
                s = cur + cc
                if s:
                    dst[k] = s
                else:
                    del dst[k]
    return dst


def vadd_outer(dst: Vec, coeff: Cyc, left, right, n2: int) -> Vec:
    """dst[k1 * n2 + k2] += coeff * c1 * c2 for every entry (k1, c1) of
    left and (k2, c2) of right (vectors or rows), in place.

    The product is formed as (coeff * c1) * c2, the scalar operations of
    the nested loop it stands for; one call covers a whole row pair.
    """
    if isinstance(left, dict):
        left = left.items()
    if isinstance(right, dict):
        right = right.items()
    for k1, c1 in left:
        cc = coeff * c1
        base = k1 * n2
        for k2, c2 in right:
            val = cc * c2
            k = base + k2
            cur = dst.get(k)
            if cur is None:
                if val:
                    dst[k] = val
            else:
                s = cur + val
                if s:
                    dst[k] = s
                else:
                    del dst[k]
    return dst


def colinear_apply(get: Callable[[int], tuple], v: Vec, n2: int) -> Vec:
    """Image of v under a map whose row get(i) holds (j, k, c) terms,
    flat over j * n2 + k."""
    out: Vec = {}
    for i, ci in v.items():
        for j, k, c in get(i):
            val = ci * c
            key = j * n2 + k
            cur = out.get(key)
            if cur is None:
                if val:
                    out[key] = val
            else:
                s = cur + val
                if s:
                    out[key] = s
                else:
                    del out[key]
    return out


def vadd_term(dst: dict, key, val: Cyc) -> None:
    """dst[key] += val, in place; a zero val or a zero sum is never stored."""
    cur = dst.get(key)
    if cur is None:
        if val:
            dst[key] = val
    else:
        s = cur + val
        if s:
            dst[key] = s
        else:
            del dst[key]


def vscale(v: Vec, coeff: Cyc) -> Vec:
    if not coeff:
        return {}
    return {k: c * coeff for k, c in v.items()}


def vneg(v: Vec) -> Vec:
    return {k: -c for k, c in v.items()}


def vsub(a: Vec, b: Vec) -> Vec:
    out = dict(a)
    for k, c in b.items():
        cur = out.get(k)
        if cur is None:
            out[k] = -c
        else:
            s = cur - c
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def veq(a: Vec, b: Vec) -> bool:
    if len(a) != len(b):
        return False
    for k, c in a.items():
        other = b.get(k)
        if other is None or other != c:
            return False
    return True


# -- structure tensors ------------------------------------------------------

class BilinearMap:
    """Bilinear map V x W -> U on basis pairs, as sparse rows.

    Rows are tuples ((k, coeff), ...) keyed by the flat pair index
    i * dim_w + j.  A compute function may back the table; computed rows
    are memoized so repeated lookups are cheap and deterministic.
    """

    __slots__ = ("dim_v", "dim_w", "rows", "fn")

    def __init__(self, dim_v: int, dim_w: int,
                 rows: Optional[dict] = None,
                 fn: Optional[Callable[[int, int], Row]] = None):
        self.dim_v = dim_v
        self.dim_w = dim_w
        self.rows = rows if rows is not None else {}
        self.fn = fn

    def get(self, i: int, j: int) -> Row:
        key = i * self.dim_w + j
        row = self.rows.get(key)
        if row is None:
            if self.fn is None:
                return ()
            row = self.fn(i, j)
            self.rows[key] = row
        return row

    def set(self, i: int, j: int, row: Iterable) -> None:
        self.rows[i * self.dim_w + j] = tuple(row)

    def apply(self, u: Vec, w: Vec) -> Vec:
        """Image of u (x) w under the map."""
        out: Vec = {}
        get = self.get
        for i, ci in u.items():
            for j, cj in w.items():
                row = get(i, j)
                if not row:
                    continue
                vadd_into(out, row, ci * cj)
        return out

    def materialize(self) -> None:
        if self.fn is None:
            return
        for i in range(self.dim_v):
            for j in range(self.dim_w):
                self.get(i, j)
        self.fn = None

    def is_materialized(self) -> bool:
        return self.fn is None or len(self.rows) == self.dim_v * self.dim_w


class LinearMap:
    """Linear map V -> W as sparse rows {i: ((j, coeff), ...)}.

    Row i is the image of basis vector e_i.
    """

    __slots__ = ("dim_v", "dim_w", "rows")

    def __init__(self, dim_v: int, dim_w: int, rows: Optional[dict] = None):
        self.dim_v = dim_v
        self.dim_w = dim_w
        self.rows = rows if rows is not None else {}

    def set(self, i: int, row: Iterable) -> None:
        self.rows[i] = tuple(row)

    def get(self, i: int) -> Row:
        return self.rows.get(i, ())

    def apply(self, v: Vec) -> Vec:
        out: Vec = {}
        rows = self.rows
        for i, ci in v.items():
            row = rows.get(i)
            if row:
                vadd_into(out, row, ci)
        return out

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self o other (apply other first)."""
        if other.dim_w != self.dim_v:
            raise ValueError("dimension mismatch in composition")
        out = LinearMap(other.dim_v, self.dim_w)
        for i in range(other.dim_v):
            img = self.apply(dict(other.get(i)))
            if img:
                out.set(i, tuple(sorted(img.items())))
        return out

    def transpose(self) -> "LinearMap":
        out_rows: dict[int, list] = {}
        for i, row in self.rows.items():
            for j, c in row:
                out_rows.setdefault(j, []).append((i, c))
        out = LinearMap(self.dim_w, self.dim_v)
        for j, entries in out_rows.items():
            out.set(j, tuple(sorted(entries)))
        return out


class LazyLinearMap(LinearMap):
    """LinearMap whose rows are computed on demand and memoized."""

    __slots__ = ("fn",)

    def __init__(self, dim_v: int, dim_w: int, fn: Callable[[int], Iterable]):
        super().__init__(dim_v, dim_w)
        self.fn = fn

    def get(self, i: int) -> Row:
        row = self.rows.get(i)
        if row is None:
            row = tuple(self.fn(i))
            self.rows[i] = row
        return row

    def apply(self, v: Vec) -> Vec:
        out: Vec = {}
        for i, ci in v.items():
            vadd_into(out, self.get(i), ci)
        return out

    def materialize(self) -> None:
        for i in range(self.dim_v):
            self.get(i)

    def transpose(self) -> LinearMap:
        self.materialize()
        return super().transpose()


class ColinearMap:
    """Coproduct-shaped map V -> W1 (x) W2: rows of (j, k, coeff)."""

    __slots__ = ("dim_v", "dim_w1", "dim_w2", "rows", "fn")

    def __init__(self, dim_v: int, dim_w1: int, dim_w2: int,
                 rows: Optional[dict] = None,
                 fn: Optional[Callable[[int], tuple]] = None):
        self.dim_v = dim_v
        self.dim_w1 = dim_w1
        self.dim_w2 = dim_w2
        self.rows = rows if rows is not None else {}
        self.fn = fn

    def set(self, i: int, row: Iterable) -> None:
        self.rows[i] = tuple(row)

    def get(self, i: int) -> tuple:
        row = self.rows.get(i)
        if row is None:
            if self.fn is None:
                return ()
            row = self.fn(i)
            self.rows[i] = row
        return row

    def apply(self, v: Vec) -> Vec:
        """Result lives on flat pair indices j * dim_w2 + k."""
        return colinear_apply(self.get, v, self.dim_w2)


# -- echelon forms ----------------------------------------------------------

class Subspace:
    """Reduced row echelon span with smallest-index pivots.

    Rows are kept pivot-normalized (pivot coefficient 1) and mutually
    reduced, so membership tests and residuals are canonical.
    """

    __slots__ = ("dim", "pivots", "pivot_row")

    def __init__(self, dim: int):
        self.dim = dim
        self.pivots: list[int] = []       # kept sorted
        self.pivot_row: dict[int, Vec] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, v: Vec) -> Vec:
        """Residual of v modulo the span (does not modify the span)."""
        out = dict(v)
        pr = self.pivot_row
        for p in sorted(k for k in v if k in pr):
            c = out.get(p)
            if c:
                vadd_into(out, pr[p], -c)
        return out

    def contains(self, v: Vec) -> bool:
        return not self.reduce(v)

    def add(self, v: Vec) -> bool:
        """Insert v; returns True when the span grew."""
        res = self.reduce(v)
        if not res:
            return False
        pivot = min(res)
        inv = res[pivot].inv()
        row = {k: c * inv for k, c in res.items()}
        for existing in self.pivot_row.values():
            c = existing.get(pivot)
            if c:
                vadd_into(existing, row, -c)
        self.pivot_row[pivot] = row
        insort(self.pivots, pivot)
        return True

    def add_many(self, vectors: Iterable[Vec]) -> int:
        grew = 0
        for v in vectors:
            if self.add(v):
                grew += 1
        return grew

    def basis_rows(self) -> list[Vec]:
        return [self.pivot_row[p] for p in self.pivots]

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, rank={self.rank})"


class SpanSolver(Subspace):
    """Echelon span that remembers how each row combines the inserted
    vectors, so membership tests come with explicit coordinates."""

    __slots__ = ("combos", "n_inserted")

    def __init__(self, dim: int):
        super().__init__(dim)
        self.combos: dict[int, Vec] = {}   # pivot -> {inserted_index: Cyc}
        self.n_inserted = 0

    def add(self, v: Vec) -> bool:
        res, combo = self._reduce_with_combo(v)
        idx = self.n_inserted
        self.n_inserted += 1
        if not res:
            return False
        pivot = min(res)
        inv = res[pivot].inv()
        # row = inv * (inserted_idx + sum combo), so the inserted vector
        # itself enters the combination with coefficient inv.
        row = {k: c * inv for k, c in res.items()}
        combo = {k: c * inv for k, c in combo.items()}
        cur = combo.get(idx)
        combo[idx] = inv if cur is None else cur + inv
        for p in self.pivots:
            existing = self.pivot_row[p]
            c = existing.get(pivot)
            if c:
                vadd_into(existing, row, -c)
                vadd_into(self.combos[p], combo, -c)
        self.pivot_row[pivot] = row
        self.combos[pivot] = combo
        insort(self.pivots, pivot)
        return True

    def _reduce_with_combo(self, v: Vec) -> tuple:
        """(residual r of v, combination c of inserted vectors) with
        r = v + sum of c[i] * inserted[i]."""
        res = dict(v)
        combo: Vec = {}
        pr = self.pivot_row
        for p in sorted(k for k in v if k in pr):
            c = res.get(p)
            if c:
                vadd_into(res, pr[p], -c)
                vadd_into(combo, self.combos[p], -c)
        return res, combo

    def solve(self, v: Vec) -> Optional[Vec]:
        """Coordinates of v over the inserted vectors, or None if outside."""
        res, combo = self._reduce_with_combo(v)
        if res:
            return None
        return {k: -c for k, c in combo.items()}


def span_closure(seed: Sequence[Vec], multiply: Callable[[Vec, Vec], Vec],
                 dim: int, mode: str = "subalgebra",
                 generators: Optional[Sequence[Vec]] = None,
                 max_rounds: int = 10_000) -> Subspace:
    """Smallest multiplicatively closed span containing the seed.

    mode="subalgebra": close the seed span under right multiplication by
    the seed itself; for an associative product this yields the
    subalgebra generated by the seed (include the unit in the seed when
    a unital subalgebra is wanted).

    mode="ideal": close under multiplication on both sides by the given
    `generators`, which must generate the ambient algebra; the result is
    then the two-sided ideal generated by the seed.
    """
    if mode not in ("subalgebra", "ideal"):
        raise ValueError(f"unknown closure mode {mode!r}")
    if mode == "ideal" and generators is None:
        raise ValueError("ideal closure needs an ambient generating set")
    span = Subspace(dim)
    frontier = [v for v in seed if span.add(v)]
    gens = list(generators) if generators is not None else list(seed)
    rounds = 0
    while frontier:
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError("span closure failed to stabilize")
        next_frontier: list[Vec] = []
        for row in frontier:
            for g in gens:
                candidates = [multiply(row, g)]
                if mode == "ideal":
                    candidates.append(multiply(g, row))
                for cand in candidates:
                    if cand and span.add(cand):
                        next_frontier.append(cand)
        frontier = next_frontier
    return span


class QuotientSpace:
    """Quotient of a dim-dimensional space by an echelonized subspace.

    The quotient basis consists of the ambient non-pivot indices; the
    section sends a quotient basis element to that same basis vector
    upstairs, so project(section(x)) == x exactly.
    """

    __slots__ = ("dim_ambient", "ideal", "labels", "index_of_ambient")

    def __init__(self, dim_ambient: int, ideal: Subspace):
        if ideal.dim != dim_ambient:
            raise ValueError("ideal lives in a different ambient space")
        self.dim_ambient = dim_ambient
        self.ideal = ideal
        pivots = set(ideal.pivots)
        self.labels = tuple(i for i in range(dim_ambient) if i not in pivots)
        self.index_of_ambient = {amb: qi for qi, amb in enumerate(self.labels)}

    @property
    def dim(self) -> int:
        return len(self.labels)

    def project(self, v: Vec) -> Vec:
        """Image of an ambient vector in quotient coordinates."""
        red = self.ideal.reduce(v)
        idx = self.index_of_ambient
        return {idx[k]: c for k, c in red.items()}

    def section(self, qv: Vec) -> Vec:
        """Ambient representative of a quotient vector."""
        labels = self.labels
        return {labels[qi]: c for qi, c in qv.items()}


def linear_map_inverse(m: LinearMap, ctx: QContext) -> LinearMap:
    """Exact inverse of a square linear map; raises SingularMapError."""
    if m.dim_v != m.dim_w:
        raise SingularMapError("only square maps can be inverted")
    n = m.dim_v
    # Sparse Gauss-Jordan on rows [image of e_i | e_i]; at the end the
    # right half of the pivot-p row is the preimage of e_p.
    pivot_of: dict[int, tuple[Vec, Vec]] = {}
    for i in range(n):
        left: Vec = dict(m.get(i))
        right: Vec = {i: ctx.one}
        for p in sorted(k for k in left if k in pivot_of):
            c = left.get(p)
            if c:
                pl, prt = pivot_of[p]
                vadd_into(left, pl, -c)
                vadd_into(right, prt, -c)
        if not left:
            raise SingularMapError("map is singular")
        p = min(left)
        inv = left[p].inv()
        left = {k: c * inv for k, c in left.items()}
        right = {k: c * inv for k, c in right.items()}
        for pl, prt in pivot_of.values():
            c = pl.get(p)
            if c:
                vadd_into(pl, left, -c)
                vadd_into(prt, right, -c)
        pivot_of[p] = (left, right)
    if len(pivot_of) != n:
        raise SingularMapError("map is singular")
    out = LinearMap(n, n)
    for p, (_, right) in pivot_of.items():
        out.set(p, tuple(sorted(right.items())))
    return out
