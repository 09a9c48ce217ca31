"""Sparse exact linear algebra over labeled finite-dimensional spaces.

Vectors are plain dicts {basis_index: Cyc} with zero entries dropped;
bilinear/linear/colinear structure tensors store rows keyed by basis
indices and can be backed by a compute-on-demand function with a memo,
so large objects (e.g. a 1296-dimensional double at p = 3) never have
to materialize their full product tensor.

Every memo table, here and in the modules above (actions, coactions,
twisted-product R rows), stores its rows in one format: a tuple of
(k, c) entries, or (j, k, c) entries for coaction and colinear rows, in
the order the row function produced them, built by `shared_row`.  The
entries are shared: a field holds one entry tuple per (indices, c), and
every stored row reuses it.  Rows and entries are immutable, so sharing
changes no result; it only keeps the many equal entries of large tables
from each holding its own tuple.

Scalars are interned per field (see `cyclo.Cyc`), so the kernels test a
scalar for zero, and `veq` compares two, by identity.  Every
accumulation goes through the kernels here: `vadd_into` (a vector, or a
row of (k, c) pairs, scaled and shifted by a key offset),
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

from .cyclo import Cyc

__all__ = [
    "Space", "shared_row", "tensor_flat", "vadd_into", "vadd_outer",
    "vadd_term",
    "colinear_apply", "vscale", "vsub", "veq",
    "BilinearMap", "LinearMap", "LazyLinearMap", "ColinearMap", "Subspace",
    "SpanSolver",
    "span_closure", "QuotientSpace", "linear_map_inverse",
    "SingularMapError",
]

Vec = dict  # {int: Cyc}
Row = tuple  # ((int, Cyc), ...) or ((int, int, Cyc), ...): see shared_row


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

    def label(self, i: int) -> str:
        """The rendered label of basis vector i."""
        return self.render(self.labels[i])

    def __repr__(self) -> str:
        return f"Space({self.name}, dim={self.dim})"


# -- the stored row format --------------------------------------------------

def shared_row(row) -> Row:
    """row in the stored format: a tuple of its field's shared entries.

    row is a dict {k: c} or an iterable of (k, c) or (j, k, c) tuples,
    with nonzero scalars.  The result holds the same entries in the same
    order, each replaced by the one tuple that the field of its scalar
    (`c.ctx`) keeps for those indices and that scalar.  The keys are ints
    and the scalar's serial, which stands for the scalar itself because
    scalars are interned, so storing a row runs no Cyc arithmetic,
    hashing or comparison.  A row that is already stored (a tuple of
    shared entries, such as another table's row) is returned as it is,
    so that two tables reading one row hold one tuple.
    """
    stored = type(row) is tuple
    if isinstance(row, dict):
        row = row.items()
    out = []
    for entry in row:
        c = entry[-1]
        head = entry[:-1]
        key = head + (c.serial,)
        entries = c.ctx.shared_entries
        shared = entries.get(key)
        if shared is None:
            shared = entries[key] = head + (c,)
        if shared is not entry:
            stored = False
        out.append(shared)
    return row if stored else tuple(out)


# -- vector helpers ---------------------------------------------------------

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
                if s is not c.ctx.zero:
                    dst[k] = s
                else:
                    del dst[k]
    else:
        zero = coeff.ctx.zero
        if coeff is zero:
            return dst
        for k, c in items:
            cc = coeff * c
            if base:
                k += base
            cur = dst.get(k)
            if cur is None:
                if cc is not zero:
                    dst[k] = cc
            else:
                s = cur + cc
                if s is not zero:
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
    zero = coeff.ctx.zero
    for k1, c1 in left:
        cc = coeff * c1
        base = k1 * n2
        for k2, c2 in right:
            val = cc * c2
            k = base + k2
            cur = dst.get(k)
            if cur is None:
                if val is not zero:
                    dst[k] = val
            else:
                s = cur + val
                if s is not zero:
                    dst[k] = s
                else:
                    del dst[k]
    return dst


def tensor_flat(u: Vec, v: Vec, n2: int) -> Vec:
    """u (x) v on flat pair indices i * n2 + j."""
    out: Vec = {}
    for i, ci in u.items():
        base = i * n2
        for j, cj in v.items():
            c = ci * cj
            if c:
                out[base + j] = c
    return out


def colinear_apply(get: Callable[[int], tuple], v: Vec, n2: int) -> Vec:
    """Image of v under a map whose row get(i) holds (j, k, c) terms,
    flat over j * n2 + k."""
    out: Vec = {}
    for i, ci in v.items():
        zero = ci.ctx.zero
        for j, k, c in get(i):
            val = ci * c
            key = j * n2 + k
            cur = out.get(key)
            if cur is None:
                if val is not zero:
                    out[key] = val
            else:
                s = cur + val
                if s is not zero:
                    out[key] = s
                else:
                    del out[key]
    return out


def vadd_term(dst: dict, key, val: Cyc) -> None:
    """dst[key] += val, in place; a zero val or a zero sum is never stored."""
    zero = val.ctx.zero
    cur = dst.get(key)
    if cur is None:
        if val is not zero:
            dst[key] = val
    else:
        s = cur + val
        if s is not zero:
            dst[key] = s
        else:
            del dst[key]


def vscale(v: Vec, coeff: Cyc) -> Vec:
    if not coeff:
        return {}
    return {k: c * coeff for k, c in v.items()}


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
        if b.get(k) is not c:
            return False
    return True


# -- structure tensors ------------------------------------------------------

class BilinearMap:
    """Bilinear map V x W -> U on basis pairs, as sparse rows.

    Rows are stored rows ((k, coeff), ...) (see `shared_row`) keyed by
    the flat pair index i * dim_w + j.  A compute function may back the
    table; computed rows are memoized so repeated lookups are cheap and
    deterministic.
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
            row = self.rows[key] = shared_row(self.fn(i, j))
        return row

    def set(self, i: int, j: int, row: Iterable) -> None:
        self.rows[i * self.dim_w + j] = shared_row(row)

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
    """LinearMap whose rows are computed on demand and memoized as
    stored rows (see `shared_row`)."""

    __slots__ = ("fn",)

    def __init__(self, dim_v: int, dim_w: int, fn: Callable[[int], Iterable]):
        super().__init__(dim_v, dim_w)
        self.fn = fn

    def get(self, i: int) -> Row:
        row = self.rows.get(i)
        if row is None:
            row = self.rows[i] = shared_row(self.fn(i))
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
    """Coproduct-shaped map V -> W1 (x) W2: rows of (j, k, coeff); computed
    rows are memoized as stored rows (see `shared_row`)."""

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
            row = self.rows[i] = shared_row(self.fn(i))
        return row

    def apply(self, v: Vec) -> Vec:
        """Result lives on flat pair indices j * dim_w2 + k."""
        return colinear_apply(self.get, v, self.dim_w2)


# -- echelon forms ----------------------------------------------------------

class Subspace:
    """Reduced row echelon span with smallest-index pivots.

    Rows are kept pivot-normalized (pivot coefficient 1) and mutually
    reduced, so membership tests and residuals are canonical.

    `support` holds every column that an inserted row had.  Back
    substitution only adds multiples of the new row to the stored rows,
    so it holds every column of every stored row, and `add` scans the
    stored rows for the new pivot only when the pivot is in it.
    """

    __slots__ = ("dim", "pivots", "pivot_row", "support")

    def __init__(self, dim: int):
        self.dim = dim
        self.pivots: list[int] = []       # kept sorted
        self.pivot_row: dict[int, Vec] = {}
        self.support: set[int] = set()

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
        if pivot in self.support:
            for existing in self.pivot_row.values():
                c = existing.get(pivot)
                if c:
                    vadd_into(existing, row, -c)
        self.support.update(row)
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
        if pivot in self.support:
            for p in self.pivots:
                existing = self.pivot_row[p]
                c = existing.get(pivot)
                if c:
                    vadd_into(existing, row, -c)
                    vadd_into(self.combos[p], combo, -c)
        self.support.update(row)
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


# Every closure round that runs has raised the rank, so more rounds than
# this mean a broken product or span, not a large algebra.
_MAX_CLOSURE_ROUNDS = 10_000


def span_closure(seed: Sequence[Vec], multiply: Callable[[Vec, Vec], Vec],
                 dim: int, mode: str = "subalgebra",
                 generators: Optional[Sequence[Vec]] = None) -> Subspace:
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
        if rounds > _MAX_CLOSURE_ROUNDS:
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


def linear_map_inverse(m: LinearMap) -> LinearMap:
    """Exact inverse of a square linear map; raises SingularMapError.

    The images of the basis vectors go into a SpanSolver.  At full rank
    every pivot row of its reduced echelon form is e_p, so the
    combination of images that the solver records for pivot p is the
    preimage of e_p.
    """
    if m.dim_v != m.dim_w:
        raise SingularMapError("only square maps can be inverted")
    solver = SpanSolver(m.dim_w)
    for i in range(m.dim_v):
        if not solver.add(dict(m.get(i))):
            raise SingularMapError("map is singular")
    out = LinearMap(m.dim_v, m.dim_v)
    for p, combo in solver.combos.items():
        out.set(p, tuple(sorted(combo.items())))
    return out
