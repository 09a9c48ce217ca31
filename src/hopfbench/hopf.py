"""Finite-dimensional Hopf algebra data and mechanical axiom checking.

A FiniteHopf carries explicit structure tensors over a cyclotomic
field: multiplication and comultiplication rows, unit vector, counit
functional and antipode matrix.  Axiom checks run in one of three
coverage modes:

* "exhaustive"  -- every basis tuple.  Associativity on algebras of
  dimension up to a few hundred goes through an integer certificate:
  basis vectors are expanded over the rational basis of the field with
  a cleared common denominator, left-multiplication becomes an integer
  sparse matrix, and the matrix identity rho(e_i e_j) = rho(e_i) rho(e_j)
  is tested for every pair with scipy int64 arithmetic (exact; an
  a-priori magnitude bound rules out overflow).
* "generators"  -- bilinear axioms are proved from a generating set:
  the elements a satisfying e.g. comult(a x) = comult(a) comult(x) for
  all x form a subalgebra, so checking generators against the whole
  basis plus a span-closure certificate that the generators generate
  covers every pair.  Per-element axioms stay exhaustive; associativity
  falls back to sampling (reported as such).
* "sampled"     -- seeded random basis tuples only.

Witnesses for exhaustive scans are lexicographically smallest failing
tuples; scans stop at the first failure.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Optional, Sequence

from .cyclo import Cyc, QContext
from .results import Check, CheckResult
from .sparse import (
    BilinearMap, ColinearMap, LinearMap, Space, SingularMapError,
    Subspace, linear_map_inverse, span_closure, vadd_into, vadd_outer,
    vadd_term, veq, vscale,
)

__all__ = [
    "FiniteHopf", "FiniteAlgebra", "check_hopf_axioms", "check_algebra_axioms",
    "dual_hopf", "cop_hopf", "op_hopf",
    "HopfPairing", "check_hopf_pairing", "hit_dual_left", "hit_dual_right",
    "hit_alg_left", "hit_alg_right", "render_element", "tensor_flat",
    "pair_product", "triple_product",
]

Vec = dict


# -- element rendering -------------------------------------------------------

def _coef_str(c: Cyc) -> str:
    s = str(c)
    if ("+" in s[1:]) or ("-" in s[1:]) or (" " in s):
        return f"({s})"
    return s


def render_element(space: Space, v: Vec) -> str:
    """Deterministic human-readable form of a vector, sorted by index."""
    if not v:
        return "0"
    parts = []
    for i in sorted(v):
        lab = space.render(space.labels[i])
        cs = _coef_str(v[i])
        if cs == "1":
            parts.append(lab)
        elif cs == "-1":
            parts.append(f"-{lab}")
        else:
            parts.append(f"{cs}*{lab}")
    return " + ".join(parts).replace("+ -", "- ")


def render_tensor(space1: Space, space2: Space, v: Vec) -> str:
    """Render a vector living on flat pair indices i * dim2 + j."""
    if not v:
        return "0"
    n2 = space2.dim
    parts = []
    for key in sorted(v):
        i, j = divmod(key, n2)
        lab = (f"{space1.render(space1.labels[i])} (x) "
               f"{space2.render(space2.labels[j])}")
        cs = _coef_str(v[key])
        if cs == "1":
            parts.append(lab)
        elif cs == "-1":
            parts.append(f"-{lab}")
        else:
            parts.append(f"{cs}*{lab}")
    return " + ".join(parts).replace("+ -", "- ")


# -- the structure container -------------------------------------------------

class FiniteHopf:
    """A finite-dimensional Hopf algebra given by structure tensors.

    mult, comult and antipode rows may be lazily backed; the unit and
    the counit are always explicit.  `generators` is an
    optional list of vectors used by generator-mode checks; it should
    generate the algebra together with the unit.
    """

    __slots__ = ("ctx", "space", "mult", "unit", "comult", "counit",
                 "antipode", "generators", "name", "_antipode_inv")

    def __init__(self, ctx: QContext, space: Space, mult: BilinearMap,
                 unit: Vec, comult: ColinearMap, counit: dict,
                 antipode: LinearMap, generators: Optional[list] = None,
                 name: str = ""):
        self.ctx = ctx
        self.space = space
        self.mult = mult
        self.unit = unit
        self.comult = comult
        self.counit = counit
        self.antipode = antipode
        self.generators = generators
        self.name = name or space.name
        self._antipode_inv: Optional[LinearMap] = None

    @property
    def dim(self) -> int:
        return self.space.dim

    def basis(self, i: int) -> Vec:
        return {i: self.ctx.one}

    def element(self, label) -> Vec:
        return {self.space.index[label]: self.ctx.one}

    def product(self, u: Vec, v: Vec) -> Vec:
        return self.mult.apply(u, v)

    def coproduct(self, v: Vec) -> Vec:
        return self.comult.apply(v)

    def counit_of(self, v: Vec) -> Cyc:
        total = self.ctx.zero
        for i, c in v.items():
            e = self.counit.get(i)
            if e is not None:
                total = total + c * e
        return total

    def antipode_of(self, v: Vec) -> Vec:
        return self.antipode.apply(v)

    def antipode_inv(self) -> LinearMap:
        if self._antipode_inv is None:
            self._antipode_inv = linear_map_inverse(self.antipode, self.ctx)
        return self._antipode_inv

    def antipode_inv_of(self, v: Vec) -> Vec:
        return self.antipode_inv().apply(v)

    def coproduct_nested(self, v: Vec, parts: int) -> Vec:
        """Iterated coproduct with left-nested flat indices.

        parts=1 returns v; parts=2 is the plain coproduct; parts=m
        applies (coproduct (x) id^(m-2)) o ... recursively on the first
        tensor leg, so a flat index reads (((i1*n+i2)*n+i3)...).
        """
        if parts == 1:
            return dict(v)
        n = self.dim
        cur = self.coproduct(v)           # flat pairs, leftmost split
        for _ in range(parts - 2):
            nxt: Vec = {}
            for key, c in cur.items():
                head, tail = divmod(key, n)
                for j, k, cc in self.comult.get(head):
                    vadd_term(nxt, (j * n + k) * n + tail, c * cc)
            cur = nxt
        return cur

    def render(self, v: Vec) -> str:
        return render_element(self.space, v)

    def __repr__(self) -> str:
        return f"FiniteHopf({self.name}, dim={self.dim})"


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


def pair_product(H: FiniteHopf, x: Vec, y: Vec) -> Vec:
    """Componentwise product on H (x) H given by flat pair vectors."""
    n = H.dim
    get = H.mult.get
    out: Vec = {}
    for p1, c1 in x.items():
        a, b = divmod(p1, n)
        for p2, c2 in y.items():
            c, d = divmod(p2, n)
            row_l = get(a, c)
            if not row_l:
                continue
            row_r = get(b, d)
            if not row_r:
                continue
            vadd_outer(out, c1 * c2, row_l, row_r, n)
    return out


def triple_product(H: FiniteHopf, x: Vec, y: Vec) -> Vec:
    """Componentwise product on H (x) H (x) H given by flat triple vectors."""
    n = H.dim
    get = H.mult.get
    out: Vec = {}
    for t1, c1 in x.items():
        ab, a3 = divmod(t1, n)
        a1, a2 = divmod(ab, n)
        for t2, c2 in y.items():
            bb, b3 = divmod(t2, n)
            b1, b2 = divmod(bb, n)
            cc = c1 * c2
            if not cc:
                continue
            r1 = get(a1, b1)
            if not r1:
                continue
            r2 = get(a2, b2)
            if not r2:
                continue
            r3 = get(a3, b3)
            if not r3:
                continue
            for k1, ck1 in r1:
                v1 = cc * ck1
                for k2, ck2 in r2:
                    vadd_into(out, r3, v1 * ck2, (k1 * n + k2) * n)
    return out


class FiniteAlgebra:
    """An associative unital algebra with a labeled basis (no coalgebra).

    Shares the vector/product conventions of FiniteHopf so that the
    associativity checks (including the integer certificate) apply to
    both.
    """

    __slots__ = ("ctx", "space", "mult", "unit", "generators", "name")

    def __init__(self, ctx: QContext, space: Space, mult: BilinearMap,
                 unit: Vec, generators: Optional[list] = None, name: str = ""):
        self.ctx = ctx
        self.space = space
        self.mult = mult
        self.unit = unit
        self.generators = generators
        self.name = name or space.name

    @property
    def dim(self) -> int:
        return self.space.dim

    def basis(self, i: int) -> Vec:
        return {i: self.ctx.one}

    def element(self, label) -> Vec:
        return {self.space.index[label]: self.ctx.one}

    def product(self, u: Vec, v: Vec) -> Vec:
        return self.mult.apply(u, v)

    def render(self, v: Vec) -> str:
        return render_element(self.space, v)

    def __repr__(self) -> str:
        return f"FiniteAlgebra({self.name}, dim={self.dim})"


def check_algebra_axioms(A, mode: str = "exhaustive", seed: int = 0,
                         samples: int = 2000) -> list:
    """Associativity + unit laws for a FiniteAlgebra (or FiniteHopf)."""
    rng = random.Random(seed)
    return [_check_associativity(A, mode, rng, samples), _check_unit(A)]


# -- integer certificate for exhaustive associativity ------------------------

def _zeta_regular_matrices(ctx: QContext):
    """Integer phi x phi matrices of multiplication by zeta^t, t < phi."""
    import numpy as np

    phi = ctx.phi
    zmat = np.zeros((phi, phi), dtype=object)
    for j in range(phi):
        img = ctx.zeta_pow(j + 1)
        # zeta^(j+1) has integer coordinates (power basis, denominator 1)
        for t in range(phi):
            zmat[t, j] = img.c[t] if img.d == 1 else Fraction(img.c[t], img.d)
    mats = [np.eye(phi, dtype=object)]
    for _ in range(1, phi):
        mats.append(zmat @ mats[-1])
    return mats


def _assoc_int_certificate(H: FiniteHopf):
    """Exhaustive associativity by integer sparse matrices.

    Returns (witness_or_None, cases).  Raises RuntimeError when the
    a-priori magnitude bound does not fit in int64 (callers fall back
    to the pure loop).
    """
    import numpy as np
    import scipy.sparse as sp

    ctx = H.ctx
    n = H.dim
    phi = ctx.phi
    nphi = n * phi
    H.mult.materialize()
    rows = H.mult.rows

    den = 1
    max_terms = 1
    for row in rows.values():
        if len(row) > max_terms:
            max_terms = len(row)
        for _, c in row:
            den = lcm(den, c.d)

    zmats = _zeta_regular_matrices(ctx)
    if any(isinstance(x, Fraction) for zm in zmats for x in zm.flat):
        raise RuntimeError("power basis reduction is not integral")
    zmats = [zm.astype(np.int64) for zm in zmats]

    # Expanded coefficient columns: scalar c -> int vector of den*c, and
    # regular representation R(den*c) = sum_t coeff_t zmats[t].
    def int_coeffs(c: Cyc):
        scale = den // c.d
        return [x * scale for x in c.c]

    rmemo: dict = {}

    def rmat(c: Cyc):
        key = (c.c, c.d)
        m = rmemo.get(key)
        if m is None:
            coeffs = int_coeffs(c)
            m = np.zeros((phi, phi), dtype=np.int64)
            for t, a in enumerate(coeffs):
                if a:
                    m += a * zmats[t]
            rmemo[key] = m
        return m

    # Magnitude bound: entries of a product of two structure matrices are
    # sums of at most phi*max_terms int products.
    max_entry = 0
    for row in rows.values():
        for _, c in row:
            m = rmat(c)
            e = int(np.max(np.abs(m)))
            if e > max_entry:
                max_entry = e
    zabs = max(int(np.max(np.abs(zm))) for zm in zmats)
    bound = phi * max_terms * (max_entry * zabs) * max_entry * phi
    if bound >= 2 ** 62:
        raise RuntimeError("int64 magnitude bound exceeded")

    # Slim matrices: column k of bslim[i] = den * expand(e_i e_k).
    bslim = []
    for i in range(n):
        data, ri, ci = [], [], []
        for k in range(n):
            for m_out, c in rows[i * n + k]:
                for t, a in enumerate(int_coeffs(c)):
                    if a:
                        data.append(a)
                        ri.append(m_out * phi + t)
                        ci.append(k)
        bslim.append(sp.csr_matrix((data, (ri, ci)), shape=(nphi, n), dtype=np.int64))

    # Full matrices: column (k*phi + t) = den * expand(e_i (zeta^t e_k)).
    bfull = []
    for i in range(n):
        data, ri, ci = [], [], []
        for k in range(n):
            for m_out, c in rows[i * n + k]:
                rm = rmat(c)
                for t_out in range(phi):
                    for t_in in range(phi):
                        a = int(rm[t_out, t_in])
                        if a:
                            data.append(a)
                            ri.append(m_out * phi + t_out)
                            ci.append(k * phi + t_in)
        bfull.append(sp.csr_matrix((data, (ri, ci)), shape=(nphi, nphi), dtype=np.int64))

    # Assembly operator: column (m*phi + t) holds bslim of zeta^t e_m in
    # the vec layout row = k * nphi + r.
    qdata, qri, qci = [], [], []
    st_blocks = [sp.kron(sp.identity(n, dtype=np.int64, format="csr"),
                         sp.csr_matrix(zm), format="csr") for zm in zmats]
    for m_idx in range(n):
        for t in range(phi):
            mat = (st_blocks[t] @ bslim[m_idx]).tocoo()
            qdata.append(mat.data)
            qri.append(mat.col.astype(np.int64) * nphi + mat.row)
            qci.append(np.full(mat.nnz, m_idx * phi + t, dtype=np.int64))
    qmat = sp.csr_matrix(
        (np.concatenate(qdata), (np.concatenate(qri), np.concatenate(qci))),
        shape=(n * nphi, nphi), dtype=np.int64)

    # hstack of all bslim_j with column offset j*n
    adata, ari, aci = [], [], []
    for j in range(n):
        m = bslim[j].tocoo()
        adata.append(m.data)
        ari.append(m.row)
        aci.append(m.col.astype(np.int64) + j * n)
    ball = sp.csr_matrix(
        (np.concatenate(adata), (np.concatenate(ari), np.concatenate(aci))),
        shape=(nphi, n * n), dtype=np.int64)

    for i in range(n):
        lhs = (bfull[i] @ ball).tocoo()
        # remap [r, j*n + k] -> [k*nphi + r, j]
        j_idx, k_idx = np.divmod(lhs.col, n)
        lhs_v = sp.csr_matrix(
            (lhs.data, (k_idx.astype(np.int64) * nphi + lhs.row, j_idx)),
            shape=(n * nphi, n), dtype=np.int64)
        rhs_v = qmat @ bslim[i]
        diff = (lhs_v - rhs_v).tocoo()
        if diff.nnz:
            mask = diff.data != 0
            if mask.any():
                ks = diff.row[mask] // nphi
                js = diff.col[mask]
                pairs = sorted(zip(js.tolist(), ks.tolist()))
                j_bad, k_bad = pairs[0]
                return (i, j_bad, k_bad), n ** 3
    return None, n ** 3


# -- axiom checks -------------------------------------------------------------

def _assoc_loop(H: FiniteHopf, triples: Iterable[tuple]) -> tuple:
    count = 0
    for i, j, k in triples:
        count += 1
        lhs = H.product(H.product(H.basis(i), H.basis(j)), H.basis(k))
        rhs = H.product(H.basis(i), H.product(H.basis(j), H.basis(k)))
        if not veq(lhs, rhs):
            return (i, j, k), count
    return None, count


def _witness_triple(H: FiniteHopf, t) -> str:
    r = H.space.render
    labs = [r(H.space.labels[i]) for i in t]
    return f"basis triple ({', '.join(labs)}): (xy)z != x(yz)"


def _check_associativity(H: FiniteHopf, mode: str, rng, samples: int) -> CheckResult:
    chk = Check("mult-associativity", "exhaustive")
    n = H.dim
    found = None
    if mode == "exhaustive":
        if n > 40:
            try:
                found = _assoc_int_certificate(H)
            except (RuntimeError, ImportError):
                pass
        if found is None:
            found = _assoc_loop(H, itertools.product(range(n), repeat=3))
    else:
        chk.mode = "sampled"
        triples = []
        if H.generators is not None:
            gidx = sorted({i for g in H.generators for i in g})
            triples.extend(itertools.product(gidx, repeat=3))
        triples.extend((rng.randrange(n), rng.randrange(n), rng.randrange(n))
                       for _ in range(samples))
        found = _assoc_loop(H, triples)
    wit, chk.cases = found
    return chk.result(_witness_triple(H, wit) if wit else None)


def _check_unit(H: FiniteHopf) -> CheckResult:
    chk = Check("mult-unit", "exhaustive", cases=2 * H.dim)
    for i in range(H.dim):
        e = H.basis(i)
        if not veq(H.product(H.unit, e), e):
            return chk.result(f"1*{H.space.render(H.space.labels[i])} != itself")
        if not veq(H.product(e, H.unit), e):
            return chk.result(f"{H.space.render(H.space.labels[i])}*1 != itself")
    return chk.result()


def _check_coassociativity(H: FiniteHopf) -> CheckResult:
    n = H.dim
    chk = Check("comult-coassociativity", "exhaustive", cases=n)
    for i in range(n):
        # (comult (x) id) comult vs (id (x) comult) comult on e_i
        left: Vec = {}
        right: Vec = {}
        for j, k, c in H.comult.get(i):
            for a, b, cc in H.comult.get(j):
                vadd_term(left, (a * n + b) * n + k, c * cc)
            for a, b, cc in H.comult.get(k):
                vadd_term(right, (j * n + a) * n + b, c * cc)
        if not veq(left, right):
            return chk.result(
                f"coassociativity fails on {H.space.render(H.space.labels[i])}")
    return chk.result()


def _check_counit_laws(H: FiniteHopf) -> CheckResult:
    n = H.dim
    chk = Check("counit-laws", "exhaustive", cases=n)
    for i in range(n):
        left: Vec = {}
        right: Vec = {}
        for j, k, c in H.comult.get(i):
            ej = H.counit.get(j)
            if ej is not None:
                vadd_term(left, k, c * ej)
            ek = H.counit.get(k)
            if ek is not None:
                vadd_term(right, j, c * ek)
        e = H.basis(i)
        if not veq(left, e) or not veq(right, e):
            return chk.result(
                f"counit law fails on {H.space.render(H.space.labels[i])}")
    return chk.result()


def _comult_mult_pair_ok(H: FiniteHopf, i: int, j: int) -> bool:
    lhs = H.coproduct(H.product(H.basis(i), H.basis(j)))
    rhs = pair_product(H, H.coproduct(H.basis(i)), H.coproduct(H.basis(j)))
    return veq(lhs, rhs)


def _counit_mult_pair_ok(H: FiniteHopf, i: int, j: int) -> bool:
    lhs = H.counit_of(H.product(H.basis(i), H.basis(j)))
    ei = H.counit.get(i)
    ej = H.counit.get(j)
    rhs = (ei * ej) if (ei is not None and ej is not None) else H.ctx.zero
    return lhs == rhs


def _generation_certificate(H: FiniteHopf) -> Optional[Subspace]:
    """Span closure of generators + unit; None when no generators set."""
    if not H.generators:
        return None
    seed = [dict(H.unit)] + [dict(g) for g in H.generators]
    return span_closure(seed, H.product, H.dim)


def _check_pairwise(H: FiniteHopf, name: str, pair_ok, mode: str, rng,
                    samples: int, closure_rank: Optional[int]) -> CheckResult:
    """Run a bilinear axiom over pairs in the requested coverage mode."""
    chk = Check(name, mode)
    n = H.dim
    wit = None
    if mode == "exhaustive":
        for i, j in itertools.product(range(n), repeat=2):
            chk.cases += 1
            if not pair_ok(H, i, j):
                wit = (i, j)
                break
    elif mode == "generators" and H.generators:
        gidx = sorted({i for g in H.generators for i in g})
        # generator rows against the whole basis, both sides
        for g, j in itertools.product(gidx, range(n)):
            chk.cases += 2
            if not pair_ok(H, g, j):
                wit = (g, j)
                break
            if not pair_ok(H, j, g):
                wit = (j, g)
                break
        if wit is None and closure_rank != n:
            return chk.result(f"generating set spans rank {closure_rank} of {n}; "
                              "generation certificate failed")
    else:
        chk.mode = "sampled"
        for _ in range(samples):
            i, j = rng.randrange(n), rng.randrange(n)
            chk.cases += 1
            if not pair_ok(H, i, j):
                wit = (i, j)
                break
    if wit:
        r = H.space.render
        return chk.result(f"basis pair ({r(H.space.labels[wit[0]])}, "
                          f"{r(H.space.labels[wit[1]])})")
    return chk.result()


def _check_comult_unit(H: FiniteHopf) -> CheckResult:
    chk = Check("comult-counit-unital", "exhaustive", cases=2)
    if H.counit_of(H.unit) != H.ctx.one:
        return chk.result("counit(1) != 1")
    if not veq(H.coproduct(H.unit), tensor_flat(H.unit, H.unit, H.dim)):
        return chk.result("comult(1) != 1(x)1")
    return chk.result()


def _check_antipode(H: FiniteHopf) -> CheckResult:
    n = H.dim
    chk = Check("antipode-convolution", "exhaustive", cases=2 * n)
    for i in range(n):
        left: Vec = {}
        right: Vec = {}
        for j, k, c in H.comult.get(i):
            vadd_into(left, H.product(H.antipode_of(H.basis(j)), H.basis(k)), c)
            vadd_into(right, H.product(H.basis(j), H.antipode_of(H.basis(k))), c)
        target = vscale(H.unit, H.counit.get(i, H.ctx.zero))
        if not veq(left, target):
            return chk.result(f"m(S(x)id)comult != unit*counit on "
                              f"{H.space.render(H.space.labels[i])}")
        if not veq(right, target):
            return chk.result(f"m(id(x)S)comult != unit*counit on "
                              f"{H.space.render(H.space.labels[i])}")
    return chk.result()


def _antihom_pair_ok(H: FiniteHopf, i: int, j: int) -> bool:
    lhs = H.antipode_of(H.product(H.basis(i), H.basis(j)))
    rhs = H.product(H.antipode_of(H.basis(j)), H.antipode_of(H.basis(i)))
    return veq(lhs, rhs)


def check_hopf_axioms(H: FiniteHopf, mode: str = "exhaustive",
                      seed: int = 0, samples: int = 2000,
                      include_antihom: bool = False) -> list:
    """All Hopf-algebra axioms for H; returns a list of CheckResult."""
    if mode not in ("exhaustive", "generators", "sampled"):
        raise ValueError(f"unknown coverage mode {mode!r}")
    rng = random.Random(seed)
    closure_rank = None
    if mode == "generators":
        cert = _generation_certificate(H)
        closure_rank = cert.rank if cert is not None else -1
    results = [
        _check_associativity(H, mode, rng, samples),
        _check_unit(H),
        _check_coassociativity(H),
        _check_counit_laws(H),
        _check_comult_unit(H),
        _check_pairwise(H, "comult-multiplicative", _comult_mult_pair_ok,
                        mode, rng, samples, closure_rank),
        _check_pairwise(H, "counit-multiplicative", _counit_mult_pair_ok,
                        mode, rng, samples, closure_rank),
        _check_antipode(H),
    ]
    if include_antihom:
        results.append(
            _check_pairwise(H, "antipode-antimultiplicative",
                            _antihom_pair_ok, mode, rng, samples, closure_rank))
    return results


# -- duals and twists ---------------------------------------------------------

def dual_hopf(H: FiniteHopf, name: str = "") -> FiniteHopf:
    """Dual Hopf algebra on the dual basis <e^i, e_j> = delta_ij.

    Multiplication transposes the coproduct (<fg, x> = <f, x'><g, x''>),
    comultiplication transposes the product, the unit is the counit
    functional, the counit evaluates at the unit, and the antipode is
    the transpose matrix.  Requires materialized structure rows.
    """
    n = H.dim
    H.mult.materialize()
    mult_rows: dict[int, list] = {}
    for i in range(n):
        for j, k, c in H.comult.get(i):
            mult_rows.setdefault(j * n + k, []).append((i, c))
    mult = BilinearMap(n, n,
                       {key: tuple(sorted(row)) for key, row in mult_rows.items()})
    comult_rows: dict[int, list] = {}
    for i in range(n):
        for j in range(n):
            for k, c in H.mult.get(i, j):
                comult_rows.setdefault(k, []).append((i, j, c))
    comult = ColinearMap(n, n, n,
                         {k: tuple(sorted(row)) for k, row in comult_rows.items()})
    unit = {i: c for i, c in H.counit.items()}
    counit = {i: c for i, c in H.unit.items()}
    antipode = H.antipode.transpose()
    space = Space(name or f"{H.space.name}^*", H.space.labels,
                  lambda lab, r=H.space.render: f"{r(lab)}^*")
    return FiniteHopf(H.ctx, space, mult, unit, comult, counit, antipode,
                      name=name or f"{H.name}^*")


def cop_hopf(H: FiniteHopf, name: str = "") -> FiniteHopf:
    """Same algebra with reversed coproduct; antipode becomes S^(-1)."""
    n = H.dim
    rows = {}
    fn = None
    if H.comult.fn is None:
        rows = {i: tuple((k, j, c) for j, k, c in row)
                for i, row in H.comult.rows.items()}
    else:
        base = H.comult
        fn = lambda i: tuple((k, j, c) for j, k, c in base.get(i))
    comult = ColinearMap(n, n, n, rows, fn)
    return FiniteHopf(H.ctx, H.space, H.mult, H.unit, comult, H.counit,
                      H.antipode_inv(), generators=H.generators,
                      name=name or f"{H.name}-cop")


def op_hopf(H: FiniteHopf, name: str = "") -> FiniteHopf:
    """Same coalgebra with reversed product; antipode becomes S^(-1)."""
    n = H.dim
    rows = {}
    fn = None
    if H.mult.fn is None:
        H.mult.materialize()
        for i in range(n):
            for j in range(n):
                row = H.mult.get(i, j)
                if row:
                    rows[j * n + i] = row
    else:
        base = H.mult
        fn = lambda i, j: base.get(j, i)
    mult = BilinearMap(n, n, rows, fn)
    return FiniteHopf(H.ctx, H.space, mult, H.unit, H.comult, H.counit,
                      H.antipode_inv(), generators=H.generators,
                      name=name or f"{H.name}-op")


# -- pairings and the regular actions -----------------------------------------

class HopfPairing:
    """A bilinear pairing between a dual-side and a primal-side algebra.

    rows[f] lists (b, <f, e_b>) for basis functionals f.  The canonical
    dual pairing is the identity matrix; a relabeled dual (e.g. a
    monomial basis on the dual side) carries a genuine matrix.
    """

    __slots__ = ("dual", "alg", "rows")

    def __init__(self, dual: FiniteHopf, alg: FiniteHopf, rows: dict):
        self.dual = dual
        self.alg = alg
        self.rows = rows    # {f_index: ((b_index, Cyc), ...)}

    @classmethod
    def canonical(cls, dual: FiniteHopf, alg: FiniteHopf) -> "HopfPairing":
        one = alg.ctx.one
        return cls(dual, alg, {i: ((i, one),) for i in range(alg.dim)})

    def pair_basis(self, f: int, b: int) -> Optional[Cyc]:
        for bb, c in self.rows.get(f, ()):
            if bb == b:
                return c
        return None

    def pair(self, fvec: Vec, bvec: Vec) -> Cyc:
        total = self.alg.ctx.zero
        for f, cf in fvec.items():
            row = self.rows.get(f)
            if not row:
                continue
            for b, c in row:
                cb = bvec.get(b)
                if cb is not None:
                    total = total + cf * cb * c
        return total


def check_hopf_pairing(P: HopfPairing, mode: str = "exhaustive",
                       seed: int = 0, samples: int = 1000) -> list:
    """Compatibility axioms making P a Hopf pairing.

    <fg, x> = <f (x) g, comult x>, <comult* f, x (x) y> = <f, xy>,
    <1*, x> = counit(x), counit*(f) = <f, 1>, <S* f, x> = <f, S x>,
    and nondegeneracy via the rank of the pairing matrix.
    """
    n = P.alg.dim
    rng = random.Random(seed)
    if mode == "exhaustive":
        pairs = [(i, j) for i in range(n) for j in range(n)]
    else:
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(samples)]
    return [_pairing_mult_vs_comult(P, pairs, mode),
            _pairing_comult_vs_mult(P, pairs, mode),
            _pairing_units_antipode(P),
            _pairing_nondegenerate(P)]


def _pairing_mult_vs_comult(P: HopfPairing, pairs: list, mode: str) -> CheckResult:
    D, A = P.dual, P.alg
    n = A.dim
    chk = Check("pairing-mult-vs-comult", mode, cases=len(pairs) * n)
    for f, g in pairs:
        prod = D.product(D.basis(f), D.basis(g))
        for x in range(n):
            lhs = P.pair(prod, A.basis(x))
            rhs = A.ctx.zero
            for j, k, c in A.comult.get(x):
                cf = P.pair_basis(f, j)
                if cf is None:
                    continue
                cg = P.pair_basis(g, k)
                if cg is None:
                    continue
                rhs = rhs + c * cf * cg
            if lhs != rhs:
                return chk.result(
                    f"<f g, x> mismatch at f={D.space.render(D.space.labels[f])}, "
                    f"g={D.space.render(D.space.labels[g])}, "
                    f"x={A.space.render(A.space.labels[x])}")
    return chk.result()


def _pairing_comult_vs_mult(P: HopfPairing, pairs: list, mode: str) -> CheckResult:
    D, A = P.dual, P.alg
    chk = Check("pairing-comult-vs-mult", mode, cases=len(pairs) ** 2)
    for f, _ in pairs:
        for x, y in pairs:
            lhs = P.pair(D.basis(f), A.product(A.basis(x), A.basis(y)))
            rhs = A.ctx.zero
            for j, k, c in D.comult.get(f):
                cj = P.pair_basis(j, x)
                if cj is None:
                    continue
                ck = P.pair_basis(k, y)
                if ck is None:
                    continue
                rhs = rhs + c * cj * ck
            if lhs != rhs:
                return chk.result(f"<comult* f, x(x)y> mismatch at "
                                  f"f={D.space.render(D.space.labels[f])}, "
                                  f"x={A.space.render(A.space.labels[x])}, "
                                  f"y={A.space.render(A.space.labels[y])}")
    return chk.result()


def _pairing_units_antipode(P: HopfPairing) -> CheckResult:
    D, A = P.dual, P.alg
    n = A.dim
    chk = Check("pairing-units-antipode", "exhaustive", cases=2 * n + n * n)
    for x in range(n):
        if P.pair(D.unit, A.basis(x)) != A.counit.get(x, A.ctx.zero):
            return chk.result(f"<1*, {A.space.render(A.space.labels[x])}> != counit")
    for f in range(n):
        if P.pair(D.basis(f), A.unit) != D.counit.get(f, A.ctx.zero):
            return chk.result(
                f"counit*({D.space.render(D.space.labels[f])}) != <f, 1>")
    for f, x in itertools.product(range(n), repeat=2):
        lhs = P.pair(D.antipode_of(D.basis(f)), A.basis(x))
        rhs = P.pair(D.basis(f), A.antipode_of(A.basis(x)))
        if lhs != rhs:
            return chk.result(f"<S* f, x> != <f, S x> at "
                              f"f={D.space.render(D.space.labels[f])}, "
                              f"x={A.space.render(A.space.labels[x])}")
    return chk.result()


def _pairing_nondegenerate(P: HopfPairing) -> CheckResult:
    n = P.alg.dim
    chk = Check("pairing-nondegenerate", "exhaustive", cases=n)
    span = Subspace(n)
    for f in range(n):
        span.add({b: c for b, c in P.rows.get(f, ())})
    if span.rank != n:
        return chk.result(f"pairing matrix rank {span.rank} < {n}")
    return chk.result()


def hit_dual_left(P: HopfPairing, b: Vec, f: Vec) -> Vec:
    """Left action of the algebra on its dual: b acts on f as f' <f'', b>."""
    D = P.dual
    out: Vec = {}
    for i, ci in f.items():
        for j, k, c in D.comult.get(i):
            val = P.pair({k: c}, b)
            if val:
                vadd_term(out, j, ci * val)
    return out


def hit_dual_right(P: HopfPairing, f: Vec, b: Vec) -> Vec:
    """Right action on the dual: f hit by b gives <f', b> f''."""
    D = P.dual
    out: Vec = {}
    for i, ci in f.items():
        for j, k, c in D.comult.get(i):
            val = P.pair({j: c}, b)
            if val:
                vadd_term(out, k, ci * val)
    return out


def hit_alg_left(P: HopfPairing, f: Vec, b: Vec) -> Vec:
    """Left action of the dual on the algebra: b' <f, b''>."""
    A = P.alg
    out: Vec = {}
    for i, ci in b.items():
        for j, k, c in A.comult.get(i):
            val = P.pair(f, {k: c})
            if val:
                vadd_term(out, j, ci * val)
    return out


def hit_alg_right(P: HopfPairing, b: Vec, f: Vec) -> Vec:
    """Right action of the dual on the algebra: <f, b'> b''."""
    A = P.alg
    out: Vec = {}
    for i, ci in b.items():
        for j, k, c in A.comult.get(i):
            val = P.pair(f, {j: c})
            if val:
                vadd_term(out, k, ci * val)
    return out
