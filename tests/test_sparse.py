"""Unit tests for the sparse exact linear algebra layer."""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import hopfbench.sparse as sparse
from hopfbench.cyclo import QContext
from hopfbench.sparse import (
    BilinearMap, ColinearMap, LinearMap, QuotientSpace, SingularMapError,
    SpanSolver, Subspace, linear_map_inverse, span_closure,
    vadd_into, vadd_outer, vadd_term, veq, vneg, vscale, vsub,
)

CTX = QContext(2)


def vec(entries):
    """{index: int} -> {index: Cyc}, dropping zeros."""
    return {k: CTX.rational(v) for k, v in entries.items() if v}


def rand_vec(rng, dim, density=0.5):
    out = {}
    for i in range(dim):
        if rng.random() < density:
            c = rng.randint(-4, 4)
            if c:
                out[i] = CTX.rational(c)
    return out


# -- vector helpers ----------------------------------------------------------

def test_vadd_into_cancels_to_empty():
    a = vec({0: 2, 3: -1})
    vadd_into(a, vec({0: -2, 3: 1}))
    assert a == {}


def test_vadd_into_with_coefficient():
    a = vec({1: 1})
    vadd_into(a, vec({1: 2, 2: 5}), CTX.rational(3))
    assert veq(a, vec({1: 7, 2: 15}))


def test_vsub_vneg_roundtrip():
    a = vec({0: 1, 5: -2})
    b = vec({5: 4, 7: 1})
    assert veq(vsub(a, b), vadd_into(dict(a), vneg(b)))


def test_vscale_by_zero_is_empty():
    assert vscale(vec({0: 3}), CTX.zero) == {}


# -- structure tensors -------------------------------------------------------

def test_bilinear_lazy_matches_materialized():
    # Multiplication table of the group algebra of Z_4.
    def fn(i, j):
        return ((  (i + j) % 4, CTX.one),)

    lazy = BilinearMap(4, 4, fn=fn)
    eager = BilinearMap(4, 4)
    for i in range(4):
        for j in range(4):
            eager.set(i, j, fn(i, j))
    rng = random.Random(7)
    for _ in range(20):
        u, w = rand_vec(rng, 4), rand_vec(rng, 4)
        assert veq(lazy.apply(u, w), eager.apply(u, w))
    lazy.materialize()
    assert lazy.is_materialized()


def test_bilinear_apply_is_bilinear():
    rng = random.Random(11)
    m = BilinearMap(3, 3)
    for i in range(3):
        for j in range(3):
            m.set(i, j, tuple((k, CTX.rational(rng.randint(-2, 2))) for k in range(3)))
    u1, u2, w = rand_vec(rng, 3), rand_vec(rng, 3), rand_vec(rng, 3)
    lhs = m.apply(vadd_into(dict(u1), u2), w)
    rhs = vadd_into(m.apply(u1, w), m.apply(u2, w))
    assert veq(lhs, rhs)


def test_linear_compose_and_transpose():
    f = LinearMap(2, 3, {0: ((0, CTX.one), (2, CTX.rational(2))), 1: ((1, CTX.one),)})
    g = LinearMap(3, 2, {0: ((0, CTX.one),), 1: ((1, CTX.rational(-1)),), 2: ((0, CTX.one),)})
    gf = g.compose(f)                       # V2 -> V2
    assert veq(gf.apply(vec({0: 1})), vec({0: 3}))
    assert veq(gf.apply(vec({1: 1})), vec({1: -1}))
    ftt = f.transpose().transpose()
    for i in range(2):
        assert sorted(ftt.get(i)) == sorted(f.get(i))


def test_colinear_apply_flat_pairs():
    d = ColinearMap(2, 2, 3)
    d.set(0, ((0, 0, CTX.one), (1, 2, CTX.rational(5))))
    out = d.apply(vec({0: 2}))
    assert veq(out, vec({0: 2, 1 * 3 + 2: 10}))


def test_colinear_lazy_rows():
    d = ColinearMap(3, 3, 3, fn=lambda i: ((i, i, CTX.one),))
    assert d.get(2) == ((2, 2, CTX.one),)
    assert veq(d.apply(vec({1: 4})), vec({1 * 3 + 1: 4}))


# -- echelon spans -----------------------------------------------------------

def test_subspace_membership_and_rank():
    s = Subspace(4)
    assert s.add(vec({0: 1, 1: 1}))
    assert s.add(vec({1: 1, 2: 1}))
    assert not s.add(vec({0: 1, 2: -1}))        # combination of the first two
    assert s.rank == 2
    assert s.contains(vec({0: 2, 1: 1, 2: -1}))
    assert not s.contains(vec({3: 1}))


def test_subspace_reduce_is_idempotent():
    rng = random.Random(3)
    s = Subspace(6)
    for _ in range(3):
        s.add(rand_vec(rng, 6))
    for _ in range(10):
        v = rand_vec(rng, 6)
        r = s.reduce(v)
        assert veq(s.reduce(r), r)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5),
                min_size=1, max_size=6),
       st.randoms(use_true_random=False))
def test_subspace_canonical_under_insertion_order(rows, rng):
    vecs = [vec(dict(enumerate(r))) for r in rows]
    s1 = Subspace(5)
    s1.add_many(vecs)
    shuffled = list(vecs)
    rng.shuffle(shuffled)
    s2 = Subspace(5)
    s2.add_many(shuffled)
    assert s1.pivots == s2.pivots
    for p in s1.pivots:
        assert veq(s1.pivot_row[p], s2.pivot_row[p])


def test_span_solver_coordinates_recombine():
    rng = random.Random(5)
    inserted = [rand_vec(rng, 5) or vec({0: 1}) for _ in range(4)]
    solver = SpanSolver(5)
    for v in inserted:
        solver.add(v)
    target = {}
    coeffs = [CTX.rational(c) for c in (2, -1, 0, 3)]
    for c, v in zip(coeffs, inserted):
        vadd_into(target, v, c)
    coords = solver.solve(target)
    assert coords is not None
    rebuilt = {}
    for idx, c in coords.items():
        vadd_into(rebuilt, inserted[idx], c)
    assert veq(rebuilt, target)


def test_span_solver_rejects_outside_vector():
    solver = SpanSolver(3)
    solver.add(vec({0: 1}))
    assert solver.solve(vec({1: 1})) is None


# Reference echelon: reductions that walk every pivot, as before the walk
# was restricted to the pivots in the vector's support.

class _AllPivotsSubspace(Subspace):
    def reduce(self, v):
        out = dict(v)
        for p in self.pivots:
            c = out.get(p)
            if c:
                sparse.vadd_into(out, self.pivot_row[p], -c)
        return out


class _AllPivotsSolver(SpanSolver):
    def _reduce_with_combo(self, v):
        res, combo = dict(v), {}
        for p in self.pivots:
            c = res.get(p)
            if c:
                sparse.vadd_into(res, self.pivot_row[p], -c)
                sparse.vadd_into(combo, self.combos[p], -c)
        return res, combo


CONTEXTS = {p: QContext(p) for p in (2, 3)}


def cyc_vectors(ctx, dim):
    """Sparse vectors whose entries are sums of at most two r*zeta^j."""
    term = st.tuples(st.integers(-2, 2), st.integers(0, 4 * ctx.p - 1))
    coeff = st.lists(term, min_size=1, max_size=2).map(
        lambda ts: sum((ctx.rational(c) * ctx.zeta_pow(j) for c, j in ts),
                       ctx.zero))
    return st.dictionaries(st.integers(0, dim - 1), coeff, max_size=dim).map(
        lambda d: {k: c for k, c in d.items() if c})


def recorded(fn):
    """fn() and the list of (src, coeff) of every vadd_into it made."""
    calls = []
    real = sparse.vadd_into

    def record(dst, src, coeff=None):
        calls.append((sorted(src.items()), coeff))
        return real(dst, src, coeff)

    with mock.patch.object(sparse, "vadd_into", record):
        return fn(), calls


@pytest.mark.parametrize("p", [2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_support_walk_matches_all_pivots_walk(p, data):
    dim = 6
    vectors = cyc_vectors(CONTEXTS[p], dim)
    inserted = data.draw(st.lists(vectors, min_size=1, max_size=8))
    probes = data.draw(st.lists(vectors, max_size=3))

    def run(subspace_cls, solver_cls):
        span, solver = subspace_cls(dim), solver_cls(dim)
        grew = [(span.add(v), solver.add(v)) for v in inserted]
        out = [(span.reduce(w), solver.solve(w)) for w in probes]
        return span, solver, grew, out

    (s1, v1, grew1, out1), calls1 = recorded(
        lambda: run(Subspace, SpanSolver))
    (s2, v2, grew2, out2), calls2 = recorded(
        lambda: run(_AllPivotsSubspace, _AllPivotsSolver))
    assert calls1 == calls2
    assert grew1 == grew2 and out1 == out2
    assert s1.pivots == s2.pivots == v1.pivots == v2.pivots
    assert s1.pivot_row == s2.pivot_row
    assert v1.pivot_row == v2.pivot_row and v1.combos == v2.combos


# -- closures and quotients --------------------------------------------------

def cyclic_group_mult(n):
    """Multiplication of the group algebra of Z_n on index vectors."""
    table = BilinearMap(n, n, fn=lambda i, j: (((i + j) % n, CTX.one),))
    return table.apply


def test_span_closure_subalgebra_of_group_algebra():
    mul = cyclic_group_mult(8)
    closure = span_closure([vec({2: 1})], mul, 8)
    # powers of g^2 inside Z_8: indices {2, 4, 6, 0}
    assert closure.rank == 4
    assert closure.contains(vec({0: 1}))
    assert not closure.contains(vec({1: 1}))


def test_span_closure_ideal_and_quotient():
    mul = cyclic_group_mult(8)
    gens = [vec({1: 1})]                     # g generates the group algebra
    ideal = span_closure([vec({0: 1, 4: -1})], mul, 8,
                         mode="ideal", generators=gens)
    assert ideal.rank == 4
    quot = QuotientSpace(8, ideal)
    assert quot.dim == 4
    # project o section is the identity on the quotient basis
    for qi in range(quot.dim):
        q = {qi: CTX.one}
        assert veq(quot.project(quot.section(q)), q)
    # the ideal projects to zero
    for row in ideal.basis_rows():
        assert quot.project(row) == {}


def test_span_closure_ideal_requires_generators():
    mul = cyclic_group_mult(4)
    with pytest.raises(ValueError):
        span_closure([vec({0: 1})], mul, 4, mode="ideal")


# -- inverses ----------------------------------------------------------------

def test_linear_map_inverse_roundtrip():
    n = 6
    rng = random.Random(17)
    # unipotent upper triangular + permutation => invertible
    perm = list(range(n))
    rng.shuffle(perm)
    m = LinearMap(n, n)
    for i in range(n):
        row = {perm[i]: CTX.one}
        for j in range(i + 1, n):
            c = rng.randint(-3, 3)
            if c:
                row[perm[j]] = CTX.rational(c)
        m.set(i, tuple(sorted(row.items())))
    inv = linear_map_inverse(m, CTX)
    for i in range(n):
        e = {i: CTX.one}
        assert veq(m.apply(inv.apply(e)), e)
        assert veq(inv.apply(m.apply(e)), e)


def test_linear_map_inverse_rejects_singular():
    m = LinearMap(3, 3)
    m.set(0, ((0, CTX.one),))
    m.set(1, ((0, CTX.rational(2)),))
    m.set(2, ((2, CTX.one),))
    with pytest.raises(SingularMapError):
        linear_map_inverse(m, CTX)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30))
def test_linear_map_inverse_random_unipotent(seed):
    rng = random.Random(seed)
    n = 4
    m = LinearMap(n, n)
    for i in range(n):
        row = {i: CTX.one}
        for j in range(i + 1, n):
            c = rng.randint(-2, 2)
            if c:
                row[j] = CTX.rational(c)
        m.set(i, tuple(sorted(row.items())))
    inv = linear_map_inverse(m, CTX)
    ident = m.compose(inv)
    for i in range(n):
        assert veq(ident.apply({i: CTX.one}), {i: CTX.one})


@pytest.mark.parametrize("p", [2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_linear_map_inverse_cyclotomic(p, data):
    ctx, n = CONTEXTS[p], 5
    m = LinearMap(n, n)
    for i in range(n):
        m.set(i, sorted(data.draw(cyc_vectors(ctx, n)).items()))
    try:
        inv = linear_map_inverse(m, ctx)
    except SingularMapError:
        return
    for i in range(n):
        e = {i: ctx.one}
        assert veq(m.apply(inv.apply(e)), e)
        assert veq(inv.apply(m.apply(e)), e)


def test_vadd_into_takes_a_row_and_a_key_offset():
    one, z = CTX.one, CTX.zeta
    dst = {10: one, 12: z}
    row = ((0, one), (2, -one), (3, z))        # (k, c) pairs, not a dict
    vadd_into(dst, row, z, base=10)
    assert veq(dst, {10: one + z, 13: z * z})  # 12 cancels and is dropped
    vadd_into(dst, {3: -(z * z)}, None, base=10)
    assert veq(dst, {10: one + z})
    vadd_into(dst, row, CTX.zero, base=10)     # a zero coefficient adds nothing
    assert veq(dst, {10: one + z})


def test_vadd_term_never_stores_a_zero():
    one = CTX.one
    dst = {}
    vadd_term(dst, 4, CTX.zero)
    assert dst == {}
    vadd_term(dst, (1, 2), one)
    vadd_term(dst, (1, 2), one)
    assert veq(dst, {(1, 2): one + one})
    vadd_term(dst, (1, 2), -(one + one))
    assert dst == {}


def test_vadd_outer_is_the_nested_row_loop():
    one, z = CTX.one, CTX.zeta
    left = ((0, one), (1, z))                   # a row
    right = {0: z, 2: -one}                     # a vector
    dst = {2: z, 5: one}
    want = dict(dst)
    for k1, c1 in left:
        for k2, c2 in right.items():
            vadd_term(want, k1 * 3 + k2, (z * c1) * c2)
    vadd_outer(dst, z, left, right, 3)
    assert veq(dst, want)
    assert 2 not in dst                         # z + z * 1 * (-1) cancels
