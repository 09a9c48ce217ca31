"""Tests for the stored row format and its shared entries (`sparse.shared_row`).

Every memo table stores its rows through `shared_row`.  These tests check
that storing changes no row (content, order and each scalar's stored
form), that equal entries become one object, that two fields never share
one, and that storing runs no scalar arithmetic.  Scalars are interned
per field, so within a field a stored scalar is compared by identity.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

import hopfbench.doubles as doubles_module
import hopfbench.hopf as hopf_module
import hopfbench.sparse as sparse_module
import hopfbench.ydcat as ydcat_module
from hopfbench.cyclo import Cyc, QContext
from hopfbench.sparse import BilinearMap, shared_row
from hopfbench.taft import taft_setup, taft_system


def _unshared_row(row) -> tuple:
    """The row format without the sharing: what storing did before."""
    return tuple(row.items() if isinstance(row, dict) else row)


@contextmanager
def _unshared(monkeypatch):
    """While it lasts, every store point keeps its rows without sharing."""
    with monkeypatch.context() as m:
        for mod in (sparse_module, hopf_module, ydcat_module, doubles_module):
            m.setattr(mod, "shared_row", _unshared_row)
        yield


# (name, row reader of a system, index ranges) for every stored table that
# a system reaches; the twisted-product R rows are read by both products.
def _tables(sys):
    D, Hd, act, coact = sys.double, sys.heis, sys.yd.action, sys.yd.coaction
    dD, dH, dB = D.dim, Hd.algebra.dim, D.base.dim
    return [
        ("ddouble.mult", D.hopf.mult.get, (dD, dD)),
        ("ddouble.comult", D.hopf.comult.get, (dD,)),
        ("ddouble.antipode", D.hopf.antipode.get, (dD,)),
        ("hdouble.mult", Hd.algebra.mult.get, (dH, dH)),
        ("action", act.row, (dD, dH)),
        ("coaction", coact.terms, (dH,)),
        ("action.prim", act.prim_row, (dB, dH)),
        ("action.dual", act.dual_row, (D.dual.dim, dH)),
    ]


def _assert_same_row(got, want, where):
    """got and want hold the same entries; want comes from another field
    of the same order, so its scalars are compared by value, and each
    scalar of got must be its field's one object for that value."""
    assert type(got) is tuple, where
    assert len(got) == len(want), where
    for e, f in zip(got, want):
        c = e[-1]
        assert e[:-1] == f[:-1], where
        assert c == f[-1], where
        assert (c._v, c._j, c.d) == (f[-1]._v, f[-1]._j, f[-1].d), where
        assert c is Cyc(c.ctx, c.c, c.d), where


def test_every_p2_row_matches_an_unshared_construction(monkeypatch):
    with _unshared(monkeypatch):
        ref = taft_system(2, cached=False)
        want = {(name, idx): read(*idx) for name, read, dims in _tables(ref)
                for idx in _index_tuples(dims)}
    for name, read, dims in _tables(taft_system(2)):
        for idx in _index_tuples(dims):
            _assert_same_row(read(*idx), want[name, idx], (name, idx))


def test_seeded_p3_rows_match_an_unshared_construction(monkeypatch):
    rng = random.Random(3)
    tables = _tables(taft_system(3))
    picks = []
    for _ in range(2000):
        t = rng.randrange(len(tables))
        picks.append((t, tuple(rng.randrange(d) for d in tables[t][2])))
    with _unshared(monkeypatch):
        ref = _tables(taft_system(3, cached=False))
        want = [ref[t][1](*idx) for t, idx in picks]
    for (t, idx), row in zip(picks, want):
        _assert_same_row(tables[t][1](*idx), row, (tables[t][0], idx))


def _index_tuples(dims):
    if len(dims) == 1:
        return [(i,) for i in range(dims[0])]
    return [(i, j) for i in range(dims[0]) for j in range(dims[1])]


def test_equal_entries_of_the_double_product_are_one_object():
    mult = taft_system(2).double.hopf.mult
    mult.materialize()
    entries = [e for row in mult.rows.values() for e in row]
    forms = {(k, c.c, c.d) for k, c in entries}
    assert len({id(e) for e in entries}) == len(forms)
    scalars = {(c.c, c.d) for _, c in entries}
    assert len({id(c) for _, c in entries}) == len(scalars)
    assert len(entries) > 10 * len(forms)


def test_two_fields_never_share_an_entry():
    a, b = taft_setup(2, cached=False), taft_setup(2, cached=False)
    rows = []
    for pair in (a, b):
        pair.primal.mult.materialize()
        rows.append([e for row in pair.primal.mult.rows.values() for e in row])
    assert rows[0] and rows[1]
    assert not {id(e) for e in rows[0]} & {id(e) for e in rows[1]}
    assert not {id(e[-1]) for e in rows[0]} & {id(e[-1]) for e in rows[1]}
    for pair, entries in zip((a, b), rows):
        assert all(e[-1].ctx is pair.ctx for e in entries)
        assert all(e[-1].ctx is pair.ctx
                   for e in pair.ctx.shared_entries.values())


def test_each_stored_form_keeps_its_own_instance():
    # At p = 3, zeta^4 = zeta^2 - 1 has one stored form, single-term,
    # whichever route builds it, so the row store holds one instance.
    ctx = QContext(3)
    single = ctx.zeta_pow(4)
    dense = Cyc(ctx, [-1, 0, 1, 0])
    assert dense is single and single._j == 4
    row = shared_row({0: single, 1: dense, 2: Cyc(ctx, [-1, 0, 1, 0])})
    assert [k for k, _ in row] == [0, 1, 2]
    assert row[0][1] is row[1][1] is row[2][1] is single
    again = shared_row([(1, Cyc(ctx, [-1, 0, 1, 0]))])
    assert again[0] is row[1]
    other = shared_row([(1, ctx.zeta_pow(2))])
    assert other[0] is not row[1] and other[0][1] is ctx.zeta_pow(2)


def test_storing_a_row_runs_no_scalar_arithmetic(monkeypatch):
    ctx = QContext(3)
    scalars = [ctx.one, ctx.zeta_pow(5), Cyc(ctx, [1, 2, 0, 3], 5),
               Cyc(ctx, [-1, 0, 1, 0])]
    seven = QContext(3).zeta_pow(7)
    cold = BilinearMap(2, 2, fn=lambda i, j: {3 * i + j: seven})

    def refuse(*args):
        raise AssertionError("scalar arithmetic while storing a row")

    for name in ("__mul__", "__add__", "__eq__", "__hash__"):
        monkeypatch.setattr(Cyc, name, refuse)
    pairs = shared_row({k: c for k, c in enumerate(scalars)})
    triples = shared_row([(k, k + 1, c) for k, c in enumerate(scalars)])
    assert [k for k, _ in pairs] == [0, 1, 2, 3]
    assert all(e[-1] is c for e, c in zip(pairs, scalars))
    assert all(e[-1] is c for e, c in zip(triples, scalars))
    assert all(e is f for e, f in zip(shared_row(list(pairs)), pairs))
    row = cold.get(1, 1)
    assert row[0][0] == 4 and row[0][1] is seven and cold.get(1, 1) is row


def test_storing_a_stored_row_returns_it():
    ctx = QContext(2)
    row = shared_row({0: ctx.one, 3: ctx.zeta})
    assert shared_row(row) is row
    assert shared_row(list(row)) == row and shared_row(list(row)) is not row
    copy = tuple((k, c) for k, c in row)      # equal entries, not shared
    assert shared_row(copy) is not copy and shared_row(copy) == row
