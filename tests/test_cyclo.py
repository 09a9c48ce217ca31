"""Scalar layer: cyclotomic arithmetic, q-numbers, q-binomials.

Expected values here were fixed from independent oracles: sympy's
cyclotomic_poly for Phi_N, and the division-free factorial identity
qbin(n,k)*[k]!*[n-k]! == [n]! (a polynomial identity in Z[q,q^-1],
hence valid at every root of unity) for the binomials.
"""

import ast
from fractions import Fraction
import math
import os
import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import hopfbench.cyclo as cyclo
from hopfbench.cyclo import QContext, Cyc, cyclotomic_polynomial


CTX2 = QContext(2)
CTX3 = QContext(3)


def test_cyclotomic_small_frozen():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(8) == [1, 0, 0, 0, 1]          # x^4 + 1
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]        # x^4 - x^2 + 1
    assert cyclotomic_polynomial(20) == [1, 0, -1, 0, 1, 0, -1, 0, 1]


@pytest.mark.parametrize("n", list(range(1, 49)))
def test_cyclotomic_matches_sympy(n):
    x = sympy.symbols("x")
    expected = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
    assert cyclotomic_polynomial(n) == [int(c) for c in expected]


def test_root_of_unity_orders():
    for ctx in (CTX2, CTX3):
        z = ctx.zeta
        assert z ** ctx.order == ctx.one
        for k in range(1, ctx.order):
            assert z ** k != ctx.one, f"zeta^{k} trivial at p={ctx.p}"
        # q = zeta^2 is a primitive 2p-th root
        assert ctx.q ** (2 * ctx.p) == ctx.one
        assert ctx.q ** ctx.p == ctx.rational(-1)


def _random_scalar(ctx, rng, size=6):
    coeffs = [rng.randint(-size, size) for _ in range(ctx.phi)]
    den = rng.randint(1, size)
    return Cyc(ctx, coeffs, den)


@pytest.mark.parametrize("p", [2, 3])
def test_field_laws_bulk_seeded(p):
    # >= 10^4 randomized triples, fixed seed, exact equality.
    ctx = QContext(p)
    rng = random.Random(20260401 + p)
    for _ in range(10_000):
        a = _random_scalar(ctx, rng)
        b = _random_scalar(ctx, rng)
        c = _random_scalar(ctx, rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ctx.zero == a
        assert a * ctx.one == a
        assert a - a == ctx.zero


coeff_strategy = st.lists(st.integers(-50, 50), min_size=4, max_size=4)


@given(coeffs=coeff_strategy, den=st.integers(1, 40))
@settings(max_examples=300, deadline=None)
def test_inverse_law_hypothesis(coeffs, den):
    a = Cyc(CTX2, coeffs, den)
    if not a:
        return
    inv = a.inv()
    assert a * inv == CTX2.one
    assert inv * a == CTX2.one


@given(coeffs=coeff_strategy, den=st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_normalization_canonical(coeffs, den):
    a = Cyc(CTX3, coeffs, den)
    b = Cyc(CTX3, [c * 6 for c in coeffs], den * 6)
    assert a == b
    assert hash(a) == hash(b)
    assert a.d > 0


def test_q_int_frozen_values():
    # p=3, q primitive 6th root: [2] = q + q^-1 = 1, [3] = 0.
    assert CTX3.q_int(2) == CTX3.q + CTX3.q_inv
    assert CTX3.q_int(2) == CTX3.one
    assert CTX3.q_int(3) == CTX3.zero
    # p=2, q primitive 4th root: [2] = 0.
    assert CTX2.q_int(2) == CTX2.zero
    for ctx in (CTX2, CTX3):
        assert ctx.q_int(0) == ctx.zero
        assert ctx.q_int(1) == ctx.one
        assert ctx.q_int(-5) == -ctx.q_int(5)


def test_q_int_half_integer():
    # [1/2] * (q - q^-1) = q^(1/2) - q^(-1/2), through zeta directly.
    for ctx in (CTX2, CTX3):
        half = Fraction(1, 2)
        lhs = ctx.q_int(half) * ctx.qdiff
        assert lhs == ctx.zeta - ctx.zeta_pow(-1)
        assert ctx.q_int(Fraction(3, 2)) * ctx.qdiff == ctx.zeta_pow(3) - ctx.zeta_pow(-3)
    with pytest.raises(ValueError):
        CTX2.q_int(Fraction(1, 3))


@pytest.mark.parametrize("p", [2, 3])
def test_q_binomial_factorial_identity(p):
    # Division-free oracle: qbin(n,k) * [k]! * [n-k]! == [n]! identically.
    ctx = QContext(p)
    for n in range(0, 4 * p + 1):
        for k in range(0, n + 1):
            lhs = ctx.q_binomial(n, k) * ctx.q_factorial(k) * ctx.q_factorial(n - k)
            assert lhs == ctx.q_factorial(n), (n, k)


@pytest.mark.parametrize("p", [2, 3])
def test_q_binomial_symmetry_and_bounds(p):
    ctx = QContext(p)
    for n in range(0, 3 * p):
        assert ctx.q_binomial(n, -1) == ctx.zero
        assert ctx.q_binomial(n, n + 1) == ctx.zero
        for k in range(0, n + 1):
            assert ctx.q_binomial(n, k) == ctx.q_binomial(n, n - k)


def test_q_binomial_conventions_differ():
    # The balanced convention is q + q^-1 at [2,1], not the one-sided 1 + q.
    ctx = CTX3
    assert ctx.q_binomial(2, 1) == ctx.q + ctx.q_inv
    assert ctx.q_binomial(2, 1) != ctx.one + ctx.q


def test_inverse_of_qdiff():
    for ctx in (CTX2, CTX3):
        assert ctx.qdiff * ctx.qdiff_inv == ctx.one


def test_scalar_rendering():
    assert str(CTX2.zero) == "0"
    assert str(CTX2.one) == "1"
    assert str(CTX2.q) == "q"
    assert str(CTX2.rational(Fraction(-3, 2))) == "-3/2"
    assert str(CTX2.zeta) == "q^(1/2)"
    assert str(CTX2.one + CTX2.q) == "1 + q"
    assert str(-CTX2.q) == "-q"


def test_pow_negative_exponent():
    a = CTX3.q + CTX3.one
    assert a ** -2 == (a * a).inv()
    assert a ** 0 == CTX3.one


# -- single-term and dense forms against a dense-only reference -----------------

FORM_CTXS = {p: QContext(p) for p in (2, 3, 5, 7)}


def _ref_reduce(poly, ctx):
    """Fraction coefficients of poly mod Phi_N (long division by the monic
    Phi_N), padded to phi entries."""
    poly = [Fraction(x) for x in poly]
    phi = ctx.phi
    for k in range(len(poly) - 1, phi - 1, -1):
        top = poly[k]
        if top:
            for i, m in enumerate(ctx.poly):
                poly[k - phi + i] -= top * m
    return (poly + [Fraction(0)] * phi)[:phi]


def _ref_mul(a, b, ctx):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _ref_reduce(prod, ctx)


def _ref_one(ctx):
    return _ref_reduce([1], ctx)


@st.composite
def _scalar_and_ref(draw, ctx):
    """(Cyc, reference coefficients): a single term r*zeta^j built from
    rational() and zeta_pow(), or a dense scalar from the constructor."""
    if draw(st.booleans()):
        r = Fraction(draw(st.integers(-9, 9).filter(bool)),
                     draw(st.integers(1, 9)))
        j = draw(st.integers(-2 * ctx.order, 2 * ctx.order))
        ref = [r * x for x in _ref_reduce([0] * (j % ctx.order) + [1], ctx)]
        return ctx.rational(r) * ctx.zeta_pow(j), ref
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=ctx.phi,
                           max_size=ctx.phi))
    den = draw(st.integers(1, 9))
    return Cyc(ctx, coeffs, den), [Fraction(c, den) for c in coeffs]


def _assert_matches(x, ref, ctx):
    """x has the reference value, and agrees on ==, hash, bool, str, .c and
    .d with the same value rebuilt from power-basis coordinates."""
    den = math.lcm(*(f.denominator for f in ref))
    coeffs = tuple(int(f * den) for f in ref)
    assert (x.c, x.d) == (coeffs, den)
    y = Cyc(ctx, list(coeffs), den)
    assert x == y and y == x
    assert hash(x) == hash(y)
    assert bool(x) == any(coeffs)
    assert str(x) == str(y)


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_single_term_and_dense_forms_match_reference(data):
    ctx = FORM_CTXS[data.draw(st.sampled_from(sorted(FORM_CTXS)))]
    a, ra = data.draw(_scalar_and_ref(ctx))
    b, rb = data.draw(_scalar_and_ref(ctx))
    _assert_matches(a, ra, ctx)
    _assert_matches(b, rb, ctx)
    _assert_matches(a + b, [x + y for x, y in zip(ra, rb)], ctx)
    _assert_matches(a - b, [x - y for x, y in zip(ra, rb)], ctx)
    _assert_matches(-a, [-x for x in ra], ctx)
    _assert_matches(a * b, _ref_mul(ra, rb, ctx), ctx)
    assert (a == b) == (ra == rb)
    assert (a != b) == (ra != rb)
    n = data.draw(st.integers(-3, 4))
    if any(ra):
        inv = a.inv()
        _assert_matches(a * inv, _ref_one(ctx), ctx)
        base = [Fraction(x, inv.d) for x in inv.c] if n < 0 else ra
    else:
        with pytest.raises(ZeroDivisionError):
            a.inv()
        if n < 0:
            return
        base = ra
    expected = _ref_one(ctx)
    for _ in range(abs(n)):
        expected = _ref_mul(expected, base, ctx)
    _assert_matches(a ** n, expected, ctx)


def test_single_term_beyond_power_basis_equals_dense_sum():
    # At p=3, phi = 4 < N/2 = 6: zeta^4 and zeta^5 are single terms whose
    # power-basis coordinates have two nonzero entries.  The same values
    # reached as sums are recognized and held as the same single term.
    ctx = CTX3
    for j, dense in ((4, ctx.zeta_pow(2) - ctx.one),
                     (5, ctx.zeta_pow(3) - ctx.zeta)):
        single = ctx.zeta_pow(j)
        assert single is dense and single._j == j    # one object, one form
        assert single == dense and dense == single
        assert hash(single) == hash(dense)
        assert (single.c, single.d) == (dense.c, dense.d)
        assert str(single) == str(dense)
        assert single * dense.inv() == ctx.one
        assert dense * single.inv() == ctx.one
        assert not single - dense and not dense - single
        assert -single == -dense
    assert ctx.zeta_pow(4) + ctx.one == ctx.q


def test_single_term_inverse_folds_sign():
    for ctx in FORM_CTXS.values():
        for j in range(ctx.order):
            x = ctx.rational(Fraction(-3, 7)) * ctx.zeta_pow(j)
            assert x.inv() * x == ctx.one
            assert x.inv() == ctx.rational(Fraction(-7, 3)) * ctx.zeta_pow(-j)


def test_equality_respects_the_field_and_agrees_with_hash():
    # Q(zeta_20) and Q(zeta_24) both have degree 8, so their coordinates
    # have the same shape; equal coordinates in different fields are
    # still different scalars.
    c5, c6 = QContext(5), QContext(6)
    assert c5.zeta_pow(8) != c6.zeta_pow(8)
    assert c5.zeta_pow(8) == QContext(5).zeta_pow(8)
    dense5 = Cyc(c5, [1, 2, 0, 0, 0, 0, 0, 3])
    dense6 = Cyc(c6, [1, 2, 0, 0, 0, 0, 0, 3])
    assert dense5.c == dense6.c and dense5 != dense6
    values = [ctx.rational(Fraction(r, 3)) * ctx.zeta_pow(j)
              for ctx in (c5, c6) for j in range(ctx.order) for r in (-2, 1)]
    values += [dense5, dense6, c5.zeta_pow(3) + c5.one,
               c6.zeta_pow(3) + c6.one]
    for x in values:
        for y in values:
            if x == y:
                assert hash(x) == hash(y) and x.ctx.order == y.ctx.order
    assert c5.one != c6.one and c5.one == 1 and c6.one == 1


# -- interned scalars and their memos ------------------------------------------

INTERN_PS = (2, 3, 5)


def _routes(ctx, a, ra, b):
    """(route, scalar) for every way below of building the value of a,
    whose power-basis coordinates are ra; b is another scalar of ctx."""
    den = math.lcm(*(f.denominator for f in ra))
    coeffs = [int(f * den) for f in ra]
    terms = ctx.zero
    for j, f in enumerate(ra):
        if f:
            terms = terms + ctx.rational(f) * ctx.zeta_pow(j)
    out = [("constructor", Cyc(ctx, coeffs, den)),
           ("unreduced", Cyc(ctx, [6 * c for c in coeffs], 6 * den)),
           ("negative denominator", Cyc(ctx, [-c for c in coeffs], -den)),
           ("power-basis terms", terms),
           ("a + 0", a + ctx.zero), ("0 + a", ctx.zero + a),
           ("a - 0", a - ctx.zero), ("a * 1", a * ctx.one),
           ("1 * a", ctx.one * a), ("-(-a)", -(-a)),
           ("0 - (-a)", ctx.zero - (-a)),
           ("(a + b) - b", (a + b) - b), ("a ** 1", a ** 1)]
    if a._j is not None:
        r = Fraction(a._v, a.d)
        out += [("rational * zeta_pow", ctx.rational(r) * ctx.zeta_pow(a._j)),
                ("folded", ctx.zeta_pow(a._j + ctx.half) * ctx.rational(-r))]
        if a._j == 0:
            out.append(("rational", ctx.rational(r)))
    if a:
        out += [("a.inv().inv()", a.inv().inv()),
                ("(a ** -1) ** -1", (a ** -1) ** -1)]
    if b:
        out.append(("(a * b) / b", (a * b) * b.inv()))
    return out


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_every_route_to_a_value_gives_one_object(data):
    """Within a field every route to a value gives one object."""
    p = data.draw(st.sampled_from(INTERN_PS))
    ctx = FORM_CTXS[p]
    a, ra = data.draw(_scalar_and_ref(ctx))
    b, _ = data.draw(_scalar_and_ref(ctx))
    for route, x in _routes(ctx, a, ra, b):
        assert x is a, route
    if p == 3:
        z4 = ctx.zeta_pow(4)
        assert z4 is ctx.q - ctx.one is ctx.q * ctx.q
        assert z4 is Cyc(ctx, [-1, 0, 1, 0])


OPS = {"mul": lambda a, b: a * b, "add": lambda a, b: a + b,
       "inv": lambda a, b: a.inv()}


def _form(x):
    return (x._v, x._j, x.d)


def _assert_memo_faithful(ctx, op, a, b):
    """A repeated operation returns the identical object, recorded in the
    operand's memo, whose coordinates and stored form equal those of the
    uncached computation in a fresh field."""
    fresh = QContext(ctx.p)
    fa, fb = Cyc(fresh, a.c, a.d), Cyc(fresh, b.c, b.d)
    assert _form(fa) == _form(a) and _form(fb) == _form(b)
    uncached = {"mul": lambda: cyclo._product(fa, fb),
                "add": lambda: cyclo._sum(fa, fb),
                "inv": lambda: fa._inv_uncached()}
    first = uncached[op]()
    got = OPS[op](a, b)
    again = OPS[op](a, b)
    assert (got.c, got.d) == (first.c, first.d), op
    assert _form(got) == _form(first), op
    assert got.ctx is ctx and first.ctx is fresh
    assert again is got
    if op == "mul":
        assert a._mul[b.serial] is got and b._mul[a.serial] is got
        assert b * a is got
    elif op == "add":
        assert a._add[b.serial] is got and b._add[a.serial] is got
        assert b + a is got
    else:
        assert a._inv is got and got._inv is a


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_memo_returns_the_uncached_result_once_built(data):
    ctx = FORM_CTXS[data.draw(st.sampled_from(sorted(FORM_CTXS)))]
    a, _ = data.draw(_scalar_and_ref(ctx))
    b, _ = data.draw(_scalar_and_ref(ctx))
    op = data.draw(st.sampled_from(sorted(OPS)))
    for x, y in ((a, b), (b, a)):
        if op != "inv" or x:
            _assert_memo_faithful(ctx, op, x, y)
    assert -a is -a and -(-a) is a


def test_memo_covers_both_forms_of_zeta_four_at_p3():
    # At p = 3, zeta^4 = zeta^2 - 1: both routes give the one single-term
    # object, so its products and sums have one memo entry each.
    ctx = CTX3
    single, dense = ctx.zeta_pow(4), ctx.zeta_pow(2) - ctx.one
    assert single is dense and single._j == 4
    others = [single, ctx.zeta, ctx.q, ctx.qdiff,
              ctx.rational(Fraction(-2, 3)) * ctx.zeta_pow(5)]
    for y in others:
        for op in ("mul", "add"):
            _assert_memo_faithful(ctx, op, single, y)
            _assert_memo_faithful(ctx, op, y, single)
    _assert_memo_faithful(ctx, "inv", single, single)
    assert single._mul[dense.serial] is single * dense is dense * dense
    assert single._add[dense.serial] is single + dense


def test_memo_entries_belong_to_one_field():
    c5, c6 = QContext(5), QContext(6)
    coeffs = [1, 2, 0, 0, 0, 0, 0, 3]
    d5, d6 = Cyc(c5, coeffs), Cyc(c6, coeffs)
    products = (d5 * d5, d6 * d6)
    sums = (d5 + c5.zeta, d6 + c6.zeta)
    inverses = (d5.inv(), d6.inv())
    for x5, x6 in (products, sums, inverses):
        assert x5.ctx is c5 and x6.ctx is c6
        assert x5 is not x6
    assert products[0].c != products[1].c
    assert inverses[0].c != inverses[1].c
    for name in ("_mul", "_add"):
        m5, m6 = getattr(d5, name), getattr(d6, name)
        assert m5 and m6 and m5 is not m6
        assert all(v.ctx is c5 for v in m5.values())
        assert all(v.ctx is c6 for v in m6.values())
        assert not {id(v) for v in m5.values()} & {id(v) for v in m6.values()}
    assert d5._inv.ctx is c5 and d6._inv.ctx is c6
    for mixed in (lambda: d5 * d6, lambda: d5 + d6, lambda: d6 * c5.one):
        with pytest.raises(ValueError):
            mixed()


# -- memoized scalars are shared, so nothing outside cyclo may edit one ----------

CYC_SLOTS = {"ctx", "d", "_v", "_j", "serial", "_mul", "_add", "_neg",
             "_inv"}
PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "hopfbench")


def _slot_writes(tree):
    """(line, text) of every assignment, deletion or setattr of an
    attribute named like a Cyc slot, except `self.<slot>` inside a class
    that does not derive from Cyc."""
    found = []

    def targets(node):
        if isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                yield from targets(elt)
        elif isinstance(node, ast.Starred):
            yield from targets(node.value)
        else:
            yield node

    def visit(node, own_class):
        if isinstance(node, ast.ClassDef):
            own_class = not any(ast.unparse(b).split(".")[-1] == "Cyc"
                                for b in node.bases)
        writes = []
        if isinstance(node, ast.Assign):
            writes = [t for tgt in node.targets for t in targets(tgt)]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            writes = list(targets(node.target))
        elif isinstance(node, ast.Delete):
            writes = [t for tgt in node.targets for t in targets(tgt)]
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in (
                "setattr", "object.__setattr__", "delattr",
                "object.__delattr__"):
            name = node.args[1] if len(node.args) > 1 else None
            if not (isinstance(name, ast.Constant)
                    and name.value not in CYC_SLOTS):
                found.append((node.lineno, ast.unparse(node)))
        for t in writes:
            if isinstance(t, ast.Attribute) and t.attr in CYC_SLOTS:
                on_self = isinstance(t.value, ast.Name) and t.value.id == "self"
                if not (on_self and own_class):
                    found.append((t.lineno, ast.unparse(t)))
        for child in ast.iter_child_nodes(node):
            visit(child, own_class)

    visit(tree, False)
    return found


def test_only_cyclo_assigns_cyc_slots():
    modules = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    assert "cyclo.py" in modules and len(modules) > 5
    offenders = {}
    for name in modules:
        if name == "cyclo.py":
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        hits = _slot_writes(tree)
        if hits:
            offenders[name] = hits
    assert offenders == {}


def test_slot_scan_flags_edits_and_spares_own_attributes():
    bad = ast.parse(
        "def f(x, y):\n"
        "    x._v = (1, 2)\n"
        "    y.d += 1\n"
        "    a, x.ctx = 1, None\n"
        "    setattr(x, '_j', 0)\n"
        "    del y._j\n"
        "class Sub(hopfbench.cyclo.Cyc):\n"
        "    def g(self):\n"
        "        self._v = 0\n")
    assert [line for line, _ in _slot_writes(bad)] == [2, 3, 4, 5, 6, 9]
    good = ast.parse(
        "class Table:\n"
        "    def __init__(self, ctx):\n"
        "        self.ctx = ctx\n"
        "        self.d = 2\n"
        "def f(x):\n"
        "    setattr(x, 'rows', {})\n"
        "    x.rows = {}\n")
    assert _slot_writes(good) == []


# -- every scalar comes from its field's intern table --------------------------

def _intern_bypasses(tree):
    """(line, text) of every use of `__new__` (such as object.__new__),
    and of every private name of hopfbench.cyclo (such as _raw), whether
    imported or read as an attribute of the module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
                node.attr == "__new__"
                or (node.attr.startswith("_")
                    and ast.unparse(node.value).split(".")[-1] == "cyclo")):
            found.append((node.lineno, ast.unparse(node)))
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[-1] == "cyclo"):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.startswith("_")]
    return sorted(found)


def test_only_cyclo_builds_scalars_around_the_intern_table():
    modules = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    offenders = {}
    for name in modules:
        if name == "cyclo.py":
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            hits = _intern_bypasses(ast.parse(fh.read(), name))
        if hits:
            offenders[name] = hits
    assert offenders == {}


def test_intern_scan_flags_bypasses_and_spares_public_names():
    bad = ast.parse(
        "from .cyclo import Cyc, _raw\n"
        "import hopfbench.cyclo as cyclo\n"
        "x = object.__new__(Cyc)\n"
        "y = cyclo._raw(ctx, 1, 1, 0)\n"
        "new = Cyc.__new__\n"
        "from hopfbench.cyclo import _from_coeffs as f\n")
    assert [line for line, _ in _intern_bypasses(bad)] == [1, 3, 4, 5, 6]
    good = ast.parse(
        "from .cyclo import Cyc, QContext\n"
        "x = Cyc(ctx, [1, 0], 2) * ctx.zeta_pow(3)\n"
        "y = rows._raw\n")
    assert _intern_bypasses(good) == []
