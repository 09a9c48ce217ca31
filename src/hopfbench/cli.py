"""Command-line front end: verify suites, evaluate elements, export tables.

Exit codes: 0 all selected checks passed (skipped checks do not fail a
run), 1 at least one check failed, 2 usage error (bad flags, bad
expression, unknown object, an `--out` path whose directory is missing
or not writable, checked before any work) or a stdout closed before the
output was written (say by `| head`), 3 engine crash (an unexpected
exception; the traceback goes to stderr).

A process pays only for its command: `report` (and through it the
mutation fixtures) is imported by `verify` alone, `json` by the paths
that encode or decode it and `traceback` by the crash path.  The
console script ends through `console_main`, which skips the
interpreter's teardown.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from operator import itemgetter
from types import GeneratorType
from typing import Iterator, NoReturn, Optional

from . import __version__
from .cyclo import Cyc, QContext
from .hopf import (FiniteAlgebra, FiniteHopf, render_element,
                   render_tensor)
from .results import MODES
from .sparse import (BilinearMap, ColinearMap, LinearMap, Space, SpanSolver,
                     Vec, vadd_into)
from .taft import (cqzd, double_elements, heis_elements, hqsl2, taft_system,
                   truly_heisenberg_chain, uqsl2)
from .ydcat import braiding_row

__all__ = ["main", "console_main", "EvalError", "evaluate_expression",
           "export_bytes", "check_export_name", "import_object",
           "reexport_bytes", "EXPORT_SCHEMA_VERSION"]

EXPORT_SCHEMA_VERSION = 1


# -- element expressions ---------------------------------------------------------
#
# expr := act (('|' | '(x)' | U+2297) act)*          tensor slots
# act  := prod ('|>' act)?                           action, right-assoc
# prod := pow (('*' | '#' | juxtaposition) pow)*
# pow  := atom ('^' '-'? INT)?
# atom := NAME | INT | '(' act ')'
#
# '*', '#', and juxtaposition all multiply in the ambient algebra; on the
# canonical generators `mu # b` lands exactly on the smash basis vector
# mu (x) b, which is what the '#' spelling is for.  The left operand of
# '|>' is interpreted with the Drinfeld-double product (the acting
# algebra), everything else with the Heisenberg-double product.  Exponents
# reduce in the algebra (k^9 = k at p=2, z^5 = 0); negative powers are
# resolved by exact linear inversion and rejected on non-invertible
# elements.

class EvalError(ValueError):
    """Expression error; carries the character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _tokenize(text: str) -> list:
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("|>", i):
            toks.append(("ACT", "|>", i))
            i += 2
            continue
        if text.startswith("(x)", i):
            toks.append(("TENS", "(x)", i))
            i += 3
            continue
        if ch == "|" or ch == "⊗":
            toks.append(("TENS", ch, i))
            i += 1
            continue
        if ch in "*#^()-":
            kind = {"*": "MUL", "#": "SMASH", "^": "POW",
                    "(": "LPAR", ")": "RPAR", "-": "MINUS"}[ch]
            toks.append((kind, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("NAME", text[i:j], i))
            i = j
            continue
        raise EvalError(f"unexpected character {ch!r}", i)
    toks.append(("END", "", n))
    return toks


class _Parser:
    """Nodes: ("name", s, pos), ("int", n, pos), ("pow", node, exp, pos),
    ("mul", l, r, pos), ("act", l, r, pos), ("tens", [nodes], pos)."""

    def __init__(self, toks: list):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def parse(self):
        node = self.tens()
        tok = self.peek()
        if tok[0] != "END":
            raise EvalError(f"unexpected {tok[1]!r}", tok[2])
        return node

    def tens(self):
        first = self.act()
        pos = self.peek()[2]
        parts = [first]
        while self.peek()[0] == "TENS":
            self.take()
            parts.append(self.act())
        if len(parts) == 1:
            return first
        return ("tens", parts, pos)

    def act(self):
        left = self.prod()
        if self.peek()[0] == "ACT":
            pos = self.take()[2]
            return ("act", left, self.act(), pos)
        return left

    def prod(self):
        node = self.pow()
        while True:
            tok = self.peek()
            if tok[0] in ("MUL", "SMASH"):
                self.take()
                node = ("mul", node, self.pow(), tok[2])
            elif tok[0] in ("NAME", "INT", "LPAR"):
                node = ("mul", node, self.pow(), tok[2])
            else:
                return node

    def pow(self):
        node = self.atom()
        if self.peek()[0] != "POW":
            return node
        pos = self.take()[2]
        sign = 1
        if self.peek()[0] == "MINUS":
            self.take()
            sign = -1
        tok = self.peek()
        if tok[0] != "INT":
            raise EvalError("expected an integer exponent",
                            tok[2])
        self.take()
        return ("pow", node, sign * int(tok[1]), pos)

    def atom(self):
        tok = self.peek()
        if tok[0] == "NAME":
            self.take()
            return ("name", tok[1], tok[2])
        if tok[0] == "INT":
            self.take()
            return ("int", int(tok[1]), tok[2])
        if tok[0] == "LPAR":
            self.take()
            node = self.act()
            closing = self.peek()
            if closing[0] != "RPAR":
                raise EvalError("missing ')'", closing[2])
            self.take()
            return node
        if tok[0] == "MINUS":
            raise EvalError("'-' is only valid in an exponent; scalars "
                            "other than nonnegative integers are not part "
                            "of the input grammar", tok[2])
        raise EvalError(f"expected an element, found {tok[1] or 'end'!r}",
                        tok[2])


def _parse_expr(text: str):
    if not text.strip():
        raise EvalError("empty expression", 0)
    return _Parser(_tokenize(text)).parse()


def _pbw_label(lab) -> str:
    b, a, c, d = lab
    parts = [f"{nm}^{e}" if e > 1 else nm
             for nm, e in (("del", b), ("z", a), ("lam", c), ("kap", d)) if e]
    return " ".join(parts) or "1"


class _EvalContext:
    """Named elements plus the two products that interpret them.

    Normal forms are printed in the del^b z^a lam^c kap^d monomial basis.
    Each such monomial is a nonzero multiple of the single smash basis
    vector F^b kap^(c+d) # E^a k^(c-2a), so the change of rendering is
    exact and invertible; the multiple of an index is computed on first
    use.
    """

    def __init__(self, p: int):
        self.sys = taft_system(p)
        ctx = self.sys.ctx
        nB = self.sys.pair.primal.dim
        bl = self.sys.pair.primal.space.index
        self.gens = heis_elements(self.sys)      # kap, z, lam, del
        names = dict(self.gens)
        names.update(double_elements(self.sys))  # E, k, F, kap
        names["K"] = {i * nB + bl[(0, 2)]: c     # k^2, the truncation grouplike
                      for i, c in self.sys.pair.dual.unit.items()}
        self.names = names
        self.ctx = ctx
        self.heis = self.sys.heis.algebra
        self.double = self.sys.double.hopf
        self.yd = self.sys.yd
        order = 4 * p
        pbw_labels = []
        for (i, j), (k, l) in self.heis.space.labels:
            c = (l + 2 * k) % order
            pbw_labels.append((i, k, c, (j - c) % order))
        self.pbw_space = Space("pbw", pbw_labels, render=_pbw_label)
        self._inv_scale = [None] * self.heis.dim
        self._pows = {name: [dict(self.heis.unit)] for name in self.gens}

    def _power(self, name: str, n: int) -> Vec:
        pows = self._pows[name]
        while len(pows) <= n:
            pows.append(self.heis.product(pows[-1], self.gens[name]))
        return pows[n]

    def inv_scale(self, i: int) -> Cyc:
        """1/gamma, where the monomial labelled i is gamma times smash
        basis vector i.  A monomial off that vector is an engine fault,
        not an input error."""
        s = self._inv_scale[i]
        if s is None:
            b, a, c, d = self.pbw_space.labels[i]
            mul = self.heis.product
            v = mul(mul(mul(self._power("del", b), self._power("z", a)),
                        self._power("lam", c)), self._power("kap", d))
            if len(v) != 1 or i not in v:
                raise RuntimeError(
                    f"del^{b} z^{a} lam^{c} kap^{d} is not a multiple of "
                    f"smash basis vector {i}: "
                    f"{render_element(self.heis.space, v)}")
            s = self._inv_scale[i] = v[i].inv()
        return s

    def lookup(self, name: str, pos: int) -> Vec:
        v = self.names.get(name)
        if v is None:
            known = ", ".join(sorted(self.names))
            raise EvalError(f"unknown element {name!r} (known: {known})", pos)
        return dict(v)

    def pbw_vec(self, v: Vec) -> Vec:
        """Rescale smash coordinates to del/z/lam/kap monomial coordinates."""
        return {i: c * self.inv_scale(i) for i, c in v.items()}

    def pbw_flat(self, v: Vec, both: bool) -> Vec:
        """Same on flat pair keys; `both` rescales the first slot too."""
        dX = self.heis.dim
        out: Vec = {}
        for key, c in v.items():
            i, j = divmod(key, dX)
            c = c * self.inv_scale(j)
            if both:
                c = c * self.inv_scale(i)
            out[key] = c
        return out


_ENV_CACHE: dict = {}


def _env(p: int) -> _EvalContext:
    env = _ENV_CACHE.get(p)
    if env is None:
        env = _EvalContext(p)
        _ENV_CACHE[p] = env
    return env


def _invert(env: _EvalContext, product, unit: Vec, v: Vec, pos: int) -> Vec:
    """Solve u v = 1 on right-multiplication columns (exact, dense scan)."""
    dim = env.heis.dim
    one = env.ctx.one
    solver = SpanSolver(dim)
    for i in range(dim):
        solver.add(product({i: one}, v))
    sol = solver.solve(dict(unit))
    if sol is None:
        raise EvalError("element is not invertible", pos)
    return {i: c for i, c in sol.items() if c}


def _eval_node(node, env: _EvalContext, hopf_side: bool) -> Vec:
    """hopf_side selects the double's product (the acting algebra)."""
    kind = node[0]
    if hopf_side:
        product, unit = env.double.product, env.double.unit
    else:
        product, unit = env.heis.product, env.heis.unit
    if kind == "name":
        return env.lookup(node[1], node[2])
    if kind == "int":
        if not node[1]:
            return {}
        c = env.ctx.rational(node[1])
        return {i: c * u for i, u in unit.items()}
    if kind == "pow":
        base = _eval_node(node[1], env, hopf_side)
        exp = node[2]
        if exp < 0:
            base = _invert(env, product, unit, base, node[3])
            exp = -exp
        # square-and-multiply; both products are associative
        out = dict(unit)
        while exp:
            if exp & 1:
                out = product(out, base)
            exp >>= 1
            if exp:
                base = product(base, base)
        return out
    if kind == "mul":
        return product(_eval_node(node[1], env, hopf_side),
                       _eval_node(node[2], env, hopf_side))
    if kind == "act":
        hv = _eval_node(node[1], env, True)
        xv = _eval_node(node[2], env, False)
        return env.yd.action.apply(hv, xv)
    raise EvalError("tensor expressions need --structure braiding", node[2])


def evaluate_expression(p: int, text: str, structure: str = "product") -> str:
    """Evaluate an element expression; returns the exact normal form."""
    env = _env(p)
    tree = _parse_expr(text)
    if structure == "braiding":
        if tree[0] != "tens" or len(tree[1]) != 2:
            raise EvalError("braiding needs a two-slot tensor input, "
                            "e.g. \"z | del\"", 0 if tree[0] != "tens"
                            else tree[2])
        xv = _eval_node(tree[1][0], env, False)
        yv = _eval_node(tree[1][1], env, False)
        out: Vec = {}
        for x, cx in xv.items():
            for y, cy in yv.items():
                vadd_into(out, braiding_row(env.yd, env.yd, x, y), cx * cy)
        out = env.pbw_flat(out, both=True)
        return render_tensor(env.pbw_space, env.pbw_space, out)
    if tree[0] == "tens":
        raise EvalError("tensor expressions need --structure braiding",
                        tree[2])
    v = _eval_node(tree, env, False)
    if structure == "coaction":
        flat = env.pbw_flat(env.yd.coaction.apply(v), both=False)
        return render_tensor(env.double.space, env.pbw_space, flat)
    if structure in ("product", "action"):
        return render_element(env.pbw_space, env.pbw_vec(v))
    raise EvalError(f"unknown structure {structure!r}", 0)


# -- export / import -------------------------------------------------------------
#
# An export is the canonical JSON of one block of tables,
#
#     json.dumps(block, sort_keys=True, separators=(",", ":")) + "\n",
#
# written as it is generated: each table is read row by row, in index
# order, through the getters that memoize its rows, and leaves one chunk
# of bytes per row.  No list of entries and no copy of the document is
# built, so the memory an export needs is the row memos it reads.

# Scalar serial -> JSON text of its coefficient list.  Scalars are interned
# per field and a serial is never reused, so a serial stands for one value
# for good.  Export tables repeat few distinct scalars (D(B) at p=2: 8 in
# 65,536 entries), so each is encoded once.
_SCALAR_TEXT: dict = {}


def _scalar_text(c: Cyc) -> bytes:
    """The canonical JSON of c's coefficient list: one {num, den} pair of
    decimal strings per power of zeta below phi, in lowest terms."""
    out = _SCALAR_TEXT.get(c.serial)
    if out is None:
        out = _SCALAR_TEXT[c.serial] = _dumps(
            [{"num": str(f.numerator), "den": str(f.denominator)}
             for f in c.to_fractions()])
    return out


def _dumps(value) -> bytes:
    import json
    return json.dumps(value, sort_keys=True,
                      separators=(",", ":")).encode("ascii")


_first = itemgetter(0)
_first_two = itemgetter(0, 1)


def _table(rows) -> Iterator[bytes]:
    """A JSON array with one entry [*head, *t[:-1], scalar] per term t of
    each (head, terms) pair of `rows`, in one chunk per nonempty row.

    Heads are tuples of indices and come in increasing order.  Terms are
    (index, c) or (index, index, c); each row's terms are sorted on their
    indices only, stably, so the entries come in the order of the whole
    table sorted on its index columns and no scalar is compared.
    """
    text = _scalar_text
    sep = b"["
    for head, terms in rows:
        if not terms:
            continue
        prefix = b"[" + b"%d," * len(head) % head
        if len(terms[0]) == 2:
            body = [b"%s%d,%s]" % (prefix, k, text(c))
                    for k, c in sorted(terms, key=_first)]
        else:
            body = [b"%s%d,%d,%s]" % (prefix, j, k, text(c))
                    for j, k, c in sorted(terms, key=_first_two)]
        yield sep + b",".join(body)
        sep = b","
    yield b"[]" if sep == b"[" else b"]"


def _vec_table(v: Vec) -> Iterator[bytes]:
    return _table([((), tuple(v.items()))])


def _document(block: dict) -> Iterator[bytes]:
    """The canonical JSON of `block` and a newline, in chunks.  A
    generator among its values stands for the chunks of its own JSON."""
    yield from _json_chunks(block)
    yield b"\n"


def _json_chunks(value) -> Iterator[bytes]:
    if isinstance(value, GeneratorType):
        yield from value
    elif isinstance(value, dict) and value:
        sep = b"{"
        for key in sorted(value):
            yield sep + _dumps(key) + b":"
            yield from _json_chunks(value[key])
            sep = b","
        yield b"}"
    else:
        yield _dumps(value)


def _scalar_load(ctx: QContext, coeffs, where: str, memo: dict) -> Cyc:
    """Inverse of _scalar_text; ValueError unless `coeffs` is exactly what
    _scalar_text writes for a nonzero scalar.

    `memo` maps the (num, den) strings of each coefficient list accepted
    so far to its scalar, so a repeated scalar is parsed once.  It must
    belong to one field: callers keep one per import.
    """
    if not isinstance(coeffs, list) or len(coeffs) != ctx.phi:
        raise ValueError(f"{where}: expected a list of {ctx.phi} "
                         f"coefficients")
    try:
        key = tuple([(entry["num"], entry["den"]) for entry in coeffs])
        total = memo.get(key)
    except (TypeError, KeyError):         # rejected below
        key = total = None
    if total is not None:
        return total
    total = ctx.zero
    for j, entry in enumerate(coeffs):
        try:
            num, den = entry["num"], entry["den"]
            f = Fraction(int(num), int(den))
        except (TypeError, KeyError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{where}: bad coefficient {entry!r}") from exc
        if num != str(f.numerator) or den != str(f.denominator):
            raise ValueError(f"{where}: coefficient {entry!r} is not a "
                             f"fraction in lowest terms")
        if f:
            total = total + ctx.rational(f) * ctx.zeta_pow(j)
    if not total:
        raise ValueError(f"{where}: zero scalar entry")
    memo[key] = total
    return total


def _entries_load(ctx: QContext, entries, bounds: tuple, table: str,
                  memo: dict, head: int = 1) -> dict:
    """Entries [i, ..., scalar] of an exported table, grouped by their
    first `head` indices as they are read: {i: [(j, ..., Cyc), ...]}, or
    {(i, j): [...]} when head is 2, each row in file order.

    `bounds` gives the dimension each index must stay below (None: only
    non-negative).  Raises ValueError on a malformed entry, an index out
    of range, a repeated index tuple or a zero scalar.  `memo` is passed
    to `_scalar_load`.
    """
    if not isinstance(entries, list):
        raise ValueError(f"{table}: expected a list of entries")
    n = len(bounds)
    rows: dict = {}
    seen = set()
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != n + 1:
            raise ValueError(f"{table}: malformed entry {entry!r}")
        key = tuple(entry[:n])
        for i, bound in zip(key, bounds):
            if type(i) is not int or i < 0 or (bound is not None
                                               and i >= bound):
                raise ValueError(f"{table}: basis index {i!r} out of range "
                                 f"in entry {list(key)}")
        if key in seen:
            raise ValueError(f"{table}: duplicate entry {list(key)}")
        seen.add(key)
        c = _scalar_load(ctx, entry[n], f"{table} {list(key)}", memo)
        rows.setdefault(key[0] if head == 1 else key[:head],
                        []).append((*key[head:], c))
    return rows


def _vec_load(ctx: QContext, entries, dim: int, table: str,
              memo: dict) -> Vec:
    return {i: c for i, ((c,),) in _entries_load(ctx, entries, (dim,), table,
                                                 memo).items()}


def _algebra_block(obj) -> dict:
    d = obj.space.dim
    get = obj.mult.get
    return {
        "schema_version": EXPORT_SCHEMA_VERSION,
        "field": {"type": "cyclotomic", "order": obj.ctx.order},
        "dim": d,
        "labels": [obj.space.render(lab) for lab in obj.space.labels],
        "unit": _vec_table(obj.unit),
        "mult": _table(((i, j), get(i, j))
                       for i in range(d) for j in range(d)),
    }


def _hopf_block(H: FiniteHopf) -> dict:
    d = H.space.dim
    return dict(_algebra_block(H),
                counit=_vec_table(H.counit),
                comult=_table(((i,), H.comult.get(i)) for i in range(d)),
                antipode=_table(((i,), H.antipode.get(i)) for i in range(d)))


def _yd_block(algebra, action_rows, coaction_rows, hopf_name: str) -> dict:
    """action_rows: ((h, x), ((y, c), ...)) pairs and coaction_rows:
    ((x,), ((h, y, c), ...)) pairs, each in increasing index order."""
    return dict(_algebra_block(algebra),
                action={"hopf": hopf_name, "entries": _table(action_rows)},
                coaction={"hopf": hopf_name,
                          "entries": _table(coaction_rows)})


def _live_yd_block(yd, hopf_name: str) -> dict:
    dH, dX = yd.hopf.dim, yd.algebra.dim
    return _yd_block(
        yd.algebra,
        (((h, x), yd.action.row(h, x)) for h in range(dH) for x in range(dX)),
        (((x,), yd.coaction.terms(x)) for x in range(dX)), hopf_name)


_FIXED_OBJECTS = ("taft", "taft-dual", "ddouble", "hdouble", "uqsl2",
                  "hqsl2", "cqzd")


def _chain_length(name: str) -> Optional[int]:
    """n for an object name chain(n), n a decimal integer >= 1 written
    with no sign, space or leading zero; else None."""
    match = re.fullmatch(r"chain\(([1-9][0-9]*)\)", name)
    return int(match[1]) if match else None


def check_export_name(name: str) -> None:
    """Raise ValueError unless `export_bytes` knows the object name."""
    if name not in _FIXED_OBJECTS and _chain_length(name) is None:
        raise ValueError(
            f"unknown export object {name!r}; expected one of "
            f"{', '.join(_FIXED_OBJECTS)}, chain(n)")


def _export_chunks(name: str, p: int) -> Iterator[bytes]:
    """The export of one named object, as the chunks of its canonical JSON.

    The name is checked (ValueError) and the object built when this is
    called; its tables are read as the chunks are drawn.
    """
    check_export_name(name)
    sys_ = taft_system(p)
    if name == "taft":
        block = _hopf_block(sys_.pair.primal)
    elif name == "taft-dual":
        block = _hopf_block(sys_.pair.dual)
    elif name == "ddouble":
        block = _hopf_block(sys_.double.hopf)
    elif name == "hdouble":
        block = _live_yd_block(sys_.yd, "ddouble")
    elif name == "uqsl2":
        block = _hopf_block(uqsl2(p).hopf)
    elif name == "hqsl2":
        block = _live_yd_block(hqsl2(p).yd, "uqsl2")
    elif name == "cqzd":
        block = _algebra_block(cqzd(p))
    else:
        ch = truly_heisenberg_chain(p, _chain_length(name))
        block = _live_yd_block(ch.chain.yd, "uqsl2")
    return _document(block)


def export_bytes(name: str, p: int) -> bytes:
    """The canonical JSON of one named object's structure-constant tables
    (see the README), as the bytes `hopfbench export` writes.  Raises
    ValueError on an unknown name."""
    return b"".join(_export_chunks(name, p))


class ImportedYD:
    """Tables-only bundle: the Hopf algebra is referenced by name."""

    def __init__(self, algebra: FiniteAlgebra, action_rows: dict,
                 coaction_rows: dict, hopf_name: str):
        self.algebra = algebra
        self.action_rows = action_rows
        self.coaction_rows = coaction_rows
        self.hopf_name = hopf_name


def import_object(data):
    """Rebuild an object from exported tables.

    Returns a FiniteHopf when coalgebra tables are present, an ImportedYD
    when action/coaction blocks are present, else a FiniteAlgebra.
    `reexport_bytes(import_object(b))` reproduces the input bytes.
    Raises ValueError on a table entry with a basis index out of range, a
    repeated index tuple, a zero scalar or a scalar not written the way
    the exporter writes it.  The Hopf index of action and coaction
    entries is only checked to be non-negative: the Hopf algebra is
    referenced by name, so its dimension is not in the payload.
    """
    if isinstance(data, (bytes, str)):
        import json
        data = json.loads(data)
    if data.get("schema_version") != EXPORT_SCHEMA_VERSION:
        raise ValueError(f"unsupported export schema: "
                         f"{data.get('schema_version')!r}")
    field = data["field"]
    if field.get("type") != "cyclotomic" or field["order"] % 4:
        raise ValueError(f"unsupported base field: {field!r}")
    ctx = QContext(field["order"] // 4)
    memo: dict = {}                       # see _scalar_load
    d = data["dim"]
    labels = list(data["labels"])
    if len(labels) != d:
        raise ValueError("label count does not match dim")
    space = Space("imported", labels)
    mult = BilinearMap(d, d)
    for (i, j), row in _entries_load(ctx, data["mult"], (d, d, d), "mult",
                                     memo, head=2).items():
        mult.set(i, j, row)
    unit = _vec_load(ctx, data["unit"], d, "unit", memo)
    if "comult" in data:
        comult = ColinearMap(d, d, d)
        for i, row in _entries_load(ctx, data["comult"], (d, d, d), "comult",
                                    memo).items():
            comult.set(i, row)
        antipode = LinearMap(d, d)
        for i, row in _entries_load(ctx, data["antipode"], (d, d),
                                    "antipode", memo).items():
            antipode.set(i, row)
        counit = _vec_load(ctx, data["counit"], d, "counit", memo)
        return FiniteHopf(ctx, space, mult, unit, comult, counit, antipode)
    algebra = FiniteAlgebra(ctx, space, mult, unit)
    if "action" not in data:
        return algebra
    action_rows = _entries_load(ctx, data["action"]["entries"], (None, d, d),
                                "action", memo, head=2)
    coaction_rows = _entries_load(ctx, data["coaction"]["entries"],
                                  (d, None, d), "coaction", memo)
    return ImportedYD(algebra,
                      {hx: tuple(t) for hx, t in action_rows.items()},
                      {x: tuple(t) for x, t in coaction_rows.items()},
                      data["action"]["hopf"])


def reexport_bytes(obj) -> bytes:
    """Serialize an imported object back to canonical bytes."""
    if isinstance(obj, FiniteHopf):
        block = _hopf_block(obj)
    elif isinstance(obj, ImportedYD):
        acts, coacts = obj.action_rows, obj.coaction_rows
        block = _yd_block(obj.algebra,
                          ((hx, acts[hx]) for hx in sorted(acts)),
                          (((x,), coacts[x]) for x in sorted(coacts)),
                          obj.hopf_name)
    else:
        block = _algebra_block(obj)
    return b"".join(_document(block))


# -- argument parsing -------------------------------------------------------------

def _add_p(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=int, default=2, metavar="P",
                   help="half the even root order: the field is Q(zeta_4p)")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hopfbench",
        description="Exact verification of Drinfeld/Heisenberg double "
                    "constructions over cyclotomic fields.")
    ap.add_argument("--version", action="version",
                    version=f"hopfbench {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verification suites")
    _add_p(v)
    v.add_argument("--suite", default="all",
                   help="suite name, comma list, or 'all' (default)")
    v.add_argument("--mode", choices=MODES, default=None,
                   help="mode of the tuple walks, which cover the laws no "
                        "lemma walk proves (default: exhaustive for p=2, "
                        "generators otherwise)")
    v.add_argument("--seed", type=int, default=0, help="sampling seed")
    v.add_argument("--sample-size", type=int, default=10_000,
                   help="random tuples per sampling walk")
    v.add_argument("--fail-fast", action="store_true",
                   help="stop at the first failing check")
    v.add_argument("--out", default=None, metavar="PATH",
                   help="write the report here instead of stdout")
    v.add_argument("--format", choices=("text", "json"), default="text")

    e = sub.add_parser("eval", help="evaluate an element expression")
    _add_p(e)
    e.add_argument("expression", help="e.g. \"del * z\" or \"E |> z\"")
    e.add_argument("--structure",
                   choices=("product", "action", "coaction", "braiding"),
                   default="product")

    x = sub.add_parser("export", help="write structure-constant tables")
    _add_p(x)
    x.add_argument("object",
                   help="taft | taft-dual | ddouble | hdouble | uqsl2 | "
                        "hqsl2 | cqzd | chain(n)")
    x.add_argument("--out", default=None, metavar="PATH",
                   help="write JSON here instead of stdout")
    return ap


def _out_error(out: Optional[str]) -> Optional[str]:
    """Why `--out out` could not be written, or None.

    Checked before any work, so that a bad path costs no run and reads as
    a usage error; nothing is created here.
    """
    if not out:
        return None
    if os.path.isdir(out):
        return f"--out {out}: is a directory"
    parent = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(parent):
        return f"--out {out}: directory {parent} does not exist"
    if not os.access(parent, os.W_OK):
        return f"--out {out}: directory {parent} is not writable"
    return None


class _StdoutClosed(Exception):
    """The reader of stdout went away before the output was written."""


def _write(chunks, out: Optional[str]) -> None:
    """Write the byte chunks to stdout, or to the file `out`.

    A file is written under a temporary name in its directory and renamed
    over `out` once every chunk is written, so a run that fails halfway
    leaves `out` as it was.  Only a special file (say /dev/null) is
    written in place.  A closed stdout raises _StdoutClosed, after
    pointing stdout at /dev/null: what is left in its buffer must not be
    flushed into the dead pipe again at exit.
    """
    if not out:
        stdout = sys.stdout.buffer
        try:
            stdout.writelines(chunks)
            stdout.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout.fileno())
            os.close(devnull)
            raise _StdoutClosed from None
        return
    target = os.path.realpath(out)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "wb") as fh:
            fh.writelines(chunks)
        return
    parent, base = os.path.split(target)
    tmp = os.path.join(parent, f".{base}.{os.getpid()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _cmd_verify(args) -> int:
    bad_out = _out_error(args.out)
    if bad_out:
        print(f"hopfbench verify: error: {bad_out}", file=sys.stderr)
        return 2
    from .report import ConfigError, SuiteConfig, render, run_suite
    cfg = SuiteConfig(p=args.p, suite=args.suite, mode=args.mode,
                      seed=args.seed, sample_size=args.sample_size,
                      fail_fast=args.fail_fast)
    try:
        report = run_suite(cfg)
    except ConfigError as exc:
        print(f"hopfbench verify: error: {exc}", file=sys.stderr)
        return 2
    _write([render(report, args.format)], args.out)
    return 0 if report.ok else 1


def _cmd_eval(args) -> int:
    if args.p < 2:
        print("hopfbench eval: error: p must be an integer >= 2",
              file=sys.stderr)
        return 2
    try:
        text = evaluate_expression(args.p, args.expression, args.structure)
    except EvalError as exc:
        print(f"hopfbench eval: error: {exc}", file=sys.stderr)
        return 2
    _write([text.encode("utf-8") + b"\n"], None)
    return 0


def _cmd_export(args) -> int:
    if args.p < 2:
        print("hopfbench export: error: p must be an integer >= 2",
              file=sys.stderr)
        return 2
    bad_out = _out_error(args.out)
    if bad_out:
        print(f"hopfbench export: error: {bad_out}", file=sys.stderr)
        return 2
    try:
        chunks = _export_chunks(args.object, args.p)
    except ValueError as exc:
        print(f"hopfbench export: error: {exc}", file=sys.stderr)
        return 2
    _write(chunks, args.out)
    return 0


def main(argv=None) -> int:
    """Run one command; returns its exit code (see the module docstring).
    Usage errors that argparse finds raise SystemExit(2)."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "eval":
            return _cmd_eval(args)
        return _cmd_export(args)
    except _StdoutClosed:
        print(f"hopfbench {args.command}: error: stdout was closed before "
              f"all output was written", file=sys.stderr)
        return 2
    except Exception:
        # An engine crash must not read as "a check failed" (exit 1).
        import traceback
        traceback.print_exc()
        return 3


def console_main() -> NoReturn:
    """The `hopfbench` console script and `python3 -m hopfbench`.

    Runs main() on sys.argv, flushes stdout and stderr, and ends the
    process with os._exit.  That skips the interpreter's teardown, which
    frees every memo row and module one by one, and with it every atexit
    hook: to run those (say coverage's), call main() in process.  main()
    leaves no suite worker running (report._pool_map reaps them all).
    If a flush fails, the normal exit reports it.
    """
    try:
        code = main()
    except SystemExit as exc:             # argparse: usage, --help, --version
        code = exc.code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    console_main()
