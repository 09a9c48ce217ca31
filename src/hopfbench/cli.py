"""Command-line front end: verify suites, evaluate elements, export tables.

Exit codes: 0 all selected checks passed (skipped checks do not fail a
run), 1 at least one check failed, 2 usage error (bad flags, bad
expression, unknown object), 3 engine crash (an unexpected exception;
the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from fractions import Fraction
from typing import Optional

from . import __version__
from .cyclo import Cyc, QContext
from .hopf import FiniteAlgebra, FiniteHopf, render_element, render_tensor
from .report import ConfigError, SuiteConfig, render, run_suite
from .sparse import (BilinearMap, ColinearMap, LinearMap, Space, SpanSolver,
                     Vec, vadd_term)
from .taft import (basis_change, cqzd, double_elements, heis_elements, hqsl2,
                   taft_system, truly_heisenberg_chain, uqsl2)

__all__ = ["main", "EvalError", "evaluate_expression", "export_object",
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

    Normal forms are printed in the del^b z^a lam^c kap^d monomial basis
    (each such monomial is a scalar multiple of a single smash basis
    vector, so the change of rendering is exact and invertible).
    """

    def __init__(self, p: int):
        self.sys = taft_system(p)
        ctx = self.sys.ctx
        nB = self.sys.pair.primal.dim
        bl = self.sys.pair.primal.space.index
        names = dict(heis_elements(self.sys))    # kap, z, lam, del
        names.update(double_elements(self.sys))  # E, k, F, kap
        names["K"] = {i * nB + bl[(0, 2)]: c     # k^2, the truncation grouplike
                      for i, c in self.sys.pair.dual.unit.items()}
        self.names = names
        self.ctx = ctx
        self.heis = self.sys.heis.algebra
        self.double = self.sys.double.hopf
        self.yd = self.sys.yd
        bc = basis_change(self.sys)
        dim = self.heis.dim
        pbw_labels = [None] * dim
        self._inv_scale = [None] * dim
        for pbw, vec in bc.pbw_to_smash.items():
            (i, gamma), = vec.items()
            pbw_labels[i] = pbw
            self._inv_scale[i] = gamma.inv()
        self.pbw_space = Space("pbw", pbw_labels, render=_pbw_label)

    def lookup(self, name: str, pos: int) -> Vec:
        v = self.names.get(name)
        if v is None:
            known = ", ".join(sorted(self.names))
            raise EvalError(f"unknown element {name!r} (known: {known})", pos)
        return dict(v)

    def pbw_vec(self, v: Vec) -> Vec:
        """Rescale smash coordinates to del/z/lam/kap monomial coordinates."""
        return {i: c * self._inv_scale[i] for i, c in v.items()}

    def pbw_flat(self, v: Vec, both: bool) -> Vec:
        """Same on flat pair keys; `both` rescales the first slot too."""
        dX = self.heis.dim
        out: Vec = {}
        for key, c in v.items():
            i, j = divmod(key, dX)
            c = c * self._inv_scale[j]
            if both:
                c = c * self._inv_scale[i]
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
        out = dict(unit)
        for _ in range(exp):
            out = product(out, base)
        return out
    if kind == "mul":
        return product(_eval_node(node[1], env, hopf_side),
                       _eval_node(node[2], env, hopf_side))
    if kind == "act":
        hv = _eval_node(node[1], env, True)
        xv = _eval_node(node[2], env, False)
        return env.yd.action.apply(hv, xv)
    raise EvalError("tensor expressions need --structure braiding", node[2])


def _braid(env: _EvalContext, xv: Vec, yv: Vec) -> Vec:
    """c(x (x) y) = (x_(-1) |> y) (x) x_(0) on flat pair indices."""
    dX = env.heis.dim
    one = env.ctx.one
    out: Vec = {}
    for key, c in env.yd.coaction.apply(xv).items():
        h, x0 = divmod(key, dX)
        for yp, cy in env.yd.action.apply({h: one}, yv).items():
            vadd_term(out, yp * dX + x0, c * cy)
    return out


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
        out = env.pbw_flat(_braid(env, xv, yv), both=True)
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

# Power-basis form (numerators, denominator) -> encoded coefficient list.
# Export tables repeat few distinct scalars (D(B) at p=2: 8 in 65,536
# entries), so every entry of one value shares a single list; no caller
# mutates it.  Keyed by the power-basis form, which is what the encoding
# reads.
_SCALAR_JSON: dict = {}


def _scalar_json(c: Cyc) -> list:
    key = (c.c, c.d)
    out = _SCALAR_JSON.get(key)
    if out is None:
        out = _SCALAR_JSON[key] = [
            {"num": str(f.numerator), "den": str(f.denominator)}
            for f in c.to_fractions()]
    return out


def _scalar_load(ctx: QContext, coeffs, where: str) -> Cyc:
    """Inverse of _scalar_json; ValueError unless `coeffs` is exactly what
    _scalar_json writes for a nonzero scalar."""
    if not isinstance(coeffs, list) or len(coeffs) != ctx.phi:
        raise ValueError(f"{where}: expected a list of {ctx.phi} "
                         f"coefficients")
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
    return total


def _entries_load(ctx: QContext, entries, bounds: tuple, table: str) -> list:
    """Rows [i, ..., scalar] of an exported table as [((i, ...), Cyc)].

    `bounds` gives the dimension each index must stay below (None: only
    non-negative).  Raises ValueError on a malformed row, an index out of
    range, a repeated index tuple or a zero scalar.
    """
    if not isinstance(entries, list):
        raise ValueError(f"{table}: expected a list of entries")
    n = len(bounds)
    out, seen = [], set()
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
        out.append((key, _scalar_load(ctx, entry[n], f"{table} {list(key)}")))
    return out


def _vec_json(v) -> list:
    return [[i, _scalar_json(c)] for i, c in sorted(v.items())]


def _vec_load(ctx: QContext, entries, dim: int, table: str) -> Vec:
    return {i: c for (i,), c in _entries_load(ctx, entries, (dim,), table)}


def _algebra_block(obj) -> dict:
    d = obj.space.dim
    mult = []
    for i in range(d):
        for j in range(d):
            for k, c in obj.mult.get(i, j):
                mult.append([i, j, k, _scalar_json(c)])
    mult.sort(key=lambda e: (e[0], e[1], e[2]))
    return {
        "schema_version": EXPORT_SCHEMA_VERSION,
        "field": {"type": "cyclotomic", "order": obj.ctx.order},
        "dim": d,
        "labels": [obj.space.render(lab) for lab in obj.space.labels],
        "unit": _vec_json(obj.unit),
        "mult": mult,
    }


def _hopf_block(H: FiniteHopf) -> dict:
    out = _algebra_block(H)
    comult, antipode = [], []
    for i in range(H.space.dim):
        for j, k, c in H.comult.get(i):
            comult.append([i, j, k, _scalar_json(c)])
        for j, c in H.antipode.get(i):
            antipode.append([i, j, _scalar_json(c)])
    comult.sort(key=lambda e: (e[0], e[1], e[2]))
    antipode.sort(key=lambda e: (e[0], e[1]))
    out["counit"] = _vec_json(H.counit)
    out["comult"] = comult
    out["antipode"] = antipode
    return out


def _yd_json(algebra, action_rows: dict, coaction_rows: dict,
             hopf_name: str) -> dict:
    """action_rows: (h, x) -> {y: c}; coaction_rows: x -> ((h, y, c), ...)."""
    out = _algebra_block(algebra)
    action = []
    for (h, x), row in action_rows.items():
        for y, c in row.items():
            action.append([h, x, y, _scalar_json(c)])
    action.sort(key=lambda e: (e[0], e[1], e[2]))
    coaction = []
    for x, terms in coaction_rows.items():
        for h, y, c in terms:
            coaction.append([x, h, y, _scalar_json(c)])
    coaction.sort(key=lambda e: (e[0], e[1], e[2]))
    out["action"] = {"hopf": hopf_name, "entries": action}
    out["coaction"] = {"hopf": hopf_name, "entries": coaction}
    return out


def _yd_block(yd, hopf_name: str) -> dict:
    dH, dX = yd.hopf.dim, yd.algebra.dim
    action_rows = {(h, x): yd.action.row(h, x)
                   for h in range(dH) for x in range(dX)}
    coaction_rows = {x: yd.coaction.terms(x) for x in range(dX)}
    return _yd_json(yd.algebra, action_rows, coaction_rows, hopf_name)


_FIXED_OBJECTS = ("taft", "taft-dual", "ddouble", "hdouble", "uqsl2",
                  "hqsl2", "cqzd")


def _chain_length(name: str) -> Optional[int]:
    """n for an object name chain(n) with n >= 1, else None."""
    if name.startswith("chain"):
        digits = name[5:].strip("()")
        if digits.isdigit() and int(digits) >= 1:
            return int(digits)
    return None


def check_export_name(name: str) -> None:
    """Raise ValueError unless `export_object` knows the object name."""
    if name not in _FIXED_OBJECTS and _chain_length(name) is None:
        raise ValueError(
            f"unknown export object {name!r}; expected one of "
            f"{', '.join(_FIXED_OBJECTS)}, chain(n)")


def export_object(name: str, p: int) -> dict:
    """Structure-constant tables for one named object, as a JSON-safe dict.

    Scalar coefficient lists are shared between entries and between calls;
    callers must not mutate them.
    """
    check_export_name(name)
    sys_ = taft_system(p)
    if name == "taft":
        return _hopf_block(sys_.pair.primal)
    if name == "taft-dual":
        return _hopf_block(sys_.pair.dual)
    if name == "ddouble":
        return _hopf_block(sys_.double.hopf)
    if name == "hdouble":
        return _yd_block(sys_.yd, "ddouble")
    if name == "uqsl2":
        return _hopf_block(uqsl2(p).hopf)
    if name == "hqsl2":
        return _yd_block(hqsl2(p).yd, "uqsl2")
    if name == "cqzd":
        return _algebra_block(cqzd(p).algebra)
    ch = truly_heisenberg_chain(p, _chain_length(name))
    return _yd_block(ch.chain.yd, "uqsl2")


def _canonical(block: dict) -> bytes:
    return (json.dumps(block, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def export_bytes(name: str, p: int) -> bytes:
    return _canonical(export_object(name, p))


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
        data = json.loads(data)
    if data.get("schema_version") != EXPORT_SCHEMA_VERSION:
        raise ValueError(f"unsupported export schema: "
                         f"{data.get('schema_version')!r}")
    field = data["field"]
    if field.get("type") != "cyclotomic" or field["order"] % 4:
        raise ValueError(f"unsupported base field: {field!r}")
    ctx = QContext(field["order"] // 4)
    d = data["dim"]
    labels = list(data["labels"])
    if len(labels) != d:
        raise ValueError("label count does not match dim")
    space = Space("imported", labels)
    mrows: dict = {}
    for (i, j, k), c in _entries_load(ctx, data["mult"], (d, d, d), "mult"):
        mrows.setdefault((i, j), []).append((k, c))
    mult = BilinearMap(d, d)
    for (i, j), row in mrows.items():
        mult.set(i, j, row)
    unit = _vec_load(ctx, data["unit"], d, "unit")
    if "comult" in data:
        crows: dict = {}
        for (i, j, k), c in _entries_load(ctx, data["comult"], (d, d, d),
                                          "comult"):
            crows.setdefault(i, []).append((j, k, c))
        comult = ColinearMap(d, d, d)
        for i, row in crows.items():
            comult.set(i, row)
        arows: dict = {}
        for (i, j), c in _entries_load(ctx, data["antipode"], (d, d),
                                       "antipode"):
            arows.setdefault(i, []).append((j, c))
        antipode = LinearMap(d, d)
        for i, row in arows.items():
            antipode.set(i, row)
        counit = _vec_load(ctx, data["counit"], d, "counit")
        return FiniteHopf(ctx, space, mult, unit, comult, counit, antipode)
    algebra = FiniteAlgebra(ctx, space, mult, unit)
    if "action" not in data:
        return algebra
    action_rows: dict = {}
    for (h, x, y), c in _entries_load(ctx, data["action"]["entries"],
                                      (None, d, d), "action"):
        action_rows.setdefault((h, x), {})[y] = c
    coaction_rows: dict = {}
    for (x, h, y), c in _entries_load(ctx, data["coaction"]["entries"],
                                      (d, None, d), "coaction"):
        coaction_rows.setdefault(x, []).append((h, y, c))
    return ImportedYD(algebra, action_rows,
                      {x: tuple(t) for x, t in coaction_rows.items()},
                      data["action"]["hopf"])


def reexport_bytes(obj) -> bytes:
    """Serialize an imported object back to canonical bytes."""
    if isinstance(obj, FiniteHopf):
        return _canonical(_hopf_block(obj))
    if isinstance(obj, ImportedYD):
        return _canonical(_yd_json(obj.algebra, obj.action_rows,
                                   obj.coaction_rows, obj.hopf_name))
    return _canonical(_algebra_block(obj))


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
    v.add_argument("--mode", choices=("exhaustive", "generators", "sample"),
                   default=None,
                   help="coverage mode (default: exhaustive for p=2, "
                        "generators+sample otherwise)")
    v.add_argument("--seed", type=int, default=0, help="sampling seed")
    v.add_argument("--sample-size", type=int, default=10_000,
                   help="random cases per sampled check")
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


def _write(payload: bytes, out: Optional[str]) -> None:
    if out:
        with open(out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()


def _cmd_verify(args) -> int:
    cfg = SuiteConfig(p=args.p, suite=args.suite, mode=args.mode,
                      seed=args.seed, sample_size=args.sample_size,
                      fail_fast=args.fail_fast)
    try:
        report = run_suite(cfg)
    except ConfigError as exc:
        print(f"hopfbench verify: error: {exc}", file=sys.stderr)
        return 2
    _write(render(report, args.format), args.out)
    return 0 if report.ok else 1


def _cmd_eval(args) -> int:
    if args.p < 2:
        print("hopfbench eval: error: p must be an integer >= 2",
              file=sys.stderr)
        return 2
    try:
        print(evaluate_expression(args.p, args.expression, args.structure))
    except EvalError as exc:
        print(f"hopfbench eval: error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_export(args) -> int:
    if args.p < 2:
        print("hopfbench export: error: p must be an integer >= 2",
              file=sys.stderr)
        return 2
    try:
        payload = export_bytes(args.object, args.p)
    except ValueError as exc:
        print(f"hopfbench export: error: {exc}", file=sys.stderr)
        return 2
    _write(payload, args.out)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "eval":
            return _cmd_eval(args)
        return _cmd_export(args)
    except Exception:
        # An engine crash must not read as "a check failed" (exit 1).
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
