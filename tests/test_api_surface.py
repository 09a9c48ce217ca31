"""Guards on what the package exports and what its modules share.

* Every name that a module lists in `__all__`, and every top-level
  function and class, is read by name by code in `src/hopfbench` outside
  its own definition, unless it is on `USED_OUTSIDE_SRC`; an attribute of
  the same name does not count.  Every method but the dunders is read as
  an attribute of that name outside its own definition.
* No module imports an underscore-prefixed name from a sibling module:
  what a sibling needs is public.
* Only `results.py` names `random` or the raw tuple walk (`iter_tuples`,
  `mode_tag`): every check walks basis tuples through a `results.Walk`
  from `results.TupleWalks` or a lemma walk, so the case loop, the random
  draws and the coverage label live in one place.
* Only `results.py` holds a case loop: no other module names `Check`,
  stores to or augments a `.cases` attribute, or calls `.failure(`.
  Every check yields its cases to `results.run_check`, which counts them
  and stops at the first witness.  (`.result(` is not gated: it is an
  ordinary method name, such as a future's `result()`.)
* Only `results.py` and `report.py` name the run's tuple walks
  (`TupleWalks`, or the `tuple_walk` it replaced) or the coverage modes
  (`MODES`), and no function outside them takes a `seed`, `samples` or
  `mode` parameter: the suites of `report.py` are the one plan that
  chooses each law's walk, and a check takes only the walk.
* No module imports numpy, scipy or dataclasses, at module level or
  inside a function: `pyproject.toml` declares no runtime dependencies,
  and generated classes (`dataclasses` loads `inspect` and `ast`) cost
  every process start-up what `typing.NamedTuple` and `__slots__`
  classes give without them.
* A command imports only what it runs: `import hopfbench` loads nothing
  else, and an `eval` loads neither `report`, `mutations`, `json` nor
  `traceback` (each is paid for by the path that uses it).
* No module builds a label -> index map from a space's labels or scans
  them with `.index(`: `Space.index` is that map, built once per space.
* No function in `mutations.py` calls `veq`, `run_check` or a walk's
  `.check(` or `.cases(`: a fixture corrupts an input and runs the
  healthy checks, and holds no copy of a check body.
* Only `hopf.twisted_product` calls `TwistedProduct(`, and no
  `FiniteAlgebra` or `FiniteHopf` call passes `factors=`: a twisted
  product's record comes from the one function that builds its product,
  so the checks that read the record read the formula of that product.
"""

from __future__ import annotations

import ast
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "hopfbench"

# Public names that nothing in src/ calls, each kept on purpose.
USED_OUTSIDE_SRC = {
    # the export format in memory, read by bench/ and the README; the CLI
    # streams the same bytes
    "export_bytes", "import_object", "reexport_bytes",
    # the inverse of `render(report, "json")`, read by the report
    # round-trip tests (tests/test_report_cli.py)
    "parse",
}


def _modules() -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _exports(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _references(modules: dict) -> set:
    """(module, top-level definition, name) of every name that code reads;
    the definition is None for module-level code.  Only bare names count:
    no module imports a sibling module object, so an exported function is
    reached by its name, and an attribute such as `parser.parse()` is
    another object's."""
    refs = set()
    for mod, tree in modules.items():
        for top in tree.body:
            owner = (top.name if isinstance(
                top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                else None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs.add((mod, owner, node.id))
    return refs


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _attribute_reads(modules: dict) -> set:
    """(module, class, method, attribute) of every attribute that code
    reads; class and method are None outside a method."""
    reads = set()
    for mod, tree in modules.items():
        for top in tree.body:
            methods = ([(top.name, f.name, f) for f in top.body
                        if isinstance(f, _DEFINITIONS)]
                       if isinstance(top, ast.ClassDef) else [])
            inside = {id(node): (cls, meth)
                      for cls, meth, f in methods for node in ast.walk(f)}
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute):
                    reads.add((mod, *inside.get(id(node), (None, None)),
                               node.attr))
    return reads


def _unread(modules: dict) -> set:
    """Each name in `__all__` and each top-level function or class that
    no code reads by name outside its own definition, and each method,
    as `Class.method`, that no code reads as an attribute outside its
    own definition."""
    refs = _references(modules)
    attrs = _attribute_reads(modules)
    unused = set()
    for mod, tree in modules.items():
        names = _exports(tree) + [top.name for top in tree.body
                                  if isinstance(top, _DEFINITIONS)]
        for name in names:
            if not any(n == name and (m, owner) != (mod, name)
                       for m, owner, n in refs):
                unused.add(name)
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for f in cls.body:
                if (isinstance(f, _DEFINITIONS)
                        and not (f.name.startswith("__")
                                 and f.name.endswith("__"))
                        and not any(a == f.name
                                    and (m, c, meth) != (mod, cls.name, f.name)
                                    for m, c, meth, a in attrs)):
                    unused.add(f"{cls.name}.{f.name}")
    return unused


def test_every_definition_is_read_in_src():
    assert _unread(_modules()) - USED_OUTSIDE_SRC == set()


def test_the_allowlist_names_only_unused_exports():
    modules = _modules()
    exported = {name for tree in modules.values() for name in _exports(tree)}
    assert USED_OUTSIDE_SRC <= exported
    assert USED_OUTSIDE_SRC <= _unread(modules)


def test_the_export_guard_counts_no_attribute_of_another_object():
    """A method of the same name, `cli._Parser(...).parse()`, does not
    make `report.parse` used; a call by name does."""
    report = ast.parse("__all__ = ['parse', 'render']\n"
                       "def parse(data):\n    return render(data)\n"
                       "def render(report):\n    return report\n")
    cli = ast.parse("def main(argv):\n    return _Parser(argv).parse()\n"
                    "main([])\n")
    assert _unread({"report.py": report, "cli.py": cli}) == {"parse"}


def test_the_definition_guard_sees_unread_functions_classes_and_methods():
    """A private function that only calls itself, a class that only its
    own methods name, and a method read only inside its own body or not
    at all are unread; a method read as an attribute elsewhere, even of
    another object, and a dunder are not."""
    planted = ast.parse(
        "def _walk(n):\n    return _walk(n - 1) if n else 0\n"
        "class Unread:\n"
        "    def make(self):\n        return Unread()\n"
        "class Used:\n"
        "    def __repr__(self):\n        return 'Used'\n"
        "    def read(self):\n        return self.read()\n"
        "    def called(self):\n        return 1\n"
        "    def never(self):\n        return 2\n"
        "def main():\n    return Used().called()\n"
        "main()\n")
    assert _unread({"planted.py": planted}) == {
        "_walk", "Unread", "Unread.make", "Used.read", "Used.never"}


def test_no_module_imports_a_private_name_from_a_sibling():
    bad = []
    for mod, tree in _modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith(
                    "hopfbench"):
                continue
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not name.endswith("__"):
                    bad.append(f"{mod}:{node.lineno} imports {name}")
    assert bad == []


# The random module, the names of the raw tuple iterator and its label
# (folded into `results.TupleWalks`), and the modules allowed to name them.
RAW_WALK_NAMES = {"random", "iter_tuples", "mode_tag"}
RAW_WALK_MODULES = {"results.py"}


def _raw_walk_uses(modules: dict) -> list:
    uses = []
    for mod, tree in modules.items():
        if mod in RAW_WALK_MODULES:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in RAW_WALK_NAMES:
                uses.append(f"{mod}:{getattr(node, 'lineno', '?')} {name}")
    return uses


def test_only_results_names_the_raw_tuple_walk():
    assert _raw_walk_uses(_modules()) == []


def test_the_raw_walk_guard_sees_a_reverted_loop():
    reverted = ast.parse(
        "import random\n"
        "from .results import iter_tuples, mode_tag\n"
        "def check(mode, seed, samples):\n"
        "    rng = random.Random(seed)\n"
        "    tag = results.mode_tag(mode, seed, samples)\n"
        "    for i, j in iter_tuples(mode, (2, 2), (None, None), rng, 4):\n"
        "        pass\n")
    for mod in ("ydcat.py", "hopf.py"):
        assert len(_raw_walk_uses({mod: reverted})) == 6
    assert _raw_walk_uses({"results.py": reverted}) == []


def _case_loops(modules: dict) -> list:
    """Outside `results.py`: each reference to `Check`, as a name, an
    attribute or an imported name, each store to or augmentation of a
    `.cases` attribute, and each call of a `.failure` attribute."""
    found = []
    for mod, tree in modules.items():
        if mod == "results.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "Check" or (
                    isinstance(node, ast.Attribute) and node.attr == "Check"):
                found.append((node.lineno, f"{mod}:{node.lineno} Check"))
            elif isinstance(node, ast.ImportFrom):
                found += [(node.lineno, f"{mod}:{node.lineno} Check")
                          for alias in node.names if alias.name == "Check"]
            elif (isinstance(node, ast.Attribute) and node.attr == "cases"
                  and isinstance(node.ctx, ast.Store)):
                found.append((node.lineno, f"{mod}:{node.lineno} .cases"))
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "failure"):
                found.append((node.lineno, f"{mod}:{node.lineno} .failure("))
    return [what for _, what in sorted(found)]


def test_only_results_holds_a_case_loop():
    assert _case_loops(_modules()) == []


def test_the_case_loop_guard_sees_check_cases_and_failure():
    """A check as it was, with its own counter, and the reads that stay
    allowed: a future's result, a walk's cases and a result's count."""
    reverted = ast.parse(
        "from .results import Check, CheckResult, run_check\n"
        "def law(walk, case, fut):\n"
        "    chk = results.Check('law', walk.label)\n"
        "    chk.cases += 1\n"
        "    chk.cases = 2\n"
        "    wit = walk.failure(chk, case)\n"
        "    n = chk.cases + fut.result().cases_checked\n"
        "    res = run_check('law', walk.label, walk.cases('law', case))\n"
        "    return chk.result(wit)\n")
    assert _case_loops({"ydcat.py": reverted}) == [
        "ydcat.py:1 Check", "ydcat.py:3 Check", "ydcat.py:4 .cases",
        "ydcat.py:5 .cases", "ydcat.py:6 .failure("]
    assert _case_loops({"results.py": reverted}) == []


# Names of the coverage plan's inputs, and the modules allowed to name
# them; cli.py offers MODES as the choices of `verify --mode`.
PLAN_NAMES = {"TupleWalks", "tuple_walk", "MODES"}
PLAN_MODULES = {"results.py", "report.py"}
CLI_NAMES = {"MODES"}
# Parameters that would carry a coverage mode or a draw into a function.
PLAN_PARAMETERS = {"mode", "seed", "samples"}
# span_closure's seed is the vectors it closes and its mode the kind of
# closure, "subalgebra" or "ideal": neither is coverage.
NOT_COVERAGE = {("sparse.py", "span_closure"): {"seed", "mode"}}


def _plan_uses(modules: dict) -> list:
    uses = []
    for mod, tree in modules.items():
        if mod in PLAN_MODULES:
            continue
        named = PLAN_NAMES - (CLI_NAMES if mod == "cli.py" else set())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = {node.id} & named
            elif isinstance(node, ast.Attribute):
                names = {node.attr} & named
            elif isinstance(node, ast.alias):
                names = {node.name} & named
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                a = node.args
                params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
                names = params & PLAN_PARAMETERS - NOT_COVERAGE.get(
                    (mod, getattr(node, "name", None)), set())
            else:
                continue
            uses += [(mod, node.lineno, name) for name in names]
    return [f"{mod}:{line} {name}" for mod, line, name in sorted(uses)]


def test_only_the_plan_names_coverage_modes_and_tuple_walks():
    assert _plan_uses(_modules()) == []


def test_the_plan_guard_sees_a_mode_passed_to_a_check():
    reverted = ast.parse(
        "from .results import MODES, TupleWalks, tuple_walk\n"
        "def check_yd(y, mode='exhaustive', seed=0, samples=10_000):\n"
        "    assert mode in MODES\n"
        "    walk = TupleWalks(mode, seed, samples).over((2, 2), (None, None))\n"
        "def span_closure(seed, multiply, dim, mode='ideal'):\n"
        "    pass\n")
    assert _plan_uses({"ydcat.py": reverted}) == [
        "ydcat.py:1 MODES", "ydcat.py:1 TupleWalks", "ydcat.py:1 tuple_walk",
        "ydcat.py:2 mode", "ydcat.py:2 samples", "ydcat.py:2 seed",
        "ydcat.py:3 MODES", "ydcat.py:4 TupleWalks",
        "ydcat.py:5 mode", "ydcat.py:5 seed"]
    assert _plan_uses({"sparse.py": reverted})[-2:] == [
        "sparse.py:3 MODES", "sparse.py:4 TupleWalks"]
    assert _plan_uses({"cli.py": reverted})[:2] == [
        "cli.py:1 TupleWalks", "cli.py:1 tuple_walk"]
    assert _plan_uses({"report.py": reverted}) == []


# Modules that no module may import, anywhere in its body: the two
# undeclared third-party packages, and the class generator.
BANNED_IMPORTS = {"numpy", "scipy", "dataclasses"}


def _undeclared_imports(modules: dict) -> list:
    found = []
    for mod, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                if name.split(".")[0] in BANNED_IMPORTS:
                    found.append(f"{mod}:{node.lineno} {name}")
    return found


def test_no_module_imports_numpy_or_scipy():
    assert _undeclared_imports(_modules()) == []


def test_the_dependency_guard_sees_function_level_imports():
    reverted = ast.parse(
        "def certificate(H):\n"
        "    import numpy as np\n"
        "    import scipy.sparse as sp\n"
        "    from scipy import sparse\n"
        "    from .results import Walk\n"
        "    from dataclasses import dataclass, replace\n"
        "    import dataclasses\n")
    assert _undeclared_imports({"hopf.py": reverted}) == [
        "hopf.py:2 numpy", "hopf.py:3 scipy.sparse", "hopf.py:4 scipy",
        "hopf.py:6 dataclasses", "hopf.py:7 dataclasses"]


def test_the_cli_import_loads_no_class_generator():
    """A fresh interpreter (site hooks off) that imports the CLI loads
    neither `dataclasses` nor `inspect`."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import hopfbench.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


BOUNDARY = """
import sys
sys.path.insert(0, sys.argv[1])
import hopfbench
print(sorted(m for m in sys.modules if m.startswith("hopfbench")))
from hopfbench.cli import main
assert main(["eval", "--p", "2", "--structure", "coaction", "lam kap"]) == 0
heavy = {"hopfbench.report", "hopfbench.mutations", "json", "traceback"}
print(sorted(heavy & set(sys.modules)))
assert main(["export", "--p", "2", "hqsl2", "--out", sys.argv[2]]) == 0
print(sorted(heavy & set(sys.modules)))
"""


def test_each_command_loads_only_what_it_runs(tmp_path):
    """In a fresh interpreter (site hooks off), `import hopfbench` loads
    nothing else; an eval loads neither the report, the mutation fixtures,
    `json` nor `traceback`, and an export adds `json` alone."""
    out = subprocess.run([sys.executable, "-S", "-c", BOUNDARY,
                          str(SRC.parent), str(tmp_path / "hqsl2.json")],
                         capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    assert lines[0] == "['hopfbench']"
    assert lines[-2:] == ["[]", "['json']"]


def _is_space_labels(node) -> bool:
    """`X.space.labels` or `space.labels`."""
    if not (isinstance(node, ast.Attribute) and node.attr == "labels"):
        return False
    owner = node.value
    return (isinstance(owner, ast.Attribute) and owner.attr == "space") or (
        isinstance(owner, ast.Name) and owner.id == "space")


def _label_lookups(modules: dict) -> list:
    found = []
    for mod, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.DictComp):
                it = node.generators[0].iter
                if (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                        and it.func.id == "enumerate" and it.args
                        and _is_space_labels(it.args[0])):
                    found.append(f"{mod}:{node.lineno} label map")
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "index"
                  and _is_space_labels(node.func.value)):
                found.append(f"{mod}:{node.lineno} labels.index")
    return found


def test_label_lookups_read_the_space_index():
    assert _label_lookups(_modules()) == []


def test_the_label_guard_sees_hand_built_maps_and_scans():
    reverted = ast.parse(
        "def lookups(pair, space, labels):\n"
        "    dl = {lab: i for i, lab in enumerate(pair.dual.space.labels)}\n"
        "    bl = {lab: i for i, lab in enumerate(space.labels)}\n"
        "    e = pair.primal.space.labels.index((1, 0))\n"
        "    f = space.labels.index((0, 1))\n"
        "    own = {lab: i for i, lab in enumerate(labels)}\n"
        "    return pair.dual.space.index[(1, 0)]\n")
    assert _label_lookups({"taft.py": reverted}) == [
        "taft.py:2 label map", "taft.py:3 label map",
        "taft.py:4 labels.index", "taft.py:5 labels.index"]


def _fixture_check_bodies(tree) -> list:
    """In a mutations module: each call of `veq` or `run_check`, as a name
    or an attribute, and each call of a `.check` or `.cases` attribute."""
    found = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            attr = getattr(node.func, "attr", None)
            name = getattr(node.func, "id", attr)
            if name in ("veq", "run_check") or attr in ("check", "cases"):
                found.append(f"{owner}:{node.lineno} {name}")
    return found


def test_no_fixture_holds_a_check_body():
    assert _fixture_check_bodies(_modules()["mutations.py"]) == []


def test_the_fixture_guard_sees_a_copied_case_loop():
    """The eta fixture with a copy of the check body: its own case loop
    and veq, a walk checked or walked by the fixture itself, and a
    comparison in `run_mutation`."""
    reverted = ast.parse(
        "def _eta_swapped(p, walks):\n"
        "    def body():\n"
        "        for k1, k2 in pairs:\n"
        "            yield None if veq(acc, row(k1, k2)) else 'M, N'\n"
        "    return [run_check('eta-twist-swapped', 'exhaustive', body())]\n"
        "def _walked(p, walks):\n"
        "    return [walks.over(dims, gens).check('law', case)]\n"
        "def _composed(p, walk):\n"
        "    return [results.run_check('law', walk.label,\n"
        "                              walk.cases('law', case))]\n"
        "def run_mutation(tag, p, walks):\n"
        "    return CheckResult(tag, 'pass' if sparse.veq(a, b) else 'fail',\n"
        "                       'exhaustive')\n")
    assert _fixture_check_bodies(reverted) == [
        "_eta_swapped:5 run_check", "_eta_swapped:4 veq",
        "_walked:7 check", "_composed:9 run_check", "_composed:10 cases",
        "run_mutation:12 veq"]


def _twist_records(modules: dict) -> list:
    """Each call of `TwistedProduct` outside `hopf.twisted_product`, and
    each `FiniteAlgebra` or `FiniteHopf` call that passes `factors=`."""
    found = []
    for mod, tree in modules.items():
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id",
                               getattr(node.func, "attr", None))
                if name == "TwistedProduct" and (mod, owner) != (
                        "hopf.py", "twisted_product"):
                    found.append(f"{mod}:{node.lineno} TwistedProduct")
                elif name in ("FiniteAlgebra", "FiniteHopf") and any(
                        k.arg == "factors" for k in node.keywords):
                    found.append(f"{mod}:{node.lineno} factors=")
    return found


def test_only_twisted_product_makes_a_twist_record():
    assert _twist_records(_modules()) == []


def test_the_twist_guard_sees_a_hand_made_record_and_factors():
    """A record made beside the product it describes, and the keyword
    that recorded only the factors."""
    reverted = ast.parse(
        "def twisted_product(A, B, r_row):\n"
        "    return TwistedProduct(A, B, r_row, mult, unit, gens)\n"
        "def heisenberg_double(base):\n"
        "    tw = hopf.TwistedProduct(dual, base, r_row, m, u, g)\n"
        "    return FiniteAlgebra(ctx, space, m, u, factors=(dual, base))\n"
        "def drinfeld_double(base):\n"
        "    return hopf.FiniteHopf(ctx, s, m, u, c, e, a, factors=f)\n")
    assert _twist_records({"hopf.py": reverted}) == [
        "hopf.py:4 TwistedProduct", "hopf.py:5 factors=", "hopf.py:7 factors="]
    assert _twist_records({"doubles.py": reverted}) == [
        "doubles.py:2 TwistedProduct", "doubles.py:4 TwistedProduct",
        "doubles.py:5 factors=", "doubles.py:7 factors="]


# Defaulted parameters of `src/hopfbench` functions that no call in src/,
# tests/ or bench/ passes, each kept on purpose, as "function(parameter=)".
UNPASSED_DEFAULTS: dict = {}


def _caller_trees() -> list:
    root = SRC.parents[1]
    return [ast.parse(path.read_text(encoding="utf-8"))
            for part in ("src", "tests", "bench")
            for path in sorted((root / part).rglob("*.py"))]


def _defaulted(tree) -> list:
    """(qualified name, call names, parameter, position) of every
    parameter with a default; the position counts the arguments of a call
    (a method's self or cls is not one) and is None for a keyword-only
    parameter.  A class call names its __init__ and __new__."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls)
                continue
            a = child.args
            pos = a.posonlyargs + a.args
            skip = int(cls is not None and not any(
                getattr(d, "id", None) == "staticmethod"
                for d in child.decorator_list))
            names = {child.name} | ({cls} if child.name in (
                "__init__", "__new__") else set())
            qual = f"{cls}.{child.name}" if cls else child.name
            first = len(pos) - len(a.defaults)
            for i, arg in enumerate(pos[first:], first):
                out.append((qual, names, arg.arg, i - skip))
            for arg, d in zip(a.kwonlyargs, a.kw_defaults):
                if d is not None:
                    out.append((qual, names, arg.arg, None))
            visit(child, None)

    visit(tree, None)
    return out


def _calls(trees: list) -> dict:
    """name -> [(positional arguments, keywords)] of each call of a name
    or an attribute of that name, and of each function handed to
    `partial`; a starred argument counts as one, and `**` as every
    keyword (None)."""
    calls: dict = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            entry = (len(node.args), {k.arg for k in node.keywords})
            calls.setdefault(name, []).append(entry)
            if name == "partial" and node.args:
                fn = node.args[0]
                calls.setdefault(getattr(fn, "id", getattr(fn, "attr", None)),
                                 []).append((entry[0] - 1, entry[1]))
    return calls


def _unpassed(modules: dict, trees: list) -> set:
    calls = _calls(trees)
    return {f"{qual}({par}=)"
            for tree in modules.values()
            for qual, names, par, pos in _defaulted(tree)
            if not any(par in kws or None in kws
                       or pos is not None and n > pos
                       for name in names for n, kws in calls.get(name, ()))}


def test_every_defaulted_parameter_is_passed_by_some_call():
    """A default that no caller overrides is a literal in disguise: the
    parameter goes, and its value moves into the body."""
    assert _unpassed(_modules(), _caller_trees()) == set(UNPASSED_DEFAULTS)


def test_the_default_guard_sees_an_unpassed_parameter():
    """A keyword nobody passes, on a function and on a method, is found;
    one passed by position, by keyword, through `partial`, through a
    class call or through `**` is not."""
    planted = ast.parse(
        "def check(walk, name='law'):\n    return name\n"
        "def build(x, flag=False, *, scale=1):\n    return x\n"
        "def make(x, tag=''):\n    return tag\n"
        "class Row:\n"
        "    def __init__(self, v=0):\n        self.v = v\n"
        "    def get(self, k=1):\n        return k\n"
        "    def put(self, k=1):\n        return k\n")
    caller = ast.parse(
        "check(w)\nbuild(1, True)\nbuild(2, **opts)\n"
        "partial(make, 1, 'x')\nRow(v=2).get()\nRow().put(3)\n")
    assert _unpassed({"planted.py": planted}, [planted, caller]) == {
        "check(name=)", "Row.get(k=)"}
