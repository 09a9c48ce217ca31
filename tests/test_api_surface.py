"""Guards on what the package exports and what its modules share.

* Every name that a module lists in `__all__` is used by code in
  `src/hopfbench` outside its own definition, unless it is on
  `USED_OUTSIDE_SRC`.
* No module imports an underscore-prefixed name from a sibling module:
  what a sibling needs is public.
* Only `results.py` names `random` or the raw tuple walk (`iter_tuples`,
  `mode_tag`): every check walks basis tuples through a `results.Walk`
  from `results.tuple_walk` or a lemma walk, so the case loop, the random
  draws and the coverage label live in one place.
* No module imports numpy or scipy, at module level or inside a
  function: `pyproject.toml` declares no runtime dependencies.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "hopfbench"

# Public names that nothing in src/ calls, each kept on purpose.
USED_OUTSIDE_SRC = {
    # tier-1 tests verify real properties through these; no suite runs them
    "check_hopf_pairing", "hit_dual_left", "hit_dual_right", "hit_alg_left",
    "hit_alg_right", "mutation_suite", "yang_baxter_check",
    "check_rebracketing", "check_hopf_ideal",
    # the import half of the export format, read by bench/ and the README
    "import_object", "reexport_bytes",
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
    the definition is None for module-level code."""
    refs = set()
    for mod, tree in modules.items():
        for top in tree.body:
            owner = (top.name if isinstance(
                top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                else None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs.add((mod, owner, node.id))
                elif isinstance(node, ast.Attribute):
                    refs.add((mod, owner, node.attr))
    return refs


def _unused_exports() -> set:
    modules = _modules()
    refs = _references(modules)
    unused = set()
    for mod, tree in modules.items():
        for name in _exports(tree):
            if not any(n == name and (m, owner) != (mod, name)
                       for m, owner, n in refs):
                unused.add(name)
    return unused


def test_every_export_is_used_in_src():
    assert _unused_exports() - USED_OUTSIDE_SRC == set()


def test_the_allowlist_names_only_unused_exports():
    exported = {name for tree in _modules().values() for name in _exports(tree)}
    assert USED_OUTSIDE_SRC <= exported
    assert USED_OUTSIDE_SRC <= _unused_exports()


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
# (folded into `results.tuple_walk`), and the modules allowed to name them.
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


# Third-party packages that no module may import, anywhere in its body.
UNDECLARED_PACKAGES = {"numpy", "scipy"}


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
                if name.split(".")[0] in UNDECLARED_PACKAGES:
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
        "    from .results import Walk\n")
    assert _undeclared_imports({"hopf.py": reverted}) == [
        "hopf.py:2 numpy", "hopf.py:3 scipy.sparse", "hopf.py:4 scipy"]
