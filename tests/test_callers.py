"""Every function, class, method and property of the library has a use in the
library or the benchmark, not only in tests.

A name counts as used when it occurs, outside its own definition, in
``src/mvke`` or the benchmark's modules (``perfbench/*.py``, not its tests) as
a name, an attribute, an imported name or a string constant (the benchmark
patches some functions by their names).
Dunders are exempt, and so is each name in ``UNCALLED``, with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "mvke").glob("*.py"))
SEARCHED = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))

UNCALLED = {
    "grad_check": "the engine's finite-difference checker: acceptance criterion 1 and the "
                  "per-primitive gradient tests run it",
    "reduce_sum": "tests reduce a graph to a scalar loss with it",
    "degenerate_norm_count": "a run's per-epoch events are to report it (ROADMAP item 1)",
    "reset_degenerate_norm_count": "a run's per-epoch events are to report it (ROADMAP item 1)",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _occurrences(node: ast.AST):
    """(name, line) of every name, attribute, imported name and identifier string."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id, n.lineno
        elif isinstance(n, ast.Attribute):
            yield n.attr, n.lineno
        elif isinstance(n, ast.alias):
            yield n.name.rpartition(".")[2], n.lineno
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            yield n.value, n.lineno


def test_every_library_name_has_a_use_outside_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SEARCHED}
    seen: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _occurrences(tree):
            seen.setdefault(name, []).append((path, line))
    unused, defined = [], set()
    for path in LIBRARY:
        for d in ast.walk(trees[path]):
            if not isinstance(d, _DEFS) or d.name.startswith("__") and d.name.endswith("__"):
                continue
            defined.add(d.name)
            outside = [(p, line) for p, line in seen.get(d.name, [])
                       if p != path or not d.lineno <= line <= d.end_lineno]
            if not outside and d.name not in UNCALLED:
                unused.append(f"{path.name}:{d.lineno} {d.name}")
    assert not unused, f"defined in src/mvke but used only in tests, if at all: {unused}"
    assert set(UNCALLED) <= defined, f"allowed but not defined: {sorted(set(UNCALLED) - defined)}"
