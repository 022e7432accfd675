"""Every public name of the package has a caller outside the tests.

A name in a module's __all__ must be referenced somewhere in src/ambitlab
other than its own definition, or somewhere in bench/, and so must each
public method of a class in an __all__.  Code that only the tests call
lives in tests/oracles.py.  The benchmark also binds names by
string, as `(ambit, "make_path")` and span names like
"levy.replay_integral", so each dot-separated part of a bench string counts
as a reference too.  The check reads the source and imports nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "ambitlab").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

# public names that wait for a caller from a ROADMAP.md item
AWAITING_CALLER = {
    "levy.characteristic_exponent",  # item 2: the exact ambit field law
    "noise.grid_variance_g",         # item 4: the exact linear SPDE law
    "spde.approximate_u_eps",        # item 5: the spde-coupling experiment
}


def _references(tree, strings):
    """Names that tree loads, imports or (with strings) spells in a
    string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            yield from node.value.split(".")


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _public_methods(tree, exported):
    """Class.method of each public method of the classes in exported."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in exported:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}"


def _scan():
    """({module.name} of every __all__ entry, {module.Class.method} of
    their public methods, the names referenced)."""
    exported, methods, referenced = set(), set(), set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = _exports(tree)
        exported |= {f"{path.stem}.{name}" for name in names}
        methods |= {f"{path.stem}.{name}"
                    for name in _public_methods(tree, names)}
        referenced |= set(_references(tree, strings=False))
    for path in BENCH:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        referenced |= set(_references(tree, strings=True))
    return exported, methods, referenced


def test_every_export_has_a_caller():
    exported, _, referenced = _scan()
    uncalled = sorted(name for name in exported - AWAITING_CALLER
                      if name.rpartition(".")[2] not in referenced)
    assert not uncalled, f"exported but called only by tests: {uncalled}"


def test_every_public_method_has_a_caller():
    _, methods, referenced = _scan()
    uncalled = sorted(name for name in methods
                      if name.rpartition(".")[2] not in referenced)
    assert not uncalled, f"public methods called only by tests: {uncalled}"


def test_exempt_names_still_wait_for_a_caller():
    exported, _, referenced = _scan()
    assert AWAITING_CALLER <= exported
    called = sorted(name for name in AWAITING_CALLER
                    if name.rpartition(".")[2] in referenced)
    assert not called, f"exempt names that now have a caller: {called}"
