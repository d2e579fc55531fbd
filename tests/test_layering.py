"""The import graph keeps the symbolic path apart from the oracle and the index sets.

Only the package ``__init__`` imports the index-set layer when it runs:
witnesses are read off the canonical form, so no other module needs
``indexset`` at run time; a module may still name its types for annotations
under ``if TYPE_CHECKING:``.  No module imports numpy, and no module
imports ``oracle`` or ``sampling`` at its top level, so the symbolic commands
never load them.  The package resolves the oracle's and the index sets' names
on first access.  Only the on-demand ``indexset`` imports ``dataclasses``, so
that a fresh ``import invsys.cli`` loads neither it nor ``inspect``, which it
pulls in.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import invsys
from invsys import indexset, oracle
from invsys import tree as tree_module

SRC = Path(invsys.__file__).parent
MODULES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _type_checking(test) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def runtime_imports(node):
    """Every import statement below ``node`` outside ``if TYPE_CHECKING:`` bodies."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.If) and _type_checking(child.test):
            children = child.orelse
        else:
            children = [child]
        for stmt in children:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                yield stmt
            yield from runtime_imports(stmt)


def top_level_imports(tree):
    """The run-time imports of a module that run when it is imported, that is,
    those outside every function body."""
    nested = {id(stmt) for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for stmt in runtime_imports(fn)}
    return [stmt for stmt in runtime_imports(tree) if id(stmt) not in nested]


def imported_names(stmt):
    """The absolute dotted names an import statement binds or loads; a relative
    import resolves inside the (flat) ``invsys`` package."""
    if isinstance(stmt, ast.Import):
        return [alias.name for alias in stmt.names]
    module = stmt.module or ""
    if stmt.level:
        module = f"invsys.{module}" if module else "invsys"
    return [module] + [f"{module}.{alias.name}" for alias in stmt.names]


def imports(stmt, target: str) -> bool:
    return any(name == target or name.startswith(target + ".") for name in imported_names(stmt))


def importers(target: str, walk=runtime_imports):
    return sorted(name for name, tree in MODULES.items()
                  if any(imports(stmt, target) for stmt in walk(tree)))


def test_only_the_package_init_imports_indexset_at_run_time():
    assert importers("invsys.indexset") == ["__init__.py"]


def test_no_module_imports_numpy():
    assert importers("numpy") == []


def test_no_module_imports_copy():
    """Every report builds its JSON afresh, an ``equiv`` witness's index set
    included, so no module deep-copies."""
    assert importers("copy") == []


def test_only_the_on_demand_modules_import_dataclasses():
    assert importers("dataclasses") == ["indexset.py"]


def test_importing_the_cli_loads_no_dataclasses_inspect_or_numpy(tmp_path, fresh_cli):
    def loaded(statement):
        probe = f"import sys; {statement}; print(*sorted(sys.modules))"
        return set(fresh_cli([], code=probe, cwd=tmp_path, timeout=120, check=True).stdout.split())

    added = loaded("import invsys.cli") - loaded("pass")
    assert "invsys.cli" in added
    assert {"dataclasses", "inspect", "numpy"}.isdisjoint(added)


@pytest.mark.parametrize("target", ["invsys.oracle", "invsys.sampling"])
def test_oracle_and_sampling_are_imported_only_inside_functions(target):
    assert importers(target, top_level_imports) == []
    assert importers(target) != []


# -- tree families -------------------------------------------------------------------


def family_mentions(name, module):
    """The family classes and kind strings a module names in code: as a name,
    an attribute, an imported name or a string constant.  The package
    ``__init__`` may re-export the classes: its ``from .tree import`` and its
    ``__all__`` entries are skipped."""
    families = tree_module._FAMILIES
    words = {family.__name__ for family in families.values()} | set(families)
    skip = set()
    if name == "__init__.py":
        for stmt in module.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "tree":
                skip.update(id(alias) for alias in stmt.names)
            if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
                skip.update(id(node) for node in ast.walk(stmt.value))
    found = []
    for node in ast.walk(module):
        if id(node) in skip:
            continue
        word = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias)
                else node.value if isinstance(node, ast.Constant) else None)
        if isinstance(word, str) and word in words:
            found.append(word)
    return found


def test_only_the_tree_module_names_a_family():
    """A family is one class in ``tree``: no other module names a family class
    or a kind string, so a new family touches no other module."""
    assert {name: family_mentions(name, module) for name, module in MODULES.items()
            if name != "tree.py" and family_mentions(name, module)} == {}
    assert family_mentions("tree.py", MODULES["tree.py"]) != []


# -- the package surface -------------------------------------------------------------


def test_every_exported_name_resolves():
    assert [name for name in invsys.__all__ if not hasattr(invsys, name)] == []
    assert set(invsys.__all__) <= set(dir(invsys))


def test_lazy_names_are_the_defining_modules_objects():
    from invsys import (
        TruncatedSystem,
        below,
        ind_omega,
        singleton,
        tail,
        truncate,
        universe_for,
    )

    pairs = [(truncate, oracle.truncate), (universe_for, oracle.universe_for),
             (TruncatedSystem, oracle.TruncatedSystem), (ind_omega, indexset.ind_omega),
             (singleton, indexset.singleton), (tail, indexset.tail), (below, indexset.below)]
    assert all(lazy is defined for lazy, defined in pairs)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        invsys.no_such_name  # noqa: B018
    assert not hasattr(invsys, "no_such_name")


# -- the benchmark's traced names ---------------------------------------------------


def test_every_traced_name_resolves():
    """Every function and method the benchmark's span tracer wraps exists, so
    that deleting or renaming one fails here and not only in a traced run."""
    spec = importlib.util.spec_from_file_location(
        "bench_spans", Path(__file__).resolve().parents[1] / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.remove()
