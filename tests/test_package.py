"""Package structure: the import graph of ``nonsig`` and the scripts that reach into it."""

import ast
import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = {path.stem: path for path in (ROOT / "src" / "nonsig").glob("*.py")}


def relative_imports(path: Path) -> set[str]:
    """The package modules that one module imports relatively, anywhere in its code;
    a name that ``from . import`` reads off the package itself is an import of ``__init__``."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module)
            else:
                out |= {alias.name if alias.name in MODULES else "__init__" for alias in node.names}
    return out


def import_graph() -> dict[str, set[str]]:
    graph = {name: relative_imports(path) for name, path in MODULES.items()}
    for name, deps in graph.items():
        assert deps <= graph.keys(), f"{name} imports unknown modules {sorted(deps - graph.keys())}"
    return graph


def test_import_graph_has_no_cycle():
    graph, done, path = import_graph(), set(), []

    def visit(name):
        if name in path:
            raise AssertionError("import cycle: " + " -> ".join(path[path.index(name) :] + [name]))
        if name not in done:
            path.append(name)
            for dep in sorted(graph[name]):
                visit(dep)
            path.pop()
            done.add(name)

    for name in sorted(graph):
        visit(name)


def test_slice_needs_no_solver():
    assert import_graph()["slice"] <= {"behavior", "functionals"}


@pytest.mark.parametrize("name", sorted(MODULES))
def test_imports_only_numpy_and_the_standard_library(name):
    found = set()
    for node in ast.walk(ast.parse(MODULES[name].read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    assert found <= {"numpy"} | sys.stdlib_module_names, sorted(found - sys.stdlib_module_names)


def test_boundary_reads_curves_only_through_witness_vectors():
    tree = ast.parse(MODULES["boundary"].read_text(encoding="utf-8"))
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "curves"
    }
    assert used == {"witness_vectors"}


@pytest.mark.parametrize("script", sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.name)
def test_script_loads(script):
    # every script runs its work under a __main__ guard, so loading it only resolves its imports
    runpy.run_path(str(script), run_name="not_main")
