"""No module of the package reads another module's private names.

Each ``src/ssamp/*.py`` is parsed with ``ast``.  A private name starts with
one underscore and is no dunder.  Two forms are caught: ``from .module
import _name`` (relative or through ``ssamp``), and ``module._name`` where
``module`` is bound to a module of the package by an import.
"""

import ast
import pathlib

import ssamp

PACKAGE = pathlib.Path(ssamp.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_import(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "ssamp"


def private_reads(source: str) -> list:
    """(line, text) for each private name the source takes from another module."""
    tree = ast.parse(source)
    modules = set()  # local names bound to a module of the package, or to the package
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ssamp":
                    modules.add(alias.asname or "ssamp")
        elif isinstance(node, ast.ImportFrom) and _package_import(node):
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, f"from {node.module} import {alias.name}"))
                elif alias.name in MODULES:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                found.append((node.lineno, f"{ast.unparse(node.value)}.{node.attr}"))
    return found


def test_checker_catches_both_forms():
    source = (
        "from .kernels import _prior, phi_zeta\n"
        "from ssamp.operators import _check_shape\n"
        "from . import solver\n"
        "import ssamp.tvamp as tv\n"
        "solver._hidden(); tv.x._y; self._fine; solver.public; solver.__name__\n"
    )
    assert [line for line, _ in private_reads(source)] == [1, 2, 5, 5]


def test_no_module_reads_another_modules_private_names():
    for path in sorted(PACKAGE.glob("*.py")):
        assert private_reads(path.read_text()) == [], path.name
