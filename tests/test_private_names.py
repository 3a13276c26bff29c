"""No module of the package reaches into another module's private names.

A name that starts with one underscore belongs to its own module: another
module may neither import it (``from .matching import _helper``) nor read
it through a module alias (``ad._state``).  The check walks the syntax
tree of every ``src/patchgraph/*.py``."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "patchgraph"


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _is_package(node):
    """Whether an ``ImportFrom`` reads from this package."""
    return node.level > 0 or (node.module or "").split(".")[0] == "patchgraph"


def private_reads(source):
    """(line, text) of every private name of another package module that
    ``source`` imports or reads through a module alias."""
    tree = ast.parse(source)
    aliases = set()     # local names bound to modules of the package
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_package(node):
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, "import " + alias.name))
                if node.module in (None, "patchgraph"):
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "patchgraph" and alias.asname:
                    aliases.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            found.append((node.lineno, node.value.id + "." + node.attr))
    return sorted(found)


def test_no_module_reads_another_modules_private_names():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    found = {path.name: private_reads(path.read_text())
             for path in modules}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_check_sees_imports_and_alias_reads():
    source = ("from . import autodiff as ad\n"
              "from .matching import (INFERENCE_CHUNK,\n"
              "                       _helper)\n"
              "import patchgraph.gnn as gnn\n"
              "import numpy as np\n"
              "x = ad._grad_enabled, gnn._layer, np._core, ad.__name__\n"
              "y = self._own\n")
    assert private_reads(source) == [(2, "import _helper"),
                                     (6, "ad._grad_enabled"),
                                     (6, "gnn._layer")]
