"""Leftovers of refactors: each constant in config.py is read by the
package, each name a module imports is read by that module, and no module
reads the environment."""

import ast
from pathlib import Path

from dfs_sense import config


def _loads(tree: ast.AST) -> set[str]:
    """Names the module reads, bare or as an attribute; definitions and
    imports are not reads."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_every_config_constant_is_read():
    # a threshold that nothing reads any longer is left over from a refactor
    package = Path(config.__file__).parent
    tree = ast.parse(Path(config.__file__).read_text())
    constants = {t.id for node in tree.body if isinstance(node, ast.Assign)
                 for t in node.targets
                 if isinstance(t, ast.Name) and t.id.isupper()}
    assert "ENUMERATION_GUARD" in constants and "ORTHOGONALITY_RTOL" in constants
    read = set()
    for path in package.glob("*.py"):
        read |= _loads(ast.parse(path.read_text()))
    assert sorted(constants - read) == []


def _unread_imports(tree: ast.AST, lines: list[str]) -> list[str]:
    """Names bound by the module's imports that it never loads (an attribute
    base such as np in np.pi is a Name load); a __future__ import and one
    whose statement carries "# noqa: F401" are exempt."""
    bound = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
    loads = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - loads)


def test_every_import_is_read():
    sample = "import os, sys  # noqa: F401\nimport numpy as np\nfrom math import pi\nnp.e\n"
    assert _unread_imports(ast.parse(sample), sample.splitlines()) == ["pi"]
    # __init__.py is skipped: its imports are the package's exports
    package = Path(config.__file__).parent
    unread = {}
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        names = _unread_imports(ast.parse(text), text.splitlines())
        if names:
            unread[path.name] = names
    assert unread == {}


def test_no_module_reads_the_environment():
    # every setting is a config constant or an argument: no environment
    # variable changes what a command computes
    package = Path(config.__file__).parent
    readers = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)}
        names |= {a.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "os"
                  for a in node.names}
        found = names & {"environ", "environb", "getenv", "getenvb"}
        if found:
            readers[path.name] = sorted(found)
    assert readers == {}


def _numpy_random_uses(tree: ast.AST) -> list[int]:
    """Lines that import numpy.random or read np.random / numpy.random."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(a.name.startswith("numpy.random") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").startswith("numpy.random") or (
                node.module == "numpy"
                and any(a.name == "random" for a in node.names))
        else:
            hit = (isinstance(node, ast.Attribute) and node.attr == "random"
                   and isinstance(node.value, ast.Name)
                   and node.value.id in ("np", "numpy"))
        if hit:
            lines.append(node.lineno)
    return lines


def test_no_module_reaches_numpy_random():
    # the Monte-Carlo streams are montecarlo's own: importing numpy.random
    # costs every process that draws about 6 MB and 10 ms
    sample = ("import numpy as np\nfrom numpy import random\n"
              "import numpy.random as npr\nx = np.random.default_rng\n"
              "y = rng.random(3)\n")
    assert _numpy_random_uses(ast.parse(sample)) == [2, 3, 4]
    package = Path(config.__file__).parent
    uses = {path.name: found for path in sorted(package.glob("*.py"))
            if (found := _numpy_random_uses(ast.parse(path.read_text())))}
    assert uses == {}
