"""Numeric constants: each one in config.py is read by the package."""

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
    assert "THREADS_ENV_VAR" in constants and "ORTHOGONALITY_RTOL" in constants
    read = set()
    for path in package.glob("*.py"):
        read |= _loads(ast.parse(path.read_text()))
    assert sorted(constants - read) == []
