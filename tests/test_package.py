"""The package's public surface: every exported name exists, and no module
imports a name it does not use."""

import ast
from pathlib import Path

import dossier

PACKAGE = Path(dossier.__file__).parent


def test_every_exported_name_resolves():
    missing = [name for name in dossier.__all__ if not hasattr(dossier, name)]
    assert missing == []
    assert len(set(dossier.__all__)) == len(dossier.__all__)


def test_no_module_imports_an_unused_name():
    """A stand-in for a linter's unused-import rule; a package ``__init__.py``
    imports in order to re-export, so it is exempt."""
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    imported[bound] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        rel = path.relative_to(PACKAGE)
        unused += [f"{rel}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []
