"""The package's public surface: every exported name exists, no module
imports a name it does not use, and importing the CLI leaves the stdlib
modules only some runs need unimported."""

import ast
import os
import subprocess
import sys
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


def test_cli_import_leaves_modules_few_runs_need_unimported():
    """``logging`` serves one warning, ``argparse`` the command line, ``csv``
    one report format and ``datetime`` an unpinned timestamp; a warm process
    that answers queries through the library needs none of them.  Modules
    the interpreter's own start-up imports are not the package's doing, so
    only what ``import dossier.cli`` adds is checked."""
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys; before = set(sys.modules); import dossier.cli; "
        "print(sorted({'logging', 'argparse', 'csv', 'datetime'} & (sys.modules.keys() - before)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
