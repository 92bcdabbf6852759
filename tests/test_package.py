"""The package's public surface: every exported name exists, every public
class has a docstring, no module imports a name it does not use, and
importing the CLI, or a run that makes no request, leaves the stdlib modules
only some runs need unimported."""

import ast
import importlib
import importlib.util
from pathlib import Path

import dossier

from conftest import run_probe

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


def test_every_public_class_has_a_docstring():
    """``dataclasses`` gives a class without a docstring its signature as
    one, which tells a ``help()`` reader nothing the fields do not."""
    undocumented = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module_name = ".".join(("dossier", *path.relative_to(PACKAGE).with_suffix("").parts))
        module = importlib.import_module(module_name.removesuffix(".__init__"))
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                doc = value.__doc__ or ""
                if not name.startswith("_") and (not doc or doc.startswith(f"{name}(")):
                    undocumented.append(f"{module.__name__}.{name}")
    assert undocumented == []


def test_cli_import_leaves_modules_few_runs_need_unimported():
    """``logging`` serves one warning, ``argparse`` the command line, ``csv``
    one report format, ``datetime`` an unpinned timestamp, ``tempfile`` (with
    ``random`` and ``shutil``) a report written to a file,
    ``importlib.resources`` the bundled corpus, ``urllib.error`` (with
    ``urllib.response``) and OpenSSL (``_hashlib``, ``ssl``) only HTTP
    collectors, and the IDNA codec (``encodings.idna``, ``stringprep``)
    only a non-ASCII host; a warm process that answers queries through the library
    needs none of them.  Modules the interpreter's own start-up imports are
    not the package's doing, so only what ``import dossier.cli`` adds is
    checked, in an interpreter started with ``-S``: a ``.pth`` file that
    ``site`` runs may import some of these modules first and hide them."""
    unwanted = {
        "logging", "argparse", "csv", "datetime", "_hashlib", "ssl", "tempfile", "random",
        "shutil", "urllib.error", "urllib.response", "importlib.resources", "encodings.idna",
        "stringprep",
    }
    probe = (
        "import sys; before = set(sys.modules); import dossier.cli; "
        f"print(sorted(set({sorted(unwanted)!r}) & (sys.modules.keys() - before)))"
    )
    assert run_probe(probe, flags=["-S"]) == "[]"


RUN_PROBE = """
import sys
before = set(sys.modules)
from dossier.cli import main
code = main(["run", "--input", "Harry Styles", "--corpus", "builtin", "--out", sys.argv[1]])
print(code, sorted(set(sys.argv[2:]) & (sys.modules.keys() - before)))
"""


def test_a_corpus_only_run_loads_neither_openssl_nor_an_http_library(tmp_path):
    """A whole ``dossier run`` on the bundled corpus makes no request, and
    its content ids come from CPython's built-in SHA-256.  A build without
    that falls back to ``hashlib``, which loads OpenSSL; there only the
    modules an HTTP request needs are checked.  No host in the run is
    non-ASCII, so the IDNA codec stays unloaded too."""
    unwanted = ["ssl", "_ssl", "http.client", "urllib.request", "encodings.idna", "stringprep"]
    if importlib.util.find_spec("_sha2") or importlib.util.find_spec("_sha256"):
        unwanted += ["hashlib", "_hashlib"]
    assert run_probe(RUN_PROBE, str(tmp_path / "r.md"), *unwanted) == "0 []"


def test_a_query_with_whitespace_is_never_tried_as_a_domain_through_the_idna_codec():
    """No domain has whitespace, so the non-ASCII name ``Zoë Brook`` is
    classified without loading the codec."""
    probe = (
        "import sys; from dossier.inputs import classify_input; before = set(sys.modules); "
        "kind = classify_input('Zoë Brook').kind.value; "
        "print(kind, sorted({'encodings.idna', 'stringprep'} & (sys.modules.keys() - before)))"
    )
    assert run_probe(probe) == "name []"


FALLBACK_PROBE = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import hashlib
from dossier import inputs
from dossier.aggregate import EvidenceRecord
from dossier.collect.corpus import _batch_locator
record = EvidenceRecord("full_name", "Harry Styles", "pipl", 0.9, "pipl/1")
print(inputs.sha256 is hashlib.sha256, record.record_id, _batch_locator("pipl", "s-00001"))
"""


def test_content_ids_fall_back_to_hashlib_with_equal_digests():
    """Without the built-in hash modules the ids come from ``hashlib`` and
    are the ids of the default path."""
    from dossier.aggregate import EvidenceRecord
    from dossier.collect.corpus import _batch_locator

    record = EvidenceRecord("full_name", "Harry Styles", "pipl", 0.9, "pipl/1")
    expected = f"True {record.record_id} {_batch_locator('pipl', 's-00001')}"
    assert run_probe(FALLBACK_PROBE) == expected
