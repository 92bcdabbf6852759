"""The package's public surface: every exported name exists."""

import dossier


def test_every_exported_name_resolves():
    missing = [name for name in dossier.__all__ if not hasattr(dossier, name)]
    assert missing == []
    assert len(set(dossier.__all__)) == len(dossier.__all__)
