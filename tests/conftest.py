from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Optional, Sequence

import pytest
from hypothesis import settings

import dossier
from dossier import EvidenceRecord, Registry, builtin_matrix
from dossier.collect import executor

# A longer search for one property at a time, selected with
# `--hypothesis-profile=thorough`; the default profile is unchanged.
settings.register_profile("thorough", max_examples=2000)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print the acceptance-gate verdict lines after the test run.

    The acceptance tests record one PASS/FAIL line per guarantee; emitting
    them here (outside capture) keeps them visible in plain pytest output.
    """
    module = sys.modules.get("test_acceptance")
    verdicts = getattr(module, "VERDICTS", None)
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for line in verdicts:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def fresh_timeout_history(monkeypatch):
    """Each test starts with no collector timeouts seen, so no test's HTTP
    start order depends on which tests ran before it."""
    monkeypatch.setattr(executor, "_timeouts", Counter())


@pytest.fixture()
def registry() -> Registry:
    return builtin_matrix()


def make_record(
    attribute: str = "full_name",
    value: str = "john smith",
    source: str = "webmii",
    confidence: float = 0.9,
    provenance: str = "webmii/batch-0",
) -> EvidenceRecord:
    return EvidenceRecord(
        attribute=attribute,
        value=value,
        source=source,
        confidence=confidence,
        provenance=provenance,
    )


# Query templates an HTTP collector refuses at load: an unknown, empty, attribute or
# index field, a conversion, a format spec, or a lone brace.
BAD_QUERY_TEMPLATES = [
    "?q={valu}",
    "?q={}",
    "?q={value.upper}",
    "?q={value[0]}",
    "?q={value!r}",
    "?q={value:>9}",
    "?q={kind:{value}}",
    "?q={",
    "?q=}",
]

# An HTTP collector's base and query template must be ASCII: http.client
# refuses any other request line.
NON_ASCII_HTTP_FIELDS = [
    ("base", "http://bücher.example"),
    ("query_template", "/café/{value}"),
]


def run_probe(
    probe: str, *args: str, flags: Sequence[str] = (), env: Optional[dict] = None
) -> str:
    """The last line *probe* prints, run in a fresh interpreter, started with
    the interpreter options *flags* and the environment variables *env* set,
    on this package: the test process has imported the modules in question
    already."""
    src = str(Path(dossier.__file__).parent.parent)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        **(env or {}),
    )
    result = subprocess.run(
        [sys.executable, *flags, "-c", probe, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()[-1]


def closed_port() -> int:
    """A loopback port that nothing listens on (bound once, then released)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def write_jsonl(path, rows) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    return str(path)


def fact(subject_id, attribute, value, platforms, confidence=0.9) -> dict:
    return {
        "subject_id": subject_id,
        "attribute": attribute,
        "value": value,
        "platforms": list(platforms),
        "confidence": confidence,
    }


# Two subjects literally sharing the name "John Smith".  Each name fact is
# visible to a different collector (alpha's to webmii, beta's to maltego):
# evidence records are content-addressed by (attribute, value, source), so
# the same name reported by the same collector for two different people
# would collapse into a single record that can only land in one cluster.
# With disjoint platforms both clusters keep their own name record and score
# identical name similarity, leaving visibility to break the tie.  Both
# subjects carry a distinct email address that is visible to every collector
# the name route fans out to (webmii, maltego), so each subject resolves to
# exactly one hard-identified cluster and the two clusters can never merge.
# "beta" has strictly more facts, hence strictly higher visibility; the
# symmetric variant mirrors alpha's per-source record counts exactly (three
# from webmii, two from maltego), forcing an exact score tie whatever the
# source reliabilities are.
EMAIL_PLATFORMS = [
    "maltego",
    "pipl",
    "rapportive",
    "searchbug",
    "verify_email",
    "whatbreach",
    "webmii",
]


def john_smith_rows(symmetric: bool = False) -> list[dict]:
    rows = [
        fact("js-alpha", "full_name", "John Smith", ["webmii"]),
        fact("js-alpha", "email", "john.smith@alpha.example", EMAIL_PLATFORMS),
        fact("js-alpha", "location", "Denver, Colorado", ["maltego"]),
        fact("js-alpha", "job_title", "plumber", ["webmii"]),
        fact("js-beta", "full_name", "John Smith", ["maltego"]),
        fact("js-beta", "email", "john.smith@beta.example", EMAIL_PLATFORMS),
    ]
    if symmetric:
        rows.extend(
            [
                fact("js-beta", "location", "Boston, Massachusetts", ["webmii"]),
                fact("js-beta", "job_title", "architect", ["webmii"]),
            ]
        )
    else:
        rows.extend(
            [
                fact("js-beta", "location", "Boston, Massachusetts", ["maltego"]),
                fact("js-beta", "job_title", "architect", ["webmii", "maltego"]),
                fact("js-beta", "employer", "Beta Designs LLC", ["webmii", "maltego"]),
                fact("js-beta", "education", "MIT", ["webmii"]),
                fact("js-beta", "url", "https://johnsmith.example", ["webmii", "maltego"]),
                fact("js-beta", "interest", "sailing", ["webmii"]),
            ]
        )
    return rows


@pytest.fixture()
def john_smith_corpus(tmp_path):
    path = tmp_path / "john_smith.jsonl"
    write_jsonl(path, john_smith_rows())
    return path


@pytest.fixture()
def john_smith_symmetric_corpus(tmp_path):
    path = tmp_path / "john_smith_symmetric.jsonl"
    write_jsonl(path, john_smith_rows(symmetric=True))
    return path
