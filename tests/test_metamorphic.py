"""Metamorphic properties of whole runs over generated corpora.

Two changes to a corpus must never change a report byte: writing its lines
in another order, and adding a subject that shares no identifier, name token
or host with the query.  The corpora are small, but they are drawn to hold
the cases the matchers must tell apart: two subjects sharing one identifier,
names at Jaccard exactly 0.5, one phone number in national and E.164 form,
prefixed handles, and subdomain and look-alike hosts (``ample.com`` is a
string suffix of ``example.com`` but no label suffix).
"""

import json
import tempfile
from pathlib import Path
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dossier import cli
from dossier.cli import EXIT_OK, PipelineConfig, run_pipeline
from dossier.collect.corpus import load_corpus
from dossier.inputs import canonical_identifier, classify_input
from dossier.similarity import name_tokens
from dossier.vocab import NAME_ATTRIBUTES

FIRST = ["Ann", "Bob", "Cy", "Dee"]
MIDDLE = ["Kay", "May"]
LAST = ["Lee", "Roy", "Ng"]
HOSTS = ["example.com", "mail.example.com", "ample.com", "sample.com", "le.com", "example.org"]
USERS = ["ann", "bob", "info", "a.b"]
NUMBERS = ["9876543210", "9123456789", "9988776655"]
HANDLES = ["twitter:Jack", "jack", "@jill", "twitter:jill", "jo"]
COLLECTORS = ["maltego", "pipl", "rapportive", "social_bearing", "vivial", "webmii", "bmobile"]
PINNED = "2020-01-01T00:00:00+00:00"


@st.composite
def phones(draw):
    """One number in national form (read in IN) or in E.164 form."""
    number = draw(st.sampled_from(NUMBERS))
    return draw(st.sampled_from([f"0{number[:5]} {number[5:]}", f"+910{number}"]))


@st.composite
def subjects(draw):
    """(attribute, value) facts of one subject."""
    first, middle, last = (draw(st.sampled_from(pool)) for pool in (FIRST, MIDDLE, LAST))
    facts = [("full_name", f"{first} {middle} {last}")]
    optional = {
        "alias": st.sampled_from(FIRST + LAST),
        "email": st.builds("{}@{}".format, st.sampled_from(USERS), st.sampled_from(HOSTS)),
        "phone": phones(),
        "social_handle_twitter": st.sampled_from(HANDLES),
        "url": st.builds("https://{}/p".format, st.sampled_from(HOSTS)),
    }
    for attribute, values in optional.items():
        if draw(st.booleans()):
            facts.append((attribute, draw(values)))
    return facts


@st.composite
def corpora(draw):
    """Up to 27 drawn subjects, plus a pair at name Jaccard 0.5 that share one identifier."""
    people = draw(st.lists(subjects(), max_size=27))
    first, other = draw(st.lists(st.sampled_from(FIRST), min_size=2, max_size=2, unique=True))
    middle, last = draw(st.sampled_from(MIDDLE)), draw(st.sampled_from(LAST))
    shared = draw(st.sampled_from(["email", "phone"]))
    value = draw(st.builds("{}@{}".format, st.sampled_from(USERS), st.sampled_from(HOSTS)))
    if shared == "phone":
        value = draw(phones())
    people += [
        [("full_name", f"{first} {middle} {last}"), (shared, value)],
        [("full_name", f"{other} {middle} {last}"), (shared, value)],
    ]
    return draw(st.permutations(people))


def lines_of(subject_id, facts, draw):
    return [
        json.dumps(
            {
                "subject_id": subject_id,
                "attribute": attribute,
                "value": value,
                "platforms": draw(st.lists(st.sampled_from(COLLECTORS), min_size=1, unique=True)),
                "confidence": draw(st.sampled_from([0.5, 0.9, 1.0])),
            }
        )
        for attribute, value in facts
    ]


def queries(draw):
    """One query text for each kind, as (kind, text)."""
    name = " ".join(draw(st.sampled_from(pool)) for pool in (FIRST, MIDDLE, LAST))
    return [
        ("email", draw(st.builds("{}@{}".format, st.sampled_from(USERS), st.sampled_from(HOSTS)))),
        ("phone", draw(phones())),
        ("twitter", draw(st.sampled_from(HANDLES))),
        ("domain", draw(st.sampled_from(HOSTS))),
        ("name", name),
        ("keyword", draw(st.sampled_from(FIRST + LAST + ["@ann", "kay"]))),
    ]


def host_of(attribute, value):
    if attribute == "email":
        return value.rpartition("@")[2].lower()
    if attribute == "url":
        return urlsplit(value).hostname
    return None


def shares_anything(facts, query) -> bool:
    """Whether any fact shares an identifier, a name token or a host with *query*."""
    tokens = name_tokens(query.canonical)
    for attribute, value in facts:
        host = host_of(attribute, value) or ""
        if (
            canonical_identifier(attribute, value, query.region) == query.canonical
            or (attribute in NAME_ATTRIBUTES and name_tokens(value) & tokens)
            or f".{host}".endswith(f".{query.canonical}")
        ):
            return True
    return False


def reports(lines, tmp, queries_by_kind, monkeypatch) -> dict:
    """Every query's report in md, json and csv, from a corpus of *lines*."""
    path = Path(tmp) / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    corpus = load_corpus(path)
    monkeypatch.setattr(cli, "load_corpus", lambda _: corpus)
    out = Path(tmp) / "report"
    rendered = {}
    for kind, text in queries_by_kind:
        for fmt in ("md", "json", "csv"):
            config = PipelineConfig(
                input_text=text,
                kind=kind,
                corpus_path=str(path),
                out_path=str(out),
                fmt=fmt,
                pin_timestamp=PINNED,
            )
            assert run_pipeline(config) == EXIT_OK
            rendered[kind, fmt] = out.read_bytes()
    return rendered


@given(corpora(), subjects(), st.data())
@settings(max_examples=25, deadline=None)
def test_reports_ignore_line_order_and_unrelated_subjects(people, stranger, data):
    lines = [
        line
        for index, facts in enumerate(people)
        for line in lines_of(f"s-{index:02d}", facts, data.draw)
    ]
    shuffled = data.draw(st.permutations(lines), label="shuffled")
    added = lines + lines_of("s-new", stranger, data.draw)
    asked = queries(data.draw)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as monkeypatch:
        base = reports(lines, tmp, asked, monkeypatch)
        assert reports(shuffled, tmp, asked, monkeypatch) == base
        with_stranger = reports(added, tmp, asked, monkeypatch)
    for kind, text in asked:
        if not shares_anything(stranger, classify_input(text, *cli.KIND_CHOICES[kind])):
            for fmt in ("md", "json", "csv"):
                assert with_stranger[kind, fmt] == base[kind, fmt], (kind, text, fmt)
