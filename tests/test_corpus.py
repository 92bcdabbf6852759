import binascii
import errno
import gc
import json
import marshal
import math
import os
import random
import re
import shutil
import sys
import threading
import time
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import dossier.collect.corpus as corpus_module
from dossier.aggregate import normalize_records
from dossier.collect.corpus import (
    Corpus,
    CorpusError,
    CorpusFact,
    CorpusIOError,
    CorpusParseError,
    UnknownAttributeError,
    bundled_corpus_path,
    corpus_collect,
    load_corpus,
)
from dossier.collect.records import CollectorOutcome, OutcomeStatus, RawRecord
from dossier.errors import DossierError
from dossier.inputs import InputKind, Platform, canonical_identifier, classify_input
from dossier.routing import builtin_matrix
from dossier.vocab import ATTRIBUTE_KEYS

from conftest import fact, write_jsonl
from oracles import oracle_corpus_collect, oracle_host, oracle_load_corpus


def small_rows():
    return [
        fact("s-b", "full_name", "Brianna Okafor", ["webmii", "maltego"]),
        fact("s-b", "email", "briannao@mail.example", ["maltego"], 0.8),
        fact("s-a", "full_name", "Aldo Reyes", ["webmii"]),
        fact("s-a", "url", "https://corp.example/team/aldo", ["maltego", "vivial"]),
        fact("s-a", "email", "aldo@corp.example", ["maltego", "rapportive"]),
    ]


# Ways to spoil one valid fact, each a CorpusParseError.  The last three
# put entries in `platforms` that are no name, two of them unhashable.
MUTATIONS = [
    lambda r: r.pop("confidence"),
    lambda r: r.update(extra="x"),
    lambda r: r.update(subject_id=""),
    lambda r: r.update(subject_id=7),
    lambda r: r.update(attribute=3),
    lambda r: r.update(value=1.78),
    lambda r: r.update(platforms=[]),
    lambda r: r.update(platforms="webmii"),
    lambda r: r.update(platforms=["webmii", ""]),
    lambda r: r.update(confidence="high"),
    lambda r: r.update(confidence=True),
    lambda r: r.update(confidence=1.2),
    lambda r: r.update(confidence=-0.1),
    lambda r: r.update(platforms=[["x"]]),
    lambda r: r.update(platforms=[{}]),
    lambda r: r.update(platforms=[1]),
]


class TestLoading:
    def test_grouping_and_ordering(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", small_rows())
        corpus = load_corpus(path)
        assert corpus.subjects == ("s-a", "s-b")
        assert len(corpus) == 5
        attrs = [f.attribute for f in corpus.facts_for("s-a")]
        assert attrs == sorted(attrs)
        assert corpus.facts_for("missing") == ()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rows = small_rows()
        path.write_text(
            json.dumps(rows[0]) + "\n\n   \n" + json.dumps(rows[1]) + "\n"
        )
        assert len(load_corpus(path)) == 2

    def test_line_order_never_matters(self, tmp_path):
        rows = small_rows()
        baseline = load_corpus(write_jsonl(tmp_path / "a.jsonl", rows))
        random.Random(7).shuffle(rows)
        shuffled = load_corpus(write_jsonl(tmp_path / "b.jsonl", rows))
        assert baseline.subjects == shuffled.subjects
        for subject in baseline.subjects:
            assert baseline.facts_for(subject) == shuffled.facts_for(subject)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusIOError):
            load_corpus(tmp_path / "absent.jsonl")

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(small_rows()[0]) + "\n{broken\n")
        with pytest.raises(CorpusParseError) as exc_info:
            load_corpus(path)
        assert exc_info.value.line_number == 2
        assert "line 2" in str(exc_info.value)

    def test_unknown_attribute_rejected(self, tmp_path):
        row = fact("s", "shoe_size", "44", ["webmii"])
        path = write_jsonl(tmp_path / "c.jsonl", [row])
        with pytest.raises(UnknownAttributeError) as exc_info:
            load_corpus(path)
        assert exc_info.value.key == "shoe_size"
        assert exc_info.value.line_number == 1

    @pytest.mark.parametrize("mutate", MUTATIONS)
    def test_malformed_facts_rejected(self, tmp_path, mutate):
        row = fact("s", "full_name", "Some One", ["webmii"])
        mutate(row)
        path = write_jsonl(tmp_path / "c.jsonl", [row])
        with pytest.raises(CorpusParseError):
            load_corpus(path)

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('["a", "list"]\n')
        with pytest.raises(CorpusParseError):
            load_corpus(path)

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
    def test_a_line_separator_inside_a_value_is_part_of_the_value(self, tmp_path, separator):
        # JSON allows these raw inside a string, and json.dumps writes them
        # raw with ensure_ascii=False; only "\n" or "\r\n" ends a line.
        rows = [fact("s", "full_name", f"Ann{separator}Lee", ["webmii"]), small_rows()[0]]
        path = tmp_path / "c.jsonl"
        path.write_text(
            "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows), encoding="utf-8"
        )
        corpus = load_corpus(path)
        assert [f.value for f in corpus.facts_for("s")] == [f"Ann{separator}Lee"]
        assert len(corpus) == 2

    def test_crlf_file_loads_like_its_lf_twin(self, tmp_path):
        lines = [json.dumps(row) for row in small_rows()]
        lf = tmp_path / "lf.jsonl"
        crlf = tmp_path / "crlf.jsonl"
        lf.write_bytes(("\n".join(lines) + "\n").encode())
        crlf.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        expected, loaded = load_corpus(lf), load_corpus(crlf)
        assert expected.subjects == loaded.subjects
        for subject in expected.subjects:
            assert expected.facts_for(subject) == loaded.facts_for(subject)

        broken = lines[:2] + ["", '{"subject_id": "s'] + lines[2:]
        lf.write_bytes(("\n".join(broken) + "\n").encode())
        crlf.write_bytes(("\r\n".join(broken) + "\r\n").encode())
        errors = []
        for path in (lf, crlf):
            with pytest.raises(CorpusParseError) as exc_info:
                load_corpus(path)
            errors.append((exc_info.value.line_number, str(exc_info.value)))
        message = "line 4: not valid JSON (Unterminated string starting at)"
        assert errors[0] == errors[1] == (4, message)

    def test_line_nested_past_the_recursion_limit_is_a_parse_error(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(small_rows()[0]) + "\n" + "[" * 100_000 + "\n")
        for loader in (load_corpus, oracle_load_corpus):
            with pytest.raises(CorpusParseError) as exc_info:
                loader(path)
            assert str(exc_info.value) == "line 2: not valid JSON (nested too deeply)"

    def test_non_utf8_corpus_is_a_corpus_error(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(json.dumps(small_rows()[0]).encode() + b"\n\xff\n")
        with pytest.raises(CorpusIOError, match="not UTF-8"):
            load_corpus(path)

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda r: r.update(subject_id="s-\ud800"),
            lambda r: r.update(value="Ann \ud800Smith"),
            lambda r: r.update(platforms=["webmii", "x\udfff"]),
        ],
        ids=["subject_id", "value", "platforms"],
    )
    def test_a_lone_surrogate_is_a_parse_error(self, tmp_path, spoil):
        # json.dumps writes the surrogate as the escape \ud800 or \udfff,
        # which decodes to a string no report can encode as UTF-8.
        row = fact("s-1", "full_name", "Ann Smith", ["webmii"])
        spoil(row)
        path = write_jsonl(tmp_path / "c.jsonl", [small_rows()[0], row])
        for loader in (load_corpus, oracle_load_corpus):
            with pytest.raises(CorpusParseError) as exc_info:
                loader(path)
            message = "line 2: a string is not UTF-8 text (it holds a lone surrogate)"
            assert str(exc_info.value) == message

    def test_an_escaped_surrogate_pair_is_one_character(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(fact("s-1", "full_name", "Ann \U0001F600", ["webmii"])) + "\n")
        assert "\\ud83d\\ude00" in path.read_text()
        assert [f.value for f in load_corpus(path).facts_for("s-1")] == ["Ann \U0001F600"]

    def test_repeated_values_are_shared(self, tmp_path):
        rows = small_rows() + [
            fact("s-b", "alias", "Bri", ["webmii", "maltego"]),
            fact("s-a", "alias", "Al", ["webmii"], 0.8),
            fact("s-a", "job_title", "clerk", ["webmii"], -0.0),
            fact("s-b", "job_title", "clerk", ["webmii"], 0.0),
        ]
        corpus = load_corpus(write_jsonl(tmp_path / "c.jsonl", rows))
        facts = [f for subject in corpus.subjects for f in corpus.facts_for(subject)]
        shared = {}
        for corpus_fact in facts:
            for name in ("platforms", "attribute", "subject_id", "confidence"):
                value = getattr(corpus_fact, name)
                if name != "confidence" or value:
                    shared.setdefault((name, value), set()).add(id(value))
        assert all(len(ids) == 1 for ids in shared.values())
        # platform lists, attributes, subjects, non-zero confidences
        assert len(shared) == 5 + 5 + 2 + 2
        assert not hasattr(facts[0], "__dict__")
        # -0.0 == 0.0, but neither zero takes the other's sign.
        signs = {f.subject_id: math.copysign(1.0, f.confidence) for f in facts if not f.confidence}
        assert signs == {"s-a": -1.0, "s-b": 1.0}


@pytest.mark.parametrize("build", ["load_corpus", "Corpus(facts)"])
def test_no_row_is_tracked_by_the_garbage_collector(tmp_path, build):
    """A corpus keeps no tuple per fact: each subject's facts are one flat
    tuple of strings and numbers, four fields per fact, so the first
    collection that sees it stops tracking it."""
    path = write_jsonl(tmp_path / "c.jsonl", small_rows())
    corpus = load_corpus(path)
    if build == "Corpus(facts)":
        corpus = Corpus([f for subject in corpus.subjects for f in corpus.facts_for(subject)])
    groups = list(corpus._by_subject.values())
    assert all(type(group) is tuple for group in groups)
    assert {type(field) for group in groups for field in group} == {str, float, int}
    assert sum(map(len, groups)) == 4 * 5
    gc.collect()
    assert not any(gc.is_tracked(group) for group in groups)


# Bytes a loaded corpus holds per fact on the 6,000 facts below, strings
# included: 113.9 was measured (Python 3.11) with each subject's facts in one
# flat tuple, and the bound adds 10%.  A tuple per fact holds ~160.
MAX_CORPUS_BYTES_PER_FACT = 125


def test_a_loaded_corpus_holds_few_bytes_per_fact(tmp_path):
    attributes = ["full_name", "email", "phone", "alias", "location", "job_title"]
    path = tmp_path / "c.jsonl"
    path.write_text(
        "".join(
            json.dumps(fact(f"s{i:05d}", attribute, f"{attribute[:2]}{i}", ["c"]), sort_keys=True)
            + "\n"
            for i in range(1000)
            for attribute in attributes
        )
    )
    tracemalloc.start()
    try:
        corpus = load_corpus(path)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(corpus) == 6000
    assert held / len(corpus) <= MAX_CORPUS_BYTES_PER_FACT


# Corpus files for the loader oracle: valid facts that repeat platform lists
# and subject ids, with spaces or tabs around a fact, blank lines, "\n" or
# "\r\n" line ends, and at most one malformed line (or one bad platforms
# list on two lines).  Facts are written by json.dumps with sorted keys (as
# perfbench/gen.py writes them), in the README's key order and in a compact
# layout, with ensure_ascii on and off; strings hold quotes, backslashes,
# control characters, line separators and non-ASCII text.  A confidence is
# written as json.dumps writes it or by hand: an exponent, the integer -0,
# "-0.0".
_PLAIN = st.sampled_from("ab -.@é")
_ANY = st.sampled_from('"\\\x00\n\x1f\x7f\x85\u2028\u2029漢😀') | st.characters(
    exclude_categories=("Cs",)
)
_SUBJECTS = st.sampled_from(["s-1", "s-2", "s-3"]) | st.text(_PLAIN | _ANY, min_size=1, max_size=4)
_VALUES = (
    st.sampled_from(["", "Ann Lee", "Zoë"])
    | st.text(_PLAIN, max_size=6)
    | st.text(_PLAIN | _ANY, max_size=6)
)
_NAMES = st.sampled_from(["maltego", "webmii", "pipl", 'we"b', "a\\b", "x]", "é", "\u2028"])
_PLATFORMS = st.sampled_from([["webmii"], ["maltego", "pipl"]]) | st.lists(
    _NAMES, min_size=1, max_size=3
)
# Half the layouts sort the keys, as perfbench/gen.py does.
_LAYOUTS = st.sampled_from(
    [{"ensure_ascii": ascii_only, "sort_keys": True} for ascii_only in (True, False)]
) | st.sampled_from(
    [{"ensure_ascii": ascii_only} for ascii_only in (True, False)] + [{"separators": (",", ":")}]
)
# Stands in for the confidence in json.dumps's output until its text is put in.
_PLACEHOLDER = 0.123456789
_VALID_CONFIDENCES = (
    st.integers(0, 1) | st.floats(0, 1) | st.sampled_from([0.5, 0.95, -0.0, 0.0])
).map(json.dumps) | st.sampled_from(["1e0", "5E-1", "2.5e-1", "-0", "-0.0", "-0e3", "1.0e-400"])
# Each a CorpusParseError: too large for a float, past int's digit limit,
# Unicode digits (float() reads them, JSON does not), infinite, and runs of
# number characters that JSON's number grammar refuses.
_GRAMMAR_OUTLAWS = ["01", ".5", "5.", "+0.5", "1e5e5", "1E", "-", "0.5e", "1e+", "0.5-"]
_BAD_CONFIDENCES = st.sampled_from(
    ["1" + "0" * 400, "1" + "0" * 5000, "\u0660.5", "0.\u0665", "1e400", *_GRAMMAR_OUTLAWS]
)


@st.composite
def _fact_lines(draw, platforms, layouts, confidences=_VALID_CONFIDENCES):
    row = fact(
        draw(_SUBJECTS),
        draw(st.sampled_from(sorted(ATTRIBUTE_KEYS))),
        draw(_VALUES),
        draw(platforms),
        _PLACEHOLDER,
    )
    line = json.dumps(row, **draw(layouts))
    return line.replace(json.dumps(_PLACEHOLDER), draw(confidences))


_padding = st.sampled_from(["", " ", "\t", " \t "])


def _mutated(mutate, line):
    row = json.loads(line)
    mutate(row)
    return json.dumps(row)


def _malformed_lines(platforms, layouts):
    """One malformed line, or one bad platforms list on two lines (so a list
    that was never validated cannot be taken on trust the second time)."""
    valid = _fact_lines(platforms, layouts)
    line = st.one_of(
        st.builds(_mutated, st.sampled_from(MUTATIONS), valid),
        st.sampled_from(
            [
                "{broken",
                '{"subject_id": "s',
                '["a", "list"]',
                "null",
                json.dumps(fact("s", "shoe_size", "44", ["webmii"])),
                json.dumps(fact("s", "full_name", "x", ["webmii"])) + " {",
            ]
        ),
        _fact_lines(platforms, layouts, _BAD_CONFIDENCES),
        valid.map(lambda line: line + "x"),
        valid.map(lambda line: "\ufeff" + line),
    )
    bad_platforms = st.sampled_from([[], [""], ["webmii", ""], [1], [["x"]]])
    pair = bad_platforms.flatmap(
        lambda bad: st.lists(_fact_lines(st.just(bad), layouts), min_size=2, max_size=2)
    )
    return line.map(lambda line: [line]) | pair


@st.composite
def _corpus_files(draw):
    # A few platform lists and layouts per file, so that lines repeat them
    # and reach the platform_lists memo.
    platforms = st.sampled_from(draw(st.lists(_PLATFORMS, min_size=1, max_size=3)))
    layouts = st.sampled_from(draw(st.lists(_LAYOUTS, min_size=1, max_size=2)))
    valid = _fact_lines(platforms, layouts)
    padded = st.builds("{}{}{}".format, _padding, valid, _padding)
    lines = draw(st.lists(valid | padded | st.sampled_from(["", "   ", "\t"]), max_size=12))
    malformed = []
    if draw(st.sampled_from([False, False, True])):
        malformed = draw(_malformed_lines(platforms, layouts))
    for line in malformed:
        lines.insert(draw(st.integers(0, len(lines))), line)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    final = draw(st.sampled_from(["", newline]))
    return (newline.join(lines) + final if lines else "").encode("utf-8")


def _loaded(loader, path):
    try:
        corpus = loader(path)
    except CorpusError as exc:
        return type(exc), exc.line_number, str(exc)
    # The sign of each confidence too, since -0.0 == 0.0.
    return [
        (subject, [(f, math.copysign(1.0, f.confidence)) for f in corpus.facts_for(subject)])
        for subject in corpus.subjects
    ]


def _lines(*confidences, value="x", platforms=("webmii",)):
    """A corpus of one fact per confidence text, otherwise alike, with sorted
    keys."""
    line = json.dumps(fact("s-1", "alias", value, platforms, _PLACEHOLDER), sort_keys=True)
    placeholder = json.dumps(_PLACEHOLDER)
    return "\n".join(line.replace(placeholder, c) for c in confidences).encode("utf-8")


def _retyped_platforms(platforms):
    """Two facts whose platforms list is ["w"], the second's retyped to
    *platforms*."""
    rows = [fact("s", "alias", "a", ["w"]), {**fact("s", "alias", "b", []), "platforms": platforms}]
    return "".join(json.dumps(row) + "\n" for row in rows).encode("utf-8")


@given(_corpus_files())
@example(_lines("-0.0", "0.0", "-0.0"))
# Spellings only JSON's own reading gets right, each after a line with the
# same platforms list: the integer -0 (JSON gives +0.0), a Unicode digit
# (float() reads it, JSON does not), an escaped string; and an empty
# platforms list, on two lines.
@example(_lines("0.5", "-0"))
@example(_lines("0.5", "0.\u0665"))
@example(_lines("0.5", "0.5", value="a\\b"))
@example(_lines("0.5", "0.5", platforms=()))
# An object (its keys) and a string (its characters) that a tuple turns into
# the list seen before, which only a list may look up in the memo.
@example(_retyped_platforms({"w": 1}))
@example(_retyped_platforms("w"))
def test_streaming_load_equals_the_line_by_line_oracle(tmp_path_factory, data):
    """load_corpus builds the oracle's subjects and facts, or raises the same
    error class with the same line number and message."""
    path = tmp_path_factory.getbasetemp() / "oracle-corpus.jsonl"
    path.write_bytes(data)
    assert _loaded(load_corpus, path) == _loaded(oracle_load_corpus, path)


@pytest.mark.parametrize("text", _GRAMMAR_OUTLAWS)
def test_a_confidence_outside_the_json_grammar_is_a_parse_error(tmp_path, text):
    """A confidence text that float() may read but JSON refuses fails as
    json.loads fails."""
    path = tmp_path / "c.jsonl"
    path.write_bytes(_lines("0.5", text))
    with pytest.raises(CorpusParseError, match="^line 2: not valid JSON"):
        load_corpus(path)
    assert _loaded(load_corpus, path) == _loaded(oracle_load_corpus, path)


# -- The cache of a parsed corpus -------------------------------------------


def _cache_of(path):
    """Where load_corpus caches the corpus file *path*."""
    return path.parent / "__pycache__" / f"{path.name}.{sys.implementation.cache_tag}.corpus"


def _counting_parses():
    """A patch that counts load_corpus's parses; a load from the cache runs none."""
    return mock.patch.object(corpus_module, "_parse", wraps=corpus_module._parse)


# Each kind a query can be read as, social handles on each platform.
_READINGS = [(kind, None) for kind in InputKind if kind is not InputKind.SOCIAL_HANDLE] + [
    (InputKind.SOCIAL_HANDLE, platform) for platform in Platform
]


def _index_answers(corpus, texts):
    """corpus_collect of each text, read as each kind it can be, for each
    collector the corpus names: every index family's answers."""
    names = sorted({p for s in corpus.subjects for f in corpus.facts_for(s) for p in f.platforms})
    answers = []
    for text in texts:
        for kind, platform in _READINGS:
            try:
                query = classify_input(text, kind, platform)
            except DossierError:
                continue
            answers.append([corpus_collect(corpus, FakeCollector(n), query) for n in names])
    return answers


def _assert_shared(corpus):
    """Equal non-zero confidences are one float, and equal platform sets one
    frozenset, across every fact of *corpus*."""
    facts = [f for subject in corpus.subjects for f in corpus.facts_for(subject)]
    shared = {}
    for corpus_fact in facts:
        shared.setdefault(("platforms", corpus_fact.platforms), set()).add(
            id(corpus_fact.platforms)
        )
        if corpus_fact.confidence:
            shared.setdefault(("confidence", corpus_fact.confidence), set()).add(
                id(corpus_fact.confidence)
            )
    assert all(len(ids) == 1 for ids in shared.values())


@given(_corpus_files(), st.lists(_VALUES, max_size=2))
@example(_lines("-0.0", "0.0", "-0.0", "0.5", "5e-1", "0.50"), [])
@example(_lines("0.5", "0.5", value="a\\b"), ["a\\b"])
@example(_lines("0.5", "-0"), [])
@example(  # a subject reopened after another subject's run of lines
    "".join(
        json.dumps(fact(subject, "alias", value, ["webmii"]), sort_keys=True) + "\n"
        for subject, value in [("s-1", "b"), ("s-2", "a"), ("s-1", "a")]
    ).encode("utf-8"),
    [],
)
@example(  # CRLF line ends and blank lines
    b'\r\n{"subject_id": "s-1", "attribute": "alias", "value": "Ann Lee",'
    b' "platforms": ["webmii"], "confidence": 0.5}\r\n\r\n',
    ["Ann"],
)
def test_a_cached_load_equals_a_parsed_load(tmp_path_factory, data, texts):
    """The first load parses and writes the cache; the second reads it and
    parses nothing.  Each equals the line-by-line oracle in its subjects,
    its facts (signs of zero included), its length and every index answer,
    and shares values as a parse does.  A corpus that fails to load raises
    the oracle's error both times and is never cached."""
    path = tmp_path_factory.getbasetemp() / "cached-corpus.jsonl"
    shutil.rmtree(_cache_of(path).parent, ignore_errors=True)
    path.write_bytes(data)
    expected = _loaded(oracle_load_corpus, path)
    with _counting_parses() as parse:
        if not isinstance(expected, list):
            assert _loaded(load_corpus, path) == _loaded(load_corpus, path) == expected
            assert parse.call_count == 2
            assert not _cache_of(path).parent.exists()
            return
        parsed = load_corpus(path)
        assert parse.call_count == 1 and _cache_of(path).is_file()
        cached = load_corpus(path)
        assert parse.call_count == 1
    oracle = oracle_load_corpus(path)
    texts = texts + [f.value for subject in oracle.subjects for f in oracle.facts_for(subject)]
    answers = _index_answers(oracle, texts)
    for corpus in (parsed, cached):
        assert _loaded(lambda _: corpus, path) == expected
        assert corpus.subjects == oracle.subjects
        assert len(corpus) == len(oracle)
        assert _index_answers(corpus, texts) == answers
        _assert_shared(corpus)


def _truncated(at):
    def spoil(path, cache):
        cache.write_bytes(cache.read_bytes()[: at(cache.stat().st_size)])

    return spoil


def _flipped(offset):
    def spoil(path, cache):
        data = bytearray(cache.read_bytes())
        data[offset(len(data))] ^= 0x10
        cache.write_bytes(bytes(data))

    return spoil


def _source_edited(path, cache):
    """The same size, one character changed: only the content tells."""
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("Aldo Reyes", "Aldo Reyez"), encoding="utf-8")
    assert len(path.read_bytes()) == len(text.encode("utf-8"))


def _source_grown(path, cache):
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(fact("s-c", "alias", "Cy", ["webmii"])) + "\n")


def _payload_of(state):
    """A payload of marshal data of *state* that passes its own check, as a
    layout changed with no new magic number would write."""

    def spoil(path, cache):
        payload = marshal.dumps(state)
        header = cache.read_bytes()[:24] + binascii.crc32(payload).to_bytes(4, "little")
        cache.write_bytes(header + payload)

    return spoil


# Bytes 0-7 of a cache are its magic number, 8-11 the CRC-32 of the
# attribute vocabulary, 12-19 the source's size, 20-23 its CRC-32 and 24-27
# the payload's CRC-32.
_SPOILED_CACHES = {
    "empty": _truncated(lambda size: 0),
    "truncated in the header": _truncated(lambda size: 10),
    "truncated after the header": _truncated(lambda size: 28),
    "truncated in the payload": _truncated(lambda size: size // 2),
    "one byte short": _truncated(lambda size: size - 1),
    "one payload bit flipped": _flipped(lambda size: 28 + (size - 28) // 2),
    "foreign magic number": _flipped(lambda size: 0),
    "another attribute vocabulary": _flipped(lambda size: 8),
    "a size that is not the source's": _flipped(lambda size: 12),
    "a source CRC-32 that is not the source's": _flipped(lambda size: 20),
    "a payload CRC-32 that is not the payload's": _flipped(lambda size: 24),
    "a payload of no corpus": _payload_of(("not", "a", "corpus")),
    "a payload of rows in lists": _payload_of(
        ({"s-a": [["alias", "Al", 0.5, 0]]}, (frozenset(),))
    ),
    "a payload of three fields a fact": _payload_of(({"s-a": ("alias", "Al", 0.5)}, ())),
    "a payload of subjects in a list": _payload_of(([("s-a", ("alias", "Al", 0.5, 0))], ())),
    "a payload of platform sets in lists": _payload_of(({"s-a": ("alias", "Al", 0.5, 0)}, ([],))),
    "the source grown": _source_grown,
    "a same-size edit of the source": _source_edited,
}


@pytest.mark.parametrize("spoil", _SPOILED_CACHES.values(), ids=_SPOILED_CACHES)
def test_a_cache_that_does_not_match_falls_back_to_the_parse(tmp_path, spoil):
    """Each such cache sends the load to the parse, whose corpus equals the
    oracle's, and the parse leaves a good cache that the next load reads."""
    path = tmp_path / "c.jsonl"
    write_jsonl(path, small_rows())
    load_corpus(path)
    cache = _cache_of(path)
    spoil(path, cache)
    expected = _loaded(oracle_load_corpus, path)
    with _counting_parses() as parse:
        assert _loaded(load_corpus, path) == expected
        assert parse.call_count == 1
        assert _loaded(load_corpus, path) == expected
        assert parse.call_count == 1
    assert sorted(p.name for p in cache.parent.iterdir()) == [cache.name]


def test_a_load_from_the_cache_leaves_the_cache_as_it_was(tmp_path):
    """A hit neither parses nor rewrites: the cache keeps its inode, which
    the os.replace of a rewrite would change, its bytes and its mtime."""
    path = tmp_path / "c.jsonl"
    write_jsonl(path, small_rows())
    load_corpus(path)
    cache = _cache_of(path)
    before = cache.stat()
    stamp = cache.read_bytes()
    with _counting_parses() as parse:
        assert _loaded(load_corpus, path) == _loaded(oracle_load_corpus, path)
        assert parse.call_count == 0
    after = cache.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert cache.read_bytes() == stamp
    assert sorted(p.name for p in cache.parent.iterdir()) == [cache.name]


def test_a_corpus_read_from_its_cache_is_laid_out_as_parsed(tmp_path):
    """One flat tuple of strings and numbers per subject, which the garbage
    collector stops tracking, and no more bytes per fact than the bound a
    parsed corpus meets (see test_a_loaded_corpus_holds_few_bytes_per_fact)."""
    attributes = ["full_name", "email", "phone", "alias", "location", "job_title"]
    rows = [
        fact(f"s{i:05d}", attribute, f"{attribute[:2]}{i}", ["c"])
        for i in range(1000)
        for attribute in attributes
    ]
    path = write_jsonl(tmp_path / "c.jsonl", rows)
    load_corpus(path)
    with _counting_parses() as parse:
        tracemalloc.start()
        try:
            corpus = load_corpus(path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    assert parse.call_count == 0
    assert len(corpus) == 6000
    assert held / len(corpus) <= MAX_CORPUS_BYTES_PER_FACT
    groups = list(corpus._by_subject.values())
    assert {type(field) for group in groups for field in group} == {str, float, int}
    gc.collect()
    assert not any(gc.is_tracked(group) for group in groups)


def test_a_cache_under_another_cache_tag_is_not_read(tmp_path, monkeypatch):
    """A cache written by another interpreter has its own name, so it is
    neither read nor touched: this interpreter parses and writes its own."""
    path = tmp_path / "c.jsonl"
    write_jsonl(path, small_rows())
    monkeypatch.setattr(sys.implementation, "cache_tag", "other-99")
    load_corpus(path)
    foreign = _cache_of(path)
    stamp = foreign.read_bytes()
    monkeypatch.undo()
    expected = _loaded(oracle_load_corpus, path)
    with _counting_parses() as parse:
        assert _loaded(load_corpus, path) == expected
        assert _loaded(load_corpus, path) == expected
        assert parse.call_count == 1
    assert sorted(p.name for p in foreign.parent.iterdir()) == sorted(
        [foreign.name, _cache_of(path).name]
    )
    assert foreign.read_bytes() == stamp


def test_a_cache_made_under_another_vocabulary_is_not_read(tmp_path, monkeypatch):
    """A corpus cached while the vocabulary had an attribute it has since
    lost gets the error a parse gives, not the cached facts."""
    path = tmp_path / "c.jsonl"
    write_jsonl(path, small_rows() + [fact("s-a", "shoe_size", "44", ["webmii"])])
    monkeypatch.setitem(corpus_module._ATTRIBUTES, "shoe_size", "shoe_size")
    load_corpus(path)
    assert _cache_of(path).is_file()
    monkeypatch.undo()
    with pytest.raises(UnknownAttributeError) as raised:
        load_corpus(path)
    assert raised.value.line_number == 6
    with pytest.raises(UnknownAttributeError) as again:
        oracle_load_corpus(path)
    assert str(raised.value) == str(again.value)


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


@pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
@pytest.mark.parametrize("source_mode", [0o600, 0o640, 0o644, 0o400], ids=oct)
def test_a_cache_shows_its_facts_to_no_one_its_source_does_not(tmp_path, umask_022, source_mode):
    """The cache takes its source's read and write bits, never more."""
    path = tmp_path / "c.jsonl"
    write_jsonl(path, small_rows())
    path.chmod(source_mode)
    load_corpus(path)
    cache_mode = _cache_of(path).stat().st_mode & 0o777
    assert cache_mode & 0o077 == source_mode & 0o044
    assert cache_mode & 0o400


@pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
def test_a_cache_is_rewritten_when_its_source_is_made_private(tmp_path, umask_022):
    """A cache written while the source was readable by all is not read
    once the source is private: the load parses and writes a private one."""
    path = tmp_path / "c.jsonl"
    write_jsonl(path, small_rows())
    path.chmod(0o644)
    load_corpus(path)
    assert _cache_of(path).stat().st_mode & 0o077 == 0o044
    path.chmod(0o600)
    with _counting_parses() as parse:
        assert _loaded(load_corpus, path) == _loaded(oracle_load_corpus, path)
        assert _loaded(load_corpus, path) == _loaded(oracle_load_corpus, path)
        assert parse.call_count == 1
    assert _cache_of(path).stat().st_mode & 0o077 == 0


@pytest.mark.parametrize(
    "call, error",
    [
        ("mkdir", PermissionError(errno.EACCES, "Permission denied")),
        ("open", PermissionError(errno.EACCES, "Permission denied")),
        ("open", OSError(errno.EROFS, "Read-only file system")),
        ("replace", OSError(errno.EROFS, "Read-only file system")),
    ],
    ids=[
        "mkdir refused",
        "open refused",
        "open on a read-only mount",
        "replace on a read-only mount",
    ],
)
def test_a_cache_that_cannot_be_written_is_skipped_and_leaves_no_file(
    tmp_path, monkeypatch, call, error
):
    """As in a read-only directory: the load succeeds, parses every time,
    and leaves no temporary file, whichever step of the write is refused."""

    def refused(*args, **kwargs):
        raise error

    path = tmp_path / "c.jsonl"
    write_jsonl(path, small_rows())
    monkeypatch.setattr(corpus_module.os, call, refused)
    with _counting_parses() as parse:
        assert _loaded(load_corpus, path) == _loaded(oracle_load_corpus, path)
        assert _loaded(load_corpus, path) == _loaded(oracle_load_corpus, path)
        assert parse.call_count == 2
    monkeypatch.undo()
    left = [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()]
    assert left == ["c.jsonl"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes are POSIX")
def test_a_named_pipe_is_read_once_and_never_cached(tmp_path):
    regular = tmp_path / "regular" / "c.jsonl"
    regular.parent.mkdir()
    write_jsonl(regular, small_rows())
    pipe = tmp_path / "pipe.jsonl"
    os.mkfifo(pipe)

    def feed():  # one pass of the bytes: a second read would find none
        with open(pipe, "wb") as stream:
            stream.write(regular.read_bytes())

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        corpus = load_corpus(pipe)
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert _loaded(lambda _: corpus, regular) == _loaded(oracle_load_corpus, regular)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe.jsonl", "regular"]


@pytest.mark.parametrize(
    "text, error, line_number",
    [
        ('{"subject_id": "s-1"}\n', CorpusParseError, 1),
        ("\n" + json.dumps(fact("s", "shoe_size", "4", ["c"])) + "\n", UnknownAttributeError, 2),
        ("\xff", CorpusIOError, None),
    ],
    ids=["a fact with only a subject id", "an unknown attribute on line 2", "not UTF-8"],
)
def test_a_corpus_that_fails_to_load_keeps_its_error_and_is_never_cached(
    tmp_path, text, error, line_number
):
    """Its error and line number are those of a load with no cache, even
    when a good cache of an earlier version of the file is there."""
    path = tmp_path / "c.jsonl"
    bad = text.encode("latin-1") if error is CorpusIOError else text.encode("utf-8")
    path.write_bytes(bad)
    with pytest.raises(error) as first:
        load_corpus(path)
    assert getattr(first.value, "line_number", None) == line_number
    assert not _cache_of(path).parent.exists()
    write_jsonl(path, small_rows())
    load_corpus(path)
    good = _cache_of(path).read_bytes()
    path.write_bytes(bad)
    with pytest.raises(error) as again:
        load_corpus(path)
    assert str(again.value) == str(first.value)
    assert _cache_of(path).read_bytes() == good


def test_bundled_corpus_is_loadable_and_plausible():
    corpus = load_corpus(bundled_corpus_path())
    assert len(corpus.subjects) == 3
    assert len(corpus) >= 60
    known = set(builtin_matrix())
    for subject in corpus.subjects:
        for corpus_fact in corpus.facts_for(subject):
            assert corpus_fact.platforms <= known


class FakeCollector:
    def __init__(self, name):
        self.name = name


class TestCollection:
    @pytest.fixture()
    def corpus(self, tmp_path):
        return load_corpus(write_jsonl(tmp_path / "c.jsonl", small_rows()))

    def test_email_query_exact_canonical_match(self, corpus):
        records = corpus_collect(corpus, FakeCollector("maltego"), classify_input("ALDO@Corp.Example"))
        values = {(r.attribute, r.value) for r in records}
        assert values == {
            ("email", "aldo@corp.example"),
            ("url", "https://corp.example/team/aldo"),
        }

    def test_platform_visibility_filter(self, corpus):
        records = corpus_collect(
            corpus, FakeCollector("rapportive"), classify_input("aldo@corp.example")
        )
        assert [(r.attribute, r.value) for r in records] == [
            ("email", "aldo@corp.example")
        ]

    def test_name_query_overlap_threshold(self, corpus):
        hit = corpus_collect(
            corpus, FakeCollector("webmii"), classify_input("Brianna Okafor")
        )
        assert {r.value for r in hit} == {"Brianna Okafor"}
        # one token of two: overlap 0.5 still matches
        partial = corpus_collect(
            corpus, FakeCollector("webmii"), classify_input("brianna")
        )
        assert {r.value for r in partial} == {"Brianna Okafor"}
        # no token shared: no match
        assert (
            corpus_collect(corpus, FakeCollector("webmii"), classify_input("zoe"))
            == []
        )

    def test_domain_query_matches_email_and_url(self, corpus):
        records = corpus_collect(
            corpus, FakeCollector("maltego"), classify_input("corp.example")
        )
        # s-a matches via both its email suffix and its url substring; the
        # collector then returns every s-a fact it is allowed to see.
        assert {(r.attribute, r.value) for r in records} == {
            ("email", "aldo@corp.example"),
            ("url", "https://corp.example/team/aldo"),
        }

    def test_domain_query_matches_url_hosts_on_label_boundaries(self, tmp_path):
        rows = [
            fact("s-evil", "url", "https://example.com.evil.net/x", ["maltego"]),
            fact("s-example", "url", "https://example.com/x", ["maltego"]),
            fact("s-blog", "url", "https://blog.ample.com/x", ["maltego"]),
        ]
        corpus = load_corpus(write_jsonl(tmp_path / "c.jsonl", rows))
        records = corpus_collect(corpus, FakeCollector("maltego"), classify_input("ample.com"))
        assert [r.value for r in records] == ["https://blog.ample.com/x"]

    def test_domain_query_matches_email_hosts_on_label_boundaries(self, tmp_path):
        rows = [
            fact("s-sub", "email", "ann@mail.corp.example", ["maltego"]),
            fact("s-prefix", "email", "ann@xcorp.example", ["maltego"]),
            fact("s-evil", "email", "ann@corp.example.evil.net", ["maltego"]),
        ]
        corpus = load_corpus(write_jsonl(tmp_path / "c.jsonl", rows))
        records = corpus_collect(corpus, FakeCollector("maltego"), classify_input("corp.example"))
        assert [r.value for r in records] == ["ann@mail.corp.example"]

    def test_domain_query_reads_the_host_of_the_kept_email(self, tmp_path):
        # The aggregator keeps "ann@ample .com" as ann@ample.com and drops the
        # two malformed emails, so only the first is on ample.com.
        rows = [
            fact("s-space", "email", "Ann@ample .com", ["maltego"]),
            fact("s-no-at", "email", "ample.com", ["maltego"]),
            fact("s-two-at", "email", "ann@@ample.com", ["maltego"]),
        ]
        corpus = load_corpus(write_jsonl(tmp_path / "c.jsonl", rows))
        records = corpus_collect(corpus, FakeCollector("maltego"), classify_input("ample.com"))
        assert [r.value for r in records] == ["Ann@ample .com"]

    @pytest.mark.parametrize("domain", ["xn--bcher-kva.de", "bücher.de", "BÜCHER.DE"])
    def test_domain_query_finds_a_non_ascii_host_by_any_spelling(self, tmp_path, domain):
        rows = [
            fact("s-email", "email", "ann@bücher.de", ["maltego"]),
            fact("s-url", "url", "https://Blog.BÜCHER.de/x", ["maltego"]),
            fact("s-other", "email", "ann@bucher.de", ["maltego"]),
        ]
        corpus = load_corpus(write_jsonl(tmp_path / "c.jsonl", rows))
        records = corpus_collect(corpus, FakeCollector("maltego"), classify_input(domain))
        assert [r.value for r in records] == ["ann@bücher.de", "https://Blog.BÜCHER.de/x"]

    def test_a_host_the_idna_codec_refuses_is_on_no_domain(self, tmp_path):
        rows = [
            fact("s-empty-label", "email", "ann@ü..de", ["maltego"]),
            fact("s-long-label", "email", "ann@" + "ü" * 64 + ".de", ["maltego"]),
            fact("s-url", "url", "https://ü..de/x", ["maltego"]),
            fact("s-ok", "email", "ann@ü.de", ["maltego"]),
        ]
        corpus = load_corpus(write_jsonl(tmp_path / "c.jsonl", rows))
        records = corpus_collect(corpus, FakeCollector("maltego"), classify_input("ü.de"))
        assert [r.value for r in records] == ["ann@ü.de"]
        assert set(corpus._indexes[("host",)].values()) == {"s-ok"}

    def test_prefixed_stored_handle_found_by_the_same_string(self, tmp_path):
        rows = [
            fact("s-h", "social_handle_twitter", "twitter:Jack", ["maltego"]),
            fact("s-h", "full_name", "Jack Dorsey", ["maltego"]),
        ]
        corpus = load_corpus(write_jsonl(tmp_path / "c.jsonl", rows))
        records = corpus_collect(
            corpus, FakeCollector("maltego"), classify_input("twitter:Jack")
        )
        assert {(r.attribute, r.value) for r in records} == {
            ("social_handle_twitter", "twitter:Jack"),
            ("full_name", "Jack Dorsey"),
        }

    def test_national_phone_found_by_the_same_string(self, tmp_path):
        rows = [
            fact("s-p", "phone", "098765 43210", ["maltego"]),
            fact("s-p", "full_name", "Pat Doe", ["maltego"]),
        ]
        corpus = load_corpus(write_jsonl(tmp_path / "c.jsonl", rows))
        records = corpus_collect(
            corpus, FakeCollector("maltego"), classify_input("098765 43210")
        )
        assert {(r.attribute, r.value) for r in records} == {
            ("phone", "098765 43210"),
            ("full_name", "Pat Doe"),
        }

    def test_one_provenance_batch_per_subject(self, tmp_path):
        rows = [
            fact("s-1", "full_name", "Ona Brook", ["webmii"]),
            fact("s-1", "interest", "chess", ["webmii"]),
            fact("s-2", "full_name", "Ona Brook Reyes", ["webmii"]),
        ]
        corpus = load_corpus(write_jsonl(tmp_path / "c.jsonl", rows))
        records = corpus_collect(corpus, FakeCollector("webmii"), classify_input("Ona Brook"))
        by_provenance = {}
        for record in records:
            by_provenance.setdefault(record.provenance, set()).add(record.value)
        assert len(by_provenance) == 2  # one batch per matched subject
        assert {"Ona Brook", "chess"} in by_provenance.values()
        assert {"Ona Brook Reyes"} in by_provenance.values()
        for locator in by_provenance:
            assert locator.startswith("webmii/")

    def test_collection_is_deterministic(self, corpus):
        q = classify_input("aldo@corp.example")
        first = corpus_collect(corpus, FakeCollector("maltego"), q)
        second = corpus_collect(corpus, FakeCollector("maltego"), q)
        assert first == second


# Facts that exercise every identifier rule: well-formed and malformed
# emails, E.164 and national phones, handles with and without "@", spaces or
# a platform prefix, and arbitrary text under any identifier attribute.
_HINTS = {
    "email": (InputKind.EMAIL, None),
    "phone": (InputKind.PHONE, None),
    "social_handle_twitter": (InputKind.SOCIAL_HANDLE, Platform.TWITTER),
    "social_handle_facebook": (InputKind.SOCIAL_HANDLE, Platform.FACEBOOK),
    "social_handle_instagram": (InputKind.SOCIAL_HANDLE, Platform.INSTAGRAM),
}
_identifier_facts = st.one_of(
    st.tuples(
        st.just("email"),
        st.builds(
            "{}@{}".format,
            st.text("abcXYZüÉ.+_", max_size=6),
            st.text("abcXYZüÜé.。-@ ", max_size=8),
        ),
    ),
    st.tuples(
        st.just("phone"),
        st.builds(
            "{}{}".format,
            st.sampled_from(["", "+", " +", "0"]),
            st.text("0123456789 ()-.", min_size=6, max_size=18),
        ),
    ),
    st.tuples(
        st.sampled_from(
            ["social_handle_facebook", "social_handle_instagram", "social_handle_twitter"]
        ),
        st.builds(
            "{}{}".format,
            st.sampled_from(["", "@", " ", "twitter:", "Facebook:@", " INSTAGRAM:"]),
            st.text("abcXYZ._@ 1:", max_size=8),
        ),
    ),
    st.tuples(st.sampled_from(sorted(_HINTS)), st.text(max_size=12)),
)


def _label_suffixes(host: str) -> list[str]:
    labels = re.split("[.\u3002\uff0e\uff61]", host)  # the dots IDNA 2003 reads
    return [".".join(labels[start:]) for start in range(len(labels))]


def _on_domain(host: str, domain: str) -> bool:
    return domain in _label_suffixes(host.rstrip("."))


@given(_identifier_facts, st.sampled_from(["IN", "US", "GB", "CA"]), st.data())
def test_matcher_aggregator_and_classifier_agree_on_identifiers(identifier_fact, region, data):
    """The corpus matcher accepts the query classified from a fact's value
    exactly when the fact's canonical identifier equals the query's canonical
    form, and the aggregator keeps that fact as exactly that canonical form.
    A domain query finds an email fact exactly when the aggregator keeps the
    email and its host is the domain or a subdomain of it, both read through
    the IDNA codec."""
    attribute, value = identifier_fact
    canonical = canonical_identifier(attribute, value, region)
    if attribute == "email" and canonical is not None:
        host = "".join(value.split()).rpartition("@")[2]
        assert canonical.rpartition("@")[2] == oracle_host(host)
    kept = normalize_records(
        [
            CollectorOutcome(
                collector="c",
                status=OutcomeStatus.SUCCESS,
                records=(RawRecord(attribute, value, 1.0, "c/1"),),
            )
        ],
        default_region=region,
    )
    assert [r.value for r in kept] == ([] if canonical is None else [canonical])

    corpus = Corpus([CorpusFact("s", attribute, value, frozenset({"c"}), 1.0)])
    if attribute == "email":
        host = value.rpartition("@")[2]
        domain = data.draw(
            st.sampled_from(_label_suffixes(host) + _label_suffixes("".join(host.split())))
            | st.sampled_from(["ab.cx", "xyz.ab"]),
            label="domain",
        )
        try:
            domain_query = classify_input(domain, InputKind.DOMAIN, default_region=region)
        except DossierError:
            domain_query = None
        if domain_query is not None:
            found = bool(corpus_collect(corpus, FakeCollector("c"), domain_query))
            assert found == (
                canonical is not None
                and _on_domain(
                    canonical.rpartition("@")[2], oracle_host(domain.strip()).rstrip(".")
                )
            )

    kind, platform = _HINTS[attribute]
    try:
        query = classify_input(value, kind, platform, default_region=region)
    except DossierError:
        return
    accepted = bool(corpus_collect(corpus, FakeCollector("c"), query))
    assert accepted == (canonical == query.canonical)


@given(
    st.sampled_from(["https://", "http://", "//", "", "ftp://"]),
    st.sampled_from(["", "user@", "u:p@"]),
    st.lists(
        st.sampled_from(["ample", "ex", "com", "blog", "x-y", "ab", "bücher", "café"]),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from(["", ".", ".."]),
    st.sampled_from(["", ":8080"]),
    st.sampled_from(["", "/x", "/a@b.com", "?q=c.com", "#f"]),
    st.booleans(),
    st.data(),
)
def test_matcher_and_classifier_agree_on_url_hosts(
    scheme, userinfo, labels, trailing, port, path, upper, data
):
    """A domain query finds a URL fact exactly when the URL's host, read
    through the IDNA codec, in any case and without its trailing dots, is
    the domain or a subdomain of it.  A host the codec refuses (a non-ASCII
    one with an empty label) is on no domain."""
    host = ".".join(labels)
    written = f"{host.upper() if upper else host}{trailing}"
    value = f"{scheme}{userinfo}{written}{port}{path}"
    domain = data.draw(
        st.sampled_from(
            _label_suffixes(host)
            + ["ample.com", "x.ample.com", "b.com", "c.com", "xn--bcher-kva.com", "CAFÉ.com"]
        ),
        label="domain",
    )
    try:
        query = classify_input(domain, InputKind.DOMAIN)
    except DossierError:
        return
    corpus = Corpus([CorpusFact("s", "url", value, frozenset({"c"}), 1.0)])
    found = bool(corpus_collect(corpus, FakeCollector("c"), query))
    canonical = oracle_host(written)
    assert found == (
        canonical is not None and _on_domain(canonical, oracle_host(domain).rstrip("."))
    )


# Labels of a host, each with its punycode label, written out so that the
# test does not take them from the codec it checks.
_PUNYCODE = {"bücher": "xn--bcher-kva", "café": "xn--caf-dma", "zoë": "xn--zo-ija", "blog": "blog"}
_TLDS = ["de", "com"]
# ASCII labels one letter or one accent away from the labels above.
_NEAR_MISSES = ["bucher", "buecher", "cafe", "zoe", "xn--bcher", "bloq"]
_SPELLINGS = {
    "as is": lambda label: label,
    "upper case": str.upper,
    "fullwidth": lambda label: "".join(
        chr(ord(c) + 0xFEE0) if "A" <= c <= "Z" else c for c in label.upper()
    ),
    "punycode": lambda label: _PUNYCODE.get(label, label),
    "upper-case punycode": lambda label: _PUNYCODE.get(label, label).upper(),
}


def _spell(labels: list[str], data) -> str:
    """*labels* joined as one host, each label and each dot spelled as drawn."""
    host = ""
    for i, label in enumerate(labels):
        if i:
            host += data.draw(st.sampled_from([".", "\uff0e", "\u3002"]), label="dot")
        host += _SPELLINGS[data.draw(st.sampled_from(sorted(_SPELLINGS)), label="spelling")](label)
    return host


@given(
    st.lists(st.sampled_from(sorted(_PUNYCODE)), min_size=1, max_size=3),
    st.sampled_from(_TLDS),
    st.data(),
)
def test_a_domain_query_finds_a_host_under_any_spelling(labels, tld, data):
    """Whatever the spelling of a host stored in an email and in a URL, and
    of a domain query for that host or for one of its label suffixes, the
    query finds both facts; a near miss or a subdomain of the host finds
    neither."""
    labels = [*labels, tld]
    stored = _spell(labels, data)
    email, url = f"ann@{stored}", f"https://{stored}/x"
    corpus = Corpus(
        [
            CorpusFact("s-email", "email", email, frozenset({"c"}), 1.0),
            CorpusFact("s-url", "url", url, frozenset({"c"}), 1.0),
        ]
    )
    start = data.draw(st.integers(0, len(labels) - 2), label="suffix start")
    suffix = labels[start:]
    misses = [
        [data.draw(st.sampled_from(_NEAR_MISSES), label="near miss"), *suffix[1:]],
        ["www", *labels],
    ]
    for query_labels, expected in [(suffix, [email, url])] + [(miss, []) for miss in misses]:
        spelt = _spell(query_labels, data)
        query = classify_input(spelt)
        assert query.kind is InputKind.DOMAIN
        assert query == classify_input(spelt, InputKind.DOMAIN)
        assert query.canonical == ".".join(_PUNYCODE.get(label, label) for label in query_labels)
        records = corpus_collect(corpus, FakeCollector("c"), query)
        assert [r.value for r in records] == expected


# Corpus facts and queries that reach every matching rule and its edges:
# national and E.164 phones read under two regions; handles with and without
# their own or another platform's prefix; names at Jaccard exactly 0.5
# ("Smith" / "Ann Smith"), single tokens, no tokens at all and diacritics;
# hosts with userinfo, a port, a trailing dot or inner whitespace, ample.com
# against example.com, and hosts in Unicode, punycode or fullwidth letters,
# with one the IDNA codec refuses.
_PHONES = [
    "098765 43210", "+91 98765 43210", "98765-43210", "+1 (987) 654-3210",
    "987 654 3210", "+919876543210", "12345",
]
_HANDLES = [
    "Jack", "@jack", "twitter:Jack", "Twitter:@jack", "facebook:jack", "instagram:Jack",
    "ja ck", "j@ck",
]
_NAMES = [
    "Smith", "Ann Smith", "ann", "Zoë Brook", "zoe brook", "José", "Jose Ann", "!!", "_",
    "Ann-Smith Lee", "BROOK",
]
_HOSTS = [
    "ample.com", "example.com", "blog.ample.com", "ample.com.", "example.com.evil.net",
    "EXAMPLE.com", "mail.corp.example", "ample .com",
    "bücher.de", "BLOG.BÜCHER.de", "xn--bcher-kva.de", "ＥＸＡＭＰＬＥ.com", "ü..de",
]
_DOMAINS = [
    "ample.com", "example.com", "blog.ample.com", "ample.com.", "evil.net", "corp.example",
    "mail.corp.example", "EXAMPLE.COM", "com",
    "bücher.de", "BLOG.BÜCHER.de", "xn--bcher-kva.de", "ＥＸＡＭＰＬＥ.com", "ü..de",
]
_emails = st.builds(
    "{}@{}".format, st.sampled_from(["ann", "Ann.Smith", " x", ""]), st.sampled_from(_HOSTS)
) | st.sampled_from(["ample.com", "ann@@ample.com"])
_urls = st.builds(
    "{}{}{}{}{}".format,
    st.sampled_from(["https://", "http://", "", "//", "ftp://"]),
    st.sampled_from(["", "user@", "u:p@"]),
    st.sampled_from(_HOSTS),
    st.sampled_from(["", ":8080"]),
    st.sampled_from(["", "/x", "/a@b", "?q=1", "#f"]),
)
_corpus_facts = st.one_of(
    st.tuples(st.just("email"), _emails),
    st.tuples(st.just("url"), _urls),
    st.tuples(st.just("phone"), st.sampled_from(_PHONES)),
    st.tuples(
        st.sampled_from(["social_handle_twitter", "social_handle_facebook"]),
        st.sampled_from(_HANDLES),
    ),
    st.tuples(st.sampled_from(["full_name", "alias"]), st.sampled_from(_NAMES)),
    st.tuples(st.just("location"), st.sampled_from(_NAMES + _HOSTS)),
)
_corpora = st.lists(
    st.tuples(
        st.sampled_from(["s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8"]),
        _corpus_facts,
        st.sampled_from([frozenset({"c"}), frozenset({"c", "d"}), frozenset({"d"})]),
    ),
    max_size=16,
).map(
    lambda rows: Corpus(
        CorpusFact(subject, attribute, value, platforms, 0.9)
        for subject, (attribute, value), platforms in rows
    )
)
_raw_queries = st.one_of(
    st.tuples(st.just(InputKind.EMAIL), _emails, st.none()),
    st.tuples(st.just(InputKind.PHONE), st.sampled_from(_PHONES), st.none()),
    st.tuples(
        st.just(InputKind.SOCIAL_HANDLE),
        st.sampled_from(_HANDLES),
        st.sampled_from([None, Platform.TWITTER, Platform.FACEBOOK]),
    ),
    st.tuples(
        st.sampled_from([InputKind.NAME, InputKind.KEYWORD]), st.sampled_from(_NAMES), st.none()
    ),
    st.tuples(st.just(InputKind.DOMAIN), st.sampled_from(_DOMAINS), st.none()),
)


def _one_fact_per_subject(*facts):
    return Corpus(
        CorpusFact(f"s{i}", attribute, value, frozenset({"c"}), 0.9)
        for i, (attribute, value) in enumerate(facts)
    )


@given(_corpora, st.lists(_raw_queries, min_size=1, max_size=4))
@example(  # one national number, a different subscriber in each region
    _one_fact_per_subject(("phone", "987 654 3210"), ("phone", "+91 98765 43210")),
    [(InputKind.PHONE, "987 654 3210", None)],
)
@example(  # Jaccard exactly 0.5, and many subjects matched at once
    _one_fact_per_subject(*[("full_name", "Ann Smith")] * 8, ("alias", "Smith")),
    [(InputKind.KEYWORD, "Smith", None), (InputKind.NAME, "Ann Smith", None)],
)
@example(
    _one_fact_per_subject(("url", "https://example.com/x"), ("email", "ann@blog.ample.com.")),
    [(InputKind.DOMAIN, "ample.com", None), (InputKind.DOMAIN, "example.com", None)],
)
@example(  # s0 meets its own bare id again; s1 turns the "ann" posting into a tuple
    Corpus(
        CorpusFact(subject, attribute, value, frozenset({"c"}), 0.9)
        for subject, attribute, value in [
            ("s0", "email", "ann@ample.com"),
            ("s0", "email", "ANN@Ample.com"),
            ("s0", "full_name", "Ann Smith"),
            ("s0", "alias", "Ann"),
            ("s1", "full_name", "Ann Lee"),
        ]
    ),
    [
        (InputKind.EMAIL, "Ann@ample.com", None),
        (InputKind.NAME, "Ann Smith", None),
        (InputKind.KEYWORD, "Ann", None),
        (InputKind.DOMAIN, "ample.com", None),
    ],
)
def test_indexed_collect_equals_the_linear_scan(corpus, raw_queries):
    """For every query kind, read in two regions, the indexed corpus_collect
    returns exactly the records of a scan over every subject, in the same
    order, on a cold corpus and again once its indexes are built."""
    queries = []
    for kind, raw, platform in raw_queries:
        for region in ("IN", "US"):
            try:
                queries.append(classify_input(raw, kind, platform, default_region=region))
            except DossierError:
                pass
    assume(queries)
    for query in queries + queries:
        assert corpus_collect(corpus, FakeCollector("c"), query) == oracle_corpus_collect(
            corpus, "c", query
        )


_facts = st.lists(
    st.builds(
        lambda subject, attribute_value, platforms, confidence: CorpusFact(
            subject, *attribute_value, platforms, confidence
        ),
        st.sampled_from(["s1", "s2", "s3", "s4"]),
        _corpus_facts,
        st.sampled_from([frozenset({"c"}), frozenset({"c", "d"}), frozenset({"d"})]),
        st.sampled_from([0.5, 0.9, 0.0, -0.0]) | st.floats(0, 1),
    ),
    max_size=16,
)
_one_query_of_each_kind = st.tuples(
    st.tuples(st.just(InputKind.EMAIL), _emails, st.none()),
    st.tuples(st.just(InputKind.PHONE), st.sampled_from(_PHONES), st.none()),
    st.tuples(
        st.just(InputKind.SOCIAL_HANDLE), st.sampled_from(_HANDLES), st.just(Platform.TWITTER)
    ),
    st.tuples(st.just(InputKind.NAME), st.sampled_from(_NAMES), st.none()),
    st.tuples(st.just(InputKind.KEYWORD), st.sampled_from(_NAMES), st.none()),
    st.tuples(st.just(InputKind.DOMAIN), st.sampled_from(_DOMAINS), st.none()),
)


@given(_facts, _one_query_of_each_kind)
def test_a_corpus_of_facts_equals_the_loaded_corpus(tmp_path_factory, facts, raw_queries):
    """Corpus(facts) and load_corpus of the same facts, written with sorted
    keys, hold the same subjects and CorpusFacts, signs included, and answer
    a query of every kind alike."""
    path = tmp_path_factory.getbasetemp() / "constructors.jsonl"
    path.write_text(
        "".join(
            json.dumps(
                fact(f.subject_id, f.attribute, f.value, sorted(f.platforms), f.confidence),
                sort_keys=True,
                ensure_ascii=False,
            )
            + "\n"
            for f in facts
        ),
        encoding="utf-8",
    )
    built, loaded = Corpus(facts), load_corpus(path)
    assert len(built) == len(loaded) == len(facts)
    assert _loaded(lambda _: built, path) == _loaded(lambda _: loaded, path)
    assert built.facts_for("missing") == loaded.facts_for("missing") == ()
    for corpus in (built, loaded):
        for subject in corpus.subjects:
            assert all(type(f) is CorpusFact for f in corpus.facts_for(subject))
    for kind, raw, platform in raw_queries:
        try:
            query = classify_input(raw, kind, platform)
        except DossierError:
            continue
        collector = FakeCollector("c")
        assert corpus_collect(built, collector, query) == corpus_collect(loaded, collector, query)


def _synthetic_corpus(subjects: int) -> Corpus:
    facts = []
    for i in range(subjects):
        sid = f"s{i:05d}"
        facts += [
            CorpusFact(sid, "full_name", f"Given{i % 97} Surname{i}", frozenset({"c"}), 0.9),
            CorpusFact(sid, "email", f"user{i}@host{i % 50}.example", frozenset({"c"}), 0.9),
            CorpusFact(sid, "phone", f"0{9876500000 + i}", frozenset({"c"}), 0.9),
            CorpusFact(sid, "social_handle_twitter", f"twitter:User{i}", frozenset({"c"}), 0.9),
            CorpusFact(sid, "url", f"https://u{i}.host{i % 50}.example/p", frozenset({"c"}), 0.9),
        ]
    return Corpus(facts)


def test_each_index_is_built_once_under_parallel_first_queries(monkeypatch):
    corpus = _synthetic_corpus(200)
    queries = [
        classify_input("user3@host3.example"),
        classify_input("09876500003"),
        classify_input("twitter:user3"),
        classify_input("Given3 Surname3"),
        classify_input("host3.example"),
    ]
    expected = [oracle_corpus_collect(corpus, "c", q) for q in queries]
    assert all(expected)

    builds = Counter()
    lock = threading.Lock()

    def counting(family, build):
        def wrapper(by_subject, *key):
            with lock:
                builds[(family, *key)] += 1
            time.sleep(0.01)  # widen the window in which a second build could start
            return build(by_subject, *key)

        return wrapper

    for family in ("identifier", "name", "host"):
        name = f"_{family}_index"
        monkeypatch.setattr(corpus_module, name, counting(family, getattr(corpus_module, name)))

    barrier = threading.Barrier(8)
    answers = {}

    def client(offset):
        barrier.wait(5)
        order = [(offset + k) % len(queries) for k in range(len(queries))]
        answers[offset] = {
            k: corpus_collect(corpus, FakeCollector("c"), queries[k]) for k in order
        }

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert builds == Counter(
        {
            ("identifier", "email", "IN"): 1,
            ("identifier", "phone", "IN"): 1,
            ("identifier", "social_handle_twitter", "IN"): 1,
            ("name",): 1,
            ("host",): 1,
        }
    )
    assert sorted(answers) == list(range(8))
    for per_thread in answers.values():
        assert [per_thread[k] for k in range(len(queries))] == expected


def test_only_phone_indexes_are_built_per_region(monkeypatch):
    """Email and handle canonical forms do not depend on the region, so one
    index serves every region; a phone index is built for each region."""
    corpus = _synthetic_corpus(50)
    builds = Counter()
    real = corpus_module._identifier_index

    def counting(by_subject, attribute, region):
        builds[attribute] += 1
        return real(by_subject, attribute, region)

    monkeypatch.setattr(corpus_module, "_identifier_index", counting)
    queries = [
        classify_input(raw, default_region=region)
        for region in ("IN", "US", "GB")
        for raw in ("user3@host3.example", "twitter:user3")
    ] + [classify_input("+919876500003", default_region=region) for region in ("IN", "US")]
    for query in queries:
        assert corpus_collect(corpus, FakeCollector("c"), query) == oracle_corpus_collect(
            corpus, "c", query
        )
    assert builds == Counter({"email": 1, "social_handle_twitter": 1, "phone": 2})


def test_a_warm_identifier_query_scans_no_corpus_fact(monkeypatch):
    """Once the email index is built, another email query canonicalizes no
    corpus value: a reintroduced per-query scan fails here."""
    corpus = _synthetic_corpus(2000)
    assert corpus_collect(corpus, FakeCollector("c"), classify_input("user1@host1.example"))

    calls = 0
    real = corpus_module.canonical_identifier

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(corpus_module, "canonical_identifier", counting)
    records = corpus_collect(corpus, FakeCollector("c"), classify_input("USER1234@host34.example"))
    assert calls == 0
    assert {r.value for r in records} >= {"user1234@host34.example", "Given70 Surname1234"}


def _build_every_index(corpus: Corpus) -> None:
    """Build each family _synthetic_corpus has facts for: email, phone and
    twitter identifiers, names and hosts."""
    for raw in (
        "user3@host3.example", "09876500003", "twitter:user3", "Given3 Surname3", "host3.example"
    ):
        assert corpus_collect(corpus, FakeCollector("c"), classify_input(raw))


def test_a_lone_posting_is_its_subject_id_and_a_shared_one_a_sorted_tuple():
    """A key one subject holds maps to that subject's id, the very string the
    corpus keys its facts by, so the index allocates nothing for it; a key
    several subjects hold maps to the sorted tuple of their ids."""
    corpus = _synthetic_corpus(200)
    _build_every_index(corpus)
    families = list(corpus._indexes.values())
    assert len(families) == 5
    own = {subject: subject for subject in corpus._by_subject}
    for index in families:
        for ids in index.values():
            if type(ids) is str:
                assert ids is own[ids]
            else:
                assert type(ids) is tuple and len(ids) > 1
                assert list(ids) == sorted(set(ids))
    # s00003 alone owns its email, phone, handle, surname token and URL host.
    alone = [ids for index in families for ids in index.values() if ids == "s00003"]
    assert len(alone) == 5
    assert all(ids is own["s00003"] for ids in alone)
    # Every 97th subject shares the given name, every 50th the host.
    assert corpus._indexes[("name",)]["given3"] == ("s00003", "s00100", "s00197")
    assert corpus._indexes[("host",)]["host3.example"] == (
        "s00003", "s00053", "s00103", "s00153"
    )


# Bytes the indexes hold per posting on _synthetic_corpus(2000), measured
# with a key's only subject kept as its bare id: 59.5 on Python 3.10, 51.0 on
# 3.11 and 47.0 on 3.12 and 3.13 (70.0, 61.6, 57.5 with every posting a
# shared tuple).  The bound is 3.11's figure plus 25%.  A fresh list per key
# holds ~115.
MAX_INDEX_BYTES_PER_POSTING = 64


def test_index_memory_per_posting_is_bounded():
    corpus = _synthetic_corpus(2000)
    tracemalloc.start()
    try:
        _build_every_index(corpus)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    postings = sum(
        1 if type(ids) is str else len(ids)
        for index in corpus._indexes.values()
        for ids in index.values()
    )
    assert postings == 16000
    assert held / postings <= MAX_INDEX_BYTES_PER_POSTING
