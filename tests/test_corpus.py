import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dossier.aggregate import normalize_records
from dossier.collect.corpus import (
    Corpus,
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

from conftest import fact, write_jsonl


def small_rows():
    return [
        fact("s-b", "full_name", "Brianna Okafor", ["webmii", "maltego"]),
        fact("s-b", "email", "briannao@mail.example", ["maltego"], 0.8),
        fact("s-a", "full_name", "Aldo Reyes", ["webmii"]),
        fact("s-a", "url", "https://corp.example/team/aldo", ["maltego", "vivial"]),
        fact("s-a", "email", "aldo@corp.example", ["maltego", "rapportive"]),
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

    @pytest.mark.parametrize(
        "mutate",
        [
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
        ],
    )
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

    def test_image_queries_find_nothing(self, corpus, tmp_path):
        from dossier.inputs import InputKind, QueryInput

        q = QueryInput(InputKind.IMAGE_PATH, "f.jpg", "f.jpg")
        assert corpus_collect(corpus, FakeCollector("webmii"), q) == []

    def test_collection_is_deterministic(self, corpus):
        q = classify_input("aldo@corp.example")
        first = corpus_collect(corpus, FakeCollector("maltego"), q)
        second = corpus_collect(corpus, FakeCollector("maltego"), q)
        assert first == second


# Facts that exercise every identifier rule: well-formed and malformed
# emails, E.164 and national phones, handles with and without "@" or spaces,
# and arbitrary text under any identifier attribute.
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
            st.text("abcXYZ.+_", max_size=6),
            st.text("abcXYZ.-@ ", max_size=8),
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
            st.sampled_from(["", "@", " "]),
            st.text("abcXYZ._@ 1", max_size=8),
        ),
    ),
    st.tuples(st.sampled_from(sorted(_HINTS)), st.text(max_size=12)),
)


@given(_identifier_facts, st.sampled_from(["IN", "US", "GB", "ZZ"]))
def test_matcher_aggregator_and_classifier_agree_on_identifiers(identifier_fact, region):
    """The corpus matcher accepts the query classified from a fact's value
    exactly when the fact's canonical identifier equals the query's canonical
    form, and the aggregator keeps that fact as exactly that canonical form."""
    attribute, value = identifier_fact
    canonical = canonical_identifier(attribute, value, region)
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

    kind, platform = _HINTS[attribute]
    try:
        query = classify_input(value, kind, platform, default_region=region)
    except DossierError:
        return
    corpus = Corpus([CorpusFact("s", attribute, value, frozenset({"c"}), 1.0)])
    accepted = bool(corpus_collect(corpus, FakeCollector("c"), query))
    assert accepted == (canonical == query.canonical)
