import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dossier.aggregate import CandidateProfile
from dossier.collect.records import CollectorOutcome, OutcomeStatus
from dossier.inputs import classify_input
from dossier.vocab import ATTRIBUTE_KEYS
from dossier.report import (
    REPORT_FORMATS,
    TEMPLATE_NAMES,
    UNMAPPED_SECTION,
    ReportTemplate,
    UnknownTemplateError,
    build_report,
    render,
    section_plan,
)

from conftest import make_record
from oracles import oracle_report_body

PINNED = "2020-01-01T00:00:00+00:00"


class TestSectionPlans:
    def test_template_names_closed(self):
        assert TEMPLATE_NAMES == ("criminal", "employee", "matrimonial")
        assert REPORT_FORMATS == ("md", "json", "csv")

    def test_criminal_headings(self):
        plan = section_plan("criminal")
        assert [title for title, _ in plan.sections] == [
            "Bio",
            "Physical characteristics",
            "Other Specifications",
            "Digital Footprint",
            "Criminal Record",
        ]
        assert plan.section_of("criminal_record") == "Criminal Record"
        assert plan.section_of("height_m") == "Physical characteristics"

    def test_employee_headings(self):
        plan = section_plan("employee")
        assert [title for title, _ in plan.sections] == [
            "Bio",
            "Education",
            "Family",
            "Contact Details",
            "Career",
            "Awards",
            "Research",
            "Honours",
        ]
        assert plan.section_of("research_interest") == "Research"
        assert plan.section_of("email") == "Contact Details"

    def test_matrimonial_headings(self):
        plan = section_plan("matrimonial")
        assert [title for title, _ in plan.sections] == [
            "Bio",
            "Physical Stats & more",
            "Personal Life",
            "Favourite Things",
            "Partners and More",
            "Other habits",
        ]
        assert plan.section_of("height_m") == "Physical Stats & more"
        assert plan.section_of("marital_status") == "Partners and More"
        assert plan.section_of("criminal_record") is None

    def test_no_attribute_is_mapped_twice(self):
        for name in TEMPLATE_NAMES:
            plan = section_plan(name)
            flat = [a for _, attrs in plan.sections for a in attrs]
            assert len(flat) == len(set(flat))

    def test_unknown_template(self):
        with pytest.raises(UnknownTemplateError):
            section_plan("wedding")

    def test_template_validation(self):
        with pytest.raises(ValueError):
            ReportTemplate(name="x", sections=(("", ("email",)),))
        with pytest.raises(ValueError):
            ReportTemplate(name="x", sections=(("A", ("shoe_size",)),))
        with pytest.raises(ValueError):
            ReportTemplate(name="x", sections=(("A", ("email",)), ("B", ("email",))))
        with pytest.raises(ValueError):
            ReportTemplate(name="x", sections=(("A", ("email",)), ("A", ("phone",))))
        with pytest.raises(ValueError):
            ReportTemplate(name="x", sections=(("Unmapped Evidence", ("url",)),))


def sample_inputs():
    filtered = [
        make_record(attribute="full_name", value="Nora Quinn", source="webmii"),
        make_record(attribute="full_name", value="Nora Quinn", source="maltego", confidence=0.8),
        make_record(attribute="email", value="nora@q.example", source="maltego"),
        make_record(attribute="location", value="Oslo", source="maltego"),
        make_record(attribute="breach", value="megacorp-2019", source="whatbreach"),
    ]
    best = CandidateProfile(
        cluster_id="abc123", records=tuple(filtered), visibility=3.5849625, match=3.5
    )
    outcomes = [
        CollectorOutcome(collector="webmii", status=OutcomeStatus.SUCCESS),
        CollectorOutcome(
            collector="tinfoleak", status=OutcomeStatus.TIMEOUT, error_detail="no response within 50 ms"
        ),
        CollectorOutcome(
            collector="pipl", status=OutcomeStatus.ERROR, error_detail="NetworkError: x"
        ),
    ]
    query = classify_input("nora@q.example")
    return best, filtered, outcomes, query


class TestBuildReport:
    def build(self, template="employee", **overrides):
        best, filtered, outcomes, query = sample_inputs()
        kwargs = dict(
            best=best,
            filtered=filtered,
            template=section_plan(template),
            outcomes=outcomes,
            rejected_count=1,
            query=query,
            generated_at=PINNED,
        )
        kwargs.update(overrides)
        return build_report(**kwargs)

    def test_placement_and_merging(self):
        report = self.build()
        titles = [s.title for s in report.sections]
        assert titles == ["Bio", "Contact Details", UNMAPPED_SECTION]
        bio = report.sections[0]
        assert len(bio.facts) == 1  # two sources merged into one line
        fact = bio.facts[0]
        assert fact.sources == ("maltego", "webmii")
        assert fact.confidence == 0.9  # max of 0.9 and 0.8
        unmapped = report.sections[-1]
        assert {f.attribute for f in unmapped.facts} == {"breach", "location"}

    def test_nothing_is_lost(self):
        best, filtered, outcomes, query = sample_inputs()
        report = self.build()
        rendered = {
            (fact.attribute, fact.value, source)
            for section in report.sections
            for fact in section.facts
            for source in fact.sources
        }
        original = {(r.attribute, r.value, r.source) for r in filtered}
        assert rendered == original

    def test_empty_sections_omitted(self):
        report = self.build()
        assert "Awards" not in [s.title for s in report.sections]

    def test_failures_are_sorted_and_exclude_successes(self):
        report = self.build()
        assert [f.collector for f in report.failures] == ["pipl", "tinfoleak"]
        assert report.failures[0].status == "error"
        assert report.failures[1].status == "timeout"

    def test_candidate_summary(self):
        report = self.build()
        assert report.candidate.cluster_size == 5
        assert report.candidate.match == 3.5
        assert report.candidate.rejected_candidates == 1

    def test_no_candidate_yields_empty_body(self):
        report = self.build(best=None, filtered=[], rejected_count=0)
        assert report.sections == ()
        assert report.candidate.cluster_size == 0
        assert report.candidate.visibility == 0.0

    def test_unmapped_section_is_always_last(self):
        report = self.build(template="matrimonial")
        titles = [s.title for s in report.sections]
        assert titles[-1] == UNMAPPED_SECTION
        assert "Bio" in titles


class TestRender:
    def test_markdown_exact_bytes(self):
        report = self.small_report()
        expected = (
            "# Profile report: nora@q.example\n"
            "\n"
            "- Template: employee\n"
            "- Query: kind=email, canonical=nora@q.example\n"
            "- Generated: 2020-01-01T00:00:00+00:00\n"
            "- Candidate: 5 facts, visibility 3.5850, match 3.5000, rejected candidates: 1\n"
            "\n"
            "## Bio\n"
            "\n"
            "- full_name: Nora Quinn — sources: maltego, webmii\n"
            "\n"
            "## Contact Details\n"
            "\n"
            "- email: nora@q.example — sources: maltego\n"
            "\n"
            "## Unmapped Evidence\n"
            "\n"
            "- breach: megacorp-2019 — sources: whatbreach\n"
            "- location: Oslo — sources: maltego\n"
            "\n"
            "## Collection failures\n"
            "\n"
            "- pipl: error (NetworkError: x)\n"
            "- tinfoleak: timeout (no response within 50 ms)\n"
        )
        assert render(report, "md").decode("utf-8") == expected

    def small_report(self):
        best, filtered, outcomes, query = sample_inputs()
        return build_report(
            best, filtered, section_plan("employee"), outcomes, 1, query, PINNED
        )

    def test_markdown_omits_failure_section_when_clean(self):
        best, filtered, _, query = sample_inputs()
        report = build_report(
            best, filtered, section_plan("employee"), [], 0, query, PINNED
        )
        assert "Collection failures" not in render(report, "md").decode("utf-8")

    def test_markdown_platform_echo(self):
        query = classify_input("twitter:probe")
        report = build_report(
            None, [], section_plan("employee"), [], 0, query, PINNED
        )
        text = render(report, "md").decode("utf-8")
        assert "- Query: kind=social_handle, platform=twitter, canonical=probe\n" in text

    def test_json_document_shape(self):
        report = self.small_report()
        data = render(report, "json")
        assert data.endswith(b"\n")
        payload = json.loads(data)
        assert payload["schema_version"] == 1
        assert payload["query"]["canonical"] == "nora@q.example"
        assert [s["title"] for s in payload["sections"]] == [
            "Bio",
            "Contact Details",
            "Unmapped Evidence",
        ]

    def test_json_exact_bytes(self):
        report = self.small_report()
        expected = """\
{
  "candidate": {
    "cluster_size": 5,
    "match": 3.5,
    "rejected_candidates": 1,
    "visibility": 3.5849625
  },
  "failures": [
    {
      "collector": "pipl",
      "detail": "NetworkError: x",
      "status": "error"
    },
    {
      "collector": "tinfoleak",
      "detail": "no response within 50 ms",
      "status": "timeout"
    }
  ],
  "generated_at": "2020-01-01T00:00:00+00:00",
  "query": {
    "canonical": "nora@q.example",
    "kind": "email",
    "platform": null,
    "raw": "nora@q.example"
  },
  "schema_version": 1,
  "sections": [
    {
      "facts": [
        {
          "attribute": "full_name",
          "confidence": 0.9,
          "sources": [
            "maltego",
            "webmii"
          ],
          "value": "Nora Quinn"
        }
      ],
      "title": "Bio"
    },
    {
      "facts": [
        {
          "attribute": "email",
          "confidence": 0.9,
          "sources": [
            "maltego"
          ],
          "value": "nora@q.example"
        }
      ],
      "title": "Contact Details"
    },
    {
      "facts": [
        {
          "attribute": "breach",
          "confidence": 0.9,
          "sources": [
            "whatbreach"
          ],
          "value": "megacorp-2019"
        },
        {
          "attribute": "location",
          "confidence": 0.9,
          "sources": [
            "maltego"
          ],
          "value": "Oslo"
        }
      ],
      "title": "Unmapped Evidence"
    }
  ],
  "template": "employee"
}
"""
        assert render(report, "json").decode("utf-8") == expected

    def test_csv_exact_bytes(self):
        report = self.small_report()
        expected = (
            "section,attribute,value,sources,confidence\n"
            "Bio,full_name,Nora Quinn,maltego;webmii,0.9\n"
            "Contact Details,email,nora@q.example,maltego,0.9\n"
            "Unmapped Evidence,breach,megacorp-2019,whatbreach,0.9\n"
            "Unmapped Evidence,location,Oslo,maltego,0.9\n"
        )
        assert render(report, "csv").decode("utf-8") == expected

    def test_csv_quotes_embedded_commas(self):
        record = make_record(attribute="location", value="Oslo, Norway", source="maltego")
        best = CandidateProfile(cluster_id="c", records=(record,))
        report = build_report(
            best, [record], section_plan("criminal"), [], 0,
            classify_input("Some Name"), PINNED,
        )
        text = render(report, "csv").decode("utf-8")
        assert '"Oslo, Norway"' in text

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render(self.small_report(), "pdf")

    def test_rendering_is_input_order_independent(self):
        best, filtered, outcomes, query = sample_inputs()
        baseline = None
        for seed in range(4):
            shuffled_records = list(filtered)
            shuffled_outcomes = list(outcomes)
            random.Random(seed).shuffle(shuffled_records)
            random.Random(seed).shuffle(shuffled_outcomes)
            report = build_report(
                best,
                shuffled_records,
                section_plan("employee"),
                shuffled_outcomes,
                1,
                query,
                PINNED,
            )
            blobs = tuple(render(report, fmt) for fmt in REPORT_FORMATS)
            if baseline is None:
                baseline = blobs
            assert blobs == baseline


# Every attribute key: each template maps some and leaves the rest unmapped.
_report_keys = st.tuples(st.sampled_from(sorted(ATTRIBUTE_KEYS)), st.sampled_from(["x", "y"]))
_report_sources = st.sampled_from(["alpha", "beta", "gamma", "delta"])
_report_confidences = st.sampled_from([0.0, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def _report_inputs(draw):
    """Filtered records in any order, one (attribute, value) from several
    sources at equal or unequal confidences among them, and a best candidate
    or none."""
    records = [
        make_record(attribute=attribute, value=value, source=source, confidence=confidence)
        for (attribute, value), source, confidence in draw(
            st.lists(st.tuples(_report_keys, _report_sources, _report_confidences), max_size=12)
        )
    ]
    if draw(st.booleans()):
        (attribute, value), equal = draw(_report_keys), draw(st.booleans())
        shared = draw(_report_confidences)
        for source in draw(st.lists(_report_sources, min_size=2, max_size=4, unique=True)):
            confidence = shared if equal else draw(_report_confidences)
            records.append(
                make_record(attribute=attribute, value=value, source=source, confidence=confidence)
            )
    records = draw(st.permutations(records))
    best = None
    if records and draw(st.booleans()):
        best = CandidateProfile(
            cluster_id="c", records=tuple(records), visibility=draw(st.floats(0, 9)), match=0.5
        )
    return best, records


@pytest.mark.parametrize("name", TEMPLATE_NAMES)
@given(inputs=_report_inputs())
@settings(max_examples=150, deadline=None)
def test_build_report_matches_the_place_then_merge_oracle(name, inputs):
    best, filtered = inputs
    template = section_plan(name)
    report = build_report(
        best, filtered, template, [], 0, classify_input("nora@q.example"), PINNED
    )
    sections = [
        (section.title, [(f.attribute, f.value, f.sources, f.confidence) for f in section.facts])
        for section in report.sections
    ]
    candidate = report.candidate
    assert (sections, (candidate.visibility, candidate.match, candidate.cluster_size)) == (
        oracle_report_body(best, filtered, template)
    )
