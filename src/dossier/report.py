"""Templated profile reports: section plans, assembly, and rendering.

A template decides which attribute goes under which heading; whatever the
template does not claim lands in a trailing "Unmapped Evidence" section, so
no filtered record is ever silently dropped.  Rendering is deterministic
byte for byte once the generation timestamp is pinned.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence, Tuple

from .aggregate import CandidateProfile, EvidenceRecord
from .collect.records import CollectorOutcome, OutcomeStatus
from .errors import DossierError
from .inputs import QueryInput
from .vocab import ATTRIBUTE_KEYS

TEMPLATE_NAMES = ("criminal", "employee", "matrimonial")
REPORT_FORMATS = ("md", "json", "csv")
UNMAPPED_SECTION = "Unmapped Evidence"
SCHEMA_VERSION = 1


class UnknownTemplateError(DossierError):
    """No section plan exists under the requested template name."""


class ReportParseError(DossierError):
    """A JSON report document cannot be parsed back into a Report."""


@dataclass(frozen=True)
class ReportTemplate:
    """An ordered section plan: heading -> attribute keys shown under it."""

    name: str
    sections: Tuple[Tuple[str, Tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for title, attributes in self.sections:
            if not title:
                raise ValueError("section titles must be non-empty")
            for attribute in attributes:
                if attribute not in ATTRIBUTE_KEYS:
                    raise ValueError(f"unknown attribute key {attribute!r}")
                if attribute in seen:
                    raise ValueError(f"attribute {attribute!r} mapped twice")
                seen.add(attribute)

    def section_of(self, attribute: str) -> Optional[str]:
        for title, attributes in self.sections:
            if attribute in attributes:
                return title
        return None


_PLANS: dict[str, Tuple[Tuple[str, Tuple[str, ...]], ...]] = {
    "criminal": (
        ("Bio", ("full_name", "alias", "date_of_birth", "place_of_birth", "sex")),
        ("Physical characteristics", ("height_m", "weight_kg", "hair_color", "eye_color")),
        ("Other Specifications", ("distinguishing_mark",)),
        (
            "Digital Footprint",
            (
                "social_handle_twitter",
                "social_handle_facebook",
                "social_handle_instagram",
                "url",
                "image_url",
            ),
        ),
        ("Criminal Record", ("criminal_record",)),
    ),
    "employee": (
        ("Bio", ("full_name", "alias", "date_of_birth", "place_of_birth", "sex")),
        ("Education", ("education",)),
        ("Family", ("family_relation",)),
        (
            "Contact Details",
            (
                "contact_office",
                "email",
                "phone",
                "url",
                "social_handle_twitter",
                "social_handle_facebook",
                "social_handle_instagram",
            ),
        ),
        ("Career", ("employer", "job_title", "career_event")),
        ("Awards", ("award",)),
        ("Research", ("research_interest",)),
        ("Honours", ("honor",)),
    ),
    "matrimonial": (
        ("Bio", ("full_name", "alias", "job_title", "sex")),
        ("Physical Stats & more", ("height_m", "weight_kg", "eye_color", "hair_color")),
        (
            "Personal Life",
            (
                "date_of_birth",
                "place_of_birth",
                "location",
                "nationality",
                "religion",
                "ethnicity",
                "education",
                "family_relation",
                "interest",
            ),
        ),
        ("Favourite Things", ("favourite",)),
        ("Partners and More", ("partner_history", "marital_status", "children", "net_worth")),
        ("Other habits", ("habit",)),
    ),
}


def section_plan(name: str) -> ReportTemplate:
    """The built-in section plan for ``criminal``, ``employee``, or ``matrimonial``."""
    plan = _PLANS.get(name)
    if plan is None:
        raise UnknownTemplateError(
            f"unknown template {name!r} (expected one of {', '.join(TEMPLATE_NAMES)})"
        )
    return ReportTemplate(name=name, sections=plan)


@dataclass(frozen=True)
class RenderedFact:
    """One line of a report: an attribute value with its source attributions."""

    attribute: str
    value: str
    sources: Tuple[str, ...]
    confidence: float


@dataclass(frozen=True)
class ReportSection:
    title: str
    facts: Tuple[RenderedFact, ...]


@dataclass(frozen=True)
class QueryEcho:
    """The classified query, echoed so a report is self-describing."""

    kind: str
    raw: str
    canonical: str
    platform: Optional[str]


@dataclass(frozen=True)
class CandidateSummary:
    visibility: float
    match: float
    cluster_size: int
    rejected_candidates: int


@dataclass(frozen=True)
class CollectionFailure:
    collector: str
    status: str
    detail: str


@dataclass(frozen=True)
class Report:
    """Everything a rendering needs, already ordered and deterministic."""

    template: str
    query: QueryEcho
    candidate: CandidateSummary
    sections: Tuple[ReportSection, ...]
    failures: Tuple[CollectionFailure, ...]
    generated_at: str

    def to_dict(self) -> dict:
        """The JSON document: the field names are its keys, plus ``schema_version``."""
        return {"schema_version": SCHEMA_VERSION, **asdict(self)}


def _section_from_dict(section: dict) -> ReportSection:
    facts = tuple(
        RenderedFact(**{**fact, "sources": tuple(fact["sources"])}) for fact in section["facts"]
    )
    return ReportSection(**{**section, "facts": facts})


def report_from_json(data: bytes | str) -> Report:
    """Parse a JSON rendering back into an equivalent :class:`Report`.

    Every object must carry exactly its dataclass's fields: a missing or an
    unexpected key is a :class:`ReportParseError`.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        payload = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ReportParseError(f"not valid JSON: {exc}") from exc
    try:
        if payload["schema_version"] != SCHEMA_VERSION:
            raise ReportParseError(
                f"unsupported schema_version {payload['schema_version']!r}"
            )
        fields = {key: value for key, value in payload.items() if key != "schema_version"}
        return Report(
            **{
                **fields,
                "query": QueryEcho(**fields["query"]),
                "candidate": CandidateSummary(**fields["candidate"]),
                "sections": tuple(map(_section_from_dict, fields["sections"])),
                "failures": tuple(CollectionFailure(**f) for f in fields["failures"]),
            }
        )
    except (KeyError, TypeError) as exc:
        raise ReportParseError(f"bad report structure: {exc}") from exc


def _merge_facts(records: Sequence[EvidenceRecord]) -> list[RenderedFact]:
    merged: dict[Tuple[str, str], dict] = {}
    for record in records:
        key = (record.attribute, record.value)
        slot = merged.setdefault(key, {"sources": set(), "confidence": 0.0})
        slot["sources"].add(record.source)
        slot["confidence"] = max(slot["confidence"], record.confidence)
    return [
        RenderedFact(
            attribute=attribute,
            value=value,
            sources=tuple(sorted(merged[(attribute, value)]["sources"])),
            confidence=merged[(attribute, value)]["confidence"],
        )
        for attribute, value in sorted(merged)
    ]


def build_report(
    best: Optional[CandidateProfile],
    filtered: Sequence[EvidenceRecord],
    template: ReportTemplate,
    outcomes: Iterable[CollectorOutcome],
    rejected_count: int,
    query: QueryInput,
    generated_at: str,
) -> Report:
    """Assemble a :class:`Report` from the pipeline's end products.

    Every filtered record appears in exactly one section; multi-source facts
    merge into one line with sources listed alphabetically.  Passing
    ``best=None`` (a run that found nothing) yields an empty-bodied report.
    """
    by_section: dict[str, list[EvidenceRecord]] = {}
    for record in filtered:
        title = template.section_of(record.attribute) or UNMAPPED_SECTION
        by_section.setdefault(title, []).append(record)

    sections = []
    for title, _ in template.sections:
        records = by_section.pop(title, None)
        if records:
            sections.append(ReportSection(title=title, facts=tuple(_merge_facts(records))))
    unmapped = by_section.pop(UNMAPPED_SECTION, None)
    if unmapped:
        sections.append(
            ReportSection(title=UNMAPPED_SECTION, facts=tuple(_merge_facts(unmapped)))
        )

    failures = tuple(
        CollectionFailure(
            collector=outcome.collector,
            status=outcome.status.value,
            detail=outcome.error_detail or "",
        )
        for outcome in sorted(outcomes, key=lambda o: o.collector)
        if outcome.status is not OutcomeStatus.SUCCESS
    )

    if best is None:
        candidate = CandidateSummary(
            visibility=0.0, match=0.0, cluster_size=0, rejected_candidates=rejected_count
        )
    else:
        candidate = CandidateSummary(
            visibility=best.visibility,
            match=best.match,
            cluster_size=len(best.records),
            rejected_candidates=rejected_count,
        )

    return Report(
        template=template.name,
        query=QueryEcho(
            kind=query.kind.value,
            raw=query.raw,
            canonical=query.canonical,
            platform=query.platform.value if query.platform else None,
        ),
        candidate=candidate,
        sections=tuple(sections),
        failures=failures,
        generated_at=generated_at,
    )


def _render_markdown(report: Report) -> str:
    query_bits = f"kind={report.query.kind}"
    if report.query.platform:
        query_bits += f", platform={report.query.platform}"
    query_bits += f", canonical={report.query.canonical}"
    lines = [
        f"# Profile report: {report.query.canonical}",
        "",
        f"- Template: {report.template}",
        f"- Query: {query_bits}",
        f"- Generated: {report.generated_at}",
        (
            f"- Candidate: {report.candidate.cluster_size} facts, "
            f"visibility {report.candidate.visibility:.4f}, "
            f"match {report.candidate.match:.4f}, "
            f"rejected candidates: {report.candidate.rejected_candidates}"
        ),
    ]
    for section in report.sections:
        lines.append("")
        lines.append(f"## {section.title}")
        lines.append("")
        for fact in section.facts:
            sources = ", ".join(fact.sources)
            lines.append(f"- {fact.attribute}: {fact.value} — sources: {sources}")
    if report.failures:
        lines.append("")
        lines.append("## Collection failures")
        lines.append("")
        for failure in report.failures:
            lines.append(f"- {failure.collector}: {failure.status} ({failure.detail})")
    return "\n".join(lines) + "\n"


def _render_csv(report: Report) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["section", "attribute", "value", "sources", "confidence"])
    for section in report.sections:
        for fact in section.facts:
            writer.writerow(
                [
                    section.title,
                    fact.attribute,
                    fact.value,
                    ";".join(fact.sources),
                    str(fact.confidence),
                ]
            )
    return buffer.getvalue()


def render(report: Report, fmt: str) -> bytes:
    """Render to ``md``, ``json``, or ``csv`` as UTF-8 bytes with LF endings.

    Identical reports render to identical bytes; JSON uses sorted keys and
    round-trips through :func:`report_from_json`.
    """
    if fmt == "md":
        text = _render_markdown(report)
    elif fmt == "json":
        text = json.dumps(report.to_dict(), sort_keys=True, indent=2, ensure_ascii=False)
        text += "\n"
    elif fmt == "csv":
        text = _render_csv(report)
    else:
        raise ValueError(f"unknown report format {fmt!r} (expected md, json, or csv)")
    return text.encode("utf-8")
