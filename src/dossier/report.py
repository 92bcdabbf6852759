"""Templated profile reports: section plans, assembly, and rendering.

A template decides which attribute goes under which heading; whatever the
template does not claim lands in a trailing "Unmapped Evidence" section, so
no filtered record is ever silently dropped.  Rendering is deterministic
byte for byte once the generation timestamp is pinned.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional, Sequence, Tuple

from .aggregate import CandidateProfile, EvidenceRecord
from .collect.records import CollectorOutcome, OutcomeStatus
from .errors import DossierError
from .inputs import QueryInput
from .vocab import ATTRIBUTE_KEYS

REPORT_FORMATS = ("md", "json", "csv")
UNMAPPED_SECTION = "Unmapped Evidence"
SCHEMA_VERSION = 1


class UnknownTemplateError(DossierError):
    """No section plan exists under the requested template name."""


@dataclass(frozen=True)
class ReportTemplate:
    """An ordered section plan: heading -> attribute keys shown under it."""

    name: str
    sections: Tuple[Tuple[str, Tuple[str, ...]], ...]
    # attribute -> the title of its section, built with the checks below.
    _titles: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        titles: dict[str, str] = {}
        # Each section renders under its own heading, so no title may repeat
        # or name the trailing section that takes unmapped facts.
        taken = {UNMAPPED_SECTION}
        for title, attributes in self.sections:
            if not title:
                raise ValueError("section titles must be non-empty")
            if title in taken:
                raise ValueError(f"section title {title!r} is repeated or reserved")
            taken.add(title)
            for attribute in attributes:
                if attribute not in ATTRIBUTE_KEYS:
                    raise ValueError(f"unknown attribute key {attribute!r}")
                if attribute in titles:
                    raise ValueError(f"attribute {attribute!r} mapped twice")
                titles[attribute] = title
        object.__setattr__(self, "_titles", titles)

    def section_of(self, attribute: str) -> Optional[str]:
        return self._titles.get(attribute)


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


# Built and checked once; a template is frozen, so every query shares it.
_TEMPLATES = {name: ReportTemplate(name=name, sections=plan) for name, plan in _PLANS.items()}
TEMPLATE_NAMES = tuple(_TEMPLATES)


def section_plan(name: str) -> ReportTemplate:
    """The built-in section plan for ``criminal``, ``employee``, or ``matrimonial``."""
    template = _TEMPLATES.get(name)
    if template is None:
        raise UnknownTemplateError(
            f"unknown template {name!r} (expected one of {', '.join(TEMPLATE_NAMES)})"
        )
    return template


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
    # A fact's section depends only on its attribute, so merging every
    # (attribute, value) first and placing each merged fact after is the
    # same as placing records and merging within each section.
    sources: dict[Tuple[str, str], set[str]] = {}
    confidence: dict[Tuple[str, str], float] = {}
    for record in filtered:
        key = (record.attribute, record.value)
        sources.setdefault(key, set()).add(record.source)
        confidence[key] = max(confidence.get(key, 0.0), record.confidence)
    placed: dict[str, list[RenderedFact]] = {}
    for key in sorted(sources):
        attribute, value = key
        title = template.section_of(attribute) or UNMAPPED_SECTION
        fact = RenderedFact(attribute, value, tuple(sorted(sources[key])), confidence[key])
        placed.setdefault(title, []).append(fact)
    sections = tuple(
        ReportSection(title=title, facts=tuple(placed[title]))
        for title in [*(title for title, _ in template.sections), UNMAPPED_SECTION]
        if title in placed
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

    candidate = CandidateSummary(
        visibility=best.visibility if best is not None else 0.0,
        match=best.match if best is not None else 0.0,
        cluster_size=len(best.records) if best is not None else 0,
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
        sections=sections,
        failures=failures,
        generated_at=generated_at,
    )


def _one_line(text: str) -> str:
    """*text* with CR and LF shown as ``\\r`` and ``\\n``, so it stays one line."""
    if "\n" in text or "\r" in text:
        return text.replace("\r", "\\r").replace("\n", "\\n")
    return text


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
    # Each entry is one line of the template; a line break inside a value,
    # a name or a detail must not start a heading or an item of its own.
    return "\n".join(map(_one_line, lines)) + "\n"


def _render_csv(report: Report) -> str:
    import csv  # only this format needs it

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
    carries ``schema_version``.
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
