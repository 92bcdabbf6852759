"""Line-delimited JSON fact corpus and the corpus-backed collector.

The corpus stands in for live people-search services so the whole pipeline
can run and be tested offline.  Each line is one fact about one subject,
tagged with the collector names allowed to "see" it; a corpus-backed
collector returns exactly the facts it could plausibly have found.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Tuple

from ..errors import DossierError
from ..inputs import InputKind, QueryInput, canonical_identifier, hard_identifier_attribute
from ..similarity import NAME_MATCH_THRESHOLD, token_set_jaccard
from ..vocab import ATTRIBUTE_KEYS, NAME_ATTRIBUTES
from .records import RawRecord

_CORPUS_FIELDS = frozenset({"subject_id", "attribute", "value", "platforms", "confidence"})

# The host of a lowercased URL: an optional "scheme://" and "userinfo@" are
# skipped, and the host ends at a port, path, query or fragment.
_URL_HOST_RE = re.compile(r"(?:(?:[a-z][a-z0-9+.-]*:)?//)?(?:[^/?#@]*@)?([^/?#:]*)")


class CorpusError(DossierError):
    """Base class for corpus loading failures."""


class CorpusIOError(CorpusError):
    """The corpus file cannot be opened or read."""


class CorpusParseError(CorpusError):
    """A corpus line is not a valid fact object."""

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class UnknownAttributeError(CorpusError):
    """A corpus line uses an attribute key outside the controlled vocabulary."""

    def __init__(self, line_number: int, key: str) -> None:
        super().__init__(f"line {line_number}: unknown attribute {key!r}")
        self.line_number = line_number
        self.key = key


@dataclass(frozen=True)
class CorpusFact:
    """One subject attribute plus the collector names that may return it."""

    subject_id: str
    attribute: str
    value: str
    platforms: frozenset
    confidence: float


class Corpus:
    """Facts grouped by subject, with deterministic iteration order."""

    __slots__ = ("_by_subject",)

    def __init__(self, facts: Iterable[CorpusFact]) -> None:
        grouped: dict[str, list[CorpusFact]] = {}
        for fact in facts:
            grouped.setdefault(fact.subject_id, []).append(fact)
        self._by_subject: dict[str, Tuple[CorpusFact, ...]] = {
            subject: tuple(sorted(group, key=lambda f: (f.attribute, f.value, f.confidence)))
            for subject, group in sorted(grouped.items())
        }

    @property
    def subjects(self) -> Tuple[str, ...]:
        return tuple(self._by_subject)

    def facts_for(self, subject_id: str) -> Tuple[CorpusFact, ...]:
        return self._by_subject.get(subject_id, ())

    def __len__(self) -> int:
        return sum(len(group) for group in self._by_subject.values())


def _fact_from_line(line_number: int, line: str) -> CorpusFact:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusParseError(line_number, f"not valid JSON ({exc.msg})") from exc
    if not isinstance(payload, dict):
        raise CorpusParseError(line_number, "fact must be a JSON object")
    if set(payload) != _CORPUS_FIELDS:
        missing = _CORPUS_FIELDS - set(payload)
        extra = set(payload) - _CORPUS_FIELDS
        raise CorpusParseError(
            line_number,
            f"fact keys must be exactly {sorted(_CORPUS_FIELDS)} "
            f"(missing {sorted(missing)}, unexpected {sorted(extra)})",
        )
    subject_id = payload["subject_id"]
    attribute = payload["attribute"]
    value = payload["value"]
    platforms = payload["platforms"]
    confidence = payload["confidence"]
    if not isinstance(subject_id, str) or not subject_id:
        raise CorpusParseError(line_number, "subject_id must be a non-empty string")
    if not isinstance(attribute, str):
        raise CorpusParseError(line_number, "attribute must be a string")
    if attribute not in ATTRIBUTE_KEYS:
        raise UnknownAttributeError(line_number, attribute)
    if not isinstance(value, str):
        raise CorpusParseError(line_number, "value must be a string")
    if (
        not isinstance(platforms, list)
        or not platforms
        or not all(isinstance(p, str) and p for p in platforms)
    ):
        raise CorpusParseError(line_number, "platforms must be a non-empty list of names")
    if isinstance(confidence, bool) or not isinstance(confidence, (int, float)):
        raise CorpusParseError(line_number, "confidence must be a number")
    if not 0.0 <= float(confidence) <= 1.0:
        raise CorpusParseError(line_number, "confidence must be within [0, 1]")
    return CorpusFact(
        subject_id=subject_id,
        attribute=attribute,
        value=value,
        platforms=frozenset(platforms),
        confidence=float(confidence),
    )


def load_corpus(path: str | Path) -> Corpus:
    """Parse a line-delimited JSON corpus file.  Blank lines are skipped."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CorpusIOError(f"cannot read corpus {path}: {exc}") from exc
    facts = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        facts.append(_fact_from_line(line_number, line))
    return Corpus(facts)


def bundled_corpus_path() -> Path:
    """Filesystem path of the case-study corpus shipped with the package."""
    return Path(resources.files("dossier").joinpath("data/case_studies.jsonl"))


def _on_domain(host: str, domain: str) -> bool:
    """Whether *host* is *domain* or a subdomain of it, on a label boundary."""
    host = host.rstrip(".")
    return host == domain or host.endswith("." + domain)


def _fact_on_domain(fact: CorpusFact, domain: str) -> bool:
    """Whether the host of an email or URL fact is on *domain*."""
    lowered = fact.value.strip().lower()
    if domain not in lowered:  # cheap prefilter: most values miss outright
        return False
    if fact.attribute == "email":
        return _on_domain(lowered.rpartition("@")[2], domain)
    return _on_domain(_URL_HOST_RE.match(lowered).group(1), domain)


def _subject_matches(facts: Tuple[CorpusFact, ...], query: QueryInput) -> bool:
    kind = query.kind
    if kind in (InputKind.EMAIL, InputKind.PHONE, InputKind.SOCIAL_HANDLE):
        attribute = hard_identifier_attribute(kind, query.platform)
        return any(
            fact.attribute == attribute
            and canonical_identifier(attribute, fact.value, query.region) == query.canonical
            for fact in facts
        )
    if kind in (InputKind.NAME, InputKind.KEYWORD):
        return any(
            fact.attribute in NAME_ATTRIBUTES
            and token_set_jaccard(query.canonical, fact.value) >= NAME_MATCH_THRESHOLD
            for fact in facts
        )
    if kind is InputKind.DOMAIN:
        return any(
            fact.attribute in ("email", "url") and _fact_on_domain(fact, query.canonical)
            for fact in facts
        )
    # Image queries have no offline matching rule; a corpus-backed image
    # collector simply finds nothing.
    return False


def _batch_locator(collector_name: str, subject_id: str) -> str:
    digest = hashlib.sha256(f"{collector_name}\x1f{subject_id}".encode("utf-8")).hexdigest()
    return f"{collector_name}/{digest[:12]}"


def corpus_collect(corpus: Corpus, collector, query: QueryInput) -> list[RawRecord]:
    """Facts visible to *collector* for every subject matching *query*.

    Identifier queries (email, phone, social handle) match subjects owning
    the identical canonical identifier fact; name and keyword queries match
    on token-set overlap with any full_name or alias fact; domain queries
    match subjects with an email or a URL whose host is the domain or one
    of its subdomains.  Corpus phone numbers written without a leading
    ``+`` are read in the query's region.  One provenance batch is emitted
    per matched subject, so everything returned about one person hangs
    together downstream.
    """
    records: list[RawRecord] = []
    for subject_id in corpus.subjects:
        facts = corpus.facts_for(subject_id)
        if not _subject_matches(facts, query):
            continue
        locator = _batch_locator(collector.name, subject_id)
        for fact in facts:
            if collector.name in fact.platforms:
                records.append(
                    RawRecord(
                        attribute=fact.attribute,
                        value=fact.value,
                        confidence=fact.confidence,
                        provenance=locator,
                    )
                )
    return records
