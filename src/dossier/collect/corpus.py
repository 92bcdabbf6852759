"""Line-delimited JSON fact corpus and the corpus-backed collector.

The corpus stands in for live people-search services so the whole pipeline
can run and be tested offline.  Each line is one fact about one subject,
tagged with the collector names allowed to "see" it; a corpus-backed
collector returns exactly the facts it could plausibly have found.
"""

from __future__ import annotations

import hashlib
import json
import operator
import re
import threading
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence, Tuple

from ..errors import DossierError
from ..inputs import (
    DEFAULT_REGION,
    InputKind,
    QueryInput,
    canonical_identifier,
    hard_identifier_attribute,
)
from ..similarity import NAME_MATCH_THRESHOLD, jaccard, name_tokens
from ..vocab import ATTRIBUTE_KEYS, NAME_ATTRIBUTES
from .records import RawRecord

_CORPUS_FIELDS = frozenset({"subject_id", "attribute", "value", "platforms", "confidence"})
# Each attribute key maps to the vocabulary's own string, so facts share it.
_ATTRIBUTES = {key: key for key in ATTRIBUTE_KEYS}
_PLATFORMS_MESSAGE = "platforms must be a non-empty list of names"
_RANGE_MESSAGE = "confidence must be within [0, 1]"
# Decodes one JSON value at the start of a string, skipping json.loads's
# wrapper; see _fact_from_line.
_raw_decode = json.JSONDecoder().raw_decode

# The fast path's pattern (see load_corpus): one fact line as
# json.dumps(fact, sort_keys=True) writes it with its default separators,
# newline optional; perfbench/gen.py writes this layout.  A string holds no
# escape and no control character, so its raw text is its value.  A
# platforms list is captured loosely; its raw text is trusted only once a
# whole line holding it has been validated.  A number follows the JSON
# scanner's grammar with [0-9], never \d, which also matches the other
# Unicode digits that float() reads but JSON refuses.
_STRING = r'"([^"\\\x00-\x1f]*)"'
_FAST_LINE = re.compile(
    r'\{"attribute": ' + _STRING
    + r', "confidence": (-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)'
    + r', "platforms": (\[[^\]]*\])'
    + r', "subject_id": ' + _STRING
    + r', "value": ' + _STRING
    + r"\}\n?"
).fullmatch

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


@dataclass(frozen=True, slots=True)
class CorpusFact:
    """One subject attribute plus the collector names that may return it."""

    subject_id: str
    attribute: str
    value: str
    platforms: frozenset
    confidence: float


# One fact as a Corpus stores it: (attribute, value, confidence, platforms).
# Its subject id is the key its row tuple is stored under.
_Row = Tuple[str, str, float, frozenset]
# Rows of one subject are sorted by (attribute, value, confidence), stably;
# a frozenset has no total order, so platforms never take part.
_ROW_ORDER = operator.itemgetter(0, 1, 2)


class Corpus:
    """Facts grouped by subject, with deterministic iteration order.

    Each fact is stored as a plain row, not as a :class:`CorpusFact`;
    :meth:`facts_for` builds equal ``CorpusFact`` objects on each call.
    Queries are answered from indexes that each key family builds on its
    first use and keeps: a corpus is read-only once loaded, so an index
    never goes stale.  A lock makes each build happen once even when
    several threads ask at the same time.  Each posting is a sorted tuple of
    subject ids, and equal postings are one object in every family.
    """

    __slots__ = ("_by_subject", "_indexes", "_index_lock", "_postings")

    def __init__(self, facts: Iterable[CorpusFact]) -> None:
        grouped: dict[str, list[_Row]] = {}
        for fact in facts:
            grouped.setdefault(fact.subject_id, []).append(
                (fact.attribute, fact.value, fact.confidence, fact.platforms)
            )
        self._set_rows(grouped)

    def _set_rows(self, grouped: dict[str, list[_Row]]) -> None:
        """Fill a new corpus from subject id -> its rows in any order; the
        one constructor behind ``Corpus(facts)`` and :func:`load_corpus`."""
        self._by_subject: dict[str, Tuple[_Row, ...]] = {
            subject: tuple(sorted(rows, key=_ROW_ORDER))
            for subject, rows in sorted(grouped.items())
        }
        self._indexes: dict[tuple, dict[str, Tuple[str, ...]]] = {}
        self._index_lock = threading.Lock()
        self._postings: dict[Tuple[str, ...], Tuple[str, ...]] = {}

    @property
    def subjects(self) -> Tuple[str, ...]:
        return tuple(self._by_subject)

    def facts_for(self, subject_id: str) -> Tuple[CorpusFact, ...]:
        """The facts of *subject_id* in (attribute, value, confidence) order,
        built anew on each call; ``()`` for a subject the corpus lacks."""
        return tuple(
            CorpusFact(subject_id, attribute, value, platforms, confidence)
            for attribute, value, confidence, platforms in self._by_subject.get(subject_id, ())
        )

    def __len__(self) -> int:
        return sum(len(group) for group in self._by_subject.values())

    def _index(self, key: tuple, build: Callable[[], dict]) -> dict[str, Tuple[str, ...]]:
        index = self._indexes.get(key)
        if index is None:
            with self._index_lock:
                index = self._indexes.get(key)
                if index is None:
                    index = self._indexes[key] = self._frozen(build())
        return index

    def _frozen(self, index: dict[str, list[str]]) -> dict[str, Tuple[str, ...]]:
        """*index* with each posting list replaced, in place, by the shared
        tuple of its subject ids, so no second copy of the lists is held.

        Runs under ``_index_lock``, which also guards ``_postings``.
        """
        postings = self._postings
        for key, ids in index.items():
            ids = tuple(ids)
            index[key] = postings.setdefault(ids, ids)
        return index

    def _matching_subjects(self, query: QueryInput) -> Sequence[str]:
        """Ids of the subjects *query* matches, sorted (see :func:`corpus_collect`)."""
        kind = query.kind
        by_subject = self._by_subject
        if kind in (InputKind.EMAIL, InputKind.PHONE, InputKind.SOCIAL_HANDLE):
            attribute = hard_identifier_attribute(kind, query.platform)
            if attribute is None:
                return ()
            # Only a phone's canonical form depends on the region.
            region = query.region if attribute == "phone" else None
            index = self._index(
                ("identifier", attribute, region),
                lambda: _identifier_index(by_subject, attribute, query.region),
            )
            return index.get(query.canonical, ())
        if kind in (InputKind.NAME, InputKind.KEYWORD):
            index = self._index(("name",), lambda: _name_index(by_subject))
            tokens = name_tokens(query.canonical)
            candidates = set()
            for token in tokens:
                candidates.update(index.get(token, ()))
            # Jaccard >= 0.5 needs a shared token, so only candidates can match.
            return [
                subject_id
                for subject_id in sorted(candidates)
                if any(
                    attribute in NAME_ATTRIBUTES
                    and jaccard(tokens, name_tokens(value)) >= NAME_MATCH_THRESHOLD
                    for attribute, value, _, _ in by_subject[subject_id]
                )
            ]
        if kind is InputKind.DOMAIN:
            index = self._index(("host",), lambda: _host_index(by_subject))
            return index.get(query.canonical, ())
        # Image queries have no offline matching rule; a corpus-backed image
        # collector simply finds nothing.
        return ()


def _add(index: dict[str, list[str]], key: str, subject_id: str) -> None:
    # Subjects are visited in sorted order, so each list stays sorted and a
    # repeat can only be the last entry.
    ids = index.setdefault(key, [])
    if not ids or ids[-1] != subject_id:
        ids.append(subject_id)


def _identifier_index(
    by_subject: Mapping[str, Tuple[_Row, ...]], attribute: str, region: str
) -> dict[str, list[str]]:
    """Canonical *attribute* value (national phones read in *region*) -> subject ids."""
    index: dict[str, list[str]] = {}
    for subject_id, rows in by_subject.items():
        for row_attribute, value, _, _ in rows:
            if row_attribute == attribute:
                canonical = canonical_identifier(attribute, value, region)
                if canonical is not None:
                    # The stored string, when it is already canonical, so
                    # the key is not a second copy of it.
                    _add(index, value if canonical == value else canonical, subject_id)
    return index


def _name_index(by_subject: Mapping[str, Tuple[_Row, ...]]) -> dict[str, list[str]]:
    """Name token of any full_name or alias -> subject ids."""
    index: dict[str, list[str]] = {}
    for subject_id, rows in by_subject.items():
        for attribute, value, _, _ in rows:
            if attribute in NAME_ATTRIBUTES:
                for token in name_tokens(value):
                    _add(index, token, subject_id)
    return index


def _host_index(by_subject: Mapping[str, Tuple[_Row, ...]]) -> dict[str, list[str]]:
    """Every label suffix of an email or URL host -> subject ids.

    A domain is found exactly under the hosts that equal it or are its
    subdomains on a label boundary: ``ample.com`` is a label suffix of
    ``blog.ample.com`` but not of ``example.com``.  Trailing dots are
    dropped from a host.
    """
    index: dict[str, list[str]] = {}
    for subject_id, rows in by_subject.items():
        for attribute, value, _, _ in rows:
            if attribute == "email":
                # The host of the email the aggregator keeps; a malformed
                # email has none.  (No email rule depends on the region.)
                email = canonical_identifier("email", value, DEFAULT_REGION)
                if email is None:
                    continue
                host = email.rpartition("@")[2]
            elif attribute == "url":
                host = _URL_HOST_RE.match(value.strip().lower()).group(1)
            else:
                continue
            labels = host.rstrip(".").split(".")
            for start in range(len(labels)):
                _add(index, ".".join(labels[start:]), subject_id)
    return index


def _confidence(number: str | int | float, confidences: dict[float, float]) -> Optional[float]:
    """*number*, a JSON number's text or its decoded value, as a float in
    [0, 1], shared through *confidences* unless it is a zero; None when it is
    out of range, or is the text ``-0``, which JSON reads as ``0`` but
    ``float()`` as ``-0.0``.

    The one home of the confidence rules: ``_fact_from_line`` calls it on
    every decoded confidence, and :func:`load_corpus`'s fast path on each
    confidence text the first time it meets it.
    """
    try:
        confidence = float(number)
    except OverflowError:  # an integer too large for a float
        return None
    if not 0.0 <= confidence <= 1.0 or number == "-0":
        return None
    if confidence:  # -0.0 == 0.0, so sharing a zero could flip its sign
        confidence = confidences.setdefault(confidence, confidence)
    return confidence


def _fact_from_line(
    line_number: int,
    line: str,
    platform_sets: dict[tuple, frozenset],
    confidences: dict[float, float],
) -> Tuple[str, _Row]:
    """The subject id and row of one fact line, decoded as JSON and checked,
    or the :class:`CorpusError` that says why the line is no fact."""
    # A line that raw_decode takes whole is exactly what json.loads would
    # return; anything else (surrounding whitespace, a BOM, trailing data,
    # malformed JSON, nesting past the recursion limit) goes to json.loads
    # for its result or its own message.
    try:
        payload, end = _raw_decode(line)
    except (ValueError, RecursionError):
        end = -1
    if end != len(line):
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusParseError(line_number, f"not valid JSON ({exc.msg})") from exc
        except ValueError as exc:  # an integer past int's digit limit
            raise CorpusParseError(line_number, f"not valid JSON ({exc})") from exc
        except RecursionError as exc:
            raise CorpusParseError(line_number, "not valid JSON (nested too deeply)") from exc
    if not isinstance(payload, dict):
        raise CorpusParseError(line_number, "fact must be a JSON object")
    if payload.keys() != _CORPUS_FIELDS:
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
    shared_attribute = _ATTRIBUTES.get(attribute)
    if shared_attribute is None:
        raise UnknownAttributeError(line_number, attribute)
    if not isinstance(value, str):
        raise CorpusParseError(line_number, "value must be a string")
    if not isinstance(platforms, list):
        raise CorpusParseError(line_number, _PLATFORMS_MESSAGE)
    key = tuple(platforms)
    try:
        platform_set = platform_sets.get(key)
    except TypeError as exc:  # a list or object entry, which is no name either
        raise CorpusParseError(line_number, _PLATFORMS_MESSAGE) from exc
    if platform_set is None:
        # Only a list of names is ever cached, so a hit is already valid.
        if not platforms or not all(isinstance(p, str) and p for p in platforms):
            raise CorpusParseError(line_number, _PLATFORMS_MESSAGE)
        platform_set = platform_sets[key] = frozenset(platforms)
    if isinstance(confidence, bool) or not isinstance(confidence, (int, float)):
        raise CorpusParseError(line_number, "confidence must be a number")
    confidence = _confidence(confidence, confidences)
    if confidence is None:
        raise CorpusParseError(line_number, _RANGE_MESSAGE)
    return subject_id, (shared_attribute, value, confidence, platform_set)


def load_corpus(path: str | Path) -> Corpus:
    """Parse a line-delimited JSON corpus file in one streaming pass.

    A line ends in ``\\n`` or ``\\r\\n``; blank lines are skipped.  Each fact
    goes straight into its subject's list of rows; no :class:`CorpusFact` is
    built.  Repeated values are shared, not copied: facts with equal
    platform lists hold one frozenset, a subject's id is stored once, and
    facts with equal non-zero confidences hold one float, however the
    number is written.

    A line as ``json.dumps(fact, sort_keys=True)`` writes it, whose strings
    hold no escape, whose confidence is in range and is not the integer
    ``-0``, and whose platforms text is one an earlier line already proved
    valid, is read by one regular expression.  Each confidence text is
    checked and converted once, by ``_confidence``, and then looked up, so
    a text not seen before stays on this path too.  Every other line, in
    any other key order or layout too, goes through ``_fact_from_line``,
    which gives the same fact, or the error, that ``json.loads`` and the
    checks give.
    """
    path = Path(path)
    grouped: dict[str, list[_Row]] = {}
    platform_sets: dict[tuple, frozenset] = {}
    # Raw platforms text of a validated line -> its shared frozenset.
    platform_texts: dict[str, frozenset] = {}
    confidences: dict[float, float] = {}
    # Confidence text -> what _confidence made of it.
    confidence_texts: dict[str, Optional[float]] = {}
    try:
        with path.open(encoding="utf-8") as stream:
            for line_number, line in enumerate(stream, start=1):
                match = _FAST_LINE(line)
                if match is not None:
                    attribute, confidence_text, platforms_text, subject_id, value = match.groups()
                    shared_attribute = _ATTRIBUTES.get(attribute)
                    platform_set = platform_texts.get(platforms_text)
                    try:
                        confidence = confidence_texts[confidence_text]
                    except KeyError:
                        confidence = confidence_texts[confidence_text] = _confidence(
                            confidence_text, confidences
                        )
                    # The rest of _fact_from_line's checks: a non-empty
                    # subject id and an attribute in the vocabulary.
                    if (
                        subject_id
                        and shared_attribute is not None
                        and platform_set is not None
                        and confidence is not None
                    ):
                        grouped.setdefault(subject_id, []).append(
                            (shared_attribute, value, confidence, platform_set)
                        )
                        continue
                elif not line.strip():
                    continue
                # Without its newline, so a JSON error reads as for the bare line.
                subject_id, row = _fact_from_line(
                    line_number, line.rstrip("\n"), platform_sets, confidences
                )
                if match is not None:
                    platform_texts[platforms_text] = row[3]
                grouped.setdefault(subject_id, []).append(row)
    except OSError as exc:
        raise CorpusIOError(f"cannot read corpus {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CorpusIOError(f"cannot read corpus {path}: not UTF-8 ({exc.reason})") from exc
    corpus = Corpus.__new__(Corpus)
    corpus._set_rows(grouped)
    return corpus


def bundled_corpus_path() -> Path:
    """Filesystem path of the case-study corpus shipped with the package."""
    return Path(resources.files("dossier").joinpath("data/case_studies.jsonl"))


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
    by_subject = corpus._by_subject
    for subject_id in corpus._matching_subjects(query):
        locator = _batch_locator(collector.name, subject_id)
        for attribute, value, confidence, platforms in by_subject[subject_id]:
            if collector.name in platforms:
                records.append(
                    RawRecord(
                        attribute=attribute,
                        value=value,
                        confidence=confidence,
                        provenance=locator,
                    )
                )
    return records
