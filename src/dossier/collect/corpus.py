"""Line-delimited JSON fact corpus and the corpus-backed collector.

The corpus stands in for live people-search services so the whole pipeline
can run and be tested offline.  Each line is one fact about one subject,
tagged with the collector names allowed to "see" it; a corpus-backed
collector returns exactly the facts it could plausibly have found.
"""

from __future__ import annotations

import json
import operator
import re
import threading
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from ..errors import DossierError
from ..inputs import (
    DEFAULT_REGION,
    InputKind,
    QueryInput,
    canonical_host,
    canonical_identifier,
    content_id,
    hard_identifier_attribute,
    is_utf8_text,
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
# whole line holding it has been validated.  A confidence is captured
# loosely too, and _confidence checks each text against _JSON_NUMBER once.
_STRING = r'"([^"\\\x00-\x1f]*)"'
_FAST_LINE = re.compile(
    r'\{"attribute": ' + _STRING
    + r', "confidence": ([-+.0-9eE]+)'
    + r', "platforms": (\[[^\]]*\])'
    + r', "subject_id": ' + _STRING
    + r', "value": ' + _STRING
    + r"\}\n?"
).fullmatch

# The JSON scanner's number grammar, with [0-9], never \d, which also matches
# the other Unicode digits that float() reads but JSON refuses.
_JSON_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?").fullmatch

# The host of a URL, as written: an optional "scheme://" (in either case)
# and "userinfo@" are skipped, and the host ends at a port, path, query or
# fragment.
_URL_HOST_RE = re.compile(r"(?:(?:[a-zA-Z][a-zA-Z0-9+.-]*:)?//)?(?:[^/?#@]*@)?([^/?#:]*)")


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


# One fact as load_corpus and Corpus(facts) build it: (attribute, value,
# confidence, platforms), where platforms is an index into the corpus's tuple
# of distinct platform sets.  A row lives only until _flat sorts and
# flattens its subject's rows; a corpus keeps no row.
_Row = Tuple[str, str, float, int]
# Rows of one subject are sorted by (attribute, value, confidence), stably;
# platforms never take part.
_ROW_ORDER = operator.itemgetter(0, 1, 2)
# A subject's facts as a Corpus stores them: one flat tuple of its sorted
# rows' fields, (attribute, value, confidence, platforms, attribute, ...).  It
# holds only strings and numbers, so the garbage collector stops tracking it
# the first time it sees it.
_Flat = Tuple[object, ...]
# An index's value for one key: the bare id of the one subject that holds
# the key, or the sorted tuple of the ids of several (a list until _frozen).
# Subject ids are always str, so ``type(posting) is str`` tells the two apart.
_Posting = str | Tuple[str, ...]


def _flat(rows: list[_Row]) -> _Flat:
    """*rows*, sorted in place (see _ROW_ORDER), as one flat tuple."""
    rows.sort(key=_ROW_ORDER)
    return tuple(chain.from_iterable(rows))


def _rows(flat: _Flat) -> Iterator[_Row]:
    """The rows of a flat tuple, in order: its fields four at a time."""
    fields = iter(flat)
    return zip(fields, fields, fields, fields)


class Corpus:
    """Facts grouped by subject, with deterministic iteration order.

    A subject's facts are stored as one flat tuple of strings and numbers,
    four fields per fact (attribute, value, confidence, platforms), not as
    :class:`CorpusFact` objects or a tuple per fact; a fact's platforms are
    an index into one tuple that holds each distinct platform set once.
    :meth:`facts_for` builds equal ``CorpusFact`` objects on each call, and
    equal platform sets are one frozenset in all of them.
    Queries are answered from indexes that each key family builds on its
    first use and keeps: a corpus is read-only once loaded, so an index
    never goes stale.  A lock makes each build happen once even when
    several threads ask at the same time.  A key that one subject holds maps
    to that subject's id itself, the very string the corpus keys the
    subject's facts by, so it costs the index no object of its own; a key
    that several subjects hold maps to the sorted tuple of their ids.
    """

    __slots__ = ("_by_subject", "_platform_sets", "_indexes", "_index_lock")

    def __init__(self, facts: Iterable[CorpusFact]) -> None:
        grouped: dict[str, list[_Row]] = {}
        set_index: dict[frozenset, int] = {}
        for fact in facts:
            platforms = set_index.setdefault(fact.platforms, len(set_index))
            grouped.setdefault(fact.subject_id, []).append(
                (fact.attribute, fact.value, fact.confidence, platforms)
            )
        self._set_rows(grouped, set_index)

    def _set_rows(
        self, grouped: Mapping[str, _Flat | list[_Row]], set_index: dict[frozenset, int]
    ) -> None:
        """Fill a new corpus from subject id -> its rows, as a flat tuple
        already in order or as a list of rows in any order, and platform set
        -> the index rows hold for it, numbered from 0 in insertion order;
        the one constructor behind ``Corpus(facts)`` and :func:`load_corpus`."""
        self._by_subject: dict[str, _Flat] = {
            subject: rows if type(rows) is tuple else _flat(rows)
            for subject, rows in sorted(grouped.items())
        }
        self._platform_sets: Tuple[frozenset, ...] = tuple(set_index)
        self._indexes: dict[tuple, dict[str, _Posting]] = {}
        self._index_lock = threading.Lock()

    @property
    def subjects(self) -> Tuple[str, ...]:
        return tuple(self._by_subject)

    def facts_for(self, subject_id: str) -> Tuple[CorpusFact, ...]:
        """The facts of *subject_id* in (attribute, value, confidence) order,
        built anew on each call; ``()`` for a subject the corpus lacks."""
        platform_sets = self._platform_sets
        flat = self._by_subject.get(subject_id, ())
        return tuple(
            CorpusFact(subject_id, attribute, value, platform_sets[platforms], confidence)
            for attribute, value, confidence, platforms in _rows(flat)
        )

    def __len__(self) -> int:
        return sum(map(len, self._by_subject.values())) // 4  # fields per fact

    def _index(self, key: tuple, build: Callable[[], dict]) -> dict[str, _Posting]:
        """The index *key* names, which *build* makes on first use, once,
        under the lock; each key maps to a bare id or a tuple (_Posting)."""
        index = self._indexes.get(key)
        if index is None:
            with self._index_lock:
                index = self._indexes.get(key)
                if index is None:
                    index = self._indexes[key] = _frozen(build())
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
            return _subjects(index.get(query.canonical, ()))
        if kind in (InputKind.NAME, InputKind.KEYWORD):
            index = self._index(("name",), lambda: _name_index(by_subject))
            tokens = name_tokens(query.canonical)
            candidates = set()
            for token in tokens:
                candidates.update(_subjects(index.get(token, ())))
            # Jaccard >= 0.5 needs a shared token, so only candidates can match.
            return [
                subject_id
                for subject_id in sorted(candidates)
                if any(
                    attribute in NAME_ATTRIBUTES
                    and jaccard(tokens, name_tokens(value)) >= NAME_MATCH_THRESHOLD
                    for attribute, value, _, _ in _rows(by_subject[subject_id])
                )
            ]
        # The one kind left is a domain.
        index = self._index(("host",), lambda: _host_index(by_subject))
        return _subjects(index.get(query.canonical, ()))


def _frozen(index: dict[str, str | list[str]]) -> dict[str, _Posting]:
    """*index* with each list of subject ids replaced, in place, by its
    tuple, so no second copy of the lists is held; a bare id stays as it is."""
    for key, ids in index.items():
        if type(ids) is list:
            index[key] = tuple(ids)
    return index


def _subjects(posting: _Posting) -> Sequence[str]:
    """The subject ids of one posting, sorted."""
    return (posting,) if type(posting) is str else posting


def _add(index: dict[str, str | list[str]], key: str, subject_id: str) -> None:
    # A key's first subject is stored as its bare id, and a second one
    # turns the posting into a list.  Subjects are visited in sorted order,
    # so each list stays sorted and a repeat can only be the last entry.
    ids = index.setdefault(key, subject_id)
    if type(ids) is str:
        if ids != subject_id:
            index[key] = [ids, subject_id]
    elif ids[-1] != subject_id:
        ids.append(subject_id)


def _identifier_index(
    by_subject: Mapping[str, _Flat], attribute: str, region: str
) -> dict[str, str | list[str]]:
    """Canonical *attribute* value (national phones read in *region*) -> subject ids."""
    index: dict[str, str | list[str]] = {}
    for subject_id, flat in by_subject.items():
        for row_attribute, value, _, _ in _rows(flat):
            if row_attribute == attribute:
                canonical = canonical_identifier(attribute, value, region)
                if canonical is not None:
                    # The stored string, when it is already canonical, so
                    # the key is not a second copy of it.
                    _add(index, value if canonical == value else canonical, subject_id)
    return index


def _name_index(by_subject: Mapping[str, _Flat]) -> dict[str, str | list[str]]:
    """Name token of any full_name or alias -> subject ids."""
    index: dict[str, str | list[str]] = {}
    for subject_id, flat in by_subject.items():
        for attribute, value, _, _ in _rows(flat):
            if attribute in NAME_ATTRIBUTES:
                for token in name_tokens(value):
                    _add(index, token, subject_id)
    return index


def _host_index(by_subject: Mapping[str, _Flat]) -> dict[str, str | list[str]]:
    """Every label suffix of an email or URL host -> subject ids.

    A domain is found exactly under the hosts that equal it or are its
    subdomains on a label boundary: ``ample.com`` is a label suffix of
    ``blog.ample.com`` but not of ``example.com``.  Each host is spelled by
    :func:`~dossier.inputs.canonical_host`, as a domain query is, and a
    malformed one is on no domain.  Trailing dots are dropped from a host.
    """
    index: dict[str, str | list[str]] = {}
    for subject_id, flat in by_subject.items():
        for attribute, value, _, _ in _rows(flat):
            if attribute == "email":
                # The host of the email the aggregator keeps, which
                # normalize_email has spelled; a malformed email has none.
                # (No email rule depends on the region.)
                email = canonical_identifier("email", value, DEFAULT_REGION)
                host = None if email is None else email.rpartition("@")[2]
            elif attribute == "url":
                host = canonical_host(_URL_HOST_RE.match(value.strip()).group(1))
            else:
                continue
            if host is None:
                continue
            labels = host.rstrip(".").split(".")
            for start in range(len(labels)):
                _add(index, ".".join(labels[start:]), subject_id)
    return index


def _confidence(number: str | int | float, confidences: dict[float, float]) -> Optional[float]:
    """*number*, a JSON number's text or its decoded value, as a float in
    [0, 1], shared through *confidences* unless it is a zero; None when it is
    a text outside JSON's number grammar, is out of range, or is the text
    ``-0``, which JSON reads as ``0`` but ``float()`` as ``-0.0``.

    The one home of the confidence rules: ``_fact_from_line`` calls it on
    every decoded confidence, and :func:`load_corpus`'s fast path on each
    confidence text the first time it meets it.
    """
    if isinstance(number, str) and _JSON_NUMBER(number) is None:
        return None
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
    platform_lists: dict[tuple, int],
    set_index: dict[frozenset, int],
    confidences: dict[float, float],
) -> Tuple[str, _Row]:
    """The subject id and row of one fact line, decoded as JSON and checked,
    or the :class:`CorpusError` that says why the line is no fact.

    *platform_lists* maps each platforms list already seen, as a tuple, to
    its set's index in *set_index*; both grow as new lists are met.
    """
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
        platform_index = platform_lists.get(key)
    except TypeError as exc:  # a list or object entry, which is no name either
        raise CorpusParseError(line_number, _PLATFORMS_MESSAGE) from exc
    if platform_index is None:
        # Only a list of names is ever cached, so a hit is already valid.
        if not platforms or not all(isinstance(p, str) and p for p in platforms):
            raise CorpusParseError(line_number, _PLATFORMS_MESSAGE)
        platform_index = platform_lists[key] = set_index.setdefault(
            frozenset(platforms), len(set_index)
        )
    if isinstance(confidence, bool) or not isinstance(confidence, (int, float)):
        raise CorpusParseError(line_number, "confidence must be a number")
    confidence = _confidence(confidence, confidences)
    if confidence is None:
        raise CorpusParseError(line_number, _RANGE_MESSAGE)
    # An escape such as \ud800 decodes to a lone surrogate, which no report
    # can encode; the fast path takes no escape, so only this path checks.
    if not is_utf8_text(subject_id + value + "".join(platforms)):
        raise CorpusParseError(
            line_number, "a string is not UTF-8 text (it holds a lone surrogate)"
        )
    return subject_id, (shared_attribute, value, confidence, platform_index)


def load_corpus(path: str | Path) -> Corpus:
    """Parse a line-delimited JSON corpus file in one streaming pass.

    A line ends in ``\\n`` or ``\\r\\n``; blank lines are skipped.  Each fact
    goes straight into its subject's list of rows; no :class:`CorpusFact` is
    built.  A row is the tuple ``(attribute, value, confidence, platforms)``
    of two strings, a float and an int: platforms is the index of the fact's
    platform set in a tuple the corpus holds once.  When a run of one
    subject's lines ends, its rows are sorted and flattened into the one
    tuple the corpus keeps for the subject, and the rows die young.  That
    tuple holds nothing the garbage collector tracks, so the collector stops
    tracking it once it has seen it: a loaded corpus adds almost nothing to
    later collections.  Repeated values are shared, not copied: equal
    platform sets are one frozenset, a subject's id is stored once, and
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
    checks give.  Only that path can decode an escape, so only it checks
    for a lone surrogate.
    """
    path = Path(path)
    # Subject id -> its rows: the sorted flat tuple the corpus keeps once a
    # run of its lines has ended, or a list of rows, in any order, once a
    # later line has reopened it.
    grouped: dict[str, _Flat | list[_Row]] = {}
    # The subject of the current run of lines, the list its rows go to, and
    # whether the run is the subject's first.  A subject's lines usually
    # come together, so most lists and their rows die as soon as their run
    # ends and is flattened, and the garbage collector never sees them grow
    # old.
    subject, rows, fresh = None, [], False
    # Platform set -> its index, and platforms list (as a tuple) -> the index
    # of its set; see _fact_from_line.
    set_index: dict[frozenset, int] = {}
    platform_lists: dict[tuple, int] = {}
    # Raw platforms text of a validated line -> the index of its set.
    platform_texts: dict[str, int] = {}
    confidences: dict[float, float] = {}
    # Confidence text -> what _confidence made of it.
    confidence_texts: dict[str, Optional[float]] = {}
    try:
        with path.open(encoding="utf-8") as stream:
            for line_number, line in enumerate(stream, start=1):
                match = _FAST_LINE(line)
                row = None
                if match is not None:
                    attribute, confidence_text, platforms_text, subject_id, value = match.groups()
                    shared_attribute = _ATTRIBUTES.get(attribute)
                    platforms = platform_texts.get(platforms_text)
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
                        and platforms is not None
                        and confidence is not None
                    ):
                        row = (shared_attribute, value, confidence, platforms)
                elif not line.strip():
                    continue
                if row is None:
                    # Without its newline, so a JSON error reads as for the bare line.
                    subject_id, row = _fact_from_line(
                        line_number, line.rstrip("\n"), platform_lists, set_index, confidences
                    )
                    if match is not None:
                        platform_texts[platforms_text] = row[3]
                if subject_id != subject:
                    if fresh:
                        grouped[subject] = _flat(rows)
                    rows = grouped.get(subject_id)
                    fresh = rows is None
                    if fresh:
                        rows = []
                    elif type(rows) is tuple:
                        # Stays a list to the end, so a subject whose lines
                        # alternate with another's is not copied per run.
                        rows = grouped[subject_id] = list(_rows(rows))
                    subject = subject_id
                rows.append(row)
            if fresh:
                grouped[subject] = _flat(rows)
    except OSError as exc:
        raise CorpusIOError(f"cannot read corpus {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CorpusIOError(f"cannot read corpus {path}: not UTF-8 ({exc.reason})") from exc
    corpus = Corpus.__new__(Corpus)
    corpus._set_rows(grouped, set_index)
    return corpus


def bundled_corpus_path() -> Path:
    """Filesystem path of the case-study corpus shipped with the package."""
    from importlib import resources  # only the bundled corpus needs it

    return Path(resources.files("dossier").joinpath("data/case_studies.jsonl"))


def _batch_locator(collector_name: str, subject_id: str) -> str:
    return f"{collector_name}/{content_id(collector_name, subject_id)[:12]}"


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
    platform_sets = corpus._platform_sets
    for subject_id in corpus._matching_subjects(query):
        locator = _batch_locator(collector.name, subject_id)
        for attribute, value, confidence, platforms in _rows(by_subject[subject_id]):
            if collector.name in platform_sets[platforms]:
                records.append(
                    RawRecord(
                        attribute=attribute,
                        value=value,
                        confidence=confidence,
                        provenance=locator,
                    )
                )
    return records
