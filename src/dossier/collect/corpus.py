"""Line-delimited JSON fact corpus and the corpus-backed collector.

The corpus stands in for live people-search services so the whole pipeline
can run and be tested offline.  Each line is one fact about one subject,
tagged with the collector names allowed to "see" it; a corpus-backed
collector returns exactly the facts it could plausibly have found.
"""

from __future__ import annotations

import binascii
import io
import json
import marshal
import operator
import os
import re
import stat
import sys
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

# The host of a URL, as written: an optional "scheme://" (in either case)
# and "userinfo@" are skipped, and the host ends at a port, path, query or
# fragment.
_URL_HOST_RE = re.compile(r"(?:(?:[a-zA-Z][a-zA-Z0-9+.-]*:)?//)?(?:[^/?#@]*@)?([^/?#:]*)")

# The cache of a parsed corpus (see load_corpus), kept beside its source as
# CPython keeps a module's bytecode (PEP 3147 for the place, PEP 552 for the
# check against the source): a header, then marshal.dumps of the corpus's
# (_by_subject, _platform_sets).  The header is _MAGIC, the CRC-32 of the
# attribute vocabulary the parse accepts and the source's byte size, then
# the CRC-32 of the source and of the payload, each number little-endian.
# The cache's name carries the interpreter's cache tag, which fixes the
# marshal format.  _MAGIC changes whenever the payload's layout or a rule
# of the parse does (_confidence, the surrogate check, _Flat), so a cache
# made under other rules is never read; the vocabulary stamps itself.
_MAGIC = b"dossier\x02"
_STAMP_SIZE = len(_MAGIC) + 4 + 8  # magic, vocabulary CRC-32, source size
_HEADER_SIZE = _STAMP_SIZE + 4 + 4  # then the two CRC-32s
# Bytes a corpus file is read in, for its CRC-32 and for the parse.
_BLOCK = 1 << 16


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
    A corpus that :func:`load_corpus` reads from its cache is built by the
    same constructor as a parsed one, from the state a parse built and
    ``marshal`` kept, so the two are alike down to which values they share.
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
        self, grouped: Mapping[str, _Flat | list[_Row]], platform_sets: Iterable[frozenset]
    ) -> None:
        """Fill a new corpus from subject id -> its rows, as a flat tuple
        already in order or as a list of rows in any order, and the platform
        sets in the order of the indexes rows hold for them (a dict's keys
        will do); the one constructor behind ``Corpus(facts)`` and
        :func:`load_corpus`, parsed or cached."""
        self._by_subject: dict[str, _Flat] = {
            subject: rows if type(rows) is tuple else _flat(rows)
            for subject, rows in sorted(grouped.items())
        }
        self._platform_sets: Tuple[frozenset, ...] = tuple(platform_sets)
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


def _confidence(number: int | float, confidences: dict[float, float]) -> Optional[float]:
    """*number*, a decoded JSON number, as a float in [0, 1], shared through
    *confidences* unless it is a zero; None when it is out of range."""
    try:
        confidence = float(number)
    except OverflowError:  # an integer too large for a float
        return None
    if not 0.0 <= confidence <= 1.0:
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
    # can encode.
    if not is_utf8_text(subject_id + value + "".join(platforms)):
        raise CorpusParseError(
            line_number, "a string is not UTF-8 text (it holds a lone surrogate)"
        )
    return subject_id, (shared_attribute, value, confidence, platform_index)


def _parse(stream: Iterable[str]) -> Corpus:
    """The corpus of the fact lines *stream* yields, parsed as
    :func:`load_corpus` describes, or the :class:`CorpusError` of its
    first malformed line."""
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
    confidences: dict[float, float] = {}
    for line_number, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        # Without its newline, so a JSON error reads as for the bare line.
        subject_id, row = _fact_from_line(
            line_number, line.rstrip("\n"), platform_lists, set_index, confidences
        )
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
    corpus = Corpus.__new__(Corpus)
    corpus._set_rows(grouped, set_index)
    return corpus


def load_corpus(path: str | Path) -> Corpus:
    """Load a line-delimited JSON corpus file: from the cache of an earlier
    parse when one matches the file, else in one streaming pass.

    A line ends in ``\\n`` or ``\\r\\n``; blank lines are skipped, and every
    other line is decoded as JSON and checked by ``_fact_from_line``.  Each
    fact goes straight into its subject's list of rows; no
    :class:`CorpusFact` is built.  A row is the tuple ``(attribute, value, confidence, platforms)``
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

    The parsed state of a regular file is cached beside it, as CPython
    caches a module's bytecode: in ``__pycache__/<file name>.<cache
    tag>.corpus`` in the file's directory (``sys.implementation.cache_tag``
    names the interpreter, and with it the marshal format).  The file is
    opened once.  When the cache's header matches the file (its format, the
    attribute vocabulary, and the file's byte size and CRC-32, computed
    block by block), its payload matches its own CRC-32 and has a corpus's
    shape, and the cache grants no permission that the file does not, the
    corpus is ``marshal.loads`` of that payload, built by the same
    constructor as a parse, with the same facts, the same sharing and the
    same answers.  Any other cache (missing, unreadable, truncated, foreign,
    stale or too open) only sends the load to the parse, which then writes
    the cache, atomically, for the bytes it parsed, with the file's read
    and write permission bits.  A write that fails, say in a read-only
    directory, is skipped.  Nothing is
    cached for a file that fails to load, or for one that is not a regular
    file, such as a pipe, which is read once.  ``PYTHONDONTWRITEBYTECODE``
    is about bytecode, and it does not turn this cache off.
    """
    path = Path(path)
    try:
        with path.open("rb", buffering=0) as file:
            source = _Checksummed(file)
            status = os.fstat(file.fileno())
            cache = _cache_path(path) if stat.S_ISREG(status.st_mode) else None
            if cache is not None:
                # The source's read and write bits and the owner's write
                # bit, as importlib derives a .pyc file's mode from its
                # source: the cache shows its facts to no one the source
                # does not.
                mode = status.st_mode & 0o666 | 0o200
                corpus = _read_cache(cache, source, status.st_size, mode)
                if corpus is not None:
                    return corpus
                source.rewind()
            # What open(path, encoding="utf-8") would build, over source.
            with io.TextIOWrapper(io.BufferedReader(source, _BLOCK), encoding="utf-8") as stream:
                corpus = _parse(stream)
    except OSError as exc:
        raise CorpusIOError(f"cannot read corpus {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CorpusIOError(f"cannot read corpus {path}: not UTF-8 ({exc.reason})") from exc
    if cache is not None:
        _write_cache(cache, source.size, source.crc, corpus, mode)
    return corpus


class _Checksummed(io.RawIOBase):
    """A corpus file read through: the byte count and CRC-32 of what was
    read since it was opened or rewound."""

    def __init__(self, file: io.FileIO) -> None:
        self._file = file
        self.size = self.crc = 0

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self._file.readinto(buffer)
        if count:
            self.crc = binascii.crc32(memoryview(buffer)[:count], self.crc)
            self.size += count
        return count

    def rewind(self) -> None:
        self._file.seek(0)
        self.size = self.crc = 0


def _cache_path(path: Path) -> Optional[Path]:
    """Where the cache of the corpus file *path* lives; None when this
    interpreter has no cache tag, and so keeps no bytecode either."""
    tag = sys.implementation.cache_tag
    return None if tag is None else path.parent / "__pycache__" / f"{path.name}.{tag}.corpus"


def _stamp(size: int) -> bytes:
    """The start of the header of a cache of a *size*-byte source: the
    fields that do not depend on its content."""
    vocabulary = binascii.crc32(" ".join(sorted(_ATTRIBUTES)).encode("utf-8"))
    return _MAGIC + vocabulary.to_bytes(4, "little") + size.to_bytes(8, "little")


def _is_corpus_state(state: object) -> bool:
    """Whether *state*, read from a cache, has the shape of a corpus's
    (_by_subject, _platform_sets), which _set_rows builds from as it is."""
    if type(state) is not tuple or len(state) != 2:
        return False
    by_subject, platform_sets = state
    return (
        type(by_subject) is dict
        and type(platform_sets) is tuple
        and all(type(platforms) is frozenset for platforms in platform_sets)
        and all(type(subject) is str for subject in by_subject)
        and all(
            type(rows) is tuple and rows and not len(rows) % 4 for rows in by_subject.values()
        )
    )


def _read_cache(cache: Path, source: _Checksummed, size: int, mode: int) -> Optional[Corpus]:
    """The corpus *cache* holds, when its header matches the source, a
    regular file of *size* bytes read here through *source*, its payload
    matches its CRC-32 and has a corpus's shape, and it grants no permission
    beyond *mode*; None for any other cache, and for none at all."""
    try:
        with cache.open("rb") as file:
            header = file.read(_HEADER_SIZE)
            if len(header) != _HEADER_SIZE or header[:_STAMP_SIZE] != _stamp(size):
                return None
            if os.fstat(file.fileno()).st_mode & 0o777 & ~mode:
                return None  # the source's permissions were narrowed since
            block = bytearray(_BLOCK)
            while source.readinto(block):
                pass
            if source.size != size or source.crc != int.from_bytes(
                header[_STAMP_SIZE:-4], "little"
            ):
                return None
            payload = file.read()
    except OSError:
        return None
    if binascii.crc32(payload) != int.from_bytes(header[-4:], "little"):
        return None
    try:
        state = marshal.loads(payload)
    except (EOFError, ValueError, TypeError):  # no marshal data
        return None
    del payload  # freed before the corpus is built, which lowers the load's peak
    if not _is_corpus_state(state):
        return None
    corpus = Corpus.__new__(Corpus)
    corpus._set_rows(*state)
    return corpus


def _write_cache(cache: Path, size: int, crc: int, corpus: Corpus, mode: int) -> None:
    """Cache *corpus*, parsed from *size* bytes of CRC-32 *crc*, at *cache*,
    with the permission bits *mode* (less the umask's).

    The header and the payload are written to a temporary file that only
    this writer (process and thread) names, which then replaces *cache*, so
    a reader sees an old cache or a whole new one.  A write that fails is
    skipped and leaves no temporary file.
    """
    temp = cache.with_name(f"{cache.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        cache.parent.mkdir(exist_ok=True)
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
    except OSError:
        return
    try:
        with open(fd, "wb") as file:
            payload = marshal.dumps((corpus._by_subject, corpus._platform_sets))
            header = _stamp(size) + crc.to_bytes(4, "little")
            file.write(header + binascii.crc32(payload).to_bytes(4, "little"))
            file.write(payload)
        os.replace(temp, cache)
    except OSError:
        pass
    finally:
        try:
            os.unlink(temp)  # gone already once it has replaced the cache
        except OSError:
            pass


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
