"""Independent brute-force reference implementations used by the tests.

Nothing here shares code paths with the package: clustering is done by
explicit pairwise edges plus breadth-first components instead of union-find,
text similarity is re-derived from scratch, and corpus matching is a linear
scan over every subject instead of an index.  The one exception is the
identity rule itself, ``inputs.canonical_identifier``, which the corpus scan
calls because it defines what "the same identifier" means.
``reference_resolve_candidates`` is the other kind of reference: a frozen
copy of an earlier ``aggregate.resolve_candidates`` (union-find, a per-cluster
sort, a full-record profile sort), kept so that the package's full output,
order included, can be compared against it.  The corpus
loader oracle builds the package's own ``CorpusFact``, ``Corpus`` and error
types, so that results and errors compare equal.  If the package and these
oracles ever disagree, the package is wrong (or the contract changed).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import unicodedata
from functools import lru_cache
from pathlib import Path

from dossier.aggregate import CandidateProfile
from dossier.collect.corpus import (
    Corpus,
    CorpusFact,
    CorpusIOError,
    CorpusParseError,
    UnknownAttributeError,
)
from dossier.collect.records import RawRecord
from dossier.inputs import (
    DEFAULT_REGION,
    InputKind,
    canonical_identifier,
    hard_identifier_attribute,
)
from dossier.vocab import ATTRIBUTE_KEYS

HARD_ATTRS = {
    "email",
    "phone",
    "social_handle_twitter",
    "social_handle_facebook",
    "social_handle_instagram",
}
NAME_ATTRS = {"full_name", "alias"}

_ORACLE_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


@lru_cache(maxsize=4096)
def oracle_tokens(value: str) -> frozenset:
    decomposed = unicodedata.normalize("NFKD", value)
    folded = "".join(c for c in decomposed if not unicodedata.combining(c)).lower()
    return frozenset(_ORACLE_TOKEN_RE.findall(folded))


def oracle_jaccard(left: str, right: str) -> float:
    a, b = oracle_tokens(left), oracle_tokens(right)
    union = a | b
    return len(a & b) / len(union) if union else 0.0


def _hard_edge(a, b) -> bool:
    if a.source == b.source and a.provenance == b.provenance:
        return True
    return (
        a.attribute in HARD_ATTRS
        and a.attribute == b.attribute
        and a.value == b.value
    )


def oracle_partition(records) -> list[list[int]]:
    """Partition record indices by the clustering rules, brute force.

    Hard stage: explicit pairwise edge matrix + BFS components.  Soft stage:
    repeatedly merge any two components that both lack hard identifiers and
    share a name with token overlap >= 0.5, until nothing merges.
    """
    n = len(records)
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if _hard_edge(records[i], records[j]):
                adjacency[i].append(j)
                adjacency[j].append(i)

    seen = [False] * n
    components: list[list[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        queue = [start]
        seen[start] = True
        component = []
        while queue:
            node = queue.pop()
            component.append(node)
            for neighbour in adjacency[node]:
                if not seen[neighbour]:
                    seen[neighbour] = True
                    queue.append(neighbour)
        components.append(sorted(component))

    def has_hard(component) -> bool:
        return any(records[i].attribute in HARD_ATTRS for i in component)

    def names(component) -> list[str]:
        return [records[i].value for i in component if records[i].attribute in NAME_ATTRS]

    merged = True
    while merged:
        merged = False
        for x in range(len(components)):
            if has_hard(components[x]):
                continue
            x_names = names(components[x])
            if not x_names:
                continue
            for y in range(x + 1, len(components)):
                if has_hard(components[y]):
                    continue
                y_names = names(components[y])
                if not y_names:
                    continue
                best = max(oracle_jaccard(a, b) for a in x_names for b in y_names)
                if best >= 0.5:
                    components[x] = sorted(components[x] + components[y])
                    del components[y]
                    merged = True
                    break
            if merged:
                break
    return sorted(components)


def _reference_record_id(record) -> str:
    key = "\x1f".join((record.attribute, record.value, record.source))
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


class _ReferenceUnionFind:
    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, index: int) -> int:
        root = index
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[index] != root:
            self.parent[index], index = root, self.parent[index]
        return root

    def union(self, left: int, right: int) -> None:
        left_root, right_root = self.find(left), self.find(right)
        if left_root != right_root:
            self.parent[max(left_root, right_root)] = min(left_root, right_root)


def reference_resolve_candidates(records) -> list:
    """Candidate profiles exactly as an earlier ``resolve_candidates`` built
    them: the same partition as :func:`oracle_partition`, each profile's
    records sorted by (attribute, value, source, provenance, confidence),
    cluster ids the minimum member record id, and profiles ordered by
    (cluster id, record tuples) so that clusters sharing an id (possible only
    for input that skipped dedup) still come out in one order."""
    recs = list(records)
    uf = _ReferenceUnionFind(len(recs))
    first_in_batch: dict = {}
    first_with_id: dict = {}
    for index, record in enumerate(recs):
        seen = first_in_batch.setdefault((record.source, record.provenance), index)
        if seen != index:
            uf.union(seen, index)
        if record.attribute in HARD_ATTRS:
            seen = first_with_id.setdefault((record.attribute, record.value), index)
            if seen != index:
                uf.union(seen, index)

    hard_roots = {uf.find(i) for i, r in enumerate(recs) if r.attribute in HARD_ATTRS}
    holders: dict = {}
    for index, record in enumerate(recs):
        if record.attribute in NAME_ATTRS and uf.find(index) not in hard_roots:
            tokens = oracle_tokens(record.value)
            if tokens:
                uf.union(holders.setdefault(tokens, index), index)
    token_sets = list(holders.items())
    for x, (left, left_index) in enumerate(token_sets):
        for right, right_index in token_sets[x + 1 :]:
            if len(left & right) / len(left | right) >= 0.5:
                uf.union(left_index, right_index)

    groups: dict = {}
    for index, record in enumerate(recs):
        groups.setdefault(uf.find(index), []).append(record)
    profiles = []
    for members in groups.values():
        group_records = sorted(
            members,
            key=lambda r: (r.attribute, r.value, r.source, r.provenance, r.confidence),
        )
        cluster_id = min(_reference_record_id(record) for record in group_records)
        profiles.append(CandidateProfile(cluster_id, tuple(group_records)))
    profiles.sort(
        key=lambda p: (
            p.cluster_id,
            tuple(
                (r.attribute, r.value, r.source, r.provenance, r.confidence)
                for r in p.records
            ),
        )
    )
    return profiles


def oracle_visibility(records, reliabilities) -> float:
    counts: dict[str, int] = {}
    for record in records:
        counts[record.source] = counts.get(record.source, 0) + 1
    return sum(
        reliabilities.get(source, 1.0) * math.log2(1 + count)
        for source, count in sorted(counts.items())
    )


def oracle_best_cluster(clusters, query_kind, canonical, platform, reliabilities):
    """Brute-force candidate choice: score every cluster, apply tie-breaks.

    *clusters* is a list of (cluster_id, records).  Returns the winning
    cluster_id.
    """
    hard_attr = None
    if query_kind == "email":
        hard_attr = "email"
    elif query_kind == "phone":
        hard_attr = "phone"
    elif query_kind == "social_handle" and platform:
        hard_attr = f"social_handle_{platform}"

    visibilities = {
        cluster_id: oracle_visibility(records, reliabilities)
        for cluster_id, records in clusters
    }
    max_visibility = max(visibilities.values()) if visibilities else 0.0

    scored = []
    for cluster_id, records in clusters:
        hard = 0.0
        if hard_attr is not None and any(
            r.attribute == hard_attr and r.value == canonical for r in records
        ):
            hard = 1.0
        name = 0.0
        if query_kind in ("name", "keyword"):
            overlaps = [
                oracle_jaccard(canonical, r.value)
                for r in records
                if r.attribute in NAME_ATTRS
            ]
            if overlaps:
                name = max(overlaps)
        ratio = visibilities[cluster_id] / max_visibility if max_visibility > 0 else 0.0
        score = 3.0 * hard + 1.0 * name + 0.5 * ratio
        scored.append((-score, -visibilities[cluster_id], cluster_id))
    return min(scored)[2]


def oracle_report_body(best, filtered, template) -> tuple:
    """Brute-force report body: place each record by scanning the template's
    sections, then merge each section's records by (attribute, value).

    Returns ``(sections, candidate)``: *sections* lists ``(title, facts)``
    with each fact ``(attribute, value, sorted sources, highest
    confidence)``, Unmapped Evidence last and empty sections left out;
    *candidate* is ``(visibility, match, cluster size)``.
    """
    unmapped = "Unmapped Evidence"
    placed: dict[str, list] = {}
    for record in filtered:
        title = unmapped
        for section_title, attributes in template.sections:
            if record.attribute in attributes:
                title = section_title
                break
        placed.setdefault(title, []).append(record)
    sections = []
    for title in [section_title for section_title, _ in template.sections] + [unmapped]:
        records = placed.pop(title, [])
        if not records:
            continue
        facts = []
        for key in sorted({(r.attribute, r.value) for r in records}):
            group = [r for r in records if (r.attribute, r.value) == key]
            facts.append(
                (*key, tuple(sorted({r.source for r in group})), max(r.confidence for r in group))
            )
        sections.append((title, facts))
    if best is None:
        return sections, (0.0, 0.0, 0)
    return sections, (best.visibility, best.match, len(best.records))


# The host of a URL: an optional "scheme://" (ASCII letters, either case)
# and "userinfo@" are skipped, and the host ends at a port, path, query or
# fragment.
_ORACLE_URL_HOST_RE = re.compile(
    r"(?:(?:[A-Za-z][A-Za-z0-9+.-]*:)?//)?(?:[^/?#@]*@)?([^/?#:]*)"
)


def oracle_host(host: str):
    """*host* as the host rule spells it, from the codec itself rather than
    ``inputs.canonical_host``: lower case if ASCII, else IDNA 2003 in lower
    case (the codec keeps an ASCII label's case); None if the codec refuses."""
    if host.isascii():
        return host.lower()
    try:
        return host.encode("idna").decode("ascii").lower()
    except UnicodeError:
        return None


def _on_domain(host: str, domain: str) -> bool:
    """Whether *host* is *domain* or a subdomain of it, on a label boundary."""
    host = host.rstrip(".")
    return host == domain or host.endswith("." + domain)


def _fact_on_domain(fact, domain: str) -> bool:
    """Whether the host of an email or URL fact is on *domain*.  An email's
    host is that of its canonical form, so a malformed email has none."""
    if fact.attribute == "email":
        email = canonical_identifier("email", fact.value, DEFAULT_REGION)
        return email is not None and _on_domain(email.rpartition("@")[2], domain)
    host = oracle_host(_ORACLE_URL_HOST_RE.match(fact.value.strip()).group(1))
    return host is not None and _on_domain(host, domain)


def _subject_matches(facts, query) -> bool:
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
            fact.attribute in NAME_ATTRS and oracle_jaccard(query.canonical, fact.value) >= 0.5
            for fact in facts
        )
    if kind is InputKind.DOMAIN:
        return any(
            fact.attribute in ("email", "url") and _fact_on_domain(fact, query.canonical)
            for fact in facts
        )
    return False


def oracle_corpus_collect(corpus, collector_name: str, query) -> list:
    """What ``corpus_collect`` returns, by scanning every subject in id order:
    for each matching subject, one provenance batch of the facts visible to
    *collector_name*."""
    records = []
    for subject_id in corpus.subjects:
        facts = corpus.facts_for(subject_id)
        if not _subject_matches(facts, query):
            continue
        digest = hashlib.sha256(f"{collector_name}\x1f{subject_id}".encode("utf-8")).hexdigest()
        locator = f"{collector_name}/{digest[:12]}"
        records.extend(
            RawRecord(fact.attribute, fact.value, fact.confidence, locator)
            for fact in facts
            if collector_name in fact.platforms
        )
    return records


_ORACLE_CORPUS_FIELDS = frozenset({"subject_id", "attribute", "value", "platforms", "confidence"})


def _utf8(text: str) -> bool:
    """Whether *text* holds no lone surrogate (a JSON escape such as \\ud800
    decodes to one)."""
    return not any(0xD800 <= ord(char) <= 0xDFFF for char in text)


def _oracle_fact_from_line(line_number: int, line: str) -> CorpusFact:
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
    if set(payload) != _ORACLE_CORPUS_FIELDS:
        missing = _ORACLE_CORPUS_FIELDS - set(payload)
        extra = set(payload) - _ORACLE_CORPUS_FIELDS
        raise CorpusParseError(
            line_number,
            f"fact keys must be exactly {sorted(_ORACLE_CORPUS_FIELDS)} "
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
    try:
        confidence = float(confidence)
    except OverflowError as exc:
        raise CorpusParseError(line_number, "confidence must be within [0, 1]") from exc
    if not 0.0 <= confidence <= 1.0:
        raise CorpusParseError(line_number, "confidence must be within [0, 1]")
    if not all(_utf8(text) for text in (subject_id, value, *platforms)):
        raise CorpusParseError(
            line_number, "a string is not UTF-8 text (it holds a lone surrogate)"
        )
    return CorpusFact(
        subject_id=subject_id,
        attribute=attribute,
        value=value,
        platforms=frozenset(platforms),
        confidence=confidence,
    )


def oracle_load_corpus(path) -> Corpus:
    """The corpus loader before streaming: the whole file read as text, split
    at each ``"\\n"`` (``read_text`` has already turned ``"\\r\\n"`` into one)
    and validated line by line with ``json.loads``, with no value shared
    between facts.  It lets a ``UnicodeDecodeError`` out, so it is a
    reference only for UTF-8 files."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CorpusIOError(f"cannot read corpus {path}: {exc}") from exc
    facts = []
    for line_number, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        facts.append(_oracle_fact_from_line(line_number, line))
    return Corpus(facts)
