"""Evidence aggregation: normalize, dedup, cluster into candidates, score.

Collectors return flat facts with no notion of identity.  This module turns
them into candidate people:

* hard identifiers (email, phone, social handles) weld records together —
  two records agreeing on one are always the same person;
* records returned in one collector response batch stay together;
* clusters with no hard identifier at all may still merge on a strong
  name overlap, but a name alone never overrides an identifier.

Candidates are then scored for visibility (how much independent coverage a
person has) and for how well they match the query, and the winning
candidate's records are filtered by relevance before reporting.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence, Tuple

from .collect.records import CollectorOutcome, OutcomeStatus
from .errors import DossierError
from .inputs import (
    DEFAULT_REGION,
    InputKind,
    QueryInput,
    canonical_identifier,
    hard_identifier_attribute,
)
from .routing import Registry
from .similarity import NAME_MATCH_THRESHOLD, token_set_jaccard
from .vocab import ATTRIBUTE_KEYS, HARD_IDENTIFIERS, NAME_ATTRIBUTES

# Records below this confidence are dropped outright.
MIN_CONFIDENCE = 0.01
# Match score weights: identifier equality dominates, name overlap helps,
# visibility breaks the remaining distance.
HARD_MATCH_WEIGHT = 3.0
NAME_MATCH_WEIGHT = 1.0
VISIBILITY_WEIGHT = 0.5
# Relevance of evidence outside the chosen cluster is discounted to a quarter.
OUT_OF_CLUSTER_WEIGHT = 0.25
DEFAULT_RELEVANCE_THRESHOLD = 0.2


class NoCandidatesError(DossierError):
    """best_match was asked to choose from an empty candidate list."""


@dataclass(frozen=True)
class EvidenceRecord:
    """One normalized fact attributed to one source."""

    attribute: str
    value: str
    source: str
    confidence: float
    provenance: str

    @property
    def record_id(self) -> str:
        """Stable content id; permutation of inputs never changes it."""
        digest = hashlib.sha256(
            "\x1f".join((self.attribute, self.value, self.source)).encode("utf-8")
        )
        return digest.hexdigest()[:16]


@dataclass(frozen=True)
class CandidateProfile:
    """A cluster of records believed to describe one person."""

    cluster_id: str
    records: Tuple[EvidenceRecord, ...]
    visibility: float = 0.0
    match: float = 0.0


def normalize_records(
    outcomes: Iterable[CollectorOutcome],
    default_region: str = DEFAULT_REGION,
) -> list[EvidenceRecord]:
    """Flatten successful outcomes into evidence records.

    Values are stripped; empty values, sub-threshold confidences, attributes
    outside the vocabulary, and hard identifiers that resist canonicalization
    are dropped.  Timeouts and errors contribute nothing here — they stay
    visible in the outcome list for the report's failure appendix.
    """
    records: list[EvidenceRecord] = []
    for outcome in outcomes:
        if outcome.status is not OutcomeStatus.SUCCESS:
            continue
        for raw in outcome.records:
            value = raw.value.strip()
            if not value or raw.confidence < MIN_CONFIDENCE:
                continue
            if raw.attribute not in ATTRIBUTE_KEYS:
                continue
            if raw.attribute in HARD_IDENTIFIERS:
                canonical = canonical_identifier(raw.attribute, value, default_region)
                if canonical is None:
                    continue
                value = canonical
            records.append(
                EvidenceRecord(
                    attribute=raw.attribute,
                    value=value,
                    source=outcome.collector,
                    confidence=raw.confidence,
                    provenance=raw.provenance,
                )
            )
    return records


def dedup(records: Iterable[EvidenceRecord]) -> list[EvidenceRecord]:
    """Collapse exact (attribute, value, source) duplicates, keeping the
    highest confidence; the same fact from different sources stays distinct.

    The result is sorted by (attribute, value, source), so any permutation of
    the input produces the same output.
    """
    best: dict[Tuple[str, str, str], EvidenceRecord] = {}
    for record in records:
        key = (record.attribute, record.value, record.source)
        kept = best.get(key)
        if (
            kept is None
            or record.confidence > kept.confidence
            or (record.confidence == kept.confidence and record.provenance < kept.provenance)
        ):
            best[key] = record
    return [best[key] for key in sorted(best)]


class _UnionFind:
    __slots__ = ("parent",)

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


def _group(uf: _UnionFind, size: int) -> dict[int, list[int]]:
    groups: dict[int, list[int]] = {}
    for index in range(size):
        groups.setdefault(uf.find(index), []).append(index)
    return groups


def resolve_candidates(records: Sequence[EvidenceRecord]) -> list[CandidateProfile]:
    """Partition records into candidate people.

    Links applied, in closure:

    * identical (hard-identifier attribute, value) pairs;
    * identical (source, provenance) response batches;
    * a soft name link between clusters that both lack hard identifiers,
      when their best full_name/alias token overlap reaches 0.5.  Clusters
      holding hard identifiers never merge on names alone.

    The partition is independent of record order, and cluster ids are the
    lexicographic minimum of member record ids, so they are stable too.
    """
    recs = list(records)
    size = len(recs)
    uf = _UnionFind(size)

    first_in_batch: dict[Tuple[str, str], int] = {}
    first_with_id: dict[Tuple[str, str], int] = {}
    for index, record in enumerate(recs):
        batch_key = (record.source, record.provenance)
        seen = first_in_batch.setdefault(batch_key, index)
        if seen != index:
            uf.union(seen, index)
        if record.attribute in HARD_IDENTIFIERS:
            id_key = (record.attribute, record.value)
            seen = first_with_id.setdefault(id_key, index)
            if seen != index:
                uf.union(seen, index)

    # Soft name linking between identifier-free clusters, in one pass.
    # Merging only unions name sets: eligibility survives a merge, and a
    # merged cluster's best overlap is the maximum over its parts.  So the
    # union of all qualifying pairs is already the fixed point, whatever
    # the merge order.
    cluster_info = []
    for root, members in _group(uf, size).items():
        has_hard = any(recs[i].attribute in HARD_IDENTIFIERS for i in members)
        names = [recs[i].value for i in members if recs[i].attribute in NAME_ATTRIBUTES]
        cluster_info.append((root, has_hard, names))
    for left_pos in range(len(cluster_info)):
        left_root, left_hard, left_names = cluster_info[left_pos]
        if left_hard or not left_names:
            continue
        for right_pos in range(left_pos + 1, len(cluster_info)):
            right_root, right_hard, right_names = cluster_info[right_pos]
            if right_hard or not right_names:
                continue
            if uf.find(left_root) == uf.find(right_root):
                continue
            best = max(token_set_jaccard(a, b) for a in left_names for b in right_names)
            if best >= NAME_MATCH_THRESHOLD:
                uf.union(left_root, right_root)

    profiles = []
    for members in _group(uf, size).values():
        group_records = sorted(
            (recs[i] for i in members),
            key=lambda r: (r.attribute, r.value, r.source, r.provenance, r.confidence),
        )
        cluster_id = min(record.record_id for record in group_records)
        profiles.append(CandidateProfile(cluster_id, tuple(group_records)))
    # Canonical order even if two clusters share a content-addressed id
    # (possible only for input that skipped dedup).
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


def visibility_score(profile: CandidateProfile, registry: Registry) -> float:
    """How visible a candidate is across independent sources.

    Each distinct source contributes ``reliability * log2(1 + n)`` where n is
    the number of records it returned for this candidate: more sources and
    more records always help, with diminishing returns per source.
    """
    counts: dict[str, int] = {}
    for record in profile.records:
        counts[record.source] = counts.get(record.source, 0) + 1
    return sum(
        registry.reliability_of(source) * math.log2(1 + count)
        for source, count in sorted(counts.items())
    )


def match_score(
    profile: CandidateProfile,
    query: QueryInput,
    candidates_max_visibility: float,
) -> float:
    """Weighted evidence that *profile* is the person the query asks about.

    Combines exact hard-identifier possession (for identifier queries), best
    name overlap (for name and keyword queries), and visibility normalized
    against the best candidate.  Expects ``profile.visibility`` to be
    stamped already (see :func:`rank_candidates`).
    """
    hard = 0.0
    attribute = hard_identifier_attribute(query.kind, query.platform)
    if attribute is not None and any(
        r.attribute == attribute and r.value == query.canonical for r in profile.records
    ):
        hard = 1.0

    name = 0.0
    if query.kind in (InputKind.NAME, InputKind.KEYWORD):
        overlaps = [
            token_set_jaccard(query.canonical, r.value)
            for r in profile.records
            if r.attribute in NAME_ATTRIBUTES
        ]
        name = max(overlaps, default=0.0)

    if candidates_max_visibility > 0:
        normalized_visibility = profile.visibility / candidates_max_visibility
    else:
        normalized_visibility = 0.0

    return (
        HARD_MATCH_WEIGHT * hard
        + NAME_MATCH_WEIGHT * name
        + VISIBILITY_WEIGHT * normalized_visibility
    )


def rank_candidates(
    candidates: Sequence[CandidateProfile],
    query: QueryInput,
    registry: Registry,
) -> list[CandidateProfile]:
    """Return copies of *candidates* with visibility and match stamped."""
    with_visibility = [
        replace(c, visibility=visibility_score(c, registry)) for c in candidates
    ]
    max_visibility = max((c.visibility for c in with_visibility), default=0.0)
    return [
        replace(c, match=match_score(c, query, max_visibility))
        for c in with_visibility
    ]


def best_match(
    candidates: Sequence[CandidateProfile],
    query: QueryInput,
    registry: Registry,
) -> CandidateProfile:
    """The candidate with the highest match score.

    Ties go to the higher visibility, then to the lexicographically smallest
    cluster id, so the choice is deterministic under any input permutation.
    """
    ranked = rank_candidates(candidates, query, registry)
    if not ranked:
        raise NoCandidatesError("no candidate profiles to choose from")
    return min(ranked, key=lambda c: (-c.match, -c.visibility, c.cluster_id))


def filter_relevance(
    records: Iterable[EvidenceRecord],
    best: CandidateProfile,
    registry: Registry,
    threshold: float = DEFAULT_RELEVANCE_THRESHOLD,
) -> list[EvidenceRecord]:
    """Keep records whose relevance reaches *threshold*.

    Relevance is ``source reliability * confidence``, quartered for records
    outside the chosen cluster.  Raising the threshold never lets a record
    back in.  Output is sorted by (attribute, value, source).
    """
    member_ids = {record.record_id for record in best.records}
    kept = []
    for record in records:
        membership = 1.0 if record.record_id in member_ids else OUT_OF_CLUSTER_WEIGHT
        relevance = registry.reliability_of(record.source) * record.confidence * membership
        if relevance >= threshold:
            kept.append(record)
    kept.sort(key=lambda r: (r.attribute, r.value, r.source))
    return kept
