import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dossier.aggregate import (
    CandidateProfile,
    EvidenceRecord,
    NoCandidatesError,
    best_match,
    dedup,
    filter_relevance,
    match_score,
    normalize_records,
    rank_candidates,
    resolve_candidates,
    visibility_score,
)
from dossier.collect.records import CollectorOutcome, OutcomeStatus, RawRecord
from dossier.inputs import classify_input
from dossier.routing import CollectorDescriptor, Registry, accepts, builtin_matrix

from conftest import make_record
from oracles import oracle_partition

BUILTIN = builtin_matrix()


def reg_with(**reliability_by_name) -> Registry:
    return Registry(
        CollectorDescriptor(name=name, accepts=accepts("keyword"), reliability=rel)
        for name, rel in reliability_by_name.items()
    )


def success(collector, *records) -> CollectorOutcome:
    return CollectorOutcome(
        collector=collector, status=OutcomeStatus.SUCCESS, records=tuple(records)
    )


def raw(attribute, value, confidence=0.9, provenance="p1") -> RawRecord:
    return RawRecord(
        attribute=attribute, value=value, confidence=confidence, provenance=provenance
    )


class TestNormalize:
    def test_only_successful_outcomes_contribute(self):
        outcomes = [
            success("good", raw("full_name", "Ada Lovelace")),
            CollectorOutcome(
                collector="bad", status=OutcomeStatus.ERROR, error_detail="x"
            ),
            CollectorOutcome(
                collector="late", status=OutcomeStatus.TIMEOUT, error_detail="y"
            ),
        ]
        records = normalize_records(outcomes)
        assert [(r.source, r.value) for r in records] == [("good", "Ada Lovelace")]

    def test_junk_records_dropped(self):
        outcomes = [
            success(
                "src",
                raw("full_name", "   "),  # blank value
                raw("full_name", "Kept Name"),
                raw("interest", "chess", confidence=0.001),  # sub-threshold
                raw("shoe_size", "44"),  # unknown attribute
                raw("email", "not an email"),  # unnormalizable hard id
                raw("phone", "123"),  # unnormalizable hard id
            )
        ]
        records = normalize_records(outcomes)
        assert [(r.attribute, r.value) for r in records] == [("full_name", "Kept Name")]

    def test_hard_identifiers_canonicalized(self):
        outcomes = [
            success(
                "src",
                raw("email", " User@X.Io "),
                raw("phone", "(212) 555-0199"),
                raw("social_handle_twitter", "@Ada"),
                raw("full_name", "  Ada Lovelace  "),
            )
        ]
        records = normalize_records(outcomes, default_region="US")
        assert {(r.attribute, r.value) for r in records} == {
            ("email", "user@x.io"),
            ("phone", "+12125550199"),
            ("social_handle_twitter", "ada"),
            ("full_name", "Ada Lovelace"),
        }

    def test_region_applies_to_bare_phone_numbers(self):
        outcomes = [success("src", raw("phone", "98765 43210"))]
        (record,) = normalize_records(outcomes, default_region="IN")
        assert record.value == "+919876543210"

    def test_malformed_handles_dropped(self):
        outcomes = [
            success(
                "src",
                raw("social_handle_twitter", "john doe"),
                raw("social_handle_facebook", "j@ne"),
                raw("social_handle_instagram", "@Jane.Doe"),
            )
        ]
        records = normalize_records(outcomes)
        assert [(r.attribute, r.value) for r in records] == [
            ("social_handle_instagram", "jane.doe")
        ]

    def test_prefixed_handle_is_the_same_identifier(self):
        outcomes = [
            success(
                "src",
                raw("social_handle_twitter", "twitter:Jack"),
                raw("social_handle_twitter", "@jack"),
            )
        ]
        records = dedup(normalize_records(outcomes))
        assert [(r.attribute, r.value) for r in records] == [("social_handle_twitter", "jack")]

    def test_source_and_provenance_preserved(self):
        outcomes = [success("src", raw("interest", "chess", provenance="src/batch-9"))]
        (record,) = normalize_records(outcomes)
        assert (record.source, record.provenance) == ("src", "src/batch-9")


class TestDedup:
    def test_keeps_highest_confidence(self):
        a = make_record(confidence=0.5, provenance="p2")
        b = make_record(confidence=0.9, provenance="p1")
        assert dedup([a, b]) == [b]
        assert dedup([b, a]) == [b]

    def test_confidence_tie_keeps_smallest_provenance(self):
        a = make_record(confidence=0.9, provenance="p2")
        b = make_record(confidence=0.9, provenance="p1")
        assert dedup([a, b]) == [b]
        assert dedup([b, a]) == [b]

    def test_same_fact_from_other_sources_survives(self):
        a = make_record(source="s1")
        b = make_record(source="s2")
        assert len(dedup([a, b])) == 2

    def test_output_sorted_and_idempotent(self):
        records = [
            make_record(attribute="interest", value="chess"),
            make_record(attribute="alias", value="ada"),
            make_record(attribute="email", value="a@x.io"),
        ]
        out = dedup(records)
        assert [(r.attribute, r.value, r.source) for r in out] == sorted(
            (r.attribute, r.value, r.source) for r in records
        )
        assert dedup(out) == out


class TestRecordId:
    def test_shape_and_content_addressing(self):
        record = make_record()
        assert len(record.record_id) == 16
        assert int(record.record_id, 16) >= 0  # hex
        same_content = make_record(provenance="entirely/different")
        assert same_content.record_id == record.record_id
        other = make_record(value="different")
        assert other.record_id != record.record_id


class TestResolve:
    def test_batch_links_records_together(self):
        a = make_record(attribute="full_name", value="Ada L", provenance="b1")
        b = make_record(attribute="interest", value="chess", provenance="b1")
        profiles = resolve_candidates([a, b])
        assert len(profiles) == 1
        assert len(profiles[0].records) == 2

    def test_shared_email_welds_sources(self):
        a = make_record(attribute="email", value="a@x.io", source="s1", provenance="p1")
        b = make_record(attribute="email", value="a@x.io", source="s2", provenance="p2")
        c = make_record(attribute="interest", value="chess", source="s2", provenance="p2")
        assert len(resolve_candidates([a, b, c])) == 1

    def test_name_overlap_merges_identifier_free_clusters(self):
        a = make_record(value="harry styles", source="s1", provenance="p1")
        b = make_record(value="harry edward styles", source="s2", provenance="p2")
        assert len(resolve_candidates([a, b])) == 1  # overlap 2/3

    def test_weak_name_overlap_does_not_merge(self):
        a = make_record(value="john smith", source="s1", provenance="p1")
        b = make_record(value="jane smith", source="s2", provenance="p2")
        assert len(resolve_candidates([a, b])) == 2  # overlap 1/3

    def test_exact_threshold_merges(self):
        a = make_record(value="shahin", source="s1", provenance="p1")
        b = make_record(value="shahin mohammadzadeh", source="s2", provenance="p2")
        assert len(resolve_candidates([a, b])) == 1  # overlap exactly 0.5

    def test_hard_identifiers_veto_name_merges(self):
        profiles = resolve_candidates(
            [
                make_record(value="john smith", source="s1", provenance="p1"),
                make_record(
                    attribute="email", value="a@x.io", source="s1", provenance="p1"
                ),
                make_record(value="john smith", source="s2", provenance="p2"),
                make_record(
                    attribute="email", value="b@x.io", source="s2", provenance="p2"
                ),
            ]
        )
        assert len(profiles) == 2

    def test_one_sided_hard_identifier_still_vetoes(self):
        profiles = resolve_candidates(
            [
                make_record(value="john smith", source="s1", provenance="p1"),
                make_record(
                    attribute="email", value="a@x.io", source="s1", provenance="p1"
                ),
                make_record(value="john smith", source="s2", provenance="p2"),
            ]
        )
        assert len(profiles) == 2

    def test_alias_participates_in_soft_matching(self):
        a = make_record(attribute="alias", value="hstyles online", source="s1", provenance="p1")
        b = make_record(attribute="full_name", value="hstyles", source="s2", provenance="p2")
        assert len(resolve_candidates([a, b])) == 1

    def test_merges_chain_through_the_growing_cluster(self):
        # a merges with b (2/3); c overlaps b (2/3) but barely overlaps a
        # (1/3) — after the first merge the cluster's best name wins.
        a = make_record(value="alpha beta", source="s1", provenance="p1")
        b = make_record(value="alpha beta gamma", source="s2", provenance="p2")
        c = make_record(value="beta gamma", source="s3", provenance="p3")
        assert len(resolve_candidates([a, b, c])) == 1

    def test_cluster_ids_are_min_member_record_id(self):
        records = [
            make_record(value="ada lovelace", source="s1", provenance="p1"),
            make_record(attribute="interest", value="chess", source="s1", provenance="p1"),
            make_record(value="mary major", source="s2", provenance="p2"),
        ]
        for profile in resolve_candidates(records):
            assert profile.cluster_id == min(r.record_id for r in profile.records)

    def test_profiles_sorted_by_cluster_id(self):
        records = [
            make_record(value=name, source=f"s{i}", provenance=f"p{i}")
            for i, name in enumerate(["ada lovelace", "mary major", "zed zange"])
        ]
        profiles = resolve_candidates(records)
        ids = [p.cluster_id for p in profiles]
        assert ids == sorted(ids)

    def test_empty_input(self):
        assert resolve_candidates([]) == []


class TestVisibility:
    def test_log_growth_single_source(self):
        records = tuple(
            make_record(attribute="interest", value=f"v{i}", source="one") for i in range(3)
        )
        profile = CandidateProfile(cluster_id="c", records=records)
        assert visibility_score(profile, reg_with(one=1.0)) == 2.0  # log2(1+3)

    def test_reliability_weights_each_source(self):
        records = (
            make_record(source="one"),
            make_record(attribute="interest", value="a", source="one"),
            make_record(attribute="interest", value="b", source="one"),
            make_record(source="half"),
        )
        profile = CandidateProfile(cluster_id="c", records=records)
        expected = 1.0 * math.log2(4) + 0.5 * math.log2(2)
        assert visibility_score(profile, reg_with(one=1.0, half=0.5)) == expected

    def test_unregistered_source_defaults_to_full_weight(self):
        profile = CandidateProfile(cluster_id="c", records=(make_record(source="ghost"),))
        assert visibility_score(profile, reg_with(one=1.0)) == 1.0

    def test_empty_profile_scores_zero(self):
        assert visibility_score(CandidateProfile(cluster_id="c", records=()), BUILTIN) == 0.0


class TestMatchScore:
    def test_identifier_hit_dominates(self):
        query = classify_input("a@x.io")
        profile = CandidateProfile(
            cluster_id="c",
            records=(make_record(attribute="email", value="a@x.io"),),
            visibility=4.0,
        )
        assert match_score(profile, query, candidates_max_visibility=4.0) == 3.5

    def test_identifier_query_ignores_names(self):
        query = classify_input("a@x.io")
        profile = CandidateProfile(
            cluster_id="c",
            records=(make_record(attribute="full_name", value="a x io"),),
            visibility=2.0,
        )
        assert match_score(profile, query, candidates_max_visibility=4.0) == 0.25

    def test_name_query_uses_best_name_overlap(self):
        query = classify_input("Harry Styles")
        profile = CandidateProfile(
            cluster_id="c",
            records=(
                make_record(attribute="full_name", value="harry edward styles"),
                make_record(attribute="alias", value="unrelated"),
            ),
            visibility=2.0,
        )
        expected = 2 / 3 + 0.5 * (2.0 / 4.0)
        assert math.isclose(match_score(profile, query, 4.0), expected)

    def test_keyword_query_also_matches_names(self):
        query = classify_input("styles")
        profile = CandidateProfile(
            cluster_id="c",
            records=(make_record(attribute="full_name", value="harry styles"),),
            visibility=4.0,
        )
        assert match_score(profile, query, 4.0) == 0.5 + 0.5

    def test_zero_max_visibility_contributes_nothing(self):
        query = classify_input("a@x.io")
        profile = CandidateProfile(
            cluster_id="c",
            records=(make_record(attribute="email", value="a@x.io"),),
            visibility=0.0,
        )
        assert match_score(profile, query, candidates_max_visibility=0.0) == 3.0


class TestBestMatch:
    def test_empty_candidates_raise(self):
        with pytest.raises(NoCandidatesError):
            best_match([], classify_input("whoever"), BUILTIN)

    def test_equal_scores_fall_back_to_visibility_then_id(self):
        # Cluster A: weaker name overlap (3/4) but twice the visibility.
        # Cluster B: perfect overlap, half the visibility.  Both score 1.25.
        a_records = (
            make_record(value="ana bo cruz", source="s1", provenance="pa"),
            make_record(attribute="location", value="x", source="s1", provenance="pa"),
            make_record(attribute="interest", value="y", source="s1", provenance="pa"),
        )
        b_records = (
            make_record(value="ana bo cruz dee", source="s2", provenance="pb"),
        )
        a = CandidateProfile(cluster_id="aaa", records=a_records)
        b = CandidateProfile(cluster_id="bbb", records=b_records)
        query = classify_input("ana bo cruz dee")
        registry = reg_with(s1=1.0, s2=1.0)
        ranked = rank_candidates([a, b], query, registry)
        assert ranked[0].match == ranked[1].match == 1.25
        winner = best_match([a, b], query, registry)
        assert winner.cluster_id == "aaa"  # higher visibility wins the tie

    def test_total_tie_resolved_by_smallest_cluster_id(self):
        records_a = (make_record(value="john smith", source="s1", provenance="pa"),)
        records_b = (make_record(value="john smith", source="s2", provenance="pb"),)
        a = CandidateProfile(cluster_id="2222", records=records_a)
        b = CandidateProfile(cluster_id="1111", records=records_b)
        query = classify_input("John Smith")
        registry = reg_with(s1=1.0, s2=1.0)
        winner = best_match([a, b], query, registry)
        assert winner.cluster_id == "1111"

    def test_rank_stamps_visibility_and_match(self):
        records = (make_record(value="ada lovelace", source="s1"),)
        (ranked,) = rank_candidates(
            [CandidateProfile(cluster_id="c", records=records)],
            classify_input("Ada Lovelace"),
            reg_with(s1=1.0),
        )
        assert ranked.visibility == 1.0
        assert ranked.match == 1.5  # perfect name + max visibility share


class TestFilterRelevance:
    def make_best(self, *records) -> CandidateProfile:
        return CandidateProfile(cluster_id="best", records=tuple(records))

    def test_frozen_relevance_examples(self):
        registry = reg_with(full=1.0, half=0.5)
        member = make_record(source="full", confidence=0.9)
        outsider_strong = make_record(
            attribute="interest", value="chess", source="full", confidence=0.9
        )
        outsider_weak = make_record(
            attribute="interest", value="golf", source="full", confidence=0.6
        )
        member_unreliable = make_record(
            attribute="location", value="x", source="half", confidence=0.3
        )
        best = self.make_best(member, member_unreliable)
        kept = filter_relevance(
            [member, outsider_strong, outsider_weak, member_unreliable],
            best,
            registry,
        )
        values = {(r.attribute, r.value) for r in kept}
        # member: 1.0 * 0.9 = 0.9 >= 0.2           -> kept
        # outsider_strong: 0.9 * 0.25 = 0.225      -> kept
        # outsider_weak: 0.6 * 0.25 = 0.15         -> dropped
        # member_unreliable: 0.5 * 0.3 = 0.15      -> dropped
        assert values == {("full_name", "john smith"), ("interest", "chess")}

    def test_zero_threshold_keeps_everything(self):
        registry = reg_with(full=1.0)
        records = [make_record(confidence=0.05)]
        best = self.make_best()
        assert filter_relevance(records, best, registry, threshold=0.0) == records

    def test_output_sorted(self):
        registry = reg_with(s=1.0)
        records = [
            make_record(attribute="interest", value="z", source="s"),
            make_record(attribute="alias", value="a", source="s"),
        ]
        best = self.make_best(*records)
        kept = filter_relevance(records, best, registry)
        assert [r.attribute for r in kept] == ["alias", "interest"]


# ---------------------------------------------------------------------------
# Property tests against the independent oracle
# ---------------------------------------------------------------------------

ATTR_VALUE_POOL = (
    [("email", v) for v in ("a@x.io", "b@x.io", "c@x.io")]
    + [("phone", v) for v in ("+12025550101", "+12025550102")]
    + [("social_handle_twitter", v) for v in ("handle_one", "handle_two")]
    + [
        ("full_name", v)
        for v in (
            "john smith",
            "j smith",
            "john quincy smith",
            "mary major",
            "harry styles",
            "harry edward styles",
        )
    ]
    + [("alias", v) for v in ("smith", "hstyles", "mary major")]
    + [("location", v) for v in ("denver", "boston")]
    + [("interest", v) for v in ("chess", "golf")]
)

record_strategy = st.builds(
    lambda av, src, batch, conf: EvidenceRecord(
        attribute=av[0],
        value=av[1],
        source=src,
        confidence=conf,
        provenance=f"{src}/{batch}",
    ),
    st.sampled_from(ATTR_VALUE_POOL),
    st.sampled_from(("s1", "s2", "s3", "s4")),
    st.sampled_from(("b1", "b2", "b3", "b4", "b5")),
    st.sampled_from((0.5, 0.7, 0.9, 1.0)),
)
records_strategy = st.lists(record_strategy, max_size=40)


def partition_signature(profiles):
    return sorted(tuple(sorted(r.record_id for r in p.records)) for p in profiles)


@given(records_strategy)
@settings(max_examples=100, deadline=None)
def test_clustering_matches_brute_force_oracle(records):
    actual = partition_signature(resolve_candidates(records))
    expected = sorted(
        tuple(sorted(records[i].record_id for i in component))
        for component in oracle_partition(records)
    )
    assert actual == expected


@given(records_strategy, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_clustering_is_permutation_invariant(records, rng):
    shuffled = list(records)
    rng.shuffle(shuffled)
    assert resolve_candidates(shuffled) == resolve_candidates(records)


@given(records_strategy, record_strategy)
@settings(max_examples=60, deadline=None)
def test_visibility_never_decreases_when_evidence_is_added(records, extra):
    registry = reg_with(s1=1.0, s2=0.8, s3=0.5, s4=0.1)
    before = visibility_score(
        CandidateProfile(cluster_id="c", records=tuple(records)), registry
    )
    after = visibility_score(
        CandidateProfile(cluster_id="c", records=tuple(records) + (extra,)), registry
    )
    assert after >= before


@given(
    records_strategy,
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_raising_threshold_only_removes_records(records, t1, t2):
    low, high = sorted((t1, t2))
    registry = reg_with(s1=1.0, s2=0.8, s3=0.5, s4=0.1)
    profiles = resolve_candidates(records)
    best = profiles[0] if profiles else CandidateProfile(cluster_id="c", records=())
    kept_low = {r.record_id for r in filter_relevance(records, best, registry, low)}
    kept_high = {r.record_id for r in filter_relevance(records, best, registry, high)}
    assert kept_high <= kept_low


@given(records_strategy, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_dedup_is_order_insensitive_and_idempotent(records, rng):
    shuffled = list(records)
    rng.shuffle(shuffled)
    once = dedup(records)
    assert dedup(shuffled) == once
    assert dedup(once) == once


def test_full_aggregation_path_end_to_end():
    """Normalize -> dedup -> resolve -> rank -> best -> filter, by hand."""
    outcomes = [
        success(
            "webmii",
            raw("full_name", "Nora Quinn", provenance="webmii/1"),
            raw("email", "nora@q.example", provenance="webmii/1"),
            raw("interest", "kayaking", provenance="webmii/1"),
        ),
        success(
            "maltego",
            raw("email", "Nora@Q.example", provenance="maltego/1"),
            raw("location", "Oslo", provenance="maltego/1"),
        ),
        success(
            "webmii",
            raw("full_name", "Nora Quill", provenance="webmii/2"),
        ),
        CollectorOutcome(
            collector="tinfoleak", status=OutcomeStatus.TIMEOUT, error_detail="t"
        ),
    ]
    query = classify_input("nora@q.example")
    records = dedup(normalize_records(outcomes))
    candidates = resolve_candidates(records)
    assert len(candidates) == 2  # Quinn (with email), Quill (name only)
    best = best_match(candidates, query, BUILTIN)
    values = {r.value for r in best.records}
    assert "nora@q.example" in values and "Oslo" in values
    assert best.match == 3.5
    kept = filter_relevance(list(best.records), best, BUILTIN)
    assert {r.value for r in kept} == values  # all confident member records stay
