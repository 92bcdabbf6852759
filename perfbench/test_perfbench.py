"""Self-tests of the benchmark harness.

Run from the root of a checkout:  python3 -m pytest perfbench -q

They check that inputs are a pure function of the seed, that the self-time
arithmetic is right on a hand-built span tree, and that the answers the
generator derives from its construction rules agree with the brute-force
oracles in ``tests/oracles.py`` (imported read-only).
"""

from __future__ import annotations

import random
import sys
from collections import namedtuple
from pathlib import Path

import pytest

import gen
import run
import spans

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import oracle_best_cluster, oracle_partition  # noqa: E402

Record = namedtuple("Record", "attribute value source provenance")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    first = gen.generate(workload, 7, tmp_path / "a")
    gen.generate(workload, 7, tmp_path / "b")
    other = gen.generate(workload, 8, tmp_path / "c")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert "corpus.jsonl" in names and "queries.json" in names
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "corpus.jsonl").read_bytes() != (
        tmp_path / "c" / "corpus.jsonl"
    ).read_bytes()
    # The seed picks strings, never sizes: every seed does the same work.
    assert (first["subjects"], len(first["blocks"][0])) == (
        other["subjects"], len(other["blocks"][0])
    )


def _span(sid, parent, name, start, end, qid=1, **attrs):
    return {"id": sid, "parent": parent, "qid": qid, "name": name,
            "start": start, "end": end, "attrs": attrs}


def test_self_time_on_hand_built_tree():
    tree = [
        _span(1, None, "query", 0.0, 100.0),
        _span(2, 1, "execute_stack", 10.0, 40.0),
        _span(3, 1, "render", 30.0, 60.0),  # overlaps its sibling
        _span(4, 2, "fetch", 15.0, 20.0, backend="corpus", records=3),
        _span(5, 2, "fetch", 18.0, 52.0, backend="http", records=1),  # outlives parent
        _span(6, 1, "dedup", 90.0, 130.0),  # outlives parent
    ]
    own = spans.self_times(tree)
    # query: 100 minus the union [10, 60] + [90, 100] of its children.
    assert own[1] == pytest.approx(40.0)
    # execute_stack: 30 minus fetches clipped to it, [15, 40].
    assert own[2] == pytest.approx(5.0)
    assert own[3] == pytest.approx(30.0)
    assert own[6] == pytest.approx(40.0)
    row = spans.per_query(tree)[1]
    assert row["collect.executor.wall_ms"] == pytest.approx(30.0)
    assert row["collect.executor.queue_ms"] == pytest.approx(5.0 + 8.0)
    assert row["collect.corpus.fetch_ms"] == pytest.approx(5.0)
    assert row["collect.adapters.fetch_ms"] == pytest.approx(34.0)
    assert row["collect.corpus.records_returned"] == 3
    assert row["report.render_ms"] == pytest.approx(30.0)


def _canonical(subject, attribute, value):
    if attribute == "email":
        return value.lower()
    if attribute == "phone":
        return subject["phone_canonical"]
    if attribute.startswith("social_handle_"):
        return value.lstrip("@").lower()
    return value


def _batches(subjects, collectors):
    """Records as the corpus backend emits them: one batch per subject and
    collector, holding the facts that collector can see."""
    records, owner = [], []
    for subject in subjects:
        for collector in collectors:
            for fact in subject["facts"]:
                if collector in fact["platforms"]:
                    value = _canonical(subject, fact["attribute"], fact["value"])
                    records.append(Record(fact["attribute"], value, collector,
                                          f"{collector}/{subject['id']}"))
                    owner.append(subject["id"])
    return records, owner


def _groups(indices_by_key):
    return sorted(sorted(group) for group in indices_by_key.values())


def test_identity_answers_agree_with_oracle():
    subjects = gen.identity_subjects(random.Random("oracle"), 12)
    by_id = {s["id"]: s for s in subjects}
    checked = 0
    for slot in ("email", "phone", "twitter", "facebook", "instagram", "name"):
        for target in [s for s in subjects if gen._slot_pool(s, slot)][:2]:
            query = gen._identity_query(target, slot, random.Random(slot))
            route = "keyword" if slot == "name" else slot.split("-")[0]
            # Everyone is returned; only the construction rules decide.
            records, owner = _batches(subjects, gen.ROUTES[route])
            expected: dict = {}
            for index, sid in enumerate(owner):
                expected.setdefault(sid, []).append(index)
            assert oracle_partition(records) == _groups(expected)
            clusters = [(sid, [records[i] for i in members]) for sid, members in expected.items()]
            if slot == "name":
                kind, canonical, platform = "name", target["name"].lower(), None
            elif slot in ("email", "phone"):
                kind, platform = slot, None
                canonical = target["email"] if slot == "email" else target["phone_canonical"]
            else:
                kind, platform = "social_handle", slot
                canonical = target["handles"][slot].lstrip("@").lower()
            winner = oracle_best_cluster(clusters, kind, canonical, platform, {})
            assert winner == query["expect"]["subject"]
            assert len(dict(clusters)[winner]) == query["expect"]["size"]
            assert by_id[winner]["email"] in query["expect"]["marker"]
            checked += 1
    assert checked == 12


def test_soft_link_answers_agree_with_oracle():
    subjects, families = gen.soft_subjects(random.Random("oracle"), 4, 9)
    names = {s["id"]: s["name"] for s in subjects}
    by_id = {s["id"]: s for s in subjects}
    for family in families:
        query = gen._soft_query(family, names)
        members = [by_id[sid] for group in family["groups"] for sid in group]
        records, owner = _batches(members, gen.ROUTES["keyword"])
        group_of = {sid: n for n, group in enumerate(family["groups"]) for sid in group}
        expected: dict = {}
        for index, sid in enumerate(owner):
            expected.setdefault(group_of[sid], []).append(index)
        assert oracle_partition(records) == _groups(expected)
        assert len(expected) == query["expect"]["candidates"]
        clusters = [(n, [records[i] for i in idx]) for n, idx in expected.items()]
        winner = oracle_best_cluster(clusters, "keyword", family["surname"].lower(), None, {})
        assert family["groups"][winner][0] == query["expect"]["subject"]
        assert len(dict(clusters)[winner]) == query["expect"]["size"]


def test_verdict_reads_the_rendered_report():
    query = {"expect": {"subject": "s1", "candidates": 2, "size": 3,
                        "marker": "- email: a@b.io — sources: ",
                        "failures": ["- whatbreach: timeout (no response within 250 ms)"],
                        "defect": None}}
    report = (
        "# Profile report: a@b.io\n\n"
        "- Candidate: 3 facts, visibility 1.0000, match 3.5000, rejected candidates: 1\n\n"
        "## Contact Details\n\n- email: a@b.io — sources: maltego, pipl\n\n"
        "## Collection failures\n\n- whatbreach: timeout (no response within 250 ms)\n"
    )
    assert run.verdict(query, report.encode(), None) is None
    assert "cluster size" in run.verdict(query, report.replace("3 facts", "4 facts").encode(), None)
    assert "candidates" in run.verdict(query, report.replace("candidates: 1", "candidates: 0").encode(), None)
    assert "failure section" in run.verdict(query, report.split("## Collection")[0].encode(), None)
    assert run.verdict(query, None, "exit code 4") == "exit code 4"


def test_only_a_defects_known_symptom_is_excused():
    subjects = gen.identity_subjects(random.Random("defects"), 400)
    base = next(s for s in subjects if s["domain"] == "mail.com")
    shadow = next(s for s in subjects if s["domain"] == "gmail.com")
    national = next(s for s in subjects if s["national"])
    suffix = gen._identity_query(base, "domain-suffix", random.Random(1))
    phone = gen._identity_query(national, "phone-national", random.Random(1))
    assert (suffix["expect"]["defect"], phone["expect"]["defect"]) == ("3a", "3b")
    assert suffix["expect"]["symptoms"][1]["subject"] == shadow["id"]

    def report(size, rejected, line=""):
        return (f"# Profile report\n\n- Candidate: {size} facts, visibility 1.0000, "
                f"match 1.0000, rejected candidates: {rejected}\n{line}").encode()

    nothing = report(0, 0)
    assert run.verdict(phone, nothing, None) is not None
    assert run.known_symptom(phone, nothing, None)
    assert not run.known_symptom(phone, None, "exit code 1")
    assert not run.known_symptom(phone, report(3, 0, phone["expect"]["marker"]), None)

    other = suffix["expect"]["symptoms"][1]
    shadow_wins = report(other["size"], 1, other["marker"] + "maltego\n")
    assert run.verdict(suffix, shadow_wins, None) is not None
    assert run.known_symptom(suffix, shadow_wins, None)
    assert not run.known_symptom(suffix, report(other["size"], 2, other["marker"]), None)
    assert not run.known_symptom(suffix, nothing, None)
