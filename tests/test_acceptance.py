"""Acceptance gate: seven end-to-end guarantees, one pass/fail line each.

Each criterion records a PASS/FAIL verdict; conftest.py prints the collected
verdicts in the terminal summary (outside pytest's output capture) so a test
run always shows the per-guarantee result lines.
"""

from __future__ import annotations

import functools
import json
import random
import time
from dataclasses import replace
from pathlib import Path

from dossier.aggregate import (
    CandidateProfile,
    EvidenceRecord,
    best_match,
    dedup,
    normalize_records,
    rank_candidates,
    resolve_candidates,
    visibility_score,
)
from dossier.cli import main as cli_main
from dossier.collect.corpus import Corpus, bundled_corpus_path, load_corpus
from dossier.collect.executor import execute_stack, make_fetcher
from dossier.collect.records import ExecutionConfig
from dossier.inputs import InputKind, Platform, QueryInput, classify_input
from dossier.routing import (
    CollectorDescriptor,
    Registry,
    accepts,
    builtin_matrix,
    route,
)

from conftest import closed_port, john_smith_rows, run_probe, write_jsonl
from oracles import oracle_best_cluster, oracle_partition

GOLDEN_DIR = Path(__file__).parent / "goldens"
PINNED = "2020-01-01T00:00:00+00:00"

# Verdict lines, printed by conftest.pytest_terminal_summary after the run.
VERDICTS: list[str] = []


def criterion(number: int, title: str):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                VERDICTS.append(f"FAIL  criterion {number}: {title}")
                raise
            VERDICTS.append(f"PASS  criterion {number}: {title}")
            return result

        return inner

    return wrap


def section_block(markdown: str, title: str) -> str:
    for block in markdown.split("\n## "):
        if block.startswith(title + "\n"):
            return block
    raise AssertionError(f"section {title!r} not found")


# ---------------------------------------------------------------------------
# Criterion 1 — capability-matrix fidelity (98 cells, zero tolerance, < 1 s)
# ---------------------------------------------------------------------------

# Independently transcribed acceptance table: collector -> accepted inputs.
EXPECTED_MATRIX = {
    "bmobile": {"phone"},
    "maltego": {"domain", "email", "facebook", "instagram", "keyword", "phone", "twitter"},
    "pipl": {"email", "phone"},
    "rapportive": {"email"},
    "searchbug": {"email"},
    "social_bearing": {"twitter"},
    "social_buzz": {"twitter"},
    "stalkscan": {"facebook"},
    "tinfoleak": {"twitter"},
    "upolos": {"instagram"},
    "verify_email": {"email"},
    "vivial": {"domain"},
    "webmii": {"keyword"},
    "whatbreach": {"email"},
}

COLUMN_QUERIES = {
    "domain": QueryInput(InputKind.DOMAIN, "example.com", "example.com"),
    "email": QueryInput(InputKind.EMAIL, "p@example.com", "p@example.com"),
    "facebook": QueryInput(InputKind.SOCIAL_HANDLE, "@p", "p", Platform.FACEBOOK),
    "instagram": QueryInput(InputKind.SOCIAL_HANDLE, "@p", "p", Platform.INSTAGRAM),
    "keyword": QueryInput(InputKind.KEYWORD, "p", "p"),
    "phone": QueryInput(InputKind.PHONE, "+14155550100", "+14155550100"),
    "twitter": QueryInput(InputKind.SOCIAL_HANDLE, "@p", "p", Platform.TWITTER),
}


@criterion(1, "all 98 routing-matrix cells match the acceptance table")
def test_criterion_1_capability_matrix_fidelity():
    started = time.perf_counter()
    registry = builtin_matrix()
    assert set(registry) == set(EXPECTED_MATRIX)
    cells = 0
    for column, query in COLUMN_QUERIES.items():
        routed = {d.name for d in route(query, registry)}
        for name in registry:
            cells += 1
            expected = column in EXPECTED_MATRIX[name]
            assert (name in routed) == expected, f"cell ({name}, {column})"
    assert cells == 98
    # person names ride the keyword column
    name_query = QueryInput(InputKind.NAME, "A B", "a b")
    assert [d.name for d in route(name_query, registry)] == [
        d.name for d in route(COLUMN_QUERIES["keyword"], registry)
    ]
    assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# Criterion 2 — case-study reconstruction against golden reports (< 5 s)
# ---------------------------------------------------------------------------


@criterion(2, "bundled case studies reproduce the golden reports byte for byte")
def test_criterion_2_case_study_reconstruction(tmp_path):
    started = time.perf_counter()
    corpus_path = str(bundled_corpus_path())
    corpus = load_corpus(corpus_path)
    assert len(corpus.subjects) == 3
    assert len(corpus) >= 60

    harry_out = tmp_path / "harry.md"
    assert (
        cli_main(
            [
                "run",
                "--input",
                "Harry Styles",
                "--template",
                "matrimonial",
                "--corpus",
                corpus_path,
                "--pin-timestamp",
                PINNED,
                "--out",
                str(harry_out),
            ]
        )
        == 0
    )
    harry_bytes = harry_out.read_bytes()
    assert harry_bytes == (GOLDEN_DIR / "harry_matrimonial.md").read_bytes()
    harry_text = harry_bytes.decode("utf-8")
    assert "height_m: 1.78" in section_block(harry_text, "Physical Stats & more")
    assert "- marital_status: unmarried" in section_block(harry_text, "Partners and More")

    shahin_out = tmp_path / "shahin.md"
    assert (
        cli_main(
            [
                "run",
                "--input",
                "@shahin.mzr",
                "--kind",
                "instagram",
                "--template",
                "criminal",
                "--corpus",
                corpus_path,
                "--pin-timestamp",
                PINNED,
                "--out",
                str(shahin_out),
            ]
        )
        == 0
    )
    shahin_bytes = shahin_out.read_bytes()
    assert shahin_bytes == (GOLDEN_DIR / "shahin_criminal.md").read_bytes()
    shahin_text = shahin_bytes.decode("utf-8")
    assert "two attempted murders" in section_block(shahin_text, "Criminal Record")

    assert time.perf_counter() - started < 5.0


# ---------------------------------------------------------------------------
# Criterion 3 — two people, one name: deterministic disambiguation
# ---------------------------------------------------------------------------


def aggregate(outcomes, query, registry):
    records = dedup(normalize_records(outcomes))
    candidates = resolve_candidates(records)
    return candidates, best_match(candidates, query, registry)


@criterion(3, "identifier queries pick the owning cluster 100/100; name ties break by rule")
def test_criterion_3_shared_name_disambiguation(tmp_path):
    registry = builtin_matrix()
    base = load_corpus(write_jsonl(tmp_path / "js.jsonl", john_smith_rows()))
    all_facts = [f for s in base.subjects for f in base.facts_for(s)]
    reliabilities = {name: registry.reliability_of(name) for name in registry}

    # A) email query: the winner owns that email, under 100 permutations of
    # corpus order, collector order, outcome order, record order, parallelism.
    email_query = classify_input("john.smith@alpha.example")
    rng = random.Random(13)
    winners = set()
    for _ in range(100):
        facts = list(all_facts)
        rng.shuffle(facts)
        collectors = route(email_query, registry)
        rng.shuffle(collectors)
        outcomes = execute_stack(
            email_query,
            collectors,
            make_fetcher(Corpus(facts)),
            ExecutionConfig(max_parallel=rng.randint(1, 8)),
        )
        shuffled = []
        for outcome in outcomes:
            records = list(outcome.records)
            rng.shuffle(records)
            shuffled.append(replace(outcome, records=tuple(records)))
        rng.shuffle(shuffled)
        _, best = aggregate(shuffled, email_query, registry)
        assert any(
            r.attribute == "email" and r.value == "john.smith@alpha.example"
            for r in best.records
        )
        winners.add(best.cluster_id)
    assert len(winners) == 1

    # B) bare name query: higher-visibility candidate wins, and an
    # independent brute-force scorer agrees.
    name_query = classify_input("John Smith")
    outcomes = execute_stack(
        name_query, route(name_query, registry), make_fetcher(base)
    )
    candidates, best = aggregate(outcomes, name_query, registry)
    assert len(candidates) == 2
    ranked = rank_candidates(candidates, name_query, registry)
    most_visible = max(ranked, key=lambda c: c.visibility)
    assert best.cluster_id == most_visible.cluster_id
    assert any(r.value == "john.smith@beta.example" for r in best.records)
    oracle_winner = oracle_best_cluster(
        [(c.cluster_id, list(c.records)) for c in candidates],
        "name",
        name_query.canonical,
        None,
        reliabilities,
    )
    assert oracle_winner == best.cluster_id

    # C) an exact tie (symmetric corpus) falls to the smallest cluster id.
    symmetric = load_corpus(
        write_jsonl(tmp_path / "js_sym.jsonl", john_smith_rows(symmetric=True))
    )
    outcomes = execute_stack(
        name_query, route(name_query, registry), make_fetcher(symmetric)
    )
    candidates, best = aggregate(outcomes, name_query, registry)
    ranked = rank_candidates(candidates, name_query, registry)
    assert len(ranked) == 2
    assert ranked[0].match == ranked[1].match
    assert ranked[0].visibility == ranked[1].visibility
    assert best.cluster_id == min(c.cluster_id for c in ranked)
    oracle_winner = oracle_best_cluster(
        [(c.cluster_id, list(c.records)) for c in candidates],
        "name",
        name_query.canonical,
        None,
        reliabilities,
    )
    assert oracle_winner == best.cluster_id


# ---------------------------------------------------------------------------
# Criterion 4 — clustering equals a brute-force oracle on 500 random sets
# ---------------------------------------------------------------------------

POOL = (
    [("email", v) for v in ("a@x.io", "b@x.io", "c@x.io")]
    + [("phone", v) for v in ("+12025550101", "+12025550102")]
    + [("social_handle_twitter", v) for v in ("handle_one", "handle_two")]
    + [("social_handle_instagram", v) for v in ("snap_one",)]
    + [
        ("full_name", v)
        for v in (
            "john smith",
            "j smith",
            "john quincy smith",
            "mary major",
            "mary j major",
            "harry styles",
            "harry edward styles",
        )
    ]
    + [("alias", v) for v in ("smith", "hstyles", "mary major", "jqs")]
    + [("location", v) for v in ("denver", "boston", "oslo")]
    + [("interest", v) for v in ("chess", "golf")]
    + [("url", v) for v in ("https://a.example", "https://b.example")]
)


def random_records(rng: random.Random, size: int) -> list[EvidenceRecord]:
    records = []
    for _ in range(size):
        attribute, value = rng.choice(POOL)
        source = rng.choice(("s1", "s2", "s3", "s4"))
        records.append(
            EvidenceRecord(
                attribute=attribute,
                value=value,
                source=source,
                confidence=rng.choice((0.5, 0.7, 0.9, 1.0)),
                provenance=f"{source}/b{rng.randint(1, 6)}",
            )
        )
    return records


def partition_signature(profiles):
    return sorted(tuple(sorted(r.record_id for r in p.records)) for p in profiles)


@criterion(4, "clustering matches the brute-force oracle on 500 random record sets")
def test_criterion_4_clustering_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20240817)
    for trial in range(500):
        records = random_records(rng, rng.randint(0, 50))
        actual = partition_signature(resolve_candidates(records))
        expected = sorted(
            tuple(sorted(records[i].record_id for i in component))
            for component in oracle_partition(records)
        )
        assert actual == expected, f"trial {trial}"
    assert time.perf_counter() - started < 30.0


# ---------------------------------------------------------------------------
# Criterion 5 — visibility monotonicity and reliability-scale invariance
# ---------------------------------------------------------------------------


def make_registry(reliabilities: dict) -> Registry:
    return Registry(
        CollectorDescriptor(name=name, accepts=accepts("keyword"), reliability=rel)
        for name, rel in reliabilities.items()
    )


@criterion(5, "visibility never drops when evidence is added; winners survive reliability rescaling")
def test_criterion_5_visibility_monotonic_and_scale_invariant():
    rng = random.Random(97)

    for _ in range(1000):
        sources = [f"s{i}" for i in range(rng.randint(1, 5))]
        registry = make_registry({s: rng.randint(1, 10) / 20 for s in sources})
        records = tuple(
            replace(r, source=rng.choice(sources))
            for r in random_records(rng, rng.randint(1, 20))
        )
        profile = CandidateProfile(cluster_id="c", records=records)
        before = visibility_score(profile, registry)
        extra = replace(random_records(rng, 1)[0], source=rng.choice(sources))
        after = visibility_score(
            CandidateProfile(cluster_id="c", records=records + (extra,)), registry
        )
        assert after >= before

    queries = (
        classify_input("a@x.io"),
        classify_input("John Smith"),
        classify_input("smith"),
        classify_input("+12025550101"),
    )
    for _ in range(1000):
        sources = [f"s{i}" for i in range(rng.randint(2, 5))]
        reliabilities = {s: rng.randint(1, 10) / 20 for s in sources}
        clusters = []
        for index in range(rng.randint(2, 5)):
            records = tuple(
                replace(r, source=rng.choice(sources))
                for r in random_records(rng, rng.randint(1, 6))
            )
            clusters.append(CandidateProfile(cluster_id=f"c{index}", records=records))
        query = rng.choice(queries)
        scale = rng.choice((0.25, 0.5, 2.0, round(10 ** rng.uniform(-1.0, 0.3), 6)))
        scaled = make_registry({s: r * scale for s, r in reliabilities.items()})
        unscaled = make_registry(reliabilities)
        assert (
            best_match(clusters, query, unscaled).cluster_id
            == best_match(clusters, query, scaled).cluster_id
        )


# ---------------------------------------------------------------------------
# Criterion 6 — losing 2 of 6 email collectors degrades, never breaks
# ---------------------------------------------------------------------------


@criterion(6, "with 2 of 6 email collectors dead the run succeeds and loses nothing else")
def test_criterion_6_partial_failure_resilience(tmp_path):
    corpus_path = str(bundled_corpus_path())
    port = closed_port()
    dead_http = {
        "base": f"http://127.0.0.1:{port}",
        "query_template": "/search?q={value}",
    }
    overlay = tmp_path / "overlay.json"
    overlay.write_text(
        json.dumps(
            {
                "disable": ["pipl", "whatbreach"],
                "add": [
                    {
                        "name": "pipl",
                        "accepts": ["email", "phone"],
                        "backend": "http",
                        "http": dead_http,
                    },
                    {
                        "name": "whatbreach",
                        "accepts": ["email"],
                        "backend": "http",
                        "http": dead_http,
                    },
                ],
            }
        )
    )

    def run(out, *extra):
        code = cli_main(
            [
                "run",
                "--input",
                "raj.reddy@example.edu",
                "--format",
                "json",
                "--corpus",
                corpus_path,
                "--pin-timestamp",
                PINNED,
                "--timeout-ms",
                "2000",
                "--out",
                str(out),
                *extra,
            ]
        )
        assert code == 0
        return json.loads(out.read_text())

    fault = run(tmp_path / "fault.json", "--registry", str(overlay))
    clean = run(tmp_path / "clean.json")

    assert sorted(f["collector"] for f in fault["failures"]) == ["pipl", "whatbreach"]
    assert all(f["status"] in ("error", "timeout") for f in fault["failures"])
    assert clean["failures"] == []

    survivors = {"maltego", "rapportive", "searchbug", "verify_email"}

    def fact_set(payload):
        out = set()
        for section in payload["sections"]:
            for fact in section["facts"]:
                kept = tuple(s for s in fact["sources"] if s in survivors)
                if kept:
                    out.add((section["title"], fact["attribute"], fact["value"], kept))
        return out

    assert fact_set(fault) == fact_set(clean)
    fault_sources = {
        source
        for section in fault["sections"]
        for fact in section["facts"]
        for source in fact["sources"]
    }
    assert fault_sources <= survivors


# ---------------------------------------------------------------------------
# Criterion 7 — byte-identical reports under permuted execution
# ---------------------------------------------------------------------------


@criterion(7, "10 repeated runs render byte-identical reports")
def test_criterion_7_byte_identical_reports(tmp_path):
    base_lines = [
        line
        for line in Path(bundled_corpus_path()).read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    rng = random.Random(5)
    parallel_schedule = [1, 2, 3, 4, 5, 6, 7, 8, 3, 5]
    blobs = []
    for run_index in range(10):
        lines = list(base_lines)
        rng.shuffle(lines)
        corpus_path = tmp_path / f"corpus_{run_index}.jsonl"
        corpus_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / f"run_{run_index}.json"
        code = cli_main(
            [
                "run",
                "--input",
                "raj.reddy@example.edu",
                "--format",
                "json",
                "--corpus",
                str(corpus_path),
                "--pin-timestamp",
                PINNED,
                "--max-parallel",
                str(parallel_schedule[run_index]),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        blobs.append(out.read_bytes())
    assert len(set(blobs)) == 1


# Five builtin queries, one of each kind but phone, each rendered in every
# format into the directory argv[1]; prints the exit codes.
HASH_SEED_PROBE = """
import sys
from dossier.cli import main
queries = [
    ["raj.reddy@example.edu"],
    ["Harry Styles"],
    ["@shahin.mzr", "--kind", "instagram"],
    ["Hazza"],
    ["example.edu"],
]
codes = [
    main(["run", "--input", *query, "--corpus", "builtin", "--format", fmt,
          "--pin-timestamp", sys.argv[2], "--out", f"{sys.argv[1]}/{i}.{fmt}"])
    for i, query in enumerate(queries)
    for fmt in ("md", "json", "csv")
]
print(codes)
"""


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    """Criterion 7 reruns in one process, so under one hash seed; two
    processes with different ``PYTHONHASHSEED`` values render the same
    fifteen reports byte for byte."""
    rendered = []
    for seed in ("0", "1"):
        out = tmp_path / f"seed-{seed}"
        out.mkdir()
        codes = run_probe(HASH_SEED_PROBE, str(out), PINNED, env={"PYTHONHASHSEED": seed})
        assert codes == str([0] * 15)
        rendered.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert len(rendered[0]) == 15
    assert rendered[0] == rendered[1]
