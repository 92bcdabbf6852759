"""Re-measure the ROADMAP baseline points with the benchmark's own inputs.

Run from the root of a checkout:  python3 perfbench/baseline.py [--seed N]

* cold CLI: ``python -m dossier.cli run --input "Harry Styles" --corpus
  builtin``, spawn to exit, next to a bare ``python -c pass``;
* ``load_corpus`` of a generated identity corpus of 5,000 subjects, in fresh
  processes;
* ``resolve_candidates`` on identifier-free name clusters (one surname of the
  soft-link generator) at about 200, 600 and 2,000 records.

Timings are medians where the count says so; the soft-link points run once.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
SPAWNS = 9
LOAD_RUNS = 5
SOFT_SUBJECTS = (33, 100, 333)  # x6 records: ~200, ~600, ~2,000


def _spawn_ms(args, env) -> float:
    started = time.perf_counter()
    subprocess.run(args, env=env, check=True, stdout=subprocess.DEVNULL)
    return (time.perf_counter() - started) * 1000.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "dossier" / "__init__.py").is_file():
        print("run from the root of a dossier checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    work = root / ".perfbench" / f"baseline-{os.getpid()}"
    work.mkdir(parents=True)
    results = {}
    try:
        out = str(work / "harry.md")
        bare = [_spawn_ms([sys.executable, "-c", "pass"], env) for _ in range(SPAWNS)]
        cli = [
            _spawn_ms([sys.executable, "-m", "dossier.cli", "run", "--input", "Harry Styles",
                       "--corpus", "builtin", "--out", out], env)
            for _ in range(SPAWNS)
        ]
        results["interpreter_start_ms"] = statistics.median(bare)
        results["cli_builtin_ms"] = statistics.median(cli)

        rng = random.Random(f"perfbench-baseline:{args.seed}")
        subjects = gen.identity_subjects(rng, 5000)
        corpus = work / "corpus.jsonl"
        gen._write_corpus(corpus, subjects)
        loads = []
        for _ in range(LOAD_RUNS):
            done = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "probe", "--corpus", str(corpus),
                 "--max-parallel", "1"],
                env=env, check=True, stdout=subprocess.PIPE,
            )
            spans = json.loads(done.stdout)["spans"]
            loads.extend(s["end"] - s["start"] for s in spans if s["name"] == "load_corpus")
        results["load_corpus_5000_ms"] = statistics.median(loads)
        results["load_corpus_5000_facts"] = sum(len(s["facts"]) for s in subjects)

        sys.path.insert(0, str(root / "src"))
        from dossier.aggregate import EvidenceRecord, dedup, resolve_candidates

        for members in SOFT_SUBJECTS:
            people, _ = gen.soft_subjects(random.Random(f"{rng.random()}"), 1, members)
            records = [
                EvidenceRecord(fact["attribute"], fact["value"], source, fact["confidence"],
                               f"{source}/{fact['subject_id']}")
                for person in people for fact in person["facts"]
                for source in fact["platforms"]
            ]
            records = dedup(records)
            started = time.perf_counter()
            resolve_candidates(records)
            results[f"resolve_{len(records)}_records_s"] = time.perf_counter() - started
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, value in results.items():
        print(f"{name:<28} {value:12.3f}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
