"""Command-line pipeline: classify, route, collect, aggregate, report.

Exit codes: 0 report written (collector failures included in the report are
still a success), 2 usage or invalid input, 3 no applicable collectors,
4 every collector failed, 5 corpus or registry file error.  The report file
is written atomically: on any non-zero exit nothing is written and any
pre-existing file at the output path is left untouched.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

from .aggregate import (
    DEFAULT_RELEVANCE_THRESHOLD,
    best_match,
    dedup,
    filter_relevance,
    normalize_records,
    resolve_candidates,
)
from .collect.corpus import CorpusError, bundled_corpus_path, load_corpus
from .collect.executor import execute_stack, make_fetcher
from .collect.records import ExecutionConfig, OutcomeStatus
from .errors import DossierError
from .inputs import (
    DEFAULT_REGION,
    InputKind,
    Platform,
    classify_input,
)
from .report import REPORT_FORMATS, TEMPLATE_NAMES, build_report, render, section_plan
from .routing import ACCEPT_COLUMNS, OverlayError, builtin_matrix, load_overlay, route

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_COLLECTORS = 3
EXIT_ALL_FAILED = 4
EXIT_FILE_ERROR = 5

# CLI --kind spellings -> (kind hint, platform hint): the routing columns
# plus "auto" (no hint) and "name".
KIND_CHOICES: dict[str, tuple[Optional[InputKind], Optional[Platform]]] = {
    "auto": (None, None),
    "name": (InputKind.NAME, None),
    **ACCEPT_COLUMNS,
}


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one profiling run needs, resolved from the command line."""

    input_text: str
    corpus_path: str
    out_path: str
    kind: str = "auto"
    template: str = "employee"
    fmt: str = "md"
    registry_path: Optional[str] = None
    region: str = DEFAULT_REGION
    timeout_ms: int = 5000
    max_parallel: int = 8
    min_relevance: float = DEFAULT_RELEVANCE_THRESHOLD
    include_unattributed: bool = False
    pin_timestamp: Optional[str] = None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dossier",
        description="Build a profile report about one query from pluggable collectors.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the profiling pipeline once")
    run.add_argument("--input", required=True, help="the query string")
    run.add_argument("--kind", choices=sorted(KIND_CHOICES), default="auto")
    run.add_argument("--template", choices=TEMPLATE_NAMES, default="employee")
    run.add_argument("--format", dest="fmt", choices=REPORT_FORMATS, default="md")
    run.add_argument(
        "--corpus",
        required=True,
        help="line-delimited JSON fact corpus, or 'builtin' for the bundled one",
    )
    run.add_argument("--registry", help="JSON registry overlay (add/disable collectors)")
    run.add_argument("--region", default=DEFAULT_REGION, help="default phone region")
    run.add_argument("--timeout-ms", type=int, default=5000)
    run.add_argument("--max-parallel", type=int, default=8)
    run.add_argument("--min-relevance", type=float, default=DEFAULT_RELEVANCE_THRESHOLD)
    run.add_argument(
        "--include-unattributed",
        action="store_true",
        help="also report discounted evidence from outside the chosen cluster",
    )
    run.add_argument("--pin-timestamp", help="ISO 8601 timestamp for reproducible output")
    run.add_argument("--out", required=True, help="report file path")
    return parser


def parse_args(argv: Sequence[str]) -> PipelineConfig:
    """Turn CLI arguments into a validated :class:`PipelineConfig`.

    Invalid flags or values exit with code 2 (argparse behaviour).
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.timeout_ms <= 0:
        parser.error("--timeout-ms must be positive")
    if ns.max_parallel < 1:
        parser.error("--max-parallel must be at least 1")
    if not 0.0 <= ns.min_relevance <= 1.0:
        parser.error("--min-relevance must be within [0, 1]")
    if ns.pin_timestamp is not None:
        try:
            datetime.fromisoformat(ns.pin_timestamp.replace("Z", "+00:00"))
        except ValueError:
            parser.error(f"--pin-timestamp is not ISO 8601: {ns.pin_timestamp!r}")
    # "builtin" selects the bundled case-study corpus; a real file named
    # builtin can still be reached as ./builtin.
    corpus = ns.corpus if ns.corpus != "builtin" else str(bundled_corpus_path())
    return PipelineConfig(
        input_text=ns.input,
        corpus_path=corpus,
        out_path=ns.out,
        kind=ns.kind,
        template=ns.template,
        fmt=ns.fmt,
        registry_path=ns.registry,
        region=ns.region,
        timeout_ms=ns.timeout_ms,
        max_parallel=ns.max_parallel,
        min_relevance=ns.min_relevance,
        include_unattributed=ns.include_unattributed,
        pin_timestamp=ns.pin_timestamp,
    )


def _write_atomic(path: Path, data: bytes) -> None:
    directory = path.parent if str(path.parent) else Path(".")
    handle, temp_name = tempfile.mkstemp(
        dir=str(directory), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def run_pipeline(config: PipelineConfig) -> int:
    """Execute one profiling run; returns the process exit code."""
    err = sys.stderr

    registry = builtin_matrix()
    if config.registry_path is not None:
        try:
            registry = load_overlay(registry, config.registry_path)
        except OverlayError as exc:
            print(f"registry error: {exc}", file=err)
            return EXIT_FILE_ERROR
    try:
        corpus = load_corpus(config.corpus_path)
    except CorpusError as exc:
        print(f"corpus error: {exc}", file=err)
        return EXIT_FILE_ERROR

    kind_hint, platform_hint = KIND_CHOICES[config.kind]
    try:
        query = classify_input(
            config.input_text,
            kind_hint=kind_hint,
            platform_hint=platform_hint,
            default_region=config.region,
        )
    except DossierError as exc:
        print(f"invalid input: {exc}", file=err)
        return EXIT_USAGE

    collectors = route(query, registry)
    if not collectors:
        print(
            f"no registered collector accepts {query.kind.value} queries", file=err
        )
        return EXIT_NO_COLLECTORS

    outcomes = execute_stack(
        query,
        collectors,
        make_fetcher(corpus, timeout_ms=config.timeout_ms),
        ExecutionConfig(
            per_collector_timeout_ms=config.timeout_ms,
            max_parallel=config.max_parallel,
        ),
    )
    succeeded = [o for o in outcomes if o.status is OutcomeStatus.SUCCESS]
    failed = [o for o in outcomes if o.status is not OutcomeStatus.SUCCESS]
    if not succeeded:
        print("all collectors failed; no evidence to report", file=err)
        for outcome in failed:
            print(f"  {outcome.collector}: {outcome.error_detail}", file=err)
        return EXIT_ALL_FAILED

    records = dedup(normalize_records(outcomes, default_region=config.region))
    candidates = resolve_candidates(records)

    best = None
    rejected = 0
    filtered = []
    if candidates:
        best = best_match(candidates, query, registry)
        rejected = len(candidates) - 1
        pool = records if config.include_unattributed else list(best.records)
        filtered = filter_relevance(pool, best, registry, config.min_relevance)

    generated_at = config.pin_timestamp or datetime.now(timezone.utc).isoformat(
        timespec="seconds"
    )
    report = build_report(
        best,
        filtered,
        section_plan(config.template),
        outcomes,
        rejected,
        query,
        generated_at,
    )
    data = render(report, config.fmt)

    out_path = Path(config.out_path)
    try:
        _write_atomic(out_path, data)
    except OSError as exc:
        print(f"cannot write report {out_path}: {exc}", file=err)
        return EXIT_FILE_ERROR

    cluster_size = len(best.records) if best is not None else 0
    match = best.match if best is not None else 0.0
    print(
        f"wrote {out_path}: cluster size {cluster_size}, match {match:.4f}, "
        f"collectors {len(succeeded)} ok / {len(failed)} failed"
    )
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point; always returns an exit code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    return run_pipeline(config)


if __name__ == "__main__":
    sys.exit(main())
