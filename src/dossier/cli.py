"""Command-line pipeline: classify, route, collect, aggregate, report.

Exit codes: 0 report written (collector failures included in the report are
still a success), 2 usage or invalid input, 3 no applicable collectors,
4 every collector failed, 5 corpus or registry file error.  The report file
is written atomically: on any non-zero exit nothing is written and any
pre-existing file at the output path is left untouched.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
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
from .collect.records import (
    DEFAULT_MAX_PARALLEL,
    DEFAULT_TIMEOUT_MS,
    ExecutionConfig,
    OutcomeStatus,
)
from .errors import DossierError
from .inputs import (
    COUNTRY_CALLING_CODES,
    DEFAULT_REGION,
    InputKind,
    Platform,
    classify_input,
    is_utf8_text,
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
    timeout_ms: int = DEFAULT_TIMEOUT_MS
    max_parallel: int = DEFAULT_MAX_PARALLEL
    min_relevance: float = DEFAULT_RELEVANCE_THRESHOLD
    include_unattributed: bool = False
    pin_timestamp: Optional[str] = None


def _build_parser() -> argparse.ArgumentParser:
    # Imported here, not at the top: a library caller never parses arguments.
    import argparse

    parser = argparse.ArgumentParser(
        prog="dossier",
        description="Build a profile report about one query from pluggable collectors.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    # Each dest is a PipelineConfig field; an option left out is left out of
    # the namespace too, so the field's default applies.
    run = commands.add_parser(
        "run", help="run the profiling pipeline once", argument_default=argparse.SUPPRESS
    )
    run.add_argument("--input", dest="input_text", required=True, help="the query string")
    run.add_argument("--kind", choices=sorted(KIND_CHOICES))
    run.add_argument("--template", choices=TEMPLATE_NAMES)
    run.add_argument("--format", dest="fmt", choices=REPORT_FORMATS)
    run.add_argument(
        "--corpus",
        dest="corpus_path",
        required=True,
        # "builtin" selects the bundled case-study corpus; a real file named
        # builtin can still be reached as ./builtin.
        type=lambda path: str(bundled_corpus_path()) if path == "builtin" else path,
        help="line-delimited JSON fact corpus, or 'builtin' for the bundled one",
    )
    run.add_argument(
        "--registry",
        dest="registry_path",
        help="JSON registry overlay (add/disable collectors)",
    )
    run.add_argument("--region", type=lambda s: s.strip().upper(), help="default phone region")
    run.add_argument("--timeout-ms", type=int)
    run.add_argument("--max-parallel", type=int)
    run.add_argument("--min-relevance", type=float)
    run.add_argument(
        "--include-unattributed",
        action="store_true",
        help="also report discounted evidence from outside the chosen cluster",
    )
    run.add_argument("--pin-timestamp", help="ISO 8601 timestamp for reproducible output")
    run.add_argument("--out", dest="out_path", required=True, help="report file path")
    return parser


def parse_args(argv: Sequence[str]) -> PipelineConfig:
    """Turn CLI arguments into a validated :class:`PipelineConfig`.

    Invalid flags or values exit with code 2 (argparse behaviour).
    """
    parser = _build_parser()
    fields = vars(parser.parse_args(argv))
    del fields["command"]
    config = PipelineConfig(**fields)
    problem = _config_problem(config)
    if problem is not None:
        parser.error(problem)
    return config


def _config_problem(config: PipelineConfig) -> Optional[str]:
    """Why *config* cannot run, or None when it can.

    One set of checks for the CLI and library callers alike, on every value.
    A path's type is checked here and its file as it is read; the input
    text's type and encoding are checked here, and ``classify_input`` reads
    its content.  ``ExecutionConfig`` holds the timeout and parallelism rules.
    """
    if not isinstance(config.input_text, str):
        return f"--input must be a string, not {config.input_text!r}"
    if not is_utf8_text(config.input_text):
        return f"--input is not UTF-8 text: {config.input_text!r}"
    paths = {"--corpus": config.corpus_path, "--out": config.out_path}
    if config.registry_path is not None:
        paths["--registry"] = config.registry_path
    for option, path in paths.items():
        if not isinstance(path, (str, os.PathLike)):
            return f"{option} must be a path, not {path!r}"
    if not isinstance(config.kind, str) or config.kind not in KIND_CHOICES:
        return f"--kind {config.kind!r} is not one of {', '.join(sorted(KIND_CHOICES))}"
    if config.template not in TEMPLATE_NAMES:
        return f"--template {config.template!r} is not one of {', '.join(TEMPLATE_NAMES)}"
    if config.fmt not in REPORT_FORMATS:
        return f"--format {config.fmt!r} is not one of {', '.join(REPORT_FORMATS)}"
    region = config.region
    if not (isinstance(region, str) and region.strip().upper() in COUNTRY_CALLING_CODES):
        known = ", ".join(sorted(COUNTRY_CALLING_CODES))
        return f"--region {region!r} has no known dialing code (one of {known})"
    try:
        ExecutionConfig(config.timeout_ms, config.max_parallel)
    except ValueError as exc:
        return str(exc)
    min_relevance = config.min_relevance
    if not (
        isinstance(min_relevance, (int, float))
        and not isinstance(min_relevance, bool)
        and 0.0 <= min_relevance <= 1.0
    ):
        return f"--min-relevance must be within [0, 1], not {min_relevance!r}"
    if not isinstance(config.include_unattributed, bool):
        return f"--include-unattributed must be True or False, not {config.include_unattributed!r}"
    if config.pin_timestamp is not None:
        from datetime import datetime

        try:
            datetime.fromisoformat(config.pin_timestamp.replace("Z", "+00:00"))
        except (AttributeError, TypeError, ValueError):
            return f"--pin-timestamp is not ISO 8601: {config.pin_timestamp!r}"
    return None


def _write_atomic(path: Path, data: bytes) -> None:
    import tempfile  # only a report written to a file needs it

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
    problem = _config_problem(config)
    if problem is not None:
        print(f"invalid config: {problem}", file=err)
        return EXIT_USAGE

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

    records = dedup(normalize_records(outcomes, default_region=query.region))
    candidates = resolve_candidates(records)

    best = None
    rejected = 0
    filtered = []
    if candidates:
        best = best_match(candidates, query, registry)
        rejected = len(candidates) - 1
        pool = records if config.include_unattributed else list(best.records)
        filtered = filter_relevance(pool, best, registry, config.min_relevance)

    generated_at = config.pin_timestamp
    if not generated_at:
        from datetime import datetime, timezone

        generated_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
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

    print(
        f"wrote {out_path}: cluster size {report.candidate.cluster_size}, "
        f"match {report.candidate.match:.4f}, "
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
