"""Program side of the benchmark: dossier's pipeline in a process of its own.

The generator (``run.py``) never imports dossier; it starts this script with
``PYTHONPATH`` pointing at the checkout's ``src`` and talks to it through
pipes.  Modes:

``probe``  one timed set-up (import, registry, ``load_corpus``), printed as
           a JSON line; used to sample ``setup_s`` in fresh processes.
``serve``  set up once, then answer one query per JSON line on stdin with the
           rendered report; ``{"quit": true}`` ends it with the spans.
``once``   set up and answer one query, writing the report and spans to
           files; the traced stand-in for a one-shot CLI run.

The pipeline below makes the same public calls, in the same order and with
the same arguments, as ``dossier.cli.run_pipeline``; the benchmark checks on
a sample that both produce identical bytes.  Spans are recorded here, around
those calls, only for queries the generator marks as traced.

Only ``itertools``, ``sys`` and ``time`` are imported before the set-up clock
starts, so the import span covers everything ``import dossier.cli`` pulls in.
"""

import itertools
import sys
import time

_now = time.perf_counter


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        self.tracer.stack.append(self.record["id"])
        return self.record["attrs"]

    def __exit__(self, *exc):
        self.record["end"] = _now() * 1000.0
        self.tracer.stack.pop()
        self.tracer.spans.append(self.record)
        return False


class _Untraced:
    __slots__ = ()

    def __enter__(self):
        return {}

    def __exit__(self, *exc):
        return False


_UNTRACED = _Untraced()


class Tracer:
    """Keeps spans in memory: name, start, end (ms), parent id, query id."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.stack = []
        self.qid = None
        self._ids = itertools.count(1)  # next() is atomic; fetch spans come from threads

    def _new_id(self):
        return next(self._ids)

    def span(self, name):
        if not self.enabled:
            return _UNTRACED
        record = {
            "id": self._new_id(),
            "parent": self.stack[-1] if self.stack else None,
            "qid": self.qid,
            "name": name,
            "start": _now() * 1000.0,
            "end": None,
            "attrs": {},
        }
        return _Span(self, record)

    def wrap_fetcher(self, fetch):
        """Record one ``fetch`` span per collector call, child of the
        enclosing ``execute_stack`` span (fetches run on executor threads)."""
        if not self.enabled:
            return fetch
        parent = self.stack[-1]
        qid = self.qid

        def traced(descriptor, query):
            start = _now() * 1000.0
            attrs = {"collector": descriptor.name, "backend": descriptor.backend.value}
            try:
                records = fetch(descriptor, query)
                attrs["records"] = len(records)
                return records
            except Exception as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                span = {
                    "id": self._new_id(),
                    "parent": parent,
                    "qid": qid,
                    "name": "fetch",
                    "start": start,
                    "end": _now() * 1000.0,
                    "attrs": attrs,
                }
                self.spans.append(span)  # list.append is atomic

        return traced


def _options(argv):
    opts = {}
    for key, value in zip(argv[0::2], argv[1::2]):
        opts[key.lstrip("-").replace("-", "_")] = value
    return opts


class Program:
    """The set-up products a query needs: registry, corpus and fetcher."""

    def __init__(self, opts, tracer):
        started = _now()
        tracer.qid = "setup"
        with tracer.span("setup"):
            with tracer.span("import"):
                import dossier.cli  # noqa: F401  (the import is what is timed)
            import dossier
            from dossier import builtin_matrix, load_corpus, load_overlay, make_fetcher
            from dossier.inputs import DEFAULT_REGION

            with tracer.span("registry"):
                registry = builtin_matrix()
                if opts.get("registry"):
                    registry = load_overlay(registry, opts["registry"])
            with tracer.span("load_corpus") as attrs:
                corpus = load_corpus(opts["corpus"])
                attrs["facts"] = len(corpus)
        self.setup_s = _now() - started
        import gen  # the benchmark's fixed pin and template, outside the set-up clock

        self.package_file = dossier.__file__
        self.registry = registry
        self.timeout_ms = int(opts.get("timeout_ms", "5000"))
        self.fetcher = make_fetcher(corpus, timeout_ms=self.timeout_ms)
        self.region = DEFAULT_REGION  # the CLI's default --region
        self.max_parallel = int(opts["max_parallel"])
        self.pin = gen.PIN_TIMESTAMP
        self.template = gen.TEMPLATE

    def answer(self, raw, kind, tracer):
        """One query from raw string to rendered Markdown report bytes."""
        from dossier.aggregate import (
            DEFAULT_RELEVANCE_THRESHOLD,
            best_match,
            dedup,
            filter_relevance,
            normalize_records,
            resolve_candidates,
        )
        from dossier.cli import KIND_CHOICES
        from dossier.collect.executor import execute_stack
        from dossier.collect.records import ExecutionConfig, OutcomeStatus
        from dossier.inputs import classify_input
        from dossier.report import build_report, render, section_plan
        from dossier.routing import route

        kind_hint, platform_hint = KIND_CHOICES[kind]
        with tracer.span("query"):
            with tracer.span("classify_input"):
                query = classify_input(
                    raw, kind_hint=kind_hint, platform_hint=platform_hint,
                    default_region=self.region,
                )
            with tracer.span("route") as attrs:
                collectors = route(query, self.registry)
                attrs["collectors"] = len(collectors)
            if not collectors:
                raise RuntimeError(f"no collector accepts {query.kind.value} queries")
            with tracer.span("execute_stack") as attrs:
                outcomes = execute_stack(
                    query,
                    collectors,
                    tracer.wrap_fetcher(self.fetcher),
                    ExecutionConfig(
                        per_collector_timeout_ms=self.timeout_ms,
                        max_parallel=self.max_parallel,
                    ),
                )
                attrs["timeouts"] = sum(o.status is OutcomeStatus.TIMEOUT for o in outcomes)
                attrs["errors"] = sum(o.status is OutcomeStatus.ERROR for o in outcomes)
            succeeded = [o for o in outcomes if o.status is OutcomeStatus.SUCCESS]
            if not succeeded:
                raise RuntimeError("all collectors failed")
            with tracer.span("normalize_records") as attrs:
                normalized = normalize_records(outcomes, default_region=self.region)
                attrs["in"] = sum(len(o.records) for o in succeeded)
                attrs["out"] = len(normalized)
            with tracer.span("dedup") as attrs:
                records = dedup(normalized)
                attrs["out"] = len(records)
            with tracer.span("resolve_candidates") as attrs:
                candidates = resolve_candidates(records)
                attrs["out"] = len(candidates)
            best, rejected, filtered = None, 0, []
            if candidates:
                with tracer.span("best_match"):
                    best = best_match(candidates, query, self.registry)
                rejected = len(candidates) - 1
                with tracer.span("filter_relevance") as attrs:
                    filtered = filter_relevance(
                        list(best.records), best, self.registry, DEFAULT_RELEVANCE_THRESHOLD
                    )
                    attrs["out"] = len(filtered)
            with tracer.span("build_report"):
                report = build_report(
                    best, filtered, section_plan(self.template), outcomes, rejected,
                    query, self.pin,
                )
            with tracer.span("render") as attrs:
                data = render(report, "md")
                attrs["bytes"] = len(data)
        return data


def _serve(opts):
    tracer = Tracer(enabled=True)
    program = Program(opts, tracer)
    import json
    import threading

    setup_spans = list(tracer.spans)
    tracer.spans.clear()
    out = sys.stdout
    out.write(json.dumps({
        "setup_s": program.setup_s, "package": program.package_file, "spans": setup_spans,
    }) + "\n")
    out.flush()
    threads_live_max = threading.active_count()
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("quit"):
            break
        tracer.enabled = bool(request.get("trace"))
        tracer.qid = request.get("qid")
        try:
            data = program.answer(request["raw"], request["kind"], tracer)
            reply = {"ok": True, "report": data.decode("utf-8")}
        except Exception as exc:  # a failed query is data for the generator
            reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        threads_live_max = max(threads_live_max, threading.active_count())
        out.write(json.dumps(reply) + "\n")
        out.flush()
    out.write(json.dumps({"spans": tracer.spans, "threads_live_max": threads_live_max}) + "\n")
    out.flush()


def main(argv):
    mode, opts = argv[0], _options(argv[1:])
    if mode == "serve":
        _serve(opts)
        return 0
    tracer = Tracer(enabled=True)
    program = Program(opts, tracer)
    import json

    if mode == "probe":
        print(json.dumps({
            "setup_s": program.setup_s, "package": program.package_file, "spans": tracer.spans,
        }))
        return 0
    if mode == "once":
        tracer.qid = opts["qid"]
        data = program.answer(opts["input"], opts["kind"], tracer)
        import threading

        threads = threading.active_count()
        with open(opts["out"], "wb") as stream:
            stream.write(data)
        with open(opts["spans"], "w", encoding="utf-8") as stream:
            json.dump({"spans": tracer.spans, "package": program.package_file,
                       "threads_live": threads}, stream)
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
