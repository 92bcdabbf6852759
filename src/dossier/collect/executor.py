"""Collector fan-out: corpus lookups in-process, HTTP calls bounded-parallel.

One query goes out to every routed collector.  Corpus-backed collectors
answer on the calling thread; HTTP collectors go out at once, capped by
``max_parallel``, each with its own timeout, those that have timed out most
often in this process first.  Each collector gets its own failure: a crash
or hang in one never disturbs the others, and the caller always gets
exactly one outcome per collector, sorted by name.
"""

from __future__ import annotations

import queue
import threading
from collections import Counter, deque
from time import perf_counter
from typing import Callable, Optional, Sequence

from ..inputs import QueryInput
from ..routing import CollectorDescriptor
from .adapters import _opener, fetch_http
from .corpus import Corpus, corpus_collect
from .records import (
    DEFAULT_TIMEOUT_MS,
    CollectorOutcome,
    ExecutionConfig,
    OutcomeStatus,
    RawRecord,
)

# A fetcher produces the raw records for one (collector, query) pair.
Fetcher = Callable[[CollectorDescriptor, QueryInput], Sequence[RawRecord]]

# Timeouts seen per collector name in this process.  It only orders starts
# and never changes an outcome, so an increment lost to concurrent
# execute_stack calls is harmless and the counter takes no lock.
_timeouts: Counter[str] = Counter()


def make_fetcher(corpus: Corpus, timeout_ms: int = DEFAULT_TIMEOUT_MS) -> Fetcher:
    """Dispatch each collector to its backend: the corpus or an HTTP endpoint."""

    def fetch(descriptor: CollectorDescriptor, query: QueryInput) -> Sequence[RawRecord]:
        if descriptor.http is not None:
            return fetch_http(descriptor.name, descriptor.http, query, timeout_ms)
        return corpus_collect(corpus, descriptor, query)

    return fetch


def _run(
    descriptor: CollectorDescriptor, query: QueryInput, fetch: Fetcher, started: float
) -> CollectorOutcome:
    """One collector's outcome; an exception from its fetch becomes an ERROR."""
    status, records, detail = OutcomeStatus.SUCCESS, (), None
    try:
        records = tuple(fetch(descriptor, query))
    except Exception as exc:  # failure is data; nothing may escape
        status, detail = OutcomeStatus.ERROR, f"{type(exc).__name__}: {exc}"
    elapsed_ms = (perf_counter() - started) * 1000.0
    return CollectorOutcome(descriptor.name, status, records, detail, elapsed_ms)


def execute_stack(
    query: QueryInput,
    collectors: Sequence[CollectorDescriptor],
    fetch: Fetcher,
    config: Optional[ExecutionConfig] = None,
) -> list[CollectorOutcome]:
    """Run every collector against *query* and return one outcome per collector.

    Corpus-backed collectors run first, one after another in name order, on
    the calling thread: an in-memory lookup waits on nothing, so it gets no
    thread and no timeout.  Every other collector runs on its own thread, at
    most ``max_parallel`` at once, started in order of most timeouts seen
    for that collector name earlier in this process, ties in name order, so
    a collector that tends to hang starts in the first wave and its timeout
    overlaps the others' work rather than following it.  Outcomes come
    back sorted by collector name regardless of completion order.  A
    threaded collector still running ``per_collector_timeout_ms`` after it
    started is reported as a timeout and abandoned: its slot is freed at
    once for the next collector and its late result is discarded.  An
    outcome that finishes at or after that deadline is a timeout too, so a
    fetch that gives up at its own deadline reads as a timeout, never as
    an error, whichever of the two threads wakes first.

    An abandoned fetch keeps its daemon thread until the fetch returns.
    The HTTP adapter stops itself at its timeout, in the connect, the
    status line, the headers or the body, so that thread ends within the
    timeout plus one socket read; only name resolution is not bounded.
    """
    if not collectors:
        raise ValueError("execute_stack needs at least one collector")
    config = config or ExecutionConfig()
    timeout_ms = config.per_collector_timeout_ms
    timeout_s = timeout_ms / 1000.0
    ordered = sorted(collectors, key=lambda d: d.name)
    outcomes = [
        _run(descriptor, query, fetch, perf_counter())
        for descriptor in ordered
        if descriptor.http is None
    ]
    threaded = [d for d in ordered if d.http is not None]
    if threaded:
        # Import http.client and urllib.request here, before any deadline
        # runs, not inside the first fetch while the others wait on the
        # import lock; a run without HTTP collectors imports neither.
        _opener()
    waiting = deque(enumerate(sorted(threaded, key=lambda d: -_timeouts[d.name])))
    running: dict[int, tuple[str, float]] = {}  # index -> (name, start time)
    finished: queue.SimpleQueue = queue.SimpleQueue()

    def target(index: int, descriptor: CollectorDescriptor, started: float) -> None:
        finished.put((index, _run(descriptor, query, fetch, started)))

    def timed_out(name: str, elapsed_ms: float) -> CollectorOutcome:
        _timeouts[name] += 1
        detail = f"no response within {timeout_ms} ms"
        return CollectorOutcome(name, OutcomeStatus.TIMEOUT, (), detail, elapsed_ms)

    while waiting or running:
        while waiting and len(running) < config.max_parallel:
            index, descriptor = waiting.popleft()
            started = perf_counter()
            running[index] = (descriptor.name, started)
            threading.Thread(
                target=target,
                args=(index, descriptor, started),
                daemon=True,
                name=f"collect-{descriptor.name}",
            ).start()
        deadline = min(started for _, started in running.values()) + timeout_s
        try:
            index, outcome = finished.get(timeout=max(0.0, deadline - perf_counter()))
        except queue.Empty:
            now = perf_counter()
            for index, (name, started) in list(running.items()):
                if now - started >= timeout_s:
                    del running[index]
                    outcomes.append(timed_out(name, (now - started) * 1000.0))
            continue
        if running.pop(index, None) is not None:  # else: an abandoned collector's late result
            if outcome.elapsed_ms >= timeout_ms:
                outcome = timed_out(outcome.collector, outcome.elapsed_ms)
            outcomes.append(outcome)
    outcomes.sort(key=lambda outcome: outcome.collector)
    return outcomes
