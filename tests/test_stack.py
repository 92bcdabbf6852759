import threading
import time
from collections import Counter

import pytest

from dossier.collect.records import (
    CollectorOutcome,
    ExecutionConfig,
    OutcomeStatus,
    RawRecord,
)
from dossier.collect import executor
from dossier.collect.adapters import NetworkError
from dossier.collect.executor import execute_stack
from dossier.inputs import InputKind, QueryInput
from dossier.routing import CollectorDescriptor, HttpCollectorConfig, accepts

from conftest import run_probe

QUERY = QueryInput(InputKind.KEYWORD, "probe", "probe")


def descriptor(name: str) -> CollectorDescriptor:
    """An HTTP-backed collector: it runs on an executor thread under a timeout.
    The fetch functions below never touch its endpoint."""
    return CollectorDescriptor(
        name=name,
        accepts=accepts("keyword"),
        http=HttpCollectorConfig(base="http://unused.invalid"),
    )


def corpus_descriptor(name: str) -> CollectorDescriptor:
    return CollectorDescriptor(name=name, accepts=accepts("keyword"))


def record(value: str) -> RawRecord:
    return RawRecord(attribute="full_name", value=value, confidence=0.9, provenance="p")


class TestValueTypes:
    def test_raw_record_confidence_bounds(self):
        with pytest.raises(ValueError):
            RawRecord(attribute="a", value="v", confidence=1.5, provenance="p")
        with pytest.raises(ValueError):
            RawRecord(attribute="a", value="v", confidence=-0.1, provenance="p")

    def test_failed_outcome_cannot_carry_records(self):
        with pytest.raises(ValueError):
            CollectorOutcome(
                collector="c",
                status=OutcomeStatus.ERROR,
                records=(record("x"),),
                error_detail="boom",
            )

    def test_status_and_detail_must_agree(self):
        with pytest.raises(ValueError):
            CollectorOutcome(collector="c", status=OutcomeStatus.SUCCESS, error_detail="?")
        with pytest.raises(ValueError):
            CollectorOutcome(collector="c", status=OutcomeStatus.TIMEOUT)

    def test_execution_config_bounds(self):
        with pytest.raises(ValueError):
            ExecutionConfig(per_collector_timeout_ms=0)
        with pytest.raises(ValueError):
            ExecutionConfig(max_parallel=0)
        # Past threading.TIMEOUT_MAX seconds, a bool, or no integer at all.
        for timeout_ms in (10_000_000_000_000, 10**400, True, 1.5):
            with pytest.raises(ValueError, match=repr(timeout_ms)):
                ExecutionConfig(per_collector_timeout_ms=timeout_ms)
        for max_parallel in (True, 1.5):
            with pytest.raises(ValueError, match=repr(max_parallel)):
                ExecutionConfig(max_parallel=max_parallel)
        ExecutionConfig(per_collector_timeout_ms=int(threading.TIMEOUT_MAX * 1000))


class TestExecuteStack:
    def test_empty_collector_list_rejected(self):
        with pytest.raises(ValueError):
            execute_stack(QUERY, [], lambda d, q: [])

    def test_one_outcome_per_collector_sorted_by_name(self):
        collectors = [descriptor(n) for n in ("zeta", "alpha", "mid")]

        def fetch(d, q):
            return [record(d.name)]

        outcomes = execute_stack(QUERY, collectors, fetch)
        assert [o.collector for o in outcomes] == ["alpha", "mid", "zeta"]
        assert all(o.status is OutcomeStatus.SUCCESS for o in outcomes)
        assert [o.records[0].value for o in outcomes] == ["alpha", "mid", "zeta"]

    def test_failure_is_isolated_data(self):
        def fetch(d, q):
            if d.name == "bad":
                raise ValueError("boom")
            return [record(d.name)]

        outcomes = execute_stack(QUERY, [descriptor("bad"), descriptor("good")], fetch)
        by_name = {o.collector: o for o in outcomes}
        assert by_name["bad"].status is OutcomeStatus.ERROR
        assert by_name["bad"].error_detail == "ValueError: boom"
        assert by_name["bad"].records == ()
        assert by_name["good"].status is OutcomeStatus.SUCCESS

    def test_timeout_becomes_outcome(self):
        def fetch(d, q):
            if d.name == "slow":
                time.sleep(0.5)
            return [record(d.name)]

        outcomes = execute_stack(
            QUERY,
            [descriptor("slow"), descriptor("quick")],
            fetch,
            ExecutionConfig(per_collector_timeout_ms=80),
        )
        by_name = {o.collector: o for o in outcomes}
        assert by_name["slow"].status is OutcomeStatus.TIMEOUT
        assert by_name["slow"].error_detail == "no response within 80 ms"
        assert by_name["quick"].status is OutcomeStatus.SUCCESS

    def test_an_outcome_finished_at_its_deadline_is_a_timeout(self, monkeypatch):
        # A fetch that gives up at its own deadline may report before the
        # executor wakes for that deadline; it is still a timeout, not an
        # error.  The executor's clock stands still, the collector thread's
        # clock reads the deadline.
        monkeypatch.setattr(
            executor,
            "perf_counter",
            lambda: 105.0 if threading.current_thread().name.startswith("collect-") else 100.0,
        )

        def fetch(d, q):
            raise NetworkError("GET http://unused.invalid failed: Timeout")

        (outcome,) = execute_stack(
            QUERY, [descriptor("late")], fetch, ExecutionConfig(per_collector_timeout_ms=5000)
        )
        assert outcome.status is OutcomeStatus.TIMEOUT
        assert outcome.error_detail == "no response within 5000 ms"
        assert outcome.elapsed_ms == 5000.0

    def test_timeouts_respect_the_parallel_bound(self):
        # Four hung collectors, two at a time, 200 ms budget each: the whole
        # stack must finish in about two timeout windows, not four.
        def fetch(d, q):
            time.sleep(10)
            return []

        started = time.perf_counter()
        outcomes = execute_stack(
            QUERY,
            [descriptor(f"hung-{i}") for i in range(4)],
            fetch,
            ExecutionConfig(per_collector_timeout_ms=200, max_parallel=2),
        )
        elapsed = time.perf_counter() - started
        assert all(o.status is OutcomeStatus.TIMEOUT for o in outcomes)
        assert elapsed < 1.5

    def test_collectors_actually_run_in_parallel(self):
        def fetch(d, q):
            time.sleep(0.15)
            return [record(d.name)]

        started = time.perf_counter()
        outcomes = execute_stack(
            QUERY,
            [descriptor(f"c{i}") for i in range(8)],
            fetch,
            ExecutionConfig(per_collector_timeout_ms=5000, max_parallel=8),
        )
        elapsed = time.perf_counter() - started
        assert len(outcomes) == 8
        assert elapsed < 8 * 0.15  # strictly better than serial

    def test_elapsed_ms_is_recorded(self):
        def fetch(d, q):
            time.sleep(0.05)
            return []

        (outcome,) = execute_stack(QUERY, [descriptor("c")], fetch)
        assert outcome.elapsed_ms >= 40

    def test_parallelism_never_exceeds_the_bound(self):
        lock = threading.Lock()
        live = peak = 0

        def fetch(d, q):
            nonlocal live, peak
            with lock:
                live += 1
                peak = max(peak, live)
            time.sleep(0.05)
            with lock:
                live -= 1
            return [record(d.name)]

        outcomes = execute_stack(
            QUERY,
            [descriptor(f"c{i}") for i in range(6)],
            fetch,
            ExecutionConfig(max_parallel=2),
        )
        assert all(o.status is OutcomeStatus.SUCCESS for o in outcomes)
        assert peak == 2

    def test_abandoned_collectors_leave_no_threads_behind(self):
        release = threading.Event()

        def fetch(d, q):
            release.wait(5)
            return []

        before = threading.active_count()
        try:
            for _ in range(3):
                outcomes = execute_stack(
                    QUERY,
                    [descriptor(f"hung-{i}") for i in range(3)],
                    fetch,
                    ExecutionConfig(per_collector_timeout_ms=50),
                )
                assert all(o.status is OutcomeStatus.TIMEOUT for o in outcomes)
        finally:
            release.set()
        deadline = time.monotonic() + 1.0
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.01)
        # <=, not ==: sleepers abandoned by earlier tests may end meanwhile
        assert threading.active_count() <= before

    def test_a_failure_does_not_stop_later_collectors(self):
        def fetch(d, q):
            if d.name == "a_fails":
                raise RuntimeError("dead")
            return [record(d.name)]

        collectors = [descriptor("a_fails"), descriptor("b_later")]
        outcomes = execute_stack(
            QUERY, collectors, fetch, ExecutionConfig(max_parallel=1)
        )
        by_name = {o.collector: o for o in outcomes}
        assert by_name["b_later"].status is OutcomeStatus.SUCCESS

    def test_fetch_receives_descriptor_and_query(self):
        seen = []

        def fetch(d, q):
            seen.append((d.name, q.canonical))
            return []

        execute_stack(QUERY, [descriptor("only")], fetch)
        assert seen == [("only", "probe")]


class TestStartOrder:
    """HTTP collectors that have timed out most often in this process start
    first; ties start in name order.  One at a time here, so the order of
    fetch calls is the start order."""

    def run(self, names, fetch=None, timeout_ms=5000):
        calls = []

        def recording(d, q):
            calls.append(d.name)
            return fetch(d, q) if fetch else [record(d.name)]

        outcomes = execute_stack(
            QUERY,
            [descriptor(n) for n in names],
            recording,
            ExecutionConfig(per_collector_timeout_ms=timeout_ms, max_parallel=1),
        )
        assert [o.collector for o in outcomes] == sorted(names)
        return calls, [o.status for o in outcomes]

    def test_with_no_timeouts_they_start_in_name_order(self):
        for _ in range(2):
            assert self.run(("c", "a", "b")) == (["a", "b", "c"], [OutcomeStatus.SUCCESS] * 3)
        assert executor._timeouts == Counter()

    def test_a_collector_that_timed_out_starts_first_next_time(self):
        release = threading.Event()

        def fetch(d, q):
            if d.name == "b_slow":
                release.wait(5)
            return [record(d.name)]

        try:
            calls, statuses = self.run(("c", "b_slow", "a"), fetch, timeout_ms=80)
        finally:
            release.set()
        assert calls == ["a", "b_slow", "c"]
        assert statuses == [OutcomeStatus.SUCCESS, OutcomeStatus.TIMEOUT, OutcomeStatus.SUCCESS]
        assert executor._timeouts == Counter(b_slow=1)
        calls, statuses = self.run(("c", "b_slow", "a"))
        assert calls == ["b_slow", "a", "c"]
        assert statuses == [OutcomeStatus.SUCCESS] * 3

    def test_more_timeouts_start_earlier(self):
        executor._timeouts.update(c=2, b=1)
        assert self.run(("a", "b", "c", "d"))[0] == ["c", "b", "a", "d"]

    def test_a_late_result_at_its_deadline_counts_as_a_timeout(self, monkeypatch):
        # As in test_an_outcome_finished_at_its_deadline_is_a_timeout: only
        # b_late's thread reads the deadline, so the executor's own sweep
        # never fires and the timeout comes from the late-result path.
        monkeypatch.setattr(
            executor,
            "perf_counter",
            lambda: 105.0 if threading.current_thread().name == "collect-b_late" else 100.0,
        )
        calls, statuses = self.run(("c", "b_late", "a"), timeout_ms=5000)
        assert calls == ["a", "b_late", "c"]
        assert statuses == [OutcomeStatus.SUCCESS, OutcomeStatus.TIMEOUT, OutcomeStatus.SUCCESS]
        assert executor._timeouts == Counter(b_late=1)
        assert self.run(("c", "b_late", "a"), timeout_ms=5000)[0] == ["b_late", "a", "c"]

    def test_an_error_does_not_reorder(self):
        def fetch(d, q):
            if d.name == "b_bad":
                raise ValueError("boom")
            return [record(d.name)]

        for _ in range(2):
            calls, statuses = self.run(("c", "b_bad", "a"), fetch)
            assert calls == ["a", "b_bad", "c"]
            assert statuses == [OutcomeStatus.SUCCESS, OutcomeStatus.ERROR, OutcomeStatus.SUCCESS]
        assert executor._timeouts == Counter()


class TestCorpusCollectorsRunInline:
    def test_an_all_corpus_stack_starts_no_thread(self, monkeypatch):
        started = []
        real_start = threading.Thread.start

        def start(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        outcomes = execute_stack(
            QUERY,
            [corpus_descriptor(n) for n in ("b", "a", "c")],
            lambda d, q: [record(d.name)],
        )
        assert [o.status for o in outcomes] == [OutcomeStatus.SUCCESS] * 3
        assert started == []

    def test_fetches_run_on_the_calling_thread_in_name_order(self):
        calls = []

        def fetch(d, q):
            calls.append((d.name, threading.current_thread()))
            return [record(d.name)]

        outcomes = execute_stack(
            QUERY, [corpus_descriptor(n) for n in ("zeta", "alpha", "mid")], fetch
        )
        assert calls == [(n, threading.current_thread()) for n in ("alpha", "mid", "zeta")]
        assert [o.collector for o in outcomes] == ["alpha", "mid", "zeta"]
        assert all(o.elapsed_ms >= 0 for o in outcomes)

    def test_a_raising_fetch_becomes_an_error_outcome(self):
        def fetch(d, q):
            if d.name == "bad":
                raise ValueError("boom")
            return [record(d.name)]

        outcomes = execute_stack(
            QUERY, [corpus_descriptor("bad"), corpus_descriptor("good")], fetch
        )
        by_name = {o.collector: o for o in outcomes}
        assert by_name["bad"].status is OutcomeStatus.ERROR
        assert by_name["bad"].error_detail == "ValueError: boom"
        assert by_name["bad"].records == ()
        assert by_name["good"].status is OutcomeStatus.SUCCESS
        assert by_name["good"].records == (record("good"),)

    def test_mixed_stack_times_out_a_hung_http_collector(self):
        release = threading.Event()

        def fetch(d, q):
            if d.name == "b_hung":
                release.wait(5)
            return [record(d.name)]

        try:
            outcomes = execute_stack(
                QUERY,
                [
                    corpus_descriptor("d_corpus"),
                    descriptor("b_hung"),
                    descriptor("c_http"),
                    corpus_descriptor("a_corpus"),
                ],
                fetch,
                ExecutionConfig(per_collector_timeout_ms=80, max_parallel=1),
            )
        finally:
            release.set()
        assert [(o.collector, o.status) for o in outcomes] == [
            ("a_corpus", OutcomeStatus.SUCCESS),
            ("b_hung", OutcomeStatus.TIMEOUT),
            ("c_http", OutcomeStatus.SUCCESS),
            ("d_corpus", OutcomeStatus.SUCCESS),
        ]
        assert outcomes[1].error_detail == "no response within 80 ms"


HTTP_LIBRARIES_PROBE = """
import sys
from dossier.collect.executor import execute_stack
from dossier.inputs import InputKind, QueryInput
from dossier.routing import CollectorDescriptor, HttpCollectorConfig, accepts

def fetch(descriptor, query):
    assert {"http.client", "urllib.request"} <= sys.modules.keys(), "imported in the fetch"
    return []

http = CollectorDescriptor(
    name="h", accepts=accepts("keyword"), http=HttpCollectorConfig(base="http://unused.invalid")
)
imported_before = "urllib.request" in sys.modules
[outcome] = execute_stack(QueryInput(InputKind.KEYWORD, "probe", "probe"), [http], fetch)
print(imported_before, outcome.status.value, outcome.error_detail)
"""


def test_http_libraries_are_imported_before_the_first_http_collector_starts():
    """Otherwise the first fetch of a process imports them inside its own
    deadline, and the other first fetches wait on the import lock.  It runs
    in a fresh interpreter, since this one has imported them already."""
    assert run_probe(HTTP_LIBRARIES_PROBE) == "False success None"
