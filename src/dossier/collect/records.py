"""Value types shared by the collector backends and the executor."""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple


# The run defaults: how long one collector may take, and how many run at once.
DEFAULT_TIMEOUT_MS = 5000
DEFAULT_MAX_PARALLEL = 8
# The executor waits on a queue, which refuses a longer wait than this.
MAX_TIMEOUT_MS = int(threading.TIMEOUT_MAX * 1000)


class OutcomeStatus(Enum):
    """Terminal state of one collector invocation."""

    SUCCESS = "success"
    TIMEOUT = "timeout"
    ERROR = "error"


@dataclass(frozen=True)
class RawRecord:
    """One fact as a collector returned it, before any cross-source work.

    ``provenance`` is a collector-local locator; records returned together in
    one response batch share it, which later tells the clustering stage that
    they describe the same person.
    """

    attribute: str
    value: str
    confidence: float
    provenance: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be within [0, 1]: {self.confidence}")


@dataclass(frozen=True)
class CollectorOutcome:
    """What happened when one collector ran.  Failure is data, not an exception."""

    collector: str
    status: OutcomeStatus
    records: Tuple[RawRecord, ...] = ()
    error_detail: Optional[str] = None
    elapsed_ms: float = 0.0

    def __post_init__(self) -> None:
        if (self.status is OutcomeStatus.SUCCESS) != (self.error_detail is None):
            raise ValueError("error_detail must be set exactly when status is not success")
        if self.status is not OutcomeStatus.SUCCESS and self.records:
            raise ValueError("a failed outcome cannot carry records")


@dataclass(frozen=True)
class ExecutionConfig:
    """Fan-out knobs for running a set of collectors."""

    per_collector_timeout_ms: int = DEFAULT_TIMEOUT_MS
    max_parallel: int = DEFAULT_MAX_PARALLEL

    def __post_init__(self) -> None:
        # type() refuses a bool, which is an int but no count.
        timeout_ms, parallel = self.per_collector_timeout_ms, self.max_parallel
        if type(timeout_ms) is not int or not 0 < timeout_ms <= MAX_TIMEOUT_MS:
            raise ValueError(f"timeout must be 1 to {MAX_TIMEOUT_MS} ms, not {timeout_ms!r}")
        if type(parallel) is not int or parallel < 1:
            raise ValueError(f"max parallel must be an integer of at least 1, not {parallel!r}")
