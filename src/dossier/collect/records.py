"""Value types shared by the collector backends and the executor."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple


# The run defaults: how long one collector may take, and how many run at once.
DEFAULT_TIMEOUT_MS = 5000
DEFAULT_MAX_PARALLEL = 8


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
        if self.per_collector_timeout_ms <= 0:
            raise ValueError("per_collector_timeout_ms must be positive")
        if self.max_parallel < 1:
            raise ValueError("max_parallel must be at least 1")
