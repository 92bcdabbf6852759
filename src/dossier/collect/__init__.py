"""Collector backends and the concurrent execution stack."""

from .adapters import (
    AdapterError,
    BadStatusError,
    MissingCredentialError,
    NetworkError,
    ResponseMappingError,
    fetch_http,
)
from .corpus import (
    Corpus,
    CorpusError,
    CorpusFact,
    CorpusIOError,
    CorpusParseError,
    UnknownAttributeError,
    bundled_corpus_path,
    corpus_collect,
    load_corpus,
)
from .executor import Fetcher, execute_stack, make_fetcher
from .records import CollectorOutcome, ExecutionConfig, OutcomeStatus, RawRecord

__all__ = [
    "AdapterError",
    "BadStatusError",
    "CollectorOutcome",
    "Corpus",
    "CorpusError",
    "CorpusFact",
    "CorpusIOError",
    "CorpusParseError",
    "ExecutionConfig",
    "Fetcher",
    "MissingCredentialError",
    "NetworkError",
    "OutcomeStatus",
    "RawRecord",
    "ResponseMappingError",
    "UnknownAttributeError",
    "bundled_corpus_path",
    "corpus_collect",
    "execute_stack",
    "fetch_http",
    "load_corpus",
    "make_fetcher",
]
