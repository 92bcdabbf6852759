"""dossier: an offline-testable people-profiling pipeline.

One query string goes in; a templated profile report comes out.  The stages
are small and independently usable: classify the query, route it through a
capability matrix of collectors, fan out with bounded parallelism, cluster
the returned evidence into candidate people, score and pick the best
candidate, and render its profile as Markdown, JSON, or CSV.
"""

from .aggregate import (
    CandidateProfile,
    EvidenceRecord,
    NoCandidatesError,
    best_match,
    dedup,
    filter_relevance,
    match_score,
    normalize_records,
    rank_candidates,
    resolve_candidates,
    visibility_score,
)
from .collect.adapters import fetch_http
from .collect.corpus import (
    Corpus,
    CorpusFact,
    bundled_corpus_path,
    corpus_collect,
    load_corpus,
)
from .collect.executor import execute_stack, make_fetcher
from .collect.records import CollectorOutcome, ExecutionConfig, OutcomeStatus, RawRecord
from .errors import DossierError
from .inputs import (
    InputKind,
    Platform,
    QueryInput,
    classify_input,
    normalize_email,
    normalize_phone,
)
from .report import (
    Report,
    ReportTemplate,
    build_report,
    render,
    section_plan,
)
from .routing import (
    Backend,
    CollectorDescriptor,
    HttpCollectorConfig,
    Registry,
    builtin_matrix,
    load_overlay,
    route,
)

__version__ = "0.1.0"

__all__ = [
    "Backend",
    "CandidateProfile",
    "CollectorDescriptor",
    "CollectorOutcome",
    "Corpus",
    "CorpusFact",
    "DossierError",
    "EvidenceRecord",
    "ExecutionConfig",
    "HttpCollectorConfig",
    "InputKind",
    "NoCandidatesError",
    "OutcomeStatus",
    "Platform",
    "QueryInput",
    "RawRecord",
    "Registry",
    "Report",
    "ReportTemplate",
    "best_match",
    "build_report",
    "builtin_matrix",
    "bundled_corpus_path",
    "classify_input",
    "corpus_collect",
    "dedup",
    "execute_stack",
    "fetch_http",
    "filter_relevance",
    "load_corpus",
    "load_overlay",
    "make_fetcher",
    "match_score",
    "normalize_email",
    "normalize_phone",
    "normalize_records",
    "rank_candidates",
    "render",
    "resolve_candidates",
    "route",
    "section_plan",
    "visibility_score",
    "__version__",
]
