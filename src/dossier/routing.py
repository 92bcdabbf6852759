"""Collector registry and the kind/platform capability matrix.

Each collector declares which (kind, platform) pairs it accepts.  Routing a
query means selecting, in lexicographic name order, every registered
collector whose accept set contains the query's pair.  Person-name queries
are looked up as keyword queries: none of the built-in services takes a raw
name, but the keyword engines cover it.
"""

from __future__ import annotations

import dataclasses
import json
import string
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Tuple

from .errors import DossierError
from .inputs import InputKind, Platform, QueryInput
from .vocab import ATTRIBUTE_KEYS

AcceptPair = Tuple[InputKind, Optional[Platform]]


class Backend(Enum):
    """How a collector's records are produced."""

    CORPUS = "corpus"
    HTTP = "http"


class DuplicateCollectorError(DossierError):
    """A collector with the same name is already registered."""


class OverlayError(DossierError):
    """A registry overlay file is missing, unreadable, or malformed."""


@dataclass(frozen=True)
class HttpCollectorConfig:
    """Request/response wiring for an HTTP-backed collector.

    ``query_template`` is appended to ``base`` after substituting ``{value}``
    (URL-encoded canonical query) and ``{kind}``, the only fields it may hold;
    both strings are ASCII.
    ``response_mapping`` maps dotted field paths in the JSON response body to
    attribute keys.
    Credentials are never stored inline: ``credential_env`` names an
    environment variable whose value is sent as a bearer token.
    """

    base: str
    method: str = "GET"
    query_template: str = ""
    response_mapping: Tuple[Tuple[str, str], ...] = ()
    credential_env: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.base, str) or not self.base:
            raise ValueError("base must be a non-empty URL string")
        if isinstance(self.response_mapping, Mapping):
            object.__setattr__(
                self, "response_mapping", tuple(sorted(self.response_mapping.items()))
            )
        else:
            object.__setattr__(
                self, "response_mapping", tuple(tuple(p) for p in self.response_mapping)
            )
        for name in ("method", "query_template"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string")
        # {value} is percent-quoted and {kind} is ASCII, so these two decide
        # whether every request line is ASCII, as http.client requires.
        for name in ("base", "query_template"):
            if not getattr(self, name).isascii():
                raise ValueError(
                    f"{name} must be ASCII (percent-encode a path, write a host "
                    f"in its xn-- form): {getattr(self, name)!r}"
                )
        if self.credential_env is not None and not isinstance(self.credential_env, str):
            raise ValueError("credential_env must be a string")
        try:
            fields = list(string.Formatter().parse(self.query_template))
        except ValueError as exc:
            raise ValueError(f"query_template {self.query_template!r}: {exc}") from exc
        for _, field_name, spec, conversion in fields:
            if field_name not in (None, "value", "kind") or spec or conversion:
                raise ValueError(
                    f"query_template {self.query_template!r} may hold only "
                    "{value} and {kind}"
                )
        if self.method.upper() not in ("GET", "POST"):
            raise ValueError(f"unsupported HTTP method: {self.method!r}")
        object.__setattr__(self, "method", self.method.upper())
        for _, attribute in self.response_mapping:
            if attribute not in ATTRIBUTE_KEYS:
                raise ValueError(f"response_mapping targets unknown attribute {attribute!r}")


@dataclass(frozen=True)
class CollectorDescriptor:
    """A named evidence source plus the query kinds it accepts.

    A collector with an ``http`` config calls that endpoint; one without
    answers from the corpus.
    """

    name: str
    accepts: frozenset  # frozenset[AcceptPair]
    reliability: float = 1.0
    http: Optional[HttpCollectorConfig] = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("collector name must be a non-empty string")
        object.__setattr__(self, "accepts", frozenset(self.accepts))
        if not self.accepts:
            raise ValueError(f"collector {self.name!r} accepts nothing")
        if isinstance(self.reliability, bool) or not isinstance(self.reliability, (int, float)):
            raise ValueError(f"reliability must be a number: {self.reliability!r}")
        try:
            object.__setattr__(self, "reliability", float(self.reliability))
        except OverflowError as exc:
            raise ValueError(
                "reliability must be within [0, 1]: an integer too large for a float"
            ) from exc
        if not 0.0 <= self.reliability <= 1.0:
            raise ValueError(f"reliability must be within [0, 1]: {self.reliability}")
        if self.http is not None and not isinstance(self.http, HttpCollectorConfig):
            raise ValueError(f"http must be an HttpCollectorConfig or None: {self.http!r}")

    @property
    def backend(self) -> Backend:
        return Backend.CORPUS if self.http is None else Backend.HTTP


class Registry(Mapping):
    """Immutable name-keyed map of collector descriptors, iterated in name order."""

    __slots__ = ("_by_name",)

    def __init__(self, descriptors: Iterable[CollectorDescriptor] = ()) -> None:
        by_name: dict[str, CollectorDescriptor] = {}
        for descriptor in descriptors:
            if descriptor.name in by_name:
                raise DuplicateCollectorError(
                    f"collector {descriptor.name!r} registered twice"
                )
            by_name[descriptor.name] = descriptor
        self._by_name = dict(sorted(by_name.items()))

    def __getitem__(self, name: str) -> CollectorDescriptor:
        return self._by_name[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._by_name)

    def __len__(self) -> int:
        return len(self._by_name)

    def __repr__(self) -> str:
        return f"Registry({list(self._by_name)})"

    def reliability_of(self, name: str) -> float:
        """Reliability weight for a source name; 1.0 when unregistered."""
        descriptor = self._by_name.get(name)
        return 1.0 if descriptor is None else descriptor.reliability


# The accept columns a collector can declare, by config-file spelling.
ACCEPT_COLUMNS: dict[str, AcceptPair] = {
    "domain": (InputKind.DOMAIN, None),
    "email": (InputKind.EMAIL, None),
    "facebook": (InputKind.SOCIAL_HANDLE, Platform.FACEBOOK),
    "instagram": (InputKind.SOCIAL_HANDLE, Platform.INSTAGRAM),
    "keyword": (InputKind.KEYWORD, None),
    "phone": (InputKind.PHONE, None),
    "twitter": (InputKind.SOCIAL_HANDLE, Platform.TWITTER),
}


def accepts(*columns: str) -> frozenset:
    """Build an accept set from column names, e.g. ``accepts("email", "phone")``."""
    return frozenset(ACCEPT_COLUMNS[c] for c in columns)


# Built-in capability matrix: which well-known people-search services accept
# which query kinds.  All are corpus-backed stand-ins with full reliability;
# deployments point specific entries at live HTTP endpoints via an overlay.
_BUILTIN_COLUMNS: dict[str, Tuple[str, ...]] = {
    "bmobile": ("phone",),
    "maltego": ("domain", "email", "facebook", "instagram", "keyword", "phone", "twitter"),
    "pipl": ("email", "phone"),
    "rapportive": ("email",),
    "searchbug": ("email",),
    "social_bearing": ("twitter",),
    "social_buzz": ("twitter",),
    "stalkscan": ("facebook",),
    "tinfoleak": ("twitter",),
    "upolos": ("instagram",),
    "verify_email": ("email",),
    "vivial": ("domain",),
    "webmii": ("keyword",),
    "whatbreach": ("email",),
}


def builtin_matrix() -> Registry:
    """The default registry of fourteen corpus-backed collectors."""
    return Registry(
        CollectorDescriptor(name=name, accepts=accepts(*columns))
        for name, columns in _BUILTIN_COLUMNS.items()
    )


def route(query: QueryInput, registry: Registry) -> list[CollectorDescriptor]:
    """Every collector accepting the query's (kind, platform), in name order.

    Name queries are routed as keyword queries.  The list may be empty
    when an overlay leaves a kind without collectors.
    """
    kind = InputKind.KEYWORD if query.kind is InputKind.NAME else query.kind
    platform = query.platform if query.kind is InputKind.SOCIAL_HANDLE else None
    pair = (kind, platform)
    return [d for d in registry.values() if pair in d.accepts]


# An add entry spells out a descriptor's fields, plus the ``backend`` it implies.
_ENTRY_KEYS = {f.name for f in dataclasses.fields(CollectorDescriptor)} | {"backend"}
_HTTP_KEYS = {f.name for f in dataclasses.fields(HttpCollectorConfig)}


def _descriptor_from_entry(entry: object, path: Path) -> CollectorDescriptor:
    """Check an add entry's JSON shape; the dataclasses check its values."""
    if not isinstance(entry, dict):
        raise OverlayError(f"{path}: each add entry must be an object")
    unknown = set(entry) - _ENTRY_KEYS
    if unknown:
        raise OverlayError(f"{path}: unknown entry keys {sorted(unknown)}")
    name = entry.get("name")
    backend_name = entry.get("backend", "corpus")
    try:
        backend = Backend(backend_name)
    except ValueError as exc:
        raise OverlayError(f"{path}: unknown backend {backend_name!r}") from exc
    if (backend is Backend.HTTP) != ("http" in entry):
        raise OverlayError(f'{path}: collector {name!r}: http and "backend": "http" go together')
    raw_http = entry.get("http", {})
    if not isinstance(raw_http, dict):
        raise OverlayError(f"{path}: collector {name!r}: http must be an object")
    unknown = set(raw_http) - _HTTP_KEYS
    if unknown:
        raise OverlayError(f"{path}: collector {name!r}: unknown http keys {sorted(unknown)}")
    columns = entry.get("accepts")
    if not isinstance(columns, list):
        raise OverlayError(f"{path}: collector {name!r} needs an accepts list")
    unknown = [c for c in columns if not isinstance(c, str) or c not in ACCEPT_COLUMNS]
    if unknown:
        raise OverlayError(
            f"{path}: collector {name!r} has unknown accepts columns {unknown} "
            f"(choose from {sorted(ACCEPT_COLUMNS)})"
        )
    try:
        return CollectorDescriptor(
            name=name,
            accepts=accepts(*columns),
            reliability=entry.get("reliability", 1.0),
            http=HttpCollectorConfig(**raw_http) if backend is Backend.HTTP else None,
        )
    except (ValueError, TypeError) as exc:
        raise OverlayError(f"{path}: collector {name!r}: {exc}") from exc


def load_overlay(registry: Registry, path: str | Path) -> Registry:
    """Apply a JSON overlay file to *registry* and return the result.

    The file holds ``{"disable": [names...], "add": [entries...]}``.  Disables
    run first, so an add may redefine a built-in collector under its old name.
    Entry shape: ``{"name", "accepts", "reliability"?, "backend"?, "http"?}``,
    where ``http`` is given exactly when ``backend`` is ``"http"``.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        # An escape such as \ud800 decodes to a lone surrogate, which no
        # UTF-8 text holds; encoding every key and value again finds one.
        json.dumps(payload, ensure_ascii=False).encode("utf-8")
    except OSError as exc:
        raise OverlayError(f"cannot read registry overlay {path}: {exc}") from exc
    except UnicodeEncodeError as exc:
        raise OverlayError(
            f"{path}: a string is not UTF-8 text (it holds a lone surrogate)"
        ) from exc
    # JSONDecodeError, UnicodeDecodeError, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise OverlayError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise OverlayError(f"{path}: overlay must be a JSON object")
    unknown = set(payload) - {"disable", "add"}
    if unknown:
        raise OverlayError(f"{path}: unknown overlay keys {sorted(unknown)}")
    disables = payload.get("disable", [])
    if not isinstance(disables, list) or not all(isinstance(n, str) for n in disables):
        raise OverlayError(f"{path}: disable must be a list of names")
    additions = payload.get("add", [])
    if not isinstance(additions, list):
        raise OverlayError(f"{path}: add must be a list of entries")

    by_name = dict(registry)
    for name in disables:
        if by_name.pop(name, None) is None:
            raise OverlayError(f"{path}: cannot disable {name!r}: not registered")
    for entry in additions:
        descriptor = _descriptor_from_entry(entry, path)
        if descriptor.name in by_name:
            raise OverlayError(f"{path}: collector {descriptor.name!r} already registered")
        by_name[descriptor.name] = descriptor
    return Registry(by_name.values())
