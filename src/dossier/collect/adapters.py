"""HTTP adapter: turn one web API call into raw evidence records.

This is the hook for wiring real services into the registry.  The adapter
performs exactly one request per query, maps the JSON response onto the
attribute vocabulary, and reports every failure as a typed error for the
executor to absorb.  Nothing in the offline test corpus depends on it.
"""

from __future__ import annotations

import functools
import io
import json
import os
import urllib.parse
from time import perf_counter

from ..errors import DossierError
from ..inputs import QueryInput, is_utf8_text
from ..routing import HttpCollectorConfig
from .records import DEFAULT_TIMEOUT_MS, RawRecord


class AdapterError(DossierError):
    """Base class for HTTP adapter failures."""


class NetworkError(AdapterError):
    """The request could not be completed at the transport level."""


class BadStatusError(AdapterError):
    """The service answered with a non-2xx status code."""

    def __init__(self, status_code: int, url: str) -> None:
        super().__init__(f"HTTP {status_code} from {url}")
        self.status_code = status_code


class ResponseMappingError(AdapterError):
    """The response body cannot be mapped onto attribute records."""


class MissingCredentialError(AdapterError):
    """The configured credential environment variable is not set, or holds no
    bearer token."""


# A longer response body is refused rather than read into memory.
MAX_BODY_BYTES = 1 << 20
# RFC 6750 b64token: 1*( ALPHA / DIGIT / "-" / "." / "_" / "~" / "+" / "/" ) *"="
_B64TOKEN_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~+/")


def _time_left(deadline: float) -> float:
    """Seconds from now until *deadline*, a ``perf_counter`` reading; a
    :class:`TimeoutError` once it has passed."""
    left = deadline - perf_counter()
    if left <= 0:
        raise TimeoutError("timed out")
    return left


class _DeadlineReader(io.RawIOBase):
    """The reader of a connected *sock* that sets the socket timeout to the
    time left until *deadline* before each receive.

    It stands in for the socket that ``http.client.HTTPResponse`` reads its
    status line, headers and body from: ``makefile`` is the one socket
    method a response calls.
    """

    def __init__(self, sock, deadline: float) -> None:
        super().__init__()
        self._sock = sock
        self._deadline = deadline
        # Counted among the socket's files, so closing the socket, as urllib
        # does once the headers are read, leaves it open for this reader.
        self._raw = sock.makefile("rb", buffering=0)

    def makefile(self, mode: str) -> io.BufferedReader:
        return io.BufferedReader(self)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int | None:
        self._sock.settimeout(_time_left(self._deadline))
        return self._raw.readinto(buffer)

    def close(self) -> None:
        self._raw.close()
        super().close()


@functools.cache
def _opener():
    """The shared opener, built on first use, which ``execute_stack`` makes
    before it starts any HTTP collector: ``urllib.request`` pulls in
    ``http.client``, ``email`` and ``ssl``, which runs without HTTP collectors
    never need, and building an opener reads the proxy environment.

    Its HTTP and HTTPS connections hold one deadline, their timeout from
    their creation: the connect gets the time left, and so does each receive
    of the status line, the headers and the body.
    """
    import http.client
    import urllib.request

    class _NoRedirect(urllib.request.HTTPRedirectHandler):
        """Refuse every redirect, so no request (and no credential) is re-sent."""

        def redirect_request(self, *args, **kwargs):
            return None

    class _Deadline:
        """Mixed into an HTTP(S) connection, ahead of its class."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._deadline = perf_counter() + self.timeout

        def connect(self):
            self.timeout = _time_left(self._deadline)
            super().connect()

        # http.client reads every response, a proxy tunnel's too, from
        # self.response_class(self.sock, ...).
        def response_class(self, sock, *args, **kwargs):
            return http.client.HTTPResponse(_DeadlineReader(sock, self._deadline), *args, **kwargs)

    class _HTTPConnection(_Deadline, http.client.HTTPConnection):
        pass

    class _HTTPHandler(urllib.request.HTTPHandler):
        def do_open(self, http_class, req, **kwargs):
            return super().do_open(_HTTPConnection, req, **kwargs)

    handlers = [_NoRedirect, _HTTPHandler]
    if hasattr(http.client, "HTTPSConnection"):  # Python built with ssl

        class _HTTPSConnection(_Deadline, http.client.HTTPSConnection):
            pass

        class _HTTPSHandler(urllib.request.HTTPSHandler):
            def do_open(self, http_class, req, **kwargs):
                return super().do_open(_HTTPSConnection, req, **kwargs)

        handlers.append(_HTTPSHandler)
    return urllib.request.build_opener(*handlers)


def _extract(payload: object, path: str) -> object:
    """Walk a dotted field path; integer segments index into lists."""
    current = payload
    for segment in path.split("."):
        if isinstance(current, dict):
            if segment not in current:
                return None
            current = current[segment]
        elif isinstance(current, list):
            try:
                current = current[int(segment)]
            except (ValueError, IndexError):
                return None
        else:
            return None
    return current


def _scalars(value: object, path: str) -> list[str]:
    """The texts of a mapped scalar, or of each element of a list of them."""
    if value is None:
        return []
    out: list[str] = []
    for element in value if isinstance(value, list) else [value]:
        if isinstance(element, bool):
            out.append(str(element).lower())
        elif isinstance(element, (str, int, float)):
            text = str(element)
            if not is_utf8_text(text):
                raise ResponseMappingError(
                    f"field {path!r} is not UTF-8 text (it holds a lone surrogate)"
                )
            out.append(text)
        elif isinstance(value, list):
            raise ResponseMappingError(f"field {path!r} contains a non-scalar list element")
        else:
            raise ResponseMappingError(f"field {path!r} is not a scalar or list of scalars")
    return out


def fetch_http(
    name: str,
    config: HttpCollectorConfig,
    query: QueryInput,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
) -> list[RawRecord]:
    """Issue the collector's single templated request and map the response.

    All records from one response share the request URL as their provenance
    locator, marking them as one batch about one person.  *timeout_ms*
    bounds the whole fetch from the start of its connection: the
    connect and each receive of the status line, the headers and the body
    wait only for the time left, and once none is left the fetch raises the
    ``Timeout`` :class:`NetworkError`.  So a server that sends a byte at a
    time holds the fetch for at most the timeout plus one socket read.  Name
    resolution (``getaddrinfo``) is not bounded: the standard library offers
    no timeout for it.  An HTTPS handshake has, for each receive, the time
    left when its connect began.

    The body is read once, up to ``MAX_BODY_BYTES`` and one byte more, with
    or without a Content-Length; a longer body, or a mapped string that is
    not UTF-8 text, is a :class:`ResponseMappingError`.
    """
    import http.client
    import urllib.error
    import urllib.request

    substituted = config.query_template.format(
        value=urllib.parse.quote(query.canonical, safe=""),
        kind=query.kind.value,
    )
    url = config.base + substituted
    headers = {"Accept": "application/json"}
    if config.credential_env is not None:
        credential = os.environ.get(config.credential_env)
        if credential is None:
            raise MissingCredentialError(
                f"collector {name!r} expects credentials in ${config.credential_env}"
            )
        # Any other value is refused before a request is made: http.client
        # quotes a header it refuses in its error, which would put the
        # credential into the report.
        token = credential.rstrip("=")
        if not token or not _B64TOKEN_CHARS.issuperset(token):
            raise MissingCredentialError(
                f"collector {name!r}: ${config.credential_env} is not an RFC 6750 bearer token"
            )
        headers["Authorization"] = f"Bearer {credential}"
    # urllib would also open file:, ftp: and data: URLs; a collector only speaks HTTP.
    if urllib.parse.urlsplit(url).scheme.lower() not in ("http", "https"):
        raise NetworkError(f"{config.method} {url} failed: not an http(s) URL")
    request = urllib.request.Request(url, method=config.method, headers=headers)
    try:
        with _opener().open(request, timeout=timeout_ms / 1000.0) as response:
            body = response.read(MAX_BODY_BYTES + 1)
    except urllib.error.HTTPError as exc:
        exc.close()
        raise BadStatusError(exc.code, url) from exc
    except (OSError, http.client.HTTPException) as exc:
        # Keep the message deterministic: library exception texts embed
        # object reprs that change between runs.
        reason = getattr(exc, "reason", exc)
        kind = "Timeout" if isinstance(reason, TimeoutError) else "ConnectionError"
        raise NetworkError(f"{config.method} {url} failed: {kind}") from exc
    if len(body) > MAX_BODY_BYTES:
        raise ResponseMappingError(f"response from {url} exceeds {MAX_BODY_BYTES} bytes")
    try:
        payload = json.loads(body)
    except (ValueError, RecursionError) as exc:
        raise ResponseMappingError(f"response from {url} is not JSON") from exc

    records = []
    for path, attribute in config.response_mapping:
        for value in _scalars(_extract(payload, path), path):
            records.append(
                RawRecord(attribute=attribute, value=value, confidence=1.0, provenance=url)
            )
    records.sort(key=lambda r: (r.attribute, r.value))
    return records
