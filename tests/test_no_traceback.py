"""No input ends in a traceback.

Whatever the command line, the corpus, the registry overlay or an HTTP
collector's reply holds, ``main`` and ``run_pipeline`` return one of README's
exit codes, 0 or 2-5, and let no exception escape.  A report is written
exactly when the code is 0, and it is UTF-8 text.

Text is drawn from all of Unicode, lone surrogates and control characters
included, and may be very long; numeric options take huge and odd numbers.
Corpus lines, overlays and replies are near-valid documents: a right key with
a wrong value, a key left out, repeated or unknown, NaN and infinities, deep
nesting, and empty or long strings.  ``--hypothesis-profile=thorough`` runs
a longer search.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dossier.cli import KIND_CHOICES, PipelineConfig, main, run_pipeline
from dossier.collect.corpus import bundled_corpus_path
from dossier.report import REPORT_FORMATS, TEMPLATE_NAMES
from dossier.routing import ACCEPT_COLUMNS, builtin_matrix
from dossier.vocab import ATTRIBUTE_KEYS

EXIT_CODES = {0, 2, 3, 4, 5}

# All of Unicode, control characters drawn often.  A third of the texts
# hold a lone surrogate, which is no UTF-8 text; no other text does.
PLAIN_TEXT = st.text(st.one_of(st.characters(), st.characters(max_codepoint=0x1F)), max_size=12)
SURROGATE_TEXT = st.builds(
    "{}{}{}".format,
    PLAIN_TEXT,
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
    PLAIN_TEXT,
)
TEXT = st.one_of(PLAIN_TEXT, PLAIN_TEXT, SURROGATE_TEXT)


def long(texts):
    return st.builds(lambda text, n: text * n, texts.filter(bool), st.integers(1_000, 20_000))


ANY_TEXT = st.one_of(TEXT, long(TEXT))

# Facts a corpus, a reply and a query can share, so that runs reach a report.
SHARED = {
    "email": "ann@x.org",
    "full_name": "Ann Lee",
    "phone": "+91 98765 43210",
    "social_handle_twitter": "ann",
    "url": "https://x.org/ann",
    "location": "London",
}
QUERIES = st.one_of(
    st.sampled_from(["ann@x.org", "Ann Lee", "+91 98765 43210", "twitter:ann", "x.org", "@ann"]),
    st.sampled_from(["ann@x.org", "Harry Styles", "raj.reddy@example.edu"]),
    ANY_TEXT,
    st.builds(str.__add__, st.sampled_from(sorted(SHARED.values())), PLAIN_TEXT),
)
COLLECTORS = sorted(builtin_matrix())

NUMBERS = st.one_of(
    st.integers(-5, 10_000),
    st.integers(),
    st.floats(),
    st.sampled_from([10**400, 2**63, 2**31, 1e308, 5e-324, -0.0]),
)
NUMBER_TEXT = st.one_of(
    NUMBERS.map(str),
    st.sampled_from(["1e309", "nan", "-inf", "0x10", "1_000", "", " 7 ", "٣", "+5", "9" * 5_000]),
    TEXT,
)


class Raw(str):
    """JSON text spliced into a document as it is."""


class Obj(list):
    """A JSON object as its (key, value) pairs, in order; a key may repeat."""


class Stub:
    """Where a document names the reply stub's URL."""


def dumps(value, base: str, ascii: bool = True) -> str:
    if isinstance(value, Raw):
        return value
    if value is Stub:
        return json.dumps(base)
    if isinstance(value, dict):
        value = Obj(value.items())
    if isinstance(value, Obj):
        items = (f"{dumps(k, base, ascii)}: {dumps(v, base, ascii)}" for k, v in value)
        return "{" + ", ".join(items) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(dumps(v, base, ascii) for v in value) + "]"
    # Writes NaN and Infinity; with ascii, a lone surrogate as an escape.
    return json.dumps(value, ensure_ascii=ascii)


# Keys of drawn objects.  None is "base": only the stub and BAD_BASES below
# ever name an HTTP collector's host, so a collector never reaches another.
KEYS = TEXT.filter(lambda key: key != "base")
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    NUMBERS,
    ANY_TEXT,
    st.lists(TEXT, max_size=3),
    st.dictionaries(KEYS, TEXT, max_size=2),
    st.integers(1, 5_000).map(lambda depth: Raw("[" * depth + "]" * depth)),
    st.sampled_from([Raw("1" * 5_001), Raw("1e400"), Raw("-0"), Raw("[" * 100_000)]),
)
# The wrong values of an HTTP collector's base: a URL refused before any
# connection, or no URL at all.
BAD_BASES = st.one_of(
    st.sampled_from(["ftp://127.0.0.1/", "file:///dev/null", ""]), NUMBERS, st.none()
)
# A key the document leaves out.
ABSENT = object()


def optional(strategy):
    return st.one_of(st.just(ABSENT), strategy)


@st.composite
def objs(draw, fields: dict) -> Obj:
    """A JSON object of *fields*: key -> strategy of its value, or of ABSENT."""
    pairs = Obj()
    for key, strategy in fields.items():
        value = draw(strategy)
        if value is not ABSENT:
            pairs.append((key, value))
    return pairs


def objects(document):
    """Every JSON object in *document*, outermost first."""
    if isinstance(document, Obj):
        yield document
        for _, value in document:
            yield from objects(value)
    elif isinstance(document, list):
        for value in document:
            yield from objects(value)


@st.composite
def with_fault(draw, strategy):
    """A document of *strategy*, a third of the time with one fault in one
    of its objects: a key left out, repeated or unknown, or a value of the
    wrong type."""
    document = draw(strategy)
    nodes = [node for node in objects(document) if node]
    if nodes and draw(st.integers(0, 2)) == 0:
        node = draw(st.sampled_from(nodes))
        i = draw(st.integers(0, len(node) - 1))
        key = node[i][0]
        junk = BAD_BASES if key == "base" else JUNK
        fault = draw(st.sampled_from(["drop", "junk", "repeat", "unknown"]))
        if fault == "drop":
            del node[i]
        elif fault == "junk":
            node[i] = (key, draw(junk))
        elif fault == "repeat":
            node.append((key, draw(junk)))
        else:
            node.append((draw(KEYS), draw(JUNK)))
    return document


@st.composite
def facts(draw) -> Obj:
    attribute, value = draw(
        st.one_of(
            st.sampled_from(sorted(SHARED.items())),
            st.tuples(
                st.sampled_from(sorted(ATTRIBUTE_KEYS)), st.one_of(PLAIN_TEXT, long(PLAIN_TEXT))
            ),
        )
    )
    fields = {
        "subject_id": st.sampled_from(["s-1", "s-2"]),
        "attribute": st.just(attribute),
        "value": st.just(value),
        "platforms": st.lists(st.sampled_from(COLLECTORS), min_size=1, max_size=3),
        "confidence": st.floats(0, 1),
    }
    return draw(objs(fields))


@st.composite
def corpus_files(draw) -> bytes | None:
    """A corpus file's bytes, or None for the bundled corpus."""
    if draw(st.integers(0, 5)) == 0:
        return None
    lines = [dumps(fact, "") for fact in draw(st.lists(facts(), max_size=6))]
    if draw(st.integers(0, 3)) == 0:
        bad = draw(st.one_of(with_fault(facts()).map(lambda f: dumps(f, "")), ANY_TEXT))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    newline = draw(st.sampled_from(["\n", "\r\n", "\n\n"]))
    return newline.join(lines).encode("utf-8", "surrogatepass")


# Mostly the mapping of every field a reply has; sometimes any of them.
MAPPING = {"name": "full_name", "emails": "email", "info.city": "location", "list.0": "alias"}
MAPPINGS = st.one_of(
    st.just(MAPPING),
    st.just(MAPPING),
    st.dictionaries(st.sampled_from([*MAPPING, "", "a..b"]), st.sampled_from(sorted(SHARED))),
).map(lambda mapping: Obj(mapping.items()))


HTTP_CONFIGS = objs(
    {
        "base": st.just(Stub),
        "method": optional(st.sampled_from(["GET", "post"])),
        "query_template": optional(st.sampled_from(["q?v={value}&k={kind}", "{value}", ""])),
        "response_mapping": MAPPINGS,
        "credential_env": optional(st.just("DOSSIER_UNSET_TOKEN")),
    }
)


@st.composite
def entries(draw, name: str) -> Obj:
    """An add entry, three times in four an HTTP collector."""
    http = draw(st.integers(0, 3)) > 0
    fields = {
        "name": st.just(name),
        "accepts": st.one_of(
            st.just(sorted(ACCEPT_COLUMNS)),
            st.lists(st.sampled_from(sorted(ACCEPT_COLUMNS)), min_size=1, max_size=4),
        ),
        "reliability": optional(st.floats(0, 1)),
        "backend": st.just("http") if http else optional(st.just("corpus")),
        "http": HTTP_CONFIGS if http else st.just(ABSENT),
    }
    return draw(objs(fields))


OVERLAYS = with_fault(
    objs(
        {
            "disable": optional(st.lists(st.sampled_from(COLLECTORS), max_size=3, unique=True)),
            "add": st.integers(1, 3).flatmap(
                lambda n: st.tuples(*(entries(f"svc{i}") for i in range(n))).map(list)
            ),
        }
    )
)
REPLY_OBJECTS = with_fault(
    objs(
        {
            "name": st.one_of(st.sampled_from(sorted(SHARED.values())), ANY_TEXT),
            "emails": st.lists(st.one_of(st.just("ann@x.org"), TEXT), min_size=1, max_size=3),
            "info": objs({"city": TEXT}),
            "list": st.lists(TEXT, min_size=1, max_size=2),
        }
    )
)
REPLY_BODIES = st.one_of(REPLY_OBJECTS, REPLY_OBJECTS, JUNK)
# Whether a document is written in ASCII, a lone surrogate as a JSON escape,
# or as UTF-8, where it is an invalid byte sequence.
ASCII = st.sampled_from([True, True, True, False])
STATUSES = st.sampled_from([200] * 6 + [204, 302, 404, 500])
REPLIES = st.tuples(STATUSES, st.tuples(REPLY_BODIES, ASCII))


class ReplyHandler(BaseHTTPRequestHandler):
    """Answers every request with the status and body of the current example."""

    reply = (200, b"{}")

    def log_message(self, *args):
        pass

    def _answer(self):
        status, body = ReplyHandler.reply
        try:
            self.send_response(status)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except OSError:
            pass  # the client gave up

    do_GET = do_POST = _answer


@pytest.fixture(scope="module")
def stub_url():
    server = ThreadingHTTPServer(("127.0.0.1", 0), ReplyHandler)
    # A short poll interval, so that shutdown returns at once.
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/"
    server.shutdown()
    server.server_close()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("no-traceback")


class Run:
    """The files of one example: a corpus, an overlay and where the report goes."""

    def __init__(self, workdir, stub_url, corpus, overlay, reply):
        for stale in workdir.iterdir():
            stale.unlink()
        self.workdir = workdir
        self.corpus = str(bundled_corpus_path())
        if corpus is not None:
            self.corpus = str(workdir / "corpus.jsonl")
            (workdir / "corpus.jsonl").write_bytes(corpus)
        self.overlay = None
        if overlay is not None:
            document, ascii = overlay
            self.overlay = str(workdir / "overlay.json")
            text = dumps(document, stub_url, ascii)
            (workdir / "overlay.json").write_bytes(text.encode("utf-8", "surrogatepass"))
        status, (document, ascii) = reply
        body = dumps(document, stub_url, ascii).encode("utf-8", "surrogatepass")
        ReplyHandler.reply = (status, body)
        self.out = workdir / "report.out"

    def check(self, code) -> None:
        assert code in EXIT_CODES
        if code == 0:
            self.out.read_bytes().decode("utf-8")
        else:
            assert not self.out.exists()
        assert {p.name for p in self.workdir.iterdir()} <= {
            "corpus.jsonl",
            "overlay.json",
            "report.out",
        }


@st.composite
def argvs(draw, run: Run) -> list[str]:
    """A ``dossier run`` command line: each option right or left out, and
    a third of the time one option with an odd value or one stray argument."""
    argv = ["run", "--input", draw(QUERIES), "--corpus", run.corpus, "--out", str(run.out)]
    if run.overlay is not None:
        argv += ["--registry", run.overlay]
    options = {
        "--kind": st.sampled_from(sorted(KIND_CHOICES)),
        "--template": st.sampled_from(TEMPLATE_NAMES),
        "--format": st.sampled_from(REPORT_FORMATS),
        "--region": st.sampled_from(["IN", "us", " gb "]),
        "--timeout-ms": st.integers(1, 5_000).map(str),
        "--max-parallel": st.integers(1, 16).map(str),
        "--min-relevance": st.floats(0, 1).map(str),
        "--pin-timestamp": st.just("2020-01-01T00:00:00Z"),
    }
    for option, values in options.items():
        if draw(st.booleans()):
            argv += [option, draw(values)]
    if draw(st.booleans()):
        argv.append("--include-unattributed")
    fault = draw(st.sampled_from(["none"] * 4 + ["value", "stray"]))
    if fault == "value":
        option = draw(st.sampled_from(sorted(options)))
        numeric = option in ("--timeout-ms", "--max-parallel", "--min-relevance")
        argv += [option, draw(NUMBER_TEXT if numeric else TEXT)]
    elif fault == "stray":
        argv.insert(draw(st.integers(0, len(argv))), draw(TEXT))
    return argv


# A quarter of the profile's search: 25 examples by default, 500 under
# --hypothesis-profile=thorough.
SEARCH = settings(deadline=None, max_examples=settings.default.max_examples // 4)

RUN_FILES = st.tuples(
    corpus_files(),
    st.one_of(st.none(), st.tuples(OVERLAYS, ASCII), st.tuples(OVERLAYS, ASCII)),
    REPLIES,
)


@SEARCH
@given(files=RUN_FILES, data=st.data())
def test_no_command_line_ends_in_a_traceback(workdir, stub_url, files, data):
    run = Run(workdir, stub_url, *files)
    run.check(main(data.draw(argvs(run))))


# One HTTP collector that every query reaches, mapping every reply field.
HTTP_OVERLAY = {
    "add": [
        {
            "name": "svc",
            "accepts": sorted(ACCEPT_COLUMNS),
            "backend": "http",
            "http": {"base": Stub, "response_mapping": MAPPING},
        }
    ]
}


@SEARCH
@given(reply=REPLIES, query=st.sampled_from(["ann@x.org", "Harry Styles", "twitter:ann"]))
def test_no_http_reply_ends_in_a_traceback(workdir, stub_url, reply, query):
    """The same through the one boundary where a service's reply enters a
    run, with every other input right."""
    run = Run(workdir, stub_url, None, (HTTP_OVERLAY, True), reply)
    argv = ["run", "--input", query, "--corpus", run.corpus, "--out", str(run.out)]
    run.check(main([*argv, "--registry", run.overlay]))


# Values of the wrong type, or odd values of the right one, for any field;
# a path field holds no other string, so a run reads and writes only the
# files of its example.
NOT_TEXT = st.one_of(
    st.none(), st.booleans(), NUMBERS, st.binary(max_size=3), st.lists(st.integers(), max_size=2)
)
ODD = st.one_of(NOT_TEXT, TEXT)


@SEARCH
@given(files=RUN_FILES, data=st.data())
def test_no_pipeline_config_ends_in_a_traceback(workdir, stub_url, files, data):
    """A library call: every field right, half the time but one, which holds
    an odd value of any type."""
    run = Run(workdir, stub_url, *files)
    fields = {
        "input_text": QUERIES,
        "corpus_path": st.just(run.corpus),
        "out_path": st.sampled_from([str(run.out), run.out]),
        "kind": st.sampled_from(sorted(KIND_CHOICES)),
        "template": st.sampled_from(TEMPLATE_NAMES),
        "fmt": st.sampled_from(REPORT_FORMATS),
        "registry_path": st.just(run.overlay),
        "region": st.sampled_from(["IN", "us", " gb "]),
        "timeout_ms": st.integers(1, 5_000),
        "max_parallel": st.integers(1, 16),
        "min_relevance": st.floats(0, 1),
        "include_unattributed": st.booleans(),
        "pin_timestamp": st.sampled_from([None, "2020-01-01T00:00:00+00:00"]),
    }
    values = {name: data.draw(strategy) for name, strategy in fields.items()}
    odd = data.draw(st.one_of(st.none(), st.sampled_from(sorted(fields))))
    if odd in ("corpus_path", "out_path", "registry_path"):
        values[odd] = data.draw(st.one_of(NOT_TEXT, st.just(str(workdir / "missing" / "file"))))
    elif odd is not None:
        values[odd] = data.draw(ODD)
    run.check(run_pipeline(PipelineConfig(**values)))
