"""Loopback stand-in for the HTTP people-search services of ``http-fanout``.

``GET /<collector>?email=<address>`` answers, after a fixed service delay,
with the facts of the subject owning that email which the collector may see,
as ``{"<attribute>": ["<value>"], ...}``.  Requests listed in the stall file
send their headers at once and then trickle the body a byte at a time, so the
reply takes well past the client's deadline while no single socket read ever
waits long enough to raise a read timeout: the executor's timeout, not the
HTTP library's, is what ends the wait.  The server prints its port on the
first line of stdout and serves until it is terminated.

Usage: python3 httpserver.py CORPUS STALLS
"""

import json
import sys
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import gen

# Service delay of every reply.  It is large beside the worker's CPU work
# per fetch, so drift in host speed moves query latency by little.
DELAY_S = 0.1
STALL_S = (gen.HTTP_TIMEOUT_MS + 350) / 1000.0  # a stalled reply, well past the timeout
TRICKLE_S = 0.05  # gap between stalled body bytes, far below any read timeout


def _load(corpus_path):
    by_subject = {}
    with open(corpus_path, encoding="utf-8") as stream:
        for line in stream:
            fact = json.loads(line)
            by_subject.setdefault(fact["subject_id"], []).append(fact)
    by_email = {}
    for facts in by_subject.values():
        for fact in facts:
            if fact["attribute"] == "email":
                by_email[fact["value"].lower()] = facts
    return by_email


def make_handler(by_email, stalls):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def do_GET(self):
            url = urllib.parse.urlsplit(self.path)
            collector = url.path.strip("/")
            email = urllib.parse.parse_qs(url.query).get("email", [""])[0]
            time.sleep(DELAY_S)
            payload = {}
            for fact in by_email.get(email, ()):
                if collector in fact["platforms"]:
                    payload.setdefault(fact["attribute"], []).append(fact["value"])
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            try:
                if (collector, email) in stalls:
                    self.wfile.flush()
                    deadline = time.monotonic() + STALL_S
                    for index in range(len(body) - 1):
                        self.wfile.write(body[index : index + 1])
                        self.wfile.flush()
                        time.sleep(max(0.0, min(TRICKLE_S, deadline - time.monotonic())))
                    body = body[-1:]
                self.wfile.write(body)
            except (BrokenPipeError, ConnectionResetError):
                pass  # the benchmark ended while a stalled reply was trickling

    return Handler


def main(argv):
    corpus, stall_file = argv
    with open(stall_file, encoding="utf-8") as stream:
        stalls = {tuple(pair) for pair in json.load(stream)}
    handler = make_handler(_load(corpus), stalls)
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main(sys.argv[1:])
