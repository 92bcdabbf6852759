"""The dossier benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload warm-lookup --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Each run generates its inputs from the seed (``gen.py``), runs the package
from the checkout's ``src`` in separate processes (``worker.py``, the CLI,
and for ``http-fanout`` a loopback server in ``httpserver.py``), and acts as
one closed-loop client: the next query goes out when the previous answer is
back.  It measures whole blocks of queries (every block has the same kind
mix) until ``--seconds`` have passed, then checks every answer.

Checks, all in the same run: the two case studies through the CLI against
``tests/goldens`` byte for byte; every query against the answer its
construction implies; and, for the warm workloads, one seeded query of
each kind in the first block re-run through ``python -m dossier.cli`` with
identical bytes required.  Queries that hit a known, tagged defect (ROADMAP 3a, 3b) and
give exactly that defect's known wrong answer are failed queries; ``correct``
is false when any other check fails or any other answer is wrong.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (every other block traced, spans kept in memory and written to
``.perfbench/spans-<workload>-seed<seed>.json``).  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import spans as spanlib

HERE = Path(__file__).resolve().parent
WORKLOADS = ("warm-lookup", "oneshot-cli", "soft-link", "http-fanout")
SETUP_SAMPLES = 9  # fresh set-ups per run; the warm worker's own is one of them
GOLDENS = (
    ("harry_matrimonial.md", ["--input=Harry Styles", "--template", "matrimonial"]),
    ("shahin_criminal.md", ["--input=@shahin.mzr", "--kind", "instagram", "--template", "criminal"]),
)
HTTP_FIELDS = (
    "email", "full_name", "location", "phone", "social_handle_facebook",
    "social_handle_instagram", "social_handle_twitter", "url",
)
_CANDIDATE_RE = re.compile(r"^- Candidate: (\d+) facts, .*rejected candidates: (\d+)$", re.M)
_FAILURES_HEADING = "\n## Collection failures\n"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _mismatch(expect: dict, text: str) -> str | None:
    """Why the report *text* is not the answer *expect* describes, or None.

    ``candidates`` 0 means no candidate at all: the report's candidate line
    reads 0 facts and 0 rejected candidates, and ``marker`` is None.
    """
    found = _CANDIDATE_RE.search(text)
    if found is None:
        return "no candidate line"
    size, rejected = int(found.group(1)), int(found.group(2))
    if size != expect["size"]:
        return f"cluster size {size}, expected {expect['size']}"
    if rejected != max(expect["candidates"] - 1, 0):
        return f"{rejected + 1} candidates, expected {expect['candidates']}"
    marker = expect["marker"]
    if marker is not None and not any(line.startswith(marker) for line in text.splitlines()):
        return f"target {expect['subject']} not reported"
    at = text.find(_FAILURES_HEADING)
    failures = [line for line in text[at:].splitlines() if line.startswith("- ")] if at >= 0 else []
    if failures != expect["failures"]:
        return f"failure section {failures}, expected {expect['failures']}"
    return None


def verdict(query: dict, report: bytes | None, error: str | None) -> str | None:
    """Why *report* is not the answer *query* expects, or None when it is."""
    if error is not None:
        return error
    return _mismatch(query["expect"], report.decode("utf-8"))


def known_symptom(query: dict, report: bytes | None, error: str | None) -> bool:
    """Whether a wrong *report* is one the query's tagged defect is known to
    give; a crash, an error or any other wrong answer is not."""
    if error is not None:
        return False
    text = report.decode("utf-8")
    return any(_mismatch(symptom, text) is None for symptom in query["expect"]["symptoms"])


class Run:
    """One workload, one seed: inputs, program processes, timings, checks."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: int, trace: bool):
        self.root, self.workload, self.seed = root, workload, seed
        self.seconds, self.trace = seconds, trace
        self.nproc = len(os.sched_getaffinity(0))
        self.work = root / ".perfbench" / f"{workload}-seed{seed}-{os.getpid()}"
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            NO_PROXY="127.0.0.1,localhost",
            no_proxy="127.0.0.1,localhost",
        )
        self.registry = None
        self.timeout_ms = 5000
        self.processes: list[subprocess.Popen] = []
        self.setup_samples: list[float] = []
        self.spans: list[dict] = []
        self.rss_kb: list[int] = []
        self.threads_live_max = 0

    # -- processes -----------------------------------------------------

    def _start(self, args, **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(args, env=self.env, **kwargs)
        self.processes.append(proc)
        return proc

    def stop_all(self) -> None:
        for proc in self.processes:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            for stream in (proc.stdin, proc.stdout):
                if stream is not None:
                    stream.close()

    def _stderr(self, name: str):
        return open(self.work / f"{name}.stderr", "wb")

    def _failure(self, what: str, name: str) -> BenchError:
        """A BenchError quoting the end of the process's stderr file, which
        is deleted with the rest of the run's scratch files."""
        tail = (self.work / f"{name}.stderr").read_bytes()[-800:].decode("utf-8", "replace")
        return BenchError(f"{what}:\n{tail}")

    def _reply(self, proc: subprocess.Popen) -> dict:
        line = proc.stdout.readline()
        if not line:
            raise self._failure("the worker exited", "worker")
        return json.loads(line)

    def _check_package(self, package: str) -> None:
        if not Path(package).resolve().is_relative_to((self.root / "src").resolve()):
            raise BenchError(f"dossier was imported from {package}, not from this checkout")

    def cli_args(self, query: dict, out: Path) -> list[str]:
        args = [
            sys.executable, "-m", "dossier.cli", "run", f"--input={query['raw']}",
            "--kind", query["kind"], "--template", gen.TEMPLATE,
            "--corpus", self.plan["corpus"], "--pin-timestamp", gen.PIN_TIMESTAMP,
            "--max-parallel", str(self.nproc), "--out", str(out),
        ]
        if self.registry is not None:
            args += ["--registry", self.registry, "--timeout-ms", str(self.timeout_ms)]
        return args

    def worker_args(self, mode: str, *extra: str) -> list[str]:
        args = [
            sys.executable, str(HERE / "worker.py"), mode, "--corpus", self.plan["corpus"],
            "--max-parallel", str(self.nproc), "--timeout-ms", str(self.timeout_ms), *extra,
        ]
        if self.registry is not None:
            args += ["--registry", self.registry]
        return args

    def spawn_timed(self, args, name: str):
        """Run one process to exit; returns (ms from spawn to exit, exit code)."""
        with self._stderr(name) as err:
            started = time.perf_counter()
            proc = subprocess.Popen(args, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = (time.perf_counter() - started) * 1000.0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_kb.append(usage.ru_maxrss)
        return elapsed, proc.returncode

    # -- phases --------------------------------------------------------

    def prepare(self) -> None:
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        # Byte-compile once so no timed process pays for it.
        compileall.compile_dir(str(self.root / "src" / "dossier"), quiet=1)
        # Generate in a child process: a child's peak RSS starts from its
        # parent's resident size at fork, so the generator stays small.
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), self.workload, str(self.seed), str(self.work)],
            check=True, timeout=170,
        )
        self.plan = json.loads((self.work / "plan.json").read_text(encoding="utf-8"))
        self.plan["blocks"] = json.loads((self.work / "queries.json").read_text(encoding="utf-8"))
        self.plan["corpus"] = str(self.work / self.plan["corpus"])
        if self.workload == "http-fanout":
            self.start_server()

    def start_server(self) -> None:
        server = self._start(
            [sys.executable, str(HERE / "httpserver.py"), self.plan["corpus"],
             str(self.work / "stalls.json")],
            stdout=subprocess.PIPE, stderr=self._stderr("server"), text=True,
        )
        line = server.stdout.readline()
        if not line.strip().isdigit():
            raise self._failure("the loopback HTTP server did not start", "server")
        base = f"http://127.0.0.1:{int(line)}"
        overlay = {
            "disable": sorted(gen.EMAIL_COLLECTOR_COLUMNS),
            "add": [
                {
                    "name": name,
                    "accepts": list(columns),
                    "backend": "http",
                    "http": {
                        "base": f"{base}/{name}",
                        "query_template": "?email={value}",
                        "response_mapping": {field: field for field in HTTP_FIELDS},
                    },
                }
                for name, columns in sorted(gen.EMAIL_COLLECTOR_COLUMNS.items())
            ],
        }
        path = self.work / "overlay.json"
        path.write_text(json.dumps(overlay, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        self.registry = str(path)
        self.timeout_ms = self.plan["timeout_ms"]

    def run_untimed(self, jobs: list) -> list[bytes | None]:
        """Run untimed CLI jobs ``(args, out)``, ``nproc`` at a time; the
        report bytes of each, or None where the CLI failed."""
        reports = []
        with open(self.work / "untimed.stderr", "wb") as err:
            for at in range(0, len(jobs), self.nproc):
                procs = [
                    (self._start(args, stdout=subprocess.DEVNULL, stderr=err), out)
                    for args, out in jobs[at : at + self.nproc]
                ]
                reports += [
                    out.read_bytes() if proc.wait(timeout=170) == 0 else None
                    for proc, out in procs
                ]
        return reports

    def check_goldens(self) -> int:
        jobs = [
            ([sys.executable, "-m", "dossier.cli", "run", *extra, "--corpus", "builtin",
              "--pin-timestamp", gen.PIN_TIMESTAMP, "--out", str(self.work / golden)],
             self.work / golden)
            for golden, extra in GOLDENS
        ]
        reports = self.run_untimed(jobs)
        return sum(
            report == (self.root / "tests" / "goldens" / golden).read_bytes()
            for report, (golden, _) in zip(reports, GOLDENS)
        )

    def probe_setup(self) -> None:
        """One set-up in a fresh process, between two queries."""
        with self._stderr("probe") as err:
            done = subprocess.run(
                self.worker_args("probe"), env=self.env, stdout=subprocess.PIPE,
                stderr=err, timeout=170, check=False,
            )
        if done.returncode != 0:
            raise self._failure("a set-up probe failed", "probe")
        result = json.loads(done.stdout)
        self._check_package(result["package"])
        self.setup_samples.append(result["setup_s"])
        self.add_spans(result["spans"], f"probe{len(self.setup_samples)}")

    def add_spans(self, spans: list, process: str) -> None:
        """Keep *spans* from one program process; ids are made unique per
        process, and its set-up is named after it."""
        for span in spans:
            span["id"] = f"{process}:{span['id']}"
            if span["parent"] is not None:
                span["parent"] = f"{process}:{span['parent']}"
            if span["qid"] == "setup":
                span["qid"] = f"setup-{process}"
        self.spans.extend(spans)

    def measure(self, ask) -> tuple[list, list]:
        """Closed loop over whole blocks until ``--seconds`` of queries have
        passed.

        The set-up probes that ``setup_s`` still needs run between queries,
        evenly spread over those seconds, and are not part of them.  Returns
        the per-query results and, per block, its first result index and its
        time in seconds.
        """
        results, blocks = [], []
        probes = SETUP_SAMPLES - len(self.setup_samples)
        due = [index * self.seconds / probes for index in range(probes)]
        measured = 0.0
        for block in itertools.cycle(self.plan["blocks"]):
            block_time, first = 0.0, len(results)
            # Whole blocks alternate, so traced and untraced queries share the mix.
            traced = self.trace and len(blocks) % 2 == 0
            for query in block:
                if due and measured >= due[0]:
                    due.pop(0)
                    self.probe_setup()
                started = time.perf_counter()
                latency, report, error = ask(query, traced, len(results))
                elapsed = time.perf_counter() - started
                block_time += elapsed
                measured += elapsed
                results.append((query, traced, latency, report, error))
            blocks.append((first, block_time))
            if measured >= self.seconds and len(blocks) >= (2 if self.trace else 1):
                break
        return results, blocks

    def run_warm(self):
        proc = self._start(
            self.worker_args("serve"), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr("worker"), text=True, encoding="utf-8",
        )
        ready = self._reply(proc)
        self._check_package(ready["package"])
        self.setup_samples.append(ready["setup_s"])
        self.add_spans(ready["spans"], "worker")

        def ask(query, traced, qid):
            request = json.dumps({"raw": query["raw"], "kind": query["kind"],
                                  "trace": traced, "qid": qid}) + "\n"
            started = time.perf_counter()
            proc.stdin.write(request)
            proc.stdin.flush()
            reply = self._reply(proc)
            latency = (time.perf_counter() - started) * 1000.0
            if reply["ok"]:
                return latency, reply["report"].encode("utf-8"), None
            return latency, None, reply["error"]

        results, blocks = self.measure(ask)
        proc.stdin.write(json.dumps({"quit": True}) + "\n")
        proc.stdin.flush()
        final = self._reply(proc)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_kb.append(usage.ru_maxrss)
        self.add_spans(final["spans"], "worker")
        self.threads_live_max = final["threads_live_max"]
        return results, blocks

    def run_oneshot(self):
        out = self.work / "report.md"

        def ask(query, traced, qid):
            if out.exists():
                out.unlink()
            if traced:
                span_file = self.work / "spans.json"
                args = self.worker_args(
                    "once", "--input", query["raw"], "--kind", query["kind"],
                    "--out", str(out), "--spans", str(span_file), "--qid", str(qid),
                )
            else:
                args = self.cli_args(query, out)
            latency, code = self.spawn_timed(args, "query")
            if code != 0:
                return latency, None, f"exit code {code}"
            if traced:
                recorded = json.loads(span_file.read_text(encoding="utf-8"))
                self._check_package(recorded["package"])
                self.add_spans(recorded["spans"], f"q{qid}")
                self.threads_live_max = max(self.threads_live_max, recorded["threads_live"])
            return latency, out.read_bytes(), None

        return self.measure(ask)

    def cross_check(self, results, blocks) -> tuple[int, int]:
        """Re-run through the CLI one seeded query of each kind (slot) in the
        first block of warm queries."""
        rng = random.Random(f"perfbench-crosscheck:{self.workload}:{self.seed}")
        first = range(blocks[0][0], blocks[1][0] if len(blocks) > 1 else len(results))
        by_slot: dict = {}
        for index in first:
            by_slot.setdefault(results[index][0]["slot"], []).append(index)
        sample = [rng.choice(indices) for _, indices in sorted(by_slot.items())]
        jobs = []
        for index in sample:
            out = self.work / f"cross-{index}.md"
            jobs.append((self.cli_args(results[index][0], out), out))
        reports = self.run_untimed(jobs)
        matched = sum(report == results[i][3] for report, i in zip(reports, sample))
        return matched, len(sample)

    def execute(self) -> dict:
        self.prepare()
        goldens = self.check_goldens()
        if self.workload == "oneshot-cli":
            results, blocks = self.run_oneshot()
            cross = (0, 0)
        else:
            results, blocks = self.run_warm()
            cross = self.cross_check(results, blocks)
        return self.summarize(results, blocks, goldens, cross)

    # -- results -------------------------------------------------------

    def summarize(self, results, blocks, goldens: int, cross) -> dict:
        verdicts = [verdict(q, report, error) for q, _, _, report, error in results]
        failed = [
            (q, why, known_symptom(q, report, error))
            for (q, _, _, report, error), why in zip(results, verdicts) if why is not None
        ]
        unexpected = [(q, why) for q, why, known in failed if not known]
        defects = sorted({q["expect"]["defect"] for q, _, known in failed if known})
        correct = goldens == len(GOLDENS) and cross[0] == cross[1] and not unexpected
        attempted = len(results)
        lines = [
            f"workload {self.workload} seed {self.seed}: closed loop, 1 client, "
            f"max_parallel {self.nproc}, {self.plan['subjects']} subjects / "
            f"{self.plan['facts']} facts, {len(self.plan['blocks'][0])} queries per block",
            f"machine: nproc {self.nproc}, python {sys.version.split()[0]}",
            f"checks: goldens {goldens}/{len(GOLDENS)} byte-identical; warm == CLI bytes "
            f"{cross[0]}/{cross[1]}; answers {attempted - len(failed)}/{attempted} as expected",
            f"failed_ratio {len(failed) / attempted:.4f} fraction ({len(failed)} of {attempted} "
            f"queries; known defects {', '.join(defects) or 'none'}; "
            f"{len(unexpected)} unexpected)",
        ]
        for query, why in unexpected[:5]:
            lines.append(f"  unexpected: {query['raw']!r}: {why}")

        traced = [r[2] for r in results if r[1]]
        plain = [r[2] for r in results if not r[1]]
        if self.trace:
            overhead = statistics.median(traced) - statistics.median(plain) if plain else 0.0
            metrics, table = spanlib.layer_metrics(self.spans, overhead, self.threads_live_max)
            units = {name: _unit(name) for name in metrics}
            path = self.root / ".perfbench" / f"spans-{self.workload}-seed{self.seed}.json"
            path.write_text(json.dumps({"workload": self.workload, "seed": self.seed,
                                        "spans": self.spans}) + "\n", encoding="utf-8")
            lines.append(f"per-layer ({len(traced)} traced, {len(plain)} untraced queries; "
                         f"spans in {path.relative_to(self.root)}):")
            lines += table
            lines.append(f"tracing overhead: traced latency p50 {statistics.median(traced):.3f} ms "
                         f"- untraced p50 {statistics.median(plain) if plain else float('nan'):.3f} ms "
                         f"= {overhead:.3f} ms")
        else:
            correct_count = attempted - len(failed)
            elapsed = sum(seconds for _, seconds in blocks)
            ends = [first for first, _ in blocks[1:]] + [attempted]
            rates = [
                sum(why is None for why in verdicts[first:end]) / seconds
                for (first, seconds), end in zip(blocks, ends)
            ]
            p90 = statistics.quantiles(plain, n=10, method="inclusive")[-1]
            metrics = {
                "throughput_qps": statistics.median(rates),
                "latency_ms.p50": statistics.median(plain),
                "latency_ms.p90": p90,
                "setup_s": statistics.median(self.setup_samples),
                "peak_rss_mb": max(self.rss_kb) / 1024.0,
            }
            units = {name: _unit(name) for name in metrics}
            notes = {
                "throughput_qps": f"median over {len(blocks)} blocks; {correct_count} correct "
                                  f"queries in {elapsed:.2f} s overall",
                "latency_ms.p50": f"n={len(plain)}",
                "latency_ms.p90": f"n={len(plain)}, {sum(v > p90 for v in plain)} samples above",
                "setup_s": f"median of {len(self.setup_samples)} fresh processes spread over the run",
                "peak_rss_mb": "max over program processes",
            }
            for name, value in metrics.items():
                lines.append(f"  {name:<16} {value:>12.4f} {units[name]:<10} {notes[name]}")
        for line in lines:
            print(line)
        return {
            "correct": bool(correct),
            "attempted": attempted,
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }


def _unit(metric: str) -> str:
    if metric.endswith("_ms") or metric.startswith("latency_ms."):
        return "ms"
    return {
        "throughput_qps": "queries/s",
        "setup_s": "s",
        "peak_rss_mb": "MiB",
        "report.bytes": "bytes",
        "aggregate.kept_ratio": "fraction",
    }.get(metric, "count")


def run_workload(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    run = Run(root, workload, seed, seconds, trace)
    try:
        return run.execute()
    finally:
        run.stop_all()
        shutil.rmtree(run.work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    # On SIGTERM, unwind through run_workload so its processes are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    needed = [root / "src" / "dossier" / "__init__.py"]
    needed += [root / "tests" / "goldens" / golden for golden, _ in GOLDENS]
    missing = [str(path.relative_to(root)) for path in needed if not path.is_file()]
    if missing:
        print(f"not a dossier checkout (missing {', '.join(missing)}); run from its root",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {
            name: run_workload(root, name, args.seed, args.seconds, bool(args.trace))
            for name in names
        }
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(f"{'workload':<12} {'metric':<34} {'value':>12} unit")
        for name, result in results.items():
            for metric, entry in result["metrics"].items():
                print(f"{name:<12} {metric:<34} {entry['value']:>12.4f} {entry['unit']}")
            print(f"{name:<12} {'failed_ratio':<34} {result['failed'] / result['attempted']:>12.4f} "
                  f"fraction ({result['failed']} of {result['attempted']})")
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
