"""The six workloads.

Each workload object knows how to generate its inputs from the seed
(``prepare``), set the program up (``setup`` — timed by the caller, run
several times), run its closed loop for the given time (``run``) and say
what to verify (``oracle``).  The program is driven only through public
entry points; with tracing on, the harness calls the stages one by one —
as ``eval_xq`` and ``Repository.xq`` compose them — inside spans.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import re
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from repro.core.builder import build_result
from repro.core.context import EvalContext
from repro.core.engine import XQVXResult, eval_query
from repro.core.planner import match_estimate, member_can_match, plan_query
from repro.core.qgraph import compile_query
from repro.core.reduction import reduce_query
from repro.core.vdoc import VectorizedDocument
from repro.core.xpath.parser import parse_xpath
from repro.core.xquery.parser import parse_xq
from repro.datasets.synth import xmark_like_xml
from repro.repo import Repository
from repro.storage.vdocfile import open_vdoc, save_vdoc
from repro.xmldata import iterparse, serialize

import datasets
import queries
from loadgen import closed_loop, open_loop
from oracle import Checker, Oracle, xpath_answer
from tracing import Tracer

#: set-ups per run; ``setup_s`` is their median
SETUPS = 3
OPEN_RATE = 40.0       # req/s of the served open-loop phase
#: shares of --seconds of the served phases: one closed-loop client
#: (latency), SERVE_CLIENTS closed-loop clients (throughput), open loop
SERVE_PHASES = (0.25, 0.5, 0.25)
SERVE_CLIENTS = 2      # = nproc: one load process, <= nproc connections


@dataclass
class Env:
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    workdir: str
    src: str
    tracer: Tracer = field(default_factory=Tracer)


@dataclass
class RunResult:
    samples: list            # [(class, latency ms)] of successful ops
    attempted: int
    elapsed: float           # seconds the ops_s numerator was counted over
    checker: Checker
    peak_rss_mb: float
    info: dict = field(default_factory=dict)    # informational rows
    ops_done: int | None = None   # ops_s numerator (default: len(samples))


def busy_seconds(samples: list) -> float:
    """A single closed-loop client's time inside the program: the sum of
    its op latencies (input generation and answer checks excluded)."""
    return sum(ms for _, ms in samples) / 1e3


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_POOL_COUNTERS = ("pages_read", "hits", "misses", "evictions",
                  "read_retries", "logical_bytes", "physical_bytes",
                  "decoded_values")


def _pool_counters(pool):
    """Reads the pool's monotonic counters from outside the program."""
    def read() -> dict:
        stats = pool.stats
        return {k: getattr(stats, k) for k in _POOL_COUNTERS}
    return read


# -- staged evaluation (trace mode) ----------------------------------------

def staged_xq(tr: Tracer, repo: Repository, text: str, memo: dict,
              replay: bool = False) -> tuple[str, int]:
    """``Repository.xq(text).to_xml()`` with the harness calling every
    stage itself, one span each: parse+compile, catalog pruning and member
    ordering (the root span's self time — repository glue), then per
    member open / plan / reduce / build / serialize."""
    counters = _pool_counters(repo.pool)
    with tr.span("repo.repository", "glue", replay=replay) as root_span:
        with tr.span("core.xquery.parser+core.qgraph", "parse_compile",
                     replay=replay):
            xq = parse_xq(text)
            gq, gr = compile_query(xq)
        order = memo.get(text)
        if order is None:   # Repository memoizes this by query text too
            scored = []
            for pos, m in enumerate(repo.manifest["members"]):
                counts = {tuple(p): c for p, c in m["paths"]}
                if member_can_match(gq, list(counts)):
                    scored.append((match_estimate(gq, counts), pos,
                                   m["name"]))
            order = memo[text] = [name for _, _, name in sorted(scored)]
        frags: dict[str, str] = {}
        tuples = 0
        for name in order:
            with tr.span("storage.vdocfile", "open", counters, replay):
                vdoc = repo.member(name)
            ctx = EvalContext.for_doc(vdoc)
            with ctx.guard(vdoc):
                with tr.span("core.planner", "plan", counters,
                             replay) as s:
                    plan = plan_query(gq, vdoc)
                    for op in plan.ops:
                        if op.kind != "instantiate":
                            key = f"access_{op.access}"
                            s["counters"][key] = s["counters"].get(key, 0) + 1
                with tr.span("core.reduction", "reduce", counters,
                             replay) as s:
                    table = reduce_query(vdoc, gq, plan, ctx)
                    s["counters"]["combos"] = len(table.combos)
                    s["counters"]["rows_out"] = table.n_rows
                with tr.span("core.builder", "build", counters, replay):
                    out = build_result(vdoc, gr, table, ctx)
            with tr.span("core.reconstruct+xmldata.serializer", "serialize",
                         counters, replay) as s:
                frags[name] = XQVXResult(out, plan, table).fragment()
                s["counters"]["result_bytes"] = len(frags[name])
            tuples += table.n_rows
        inner = "".join(frags[n] for n in repo.members() if n in frags)
        tag = xq.root_tag
        xml = f"<{tag}>{inner}</{tag}>" if inner else f"<{tag}/>"
        root_span["counters"]["pruned"] = len(repo.members()) - len(order)
    return xml, tuples


def staged_xpath(tr: Tracer, repo: Repository, text: str,
                 replay: bool = False) -> tuple[str, None]:
    """``Repository.xpath`` member loop with spans (no member of these
    datasets is prunable for the XPath classes, so pruning is omitted)."""
    counters = _pool_counters(repo.pool)
    with tr.span("repo.repository", "glue", replay=replay):
        path = parse_xpath(text)
        counts = []
        for name in repo.members():
            with tr.span("storage.vdocfile", "open", counters, replay):
                vdoc = repo.member(name)
            with tr.span("core.xpath.vx_eval", "xpath", counters,
                         replay) as s:
                res = eval_query(vdoc, path)
                s["counters"]["paths_aligned"] = len(res.paths())
            counts.append((name, res.count()))
    return xpath_answer(counts), None


def plain(repo: Repository, op) -> tuple[str, int | None]:
    """The untraced operation: what a library user calls."""
    if op.kind == "xq":
        res = repo.xq(op.text)
        return res.to_xml(), res.n_tuples
    return xpath_answer((n, r.count()) for n, r in repo.xpath(op.text)), None


# -- repository query workloads --------------------------------------------

class RepoWorkload:
    """Closed-loop, single-client queries against one repository."""

    name = ""
    classes: tuple = ()
    index_even = False
    pool_pages: int | None = 4096
    resident = True      # one open repository vs. open-per-op (cold)
    naive_per_class = 3  # oracle self-checks against mode="naive"

    def members(self, env: Env) -> list[tuple[str, str]]:
        raise NotImplementedError

    def prepare(self, env: Env) -> dict:
        self.docs = self.members(env)
        self.xml_paths = datasets.write_inputs(
            os.path.join(env.workdir, "inputs"), self.docs)
        self.xml_bytes = sum(len(x.encode("utf-8")) for _, x in self.docs)
        pools = queries.param_pools(
            env.seed, datasets.scale(min(datasets.XMARK8_PEOPLE), env.smoke))
        self.ops = queries.cycle(self.classes, pools)
        self.pools = pools
        return {"inputs_sha256": datasets.inputs_hash(self.docs),
                "requests_sha256": queries.sequence_hash(self.ops),
                "xml_bytes": self.xml_bytes}

    def oracle(self, env: Env) -> Oracle:
        smallest = min(self.docs, key=lambda m: len(m[1]))[0]
        return Oracle(self.docs, smallest, self.naive_per_class)

    def open(self, repo_dir: str) -> Repository:
        return Repository.open(repo_dir, pool_pages=self.pool_pages)

    def setup(self, env: Env, attempt: int) -> dict:
        base = os.path.join(env.workdir, f"setup{attempt}")
        repo_dir = os.path.join(base, "repo")
        os.makedirs(base)
        datasets.build_repo_in_child(repo_dir, self.xml_paths,
                                     self.index_even)
        state = {"base": base, "repo_dir": repo_dir, "repo": None}
        if self.resident:
            # one untimed pass per class: columns and index segments
            # materialize on first touch
            repo = state["repo"] = self.open(repo_dir)
            for op in self.ops[:len(self.classes)]:
                plain(repo, op)
        else:
            with self.open(repo_dir) as repo:
                plain(repo, self.ops[0])
        return state

    def teardown(self, state: dict) -> list[str]:
        """Release the set-up; returns what was found wrong doing so."""
        if state["repo"] is not None:
            state["repo"].close()
        shutil.rmtree(state["base"], ignore_errors=True)
        return []

    def stored_ratio(self, state: dict) -> float:
        return datasets.dir_bytes(state["repo_dir"]) / self.xml_bytes

    # one operation, untraced / traced ------------------------------------

    def execute(self, state: dict, op):
        if self.resident:
            return plain(state["repo"], op)
        with self.open(state["repo_dir"]) as repo:
            out = plain(repo, op)
            state["pinned"] += repo.io_stats()["pinned"]
        return out

    def execute_traced(self, tr: Tracer, state: dict, op):
        def staged(repo, replay=False):
            if op.kind == "xq":
                return staged_xq(tr, repo, op.text, state["memo"], replay)
            return staged_xpath(tr, repo, op.text, replay)

        if self.resident:
            return staged(state["repo"])
        state["memo"] = {}   # a fresh Repository has an empty plan memo
        with tr.span("harness", "op"):
            with tr.span("repo.repository", "repo_open"):
                repo = self.open(state["repo_dir"])
            try:
                out = staged(repo)
                # storage + decode hide inside the stages (columns
                # materialize on first scan): replay the same stages at
                # once on the same open repository; cold - replay is theirs
                state["replay_s"] -= time.perf_counter()
                replayed = staged(repo, replay=True)
                state["replay_s"] += time.perf_counter()
                if replayed != out:
                    raise AssertionError("warm replay changed the answer")
                state["pinned"] += repo.io_stats()["pinned"]
            finally:
                with tr.span("repo.repository", "repo_close"):
                    repo.close()
        return out

    def run(self, env: Env, state: dict) -> RunResult:
        checker = Checker()
        state.update(memo={}, replay_s=0.0, pinned=0)
        ops = itertools.cycle(self.ops)
        info: dict = {}
        if self.resident:
            # set-up touched each class once; a few vectors are only read
            # by particular parameters (a region's names when an item
            # there matches), so run every distinct op once, untimed, and
            # the timed window is exactly zero-I/O
            for op in dict.fromkeys(self.ops):
                plain(state["repo"], op)
                if env.trace:   # fills the staged path's plan memo alike
                    self.execute_traced(Tracer(), state, op)
            reads_before = state["repo"].io_stats()["pool_pages_read"]
        if not env.trace:
            samples, attempted, _ = closed_loop(
                ops, env.seconds, lambda op: self.execute(state, op), checker)
        else:
            # every op runs twice, untraced then staged, so the two walls
            # (and hence the tracing overhead) are over the same sequence
            plain_ms: list[float] = []

            def both(op):
                t0 = time.perf_counter()
                self.execute(state, op)
                plain_ms.append((time.perf_counter() - t0) * 1e3)
                state["replay_s"] = 0.0
                t0 = time.perf_counter()
                out = self.execute_traced(env.tracer, state, op)
                traced_ms.append((time.perf_counter() - t0
                                  - state["replay_s"]) * 1e3)
                return out

            traced_ms: list[float] = []
            samples, attempted, _ = closed_loop(
                ops, env.seconds, both, checker)
            info.update(untraced_ms=sum(plain_ms), traced_ms=sum(traced_ms),
                        traced_ops=len(traced_ms))
        rss = self_rss_mb()
        if self.resident:
            stats = state["repo"].io_stats()
            state["pinned"] += stats["pinned"]
            info["pool_pages_read_in_run"] = \
                stats["pool_pages_read"] - reads_before
        if state["pinned"]:
            checker.failed += 1
            checker.errors.append(f"{state['pinned']} leaked pin(s)")
        info["repo_bytes"] = datasets.dir_bytes(state["repo_dir"])
        return RunResult(samples, attempted, busy_seconds(samples), checker,
                         rss, info)


class Xmark8Workload(RepoWorkload):
    index_even = True    # odd members: plain add, the unindexed default

    def members(self, env):
        return datasets.xmark_members(env.seed, datasets.XMARK8_PEOPLE,
                                      env.smoke)


class ColdQuery(Xmark8Workload):
    name = "cold_query"
    classes = queries.COLD_CLASSES
    pool_pages = 128     # ~10 % of the repository's pages
    resident = False


class WarmSelect(Xmark8Workload):
    name = "warm_select"
    classes = queries.SELECT_CLASSES
    pool_pages = 4096    # everything fits


class WarmJoin(RepoWorkload):
    name = "warm_join"
    classes = queries.JOIN_CLASSES
    # the naive nested-loop join takes 0.7-2 s per query even on a
    # 400-person member: the tier-1 tests own that comparison
    naive_per_class = 0

    def members(self, env):
        return datasets.xmark_members(env.seed, datasets.JOINS4_PEOPLE,
                                      env.smoke, offset=200)


class DeepTree(RepoWorkload):
    name = "deep_tree"
    classes = queries.DEEP_CLASSES
    pool_pages = None    # unbounded: ~9k pages, one chain per vector

    def members(self, env):
        return datasets.deep_members(env.seed, env.smoke)


# -- ingest -----------------------------------------------------------------

@dataclass(frozen=True)
class IngestOp:
    cls: str
    name: str
    path: str
    text: str = ""


class Ingest:
    """The write path: add a document, persist its value indexes, export
    it again and byte-compare with the source — one op per document."""

    name = "ingest"

    def prepare(self, env: Env) -> dict:
        self.people = datasets.scale(datasets.INGEST_PEOPLE, env.smoke)
        self.inputs = os.path.join(env.workdir, "inputs")
        os.makedirs(self.inputs)
        first = self._doc(env, 0)
        return {"inputs_sha256": datasets.inputs_hash([(first.name,
                                                        first.text)]),
                "requests_sha256": "n/a (one op per generated document)",
                "xml_bytes_per_doc": len(first.text.encode("utf-8"))}

    def _doc(self, env: Env, i: int) -> IngestOp:
        """Generate document ``i`` of the seed's stream and write it where
        the program will read it (harness work, outside every timing)."""
        xml = xmark_like_xml(self.people,
                             seed=datasets.member_seed(env.seed, 100 + i))
        name = f"doc{i}"
        path = os.path.join(self.inputs, f"{name}.xml")
        with open(path, "w", encoding="utf-8") as f:
            f.write(xml)
        return IngestOp("ingest", name, path, xml)

    def docs(self, env: Env):
        for i in itertools.count(1):
            yield self._doc(env, i)

    def oracle(self, env: Env):
        return None   # every op byte-compares its own export

    def setup(self, env: Env, attempt: int) -> dict:
        """A repository already holding one document (added, indexed and
        exported like any other), so the timed adds go to a live
        repository and first-call costs are paid here."""
        base = os.path.join(env.workdir, f"setup{attempt}")
        repo = Repository.init(os.path.join(base, "repo"), datasets.COLLECTION)
        state = {"base": base, "repo": repo, "bytes_in": 0, "stages": {}}
        self.execute(state, self._doc(env, 0))
        return state

    def teardown(self, state: dict) -> list[str]:
        state["repo"].close()
        shutil.rmtree(state["base"], ignore_errors=True)
        return []

    def stored_ratio(self, state: dict) -> float:
        return datasets.dir_bytes(state["repo"].dirpath) / state["bytes_in"]

    @staticmethod
    def _member_file(repo: Repository, name: str) -> str:
        return os.path.join(repo.dirpath, f"{name}.vdoc")

    def execute(self, state: dict, op: IngestOp):
        repo = state["repo"]
        stages = state["stages"]
        t0 = time.perf_counter()
        repo.add(op.path, name=op.name)
        t1 = time.perf_counter()
        member = self._member_file(repo, op.name)
        with open_vdoc(member) as vdoc:   # as `repro-xq index build` does
            save_vdoc(vdoc, member, page_size=vdoc.file.page_size,
                      index_paths="all")
        t2 = time.perf_counter()
        with open_vdoc(member) as vdoc:   # as `repro-xq reconstruct` does
            exported = vdoc.to_xml()
        t3 = time.perf_counter()
        for key, dt in (("add_s", t1 - t0), ("index_s", t2 - t1),
                        ("export_s", t3 - t2)):
            stages[key] = stages.get(key, 0.0) + dt
        state["bytes_in"] += len(op.text.encode("utf-8"))
        return exported, None

    def execute_traced(self, tr: Tracer, state: dict, op: IngestOp):
        repo = state["repo"]
        staged = os.path.join(state["base"], f".{op.name}.staged.vdoc")
        member = self._member_file(repo, op.name)
        with tr.span("harness", "op"):
            with open(op.path, "r", encoding="utf-8") as f:
                text = f.read()
            with tr.span("xmldata.parser", "parse"):
                events = list(iterparse(text))
            with tr.span("core.vectorize", "vectorize") as s:
                vdoc = VectorizedDocument.from_events(iter(events))
                s["counters"].update(vdoc.stats())
            del events
            with tr.span("storage.codecs+storage.vdocfile", "save") as s:
                summary = vdoc.save(staged)
                s["counters"].update(
                    {f"saved_{k}": summary[k]
                     for k in ("pages", "logical_bytes", "physical_bytes")})
                s["counters"].update(
                    {f"codec_{k}": v for k, v in summary["codecs"].items()})
            with tr.span("repo.repository", "repo_add"):
                repo.add(staged, name=op.name)
            os.unlink(staged)
            with tr.span("index", "index_build") as s:
                with open_vdoc(member) as disk:
                    summary = save_vdoc(disk, member,
                                        page_size=disk.file.page_size,
                                        index_paths="all")
                s["counters"]["index_pages"] = summary["index_pages"]
            with open_vdoc(member) as disk:
                with tr.span("core.reconstruct", "export_tree",
                             _pool_counters(disk.pool)):
                    tree = disk.to_tree()
                with tr.span("xmldata.serializer", "export_serialize") as s:
                    exported = serialize(tree)
                    s["counters"]["result_bytes"] = len(exported)
        state["bytes_in"] += len(op.text.encode("utf-8"))
        return exported, None

    def run(self, env: Env, state: dict) -> RunResult:
        checker = IngestChecker()
        state["stages"] = {}
        bytes_before = state["bytes_in"]
        info: dict = {}
        if not env.trace:
            execute = lambda op: self.execute(state, op)   # noqa: E731
        else:
            # a document can be added once, so untraced and staged ops
            # alternate over the stream; their mean walls give the overhead
            walls = {False: [], True: []}

            def execute(op):
                staged = len(walls[True]) < len(walls[False])
                t0 = time.perf_counter()
                out = self.execute_traced(env.tracer, state, op) if staged \
                    else self.execute(state, op)
                walls[staged].append((time.perf_counter() - t0) * 1e3)
                return out

        samples, attempted, _ = closed_loop(
            self.docs(env), env.seconds, execute, checker)
        rss = self_rss_mb()
        if env.trace and walls[True]:
            n = len(walls[True])
            info.update(traced_ops=n, traced_ms=sum(walls[True]),
                        untraced_ms=sum(walls[False][:n]))
        repo = state["repo"]
        # the repository as a whole answers for every document it took
        want = xpath_answer((n, self.people) for n in repo.members())
        got = xpath_answer((n, r.count())
                           for n, r in repo.xpath("/site/people/person"))
        if got != want or repo.io_stats()["pinned"]:
            checker.failed += 1
            checker.errors.append("repository census / pins wrong")
        mb = (state["bytes_in"] - bytes_before) / 1e6
        info.update(xml_mb_ingested=mb,
                    repo_bytes=datasets.dir_bytes(repo.dirpath))
        st = state["stages"]
        if st and not env.trace:
            info["ingest_mb_s"] = mb / (st["add_s"] + st["index_s"])
            info["export_mb_s"] = mb / st["export_s"]
            info.update({k.replace("_s", "_ms_per_doc"):
                         v * 1e3 / max(1, len(samples))
                         for k, v in st.items()})
        return RunResult(samples, attempted, busy_seconds(samples), checker,
                         rss, info)


class IngestChecker(Checker):
    """An ingest op is right when its export equals its source bytes."""

    def note(self, op, answer, tuples=None):
        if answer != op.text:
            self.fail(op, "export differs from source")

    def fail(self, op, why):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{op.cls} {op.name}: {why}")


# -- served ------------------------------------------------------------------

class Client:
    """One keep-alive HTTP connection."""

    def __init__(self, host: str, port: int):
        self.conn = http.client.HTTPConnection(host, port, timeout=30)
        self.conn.connect()
        # headers and body go out as separate segments; with Nagle on,
        # back-to-back requests stall ~40 ms on the peer's delayed ACK
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def send(self, op) -> tuple[bytes, str | None]:
        """POST one query; ``(body, X-Tuples)``, raising on a non-200."""
        self.conn.request("POST", "/" + op.kind,
                          body=op.text.encode("utf-8"))
        resp = self.conn.getresponse()
        body = resp.read()
        if resp.status != 200:
            raise RuntimeError(f"HTTP {resp.status}: {body[:120]!r}")
        return body, resp.getheader("X-Tuples")

    def get_json(self, path: str) -> dict:
        self.conn.request("GET", path)
        return json.loads(self.conn.getresponse().read())

    def close(self) -> None:
        self.conn.close()


class ServeMixed(Xmark8Workload):
    """`repro-xq serve` in a subprocess under a mixed hot/cold stream."""

    name = "serve_mixed"
    classes = queries.SELECT_CLASSES
    pool_pages = 1024

    def prepare(self, env: Env) -> dict:
        out = super().prepare(env)
        stream = queries.serve_requests(env.seed, 0, self.pools)
        out["requests_sha256"] = queries.sequence_hash(
            itertools.islice(stream, 500))
        return out

    def setup(self, env: Env, attempt: int) -> dict:
        base = os.path.join(env.workdir, f"setup{attempt}")
        repo_dir = os.path.join(base, "repo")
        os.makedirs(base)
        datasets.build_repo_in_child(repo_dir, self.xml_paths, True)
        state = {"base": base, "repo_dir": repo_dir, "repo": None,
                 "clients": []}
        proc = state["proc"] = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", repo_dir,
             "--port", "0", "--pool", str(self.pool_pages)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": env.src})
        try:
            self._pin(proc.pid)
            line = proc.stdout.readline()
            m = re.search(r"http://([\d.]+):(\d+)", line)
            if not m:
                raise RuntimeError(f"no address in startup line: {line!r}")
            state["clients"] = [Client(m.group(1), int(m.group(2)))
                                for _ in range(SERVE_CLIENTS)]
            for op in self._warm_ops():
                state["clients"][0].send(op)
        except BaseException:
            self.teardown(state)
            raise
        return state

    def _warm_ops(self) -> list:
        """Every hot query and ``/xpath`` parameter once: the result
        cache starts the run holding what it will hit."""
        return queries.hot_set(self.pools) + [
            queries.make_op("xpath", k) for k in self.pools["xpath"]]

    @staticmethod
    def _pin(server_pid: int) -> None:
        """Keep the load generator on one core and the server on the
        others.  Left to the scheduler, client and server sometimes share
        a core and sometimes not, and a sub-millisecond round trip reads
        0.58 or 0.74 ms accordingly — a two-valued run-to-run noise."""
        cores = sorted(os.sched_getaffinity(0))
        if len(cores) >= 2:
            os.sched_setaffinity(0, cores[:1])
            os.sched_setaffinity(server_pid, cores[1:])

    def teardown(self, state: dict) -> list[str]:
        """SIGTERM the server and wait for it: a clean exit is its proof
        of zero pinned pages over the whole session."""
        for cli in state["clients"]:
            cli.close()
        proc = state["proc"]
        problems = []
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            _, err = proc.communicate(timeout=30)
            m = re.search(r"serve: final stats (.*)", err)
            final = json.loads(m.group(1)) if m else None
            if proc.returncode != 0 or final is None or final["pin_leaks"] \
                    or final["pool"]["pinned"]:
                problems.append(f"server shutdown unclean (exit "
                                f"{proc.returncode}): {err[-300:]}")
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            problems.append("server ignored SIGTERM for 30 s")
        shutil.rmtree(state["base"], ignore_errors=True)
        return problems

    def _server_rss_mb(self, state: dict) -> float:
        with open(f"/proc/{state['proc'].pid}/status") as f:
            return int(re.search(r"VmHWM:\s+(\d+) kB", f.read()).group(1)) \
                / 1024.0

    def run(self, env: Env, state: dict) -> RunResult:
        checker = Checker()
        clients = state["clients"]
        before = clients[0].get_json("/stats")
        info: dict = {}
        if env.trace:
            samples, attempted, elapsed = self._run_traced(
                env, state, checker, info)
            ops_done = None
        else:
            samples, attempted, elapsed, ops_done = self._run_load(
                env, state, checker, info)
        after = clients[0].get_json("/stats")
        rss = self._server_rss_mb(state)
        cache_b, cache_a = before["result_cache"], after["result_cache"]
        hits = cache_a["hits"] - cache_b["hits"]
        misses = cache_a["misses"] - cache_b["misses"]
        info.update({
            "cache_hits": hits, "cache_misses": misses,
            "cache_hit_rate": hits / max(1, hits + misses),
            "cache_evictions": cache_a["evictions"] - cache_b["evictions"],
            "cache_bytes": cache_a["bytes"],
            "http_503": after["overloads"] + after["pool_exhausted"],
            "rejected": after["admission"]["rejected_queue_full"]
            + after["admission"]["rejected_timeout"],
            "pool_pages_read": after["pool"]["pages_read"]
            - before["pool"]["pages_read"],
            "pool_hit_rate": after["pool"]["hit_rate"],
            "server_p50_ms": after["endpoints"]["/xq"]["p50_ms"],
            "server_p99_ms": after["endpoints"]["/xq"]["p99_ms"],
            "repo_bytes": datasets.dir_bytes(state["repo_dir"]),
        })
        if after["pin_leaks"] or after["pool"]["pinned"]:
            checker.failed += 1
            checker.errors.append("server reports leaked pins")
        return RunResult(samples, attempted, elapsed, checker, rss, info,
                         ops_done)

    def _run_load(self, env, state, checker, info):
        """Three phases over the same keep-alive connections.  A: one
        closed-loop client, zero think — request latency without another
        request competing for the interpreter lock (``p50_ms``).  B:
        SERVE_CLIENTS closed-loop clients — saturation throughput
        (``ops_s``; its latencies are Little's law of that, so they are
        only printed).  C: open loop at OPEN_RATE, latency from the
        intended send time (informational)."""
        clients = state["clients"]
        shares = [env.seconds * share for share in SERVE_PHASES]
        solo = _Deferred()
        samples, attempted, _ = closed_loop(
            queries.serve_requests(env.seed, 0, self.pools), shares[0],
            clients[0].send, solo)
        solo.settle(checker)

        results: list = [None] * len(clients)
        deferred = [_Deferred() for _ in clients]

        def worker(idx: int) -> None:
            results[idx] = closed_loop(
                queries.serve_requests(env.seed, 1 + idx, self.pools),
                shares[1], clients[idx].send, deferred[idx])

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(clients))]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
        saturated = [s for r in results for s in r[0]]
        info["saturated_p50_ms"] = statistics.median(
            ms for _, ms in saturated)

        phase_c = open_loop(
            queries.serve_requests(env.seed, 1 + len(clients), self.pools),
            OPEN_RATE, shares[2],
            [(c.send, d) for c, d in zip(clients, deferred)])
        for d in deferred:
            d.settle(checker)
        info["open_loop"] = phase_c
        attempted += sum(r[1] for r in results) + phase_c["scheduled"]
        return samples, attempted, elapsed, len(saturated)

    def _run_traced(self, env, state, checker, info):
        """One client; each request is also evaluated in-process on a
        repository with the same pool and result cache, so the served
        layer's share is client RTT minus that."""
        tr = env.tracer
        send = state["clients"][0].send
        inproc = Repository.open(state["repo_dir"],
                                 pool_pages=self.pool_pages,
                                 result_cache_bytes=64 << 20)
        sink = _Deferred()
        try:
            for op in self._warm_ops():
                plain(inproc, op)    # warm exactly as the server was

            def both(op):
                with tr.span("serve.server", "request"):
                    out = send(op)
                with tr.span("repo.repository+repo.rescache", "inproc"):
                    if op.kind == "xq":
                        body = inproc.xq(op.text).to_xml() + "\n"
                    else:
                        body = xpath_answer(
                            (n, r.count()) for n, r in inproc.xpath(op.text))
                if body.encode("utf-8") != out[0]:
                    raise AssertionError("served != in-process")
                return out

            out = closed_loop(
                queries.serve_requests(env.seed, 0, self.pools),
                env.seconds, both, sink)
        finally:
            inproc.close()
        sink.settle(checker)
        # the server itself runs untraced: the spans only wrap the client
        rtt = sum(s["t1"] - s["t0"] for s in tr.spans
                  if s["name"] == "request") * 1e3
        info.update(traced_ops=out[1], traced_ms=rtt, untraced_ms=rtt)
        return out


class _Deferred:
    """Keeps a client's responses and checks them after its phase, so no
    checking runs between the requests of a closed loop (it would hold the
    load generator's interpreter lock against the other client)."""

    def __init__(self):
        self.noted: list = []
        self.failures: list = []

    def note(self, op, body: bytes, tuples: str | None) -> None:
        self.noted.append((op, body, tuples))

    def fail(self, op, why: str) -> None:
        self.failures.append((op, why))

    def settle(self, checker: Checker) -> None:
        for op, why in self.failures:
            checker.fail(op, why)
        for op, body, tuples in self.noted:
            text = body.decode("utf-8")
            if op.kind == "xq":    # the CLI prints to_xml() plus a newline
                checker.note(op, text[:-1], int(tuples))
            else:
                checker.note(op, text, None)


WORKLOADS = {w.name: w for w in (Ingest, ColdQuery, WarmSelect, WarmJoin,
                                 ServeMixed, DeepTree)}
