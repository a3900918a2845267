"""Repositories: named collections of ``.vdoc`` documents, queried as one.

A repository is a directory::

    myrepo/
      repo.json     <- manifest + persisted path catalog
      a.vdoc        <- member documents (checksummed page files)
      b.vdoc

``repo.json`` carries the manifest — format tag, collection name, members
in add order — and the **path catalog**: for every member, each concrete
label path of its dataguide with its occurrence count, recorded at
``add`` time.  The catalog is the repository-level dataguide (the path
summary of Arion et al.): planners and tools can see which members
contain which paths, and how often, without opening a single page file.
The manifest is rewritten atomically (temp file + ``os.replace`` + dir
fsync), mirroring ``save_vdoc``'s crash contract.

All members are opened lazily over **one shared buffer pool**, so
eviction pressure, I/O statistics and pin accounting are global across
the collection — ``Repository.io_stats()`` reports per-member and
pool-wide counters, and the engine's zero-leaked-pins assertion holds
pool-wide.  ``xq`` evaluates a (possibly ``collection("name")``-sourced)
XQ query member at a time with a per-member plan, concatenating results
in (member, document-order) order; a storage failure in one member
surfaces as a :class:`StorageError` naming that member and leaves the
pool clean, so sibling members stay queryable.  The failing member is
additionally **quarantined** (:mod:`repro.repo.quarantine`): subsequent
queries skip it — degraded, flagged, but serving — until a supervised
deep fsck finds the file healthy and reinstates it, so an on-disk repair
heals the collection without reopening the repository.

Concurrent requests (``repro.serve``) may evaluate the **same member at
the same time**: per-query accounting lives in each request's
:class:`~repro.core.context.EvalContext` (not on the shared document),
lazy column/index materialization is internally locked, a member's
skeleton store is read-only after open, and the buffer pool is
concurrency-safe — so the repository needs no per-member evaluation
lock, and the engine's invariants (scan-once, bounded physical I/O, zero
leaked pins) are still asserted per request.  An optional byte-bounded LRU **result cache**
(:class:`~repro.repo.rescache.ResultCache`) short-circuits repeat
queries per member, keyed on the member file's identity (name, mtime,
size) + normalized query text + evaluation flags, and is cleared on
``add`` — responses assembled from cache hits are byte-identical to
evaluated ones (fragment splicing, see :meth:`RepoXQResult.to_xml`).

The catalog is also the repository's **pruning** structure: before a
member is opened, its cataloged path list is checked against the query
graph (:func:`repro.core.planner.bind_query`, once per member) — a member
holding no concrete path for some variable, or no text path for some
comparison operand, cannot contribute a tuple, so it is skipped with
*zero* page I/O (the skip list is reported on the result).  Surviving
members are evaluated most-selective-first (the same binding's estimate
over the cataloged occurrence counts) so small members warm the shared
pool before large ones; results are reassembled in manifest member
order, byte-identical to the unpruned evaluation.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import tempfile
import threading

from ..core.context import EvalContext
from ..core.engine import eval_query, eval_xq
from ..core.paths import Dataguide
from ..core.planner import bind_query
from ..core.qgraph import compile_query
from ..core.vdoc import VectorizedDocument
from ..core.xpath.ast import Path
from ..core.xpath.parser import parse_xpath
from ..core.xpath.vx_eval import VXResult
from ..core.xquery.ast import XQuery
from ..core.xquery.parser import parse_xq
from ..errors import (
    PoolExhaustedError,
    ReproError,
    StorageError,
    XQCompileError,
)
from ..storage.buffer import BufferPool
from ..storage.vdocfile import open_vdoc
from .quarantine import QuarantineRegistry, QuarantineSupervisor
from .rescache import ResultCache

MANIFEST = "repo.json"
REPO_FORMAT = 1

#: member names are safe slugs: filesystem-inert (no separators, no
#: traversal, no leading dot) and header-inert (no comma/CR/LF, so the
#: ``X-Pruned`` response header built by joining names stays well-formed)
MEMBER_NAME_RE = re.compile(r"^[A-Za-z0-9_\-][A-Za-z0-9._\-]*$")


class RepositoryError(ReproError):
    """Repository-level misuse or a malformed repository directory."""


def check_member_name(name) -> str:
    """Validate a member name against the safe slug; returns it.

    Rejecting at the membership boundary is what makes every downstream
    use safe: ``{name}.vdoc`` can never escape the repository directory
    (``name='../evil'`` was a path traversal), and names can never
    corrupt the comma-joined ``X-Pruned`` HTTP header or its CR/LF
    framing."""
    if not isinstance(name, str) or not MEMBER_NAME_RE.match(name):
        raise RepositoryError(
            f"invalid member name {name!r}: names must match "
            f"[A-Za-z0-9._-]+ and not start with '.'")
    return name


def member_paths(vdoc: VectorizedDocument) -> list[tuple[tuple, int]]:
    """The path-catalog entry of one document: every concrete label path of
    its dataguide with its occurrence count (skeleton statistics only — no
    data vector is touched)."""
    guide = vdoc.catalog.guide
    return [(p, guide[p]) for p in guide.paths]


def _member_guide(m: dict) -> Dataguide:
    """The counted :class:`Dataguide` of one (checked) manifest member
    entry: what pruning and member ordering resolve queries against."""
    return Dataguide({tuple(p): c for p, c in m["paths"]})


def _is_count(value) -> bool:
    """A non-negative JSON integer — ``true``/``false`` are not counts,
    though Python's ``bool`` is an ``int``."""
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


def _check_manifest(raw) -> dict:
    """Validate ``repo.json`` against the strict schema; returns it."""
    def bad(msg: str) -> RepositoryError:
        return RepositoryError(f"invalid repository manifest: {msg}")

    if not isinstance(raw, dict):
        raise bad("not a JSON object")
    if raw.get("format") != REPO_FORMAT:
        raise bad(f"unsupported format {raw.get('format')!r} "
                  f"(expected {REPO_FORMAT})")
    if not isinstance(raw.get("name"), str) or not raw["name"]:
        raise bad("missing collection name")
    members = raw.get("members")
    if not isinstance(members, list):
        raise bad("members is not a list")
    seen: set[str] = set()
    for m in members:
        if not isinstance(m, dict):
            raise bad("member entry is not an object")
        name, file = m.get("name"), m.get("file")
        if not isinstance(name, str) or not name:
            raise bad("member without a name")
        if not MEMBER_NAME_RE.match(name):
            raise bad(f"member name {name!r} is not a safe slug")
        if name in seen:
            raise bad(f"duplicate member {name!r}")
        seen.add(name)
        if not isinstance(file, str) or not file or os.sep in file \
                or (os.altsep and os.altsep in file) or file.startswith("."):
            raise bad(f"member {name!r}: bad file entry {file!r}")
        paths = m.get("paths")
        if not isinstance(paths, list):
            raise bad(f"member {name!r}: paths is not a list")
        prev = None
        for entry in paths:
            if (not isinstance(entry, list) or len(entry) != 2
                    or not isinstance(entry[0], list)
                    or not all(isinstance(c, str) for c in entry[0])
                    or not _is_count(entry[1])):
                raise bad(f"member {name!r}: bad path entry {entry!r}")
            # pruning bisects this list: paths strictly increasing
            if not entry[0] or (prev is not None and entry[0] <= prev):
                raise bad(f"member {name!r}: path entry {entry!r} is "
                          f"empty, duplicated or out of order")
            prev = entry[0]
        comp = m.get("compression")
        if (not isinstance(comp, dict)
                or not _is_count(comp.get("logical_bytes"))
                or not _is_count(comp.get("physical_bytes"))
                or not isinstance(comp.get("codecs"), dict)
                or not all(isinstance(k, str) and _is_count(v)
                           for k, v in comp["codecs"].items())):
            raise bad(f"member {name!r}: bad compression entry {comp!r}")
    return raw


class CachedXQMember:
    """A result-cache hit standing in for an evaluated member result:
    carries exactly what response assembly needs — the serialized
    fragment and the tuple count."""

    __slots__ = ("_fragment", "n_tuples")

    def __init__(self, fragment: str, n_tuples: int):
        self._fragment = fragment
        self.n_tuples = n_tuples

    def fragment(self) -> str:
        return self._fragment


class CachedCount:
    """A cached per-member XPath count, quacking like ``VXResult`` for
    the reporting surface the service uses."""

    __slots__ = ("_count",)

    def __init__(self, count: int):
        self._count = count

    def count(self) -> int:
        return self._count


class RepoXQResult:
    """A collection query's result: per-member results concatenated in
    (member, document-order) order under one result root.  ``pruned``
    names the members skipped by catalog pruning (proved empty without
    any page I/O)."""

    def __init__(self, root_tag: str, results: list[tuple[str, object]],
                 pruned: list[str] | None = None,
                 quarantined: list[str] | None = None):
        self.root_tag = root_tag
        #: [(member name, XQVXResult | CachedXQMember)]
        self.results = results
        self.pruned = pruned or []       # member names skipped via catalog
        #: member names skipped because they were quarantined at
        #: evaluation time — a *degraded* (not byte-complete) response
        self.quarantined = quarantined or []
        self.n_tuples = sum(r.n_tuples for _, r in results)

    def to_xml(self) -> str:
        # assembled from per-member *fragments* (an evaluated member
        # writes its own small result from its DAG; a cache hit is already
        # a fragment) spliced under one shared root in member order —
        # byte-identical to serializing the assembled tree, because
        # serialization of an element is its start tag + the
        # concatenation of its children's serializations + its end tag
        inner = "".join(r.fragment() for _, r in self.results)
        if not inner:
            return f"<{self.root_tag}/>"
        return f"<{self.root_tag}>{inner}</{self.root_tag}>"


class Repository:
    """An open repository: manifest + one shared buffer pool."""

    def __init__(self, dirpath: str, manifest: dict, pool: BufferPool,
                 result_cache_bytes: int | None = None):
        self.dirpath = dirpath
        self.manifest = manifest
        self.pool = pool
        #: member name -> its cataloged dataguide, in manifest order
        self._guides = {m["name"]: _member_guide(m)
                        for m in manifest["members"]}
        self._open: dict[str, object] = {}    # name -> opened VectorizedDocument
        # Concurrency (repro.serve): any number of requests may evaluate
        # the *same* member at once — per-query accounting (scan counts,
        # physical-I/O windows) lives in each request's EvalContext, lazy
        # column/index materialization is internally locked, and a
        # member's NodeStore is read-only after open — so there is no
        # per-member evaluation lock.  ``_open_lock`` protects only the
        # open-document table; the open I/O itself runs outside it behind
        # a per-member opening latch, so one slow open never blocks opens
        # (or lookups) of other members.
        self._open_lock = threading.Lock()
        self._opening: dict[str, threading.Event] = {}
        #: cross-request result cache (None = disabled, the library
        #: default; the query service enables it)
        self.result_cache = (ResultCache(result_cache_bytes)
                             if result_cache_bytes else None)
        # Fault tolerance (see repro.repo.quarantine): members whose
        # evaluation died with a StorageError are quarantined — later
        # queries skip them instead of re-tripping the same damage — and
        # a supervisor (started by the service via start_supervisor())
        # re-verifies and reinstates them when the file heals.  The open
        # document of a quarantined member is *retired*, not closed: a
        # concurrent request may still be reading through it, so it stays
        # open (read-only) until the repository closes; reinstatement
        # reopens the file fresh.
        self.quarantine = QuarantineRegistry()
        self._retired: list = []
        self._supervisor: QuarantineSupervisor | None = None
        # planning memo: query text -> catalog-pruning decision.  Pruning
        # is pure manifest math, so it is cacheable for any repeated query
        # regardless of the result cache — and it otherwise dominates the
        # result cache's hit path.  Cleared whenever membership changes.
        self._plan_memo: dict[tuple, object] = {}

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def init(cls, dirpath: str, name: str,
             pool_pages: int | None = None) -> "Repository":
        """Create an empty repository at ``dirpath`` (which may exist but
        must not already hold a manifest)."""
        os.makedirs(dirpath, exist_ok=True)
        mpath = os.path.join(dirpath, MANIFEST)
        if os.path.exists(mpath):
            raise RepositoryError(f"{dirpath}: already a repository")
        manifest = {"format": REPO_FORMAT, "name": name, "members": []}
        repo = cls(dirpath, manifest,
                   BufferPool(capacity=pool_pages))
        repo._write_manifest()
        return repo

    @classmethod
    def open(cls, dirpath: str, pool_pages: int | None = None,
             result_cache_bytes: int | None = None) -> "Repository":
        mpath = os.path.join(dirpath, MANIFEST)
        if not os.path.isfile(mpath):
            raise RepositoryError(f"{dirpath}: not a repository "
                                  f"(no {MANIFEST})")
        try:
            with open(mpath, "r", encoding="utf-8") as f:
                raw = json.load(f)
        except (ValueError, UnicodeDecodeError) as exc:
            raise RepositoryError(
                f"invalid repository manifest: not JSON ({exc})") from exc
        manifest = _check_manifest(raw)
        return cls(dirpath, manifest,
                   BufferPool(capacity=pool_pages),
                   result_cache_bytes=result_cache_bytes)

    def close(self) -> None:
        self.stop_supervisor()
        with self._open_lock:
            docs = list(self._open.values()) + self._retired
            self._open.clear()
            self._retired = []
        for vdoc in docs:
            vdoc.close()

    def __enter__(self) -> "Repository":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- manifest / catalog ------------------------------------------------

    @property
    def name(self) -> str:
        return self.manifest["name"]

    def members(self) -> list[str]:
        return [m["name"] for m in self.manifest["members"]]

    def _entry(self, name: str) -> dict:
        for m in self.manifest["members"]:
            if m["name"] == name:
                return m
        raise RepositoryError(f"no member {name!r} in repository "
                              f"{self.name!r}")

    def catalog_paths(self) -> dict[tuple, dict[str, int]]:
        """The repository dataguide from the persisted catalog: concrete
        label path -> per-member occurrence counts (no page file opened)."""
        out: dict[tuple, dict[str, int]] = {}
        for m in self.manifest["members"]:
            for path, count in m["paths"]:
                out.setdefault(tuple(path), {})[m["name"]] = count
        return out

    def _write_manifest(self) -> None:
        """Atomic durable manifest rewrite (same contract as save_vdoc)."""
        mpath = os.path.join(self.dirpath, MANIFEST)
        fd, tmp = tempfile.mkstemp(dir=self.dirpath, prefix=".repo-",
                                   suffix=".json.tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                json.dump(self.manifest, f, indent=1)
                f.write("\n")
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, mpath)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        dfd = os.open(self.dirpath, os.O_RDONLY)
        try:
            os.fsync(dfd)
        finally:
            os.close(dfd)

    # -- membership --------------------------------------------------------

    def add(self, src: str, name: str | None = None,
            page_size: int | None = None) -> str:
        """Add a document: ``src`` is an XML file (vectorized and saved
        into the repository) or an existing ``.vdoc`` (copied in).  The
        member's path-catalog entry is built here, at add time."""
        from ..storage.disk import PageFile

        if name is None:
            name = os.path.splitext(os.path.basename(src))[0]
        check_member_name(name)
        if any(m["name"] == name for m in self.manifest["members"]):
            raise RepositoryError(f"member {name!r} already exists")
        file = f"{name}.vdoc"
        dest = os.path.join(self.dirpath, file)
        if os.path.exists(dest):
            raise RepositoryError(f"{dest}: already exists")
        if PageFile.is_page_file(src):
            shutil.copyfile(src, dest)
        else:
            with open(src, "r", encoding="utf-8") as f:
                vdoc = VectorizedDocument.from_xml(f.read())
            vdoc.save(dest, page_size=page_size)
        # catalog the member through a private pool: validates the file and
        # reads only catalog + skeleton pages (no data vector is touched)
        try:
            with open_vdoc(dest) as disk_doc:
                paths = member_paths(disk_doc)
                comp = disk_doc.compression_stats()
        except StorageError:
            os.unlink(dest)
            raise
        entry = {
            "name": name, "file": file,
            "paths": [[list(p), c] for p, c in paths],
            # what `repo ls` prints without opening a single page file
            "compression": {k: comp[k] for k in (
                "logical_bytes", "physical_bytes", "codecs")},
        }
        self.manifest["members"].append(entry)
        try:
            self._write_manifest()
        except BaseException:
            self.manifest["members"].pop()
            os.unlink(dest)
            raise
        self._guides[name] = _member_guide(entry)
        self._plan_memo.clear()   # pruning decisions depend on membership
        if self.result_cache is not None:
            # explicit invalidation point: membership changed, so any
            # cached response assembled under the old member set is gone
            self.result_cache.clear()
        return name

    def member(self, name: str):
        """The named member, opened lazily over the shared pool (safe to
        call from concurrent request threads; a member is never opened
        twice).  The open's page I/O runs *outside* ``_open_lock`` behind
        a per-member opening latch: concurrent openers of the same member
        wait on the latch, while opens and lookups of other members
        proceed — one slow or corrupt member never serializes the
        repository."""
        while True:
            with self._open_lock:
                vdoc = self._open.get(name)
                if vdoc is not None:
                    return vdoc
                entry = self._entry(name)   # unknown member raises here
                latch = self._opening.get(name)
                if latch is None:
                    latch = self._opening[name] = threading.Event()
                    leader = True
                else:
                    leader = False
            if not leader:
                # another thread is opening this member: wait, then
                # re-check — on its success the table has the document,
                # on its failure this thread retries as the new leader
                latch.wait()
                continue
            path = os.path.join(self.dirpath, entry["file"])
            try:
                vdoc = open_vdoc(path, pool=self.pool)
            except (OSError, StorageError) as exc:
                with self._open_lock:
                    del self._opening[name]
                latch.set()
                raise StorageError(
                    f"member {name!r} ({entry['file']}): {exc}") from exc
            with self._open_lock:
                self._open[name] = vdoc
                del self._opening[name]
            latch.set()
            return vdoc

    # -- quarantine --------------------------------------------------------

    def _note_quarantine(self, name: str, exc: StorageError) -> None:
        """A member's evaluation died with a storage failure: quarantine
        it so later queries skip it, and retire its open document (kept
        open for concurrent in-flight readers; closed with the repo).

        :class:`PoolExhaustedError` is *load*, not member damage —
        admission control owns overload — so it never quarantines."""
        if isinstance(exc, PoolExhaustedError):
            return
        if self.quarantine.quarantine(name, str(exc)):
            with self._open_lock:
                vdoc = self._open.pop(name, None)
                if vdoc is not None:
                    self._retired.append(vdoc)

    def _probe_member(self, name: str) -> bool:
        """The supervisor's re-verify: a deep fsck of the member file.
        True only when the page file comes back with zero findings."""
        from ..storage.fsck import verify_vdoc
        try:
            entry = self._entry(name)
            path = os.path.join(self.dirpath, entry["file"])
            return not verify_vdoc(path, deep=True)
        except (OSError, ReproError):
            return False

    def start_supervisor(self, base_delay: float | None = None,
                         max_delay: float | None = None,
                         poll: float = 0.25) -> QuarantineSupervisor:
        """Start the background recovery thread (idempotent).  The
        library default is *no* supervisor — batch CLI use opens, queries
        and exits; the resident service starts one so on-disk repairs
        heal the serving set without a restart."""
        if self._supervisor is None:
            if base_delay is not None:
                self.quarantine.base_delay = base_delay
            if max_delay is not None:
                self.quarantine.max_delay = max_delay
            self._supervisor = QuarantineSupervisor(
                self.quarantine, self._probe_member, poll=poll).start()
        return self._supervisor

    def stop_supervisor(self) -> None:
        if self._supervisor is not None:
            self._supervisor.stop()
            self._supervisor = None

    # -- queries -----------------------------------------------------------

    def _cache_key(self, name: str, tail: tuple) -> tuple | None:
        """The result-cache key of ``(member, query)`` — ``None`` when the
        member file cannot be stat'ed.  Keyed on the file's identity
        (name, mtime_ns, size) plus ``tail``: the query kind and the
        *normalized* query text (whitespace around the query carries no
        meaning; whitespace inside it may — string literals — so
        normalization is ``strip()`` only).  How a query is evaluated is
        a function of the file and the text, so the key is complete."""
        entry = self._entry(name)
        try:
            st = os.stat(os.path.join(self.dirpath, entry["file"]))
        except OSError:
            return None
        return (entry["file"], st.st_mtime_ns, st.st_size, *tail)

    def _memoized(self, key: tuple | None, compute):
        """Planning memo lookup: pure manifest math keyed by query text
        (``key`` is None when the query has no stable text form).  Bounded
        by wholesale reset — repeated queries are the case that matters."""
        if key is None:
            return compute()
        hit = self._plan_memo.get(key)
        if hit is None:
            hit = compute()
            if len(self._plan_memo) >= 512:
                self._plan_memo.clear()
            self._plan_memo[key] = hit
        return hit

    def _member_order(self, gq, checkpoint) -> tuple[list[str], list[str]]:
        """Split members into ``(survivors, pruned)`` against the manifest
        catalog alone — no member is opened.  Survivors come back ordered
        most-selective-first (catalog occurrence estimate, manifest order
        breaking ties) so cheap members are evaluated before large ones.
        ``checkpoint`` is the query's deadline, passed to the resolver."""
        survivors: list[tuple[float, int, str]] = []
        pruned: list[str] = []
        for pos, (name, guide) in enumerate(self._guides.items()):
            bound = bind_query(gq, guide, checkpoint)  # prices and prunes
            if not bound.can_match():
                pruned.append(name)
                continue
            survivors.append((bound.estimate(guide), pos, name))
        survivors.sort()
        return [name for _, _, name in survivors], pruned

    def _each_member(self, names, skipped: list, key_tail: tuple | None,
                     evaluate, pack):
        """The one member loop under :meth:`xq` and :meth:`xpath`: yields
        ``(name, result)`` for each of ``names``, in order.  Quarantined
        members are counted and appended to ``skipped`` instead.  With
        the result cache on and a ``key_tail`` (``None`` when the query
        has no stable text), a hit is yielded without opening the member
        and a miss stores ``pack(result)`` — ``(stand-in, bytes)``.  A
        :class:`StorageError` from the open or from ``evaluate(vdoc)``
        quarantines the member and propagates, naming it."""
        cache = self.result_cache if key_tail is not None else None
        for name in names:
            if self.quarantine.is_quarantined(name):
                self.quarantine.note_skip()
                skipped.append(name)
                continue
            key = None
            if cache is not None:
                key = self._cache_key(name, key_tail)
                if key is None:
                    cache.note_uncacheable()
                else:
                    hit = cache.get(key)
                    if hit is not None:
                        yield name, hit
                        continue
            try:
                vdoc = self.member(name)
            except StorageError as exc:
                self._note_quarantine(name, exc)
                raise
            try:
                res = evaluate(vdoc)
            except StorageError as exc:
                self._note_quarantine(name, exc)
                raise StorageError(f"member {name!r}: {exc}") from exc
            if key is not None:
                cache.put(key, *pack(res))
            yield name, res

    def xq(self, query: str | XQuery,
           deadline: float | None = None,
           ctx: EvalContext | None = None) -> RepoXQResult:
        """Evaluate an XQ query over every member, in member order.

        ``collection("name")`` sources must name this repository; a query
        without collection sources ranges over all members too (the
        repository is the context collection).  Every root variable binds
        within the member under evaluation — there are no cross-member
        tuples, so results are exactly the concatenation of per-member
        evaluations, interleaved in (member, document-order) order.

        Members whose cataloged paths prove them empty for this query are
        skipped with zero page I/O, and survivors are evaluated
        most-selective-first; results are reassembled in manifest order.

        ``deadline`` arms a cooperative budget (seconds) spanning *all*
        members of this query; expiry raises
        :class:`~repro.errors.DeadlineExceededError` at the next engine
        checkpoint and unwinds with zero leaked pins.  ``ctx`` supplies a
        caller-built :class:`EvalContext` (the service reuses this to arm
        per-request deadlines; tests to force deterministic expiry).

        A member whose evaluation dies with a :class:`StorageError` is
        **quarantined**: this query still fails (naming the member), but
        subsequent queries skip it — reported in ``result.quarantined`` —
        until the supervisor's deep fsck finds the file healthy again."""
        xq = query if isinstance(query, XQuery) else parse_xq(query)
        gq, _ = compile_query(xq)
        if gq.collection is not None and gq.collection != self.name:
            raise XQCompileError(
                f"query ranges over collection {gq.collection!r} but this "
                f"repository is {self.name!r}")
        qtext = query.strip() if isinstance(query, str) else None
        if ctx is None:
            ctx = EvalContext()
        if deadline is not None:
            ctx.set_deadline(deadline)
        order, pruned = self._memoized(
            ("xq-order", qtext) if qtext is not None else None,
            lambda: self._member_order(gq, ctx.checkpoint))

        def pack(res):
            frag = res.fragment()
            return CachedXQMember(frag, res.n_tuples), len(frag)

        quarantined: list[str] = []
        by_name = dict(self._each_member(
            order, quarantined,
            None if qtext is None else ("xq", qtext),
            lambda vdoc: eval_xq(vdoc, xq, ctx=ctx), pack))
        results = [(name, by_name[name]) for name in self.members()
                   if name in by_name]
        return RepoXQResult(xq.root_tag, results, pruned,
                            sorted(quarantined))

    def xpath(self, query: str,
              deadline: float | None = None,
              ctx: EvalContext | None = None,
              skipped: list | None = None) -> list[tuple[str, object]]:
        """Evaluate an XPath over every member; per-member ``VXResult``\\ s
        in member order.  A member whose cataloged
        paths admit no alignment with the query steps is answered with an
        empty result straight from the manifest (it is never opened).
        When the result cache is enabled, a member hit is answered as a
        :class:`CachedCount` (the ``count()`` reporting surface only).

        Quarantined members are *omitted* from the output; pass a list
        as ``skipped`` to receive their names.  Reading
        ``repo.quarantine.active()`` afterwards instead is racy — the
        supervisor may reinstate a member between the skip and the read,
        silently hiding the degradation.  ``deadline`` / ``ctx`` behave
        as in :meth:`xq`."""
        path: Path = parse_xpath(query)
        qtext = query.strip()
        if ctx is None:
            ctx = EvalContext()
        if deadline is not None:
            ctx.set_deadline(deadline)
        prunable: frozenset = self._memoized(
            ("xpath-prune", qtext),
            lambda: frozenset(
                name for name, guide in self._guides.items()
                if not guide.resolve(path.steps,
                                     checkpoint=ctx.checkpoint)))
        # a quarantined member still goes to the loop when prunable: it is
        # skipped and reported, not answered from its manifest entry
        names = [n for n in self.members() if n not in prunable
                 or self.quarantine.is_quarantined(n)]
        gone: list[str] = []
        by_name = dict(self._each_member(
            names, gone, ("xpath", qtext),
            lambda vdoc: eval_query(vdoc, path, ctx=ctx),
            lambda res: (CachedCount(res.count()), 32)))
        if skipped is not None:
            skipped.extend(gone)
        return [(n, by_name[n] if n in by_name else VXResult(None, []))
                for n in self.members() if n not in gone]

    # -- reporting ---------------------------------------------------------

    def io_stats(self) -> dict:
        """Pool-wide counters plus per-member counters for every member
        opened so far."""
        stats = {k if k == "pinned" else f"pool_{k}": v
                 for k, v in self.pool.snapshot().items()}
        for name, vdoc in self._open.items():
            for k, v in vdoc.view.stats.as_dict().items():
                stats[f"{name}.{k}"] = v
        return stats
