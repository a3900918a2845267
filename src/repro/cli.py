"""``repro-xq`` — command-line front end.

Subcommands::

    repro-xq stats FILE [--pool N]           vectorization statistics
    repro-xq query FILE QUERY [--mode vx|naive] [--values] [--canonical]
                              [--plan] [--pool N] [--io-stats]
    repro-xq reconstruct FILE [--pool N]     vectorize then decompress back
    repro-xq save FILE OUT [--page-size B]   write the on-disk vdoc format
    repro-xq open FILE [--pool N]            print a saved vdoc's catalog
    repro-xq check TARGET [--deep]           verify a .vdoc or a repository
    repro-xq gen N [--seed S]                synthetic XMark-like document
    repro-xq index build FILE [--path P]     persist value indexes
    repro-xq index ls FILE                   per-vector codec + bytes and
                                             persisted index segments
    repro-xq repo init DIR --name NAME       create an empty repository
    repro-xq repo add DIR FILE [--name N]    add an XML or .vdoc member
    repro-xq repo ls DIR                     members, catalog + compression
    repro-xq repo query DIR QUERY [--pool N] [--io-stats]
    repro-xq serve DIR [--port P] [--pool N] [--workers W]

``FILE`` may be XML text or a saved ``.vdoc`` page file (sniffed by
magic); vdoc inputs are opened disk-backed through a buffer pool of
``--pool`` pages (default unbounded) and ``--io-stats`` reports per-
document and pool-wide physical I/O counters on stderr after a query —
also when the query fails, so a corrupted run still shows what it read.

``repo query`` evaluates over every member of a repository through one
shared buffer pool; XQ queries may source from ``collection("name")``.
``serve`` keeps a repository resident and answers the same queries over
HTTP (``POST /xq``, ``POST /xpath``, ``GET /stats`` ...) from concurrent
worker threads sharing that pool — see :mod:`repro.serve`.

``query`` dispatches on the query text: a leading ``/`` is an XPath of
P[*,//]; anything else is an XQ FLWR expression (``for .. where ..
return ..``), evaluated by graph reduction (``--plan`` prints the
heuristic operation order first).  Flags that do not apply to the query
kind (``--values``/``--canonical`` for XQ, ``--plan`` for XPath) are
usage errors, not silently ignored.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .core.engine import XQVXResult, eval_query, eval_xq
from .core.vdoc import VectorizedDocument
from .datasets.synth import xmark_like_xml
from .errors import ReproError
from .storage.disk import PageFile
from .storage.pages import MAX_PAGE_SIZE, MIN_PAGE_SIZE

USAGE_ERROR = 2


def _load(path: str, pool: int | None = None) -> VectorizedDocument:
    if PageFile.is_page_file(path):
        return VectorizedDocument.open(path, pool_pages=pool)
    with open(path, "r", encoding="utf-8") as f:
        return VectorizedDocument.from_xml(f.read())


def _number(cast, accept, what: str):
    """argparse ``type=`` factory: ``cast(text)`` when ``accept`` holds,
    otherwise a usage error (exit 2) naming the flag and ``what`` it
    takes — never a traceback from the layer the value would have
    reached.  NaN fails every comparison, so it is rejected throughout."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    return parse


#: every ``--deadline`` and ``--queue-timeout``: NaN would never expire
#: (``now > nan`` is always false) and a non-positive budget is a usage
#: error, not a runtime timeout
_seconds = _number(float, lambda s: 0 < s < math.inf,
                   "a positive finite number of seconds")
_pool_pages = _number(int, lambda n: n >= 2, "a pool of >= 2 pages")
_workers = _number(int, lambda n: n >= 1, "a worker count >= 1")
_queue_length = _number(int, lambda n: n >= 0, "a queue length >= 0")
_port = _number(int, lambda n: 0 <= n <= 65535, "a port in 0..65535")
_page_size = _number(int, lambda b: MIN_PAGE_SIZE <= b <= MAX_PAGE_SIZE,
                     f"a page size in [{MIN_PAGE_SIZE}, {MAX_PAGE_SIZE}]")
_mebibytes = _number(float, lambda mb: 0 <= mb < math.inf,
                     "a finite number of MiB >= 0")


def _rate_seed(text: str) -> tuple[float, int]:
    rate, _, seed = text.partition(":")
    return float(rate), int(seed) if seed else 0


#: ``--chaos RATE[:SEED]``: the fault injector's rate and seed
_chaos = _number(_rate_seed, lambda rs: 0 <= rs[0] <= 1,
                 "RATE[:SEED] with RATE in [0, 1] (e.g. 0.05:7)")


def _usage_error(message: str) -> int:
    print(f"repro-xq: error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _print_io_stats(source) -> None:
    """``--io-stats`` line of a document or a repository."""
    if source.pool is None:
        print("io: document is memory-resident (no buffer pool)",
              file=sys.stderr)
        return
    print("io: " + "  ".join(f"{k}={v}"
                             for k, v in source.io_stats().items()),
          file=sys.stderr)


def _index_cmd(args) -> int:
    from .storage.vdocfile import open_vdoc, save_vdoc

    if not PageFile.is_page_file(args.file):
        return _usage_error(f"{args.file}: not a .vdoc page file "
                            f"(run 'save' first)")
    if args.index_cmd == "build":
        with open_vdoc(args.file) as vdoc:
            page_size = vdoc.file.page_size
            if args.path:
                index_paths = [tuple(p.split("/")) for p in args.path]
            else:
                index_paths = "all"
            # save_vdoc copies each vector's records off its chain through
            # the pool (nothing is re-encoded), builds the index segments,
            # writes both to a temp file and atomically replaces args.file
            # — the open handle keeps reading the old inode, so a failure
            # leaves the original untouched
            summary = save_vdoc(vdoc, args.file, page_size=page_size,
                                index_paths=index_paths)
        for k in ("path", "pages", "vectors", "indexes", "index_pages"):
            print(f"{k:16} {summary[k]}")
    else:
        assert args.index_cmd == "ls"
        with open_vdoc(args.file) as vdoc:
            # everything below is catalog math: no vector page is read
            comp = vdoc.compression_stats()
            print("vectors:")
            for v in comp["vectors"]:
                print(f"  {v['path']:32} n={v['n']} "
                      f"codec={v['codec']} logical={v['logical_bytes']} "
                      f"disk={v['physical_bytes']}")
            print(f"compression: logical={comp['logical_bytes']} "
                  f"disk={comp['physical_bytes']} "
                  f"ratio={comp['compression_ratio']}")
            handles = sorted(vdoc._vindexes.items())
            if not handles:
                print(f"{args.file}: no index segments (unindexed)")
            else:
                print("indexes:")
            for vpath, h in handles:
                print(f"  {'/'.join(vpath):32} n={len(vdoc.vectors[vpath])} "
                      f"distinct={h.distinct} pages={h.n_pages}")
    return 0


def _repo_cmd(args) -> int:
    from .repo import Repository

    if args.repo_cmd == "init":
        repo = Repository.init(args.dir, args.name)
        print(f"{args.dir}: empty repository {repo.name!r}")
    elif args.repo_cmd == "add":
        with Repository.open(args.dir) as repo:
            name = repo.add(args.file, name=args.name,
                            page_size=args.page_size)
            entry = repo._entry(name)
            print(f"added {name!r} ({entry['file']}, "
                  f"{len(entry['paths'])} catalog paths)")
    elif args.repo_cmd == "ls":
        with Repository.open(args.dir) as repo:
            print(f"repository {repo.name!r}: "
                  f"{len(repo.members())} member(s)")
            # compression facts come from the manifest (recorded at add
            # time) — zero page I/O, like the path catalog itself
            logical = physical = 0
            for m in repo.manifest["members"]:
                values = sum(c for p, c in m["paths"]
                             if p and p[-1] == "#")
                comp = m["compression"]
                logical += comp["logical_bytes"]
                physical += comp["physical_bytes"]
                mix = " ".join(f"{k}={v}" for k, v
                               in sorted(comp["codecs"].items()))
                print(f"  {m['name']:20} {m['file']:24} "
                      f"paths={len(m['paths'])} values={values} "
                      f"codecs[{mix}] logical={comp['logical_bytes']} "
                      f"disk={comp['physical_bytes']}")
            if repo.manifest["members"]:
                ratio = round(physical / logical, 4) if logical else 1.0
                print(f"compression: logical={logical} disk={physical} "
                      f"ratio={ratio}")
    else:
        assert args.repo_cmd == "query"
        with Repository.open(args.dir, pool_pages=args.pool) as repo:
            try:
                text = args.query.lstrip()
                if text.startswith("/"):
                    for name, res in repo.xpath(text, deadline=args.deadline):
                        print(f"{name}: count {res.count()}")
                else:
                    result = repo.xq(text, deadline=args.deadline)
                    if result.pruned:
                        print("pruned (catalog, zero I/O): "
                              + " ".join(result.pruned), file=sys.stderr)
                    print(result.to_xml())
            finally:
                if args.io_stats:
                    _print_io_stats(repo)
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-xq",
        description="Vectorized XML store and query engine (ICDE 2005 repro)",
    )
    ap.add_argument("--version", action="version", version=f"repro-xq {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True)

    pool_help = ("buffer pool size in pages for .vdoc inputs "
                 "(default: unbounded)")

    p_stats = sub.add_parser("stats", help="vectorization statistics")
    p_stats.add_argument("file")
    p_stats.add_argument("--pool", type=_pool_pages, default=None,
                         help=pool_help)

    p_query = sub.add_parser("query", help="evaluate an XPath or XQ query")
    p_query.add_argument("file")
    p_query.add_argument("xpath", metavar="query",
                         help="an XPath (starts with '/') or an XQ FLWR "
                              "expression")
    p_query.add_argument("--mode", choices=("vx", "naive"), default="vx")
    p_query.add_argument("--values", action="store_true",
                         help="XPath only: print text values of text-path "
                              "results")
    p_query.add_argument("--canonical", action="store_true",
                         help="XPath only: print canonical content of each "
                              "result")
    p_query.add_argument("--plan", action="store_true",
                         help="XQ only: print the heuristic reduction plan "
                              "(per-op cost estimates and access paths)")
    p_query.add_argument("--deadline", type=_seconds,
                         default=None, metavar="SEC",
                         help="cooperative deadline in seconds; an "
                              "over-budget query unwinds cleanly with a "
                              "DeadlineExceededError (vx mode only)")
    p_query.add_argument("--pool", type=_pool_pages, default=None,
                         help=pool_help)
    p_query.add_argument("--io-stats", action="store_true",
                         help="print buffer-pool I/O counters on stderr "
                              "after the query")

    p_rec = sub.add_parser("reconstruct",
                           help="vectorize, then decompress back to XML")
    p_rec.add_argument("file")
    p_rec.add_argument("--pool", type=_pool_pages, default=None,
                       help=pool_help)

    p_save = sub.add_parser("save",
                            help="vectorize FILE and write the paged "
                                 "on-disk vdoc format to OUT")
    p_save.add_argument("file")
    p_save.add_argument("out")
    p_save.add_argument("--page-size", type=_page_size, default=None,
                        help="page size in bytes (default 4096)")

    p_open = sub.add_parser("open",
                            help="open a saved vdoc and print its on-disk "
                                 "catalog (no vector is materialized)")
    p_open.add_argument("file")
    p_open.add_argument("--pool", type=_pool_pages, default=None,
                        help=pool_help)

    p_check = sub.add_parser("check",
                             help="verify a .vdoc page file (header, page "
                                  "checksums, heap chains, catalog cross-"
                                  "checks) or a repository directory "
                                  "(manifest, members, path catalog); "
                                  "exits nonzero on any finding")
    p_check.add_argument("file")
    p_check.add_argument("--deep", action="store_true",
                         help="additionally UTF-8-decode every value and "
                              "report orphaned pages")

    p_gen = sub.add_parser("gen", help="emit a synthetic XMark-like document")
    p_gen.add_argument("n_people", type=int)
    p_gen.add_argument("--seed", type=int, default=0)

    p_index = sub.add_parser("index", help="persistent value indexes")
    isub = p_index.add_subparsers(dest="index_cmd", required=True)

    i_build = isub.add_parser("build",
                              help="build value-index segments inside a "
                                   ".vdoc (atomic rewrite)")
    i_build.add_argument("file")
    i_build.add_argument("--path", action="append", default=None,
                         metavar="P",
                         help="vector path to index, slash-separated (e.g. "
                              "people/person/name/#); repeatable; default: "
                              "every vector")

    i_ls = isub.add_parser("ls", help="list a .vdoc's persisted index "
                                      "segments (catalog only, no I/O)")
    i_ls.add_argument("file")

    p_repo = sub.add_parser("repo", help="multi-document repositories")
    rsub = p_repo.add_subparsers(dest="repo_cmd", required=True)

    r_init = rsub.add_parser("init", help="create an empty repository")
    r_init.add_argument("dir")
    r_init.add_argument("--name", required=True,
                        help="collection name (what collection(...) "
                             "queries reference)")

    r_add = rsub.add_parser("add", help="add an XML or .vdoc document")
    r_add.add_argument("dir")
    r_add.add_argument("file")
    r_add.add_argument("--name", default=None,
                       help="member name (default: the file's stem)")
    r_add.add_argument("--page-size", type=_page_size, default=None,
                       help="page size for XML inputs (default 4096)")

    r_ls = rsub.add_parser("ls", help="list members and catalog summary")
    r_ls.add_argument("dir")

    r_query = rsub.add_parser("query",
                              help="evaluate a query over every member "
                                   "through one shared buffer pool")
    r_query.add_argument("dir")
    r_query.add_argument("query",
                         help="an XQ FLWR expression (may source from "
                              "collection('name')) or an XPath (starts "
                              "with '/'; evaluated per member)")
    r_query.add_argument("--pool", type=_pool_pages, default=None,
                         help="shared buffer pool size in pages "
                              "(default: unbounded)")
    r_query.add_argument("--io-stats", action="store_true",
                         help="print per-member and pool-wide I/O "
                              "counters on stderr, even on failure")
    r_query.add_argument("--deadline", type=_seconds,
                         default=None, metavar="SEC",
                         help="cooperative deadline in seconds spanning "
                              "all members of the query")

    p_serve = sub.add_parser(
        "serve",
        help="serve a repository over HTTP (POST /xq, POST /xpath, "
             "GET /repo, GET /stats, GET /healthz) with concurrent "
             "workers over one shared buffer pool")
    p_serve.add_argument("dir")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=_port, default=8000,
                         help="bind port; 0 picks a free port, printed in "
                              "the startup line (default 8000)")
    p_serve.add_argument("--pool", type=_pool_pages, default=None,
                         help="shared buffer pool size in pages "
                              "(default: unbounded)")
    p_serve.add_argument("--workers", type=_workers, default=8,
                         help="max concurrently evaluating queries; "
                              "additionally capped from the pool capacity "
                              "(default 8)")
    p_serve.add_argument("--queue", type=_queue_length, default=64,
                         help="admission wait-queue length; excess "
                              "requests get HTTP 503 (default 64)")
    p_serve.add_argument("--queue-timeout", type=_seconds, default=2.0,
                         help="max seconds a request waits for a free "
                              "slot before HTTP 503 (default 2.0)")
    p_serve.add_argument("--result-cache", type=_mebibytes, default=64.0,
                         metavar="MB",
                         help="result cache budget in MiB; 0 disables "
                              "caching (default 64)")
    p_serve.add_argument("--deadline", type=_seconds,
                         default=None, metavar="SEC",
                         help="per-request cooperative deadline in "
                              "seconds; over-budget requests get HTTP "
                              "504 (X-Deadline-Ms may tighten it per "
                              "request; default: none)")
    p_serve.add_argument("--chaos", type=_chaos, default=None,
                         metavar="RATE[:SEED]",
                         help="inject deterministic transient read "
                              "faults (OSError/bitflip/torn) into the "
                              "pool at RATE — the live chaos harness "
                              "hook; do not use in production")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log each request line on stderr")

    args = ap.parse_args(argv)
    try:
        if args.cmd == "stats":
            stats = _load(args.file, args.pool).stats()
            for k, v in stats.items():
                print(f"{k:16} {v}")
        elif args.cmd == "query":
            text = args.xpath.lstrip()
            is_xpath = text.startswith("/")
            if is_xpath and args.plan:
                return _usage_error(
                    "--plan is only valid for XQ queries, not XPath")
            if not is_xpath:
                for flag, on in (("--values", args.values),
                                 ("--canonical", args.canonical)):
                    if on:
                        return _usage_error(
                            f"{flag} is only valid for XPath queries, "
                            f"not XQ")
            if args.deadline is not None and args.mode == "naive":
                return _usage_error(
                    "--deadline needs the vx engine's checkpoints; "
                    "it is not valid with --mode naive")
            vdoc = _load(args.file, args.pool)
            ctx = None
            if args.deadline is not None:
                from .core.context import EvalContext

                ctx = EvalContext.for_doc(vdoc)
                ctx.set_deadline(args.deadline)
            try:
                if is_xpath:
                    result = eval_query(vdoc, text, mode=args.mode, ctx=ctx)
                    print(f"count {result.count()}")
                    if args.values:
                        for v in result.text_values():
                            print(v)
                    if args.canonical:
                        for item in result.canonical():
                            print(item)
                else:
                    result = eval_xq(vdoc, text, mode=args.mode, ctx=ctx)
                    if args.plan and isinstance(result, XQVXResult):
                        print(result.plan.explain(), file=sys.stderr)
                    print(result.to_xml())
            finally:
                # stats even when the query errors: a failed run still
                # shows what it read before failing
                if args.io_stats:
                    _print_io_stats(vdoc)
        elif args.cmd == "reconstruct":
            sys.stdout.write(_load(args.file, args.pool).to_xml())
        elif args.cmd == "save":
            with open(args.file, "r", encoding="utf-8") as f:
                vdoc = VectorizedDocument.from_xml(f.read())
            summary = vdoc.save(args.out, page_size=args.page_size)
            for k, v in summary.items():
                print(f"{k:16} {v}")
        elif args.cmd == "open":
            vdoc = VectorizedDocument.open(args.file, pool_pages=args.pool)
            with vdoc:
                print(f"{'page_size':16} {vdoc.file.page_size}")
                print(f"{'pages':16} {vdoc.file.n_pages}")
                print(f"{'skeleton_nodes':16} {len(vdoc.store)}")
                print(f"{'vectors':16} {len(vdoc.vectors)}")
                print(f"{'values':16} {sum(len(v) for v in vdoc.vectors.values())}")
                print(f"{'vector_pages':16} "
                      f"{sum(v.n_pages for v in vdoc.vectors.values())}")
        elif args.cmd == "check":
            if os.path.isdir(args.file):
                from .repo import verify_repository as _verify
            else:
                from .storage.fsck import verify_vdoc as _verify

            findings = _verify(args.file, deep=args.deep)
            for finding in findings:
                print(finding)
            if findings:
                print(f"{args.file}: {len(findings)} integrity "
                      f"finding(s)", file=sys.stderr)
                return 1
            mode = "deep" if args.deep else "shallow"
            print(f"{args.file}: ok ({mode} check, no findings)")
        elif args.cmd == "gen":
            if args.n_people < 0:
                print("repro-xq: error: N must be >= 0", file=sys.stderr)
                return 1
            sys.stdout.write(xmark_like_xml(args.n_people, seed=args.seed))
        elif args.cmd == "index":
            return _index_cmd(args)
        elif args.cmd == "repo":
            return _repo_cmd(args)
        elif args.cmd == "serve":
            from .serve import run_serve

            return run_serve(args)
    except BrokenPipeError:
        # downstream consumer (head, etc.) closed the pipe — not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (ReproError, OSError) as exc:
        print(f"repro-xq: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
