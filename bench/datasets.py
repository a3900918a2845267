"""Seeded benchmark inputs and the repository builder.

Three datasets, all functions of ``--seed`` alone (same seed, same bytes):

* ``xmark8`` — eight XMark-like members of 4000..500 people; even members
  are saved with every value index, odd members go through plain
  ``Repository.add(xml)`` (the default user path has no indexes);
* ``joins4`` — four unindexed 400-person members (value joins scan);
* ``deep``   — two TreeBank-shaped documents: recursive random phrase
  tags, so vectors (distinct root-to-text label paths) vastly outnumber
  the values in each — the regime XMark's 30 vectors never reach.

The program under test only ever sees the generated XML files.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys

from repro.core.vdoc import VectorizedDocument
from repro.datasets.synth import xmark_like_xml
from repro.repo import Repository

XMARK8_PEOPLE = (4000, 4000, 2000, 2000, 1000, 1000, 500, 500)
JOINS4_PEOPLE = (400, 400, 400, 400)
INGEST_PEOPLE = 2000
#: per-document size of the ``deep`` dataset.  The issue asked for
#: ~0.45 MB (15-20k vectors); one such document takes ~3 s to add and
#: stores 70 MB, which does not fit three set-ups in a 25 s run — see
#: the ``deep_tree`` notes in README.md.
DEEP_BYTES = 90_000
DEEP_DOCS = 2
DEEP_MAX_DEPTH = 12
DEEP_VOCAB = 400
COLLECTION = "auctions"

_PHRASES = ("NP", "VP", "PP", "ADJP", "SBAR", "S")
_LEAVES = ("NN", "DT", "VB", "JJ", "IN")


def deep_xml(seed: int, target_bytes: int = DEEP_BYTES,
             max_depth: int = DEEP_MAX_DEPTH) -> str:
    """A TreeBank-shaped document: sentences of recursively nested random
    phrase tags over part-of-speech leaves holding words ``wK``.  Sentences
    are appended until ``target_bytes`` is reached, so the size (unlike a
    fixed sentence count of a branching process) barely moves with the
    seed."""
    rng = random.Random(seed)
    out = ["<FILE>"]
    size = 0

    def phrase(tag: str, depth: int) -> int:
        n = 2 * len(tag) + 5
        out.append(f"<{tag}>")
        for _ in range(rng.randint(1, 4)):
            if depth < max_depth and rng.random() < 0.5:
                n += phrase(_PHRASES[rng.randrange(len(_PHRASES))], depth + 1)
            else:
                leaf = _LEAVES[rng.randrange(len(_LEAVES))]
                text = f"<{leaf}>w{rng.randrange(DEEP_VOCAB)}</{leaf}>"
                n += len(text)
                out.append(text)
        out.append(f"</{tag}>")
        return n

    while size < target_bytes:
        size += phrase("S", 2)
    out.append("</FILE>")
    return "".join(out)


def scale(people: int, smoke: bool) -> int:
    return max(20, people // 20) if smoke else people


def member_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


def xmark_members(seed: int, people: tuple, smoke: bool,
                  offset: int = 0) -> list[tuple[str, str]]:
    return [(f"m{i}", xmark_like_xml(scale(n, smoke),
                                     seed=member_seed(seed, offset + i)))
            for i, n in enumerate(people)]


def deep_members(seed: int, smoke: bool) -> list[tuple[str, str]]:
    target = DEEP_BYTES // 10 if smoke else DEEP_BYTES
    return [(f"d{i}", deep_xml(member_seed(seed, 500 + i), target))
            for i in range(DEEP_DOCS)]


def inputs_hash(members: list[tuple[str, str]]) -> str:
    h = hashlib.sha256()
    for name, xml in members:
        h.update(name.encode())
        h.update(xml.encode("utf-8"))
    return h.hexdigest()


def write_inputs(dirpath: str, members: list[tuple[str, str]]) -> list[str]:
    """The XML files the program is given; returns their paths."""
    os.makedirs(dirpath, exist_ok=True)
    paths = []
    for name, xml in members:
        path = os.path.join(dirpath, f"{name}.xml")
        with open(path, "w", encoding="utf-8") as f:
            f.write(xml)
        paths.append(path)
    return paths


def build_repo(repo_dir: str, xml_paths: list[str],
               index_even: bool = False) -> None:
    """Create a repository from XML files.  With ``index_even`` the even
    members are vectorized, saved with every value index and added as
    ``.vdoc``; all others go through ``Repository.add(xml)``.

    Query workloads call it through ``build_repo_in_child`` so the
    vectorizer's transient memory is not charged to their
    ``peak_rss_mb``."""
    with Repository.init(repo_dir, COLLECTION) as repo:
        for i, path in enumerate(xml_paths):
            name = os.path.splitext(os.path.basename(path))[0]
            if index_even and i % 2 == 0:
                with open(path, "r", encoding="utf-8") as f:
                    vdoc = VectorizedDocument.from_xml(f.read())
                staged = os.path.join(os.path.dirname(repo_dir),
                                      f".{name}.staged.vdoc")
                vdoc.save(staged, index_paths="all")
                repo.add(staged, name=name)
                os.unlink(staged)
            else:
                repo.add(path, name=name)


def build_repo_in_child(repo_dir: str, xml_paths: list[str],
                        index_even: bool) -> None:
    """``build_repo`` in a fresh interpreter, waited for."""
    subprocess.run([sys.executable, os.path.abspath(__file__), repo_dir,
                    str(int(index_even)), *xml_paths],
                   check=True, timeout=150,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


def dir_bytes(dirpath: str) -> int:
    return sum(os.path.getsize(os.path.join(dirpath, f))
               for f in os.listdir(dirpath))


if __name__ == "__main__":
    build_repo(sys.argv[1], sys.argv[3:], index_even=bool(int(sys.argv[2])))
