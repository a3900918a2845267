"""Correctness oracle: the in-memory engine's answer, spliced per member.

The expected answer of a repository query is what ``eval_xq`` /
``eval_query`` return over each member's *in-memory* vectorized document
(no page file, no pool, no index, no codec), concatenated in manifest
order under one result root.  Every distinct query a run executed is
compared byte for byte; a mismatch fails every op that ran that query.  For
the first few distinct queries of each class the oracle itself is
cross-checked, on the smallest member, against the naive
decompress-and-walk evaluator (all of them would double the run: the
naive evaluator takes ~30 ms per query on a 500-person document).
"""

from __future__ import annotations

import hashlib

from repro import VectorizedDocument, eval_query, eval_xq
from repro.core.xquery.parser import parse_xq

from queries import CANON_TAG, Op


def canonical(op: Op, answer: str) -> str:
    """``answer`` with a unique returned-element tag mapped back to the
    canonical one (identity for canonical and XPath ops)."""
    if not op.tag or op.tag == CANON_TAG:
        return answer
    for form in ("<{}>", "</{}>", "<{}/>"):
        answer = answer.replace(form.format(op.tag), form.format(CANON_TAG))
    return answer


def xpath_answer(counts) -> str:
    """The ``name: count N`` lines the CLI and ``/xpath`` print."""
    return "".join(f"{name}: count {n}\n" for name, n in counts)


class Oracle:
    def __init__(self, members: list[tuple[str, str]], naive_member: str,
                 naive_per_class: int):
        self.docs = [(name, VectorizedDocument.from_xml(xml))
                     for name, xml in members]
        self.naive_member = naive_member
        self.naive_per_class = naive_per_class

    def answer(self, op: Op, naive: bool = False) -> tuple[str, int | None]:
        """``(answer text, tuple count)`` of the canonical query; with
        ``naive`` the naive evaluator must agree on ``naive_member``."""
        if op.kind == "xpath":
            counts = []
            for name, vdoc in self.docs:
                n = eval_query(vdoc, op.key).count()
                if naive and name == self.naive_member and \
                        eval_query(vdoc, op.key, mode="naive").count() != n:
                    raise AssertionError(f"vx != naive on {name}: {op.key}")
                counts.append((name, n))
            return xpath_answer(counts), None
        root = parse_xq(op.key).root_tag
        empty, head, tail = f"<{root}/>", f"<{root}>", f"</{root}>"
        inner, tuples = [], 0
        for name, vdoc in self.docs:
            res = eval_xq(vdoc, op.key)
            xml = res.to_xml()
            if naive and name == self.naive_member and \
                    eval_xq(vdoc, op.key, mode="naive").to_xml() != xml:
                raise AssertionError(f"vx != naive on {name}: {op.key}")
            tuples += res.n_tuples
            if xml != empty:
                inner.append(xml[len(head):-len(tail)])
        body = "".join(inner)
        return (f"{head}{body}{tail}" if body else empty), tuples


class Checker:
    """Collects what the program answered; ``verify`` settles it."""

    def __init__(self):
        self.seen: dict[str, tuple[Op, str, int | None, int]] = {}
        self.failed = 0          # ops that failed outright or diverged
        self.errors: list[str] = []

    def fail(self, op: Op, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{op.cls}: {why}: {op.text[:80]}")

    def note(self, op: Op, answer: str, tuples: int | None = None) -> None:
        answer = canonical(op, answer)
        prev = self.seen.get(op.key)
        if prev is None:
            self.seen[op.key] = (op, answer, tuples, 1)
        elif (prev[1], prev[2]) != (answer, tuples):
            self.fail(op, "answer changed between repeats")
        else:
            self.seen[op.key] = (*prev[:3], prev[3] + 1)

    def verify(self, oracle: Oracle) -> str:
        """Compare every distinct answer with the oracle's; returns the
        sha256 over all expected answers (equal across runs of one seed)."""
        combined = hashlib.sha256()
        per_class: dict[str, int] = {}
        for key in sorted(self.seen):
            op, answer, tuples, n_ops = self.seen[key]
            per_class[op.cls] = per_class.get(op.cls, 0) + 1
            try:
                want, want_tuples = oracle.answer(
                    op, naive=per_class[op.cls] <= oracle.naive_per_class)
            except AssertionError as exc:
                self.failed += n_ops
                self.errors.append(str(exc))
                continue
            combined.update(hashlib.sha256(want.encode("utf-8")).digest())
            if answer != want or \
                    (tuples is not None and tuples != want_tuples):
                self.failed += n_ops
                if len(self.errors) < 5:
                    self.errors.append(f"{op.cls}: wrong answer: {key[:80]}")
        return combined.hexdigest()
