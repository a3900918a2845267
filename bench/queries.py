"""Parameterised query classes and the seeded request sequences.

Every class is a template with one parameter drawn from a *stratified*
pool: each seed gets the same spread of parameter values (one per stratum
of the value range), only which value inside a stratum and their order
change.  That keeps the work per run comparable across seeds, which iid
draws from a 63-value age range would not.

XQ templates carry the returned element's tag as a second parameter.  The
served workload uses it to build query texts that are unique (a result
cache keyed on text must miss) yet do exactly the work of the canonical
text, whose answer the oracle knows: the expected bytes are the canonical
answer with the tag substituted.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

#: canonical returned-element tag; no generated document contains it
CANON_TAG = "t"
POOL = 12          # distinct parameters per class
HOT_PER_CLASS = 5  # x 4 XQ classes = the 20-query hot set
#: served requests come in blocks of 20: 2 /xpath and 13 hot-set draws
#: (cache hits once warm) to 5 uniquely tagged ones (always misses) —
#: 75 % hits exactly, so the work in a time box does not ride on the luck
#: of iid draws (they moved served throughput by 13 % between seeds)
BLOCK = ("xpath",) * 2 + ("hot",) * 13 + ("cold",) * 5

_LOCATIONS = ("United States", "Germany", "Japan", "Kenya", "Brazil",
              "Australia")

TEMPLATES = {
    # -- selections over xmark8 (warm_select, cold_query, serve_mixed)
    "needle": ("xq", "for $p in /site/people/person "
               "where $p/name = 'name {k}' "
               "return <{tag}>{{$p/emailaddress}}</{tag}>"),
    "sel": ("xq", "for $p in /site/people/person "
            "where $p/profile/age = '{k}' "
            "return <{tag}>{{$p/name}}</{tag}>"),
    "range": ("xq", "for $p in /site/people/person "
              "where $p/profile/age >= '{k}' "
              "return <{tag}>{{$p/name}}{{$p/emailaddress}}</{tag}>"),
    "proj": ("xq", "for $i in //item where $i/location = '{k[0]}' "
             "and $i/quantity > '{k[1]}' "
             "return <{tag}>{{$i/name/text()}}</{tag}>"),
    "xpath": ("xpath", "/site/people/person[profile/age = '{k}']/name"),
    # -- joins over joins4 (warm_join)
    "join": ("xq", "for $c in /site/closed_auctions/closed_auction, "
             "$p in /site/people/person where $c/buyer = $p/@id "
             "return <{tag}>{{$p/name}}{{$c/price}}</{tag}>"),
    "joinsel": ("xq", "for $c in //closed_auction, $p in //person "
                "where $p/profile/age > '{k}' and $c/buyer = $p/@id "
                "return <{tag}>{{$p/emailaddress}}{{$c/date}}</{tag}>"),
    "combo": ("xq", "for $i in //item, $j in //item "
              "where $i/quantity > '{k[1]}' and $i/location = '{k[0]}' "
              "and $j/quantity > '{k[1]}' and $j/location = '{k[0]}' "
              "return <{tag}>{{$i/name}}{{$j/name}}</{tag}>"),
    # -- //-heavy queries over deep (deep_tree)
    "deep_path": ("xpath", "//NP/NN"),
    "deep_pred": ("xpath", "//VP[NN = 'w{k}']/DT"),
    "deep_xq": ("xq", "for $n in //NP where $n/NN = 'w{k}' "
                "return <{tag}>{{$n/DT}}</{tag}>"),
}

SELECT_CLASSES = ("needle", "sel", "range", "proj", "xpath")
COLD_CLASSES = ("needle", "sel", "range", "proj")
JOIN_CLASSES = ("join", "joinsel", "combo")
DEEP_CLASSES = ("deep_path", "deep_pred", "deep_xq")


@dataclass(frozen=True)
class Op:
    cls: str     # query class
    kind: str    # "xq" | "xpath"
    text: str    # what the program is sent
    key: str     # the canonical text: identifies the expected answer
    tag: str     # returned-element tag used in ``text`` ("" for xpath)


def make_op(cls: str, k, tag: str = CANON_TAG) -> Op:
    kind, template = TEMPLATES[cls]
    if kind == "xpath":
        text = template.format(k=k)
        return Op(cls, kind, text, text, "")
    return Op(cls, kind, template.format(k=k, tag=tag),
              template.format(k=k, tag=CANON_TAG), tag)


def _stratified(rng: random.Random, values: list, n: int = POOL) -> list:
    """One value from each of ``n`` equal strata of ``values``, shuffled."""
    picks = [values[rng.randrange(i * len(values) // n,
                                  (i + 1) * len(values) // n)]
             for i in range(n)]
    rng.shuffle(picks)
    return picks


def param_pools(seed: int, max_people: int) -> dict[str, list]:
    """The per-class parameter pools of one seed."""
    rng = random.Random(seed * 31 + 7)
    ages = list(range(18, 81))
    return {
        "needle": _stratified(rng, list(range(max_people))),
        "sel": _stratified(rng, ages),
        "range": _stratified(rng, list(range(66, 78))),
        "proj": _stratified(rng, [(loc, q) for loc in _LOCATIONS
                                  for q in (5, 6, 7, 8)]),
        "xpath": _stratified(rng, ages),
        # the plain value join and //NP/NN have no parameter
        "join": [None] * POOL,
        "joinsel": _stratified(rng, list(range(36, 48))),
        "combo": _stratified(rng, [(loc, q) for loc in _LOCATIONS
                                   for q in (7, 8)]),
        "deep_path": [None] * POOL,
        "deep_pred": _stratified(rng, list(range(400))),
        "deep_xq": _stratified(rng, list(range(400))),
    }


def cycle(classes: tuple, pools: dict[str, list]) -> list[Op]:
    """One full cycle of the closed-loop sequence: classes round-robin,
    each class walking its pool — ``len(classes) * POOL`` distinct ops.
    Runs repeat the cycle until their time is up."""
    return [make_op(cls, pools[cls][j]) for j in range(POOL)
            for cls in classes]


def hot_set(pools: dict[str, list]) -> list[Op]:
    return [make_op(cls, pools[cls][j]) for cls in COLD_CLASSES
            for j in range(HOT_PER_CLASS)]


def serve_requests(seed: int, client: int, pools: dict[str, list]):
    """The endless request stream of one served client: ``BLOCK`` after
    ``BLOCK``, each shuffled by the seed.  Hot and ``/xpath`` draws walk
    their (shuffled) sets, cold draws walk classes and parameters, so
    every stretch of the stream carries the same work."""
    rng = random.Random(seed * 7919 + client)
    walks = {"hot": hot_set(pools),
             "xpath": [make_op("xpath", k) for k in pools["xpath"]],
             "cold": [(cls, pools[cls][j]) for j in range(POOL)
                      for cls in COLD_CLASSES]}
    rng.shuffle(walks["hot"])
    at = dict.fromkeys(walks, 0)
    block = list(BLOCK)
    n = 0
    while True:
        rng.shuffle(block)
        for kind in block:
            n += 1
            pick = walks[kind][at[kind] % len(walks[kind])]
            at[kind] += 1
            if kind == "cold":
                pick = make_op(*pick, tag=f"{CANON_TAG}{client}n{n}")
            yield pick


def sequence_hash(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.text.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()
