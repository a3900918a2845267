"""Synthetic XMark-like document generator for tests and benchmarks.

Miniature auction-site documents with the *structural* character the paper
relies on: highly regular element structure (so hash-consing collapses the
skeleton to a few dozen nodes regardless of document size) with varying
text values (so data vectors grow linearly).  A small amount of structural
irregularity — optional fields — keeps run-length indexes honest.
"""

from __future__ import annotations

import random

_REGIONS = ("africa", "asia", "europe", "namerica")
_LOCATIONS = (
    "United States", "Germany", "Japan", "Kenya", "Brazil", "Australia",
)
_EDUCATION = ("High School", "College", "Graduate School")
_INTERESTS = ("auctions", "astronomy", "databases", "music", "hiking")


def xmark_like_xml(n_people: int, seed: int = 0) -> str:
    """An auction-site document with ``n_people`` people, a proportional
    number of items and closed auctions (~13 nodes per person overall)."""
    rng = random.Random(seed)
    n_items = max(1, n_people // 2)
    n_auctions = max(1, n_people // 4)
    out: list[str] = ["<site>"]

    out.append("<regions>")
    for r, region in enumerate(_REGIONS):
        out.append(f"<{region}>")
        for i in range(r, n_items, len(_REGIONS)):
            location = _LOCATIONS[rng.randrange(len(_LOCATIONS))]
            quantity = rng.randint(1, 9)
            out.append(
                f'<item id="item{i}">'
                f"<location>{location}</location>"
                f"<quantity>{quantity}</quantity>"
                f"<name>thing {i}</name>"
                f"<payment>Cash</payment>"
                "</item>"
            )
        out.append(f"</{region}>")
    out.append("</regions>")

    out.append("<people>")
    for i in range(n_people):
        age = rng.randint(18, 80)
        out.append(
            f'<person id="person{i}">'
            f"<name>name {i}</name>"
            f"<emailaddress>mailto:person{i}@example.com</emailaddress>"
        )
        if rng.random() < 0.3:
            out.append(f"<phone>+1 555 {i:07d}</phone>")
        out.append(f"<profile><age>{age}</age>")
        if rng.random() < 0.5:
            out.append(
                f"<education>{_EDUCATION[rng.randrange(len(_EDUCATION))]}"
                "</education>"
            )
        for _ in range(rng.randrange(3)):
            out.append(
                f"<interest>{_INTERESTS[rng.randrange(len(_INTERESTS))]}"
                "</interest>"
            )
        out.append("</profile></person>")
    out.append("</people>")

    out.append("<closed_auctions>")
    for i in range(n_auctions):
        price = rng.randint(5, 500)
        buyer = rng.randrange(n_people) if n_people else 0
        out.append(
            "<closed_auction>"
            f"<price>{price}</price>"
            f"<buyer>person{buyer}</buyer>"
            f"<date>2005-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}</date>"
            "</closed_auction>"
        )
    out.append("</closed_auctions>")

    out.append("</site>")
    return "".join(out)

