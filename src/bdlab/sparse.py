"""Sparse sums and products of dicts that map keys to entries.

Every sparse element type of the library stores only its nonzero entries in a
dict: Laurent coefficients by exponent, matrix entries by (row, column).  Two
such dicts add key by key, and two (row, column) dicts multiply as matrices;
these are the only places where that is written out.  Neither ``add_entries``
nor ``mul_entries`` prunes zeros: the constructor of the type that receives
the dict does.

Because the constructors drop exact-zero entries, two elements are equal
exactly when their dicts have the same keys and equal entries under each key
(``equal_entries``): a key held by one dict only carries a nonzero entry.  So
``__eq__`` compares entries in place instead of building the difference.
"""

from __future__ import annotations

from typing import Callable


def add_entries(a: dict, b: dict) -> dict:
    """Key-by-key sum; a key present in one dict only keeps its entry."""
    merged = dict(a)
    for key, y in b.items():
        merged[key] = merged[key] + y if key in merged else y
    return merged


def equal_entries(a: dict, b: dict) -> bool:
    """Same keys and equal entries; exact when neither dict stores a zero entry."""
    return a.keys() == b.keys() and all(x == b[key] for key, x in a.items())


def mul_entries(a: dict, b: dict, mul: Callable) -> dict:
    """Matrix product of two (row, column) dicts, entries multiplied by mul."""
    by_row: dict = {}
    for (k, j), y in b.items():
        by_row.setdefault(k, []).append((j, y))
    out: dict = {}
    for (i, k), x in a.items():
        for j, y in by_row.get(k, ()):
            prod = mul(x, y)
            key = (i, j)
            out[key] = out[key] + prod if key in out else prod
    return out
