"""Sparse sums and products of dicts that map keys to entries.

Every sparse element type of the library stores only its nonzero entries in a
dict: Laurent coefficients by exponent, matrix entries by (row, column).  Two
such dicts add key by key, two (row, column) dicts multiply as matrices, and
two exponent dicts multiply as twisted Laurent sums; these are the only places
where that is written out.  None of ``add_entries``, ``mul_entries`` and
``convolve_entries`` prunes zeros: the type that receives the dict does.
``SquareMatrix`` is the one place where the matrix operations are written, for
stage matrices, Fock operators and Fock block matrices alike.

The two algebras with Laurent coefficients multiply by one rule,

    (a u^l)(b u^r) = a * twist^l(b) * u^(l+r),

with the twist the identity on C(T) and alpha^n on the stage algebra
A x_(alpha^n) Z.  ``convolve_entries`` is that rule with the twisted product
``mul(l, a, b)`` supplied by the caller; exponents above ``DEGREE_CAP`` in
absolute value are rejected.  The odometer crossed product keys its terms by
(U-degree, cylinder) and multiplies them in ``cantor``, uncapped.

Because the constructors drop exact-zero entries, two elements are equal
exactly when their dicts have the same keys and equal entries under each key
(``equal_entries``): a key held by one dict only carries a nonzero entry.  So
``__eq__``, and the Fock layer's ``agrees`` on its trusted window, compare
entries in place instead of building the difference.  ``shuffled_entries``
is the canonical shuffle M_p(M_n) -> M_(pn) of matrices and block matrices.

In element JSON an exponent dict is keyed ``<symbol>:<exponent>``.
``exponent_from_key`` accepts a key only in exactly that spelling, so that
two keys cannot name the same exponent, and ``json_int`` admits only a JSON
integer where an element stores a size, a twist or a depth.
"""

from __future__ import annotations

import operator
from typing import Callable

from .errors import BudgetError, MismatchError

#: u- and z-degree above which Laurent products are rejected.
DEGREE_CAP = 64


class Subtraction:
    """``a - b`` as ``a + (-b)`` for element types that define ``+`` and unary ``-``."""

    __slots__ = ()

    def __sub__(self, other):
        return self + (-other)


class SquareMatrix(Subtraction):
    """A square matrix ``{(row, column): entry}`` that stores no zero entry.

    The one place where the library's matrix operations are written.  A
    subclass lists its fields in ``__slots__``, reads those two operands must
    share with ``_space``, and refuses an entry of another space in
    ``_admits``.  A result carries the fields of its left operand.
    """

    __slots__ = ()

    def _admit(self, entries: dict | None, size: int) -> dict:
        """The entries that ``_admits``, each checked to lie in the size x size square."""
        admits, clean = self._admits, {}
        for key, x in (entries or {}).items():
            i, j = key
            if not (0 <= i < size and 0 <= j < size):
                raise MismatchError(f"entry ({i},{j}) outside {size}x{size} matrix")
            if admits(x):
                clean[key] = x
        return clean

    def _admits(self, x) -> bool:
        """Whether to store the entry x; raises MismatchError if x is of another space."""
        return not x.is_zero()

    def _like(self, entries: dict):
        """This matrix's fields with the nonzero ``entries``, which need no other check."""
        new = object.__new__(type(self))
        for field in self.__slots__:
            setattr(new, field, getattr(self, field))
        new.entries = {key: x for key, x in entries.items() if not x.is_zero()}
        return new

    def _check(self, other: SquareMatrix) -> None:
        if self._space(self) != self._space(other):
            raise MismatchError(f"{type(self).__name__} operands on different spaces")

    def __add__(self, other):
        self._check(other)
        return self._like(add_entries(self.entries, other.entries))

    def __neg__(self):
        return self._like({key: -x for key, x in self.entries.items()})

    def star(self):
        return self._like({(j, i): x.star() for (i, j), x in self.entries.items()})

    def _product(self, other, mul: Callable = operator.mul):
        self._check(other)
        return self._like(mul_entries(self.entries, other.entries, mul))


def add_entries(a: dict, b: dict) -> dict:
    """Key-by-key sum; a key present in one dict only keeps its entry."""
    merged = dict(a)
    for key, y in b.items():
        merged[key] = merged[key] + y if key in merged else y
    return merged


def equal_entries(a: dict, b: dict) -> bool:
    """Same keys and equal entries; exact when neither dict stores a zero entry."""
    return a.keys() == b.keys() and all(x == b[key] for key, x in a.items())


def shuffled_entries(entries: dict, p: int, size: int) -> dict:
    """(row, column) entries with each index b*n + i moved to i*p + b, n = size // p."""
    n = size // p
    perm = [i * p + b for b in range(p) for i in range(n)]
    return {(perm[r], perm[c]): x for (r, c), x in entries.items()}


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


def convolve_entries(a: dict, b: dict, mul: Callable, symbol: str = "u") -> dict:
    """Laurent product of two exponent dicts: mul(l, x, y) lands at l + r.

    Raises BudgetError, naming the ``symbol``-degree, as soon as some
    |l + r| exceeds ``DEGREE_CAP``.
    """
    out: dict = {}
    for l, x in a.items():
        for r, y in b.items():
            e = l + r
            if abs(e) > DEGREE_CAP:
                raise BudgetError(f"{symbol}-degree {e} exceeds cap {DEGREE_CAP}")
            prod = mul(l, x, y)
            out[e] = out[e] + prod if e in out else prod
    return out


def exponent_from_key(key: str, symbol: str) -> int:
    """The exponent of the JSON key ``<symbol>:<exponent>``, spelled as ``to_json`` spells it."""
    try:
        exponent = int(key.removeprefix(symbol + ":"))
    except ValueError:
        exponent = None
    if key != f"{symbol}:{exponent}":
        raise ValueError(f"bad {symbol}-exponent key {key!r}")
    return exponent


def json_int(data: dict, field: str) -> int:
    """``data[field]``, which must be a JSON integer: not a float, a bool or a string."""
    value = data[field]
    if type(value) is not int:
        raise ValueError(f"{field!r} must be an integer, got {type(value).__name__}")
    return value
