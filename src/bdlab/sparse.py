"""Sparse sums and products of dicts that map keys to entries.

Every element type of the library stores only its nonzero entries in a dict:
Laurent coefficients by exponent, values of a cyclic function by point,
matrix entries by (row, column).  Two such dicts add key by key
(``add_entries``) and two (row, column) dicts multiply as matrices
(``mul_entries``); neither prunes zeros: the type that receives the dict
does.  Two cores write the element operations once each.  ``SquareMatrix``
does so for stage matrices, Fock operators and Fock block matrices.
``SparseSum`` does so for the coefficient layer: circle functions, cyclic
functions and the stage algebras' crossed elements.

The two algebras with Laurent coefficients multiply by one rule,

    (a x^l)(b x^r) = a * twist(l, b) * x^(l+r),    (a x^l)* = twist(-l, a*) x^(-l),

with the twist the identity on C(T) = C*(Z) (x = z) and alpha^(n*l) on the
stage algebra A x_(alpha^n) Z (x = u).  ``SparseSum`` writes that product,
rejecting exponents above ``DEGREE_CAP`` in absolute value, and that star.
The odometer crossed product keys its terms by (U-degree, cylinder) and
multiplies them in ``cantor``, uncapped.

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


class SparseSum(Subtraction):
    """A finite sum  sum_l a_l x^l  stored as ``{l: a_l}`` with no zero coefficient.

    The one place where the coefficient-level operations are written.  A
    subclass lists its fields besides ``coeffs`` in ``__slots__``, reads those
    two operands must share with ``_space`` (by default their type), and a
    Laurent sum names its variable in ``_symbol`` and twists the right factor
    of a product in ``_twist``.  A result carries the fields of its left
    operand.
    """

    __slots__ = ("coeffs",)
    _space = type

    def __init__(self, coeffs: dict | None = None):
        self.coeffs = {l: a for l, a in (coeffs or {}).items() if not a.is_zero()}

    def _like(self, coeffs: dict):
        """This element's fields with the nonzero ``coeffs``, which need no other check."""
        new = object.__new__(type(self))
        for field in self.__slots__:
            setattr(new, field, getattr(self, field))
        new.coeffs = {l: a for l, a in coeffs.items() if not a.is_zero()}
        return new

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other: SparseSum) -> None:
        if self._space(self) != self._space(other):
            raise MismatchError(f"{type(self).__name__} operands on different spaces")

    def __add__(self, other):
        self._check(other)
        return self._like(add_entries(self.coeffs, other.coeffs))

    def __neg__(self):
        return self._like({l: -a for l, a in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return equal_entries(self.coeffs, other.coeffs)

    def _twist(self, l: int, b):
        """What moving x^l past the coefficient b makes of it; the identity unless overridden."""
        return b

    def _product(self, other):
        """The twisted Laurent product; BudgetError as soon as some |l + r| exceeds ``DEGREE_CAP``."""
        self._check(other)
        twist, out = self._twist, {}
        for l, a in self.coeffs.items():
            for r, b in other.coeffs.items():
                e = l + r
                if abs(e) > DEGREE_CAP:
                    raise BudgetError(f"{self._symbol}-degree {e} exceeds cap {DEGREE_CAP}")
                prod = a * twist(l, b)
                out[e] = out[e] + prod if e in out else prod
        return self._like(out)

    def star(self):
        twist = self._twist
        return self._like({-l: twist(-l, a.star()) for l, a in self.coeffs.items()})

    def to_json(self) -> dict:
        return {f"{self._symbol}:{l}": self.coeffs[l].to_json() for l in sorted(self.coeffs)}

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        x = self._symbol
        return " + ".join(f"({self.coeffs[l]!r})*{x}^{l}" if l else f"({self.coeffs[l]!r})" for l in sorted(self.coeffs))


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
