"""Sparse elements: dicts that map keys to nonzero entries.

Every element type of the library is a finite sum in the dense
*-subalgebra of its C*-algebra, stored as a dict of its nonzero entries:
Laurent coefficients by exponent, values of a cyclic function by point,
matrix entries by (row, column), odometer values by (U-degree, cylinder).
One base, ``Sparse``, writes what they share: construction, ``+``, ``-``
(binary and unary), ``==``, ``is_zero`` and the check that two operands lie
on one space (``_operands``, which the odometer overrides to promote both
operands to a common depth).  A result carries the fields of its left
operand (``_like``), and a sum or difference passes through ``_summed``,
where the Fock layer takes the smaller trust.  ``a - b`` merges the two
dicts key by key (``sub_entries``), not as ``a + (-b)``: an entry of ``b``
is negated only where ``a`` has no entry under its key, and where both
entries are equal scalars the difference is zero with no reduction.

The types differ only in their products, of three kinds:

* ``SparseSum``, a twisted Laurent sum, for circle functions (x = z, the
  identity twist), cyclic functions (pointwise, in ``coeff``) and the stage
  algebras' crossed elements (x = u, twist alpha^(n*l)):

      (a x^l)(b x^r) = a * twist(l, b) * x^(l+r),    (a x^l)* = twist(-l, a*) x^(-l),

  rejecting exponents above ``DEGREE_CAP`` in absolute value;
* ``SquareMatrix``, the matrix product and the transposing star, for stage
  matrices, Fock operators and Fock block matrices;
* the odometer crossed product in ``cantor``, keyed by (U-degree, cylinder)
  and uncapped.

**The zero rule.**  Construction, sums and products drop zero entries, and
nothing else tests for zero: negation, star, alpha-twists and re-keyings
send nonzero entries to nonzero entries, so they build their results with
``_like`` as they are, naming any field that changes (the connecting map's
stage, the odometer's depth).  Hence two elements are equal exactly when their
dicts have the same keys and equal entries under each key, which is dict
equality: ``==``, and the Fock layer's ``agrees`` on its trusted window,
compare the dicts with ``==`` instead of building the difference.
``shuffled_entries`` is the canonical shuffle M_p(M_n) -> M_(pn) of matrices
and block matrices.

In element JSON an exponent dict is keyed ``<symbol>:<exponent>``.
``exponent_from_key`` accepts a key only in exactly that spelling, so that
two keys cannot name the same exponent, and ``json_int`` admits only a JSON
integer where an element stores a size, a twist or a depth.
"""

from __future__ import annotations

import operator
from types import MappingProxyType
from typing import Callable

from .errors import BudgetError, MismatchError

#: u- and z-degree above which Laurent products are rejected.
DEGREE_CAP = 64


class Sparse:
    """An element stored as ``{key: entry}`` with no zero entry.

    The one place where construction, ``+``, ``-``, ``==`` and the zero
    test are written.  A subclass lists its fields besides ``entries`` in
    ``__slots__`` and names the fields two operands must share in ``_space``
    (by default their type), or overrides ``_operands`` to bring both
    operands onto one space.  A result carries the fields of its left
    operand.
    """

    __slots__ = ("entries",)
    _space = type

    def __init__(self, entries: dict | None = None):
        self.entries = self._nonzero(entries or {})

    @staticmethod
    def _nonzero(entries: dict) -> dict:
        return {key: x for key, x in entries.items() if not x.is_zero()}

    def _like(self, entries: dict, **fields):
        """This element's fields, except those given in ``fields``, with ``entries`` as given,
        each of which must be nonzero and lie on the result's space."""
        new = object.__new__(type(self))
        for field in self.__slots__:
            setattr(new, field, getattr(self, field))
        for field, value in fields.items():
            setattr(new, field, value)
        new.entries = entries
        return new

    def _pruned(self, entries: dict):
        """``_like`` for a sum or a product, whose entries may cancel: zero entries are dropped."""
        return self._like(self._nonzero(entries))

    def _summed(self, other: Sparse, entries: dict):
        """The sum or difference of this element and ``other`` (on its space), with ``entries`` as merged."""
        return self._pruned(entries)

    def _operands(self, other: Sparse) -> tuple[Sparse, Sparse]:
        """Both operands on one space; MismatchError if they lie on different ones."""
        if self._space(self) != self._space(other):
            raise MismatchError(f"{type(self).__name__} operands on different spaces")
        return self, other

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other):
        a, b = self._operands(other)
        return a._summed(b, add_entries(a.entries, b.entries))

    def __sub__(self, other):
        a, b = self._operands(other)
        return a._summed(b, sub_entries(a.entries, b.entries))

    def __neg__(self):
        return self._like({key: -x for key, x in self.entries.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        a, b = self._operands(other)
        return a.entries == b.entries


class SparseSum(Sparse):
    """A finite sum  sum_l a_l x^l  stored as ``{l: a_l}``.

    A Laurent sum names its variable in ``_symbol`` and twists the right
    factor of a product in ``_twist``.
    """

    __slots__ = ()

    @property
    def coeffs(self):
        """A read-only view of ``entries``."""
        return MappingProxyType(self.entries)

    def _twist(self, l: int, b):
        """What moving x^l past the coefficient b makes of it; the identity unless overridden."""
        return b

    def _product(self, other):
        """The twisted Laurent product; BudgetError as soon as some |l + r| exceeds ``DEGREE_CAP``."""
        a, b = self._operands(other)
        twist, out = a._twist, {}
        for l, x in a.entries.items():
            for r, y in b.entries.items():
                e = l + r
                if abs(e) > DEGREE_CAP:
                    raise BudgetError(f"{self._symbol}-degree {e} exceeds cap {DEGREE_CAP}")
                prod = x * twist(l, y)
                out[e] = out[e] + prod if e in out else prod
        return a._pruned(out)

    def star(self):
        twist = self._twist
        return self._like({-l: twist(-l, a.star()) for l, a in self.entries.items()})

    def to_json(self) -> dict:
        return {f"{self._symbol}:{l}": self.entries[l].to_json() for l in sorted(self.entries)}

    def __repr__(self) -> str:
        if not self.entries:
            return "0"
        x = self._symbol
        return " + ".join(f"({self.entries[l]!r})*{x}^{l}" if l else f"({self.entries[l]!r})"
                          for l in sorted(self.entries))


class SquareMatrix(Sparse):
    """A square matrix ``{(row, column): entry}``.

    A subclass builds its entries with ``_admit`` and refuses an entry of
    another space in ``_check_entry``.
    """

    __slots__ = ()

    def _admit(self, entries: dict | None, size: int) -> dict:
        """The nonzero ``entries``, each checked to lie in the size x size square and on this matrix's space."""
        entries, check = entries or {}, self._check_entry
        for (i, j), x in entries.items():
            if not (0 <= i < size and 0 <= j < size):
                raise MismatchError(f"entry ({i},{j}) outside {size}x{size} matrix")
            check(x)
        return self._nonzero(entries)

    def _check_entry(self, x) -> None:
        """MismatchError if x is an entry of another space; any entry passes unless overridden."""

    def star(self):
        return self._like({(j, i): x.star() for (i, j), x in self.entries.items()})

    def _product(self, other, mul: Callable = operator.mul):
        a, b = self._operands(other)
        return a._pruned(mul_entries(a.entries, b.entries, mul))


def add_entries(a: dict, b: dict) -> dict:
    """Key-by-key sum; a key present in one dict only keeps its entry."""
    merged = dict(a)
    for key, y in b.items():
        merged[key] = merged[key] + y if key in merged else y
    return merged


def sub_entries(a: dict, b: dict) -> dict:
    """Key-by-key difference; a key present in ``b`` only gets its entry negated."""
    merged = dict(a)
    for key, y in b.items():
        merged[key] = merged[key] - y if key in merged else -y
    return merged


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
