"""Stage algebras: twisted Laurent sums and matrices over them.

A ``CrossedElement`` is a finite sum  sum_l a_l u^l  over a coefficient
algebra (A, alpha), where the unitary u twists by a fixed power n of alpha:

    u * a = alpha^n(a) * u

Its sums, twisted product, star and u-degree cap are those of
``sparse.SparseSum`` with the twist alpha^(n*l), and ``MatrixElement``'s are
those of ``sparse.SquareMatrix``.  Only finite sums are
represented; this is the dense *-subalgebra of the crossed product, which is
where every identity verified in this library lives.

``MatrixElement`` wraps square matrices of crossed elements sharing one
(algebra, power) pair; stage algebras take power == size, but the power is
kept separate so that p x p blocks of n x n stage matrices can be flattened
before the amplification shuffle re-tags them.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction

from .coeff import CoefficientAlgebra
from .errors import MismatchError
from .scalar import Scalar
from .sparse import SparseSum, SquareMatrix, exponent_from_key, json_int

#: Largest |u-degree| of a sampled crossed element.
SAMPLE_U_DEGREE = 2


class CrossedElement(SparseSum):
    """A finite sum  sum_l a_l u^l  in A x_(alpha^power) Z."""

    __slots__ = ("algebra", "power")
    _symbol = "u"
    _space = operator.attrgetter("algebra", "power")

    def __init__(self, algebra: CoefficientAlgebra, power: int, coeffs: dict | None = None):
        self.algebra = algebra
        self.power = power
        super().__init__(coeffs)

    @staticmethod
    def unit(algebra: CoefficientAlgebra, power: int) -> CrossedElement:
        return CrossedElement(algebra, power, {0: algebra.one()})

    @staticmethod
    def from_coefficient(algebra: CoefficientAlgebra, power: int, a) -> CrossedElement:
        return CrossedElement(algebra, power, {0: a})

    @staticmethod
    def u_power(algebra: CoefficientAlgebra, power: int, u_exponent: int = 1) -> CrossedElement:
        return CrossedElement(algebra, power, {u_exponent: algebra.one()})

    def _twist(self, l: int, b):
        return self.algebra.alpha_power(b, self.power * l)

    def __mul__(self, other: CrossedElement) -> CrossedElement:
        return self._product(other)

    def expectation(self):
        """Conditional expectation onto A: the u^0 coefficient."""
        return self.entries.get(0, self.algebra.zero())

    def trace(self) -> Scalar:
        """trace0 of the conditional expectation; tracial on the dense subalgebra."""
        return self.algebra.trace0(self.expectation())

    def to_json(self, tag: dict | None = None) -> dict:
        """``tag``, when given, stands for ``algebra.tag()``: a matrix builds it once for all its entries."""
        return {"n": self.power, "algebra": self.algebra.tag() if tag is None else tag, "coeffs": super().to_json()}

    @staticmethod
    def from_json(data: dict, algebra: CoefficientAlgebra | None = None) -> CrossedElement:
        if algebra is None:
            algebra = CoefficientAlgebra.from_tag(data["algebra"])
        coeffs = {exponent_from_key(key, "u"): algebra.element_from_json(val)
                  for key, val in data.get("coeffs", {}).items()}
        return CrossedElement(algebra, json_int(data, "n"), coeffs)


def sample_crossed(algebra: CoefficientAlgebra, power: int, rng: random.Random) -> CrossedElement:
    coeffs = {}
    for _ in range(rng.randint(1, 2)):
        coeffs[rng.randint(-SAMPLE_U_DEGREE, SAMPLE_U_DEGREE)] = algebra.sample(rng)
    return CrossedElement(algebra, power, coeffs)


class MatrixElement(SquareMatrix):
    """A size x size matrix over one crossed-product algebra."""

    __slots__ = ("algebra", "power", "size")
    _space = operator.attrgetter("algebra", "power", "size")

    def __init__(self, algebra: CoefficientAlgebra, power: int, size: int, entries: dict | None = None):
        self.algebra = algebra
        self.power = power
        self.size = size
        self.entries = self._admit(entries, size)

    def _check_entry(self, x: CrossedElement) -> None:
        if (x.algebra is not self.algebra and x.algebra != self.algebra) or x.power != self.power:
            raise MismatchError("matrix entry from a different stage algebra")

    @staticmethod
    def identity(algebra: CoefficientAlgebra, power: int, size: int) -> MatrixElement:
        unit = CrossedElement.unit(algebra, power)
        return MatrixElement(algebra, power, size, {(i, i): unit for i in range(size)})

    @staticmethod
    def single(algebra: CoefficientAlgebra, power: int, size: int, i: int, j: int, x: CrossedElement | None = None) -> MatrixElement:
        """x * e_{i,j}; with x omitted, the matrix unit e_{i,j}."""
        if x is None:
            x = CrossedElement.unit(algebra, power)
        return MatrixElement(algebra, power, size, {(i, j): x})

    def entry(self, i: int, j: int) -> CrossedElement:
        return self.entries.get((i, j), CrossedElement(self.algebra, self.power))

    def __mul__(self, other: MatrixElement) -> MatrixElement:
        return self._product(other)

    def trace(self) -> Scalar:
        """Normalized matrix trace (1/size) * sum of diagonal stage traces."""
        total = Scalar.zero()
        for i in range(self.size):
            x = self.entries.get((i, i))
            if x is not None:
                total = total + x.trace()
        return Fraction(1, self.size) * total

    def with_twist(self, algebra: CoefficientAlgebra, power: int) -> MatrixElement:
        """Re-tag entries under a different (algebra, power) presenting the same twist.

        Valid only when alpha_old^old_power == alpha_new^new_power as
        automorphisms, e.g. rotation stages (theta, n) vs (theta/p, p*n).
        """
        if self.algebra.composite_tag(self.power) != algebra.composite_tag(power):
            raise MismatchError("incompatible twist re-tag")
        entries = {key: x._like(x.entries, algebra=algebra, power=power) for key, x in self.entries.items()}
        return self._like(entries, algebra=algebra, power=power)

    def to_json(self) -> dict:
        """Every entry is written with the matrix's one algebra tag (``_check_entry`` makes it theirs),
        and every absent entry as one shared zero-entry JSON."""
        tag = self.algebra.tag()
        zero = CrossedElement(self.algebra, self.power).to_json(tag)
        rows = [[zero] * self.size for _ in range(self.size)]
        for (i, j), x in self.entries.items():
            rows[i][j] = x.to_json(tag)
        return {"size": self.size, "entries": rows}

    @staticmethod
    def from_json(data: dict) -> MatrixElement:
        """``entries`` must be size rows of size entries, and every entry's tag must name one algebra;
        a tag spelled like the first is not reparsed."""
        size = json_int(data, "size")
        if size < 1:
            raise ValueError("empty matrix JSON")
        rows = data["entries"]
        shape = f"malformed element JSON: a size {size} matrix needs {size} rows of {size} entries"
        if len(rows) != size:
            raise ValueError(f"{shape}, got {len(rows)} rows")
        for i, row in enumerate(rows):
            if len(row) != size:
                raise ValueError(f"{shape}, got {len(row)} in row {i}")
        first = algebra = None
        entries = {}
        for i in range(size):
            for j in range(size):
                tag = rows[i][j].get("algebra")
                if tag is None:
                    raise ValueError(f"matrix entry ({i},{j}) has no algebra tag")
                if first is None:
                    first, algebra = tag, CoefficientAlgebra.from_tag(tag)
                elif tag != first and CoefficientAlgebra.from_tag(tag) != algebra:
                    raise MismatchError(f"matrix entry ({i},{j}) is tagged with a different algebra")
                entries[(i, j)] = CrossedElement.from_json(rows[i][j], algebra)
        return MatrixElement(algebra, entries[(0, 0)].power, size, entries)

    def __repr__(self) -> str:
        body = ", ".join(f"({i},{j}): {x!r}" for (i, j), x in sorted(self.entries.items()))
        return f"Matrix{self.size}[{body}]"


def sample_matrix(algebra: CoefficientAlgebra, power: int, size: int, rng: random.Random) -> MatrixElement:
    entries = {}
    for i in range(size):
        for j in range(size):
            if rng.random() < 0.5:
                entries[(i, j)] = sample_crossed(algebra, power, rng)
    return MatrixElement(algebra, power, size, entries)
