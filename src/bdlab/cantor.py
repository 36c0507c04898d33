"""Odometer crossed-product presentation on cylinder functions.

The Cantor set here is the product of finite digit sets of sizes m_i =
n_{i+1}/n_i for a configured divisibility chain n_1 = 1 | n_2 | ....  A
depth-k cylinder function depends on the first k-1 digits only, so it is a
table of n_k coefficient elements indexed by j = sum_i j_i n_i; on such
functions the odometer acts as the +1 cycle mod n_k, because carries past
digit k-1 are invisible to them.  The crossed-product automorphism is

    sigma(f)(x) = alpha^(sign)(f(odometer^(-1)(x)))

with sign = +1 for the tower of alpha and -1 for the tower of its inverse
(``dual()`` swaps the two).  An OdometerElement is a finite sum of terms
a delta_j U^d, with delta_j the indicator of depth-k cylinder j and the
relations U f U* = sigma(f).  It is stored as one sparse dict
{(d, j): a} of the nonzero values, because rho images and the indicators of
coefficient extraction are mostly zero.  Operands are promoted to a common
depth first (cylinder j splits into j + t n_k below n_(k')), and on terms

    (a delta_j U^d)(b delta_i U^e) = a alpha^(sign d)(b) delta_j U^(d+e)

when i = j - d mod n_k, and 0 otherwise, so alpha is applied only to the
values that meet.  Star, sigma^d, psi and rho are key maps with alpha on
the moved values.  The dense table of each U-degree, zeros filled by
``coeff.zero()``, is rebuilt only for JSON, so serialized forms are those
of a list of cylinder functions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .coeff import CoefficientAlgebra
from .crossed import CrossedElement, MatrixElement, sample_matrix
from .errors import MismatchError
from .limits import _stage_cases, check_divisibility_chain, gamma
from .report import Report, case_rng
from .scalar import Scalar
from .sparse import Subtraction, add_entries, equal_entries, exponent_from_key, json_int


@dataclass(frozen=True)
class StageSequence:
    """A divisibility chain n_1 = 1 | n_2 | ... with its digit radii."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", check_divisibility_chain(self.sizes))

    @property
    def radii(self) -> tuple[int, ...]:
        return tuple(b // a for a, b in zip(self.sizes, self.sizes[1:]))

    @property
    def depth(self) -> int:
        return len(self.sizes)

    def size(self, stage: int) -> int:
        if not (1 <= stage <= len(self.sizes)):
            raise MismatchError(f"stage {stage} outside configured sequence")
        return self.sizes[stage - 1]

    def index_to_digits(self, index: int, stage: int) -> tuple[int, ...]:
        """Digits (j_1, ..., j_{stage-1}) with sum j_i n_i = index."""
        n = self.size(stage)
        index %= n
        digits = []
        for m in self.radii[: stage - 1]:
            digits.append(index % m)
            index //= m
        return tuple(digits)


def odometer_step(radii, digits, direction: int = 1) -> tuple[int, ...]:
    """Add-one-with-carry (direction=+1) or its inverse (-1) on mixed-radix digits.

    A carry past the last digit wraps: on the depth-k truncation this is
    exactly index +-1 mod n_k.
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    digits = list(digits)
    for i, m in enumerate(radii[: len(digits)]):
        if direction == 1:
            if digits[i] < m - 1:
                digits[i] += 1
                break
            digits[i] = 0
        else:
            if digits[i] > 0:
                digits[i] -= 1
                break
            digits[i] = m - 1
    return tuple(digits)


def flip_digits(radii, digits) -> tuple[int, ...]:
    """Digitwise complement g: x_i -> m_i - 1 - x_i."""
    return tuple(m - 1 - d for d, m in zip(digits, radii))


@dataclass(frozen=True)
class OdometerAlgebra:
    """The crossed product of depth-limited cylinder functions by sigma."""

    stages: StageSequence
    coeff: CoefficientAlgebra
    alpha_sign: int = 1

    def __post_init__(self):
        if self.alpha_sign not in (1, -1):
            raise MismatchError("alpha_sign must be +1 or -1")

    def dual(self) -> OdometerAlgebra:
        """The same functions crossed by sigma' (alpha replaced by its inverse)."""
        return replace(self, alpha_sign=-self.alpha_sign)

    def twist(self, a, d: int):
        """alpha^(sign*d)(a), the value that sigma^d carries along; alpha is not applied at d = 0."""
        return self.coeff.alpha_power(a, self.alpha_sign * d) if d else a

    def function(self, values, depth: int) -> OdometerElement:
        """The cylinder function with values[j] on depth-``depth`` cylinder j."""
        values = tuple(values)
        n = self.stages.size(depth)
        if len(values) != n:
            raise MismatchError(f"depth-{depth} cylinder function needs {n} values")
        return OdometerElement(self, {(0, j): v for j, v in enumerate(values)}, depth)

    def constant(self, a, depth: int) -> OdometerElement:
        return self.function((a,) * self.stages.size(depth), depth)

    def indicator(self, index: int, depth: int, value=None) -> OdometerElement:
        value = self.coeff.one() if value is None else value
        return OdometerElement(self, {(0, index % self.stages.size(depth)): value}, depth)

    def unit(self, depth: int = 1) -> OdometerElement:
        return self.u_power(0, depth)

    def u_power(self, exponent: int, depth: int = 1) -> OdometerElement:
        one = self.coeff.one()
        return OdometerElement(self, {(exponent, j): one for j in range(self.stages.size(depth))}, depth)

    def sample_function(self, rng: random.Random, depth: int) -> OdometerElement:
        n = self.stages.size(depth)
        return self.function(
            (self.coeff.sample(rng) if rng.random() < 0.7 else self.coeff.zero() for _ in range(n)), depth
        )


class OdometerElement(Subtraction):
    """A finite sum of terms a delta_j U^d, stored as {(d, j): a} without zero values."""

    __slots__ = ("algebra", "depth", "terms")

    def __init__(self, algebra: OdometerAlgebra, terms: dict, depth: int = 1):
        self.algebra = algebra
        self.depth = depth
        self.terms = {key: a for key, a in terms.items() if not a.is_zero()}

    @property
    def size(self) -> int:
        return self.algebra.stages.size(self.depth)

    def promote(self, depth: int) -> OdometerElement:
        """The same element on depth-``depth`` cylinders: cylinder j splits into j + t n_k."""
        if depth < self.depth:
            raise MismatchError("promotion must not decrease depth")
        if depth == self.depth:
            return self
        n_old, n_new = self.size, self.algebra.stages.size(depth)
        terms = {(d, j + t): a for t in range(0, n_new, n_old) for (d, j), a in self.terms.items()}
        return OdometerElement(self.algebra, terms, depth)

    def _align(self, other: OdometerElement) -> tuple[OdometerElement, OdometerElement, int]:
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise MismatchError("odometer elements from different algebras")
        depth = max(self.depth, other.depth)
        return self.promote(depth), other.promote(depth), depth

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: OdometerElement) -> OdometerElement:
        a, b, depth = self._align(other)
        return OdometerElement(self.algebra, add_entries(a.terms, b.terms), depth)

    def __neg__(self) -> OdometerElement:
        return OdometerElement(self.algebra, {key: -a for key, a in self.terms.items()}, self.depth)

    def __mul__(self, other: OdometerElement) -> OdometerElement:
        """(a delta_j U^d)(b delta_i U^e) = a sigma^d(b) delta_j U^(d+e) if i = j - d mod n_k, else 0.

        Uncapped: rho sends u^l to U^(n_k l), so U-degrees scale with the stage size.
        """
        a, b, depth = self._align(other)
        n = a.size
        by_cylinder: dict = {}
        for (e, i), y in b.terms.items():
            by_cylinder.setdefault(i, []).append((e, y))
        out: dict = {}
        for (d, j), x in a.terms.items():
            for e, y in by_cylinder.get((j - d) % n, ()):
                prod = x * self.algebra.twist(y, d)
                key = (d + e, j)
                out[key] = out[key] + prod if key in out else prod
        return OdometerElement(self.algebra, out, depth)

    def shifted(self, d: int) -> OdometerElement:
        """sigma^d on every coefficient: cylinder j moves to j + d mod n_k, values by alpha^(sign*d)."""
        n = self.size
        terms = {(e, (j + d) % n): self.algebra.twist(a, d) for (e, j), a in self.terms.items()}
        return OdometerElement(self.algebra, terms, self.depth)

    def star(self) -> OdometerElement:
        """(a delta_j U^d)* = sigma^(-d)(a* delta_j) U^(-d)."""
        n = self.size
        terms = {(-d, (j - d) % n): self.algebra.twist(a.star(), -d) for (d, j), a in self.terms.items()}
        return OdometerElement(self.algebra, terms, self.depth)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OdometerElement):
            return NotImplemented
        a, b, _ = self._align(other)
        return equal_entries(a.terms, b.terms)

    def state(self) -> Scalar:
        """The canonical tracial state: average of trace0 over the U^0 coefficient."""
        total = Scalar.zero()
        for (d, _), a in self.terms.items():
            if d == 0:
                total = total + self.algebra.coeff.trace0(a)
        return Fraction(1, self.size) * total

    def to_json(self) -> dict:
        zero, n = self.algebra.coeff.zero(), self.size
        rows: dict = {}
        for (d, j), a in self.terms.items():
            rows.setdefault(d, [zero] * n)[j] = a
        return {
            "depth": self.depth,
            "coeffs": {f"U:{d}": {"depth": self.depth, "values": [v.to_json() for v in rows[d]]}
                       for d in sorted(rows)},
        }

    @staticmethod
    def from_json(data: dict, algebra: OdometerAlgebra) -> OdometerElement:
        depth = json_int(data, "depth")
        if not 1 <= depth <= algebra.stages.depth:
            raise ValueError(f"odometer depth {depth} outside 1..{algebra.stages.depth}")
        # each coefficient is read at its own depth and promoted to the deepest one
        rows = [(exponent_from_key(key, "U"),
                 algebra.function((algebra.coeff.element_from_json(v) for v in val["values"]), json_int(val, "depth")))
                for key, val in data.get("coeffs", {}).items()]
        depth = max([depth] + [f.depth for _, f in rows])
        terms = {(d, j): a for d, f in rows for (_, j), a in f.promote(depth).terms.items()}
        return OdometerElement(algebra, terms, depth)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({self.terms[d, j]!r})*delta_{j}*U^{d}" for d, j in sorted(self.terms))


def rho(algebra: OdometerAlgebra, stage: int, X: MatrixElement) -> OdometerElement:
    """The stage isomorphism: a u^l e_{i,j} -> sigma^(-i)(a delta_0) U^(j - i + n_k l).

    sigma^(-i)(a delta_0) is alpha^(-sign*i)(a) on cylinder -i mod n_k, and distinct
    (i, j, l) land on distinct (U-degree, cylinder) keys, so no two terms add.
    """
    n = algebra.stages.size(stage)
    if X.size != n or X.power != algebra.alpha_sign * n or X.algebra != algebra.coeff:
        raise MismatchError(f"expected a size-{n} stage element over the coefficient algebra")
    terms = {(j - i + n * l, -i % n): algebra.twist(a, -i)
             for (i, j), x in X.entries.items() for l, a in x.coeffs.items()}
    return OdometerElement(algebra, terms, stage)


def rho_extract(algebra: OdometerAlgebra, stage: int, Y: OdometerElement, p: int, q: int) -> CrossedElement | None:
    """Recover the (p, q) crossed-product coefficient of a stage image.

    Computes U^p delta_(n-p) Y delta_(n-q) U^(-q); on the image of rho this
    is  sum_l a_l delta_0 U^(n l)  with a_l the u^l coefficient at (p, q).
    Returns None if the result is not of that shape.
    """
    n = algebra.stages.size(stage)
    left = algebra.u_power(p, stage) * algebra.indicator(n - p, stage)
    right = algebra.indicator(n - q, stage) * algebra.u_power(-q, stage)
    Z = left * Y * right
    # the shape: every U-degree a multiple of n, each value a_l on the stage cylinder 0 promoted
    head = {(d, 0): a for (d, j), a in Z.terms.items() if j == 0}
    if any(d % n for d, _ in head) or not OdometerElement(algebra, head, stage).promote(Z.depth) == Z:
        return None
    return CrossedElement(algebra.coeff, algebra.alpha_sign * n, {d // n: a for (d, _), a in head.items()})


def psi_map(x: OdometerElement) -> OdometerElement:
    """The flip intertwiner: a delta_j U^d -> a delta_(n_k - 1 - j) V^(-d) into the dual algebra."""
    n = x.size
    return OdometerElement(x.algebra.dual(), {(-d, n - 1 - j): a for (d, j), a in x.terms.items()}, x.depth)


def verify_rho_homomorphism(algebra: OdometerAlgebra, stage: int, seed: int, count: int,
                            extraction_count: int | None = None) -> Report:
    """*-homomorphism checks for rho plus coefficient-extraction injectivity."""
    n = algebra.stages.size(stage)
    power = algebra.alpha_sign * n
    report = Report("rho-hom", config={"sizes": list(algebra.stages.sizes), "stage": stage,
                                       "algebra": algebra.coeff.tag(), "seed": seed, "count": count})
    report.compare([("unital", MatrixElement.identity(algebra.coeff, power, n))],
                   lambda one: (rho(algebra, stage, one), algebra.unit(stage)))
    for idx in range(count):
        rng = case_rng(seed, idx)
        X = sample_matrix(algebra.coeff, power, n, rng)
        Y = sample_matrix(algebra.coeff, power, n, rng)
        lhs, rhs = rho(algebra, stage, X * Y), rho(algebra, stage, X) * rho(algebra, stage, Y)
        report.record(f"{idx}:mul", lhs == rhs, lhs=lhs, rhs=rhs)
        lhs_s, rhs_s = rho(algebra, stage, X.star()), rho(algebra, stage, X).star()
        report.record(f"{idx}:star", lhs_s == rhs_s, lhs=lhs_s, rhs=rhs_s)
    if extraction_count is None:
        extraction_count = count // 2
    for idx in range(extraction_count):
        rng = case_rng(seed, f"extract{idx}")
        X = sample_matrix(algebra.coeff, power, n, rng)
        Y = rho(algebra, stage, X)
        ok = True
        for p in range(n):
            for q in range(n):
                got = rho_extract(algebra, stage, Y, p, q)
                if got is None or not (got == X.entry(p, q)):
                    ok = False
        report.record(f"extract{idx}", ok, lhs=Y, rhs=X)
    return report


def verify_rg(algebra: OdometerAlgebra, stage: int, seed: int, count: int) -> Report:
    """rho_k == rho_(k+1) circle gamma_(n_k, n_(k+1)) on generators and random elements."""
    sizes = algebra.stages.sizes
    if stage >= len(sizes):
        raise MismatchError("need a next stage to compare against")
    n, m = sizes[stage - 1], sizes[stage]
    report = Report("rg", config={"sizes": list(sizes), "stage": stage,
                                  "algebra": algebra.coeff.tag(), "seed": seed, "count": count})
    report.compare(_stage_cases(algebra.coeff, algebra.alpha_sign * n, n, seed, count),
                   lambda X: (rho(algebra, stage, X).promote(stage + 1), rho(algebra, stage + 1, gamma(n, m, X))))
    return report


def verify_flip_conjugacy(stages: StageSequence) -> Report:
    """g circle odometer == odometer^(-1) circle g, exhaustively at every depth."""
    report = Report("flip", config={"sizes": list(stages.sizes)})
    radii = stages.radii
    cases = ((f"{stage}:{index}", (radii[: stage - 1], stages.index_to_digits(index, stage)))
             for stage in range(1, stages.depth + 1) for index in range(stages.size(stage)))

    def both_sides(case: tuple) -> tuple[list[int], list[int]]:
        prefix, digits = case
        return (list(flip_digits(prefix, odometer_step(prefix, digits, 1))),
                list(odometer_step(prefix, flip_digits(prefix, digits), -1)))

    report.compare(cases, both_sides)
    return report


def verify_psi_flip(algebra: OdometerAlgebra, stage: int, seed: int, count: int) -> Report:
    """V* Psi(f) V == Psi(sigma(f)) for random depth-k cylinder functions."""
    dual = algebra.dual()
    report = Report("psi-flip", config={"sizes": list(algebra.stages.sizes), "stage": stage,
                                        "algebra": algebra.coeff.tag(), "seed": seed, "count": count})

    def both_sides(f: OdometerElement) -> tuple[OdometerElement, OdometerElement]:
        lhs = dual.u_power(-1, stage) * psi_map(f) * dual.u_power(1, stage)
        rhs = psi_map(f.shifted(1))
        return lhs, rhs

    cases = [("unit", algebra.constant(algebra.coeff.one(), stage)), ("indicator", algebra.indicator(0, stage))]
    cases.extend((idx, algebra.sample_function(case_rng(seed, idx), stage)) for idx in range(count))
    report.compare(cases, both_sides)
    return report


def verify_gk_generation(algebra: OdometerAlgebra) -> Report:
    """Reconstruct U from the stage generators at every configured depth."""
    report = Report("gk-generation", config={"sizes": list(algebra.stages.sizes),
                                             "algebra": algebra.coeff.tag()})

    def both_sides(stage: int) -> tuple[OdometerElement, OdometerElement]:
        n = algebra.stages.size(stage)
        delta0 = algebra.indicator(0, stage)
        U = algebra.u_power(1, stage)
        total = OdometerElement(algebra, {}, stage)
        for j in range(n - 1):
            total = total + algebra.u_power(j + 1, stage) * delta0 * algebra.u_power(j, stage).star()
        corner = (delta0 * algebra.u_power(n, stage) * delta0) * (delta0 * algebra.u_power(n - 1, stage).star())
        return total + corner, U

    report.compare(((stage, stage) for stage in range(1, algebra.stages.depth + 1)), both_sides)
    return report
