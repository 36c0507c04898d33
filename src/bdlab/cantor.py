"""Odometer crossed-product presentation on cylinder functions.

The Cantor set here is the product of finite digit sets of sizes m_i =
n_{i+1}/n_i for a configured divisibility chain n_1 = 1 | n_2 | ....  A
depth-k cylinder function depends on the first k-1 digits only, so it is a
table of n_k coefficient elements indexed by j = sum_i j_i n_i; on such
functions the odometer acts as the +1 cycle mod n_k, because carries past
digit k-1 are invisible to them.  The crossed-product automorphism is

    sigma(f)(x) = alpha^(sign)(f(odometer^(-1)(x)))

with sign = +1 for the tower of alpha and -1 for the tower of its inverse
(``dual()`` swaps the two).  An OdometerElement is a finite sum
sum_d f_d U^d with the relations U f U* = sigma(f), multiplied by promoting
operands to a common depth first:

    (f U^d)(g U^e) = f * sigma^d(g) U^(d+e).

Cylinder functions are stored sparsely, as a dict from index to nonzero
value, because rho images and the indicators of coefficient extraction are
mostly zero.  Each operation walks only the support; promotion copies it to
every index j + t n_k below n_(k').  ``f.times_shifted(g, d)`` is the product
f * sigma^d(g) of the rule above: sigma^d(g) at i is alpha^(sign*d) of g at
i - d, and the product vanishes wherever f or that value does, so alpha is
applied only to the values of g that land on the support of f.  The dense
table (``values``, zeros filled by ``coeff.zero()``) is rebuilt only for
JSON and repr, so serialized forms are unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .coeff import CoefficientAlgebra
from .crossed import CrossedElement, MatrixElement, sample_matrix
from .errors import MismatchError
from .limits import _stage_generators, check_divisibility_chain, gamma
from .report import Report, case_rng
from .scalar import Scalar
from .sparse import Subtraction, add_entries, convolve_entries, equal_entries


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

    def digits_to_index(self, digits) -> int:
        index = 0
        weight = 1
        for d, m in zip(digits, self.radii):
            if not (0 <= d < m):
                raise MismatchError(f"digit {d} outside radius {m}")
            index += d * weight
            weight *= m
        return index


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

    def constant(self, a, depth: int) -> CylinderFunction:
        return CylinderFunction(self, depth, (a,) * self.stages.size(depth))

    def indicator(self, index: int, depth: int, value=None) -> CylinderFunction:
        value = self.coeff.one() if value is None else value
        support = {} if value.is_zero() else {index % self.stages.size(depth): value}
        return CylinderFunction._of(self, depth, support)

    def unit(self, depth: int = 1) -> OdometerElement:
        return OdometerElement(self, {0: self.constant(self.coeff.one(), depth)})

    def u_power(self, exponent: int, depth: int = 1) -> OdometerElement:
        return OdometerElement(self, {exponent: self.constant(self.coeff.one(), depth)})

    def element(self, f: CylinderFunction, exponent: int = 0) -> OdometerElement:
        return OdometerElement(self, {exponent: f})

    def zero(self, depth: int = 1) -> OdometerElement:
        return OdometerElement(self, {}, depth=depth)

    def sample_function(self, rng: random.Random, depth: int) -> CylinderFunction:
        n = self.stages.size(depth)
        values = [
            self.coeff.sample(rng) if rng.random() < 0.7 else self.coeff.zero()
            for _ in range(n)
        ]
        return CylinderFunction(self, depth, values)


class CylinderFunction(Subtraction):
    """A function on the Cantor set depending on the first depth-1 digits.

    Stored sparsely: ``support`` maps an index j in [0, n_k) to the value at
    cylinder j, for the nonzero values only, so every operation walks the
    support instead of all n_k cylinders.  ``values`` rebuilds the dense
    table, with ``coeff.zero()`` off the support, for serialization.
    """

    __slots__ = ("algebra", "depth", "support")

    def __init__(self, algebra: OdometerAlgebra, depth: int, values):
        values = tuple(values)
        if len(values) != algebra.stages.size(depth):
            raise MismatchError(f"depth-{depth} cylinder function needs {algebra.stages.size(depth)} values")
        self.algebra = algebra
        self.depth = depth
        self.support = {j: v for j, v in enumerate(values) if not v.is_zero()}

    @classmethod
    def _of(cls, algebra: OdometerAlgebra, depth: int, support: dict) -> CylinderFunction:
        """Wrap a support dict that holds no zero value."""
        f = cls.__new__(cls)
        f.algebra, f.depth, f.support = algebra, depth, support
        return f

    @property
    def size(self) -> int:
        return self.algebra.stages.size(self.depth)

    @property
    def values(self) -> tuple:
        zero = self.algebra.coeff.zero()
        return tuple(self.support.get(j, zero) for j in range(self.size))

    def _aligned(self, other: CylinderFunction) -> tuple[CylinderFunction, CylinderFunction]:
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise MismatchError("cylinder functions from different algebras")
        depth = max(self.depth, other.depth)
        return self.promote(depth), other.promote(depth)

    def promote(self, depth: int) -> CylinderFunction:
        if depth < self.depth:
            raise MismatchError("promotion must not decrease depth")
        if depth == self.depth:
            return self
        n_old, n_new = self.size, self.algebra.stages.size(depth)
        support = {j + t: v for t in range(0, n_new, n_old) for j, v in self.support.items()}
        return CylinderFunction._of(self.algebra, depth, support)

    def shifted(self, d: int) -> CylinderFunction:
        """sigma^d: indices shift by +d mod n_k, alpha^(sign*d) entrywise."""
        if d == 0:
            return self
        n, alg = self.size, self.algebra
        power = alg.alpha_sign * d
        support = {(j + d) % n: alg.coeff.alpha_power(v, power) for j, v in self.support.items()}
        return CylinderFunction._of(alg, self.depth, support)

    def times_shifted(self, g: CylinderFunction, d: int) -> CylinderFunction:
        """self * g.shifted(d), applying alpha only to values of g that meet self's support.

        sigma^d(g) at index i is alpha^(sign*d)(g at i - d), so the product
        at i is nonzero only if i is in self's support and i - d in g's; the
        other shifted values would be multiplied by zero.
        """
        f, g = self._aligned(g)
        n, alg = f.size, f.algebra
        power = alg.alpha_sign * d
        out = {}
        for i, x in f.support.items():
            y = g.support.get((i - d) % n)
            if y is not None:
                v = x * (alg.coeff.alpha_power(y, power) if d else y)
                if not v.is_zero():
                    out[i] = v
        return CylinderFunction._of(alg, f.depth, out)

    def flip_compose(self) -> CylinderFunction:
        """f circle g, with g the digit complement: index j -> n_k - 1 - j."""
        n = self.size
        return CylinderFunction._of(self.algebra, self.depth, {n - 1 - j: v for j, v in self.support.items()})

    def is_zero(self) -> bool:
        return not self.support

    def __add__(self, other: CylinderFunction) -> CylinderFunction:
        a, b = self._aligned(other)
        support = add_entries(a.support, b.support)
        return CylinderFunction._of(self.algebra, a.depth, {j: v for j, v in support.items() if not v.is_zero()})

    def __neg__(self) -> CylinderFunction:
        return CylinderFunction._of(self.algebra, self.depth, {j: -v for j, v in self.support.items()})

    def __mul__(self, other: CylinderFunction) -> CylinderFunction:
        return self.times_shifted(other, 0)

    def star(self) -> CylinderFunction:
        return CylinderFunction._of(self.algebra, self.depth, {j: v.star() for j, v in self.support.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, CylinderFunction):
            return NotImplemented
        a, b = self._aligned(other)
        return equal_entries(a.support, b.support)

    def to_json(self) -> dict:
        return {"depth": self.depth, "values": [v.to_json() for v in self.values]}

    def __repr__(self) -> str:
        return f"Cyl(depth={self.depth}, {list(self.values)!r})"


class OdometerElement(Subtraction):
    """A finite sum  sum_d f_d U^d  with depth-aligned cylinder coefficients."""

    __slots__ = ("algebra", "depth", "coeffs")

    def __init__(self, algebra: OdometerAlgebra, coeffs: dict | None = None, *, depth: int = 1):
        coeffs = dict(coeffs or {})
        depth = max([depth] + [f.depth for f in coeffs.values()])
        self.algebra = algebra
        self.depth = depth
        self.coeffs = {}
        for d, f in coeffs.items():
            if f.algebra is not algebra and f.algebra != algebra:
                raise MismatchError("coefficient from a different odometer algebra")
            f = f.promote(depth)
            if not f.is_zero():
                self.coeffs[d] = f

    def promote(self, depth: int) -> OdometerElement:
        if depth == self.depth:
            return self
        return OdometerElement(self.algebra, {d: f.promote(depth) for d, f in self.coeffs.items()}, depth=depth)

    def _align(self, other: OdometerElement) -> tuple[OdometerElement, OdometerElement, int]:
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise MismatchError("odometer elements from different algebras")
        depth = max(self.depth, other.depth)
        return self.promote(depth), other.promote(depth), depth

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: OdometerElement) -> OdometerElement:
        a, b, depth = self._align(other)
        return OdometerElement(self.algebra, add_entries(a.coeffs, b.coeffs), depth=depth)

    def __neg__(self) -> OdometerElement:
        return OdometerElement(self.algebra, {d: -f for d, f in self.coeffs.items()}, depth=self.depth)

    def __mul__(self, other: OdometerElement) -> OdometerElement:
        a, b, depth = self._align(other)
        # uncapped: rho sends u^l to U^(n_k l), so U-degrees scale with the stage size
        out = convolve_entries(a.coeffs, b.coeffs, lambda d, f, g: f.times_shifted(g, d), None)
        return OdometerElement(self.algebra, out, depth=depth)

    def star(self) -> OdometerElement:
        return OdometerElement(
            self.algebra,
            {-d: f.star().shifted(-d) for d, f in self.coeffs.items()},
            depth=self.depth,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, OdometerElement):
            return NotImplemented
        a, b, _ = self._align(other)
        return equal_entries(a.coeffs, b.coeffs)

    def state(self) -> Scalar:
        """The canonical tracial state: average of trace0 over the U^0 coefficient."""
        f = self.coeffs.get(0)
        if f is None:
            return Scalar.zero()
        total = Scalar.zero()
        for v in f.support.values():
            total = total + self.algebra.coeff.trace0(v)
        return Fraction(1, f.size) * total

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "coeffs": {f"U:{d}": self.coeffs[d].to_json() for d in sorted(self.coeffs)},
        }

    @staticmethod
    def from_json(data: dict, algebra: OdometerAlgebra) -> OdometerElement:
        depth = int(data["depth"])
        if not 1 <= depth <= algebra.stages.depth:
            raise ValueError(f"odometer depth {depth} outside 1..{algebra.stages.depth}")
        coeffs = {}
        for key, val in data.get("coeffs", {}).items():
            if not key.startswith("U:"):
                raise ValueError(f"bad odometer key {key!r}")
            cf = CylinderFunction(
                algebra, int(val["depth"]), (algebra.coeff.element_from_json(v) for v in val["values"])
            )
            coeffs[int(key[2:])] = cf
        return OdometerElement(algebra, coeffs, depth=depth)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"({self.coeffs[d]!r})*U^{d}" if d else f"({self.coeffs[d]!r})" for d in sorted(self.coeffs))


def rho(algebra: OdometerAlgebra, stage: int, X: MatrixElement) -> OdometerElement:
    """The stage isomorphism: a u^l e_{i,j} -> sigma^(-i)(a delta_0) U^(j - i + n_k l)."""
    n = algebra.stages.size(stage)
    if X.size != n or X.power != algebra.alpha_sign * n or X.algebra != algebra.coeff:
        raise MismatchError(f"expected a size-{n} stage element over the coefficient algebra")
    out: dict[int, CylinderFunction] = {}
    for (i, j), x in X.entries.items():
        for l, a in x.coeffs.items():
            f = algebra.indicator(0, stage, a).shifted(-i)
            d = j - i + n * l
            out[d] = out[d] + f if d in out else f
    return OdometerElement(algebra, out, depth=stage)


def rho_extract(algebra: OdometerAlgebra, stage: int, Y: OdometerElement, p: int, q: int) -> CrossedElement | None:
    """Recover the (p, q) crossed-product coefficient of a stage image.

    Computes U^p delta_(n-p) Y delta_(n-q) U^(-q); on the image of rho this
    is  sum_l a_l delta_0 U^(n l)  with a_l the u^l coefficient at (p, q).
    Returns None if the result is not of that shape.
    """
    n = algebra.stages.size(stage)
    Y = Y.promote(max(stage, Y.depth))
    left = algebra.u_power(p, stage) * algebra.element(algebra.indicator(n - p, stage))
    right = algebra.element(algebra.indicator(n - q, stage)) * algebra.u_power(-q, stage)
    Z = left * Y * right
    coeffs = {}
    for d, f in Z.coeffs.items():
        if d % n != 0:
            return None
        # the coefficient must be (a at cylinder 0) promoted: the support is
        # every index = 0 mod n, all with the same value
        value = f.support.get(0)
        if value is None or len(f.support) != f.size // n:
            return None
        if any(idx % n or v != value for idx, v in f.support.items()):
            return None
        coeffs[d // n] = value
    return CrossedElement(algebra.coeff, algebra.alpha_sign * n, coeffs)


def psi_map(x: OdometerElement) -> OdometerElement:
    """The flip intertwiner: f U^d -> (f circle g) V^(-d) into the dual algebra."""
    dual = x.algebra.dual()
    out = {}
    for d, f in x.coeffs.items():
        out[-d] = CylinderFunction._of(dual, f.depth, f.flip_compose().support)
    return OdometerElement(dual, out, depth=x.depth)


def verify_rho_homomorphism(algebra: OdometerAlgebra, stage: int, seed: int, count: int,
                            extraction_count: int | None = None) -> Report:
    """*-homomorphism checks for rho plus coefficient-extraction injectivity."""
    n = algebra.stages.size(stage)
    power = algebra.alpha_sign * n
    report = Report("rho-hom", config={"sizes": list(algebra.stages.sizes), "stage": stage,
                                       "algebra": algebra.coeff.tag(), "seed": seed, "count": count})
    unit = MatrixElement.identity(algebra.coeff, power, n)
    report.record("unital", rho(algebra, stage, unit) == algebra.unit(stage))
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
    power = algebra.alpha_sign * n
    generators = _stage_generators(algebra.coeff, power, n, case_rng(seed, "gen"))
    cases = [(f"gen{i}", X) for i, X in enumerate(generators)]
    for idx in range(count):
        cases.append((idx, sample_matrix(algebra.coeff, power, n, case_rng(seed, idx))))
    for label, X in cases:
        lhs = rho(algebra, stage, X).promote(stage + 1)
        rhs = rho(algebra, stage + 1, gamma(n, m, X))
        report.record(label, lhs == rhs, lhs=lhs, rhs=rhs)
    return report


def verify_flip_conjugacy(stages: StageSequence) -> Report:
    """g circle odometer == odometer^(-1) circle g, exhaustively at every depth."""
    report = Report("flip", config={"sizes": list(stages.sizes)})
    radii = stages.radii
    for stage in range(1, stages.depth + 1):
        n = stages.size(stage)
        prefix = radii[: stage - 1]
        for index in range(n):
            digits = stages.index_to_digits(index, stage)
            lhs = flip_digits(prefix, odometer_step(prefix, digits, 1))
            rhs = odometer_step(prefix, flip_digits(prefix, digits), -1)
            report.record(f"{stage}:{index}", lhs == rhs, lhs=list(lhs), rhs=list(rhs))
    return report


def verify_psi_flip(algebra: OdometerAlgebra, stage: int, seed: int, count: int) -> Report:
    """V* Psi(f) V == Psi(sigma(f)) for random depth-k cylinder functions."""
    dual = algebra.dual()
    report = Report("psi-flip", config={"sizes": list(algebra.stages.sizes), "stage": stage,
                                        "algebra": algebra.coeff.tag(), "seed": seed, "count": count})

    def both_sides(f: CylinderFunction) -> tuple[OdometerElement, OdometerElement]:
        psi_f = psi_map(algebra.element(f))
        lhs = dual.u_power(-1, stage) * psi_f * dual.u_power(1, stage)
        rhs = psi_map(algebra.element(f.shifted(1)))
        return lhs, rhs

    lhs, rhs = both_sides(algebra.constant(algebra.coeff.one(), stage))
    report.record("unit", lhs == rhs, lhs=lhs, rhs=rhs)
    lhs, rhs = both_sides(algebra.indicator(0, stage))
    report.record("indicator", lhs == rhs, lhs=lhs, rhs=rhs)
    for idx in range(count):
        f = algebra.sample_function(case_rng(seed, idx), stage)
        lhs, rhs = both_sides(f)
        report.record(idx, lhs == rhs, lhs=lhs, rhs=rhs)
    return report


def verify_gk_generation(algebra: OdometerAlgebra) -> Report:
    """Reconstruct U from the stage generators at every configured depth."""
    report = Report("gk-generation", config={"sizes": list(algebra.stages.sizes),
                                             "algebra": algebra.coeff.tag()})
    for stage in range(1, algebra.stages.depth + 1):
        n = algebra.stages.size(stage)
        delta0 = algebra.element(algebra.indicator(0, stage))
        U = algebra.u_power(1, stage)
        total = algebra.zero(stage)
        for j in range(n - 1):
            total = total + algebra.u_power(j + 1, stage) * delta0 * algebra.u_power(j, stage).star()
        corner = (delta0 * algebra.u_power(n, stage) * delta0) * (delta0 * algebra.u_power(n - 1, stage).star())
        total = total + corner
        report.record(stage, total == U, lhs=total, rhs=U)
    return report
