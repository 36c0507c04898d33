"""Connecting maps between stages and the direct-limit bookkeeping.

For n | m (k = m/n) the unital injective *-homomorphism gamma_{n,m} from the
size-n stage into the size-m stage is determined by its generator images

    a e_00   |->  sum_{c<k} alpha^(c n)(a) e_{cn,cn}
    u_n e_00 |->  u_m e_{(k-1)n,0} + sum_{c<k-1} e_{cn,(c+1)n}
    e_{i,j}  |->  sum_{c<k} e_{i+cn,j+cn}

Multiplying them out gives each monomial an explicit image, which is how
gamma is computed: with c' = (c + l) mod k,

    a u_n^l e_{i,j}  |->  sum_{c<k} alpha^(c n)(a) u_m^((c+l-c')/k) e_{i+cn, j+c'n}

so no matrix product is formed.  The construction by products of generator
images lives in the test suite as an independent oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .coeff import Angle, CircleRotation, CoefficientAlgebra
from .crossed import CrossedElement, MatrixElement, sample_matrix
from .errors import BudgetError, MismatchError
from .report import Report, case_rng
from .sparse import DEGREE_CAP, shuffled_entries


def check_divisibility_chain(sizes) -> tuple[int, ...]:
    sizes = tuple(int(s) for s in sizes)
    if not sizes or sizes[0] != 1:
        raise MismatchError("stage sequence must start with 1")
    for a, b in zip(sizes, sizes[1:]):
        if b % a != 0 or b < a:
            raise MismatchError(f"stage sizes must divide in order, got {a} then {b}")
    return sizes


def gamma(n: int, m: int, X: MatrixElement) -> MatrixElement:
    """Apply gamma_{n,m} to a size-n stage element, monomial by monomial."""
    if m % n != 0:
        raise MismatchError(f"{n} does not divide {m}")
    if X.size != n or X.power != n:
        raise MismatchError(f"expected a size-{n} stage element")
    if n == m:
        return X
    k, algebra = m // n, X.algebra
    # (position, u_m-exponent) determines (i, j, l, c), so no two images overlap
    acc: dict[tuple[int, int], dict] = {}
    for (i, j), x in X.entries.items():
        for l, a in x.coeffs.items():
            for c in range(k):
                cp = (c + l) % k
                e = (c + l - cp) // k
                if abs(e) > DEGREE_CAP:
                    raise BudgetError(f"u-degree {e} exceeds cap {DEGREE_CAP}")
                acc.setdefault((i + c * n, j + cp * n), {})[e] = algebra.alpha_power(a, c * n)
    entries = {key: CrossedElement(algebra, m, coeffs) for key, coeffs in acc.items()}
    return MatrixElement(algebra, m, m, entries)


def gamma_left_inverse(n: int, m: int, Y: MatrixElement) -> MatrixElement | None:
    """Recover X with gamma_{n,m}(X) == Y, or None if Y is not in the image.

    The candidate is read off the first row-block: the image places the
    coefficient of u_n^l in entry (i, j) at position (i, j + (l mod k) n)
    with u_m-exponent floor(l / k).  The candidate is then pushed back
    through gamma to certify membership.
    """
    if m % n != 0:
        raise MismatchError(f"{n} does not divide {m}")
    if Y.size != m or Y.power != m:
        raise MismatchError(f"expected a size-{m} stage element")
    k = m // n
    entries = {}
    for i in range(n):
        for j in range(n):
            coeffs = {}
            for cp in range(k):
                y = Y.entries.get((i, j + cp * n))
                if y is None:
                    continue
                for e, b in y.coeffs.items():
                    coeffs[e * k + cp] = b
            if coeffs:
                entries[(i, j)] = CrossedElement(Y.algebra, n, coeffs)
    X = MatrixElement(Y.algebra, n, n, entries)
    return X if gamma(n, m, X) == Y else None


def gamma_chain(sizes, from_stage: int, to_stage: int, X: MatrixElement) -> MatrixElement:
    """Compose consecutive gammas along the configured sequence (1-based stages)."""
    sizes = check_divisibility_chain(sizes)
    if not (1 <= from_stage <= to_stage <= len(sizes)):
        raise MismatchError("stage outside the configured sequence")
    for stage in range(from_stage, to_stage):
        X = gamma(sizes[stage - 1], sizes[stage], X)
    return X


@dataclass(frozen=True)
class LimitElement:
    """A stage-tagged element of the direct limit; promotion is the identity."""

    sequence: tuple[int, ...]
    stage: int
    value: MatrixElement

    def __post_init__(self):
        sizes = check_divisibility_chain(self.sequence)
        object.__setattr__(self, "sequence", sizes)
        if not (1 <= self.stage <= len(sizes)):
            raise MismatchError("stage outside the configured sequence")
        if self.value.size != sizes[self.stage - 1]:
            raise MismatchError("value size does not match its stage")

    def promote(self, target_stage: int) -> LimitElement:
        if target_stage < self.stage:
            raise MismatchError("promotion must not decrease the stage")
        value = gamma_chain(self.sequence, self.stage, target_stage, self.value)
        return LimitElement(self.sequence, target_stage, value)

    def _align(self, other: LimitElement) -> tuple[MatrixElement, MatrixElement, int]:
        if self.sequence != other.sequence:
            raise MismatchError("limit elements over different stage sequences")
        stage = max(self.stage, other.stage)
        return self.promote(stage).value, other.promote(stage).value, stage

    def __add__(self, other: LimitElement) -> LimitElement:
        a, b, stage = self._align(other)
        return LimitElement(self.sequence, stage, a + b)

    def __mul__(self, other: LimitElement) -> LimitElement:
        a, b, stage = self._align(other)
        return LimitElement(self.sequence, stage, a * b)

    def star(self) -> LimitElement:
        return LimitElement(self.sequence, self.stage, self.value.star())

    def trace(self):
        return self.value.trace()

    def __eq__(self, other) -> bool:
        if not isinstance(other, LimitElement):
            return NotImplemented
        a, b, _ = self._align(other)
        return a == b

    def to_json(self) -> dict:
        return {"sequence": list(self.sequence), "stage": self.stage, "value": self.value.to_json()}

    @staticmethod
    def from_json(data: dict, algebra: CoefficientAlgebra | None = None) -> LimitElement:
        return LimitElement(
            tuple(data["sequence"]), int(data["stage"]), MatrixElement.from_json(data["value"], algebra)
        )


def amplification_shuffle(p: int, X: MatrixElement) -> MatrixElement:
    """Conjugate by the canonical shuffle M_p(M_n) -> M_{pn}.

    Row/column (b, i) of the p x p of n x n block picture, flattened as
    b*n + i, moves to position i*p + b.
    """
    if p < 1 or X.size % p != 0:
        raise MismatchError(f"size {X.size} is not a multiple of p={p}")
    return MatrixElement(X.algebra, X.power, X.size, shuffled_entries(X.entries, p, X.size))


def blockwise_gamma(p: int, n: int, m: int, X: MatrixElement) -> MatrixElement:
    """Apply gamma_{n,m} to each n x n block of a p x p block matrix."""
    if X.size != p * n or X.power != n:
        raise MismatchError("expected a p x p block matrix of size-n stage elements")
    algebra = X.algebra
    blocks: dict[tuple[int, int], dict] = {}
    for (r, c), x in X.entries.items():
        blocks.setdefault((r // n, c // n), {})[(r % n, c % n)] = x
    out: dict[tuple[int, int], CrossedElement] = {}
    for (B, C), block in blocks.items():
        image = gamma(n, m, MatrixElement(algebra, n, n, block))
        for (i, j), v in image.entries.items():
            out[(B * m + i, C * m + j)] = v
    return MatrixElement(algebra, m, p * m, out)


def _stage_generators(algebra: CoefficientAlgebra, power: int, size: int,
                      rng: random.Random) -> list[MatrixElement]:
    """1 e_00, a e_00 with a drawn from rng, u e_00, then every matrix unit e_{i,j}."""
    corner = [
        CrossedElement.from_coefficient(algebra, power, algebra.one()),
        CrossedElement.from_coefficient(algebra, power, algebra.sample(rng)),
        CrossedElement.u_power(algebra, power),
    ]
    gens = [MatrixElement.single(algebra, power, size, 0, 0, x) for x in corner]
    gens.extend(MatrixElement.single(algebra, power, size, i, j) for i in range(size) for j in range(size))
    return gens


def verify_gamma_homomorphism(
    algebra: CoefficientAlgebra,
    n: int,
    m: int,
    seed: int,
    count: int,
) -> Report:
    report = Report(
        "gamma-hom",
        config={"n": n, "m": m, "algebra": algebra.tag(), "seed": seed, "count": count,
                "uDegree": 2, "coeffDegree": 2},
    )
    one_n = MatrixElement.identity(algebra, n, n)
    one_m = MatrixElement.identity(algebra, m, m)
    report.record("unital", gamma(n, m, one_n) == one_m, lhs=gamma(n, m, one_n), rhs=one_m)
    for idx in range(count):
        rng = case_rng(seed, idx)
        X = sample_matrix(algebra, n, n, rng)
        Y = sample_matrix(algebra, n, n, rng)
        gX, gY = gamma(n, m, X), gamma(n, m, Y)
        lhs, rhs = gamma(n, m, X * Y), gX * gY
        report.record(f"{idx}:mul", lhs == rhs, lhs=lhs, rhs=rhs)
        lhs_s, rhs_s = gamma(n, m, X.star()), gX.star()
        report.record(f"{idx}:star", lhs_s == rhs_s, lhs=lhs_s, rhs=rhs_s)
    return report


def verify_gamma_composition(
    algebra: CoefficientAlgebra, n: int, k: int, l: int, seed: int, count: int = 50,
) -> Report:
    nk, nkl = n * k, n * k * l
    report = Report(
        "gamma-comp",
        config={"n": n, "k": k, "l": l, "algebra": algebra.tag(), "seed": seed, "count": count},
    )
    cases = [(f"gen{i}", X) for i, X in enumerate(_stage_generators(algebra, n, n, case_rng(seed, "gen")))]
    for idx in range(count):
        cases.append((idx, sample_matrix(algebra, n, n, case_rng(seed, idx))))
    for label, X in cases:
        lhs = gamma(nk, nkl, gamma(n, nk, X))
        rhs = gamma(n, nkl, X)
        report.record(label, lhs == rhs, lhs=lhs, rhs=rhs)
    return report


def verify_trace_compatibility(
    algebra: CoefficientAlgebra, n: int, m: int, seed: int, count: int,
) -> Report:
    report = Report(
        "trace-compat",
        config={"n": n, "m": m, "algebra": algebra.tag(), "seed": seed, "count": count},
    )
    for idx in range(count):
        X = sample_matrix(algebra, n, n, case_rng(seed, idx))
        lhs = gamma(n, m, X).trace()
        rhs = X.trace()
        report.record(idx, lhs == rhs, lhs=lhs, rhs=rhs)
    return report


def verify_amplification_intertwining(
    angle: Angle, p: int, n: int, m: int, seed: int, count: int,
) -> Report:
    """psi circle (gamma_{n,m} blockwise) == gamma_{pn,pm} circle psi.

    The left side works at angle theta with stage sizes n, m; the right side
    at theta/p with sizes pn, pm.  The stage algebras coincide because
    (theta/p)(pn) = theta n, so the shuffle output re-tags between them.
    """
    if m % n != 0:
        raise MismatchError(f"{n} does not divide {m}")
    base = CircleRotation(angle)
    target = CircleRotation(angle.scaled(Fraction(1, p)))
    report = Report(
        "amplification",
        config={"p": p, "n": n, "m": m, "angle": str(angle), "seed": seed, "count": count},
    )

    def both_sides(X: MatrixElement) -> tuple[MatrixElement, MatrixElement]:
        lhs = amplification_shuffle(p, blockwise_gamma(p, n, m, X)).with_twist(target, p * m)
        rhs = gamma(p * n, p * m, amplification_shuffle(p, X).with_twist(target, p * n))
        return lhs, rhs

    for i, X in enumerate(_stage_generators(base, n, p * n, case_rng(seed, "gen"))):
        lhs, rhs = both_sides(X)
        report.record(f"gen{i}", lhs == rhs, lhs=lhs, rhs=rhs)
    for idx in range(count):
        X = sample_matrix(base, n, p * n, case_rng(seed, idx))
        lhs, rhs = both_sides(X)
        report.record(idx, lhs == rhs, lhs=lhs, rhs=rhs)
    return report
