"""Classification invariants and structural deciders.

Supernatural numbers record the divisibility type of a stage sequence; Q(delta)
is the group of rationals whose denominators divide delta.  The K-groups of the
rotation-instance limit algebras are presented in closed form: K0 as
Q(delta) + theta*Z ordered by the trace values, K1 as Q(delta) (+) Z with the
stage normalization (stage k, (a, b)) -> (a / n_k, b).

The order structure needs numbers, not symbols, so positivity of q + m*theta
is decided against a caller-supplied stream of nested rational enclosures of
theta (continued-fraction convergents are the intended source); the library
itself never picks a numeric theta.

Deciders distinguish declared supernatural data (with infinite exponents
spelled out) from "finite evidence" extracted from a sequence prefix.  Finite
evidence bounds the true invariant from below, so answers are reported
three-valued: definite only when every completion of the evidence agrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .coeff import Angle, cyclic_invariant_ideal_search, cyclic_orbits
from .errors import BudgetError, MismatchError
from .scalar import factorize, format_fraction

INF = math.inf

#: Enclosure refinements before a K0 value gives up.  Convergent gaps shrink at
#: least like Fibonacci^-2, so this many reach widths near 10^-4180: the cap
#: only stops streams that do not narrow.
REFINEMENT_BUDGET = 10_000

#: The circle-rotation coefficient algebra has a unique invariant trace by
#: unique ergodicity of irrational rotation; this is asserted theory-level,
#: not computed, and recorded as such wherever it is reported.
CIRCLE_TRACE_UNIQUENESS = "asserted: unique ergodicity of irrational rotation (not computed)"


class SupernaturalNumber:
    """A formal product of primes with exponents in N union {infinity}."""

    __slots__ = ("factors", "finite_evidence")

    def __init__(self, factors: dict[int, int | float] | None = None, finite_evidence: bool = False):
        clean = {}
        for p, e in (factors or {}).items():
            if e == INF:
                clean[int(p)] = INF
            elif int(e) >= 1:
                clean[int(p)] = int(e)
        self.factors = dict(sorted(clean.items()))
        self.finite_evidence = finite_evidence

    @staticmethod
    def from_sequence(sizes: Iterable[int], declared_tail: dict[int, int | float] | None = None) -> SupernaturalNumber:
        """Prime-exponent maximum over the sizes, overridden by a declared tail.

        Without a declared tail the result is flagged as finite evidence: a
        prefix can only bound the true supernatural number from below.
        """
        factors: dict[int, int | float] = {}
        for n in sizes:
            for p, e in factorize(int(n)).items():
                factors[p] = max(factors.get(p, 0), e)
        for p, e in (declared_tail or {}).items():
            factors[int(p)] = e
        return SupernaturalNumber(factors, finite_evidence=declared_tail is None)

    @staticmethod
    def parse(text: str) -> SupernaturalNumber:
        """Parse '2^inf*3^2' or a plain integer like '12'; never finite evidence."""
        text = text.strip()
        factors: dict[int, int | float] = {}
        for chunk in text.split("*"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "^" in chunk:
                base, exp = chunk.split("^", 1)
                e = INF if exp.strip() in ("inf", "oo") else int(exp)
                if e < 0:
                    raise ValueError(f"negative exponent in {chunk!r}")
                for p, pe in factorize(int(base)).items():
                    factors[p] = INF if e == INF else factors.get(p, 0) + pe * e
            else:
                for p, pe in factorize(int(chunk)).items():
                    factors[p] = factors.get(p, 0) + pe
        return SupernaturalNumber(factors)

    def exponent(self, prime: int) -> int | float:
        return self.factors.get(prime, 0)

    def amplify(self, p: int) -> SupernaturalNumber:
        """The supernatural number of {p * n_k}: exponents shifted by those of p."""
        factors = dict(self.factors)
        for q, e in factorize(p).items():
            factors[q] = INF if factors.get(q, 0) == INF else factors.get(q, 0) + e
        return SupernaturalNumber(factors, finite_evidence=self.finite_evidence)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SupernaturalNumber):
            return NotImplemented
        return self.factors == other.factors

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return "*".join(f"{p}^{'inf' if e == INF else e}" for p, e in self.factors.items())

    def __repr__(self) -> str:
        return f"SupernaturalNumber({self})"

    def to_json(self) -> dict:
        return {
            "factors": {str(p): ("inf" if e == INF else e) for p, e in self.factors.items()},
            "finiteEvidence": self.finite_evidence,
        }


def q_delta_member(r: Fraction, delta: SupernaturalNumber) -> bool:
    """Whether r lies in Q(delta): denominator prime powers bounded by delta."""
    return all(e <= delta.exponent(p) for p, e in factorize(Fraction(r).denominator).items())


@dataclass(frozen=True)
class K0Class:
    """q + m*theta in the K0 presentation Q(delta) + theta*Z."""

    q: Fraction
    m: int

    def __add__(self, other: K0Class) -> K0Class:
        return K0Class(self.q + other.q, self.m + other.m)

    def __sub__(self, other: K0Class) -> K0Class:
        return K0Class(self.q - other.q, self.m - other.m)

    def __neg__(self) -> K0Class:
        return K0Class(-self.q, -self.m)

    def is_zero(self) -> bool:
        return self.q == 0 and self.m == 0

    def to_json(self) -> dict:
        return {"q": format_fraction(self.q), "m": self.m}


@dataclass(frozen=True)
class K1Class:
    """(a, b) in the K1 presentation Q(delta) (+) Z."""

    a: Fraction
    b: int

    def to_json(self) -> dict:
        return {"a": format_fraction(self.a), "b": self.b}


class ThetaEnclosure:
    """A stream of nested rational intervals squeezing down on theta.

    The stream is caller-supplied; each refinement must stay inside the
    previous interval and keep positive width until exhausted.
    """

    def __init__(self, intervals: Iterator[tuple[Fraction, Fraction]]):
        self._intervals = iter(intervals)
        self._current: tuple[Fraction, Fraction] | None = None
        self.refine()

    @property
    def current(self) -> tuple[Fraction, Fraction]:
        assert self._current is not None
        return self._current

    def refine(self) -> tuple[Fraction, Fraction]:
        try:
            lo, hi = next(self._intervals)
        except StopIteration:
            raise BudgetError("theta enclosure stream exhausted") from None
        lo, hi = Fraction(lo), Fraction(hi)
        if lo >= hi:
            raise MismatchError("enclosure interval must have positive width")
        if self._current is not None:
            olo, ohi = self._current
            if lo < olo or hi > ohi:
                raise MismatchError("enclosure intervals must be nested")
        self._current = (lo, hi)
        return self._current

    @staticmethod
    def from_continued_fraction(coefficients: Iterable[int]) -> ThetaEnclosure:
        """Enclosures from continued-fraction convergents [a0; a1, a2, ...]."""

        def intervals():
            h_prev, h = 1, None
            k_prev, k = 0, None
            prev_convergent = None
            for a in coefficients:
                if h is None:
                    h, k = a, 1
                else:
                    h, h_prev = a * h + h_prev, h
                    k, k_prev = a * k + k_prev, k
                convergent = Fraction(h, k)
                if prev_convergent is not None and prev_convergent != convergent:
                    yield (min(prev_convergent, convergent), max(prev_convergent, convergent))
                prev_convergent = convergent

        return ThetaEnclosure(intervals())


def _value_intervals(c: K0Class, theta: ThetaEnclosure, goal: str) -> Iterator[tuple[Fraction, Fraction]]:
    """Nested intervals around q + m*theta, one per refinement; BudgetError naming `goal` after the cap."""
    for _ in range(REFINEMENT_BUDGET):
        lo, hi = theta.current
        vlo, vhi = c.q + c.m * lo, c.q + c.m * hi
        yield (vlo, vhi) if vlo <= vhi else (vhi, vlo)
        theta.refine()
    raise BudgetError(f"{goal} within {REFINEMENT_BUDGET} refinements")


def k0_tau_value(c: K0Class, theta: ThetaEnclosure, precision: Fraction) -> tuple[Fraction, Fraction]:
    """Rational interval around q + m*theta with width below `precision`."""
    precision = Fraction(precision)
    if precision <= 0:
        raise ValueError(f"precision must be positive, got {precision}")
    if c.m == 0:
        return (c.q, c.q)
    for vlo, vhi in _value_intervals(c, theta, f"enclosure did not reach precision {precision}"):
        if vhi - vlo < precision:
            return (vlo, vhi)


def k0_positive(c: K0Class, theta: ThetaEnclosure) -> bool:
    """Membership of q + m*theta in the positive cone (nonnegative reals).

    The zero class is in the cone by convention.  For nonzero classes with
    m != 0 the value is irrational, so refinement is guaranteed to separate
    it from zero eventually.
    """
    if c.is_zero():
        return True
    if c.m == 0:
        return c.q > 0
    for vlo, vhi in _value_intervals(c, theta, f"sign of {c} undecided"):
        if vlo > 0:
            return True
        if vhi < 0:
            return False


def k1_limit_normalize(stage: int, pair: tuple[int, int], sizes: Iterable[int]) -> K1Class:
    """Stage-(k) K1 datum (a, b) as a class in the limit Q(delta) (+) Z.

    The connecting maps send (a, b) at stage k to (m_k * a, b) at stage k+1,
    so (a, b) normalizes to (a / n_k, b), constant along orbits.
    """
    sizes = tuple(sizes)
    if not (1 <= stage <= len(sizes)):
        raise MismatchError(f"stage {stage} outside configured sequence")
    a, b = pair
    return K1Class(Fraction(a, sizes[stage - 1]), int(b))


_TRI = bool | None


def _tri_and(x: _TRI, y: _TRI) -> _TRI:
    if x is False or y is False:
        return False
    if x is True and y is True:
        return True
    return None


def _tri_or(x: _TRI, y: _TRI) -> _TRI:
    if x is True or y is True:
        return True
    if x is False and y is False:
        return False
    return None


@dataclass(frozen=True)
class Decision:
    answer: str
    finite_evidence: bool
    witness: dict

    def to_json(self) -> dict:
        return {"answer": self.answer, "finiteEvidence": self.finite_evidence, "witness": self.witness}


def _member_tri(r: Fraction, delta: SupernaturalNumber) -> _TRI:
    # Declared exponents bound the true invariant from below, so a positive
    # membership survives any completion of finite evidence; a negative one
    # may not.
    if q_delta_member(r, delta):
        return True
    return None if delta.finite_evidence else False


def decide_isomorphism(theta1: Angle, delta1: SupernaturalNumber,
                       theta2: Angle, delta2: SupernaturalNumber) -> Decision:
    """The classification criterion for two rotation-instance limit algebras.

    Isomorphic iff the supernatural numbers agree and theta1 - theta2 or
    theta1 + theta2 lies in Q(delta).  Angles are q + r*theta over the one
    formal theta; a combination q' + r'*theta is rational iff r' = 0, so each
    sign case needs its r-combination to vanish exactly.
    """
    finite = delta1.finite_evidence or delta2.finite_evidence
    if finite:
        delta_eq: _TRI = None
    else:
        delta_eq = delta1 == delta2

    witness: dict = {}
    diff = _tri_and(theta1.r == theta2.r, _member_tri(theta1.q - theta2.q, delta1))
    summ = _tri_and(theta1.r == -theta2.r, _member_tri(theta1.q + theta2.q, delta1))
    angle_ok = _tri_or(diff, summ)
    verdict = _tri_and(delta_eq, angle_ok)

    if verdict is True:
        case, value = ("difference", theta1.q - theta2.q) if diff is True else ("sum", theta1.q + theta2.q)
        witness = {"case": case, "value": format_fraction(value), "denominator": value.denominator}
        answer = "isomorphic"
    elif verdict is False:
        if delta_eq is False:
            witness = {"component": "delta", "delta1": str(delta1), "delta2": str(delta2)}
        else:
            witness = {
                "component": "angle",
                "rDifference": format_fraction(theta1.r - theta2.r),
                "rSum": format_fraction(theta1.r + theta2.r),
            }
        answer = "not-isomorphic"
    else:
        witness = {"component": "finite-evidence"}
        answer = "undecidable-with-finite-evidence"
    return Decision(answer, finite, witness)


def decide_amplification(p: int, theta: Angle, delta: SupernaturalNumber) -> tuple[Angle, SupernaturalNumber]:
    """Invariant data of the p x p matrix amplification: (theta / p, p * delta)."""
    if p < 1:
        raise MismatchError("amplification order must be >= 1")
    return theta.scaled(Fraction(1, p)), delta.amplify(p)


@dataclass(frozen=True)
class SimplicityDecision:
    simple: bool
    stage_size: int | None = None
    invariant_subset: tuple[int, ...] | None = None

    def to_json(self) -> dict:
        data: dict = {"answer": "simple" if self.simple else "not-simple"}
        if not self.simple:
            data["witness"] = {"stageSize": self.stage_size, "invariantSubset": list(self.invariant_subset)}
        return data


def decide_simplicity_finite_model(d: int, sizes: Iterable[int]) -> SimplicityDecision:
    """Simplicity of the limit over the d-point shift model.

    Simple iff no stage power has a proper invariant subset of Z/d; the first
    offending stage is returned with its subset (the nontrivial invariant
    ideal of functions supported on it).
    """
    for n in sizes:
        subset = cyclic_invariant_ideal_search(d, n)
        if subset is not None:
            return SimplicityDecision(False, n, tuple(sorted(subset)))
    return SimplicityDecision(True)


def decide_trace_uniqueness_finite_model(d: int, sizes: Iterable[int]) -> bool:
    """Unique invariant trace iff every stage shift acts with a single orbit.

    Invariant states are convex combinations of orbit-uniform measures, so
    uniqueness at stage n_k means one orbit of i -> i + n_k on Z/d.
    """
    return all(len(cyclic_orbits(d, n)) == 1 for n in sizes)


def ktheory_presentation(sizes: Iterable[int], declared_tail: dict[int, int | float] | None = None) -> dict:
    """K0/K1 presentations and per-stage normalization data for a sequence."""
    sizes = tuple(int(n) for n in sizes)
    delta = SupernaturalNumber.from_sequence(sizes, declared_tail)
    return {
        "sizes": list(sizes),
        "delta": delta.to_json(),
        "k0": {
            "group": "Q(delta) + theta*Z",
            "positiveCone": "values q + m*theta >= 0",
            "orderUnit": K0Class(Fraction(1), 0).to_json(),
            "traceImage": "Q(delta) + theta*Z",
        },
        "k1": {
            "group": "Q(delta) (+) Z",
            "stageMap": "(a, b) -> (m_k*a, b)",
            "stageNormalization": [
                {"stage": k, "size": n, "classOf(1,1)": k1_limit_normalize(k, (1, 1), sizes).to_json()}
                for k, n in enumerate(sizes, start=1)
            ],
        },
        "traceUniqueness": CIRCLE_TRACE_UNIQUENESS,
    }
