"""Coefficient *-algebras with a distinguished automorphism.

Two concrete instances back everything downstream:

* ``CircleRotation(angle)``: trigonometric polynomials sum c_m z^m on the
  circle, with alpha rotating by the angle q + r*theta.  On a monomial,
  alpha^m(z^p) = e(-p*m*q) * t^(-p*m*r) * z^p, i.e. rotation only twists the
  coefficient by an exact phase.  When e*q (e = p*m) is a whole or a half
  turn, the phase is t^(-e*r) or -t^(-e*r), and the twist is a key map: each
  theta exponent of the coefficient moves by -e*r, with its numerators
  negated at a half turn (``Scalar.scaled`` by +-1), which keeps the
  canonical form.  Any other phase has a root, and the coefficient is
  multiplied by it.
* ``FiniteCyclicShift(d)``: functions on Z/d with alpha the cyclic shift; a
  finite testbed for the invariant-ideal and trace-uniqueness questions.

Both are dense *-subalgebras of their C*-completions; every identity checked
in this library is a polynomial identity, so exactness costs nothing.
Elements are immutable and operations are pure.  trace0 is the canonical
invariant state: the z^0 coefficient, resp. the uniform average.

Both element types are ``sparse.SparseSum``s and take their sums and
equality from it.  A circle function is a Laurent sum with the identity
twist; a cyclic function stores its nonzero values by point and keeps its own
pointwise product, star and shift.

Random elements draw their scalars with ``sample_scalar``, from a table of
canonical units: ``_UNITS`` holds e(root) for each root choice, built once at
import through ``Scalar.root_of_unity``, and a draw only scales one of them by
a root-free monomial, which keeps its canonical form.

Positivity of elements is deliberately not modelled: the identities verified
downstream are linear in any weights involved, so arbitrary elements may
stand in where the operator picture would ask for positive ones.
"""

from __future__ import annotations

import operator
import random
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import MismatchError
from .scalar import Scalar, format_fraction, parse_fraction
from .sparse import SparseSum, exponent_from_key, json_int

#: Distinct exponents memoized per CircleRotation in each of its three memos: the
#: key-map rule of alpha's phase at e, that phase itself when it has a root, and
#: the composite tag of alpha^power.
PHASE_CACHE_SIZE = 1024

_ROOT_CHOICES = (0, 0, 0, 0, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 6))
_THETA_CHOICES = (0, 0, 0, 1, -1, 2)
#: e(root) for each root choice, in canonical form, built once at import.
_UNITS = tuple(Scalar.root_of_unity(root) for root in _ROOT_CHOICES)


def sample_scalar(rng: random.Random) -> Scalar:
    """(c/d) * e(root) * t^theta, drawn in that order, each from a fixed choice list.

    The unit e(root) comes from ``_UNITS``, and ``Scalar.scaled`` applies the
    root-free monomial (c/d) * t^theta to it, so a draw reduces nothing.
    """
    c = rng.choice((-3, -2, -1, 1, 1, 2, 3))
    d = rng.choice((1, 1, 2, 3))
    unit = rng.choice(_UNITS)
    return unit.scaled(c, d, rng.choice(_THETA_CHOICES))


@dataclass(frozen=True)
class Angle:
    """A rotation angle q + r*theta with rational q, r and theta formal."""

    q: Fraction
    r: Fraction

    def scaled(self, factor: Fraction | int) -> Angle:
        factor = Fraction(factor)
        return Angle(self.q * factor, self.r * factor)

    @staticmethod
    def parse(text: str) -> Angle:
        """Parse 'q+r*theta' style input, e.g. 'theta', '-theta+1/8', '1/2*theta+3/4'."""
        text = text.replace(" ", "")
        # each sign must be followed by a term: no doubled, leading-double or trailing sign
        if not re.fullmatch(r"[+-]?[^+-]+(?:[+-][^+-]+)*", text):
            raise ValueError(f"angle {text!r} is not a sum of signed terms")
        terms = re.findall(r"([+-]?)([^+-]+)", text)
        q = Fraction(0)
        r = Fraction(0)
        for sign, body in terms:
            factor = Fraction(-1 if sign == "-" else 1)
            theta = re.fullmatch(r"(?:([^*]+)\*)?theta", body)
            number = (theta[1] or "1") if theta else body
            if "theta" in number or "*" in number:
                raise ValueError(f"angle term {body!r} is not of the form p/q or p/q*theta")
            value = factor * parse_fraction(number)
            if theta:
                r += value
            else:
                q += value
        return Angle(q, r)

    def __str__(self) -> str:
        if self.r == 0:
            return str(self.q)
        r = "theta" if self.r == 1 else ("-theta" if self.r == -1 else f"{self.r}*theta")
        if self.q == 0:
            return r
        return f"{r}+{self.q}" if self.q > 0 else f"{r}{self.q}"

    def to_json(self) -> dict:
        return {"q": format_fraction(self.q), "r": format_fraction(self.r)}

    @staticmethod
    def from_json(data: dict) -> Angle:
        return Angle(parse_fraction(data["q"]), parse_fraction(data["r"]))


class CircleFunction(SparseSum):
    """Trigonometric polynomial sum c_m z^m with Scalar coefficients."""

    __slots__ = ()
    _symbol = "z"

    @staticmethod
    def one() -> CircleFunction:
        return CircleFunction({0: Scalar.one()})

    @staticmethod
    def z(power: int = 1, coeff: Scalar | None = None) -> CircleFunction:
        return CircleFunction({power: coeff if coeff is not None else Scalar.one()})

    def __mul__(self, other: CircleFunction) -> CircleFunction:
        return self._product(other)

    @staticmethod
    def from_json(data: dict) -> CircleFunction:
        return CircleFunction({exponent_from_key(key, "z"): Scalar.from_json(val) for key, val in data.items()})


class FiniteCyclicFunction(SparseSum):
    """A Scalar-valued function on Z/d, stored as ``{point: value}`` without zero values."""

    __slots__ = ("modulus",)
    _space = operator.attrgetter("modulus")

    def __init__(self, modulus: int, values):
        values = tuple(values)
        if len(values) != modulus:
            raise MismatchError(f"expected {modulus} values, got {len(values)}")
        self.modulus = modulus
        super().__init__(dict(enumerate(values)))

    @staticmethod
    def constant(modulus: int, value: Scalar) -> FiniteCyclicFunction:
        return FiniteCyclicFunction(modulus, (value,) * modulus)

    @property
    def values(self) -> list[Scalar]:
        """The d values in point order, zeros included."""
        zero = Scalar.zero()
        return [self.entries.get(i, zero) for i in range(self.modulus)]

    def __mul__(self, other: FiniteCyclicFunction) -> FiniteCyclicFunction:
        a, b = self._operands(other)
        values = b.entries
        return a._pruned({i: x * values[i] for i, x in a.entries.items() if i in values})

    def star(self) -> FiniteCyclicFunction:
        return self._like({i: a.star() for i, a in self.entries.items()})

    def shifted(self, m: int) -> FiniteCyclicFunction:
        d = self.modulus
        return self._like({(i + m) % d: a for i, a in self.entries.items()})

    def to_json(self) -> dict:
        return {"d": self.modulus, "values": [v.to_json() for v in self.values]}

    @staticmethod
    def from_json(data: dict) -> FiniteCyclicFunction:
        return FiniteCyclicFunction(json_int(data, "d"), (Scalar.from_json(v) for v in data["values"]))

    def __repr__(self) -> str:
        return f"FiniteCyclicFunction({self.modulus}, {self.values!r})"


class CoefficientAlgebra(ABC):
    """Operations of the coefficient *-algebra (A, alpha) used downstream."""

    @abstractmethod
    def zero(self): ...

    @abstractmethod
    def one(self): ...

    @abstractmethod
    def alpha_power(self, element, power: int):
        """Apply alpha^power; a *-automorphism for every integer power."""

    @abstractmethod
    def trace0(self, element) -> Scalar:
        """The alpha-invariant tracial state on the dense subalgebra."""

    @abstractmethod
    def sample(self, rng: random.Random, degree: int = 2):
        """A random element with degree/support bounded by ``degree``."""

    @abstractmethod
    def tag(self) -> dict:
        """JSON tag identifying the algebra, sufficient to reconstruct it."""

    @abstractmethod
    def composite_tag(self, power: int) -> tuple:
        """Canonical identity of the automorphism alpha^power (for retags)."""

    @abstractmethod
    def element_from_json(self, data: dict): ...

    @staticmethod
    def from_tag(data: dict) -> CoefficientAlgebra:
        kind = data.get("kind")
        if kind == "circle":
            return CircleRotation(Angle.from_json(data["angle"]))
        if kind == "cyclic":
            return FiniteCyclicShift(json_int(data, "d"))
        raise ValueError(f"unknown algebra tag {data!r}")


@dataclass(frozen=True)
class CircleRotation(CoefficientAlgebra):
    """C(T) trigonometric polynomials with alpha = rotation by q + r*theta."""

    angle: Angle
    _phases: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _turns: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _tags: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def zero(self) -> CircleFunction:
        return CircleFunction()

    def one(self) -> CircleFunction:
        return CircleFunction.one()

    def alpha_power(self, element: CircleFunction, power: int) -> CircleFunction:
        if power == 0 or element.is_zero():
            return element
        entries = {}
        for m, c in element.entries.items():
            turn = self._turn(m * power)
            entries[m] = c.scaled(*turn) if turn else self._phase(m, power) * c
        return element._like(entries)

    def _turn(self, e: int) -> tuple | None:
        """``Scalar.scaled``'s arguments (sign, 1, shift) when e(-e*q) * t^(-e*r) is sign * t^shift, else None.

        That is when e*q is a whole turn (sign 1) or a half turn (sign -1).
        Memoized per e like the phases; shift is an int when integral, so that
        most re-keyings add ints.
        """
        turns = self._turns
        if e in turns:
            return turns[e]
        den = (e * self.angle.q).denominator  # 1 at a whole turn, 2 at a half turn
        shift = -e * self.angle.r
        turn = (-1 if den == 2 else 1, 1, shift.numerator if shift.denominator == 1 else shift) if den <= 2 else None
        if len(turns) < PHASE_CACHE_SIZE:
            turns[e] = turn
        return turn

    def _phase(self, z_power: int, alpha_power: int) -> Scalar:
        """The phase e(-e*q) * t^(-e*r) that alpha^m puts on z^p, for e = p*m.

        Memoized per e, for at most PHASE_CACHE_SIZE exponents.  ``alpha_power``
        asks only for the phases with a root; the others are key maps (``_turn``).
        """
        e = z_power * alpha_power
        phase = self._phases.get(e)
        if phase is None:
            phase = Scalar.term(1, root=-e * self.angle.q, theta=-e * self.angle.r)
            if len(self._phases) < PHASE_CACHE_SIZE:
                self._phases[e] = phase
        return phase

    def trace0(self, element: CircleFunction) -> Scalar:
        return element.entries.get(0, Scalar.zero())

    def sample(self, rng: random.Random, degree: int = 2) -> CircleFunction:
        coeffs = {}
        for _ in range(rng.randint(1, 2)):
            coeffs[rng.randint(-degree, degree)] = sample_scalar(rng)
        return CircleFunction(coeffs)

    def tag(self) -> dict:
        return {"kind": "circle", "angle": self.angle.to_json()}

    def composite_tag(self, power: int) -> tuple:
        tag = self._tags.get(power)
        if tag is None:
            tag = ("circle", (self.angle.q * power) % 1, self.angle.r * power)
            if len(self._tags) < PHASE_CACHE_SIZE:
                self._tags[power] = tag
        return tag

    def element_from_json(self, data: dict) -> CircleFunction:
        return CircleFunction.from_json(data)


@dataclass(frozen=True)
class FiniteCyclicShift(CoefficientAlgebra):
    """Functions on Z/d with alpha the shift i -> i+1."""

    d: int

    def zero(self) -> FiniteCyclicFunction:
        return FiniteCyclicFunction.constant(self.d, Scalar.zero())

    def one(self) -> FiniteCyclicFunction:
        return FiniteCyclicFunction.constant(self.d, Scalar.one())

    def alpha_power(self, element: FiniteCyclicFunction, power: int) -> FiniteCyclicFunction:
        if element.modulus != self.d:
            raise MismatchError("modulus mismatch")
        return element.shifted(power) if power % self.d else element

    def trace0(self, element: FiniteCyclicFunction) -> Scalar:
        return Fraction(1, self.d) * sum(element.entries.values(), Scalar.zero())

    def sample(self, rng: random.Random, degree: int = 2) -> FiniteCyclicFunction:
        return FiniteCyclicFunction(
            self.d,
            (sample_scalar(rng) if rng.random() < 0.6 else Scalar.zero() for _ in range(self.d)),
        )

    def tag(self) -> dict:
        return {"kind": "cyclic", "d": self.d}

    def composite_tag(self, power: int) -> tuple:
        return ("cyclic", self.d, power % self.d)

    def element_from_json(self, data: dict) -> FiniteCyclicFunction:
        element = FiniteCyclicFunction.from_json(data)
        if element.modulus != self.d:
            raise ValueError(f"function on Z/{element.modulus} given for the algebra on Z/{self.d}")
        return element


def cyclic_orbits(d: int, n: int) -> list[frozenset[int]]:
    """Orbits of i -> i+n on Z/d."""
    seen: set[int] = set()
    orbits = []
    for start in range(d):
        if start in seen:
            continue
        orbit = set()
        i = start
        while i not in orbit:
            orbit.add(i)
            i = (i + n) % d
        seen |= orbit
        orbits.append(frozenset(orbit))
    return orbits


def cyclic_invariant_ideal_search(d: int, n: int) -> frozenset[int] | None:
    """A nonempty proper shift-by-n invariant subset of Z/d, if one exists.

    The subset indexes the ideal of functions vanishing off it.  Invariant
    subsets are exactly unions of orbits, so a single orbit is returned as
    witness whenever there is more than one; None means Z/d is one orbit
    (equivalently gcd(n, d) == 1).
    """
    orbits = cyclic_orbits(d, n)
    if len(orbits) == 1:
        return None
    return orbits[0]
