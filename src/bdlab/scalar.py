"""Exact scalar arithmetic for all coefficients in the library.

A scalar is a finite rational combination of basis monomials e(r) * t^s where
e(r) stands for the root of unity exp(2*pi*i*r) with rational r in [0, 1), and
t is a formal unit-circle symbol (morally exp(2*pi*i*theta) for a fixed formal
irrational theta) carrying a rational exponent s.  Distinct theta exponents
never interact: t is transcendental over the cyclotomics by fiat.

Canonical form: within each fixed theta exponent, the root-of-unity
combination is reduced modulo the N-th cyclotomic polynomial, N being the lcm
of the root-exponent denominators, under the identification e(a/N) = zeta_N^a.
Since 1, zeta_N, ..., zeta_N^(phi(N)-1) form a basis of the cyclotomic field,
a reduced combination is zero exactly when it has no terms, which makes
equality decidable: x == y iff (x - y) normalises to the empty sum.  A stored
form fixes its value, so equal term maps answer x == y at once.  The stored
form still depends on the conductor the terms arrived with (e.g. zeta_3 and
zeta_6 - 1 are the same number in different clothes), so unequal term maps
fall back to the subtraction.

Multiplying by a pure power t^s (``theta_shifted``) needs no reduction.
``_normalize`` groups terms by theta exponent and leaves a canonical root
group unchanged, and a shift by s moves whole groups without touching their
roots, so the shifted terms are exactly what the general product t^s * x
stores.  A factor with a root, e(a) * t^s with a != 0, is different: adding a
to the roots of x and reducing gives an equal scalar, but its stored form can
differ from the product's, because the stored form depends on the conductor
the terms arrive with.  Such factors go through the general product with the
normalized factor, so serialized results stay byte-identical.

``_normalize`` is the only reduction, and it runs only where the result can
differ from its input.  Public input (``Scalar(...)``, ``term``,
``root_of_unity``, ``from_json``) is converted to Fractions with roots in
[0, 1) once, on the way in; ``+``, ``*`` and ``star`` hand ``_normalize`` the
Fractions they already hold and store its result as canonical.  A rational
factor q (a single term at root 0, theta 0) skips ``_normalize`` altogether:
q * x keeps the keys of x and scales its coefficients, which is exactly what
the general product stores.  Scaling by q != 0 keeps every root, and a canonical
root group stays canonical: a group reduced at conductor N whose surviving
roots have joint conductor N1 (a divisor of N) holds exponents
b = a * N1 / N < phi(N) * N1 / N <= phi(N1), so ``_reduce_root_group`` returns
it unchanged.  The same fact makes ``_normalize`` idempotent.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Union

from .errors import BudgetError

RationalLike = Union[int, Fraction]

#: Root-exponent denominators above this bound are rejected rather than
#: reduced; guards against runaway conductors from pathological inputs.
CONDUCTOR_LIMIT = 10**6


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_fraction(value: RationalLike) -> str:
    return str(Fraction(value))


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    p, m = 2, n
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # den is monic with integer coefficients; the division must be exact.
    num = list(num)
    deg = len(den) - 1
    quot = [0] * (len(num) - deg)
    for i in range(len(num) - 1, deg - 1, -1):
        c = num[i]
        if c:
            quot[i - deg] = c
            for j, dc in enumerate(den):
                num[i - deg + j] -= c * dc
    if any(num[:deg]):
        raise ArithmeticError("cyclotomic division left a remainder")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, index = degree."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n)[:-1]:
        poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _reduce_root_group(group: dict[Fraction, Fraction]) -> dict[Fraction, Fraction]:
    """Reduce a root-exponent -> coefficient map modulo the joint conductor."""
    group = {r: c for r, c in group.items() if c}
    if not group:
        return group
    conductor = 1
    for r in group:
        conductor = lcm(conductor, r.denominator)
    if conductor > CONDUCTOR_LIMIT:
        raise BudgetError(f"root-of-unity conductor {conductor} exceeds limit {CONDUCTOR_LIMIT}")
    if conductor == 1:
        return group
    phi = euler_phi(conductor)
    exps = {r.numerator * (conductor // r.denominator): c for r, c in group.items()}
    if all(a < phi for a in exps):
        return group
    coeffs = [Fraction(0)] * conductor
    for a, c in exps.items():
        coeffs[a] += c
    den = cyclotomic_polynomial(conductor)
    for i in range(conductor - 1, phi - 1, -1):
        c = coeffs[i]
        if c:
            for j in range(len(den)):
                coeffs[i - phi + j] -= c * den[j]
    return {Fraction(a, conductor): c for a, c in enumerate(coeffs[:phi]) if c}


def _normalize(raw: Iterable[tuple[tuple[Fraction, Fraction], Fraction]]) -> dict:
    """Canonical terms from ((root, theta), coeff) pairs of Fractions, roots in [0, 1)."""
    by_theta: dict[Fraction, dict[Fraction, Fraction]] = {}
    for (root, theta), coeff in raw:
        if coeff:
            group = by_theta.setdefault(theta, {})
            total = group.get(root)
            group[root] = coeff if total is None else total + coeff
    terms = {}
    for theta, group in by_theta.items():
        for root, coeff in _reduce_root_group(group).items():
            terms[(root, theta)] = coeff
    return terms


class Scalar:
    """Immutable exact scalar; supports +, -, *, star() and complete equality."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable | dict = (), *, _canonical: bool = False):
        if _canonical:
            self._terms = terms if isinstance(terms, dict) else dict(terms)
            return
        if isinstance(terms, dict):
            terms = terms.items()
        self._terms = _normalize(((Fraction(r) % 1, Fraction(t)), Fraction(c)) for (r, t), c in terms)

    @staticmethod
    def zero() -> Scalar:
        return Scalar((), _canonical=True)

    @staticmethod
    def one() -> Scalar:
        return Scalar.from_rational(1)

    @staticmethod
    def from_rational(value: RationalLike) -> Scalar:
        value = Fraction(value)
        if not value:
            return Scalar.zero()
        return Scalar({(Fraction(0), Fraction(0)): value}, _canonical=True)

    @staticmethod
    def root_of_unity(root: RationalLike) -> Scalar:
        """e(root) = exp(2*pi*i*root)."""
        return Scalar([((Fraction(root), Fraction(0)), Fraction(1))])

    @staticmethod
    def t_power(exponent: RationalLike) -> Scalar:
        return Scalar({(Fraction(0), Fraction(exponent)): Fraction(1)}, _canonical=True)

    @staticmethod
    def term(coeff: RationalLike, root: RationalLike = 0, theta: RationalLike = 0) -> Scalar:
        return Scalar([((Fraction(root), Fraction(theta)), Fraction(coeff))])

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return all(root == 0 and theta == 0 for root, theta in self._terms)

    def as_rational(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"not a rational scalar: {self!r}")
        return next(iter(self._terms.values()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other) -> Scalar:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        merged = dict(self._terms)
        for key, coeff in other._terms.items():
            total = merged.get(key)
            merged[key] = coeff if total is None else total + coeff
        # Joining two canonical forms can raise the conductor, so re-reduce.
        return Scalar(_normalize(merged.items()), _canonical=True)

    __radd__ = __add__

    def __neg__(self) -> Scalar:
        return Scalar({k: -c for k, c in self._terms.items()}, _canonical=True)

    def __sub__(self, other) -> Scalar:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> Scalar:
        return _coerce(other) + (-self)

    def __mul__(self, other) -> Scalar:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms or not other._terms:
            return Scalar.zero()
        for x, y in ((self, other), (other, self)):
            if len(y._terms) == 1:
                ((root, theta), q), = y._terms.items()
                if not root and not theta:
                    # a rational factor keeps the keys (see the module docstring)
                    return Scalar({key: c * q for key, c in x._terms.items()}, _canonical=True)
        raw: dict[tuple[Fraction, Fraction], Fraction] = {}
        for (r1, t1), c1 in self._terms.items():
            for (r2, t2), c2 in other._terms.items():
                key = ((r1 + r2) % 1, t1 + t2)
                total = raw.get(key)
                raw[key] = c1 * c2 if total is None else total + c1 * c2
        return Scalar(_normalize(raw.items()), _canonical=True)

    __rmul__ = __mul__

    def theta_shifted(self, shift: RationalLike) -> Scalar:
        """self * t^shift, without renormalizing (see the module docstring)."""
        if not shift:
            return self
        return Scalar((((root, theta + shift), c) for (root, theta), c in self._terms.items()), _canonical=True)

    def star(self) -> Scalar:
        """Complex conjugation: e(r) -> e(-r), t^s -> t^(-s), rationals fixed."""
        return Scalar(
            _normalize((((-root) % 1, -theta), coeff) for (root, theta), coeff in self._terms.items()),
            _canonical=True,
        )

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # Equal stored forms are equal values; unequal ones may still be equal.
        return self._terms == other._terms or (self - other).is_zero()

    def evaluate(self, theta_value: float | Fraction) -> complex:
        """Numeric value with t = exp(2*pi*i*theta_value)."""
        tv = float(theta_value)
        total = 0j
        for (root, theta), coeff in self._terms.items():
            total += float(coeff) * cmath.exp(2j * cmath.pi * (float(root) + theta * tv))
        return total

    def to_json(self) -> list[dict[str, str]]:
        items = sorted(self._terms.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        return [
            {"coeff": format_fraction(c), "root": format_fraction(r), "theta": format_fraction(t)}
            for (r, t), c in items
        ]

    @staticmethod
    def from_json(data: list[dict[str, str]]) -> Scalar:
        terms = [
            (
                (parse_fraction(item.get("root", "0")), parse_fraction(item.get("theta", "0"))),
                parse_fraction(item["coeff"]),
            )
            for item in data
        ]
        return Scalar(terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (root, theta), coeff in sorted(self._terms.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            factors = []
            if coeff != 1 or (root == 0 and theta == 0):
                factors.append(str(coeff))
            if root:
                factors.append(f"e({root})")
            if theta:
                factors.append(f"t^({theta})" if theta != 1 else "t")
            parts.append("*".join(factors))
        return " + ".join(parts)


def _coerce(value) -> Scalar:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar.from_rational(value)
    return NotImplemented


ZERO = Scalar.zero()
ONE = Scalar.one()
