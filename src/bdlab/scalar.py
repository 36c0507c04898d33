"""Exact scalar arithmetic for all coefficients in the library.

A scalar is a finite rational combination of basis monomials e(r) * t^s where
e(r) stands for the root of unity exp(2*pi*i*r) with rational r in [0, 1), and
t is a formal unit-circle symbol (morally exp(2*pi*i*theta) for a fixed formal
irrational theta) carrying a rational exponent s.  Distinct theta exponents
never interact: t is transcendental over the cyclotomics by fiat.

Canonical form: within each theta exponent, the root-of-unity combination is
written in the Zumbroich basis (the one GAP uses: W. Bosma, AAECC 1 (1990);
T. Breuer, AAECC 8 (1997)) at the least conductor N that holds its value,
never N = 2 mod 4.  Each value has exactly one stored form, so x == y
compares stored forms and equal values serialize alike.  Read e(a/N) as
zeta_N^a.  For each p^k || N, write the p-part j = a * (N/p^k)^-1 mod p^k in
base p with lower digits in 0..1 (p = 2) or -(p-1)/2..(p-1)/2 (odd p); a is
a basis exponent when every top digit, at place p^(k-1), is 0 for p = 2 and
nonzero for odd p.  A term with a top digit not allowed is rewritten by
zeta_2 = -1 or 1 + zeta_p + ... + zeta_p^(p-1) = 0, each step adding N/p to
its exponent, which moves only that digit.  N then shrinks a prime at a
time: by p when p = 2 or p^2 | N and p divides every exponent; by an odd
p || N when the p - 1 exponents of each class mod N/p share a coefficient c,
the class being -c * zeta_(N/p)^(b/p) for its member b that p divides.
Examples: e(1/6) - 1 -> e(1/3); 2 + e(1/3) -> -e(1/3) - 2e(2/3);
e(1/12) -> -e(7/12); e(1/9) -> -e(4/9) - e(7/9).  Short sums at a large
conductor can expand: 1 + e(1/30030) takes 5760 terms.

Layout: a scalar stores, for each theta exponent s, one integer group
(N, D, nums) with value sum nums[a]/D * e(a/N) over the nonzero integer
numerators nums[a], every a a basis exponent at the least conductor N, D > 0
and gcd(D, *nums) == 1.  The term e(a/N) * t^s with coefficient nums[a]/D is
exactly the term a Fraction-keyed form stores, so serialized forms do not
depend on the layout.  A theta exponent is kept as an int when it is
integral and as a Fraction otherwise; the two hash and compare alike, so
mixed keys are safe.  ``terms`` and ``to_json`` expose the Fraction view.

``_normalize`` is the only reduction, and it runs only where the result can
differ from its input.  Public input (``Scalar(...)``, ``term``,
``root_of_unity``, ``from_json``) becomes raw integer groups once, on the
way in: the constructor reads each rational through Fraction, and
``from_json`` reads a field spelled as ``to_json`` writes it,
``-?[0-9]+(/[0-9]+)?`` with a nonzero denominator, as two ints, and any
other text through ``parse_fraction``.  ``+`` and ``*`` hand ``_normalize``
raw integer groups too, and each stores its result as canonical.  ``+``
reduces only the theta exponents both sides hold; ``x - y`` is ``x + (-y)``,
except that equal values, which have one stored form, cancel to zero with
no reduction.  A canonical group reduces to itself, so ``_normalize`` is
idempotent.

Two operations skip ``_normalize``, because they keep the basis; each maps
the stored groups key by key:

* ``scaled(p, q, s)``, the product with a root-free monomial p/q * t^s.  It
  moves each group to theta + s, an int when integral, and scales its
  numerators by p/q, which keeps every exponent, so only the gcd of the
  denominator and the numerators needs dividing out, and none at p/q = +-1,
  which leaves gcd(D, *nums) at 1.  At p/q * t^s = 1 it returns the scalar
  itself, which is safe as scalars are immutable.  ``*`` takes this path
  when a factor is a root-free monomial (one theta exponent whose group has
  conductor 1): rational factors are the case s = 0, and alpha phases with
  no root the case q = 1; ``coeff.CircleRotation.alpha_power`` calls it
  directly with p = +-1 at a whole or half turn.  A factor with a root
  moves the exponents off the basis and goes through the general product.
* ``star``, a key map.  Conjugation sends e(a/N) to e(-a/N) at the same
  conductor N and denominator D, and theta to -theta.  Negation negates every
  balanced odd digit, so for N odd -a mod N is again a basis exponent.  For
  2^k || N (k >= 2, as N is never 2 mod 4), the 2-part j of a becomes -j, whose
  top digit is 1 unless j = 0; one step by zeta_2 = -1 brings it back.  So an
  exponent a with a != 0 mod 2^k goes to (N/2 - a) mod N with its
  coefficient negated, and any other exponent goes to -a mod N.  The
  conjugate of a value needs no smaller conductor than the value itself, so
  N stays the least.

``factorize`` is the library's one prime factorization, behind the prime
data of each conductor, ``cyclotomic_polynomial`` (built from the primes of
N alone) and the supernatural numbers of ``invariants``.  Its trial division
stops with a BudgetError past FACTOR_LIMIT, which no conductor reaches.

``_reduce_root_group(group)`` is the per-group step, one call per theta
exponent that ``_normalize`` reduces.  The bench tracer wraps it and reads
``group.items()`` as (root, coefficient) pairs: ``_RawGroup.items`` yields
(Fraction(a, N), nums[a]), so the tracer sees each root's true denominator.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Union

from .errors import BudgetError

RationalLike = Union[int, Fraction]
Theta = Union[int, Fraction]
#: A canonical root group (N, D, nums): the value sum nums[a]/D * e(a/N).
Group = tuple[int, int, dict[int, int]]

#: Root-exponent denominators above this bound are rejected rather than
#: reduced; guards against runaway conductors from pathological inputs.
CONDUCTOR_LIMIT = 10**6

#: Trial divisors above this bound are not tried: ``factorize`` raises a
#: BudgetError instead of running for minutes on a large prime factor.
FACTOR_LIMIT = 10**6


def parse_fraction(text: str) -> Fraction:
    """A rational from 'p', 'p/q' or a decimal; exponent notation is rejected.

    Fraction would build 10^e exactly for '1e10000000', which takes seconds
    and grows with e, so a short string could stall any caller.
    """
    text = text.strip()
    if "e" in text or "E" in text:
        raise ValueError(f"exponent notation is not accepted: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_fraction(value: RationalLike) -> str:
    return str(Fraction(value))


def factorize(n: int) -> dict[int, int]:
    """{prime: exponent} of n >= 1 by trial division, exact for n <= FACTOR_LIMIT**2."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        if p > FACTOR_LIMIT:
            raise BudgetError(f"factoring {n} needs trial divisors above {FACTOR_LIMIT}")
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


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


def _substitute_power(poly: list[int], s: int) -> list[int]:
    """The coefficients of poly(x^s)."""
    out = [0] * ((len(poly) - 1) * s + 1)
    out[::s] = poly
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, index = degree.

    From Phi_1 = x - 1, Phi_pm(x) = Phi_m(x^p) / Phi_m(x) for each prime p of n
    (p not dividing m) reaches Phi_rad(n); then Phi_n(x) = Phi_rad(n)(x^(n/rad(n))).
    """
    poly, rad = [-1, 1], 1
    for p in factorize(n):
        poly = _poly_div_exact(_substitute_power(poly, p), tuple(poly))
        rad *= p
    return tuple(_substitute_power(poly, n // rad))


def _theta_key(theta: RationalLike) -> Theta:
    """The stored theta exponent: an int when integral, else the Fraction."""
    if type(theta) is int:
        return theta
    return theta.numerator if theta.denominator == 1 else theta


class _RawGroup:
    """One theta exponent's roots before reduction: sum nums[a]/den * e(a/modulus).

    Any a in [0, modulus) may occur, numerators may be zero, and neither the
    modulus nor den need be the least one.
    """

    __slots__ = ("modulus", "den", "nums")

    def __init__(self, modulus: int, den: int, nums: dict[int, int]):
        self.modulus, self.den, self.nums = modulus, den, nums

    def items(self) -> list[tuple[Fraction, int]]:
        """(root, numerator) pairs, roots as reduced Fractions."""
        return [(Fraction(a, self.modulus), c) for a, c in self.nums.items()]


def _at_joint_conductor(n: int, nums: dict[int, int]) -> tuple[int, dict[int, int]]:
    """The same roots over the least modulus that holds them all."""
    g = gcd(n, *nums)
    if g == 1:
        return n, nums
    return n // g, {a // g: c for a, c in nums.items()}


@lru_cache(maxsize=None)
def _prime_powers(n: int) -> tuple[tuple[int, int, int], ...]:
    """(p, q, u) for each prime power q = p^k exactly dividing n, with u = (n/q)^-1 mod q."""
    return tuple((p, p**k, pow(n // p**k, -1, p**k)) for p, k in factorize(n).items())


def _to_basis(n: int, nums: dict[int, int]) -> dict[int, int]:
    """Nonzero numerators at conductor n rewritten over the Zumbroich basis there, zeros dropped."""
    for p, q, u in _prime_powers(n):
        low, step = q // p, n // p
        # the top digit is not allowed on a window of q/p residues of the p-part
        start = low if p == 2 else -(low // 2)
        bad = [a for a in nums if (a * u - start) % q < low]
        if bad:
            nums = dict(nums)
            for a in bad:
                c = nums.pop(a)
                for i in range(1, p):
                    b = (a + i * step) % n
                    nums[b] = nums.get(b, 0) - c
            nums = {a: c for a, c in nums.items() if c}
    return nums


def _shrink(n: int, nums: dict[int, int]) -> tuple[int, dict[int, int]]:
    """A basis expansion at n, moved to the least conductor that holds its value."""
    for p, q, _ in _prime_powers(n):
        while q > 1:
            m = n // p
            if p == 2 or q > p:
                if gcd(p, *nums) == 1:
                    break
                nums = {a // p: c for a, c in nums.items()}
            else:
                # each class mod m holds at most p - 1 basis exponents
                first = {} if len(nums) % (p - 1) else {a % m: c for a, c in nums.items()}
                if len(nums) != len(first) * (p - 1) or any(first[a % m] != c for a, c in nums.items()):
                    break
                nums = {r * pow(p, -1, m) % m: -c for r, c in first.items()}
            n, q = m, q // p
    return n, nums


def _reduce_root_group(group: _RawGroup) -> Group | None:
    """The canonical group of a raw one, or None when its value is zero."""
    n, nums = group.modulus, group.nums
    if not all(nums.values()):
        nums = {a: c for a, c in nums.items() if c}
    if not nums:
        return None
    if n > 1:
        n, nums = _at_joint_conductor(n, nums)
        if n > CONDUCTOR_LIMIT:
            raise BudgetError(f"root-of-unity conductor {n} exceeds limit {CONDUCTOR_LIMIT}")
        nums = _to_basis(n, nums)
        if not nums:
            return None
        n, nums = _shrink(n, nums)
    den = group.den
    g = gcd(den, *nums.values())
    if g > 1:
        den //= g
        nums = {a: c // g for a, c in nums.items()}
    return n, den, nums


def _normalize(raw: dict[Theta, _RawGroup]) -> dict[Theta, Group]:
    """Canonical groups of raw ones, by theta exponent; groups that vanish are dropped."""
    groups = {}
    for theta, group in raw.items():
        reduced = _reduce_root_group(group)
        if reduced is not None:
            groups[theta] = reduced
    return groups


def _raw_group(terms: list[tuple[int, int, int, int]]) -> _RawGroup:
    """The raw group of terms (p, q, c, d), each c/d * e(p/q) with q, d > 0 and c != 0."""
    n = lcm(*(q for _, q, _, _ in terms))
    den = lcm(*(d for _, _, _, d in terms))
    nums: dict[int, int] = {}
    for p, q, c, d in terms:
        a = p * (n // q) % n
        nums[a] = nums.get(a, 0) + c * (den // d)
    return _RawGroup(n, den, nums)


def _grouped(terms: Iterable[tuple[Theta, int, int, int, int]]) -> dict[Theta, Group]:
    """The canonical groups of terms (theta, p, q, c, d), each c/d * e(p/q) * t^theta with q, d > 0."""
    by_theta: dict[Theta, list[tuple[int, int, int, int]]] = {}
    for theta, p, q, c, d in terms:
        if c:
            by_theta.setdefault(theta, []).append((p, q, c, d))
    return _normalize({theta: _raw_group(group) for theta, group in by_theta.items()})


#: A field as ``to_json`` writes it: an integer or p/q, read as two ints when q != 0.
_RATIONAL_FIELD = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _read_rational(text) -> tuple[int, int]:
    """(p, q) with q > 0 and p/q the value of a JSON field; text not spelled as
    ``to_json`` spells it goes through parse_fraction, with its values and errors."""
    m = _RATIONAL_FIELD.fullmatch(text) if isinstance(text, str) else None
    if m:
        p, q = m.groups()
        q = int(q) if q else 1
        if q:
            return int(p), q
    value = parse_fraction(text)
    return value.numerator, value.denominator


def _joined(x: Group, y: Group) -> _RawGroup:
    """The raw sum of two groups at one theta exponent."""
    (n1, d1, nums1), (n2, d2, nums2) = x, y
    n, d = lcm(n1, n2), lcm(d1, d2)
    s, f = n // n1, d // d1
    nums = {a * s: c * f for a, c in nums1.items()}
    s, f = n // n2, d // d2
    for a, c in nums2.items():
        a *= s
        nums[a] = nums.get(a, 0) + c * f
    return _RawGroup(n, d, nums)


def _rescaled(groups: dict[Theta, Group], n: int, d: int) -> list[tuple[Theta, dict[int, int]]]:
    """Each group's numerators over modulus n and denominator d, multiples of its own."""
    out = []
    for theta, (gn, gd, nums) in groups.items():
        s, f = n // gn, d // gd
        if s != 1 or f != 1:
            nums = {a * s: c * f for a, c in nums.items()}
        out.append((theta, nums))
    return out


def _times_monomial(groups: dict[Theta, Group], qn: int, qd: int, s: RationalLike) -> dict[Theta, Group]:
    """The groups times the root-free monomial qn/qd * t^s, for integers qn != 0 and qd > 0.

    qn/qd need not be in lowest terms: each group's gcd is divided out here,
    except at qn/qd = +-1, under which a canonical group's gcd stays 1."""
    out = {}
    for theta, (n, d, nums) in groups.items():
        if qn != 1 or qd != 1:
            d *= qd
            nums = {a: c * qn for a, c in nums.items()}
            g = 1 if qn == -1 and qd == 1 else gcd(d, *nums.values())
            if g > 1:
                d //= g
                nums = {a: c // g for a, c in nums.items()}
        out[_theta_key(theta + s) if s else theta] = (n, d, nums)
    return out


def _json_terms(data: list[dict[str, str]]):
    """(theta, p, q, c, d) for each JSON term c/d * e(p/q) * t^theta, fields read as root, theta, coeff."""
    for item in data:
        p, q = _read_rational(item.get("root", "0"))
        tn, td = _read_rational(item.get("theta", "0"))
        c, d = _read_rational(item["coeff"])
        yield (tn // td if tn % td == 0 else Fraction(tn, td)), p, q, c, d


class Scalar:
    """Immutable exact scalar; supports +, -, *, star() and complete equality."""

    __slots__ = ("_groups",)

    def __init__(self, terms: Iterable | dict = ()):
        if isinstance(terms, dict):
            terms = terms.items()
        fractions = ((Fraction(r), Fraction(t), Fraction(c)) for (r, t), c in terms)
        self._groups = _grouped((_theta_key(theta), root.numerator, root.denominator, coeff.numerator,
                                 coeff.denominator) for root, theta, coeff in fractions)

    @classmethod
    def _of(cls, groups: dict[Theta, Group]) -> Scalar:
        """Wrap canonical groups."""
        s = cls.__new__(cls)
        s._groups = groups
        return s

    @staticmethod
    def zero() -> Scalar:
        return Scalar._of({})

    @staticmethod
    def one() -> Scalar:
        return Scalar.from_rational(1)

    @staticmethod
    def from_rational(value: RationalLike) -> Scalar:
        value = Fraction(value)
        if not value:
            return Scalar.zero()
        return Scalar._of({0: (1, value.denominator, {0: value.numerator})})

    @staticmethod
    def root_of_unity(root: RationalLike) -> Scalar:
        """e(root) = exp(2*pi*i*root)."""
        return Scalar([((Fraction(root), Fraction(0)), Fraction(1))])

    @staticmethod
    def t_power(exponent: RationalLike) -> Scalar:
        return Scalar._of({_theta_key(Fraction(exponent)): (1, 1, {0: 1})})

    @staticmethod
    def term(coeff: RationalLike, root: RationalLike = 0, theta: RationalLike = 0) -> Scalar:
        return Scalar([((Fraction(root), Fraction(theta)), Fraction(coeff))])

    @property
    def terms(self) -> dict[tuple[Fraction, Fraction], Fraction]:
        """{(root, theta): coefficient}, all Fractions, roots in [0, 1)."""
        return {
            (Fraction(a, n), Fraction(theta)): Fraction(c, d)
            for theta, (n, d, nums) in self._groups.items()
            for a, c in nums.items()
        }

    def is_zero(self) -> bool:
        return not self._groups

    def __bool__(self) -> bool:
        return bool(self._groups)

    def __add__(self, other) -> Scalar:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._groups:
            return self
        if not self._groups:
            return other
        merged = dict(self._groups)
        raw = {}
        for theta, group in other._groups.items():
            mine = merged.pop(theta, None)
            if mine is None:
                merged[theta] = group
            else:
                raw[theta] = _joined(mine, group)
        # Joining two canonical groups can raise the conductor, so re-reduce.
        merged.update(_normalize(raw))
        return Scalar._of(merged)

    __radd__ = __add__

    def __neg__(self) -> Scalar:
        return Scalar._of({
            theta: (n, d, {a: -c for a, c in nums.items()}) for theta, (n, d, nums) in self._groups.items()
        })

    def __sub__(self, other) -> Scalar:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._groups == other._groups:
            return Scalar.zero()
        return self + (-other)

    def __mul__(self, other) -> Scalar:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        xg, yg = self._groups, other._groups
        if not xg or not yg:
            return Scalar.zero()
        for x, y in ((self, other), (other, self)):
            if len(y._groups) == 1:
                (s, (yn, yd, ynums)), = y._groups.items()
                if yn == 1:
                    # a root-free monomial factor keeps the roots (see the module docstring)
                    return x.scaled(ynums[0], yd, s)
        n, dx, dy = 1, 1, 1
        for gn, gd, _ in xg.values():
            n, dx = lcm(n, gn), lcm(dx, gd)
        for gn, gd, _ in yg.values():
            n, dy = lcm(n, gn), lcm(dy, gd)
        d = dx * dy
        raw: dict[Theta, _RawGroup] = {}
        ys = _rescaled(yg, n, dy)
        for t1, nums1 in _rescaled(xg, n, dx):
            for t2, nums2 in ys:
                theta = t1 + t2  # _theta_key, inlined in the innermost loop
                if type(theta) is not int and theta.denominator == 1:
                    theta = theta.numerator
                group = raw.get(theta)
                if group is None:
                    group = raw[theta] = _RawGroup(n, d, {})
                acc = group.nums
                if n == 1:
                    acc[0] = acc.get(0, 0) + nums1[0] * nums2[0]
                    continue
                for a1, c1 in nums1.items():
                    for a2, c2 in nums2.items():
                        a = a1 + a2
                        if a >= n:
                            a -= n
                        acc[a] = acc.get(a, 0) + c1 * c2
        return Scalar._of(_normalize(raw))

    __rmul__ = __mul__

    def scaled(self, p: int, q: int, theta: RationalLike) -> Scalar:
        """This scalar times p/q * t^theta, for integers p and q > 0; no reduction runs (module docstring)."""
        if p == q and not theta:
            return self
        if not p or not self._groups:
            return Scalar.zero()
        return Scalar._of(_times_monomial(self._groups, p, q, theta))

    def star(self) -> Scalar:
        """Complex conjugation: e(r) -> e(-r), t^s -> t^(-s), rationals fixed; a key map on the basis."""
        groups = {}
        for theta, (n, d, nums) in self._groups.items():
            two = n & -n  # 2^k || n
            half = n // 2
            groups[-theta] = (n, d, {
                (half - a) % n if a % two else -a % n: -c if a % two else c for a, c in nums.items()
            })
        return Scalar._of(groups)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # one stored form per value
        return self._groups == other._groups

    def to_json(self) -> list[dict[str, str]]:
        out = []
        for theta in sorted(self._groups):
            n, d, nums = self._groups[theta]
            t = str(theta)
            for a in sorted(nums):
                c = nums[a]
                g = gcd(c, d)
                coeff = str(c // g) if g == d else f"{c // g}/{d // g}"
                g = gcd(a, n)
                out.append({"coeff": coeff, "root": f"{a // g}/{n // g}" if a else "0", "theta": t})
        return out

    @staticmethod
    def from_json(data: list[dict[str, str]]) -> Scalar:
        return Scalar._of(_grouped(_json_terms(data)))

    def __repr__(self) -> str:
        if not self._groups:
            return "0"
        parts = []
        for (root, theta), coeff in sorted(self.terms.items(), key=lambda kv: (kv[0][1], kv[0][0])):
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

