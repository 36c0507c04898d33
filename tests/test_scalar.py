import functools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import bdlab.scalar as scalar_mod
from bdlab.errors import BudgetError
from bdlab.scalar import Scalar, cyclotomic_polynomial, factorize, parse_fraction
from numeric import scalar_value

e = Scalar.root_of_unity
t = Scalar.t_power
rat = Scalar.from_rational


@functools.lru_cache(maxsize=None)
def euler_phi(n):
    result = n
    for p in factorize(n):
        result -= result // p
    return result


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("n", list(range(1, 31)) + [36, 60, 105, 210, 1155, 2310])
def test_cyclotomic_product_over_divisors(n):
    # oracle: prod_{d | n} Phi_d(x) = x^n - 1
    prod = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
    expected = [-1] + [0] * (n - 1) + [1]
    assert prod == expected
    assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)


@functools.lru_cache(maxsize=None)
def ref_cyclotomic(n):
    """Phi_n as x^n - 1 divided by Phi_d for every proper divisor d."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = scalar_mod._poly_div_exact(poly, ref_cyclotomic(d))
    return tuple(poly)


def test_cyclotomic_matches_divisor_division():
    for n in range(1, 401):
        assert cyclotomic_polynomial(n) == ref_cyclotomic(n), n


def mobius(n):
    factors = factorize(n)
    return 0 if any(e > 1 for e in factors.values()) else (-1) ** len(factors)


def test_cyclotomic_30030_at_two():
    # Phi_n(2) = prod_{d | n} (2^d - 1)^mu(n/d), and deg Phi_n = phi(n)
    n = 30030
    poly = cyclotomic_polynomial(n)
    num, den = 1, 1
    for d in range(1, n + 1):
        if n % d == 0:
            mu = mobius(n // d)
            if mu == 1:
                num *= 2**d - 1
            elif mu == -1:
                den *= 2**d - 1
    assert num % den == 0
    assert sum(c << i for i, c in enumerate(poly)) == num // den
    assert len(poly) - 1 == euler_phi(n) == 5760


def test_euler_phi_counts_units():
    for n in range(1, 401):
        assert euler_phi(n) == sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1), n


def test_factorize():
    assert factorize(1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(999983 * 1000003) == {999983: 1, 1000003: 1}
    for n in range(1, 401):
        assert math.prod(p**e for p, e in factorize(n).items()) == n
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_budget():
    # the cofactor is a prime near 10^18: trial division would run to 10^9
    with pytest.raises(BudgetError, match="factoring"):
        factorize(1000000000000000003)


def test_add_examples():
    assert (e(Fraction(1, 3)) + e(Fraction(2, 3)) + rat(1)).is_zero()
    assert t(1) + Scalar.zero() == t(1)
    half_t2 = Scalar.term(Fraction(1, 2), theta=2)
    assert half_t2 + half_t2 == t(2)


def test_mul_examples():
    assert e(Fraction(1, 4)) * e(Fraction(1, 4)) == e(Fraction(1, 2))
    assert t(1) * t(-1) == Scalar.one()
    assert e(Fraction(1, 2)) * e(Fraction(1, 2)) == Scalar.one()


def test_star_examples():
    assert t(1).star() == t(-1)
    assert e(Fraction(1, 3)).star() == e(Fraction(2, 3))
    assert rat(Fraction(3, 5)).star() == rat(Fraction(3, 5))
    # 4 | N: e(-a/N) leaves the basis and comes back by zeta_2 = -1
    assert e(Fraction(1, 4)).star() == -e(Fraction(1, 4))
    assert e(Fraction(1, 4)).star().to_json() == [{"coeff": "-1", "root": "1/4", "theta": "0"}]
    assert e(Fraction(1, 8)).star().to_json() == [{"coeff": "-1", "root": "3/8", "theta": "0"}]


def test_eq_examples():
    assert e(Fraction(1, 3)) + e(Fraction(2, 3)) == rat(-1)
    assert not (t(1) == e(Fraction(1, 2)))
    assert Scalar() == Scalar.zero()


def test_equality_is_value_equality_across_conductors():
    # zeta_3 and zeta_6 - 1 are the same number written at two conductors: one stored form
    lhs = e(Fraction(1, 3))
    rhs = e(Fraction(1, 6)) - rat(1)
    assert lhs.terms == rhs.terms
    assert lhs == rhs


def _random_scalar(rng, max_terms=2):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        root = rng.choice([Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1, 3),
                           Fraction(1, 4), Fraction(1, 6), Fraction(2, 3), Fraction(5, 6)])
        theta = Fraction(rng.choice([0, 0, 1, -1, 2]), rng.choice([1, 1, 2]))
        terms.append(((root, theta), coeff))
    return Scalar(terms)


def test_ring_axioms_1000_random_triples():
    rng = random.Random(13)
    for _ in range(1000):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_normalization_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        s = _random_scalar(rng, max_terms=3)
        assert Scalar(s.terms).terms == s.terms


@pytest.mark.parametrize("n", [9, 25, 27, 49, 75, 81, 125])
def test_roots_at_conductors_with_an_odd_square(n):
    # the allowed top digits of an odd p^k || N (k >= 2) are the nonzero balanced ones,
    # -(p-1)/2..(p-1)/2; a window moved off centre left e(2/25)* apart from e(-2/25)
    for a in range(n):
        assert e(Fraction(a, n)).star() == e(Fraction(-a, n)), a
        assert e(Fraction(a, n)) * e(Fraction(1, n)) == e(Fraction(a + 1, n)), a


def test_theta_shift_equals_t_power_product():
    rng = random.Random(11)
    for _ in range(300):
        x = _random_scalar(rng, max_terms=4)
        s = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
        # t^s is a root-free monomial, so t^s * x skips the reduction; a fresh
        # reduction of the shifted terms must give the same stored form
        shifted = {(r, theta + s): c for (r, theta), c in x.terms.items()}
        assert list((Scalar.t_power(s) * x).terms.items()) == list(shifted.items())
        assert (Scalar.t_power(s) * x).to_json() == Scalar(shifted).to_json()


def test_star_is_involutive_ring_automorphism():
    rng = random.Random(5)
    for _ in range(200):
        a, b = _random_scalar(rng), _random_scalar(rng)
        assert (a * b).star() == a.star() * b.star()
        assert (a + b).star() == a.star() + b.star()
        assert a.star().star() == a


def test_numerical_soundness():
    rng = random.Random(3)
    for _ in range(100):
        a, b = _random_scalar(rng), _random_scalar(rng)
        theta0 = Fraction(rng.randint(1, 30), 31)
        assert abs(scalar_value(a + b, theta0) - (scalar_value(a, theta0) + scalar_value(b, theta0))) < 1e-12
        assert abs(scalar_value(a * b, theta0) - scalar_value(a, theta0) * scalar_value(b, theta0)) < 1e-12


@given(st.integers(-6, 6), st.integers(1, 6), st.integers(-4, 4), st.integers(1, 4))
def test_root_exponents_add_mod_one(num1, den1, num2, den2):
    r1, r2 = Fraction(num1, den1), Fraction(num2, den2)
    assert e(r1) * e(r2) == e((r1 + r2) % 1)


fractions_st = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))
scalar_terms = st.tuples(st.tuples(fractions_st, fractions_st), fractions_st)
scalars = st.builds(Scalar, st.lists(scalar_terms, max_size=3))


@given(scalars, scalars, scalars)
def test_ring_axioms_property(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + Scalar.zero() == a
    assert a * Scalar.one() == a


@given(scalars, scalars)
def test_star_property(a, b):
    assert (a * b).star() == a.star() * b.star()
    assert a.star().star() == a


@given(scalars)
def test_json_round_trip_property(a):
    assert Scalar.from_json(a.to_json()) == a


@pytest.mark.parametrize("text", ["1e5", "2E-3", " 3e1 ", "1e10000000", "1.5e2"])
def test_parse_fraction_rejects_exponent_notation(text):
    # Fraction would build 10^e exactly: seconds for 1e10000000
    with pytest.raises(ValueError, match="exponent"):
        parse_fraction(text)


#: JSON fields in the forms to_json writes, other forms parse_fraction accepts, and forms it rejects
CANONICAL_FIELDS = ["1/4", "-3/2", "0"]
OTHER_VALID_FIELDS = ["2/4", "-1/4", "5/4", "0.25", "+1", " 1/2 ", "1_0", "4/2", "-0", "03/6"]
INVALID_FIELDS = ["1/0", "-0/0", "1e3", "1/-2", 7, None]


def fraction_route(data):
    """Scalar.from_json as it was: each field through parse_fraction, then the general constructor."""
    return Scalar([((parse_fraction(item.get("root", "0")), parse_fraction(item.get("theta", "0"))),
                    parse_fraction(item["coeff"])) for item in data])


def _json_outcome(parse, data):
    """The to_json of parse(data), or the class of the exception it raised."""
    try:
        return parse(data).to_json()
    except Exception as exc:
        return type(exc)


_valid_field = st.sampled_from(CANONICAL_FIELDS + OTHER_VALID_FIELDS)
_json_term = st.fixed_dictionaries({"coeff": _valid_field}, optional={"root": _valid_field, "theta": _valid_field})
_spoiled_field = st.tuples(st.integers(0, 2), st.sampled_from(["root", "theta", "coeff"]), st.sampled_from(INVALID_FIELDS))


@settings(max_examples=300)
@given(st.lists(_json_term, max_size=3), st.none() | _spoiled_field)
@example([{"coeff": "5/4", "root": "-1/4", "theta": "4/2"}, {"coeff": "-1/4", "root": "3/4", "theta": "2"}], None)
@example([{"coeff": "1", "root": "5/4"}], None)
@example([{"coeff": "1"}], (0, "root", "1/0"))
def test_from_json_agrees_with_the_fraction_route(data, spoiled):
    """Where the old route returns, both give the same to_json; where it raises, both raise the same class."""
    if data and spoiled:
        index, field, text = spoiled
        data[index % len(data)][field] = text
    assert _json_outcome(Scalar.from_json, data) == _json_outcome(fraction_route, data)


def test_conductor_limit(monkeypatch):
    monkeypatch.setattr(scalar_mod, "CONDUCTOR_LIMIT", 100)
    with pytest.raises(BudgetError):
        e(Fraction(1, 101)) + e(Fraction(1, 3))


def test_json_round_trip_and_canonical_order():
    s = Scalar.term(Fraction(2, 3), root=Fraction(1, 6), theta=Fraction(-1, 2)) + t(1) + rat(5)
    data = s.to_json()
    assert data == sorted(data, key=lambda d: (Fraction(d["theta"]), Fraction(d["root"])))
    assert Scalar.from_json(data) == s
    assert all(set(item) == {"coeff", "root", "theta"} for item in data)


def test_zero_never_stored():
    s = rat(1) + rat(-1)
    assert s.terms == {}
    assert not s


# Oracles for the paths that skip or shortcut normalization: each fast path
# against the public constructor (or the subtraction) it replaces.

def _rewritten(x):
    """x again, through routes that can store it at a different conductor."""
    zeta3, zeta6_minus_1 = e(Fraction(1, 3)), e(Fraction(1, 6)) - rat(1)
    return st.sampled_from([x, x - zeta3 + zeta6_minus_1, (x * e(Fraction(1, 6))) * e(Fraction(5, 6))])


scalar_pairs = st.one_of(
    st.tuples(scalars, scalars),
    scalars.flatmap(lambda x: st.tuples(st.just(x), _rewritten(x))),
)


@given(scalar_pairs)
@example((e(Fraction(1, 3)), e(Fraction(1, 6)) - rat(1)))
def test_eq_agrees_with_subtraction(pair):
    x, y = pair
    assert (x == y) == (x - y).is_zero()
    assert (y == x) == (x == y)


@given(scalar_pairs)
@example((e(Fraction(1, 3)), e(Fraction(1, 6)) - rat(1)))
def test_difference_is_the_sum_with_the_negation(pair):
    # x - y cancels equal stored forms without a reduction; any other difference is x + (-y)
    x, y = pair
    assert x - y == x + (-y) and (x - y).to_json() == (x + (-y)).to_json()
    assert x - x == Scalar.zero() and (x - x).to_json() == []


@given(scalars, st.sampled_from((2, 3, 4, 5, 9)), fractions_st, fractions_st)
def test_vanishing_sum_leaves_the_form(x, p, shift, theta):
    # sum_{k<p} e(k/p + shift) * t^theta is zero, added one term at a time or all at once
    roots = [((shift + Fraction(k, p), theta), Fraction(1)) for k in range(p)]
    y = x
    for (root, th), c in roots:
        y = y + Scalar.term(c, root, th)
    assert y.to_json() == x.to_json()
    assert Scalar([*x.terms.items(), *roots]).to_json() == x.to_json()


@pytest.mark.parametrize("terms, form", [
    ([(Fraction(1, 6), 1), (0, -1)], [(Fraction(1, 3), 1)]),
    ([(0, 2), (Fraction(1, 3), 1)], [(Fraction(1, 3), -1), (Fraction(2, 3), -2)]),
    ([(Fraction(1, 12), 1)], [(Fraction(7, 12), -1)]),
    ([(Fraction(1, 9), 1)], [(Fraction(4, 9), -1), (Fraction(7, 9), -1)]),
    ([(Fraction(8, 9), 1)], [(Fraction(2, 9), -1), (Fraction(5, 9), -1)]),
])
def test_canonical_form_examples(terms, form):
    # the Zumbroich basis at the least conductor
    x = Scalar([((root, 0), c) for root, c in terms])
    assert x.terms == {(root, 0): Fraction(c) for root, c in form}


@given(scalars, fractions_st)
def test_rational_factor_matches_constructor(x, q):
    want = Scalar([((r, th), c * q) for (r, th), c in x.terms.items()])
    for got in (rat(q) * x, x * rat(q), q * x, x * q):
        assert got.to_json() == want.to_json()
        assert got.terms == want.terms


@given(scalars, scalars)
def test_star_add_mul_match_constructor(x, y):
    xs, ys = list(x.terms.items()), list(y.terms.items())
    assert x.star().to_json() == Scalar([((-r, -th), c) for (r, th), c in xs]).to_json()
    assert (x + y).to_json() == Scalar(xs + ys).to_json()
    product = [((r1 + r2, t1 + t2), c1 * c2) for (r1, t1), c1 in xs for (r2, t2), c2 in ys]
    assert (x * y).to_json() == Scalar(product).to_json()


# Reference kernel: an independent oracle of values, not of stored forms.
# Terms are {(root, theta): coeff}, all Fractions, roots in [0, 1); within one
# theta the roots are reduced in the dense power basis, modulo the cyclotomic
# polynomial of their joint conductor, so a sum is zero exactly when its
# reference form is empty.

def ref_reduce_root_group(group, limit):
    group = {r: c for r, c in group.items() if c}
    if not group:
        return group
    conductor = 1
    for r in group:
        conductor = math.lcm(conductor, r.denominator)
    if conductor > limit:
        raise BudgetError(f"root-of-unity conductor {conductor} exceeds limit {limit}")
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


def ref_normalize(raw, limit=scalar_mod.CONDUCTOR_LIMIT):
    by_theta = {}
    for (root, theta), coeff in raw:
        root, theta, coeff = Fraction(root) % 1, Fraction(theta), Fraction(coeff)
        if coeff:
            group = by_theta.setdefault(theta, {})
            group[root] = group.get(root, 0) + coeff
    terms = {}
    for theta, group in by_theta.items():
        for root, coeff in ref_reduce_root_group(group, limit).items():
            terms[(root, theta)] = coeff
    return terms


def ref_add(x, y, limit=scalar_mod.CONDUCTOR_LIMIT):
    return ref_normalize([*x.items(), *y.items()], limit)


def ref_mul(x, y, limit=scalar_mod.CONDUCTOR_LIMIT):
    for p, q in ((x, y), (y, x)):
        if len(q) == 1:
            ((root, theta), c), = q.items()
            if not root and not theta:
                return {key: v * c for key, v in p.items()}
    return ref_normalize([((r1 + r2, t1 + t2), c1 * c2)
                          for (r1, t1), c1 in x.items() for (r2, t2), c2 in y.items()], limit)


def ref_star(x, limit=scalar_mod.CONDUCTOR_LIMIT):
    return ref_normalize([((-r, -t), c) for (r, t), c in x.items()], limit)


def ref_shifted(x, shift):
    return {(r, t + shift): c for (r, t), c in x.items()}


def ref_json(x):
    return [{"coeff": str(c), "root": str(r), "theta": str(t)}
            for (r, t), c in sorted(x.items(), key=lambda kv: (kv[0][1], kv[0][0]))]


ORACLE_CONDUCTORS = (1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 30)
# with odd prime squares too; a product of two stored forms can then have a smaller
# raw conductor than the reference's, so these stay out of the conductor-limit test
KERNEL_CONDUCTORS = ORACLE_CONDUCTORS + (9, 18, 36, 45)
oracle_thetas = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 1, 2)))
oracle_coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def _oracle_term(conductors):
    roots = st.builds(lambda n, k: Fraction(k, n), st.sampled_from(conductors), st.integers(-30, 60))
    return st.tuples(st.tuples(roots, oracle_thetas), oracle_coeffs)


@st.composite
def oracle_terms(draw, conductors=ORACLE_CONDUCTORS):
    """Terms at mixed conductors, some with a vanishing sum of p-th roots of unity mixed in."""
    oracle_term = _oracle_term(conductors)
    terms = draw(st.lists(oracle_term, max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        p = draw(st.sampled_from((2, 3, 5)))
        (shift, theta), c = draw(oracle_term)
        terms += [((shift + Fraction(k, p), theta), c) for k in range(p)]
    return draw(st.permutations(terms))


def ref_groups(terms):
    """The integer groups (N, D, nums) by theta that store the reference terms."""
    by_theta = {}
    for (r, t), c in terms.items():
        by_theta.setdefault(t, []).append((r, c))
    groups = {}
    for t, pairs in by_theta.items():
        n = math.lcm(*(r.denominator for r, _ in pairs))
        d = math.lcm(*(c.denominator for _, c in pairs))
        groups[t] = (n, d, {r.numerator * (n // r.denominator): c.numerator * (d // c.denominator) for r, c in pairs})
    return groups


def _top_digit(j, p, k):
    """The digit at place p^(k-1) of j mod p^k, the lower digits in 0..1 (p = 2) or balanced (odd p)."""
    for _ in range(k - 1):
        d = j % p
        if p > 2 and d > p // 2:
            d -= p
        j = (j - d) // p
    return j % p


def _assert_canonical(x):
    """Every stored group is in the Zumbroich basis at a conductor that no shrink lowers."""
    for n, _, nums in x._groups.values():
        assert n % 4 != 2
        for p, k in factorize(n).items():
            q = p**k
            u = pow(n // q, -1, q)
            for a in nums:
                top = _top_digit(a * u % q, p, k)
                assert top == 0 if p == 2 else top != 0
            if p == 2 or k > 1:
                assert any(a % p for a in nums)
            else:
                classes = {}
                for a, c in nums.items():
                    classes.setdefault(a % (n // p), []).append(c)
                assert any(len(cs) < p - 1 or len(set(cs)) > 1 for cs in classes.values())


def _matches(got, want):
    """got stores the value of the reference terms want, in its one canonical form."""
    assert not ref_add(got.terms, {key: -c for key, c in want.items()})
    assert got._groups == ref_groups(got.terms)
    assert got.to_json() == ref_json(got.terms)
    _assert_canonical(got)


@settings(max_examples=200)
@given(oracle_terms(KERNEL_CONDUCTORS), oracle_terms(KERNEL_CONDUCTORS), oracle_coeffs, oracle_thetas)
@example([((Fraction(1, 3), 0), 1)], [((Fraction(1, 6), 0), 1), ((0, 0), -1)], Fraction(1), Fraction(1, 2))
def test_kernel_matches_reference(xs, ys, q, shift):
    x, y = Scalar(xs), Scalar(ys)
    rx, ry = ref_normalize(xs), ref_normalize(ys)
    _matches(x, rx)
    _matches(y, ry)
    _matches(x + y, ref_add(rx, ry))
    _matches(x - x, {})
    _matches(x * y, ref_mul(rx, ry))
    _matches(x.star(), ref_star(rx))
    _matches(Scalar.t_power(shift) * x, ref_shifted(rx, shift))
    rq = ref_normalize([((0, 0), q)])
    for got in (x * q, q * x, rat(q) * x):
        _matches(got, ref_mul(rx, rq))
    # a root-free monomial q * t^s in either order: the unreduced fast path against the reference product
    m, rm = Scalar.term(q, 0, shift), ref_normalize([((0, shift), q)])
    for got in (x * m, m * x):
        _matches(got, ref_mul(rx, rm))
    assert Scalar.from_json(x.to_json()).terms == x.terms
    assert (x == y) == (not ref_add(rx, {k: -c for k, c in ry.items()}))


def _outcome(fn):
    """The value of fn(), or the exception type it raised."""
    try:
        return fn()
    except BudgetError:
        return BudgetError


@settings(max_examples=200)
@given(st.sampled_from((1, 2, 3, 4, 5, 6, 10, 12)), oracle_terms(), oracle_terms())
def test_conductor_limit_matches_reference(limit, xs, ys):
    with mock.patch.object(scalar_mod, "CONDUCTOR_LIMIT", limit):
        x, y = _outcome(lambda: Scalar(xs)), _outcome(lambda: Scalar(ys))
        rx, ry = _outcome(lambda: ref_normalize(xs, limit)), _outcome(lambda: ref_normalize(ys, limit))
        assert (x is BudgetError) == (rx is BudgetError) and (y is BudgetError) == (ry is BudgetError)
        if x is BudgetError or y is BudgetError:
            return
        _matches(x, rx)
        _matches(y, ry)
        # a stored conductor divides the reference's, so at these limits both raise alike
        for op, ref_op in ((lambda: x + y, lambda: ref_add(rx, ry, limit)),
                           (lambda: x * y, lambda: ref_mul(rx, ry, limit)),
                           (lambda: x.star(), lambda: ref_star(rx, limit))):
            got, want = _outcome(op), _outcome(ref_op)
            assert (got is BudgetError) == (want is BudgetError)
            if got is not BudgetError:
                _matches(got, want)


# Conductors whose 2-part is 1, 4, 8 or 16, with odd parts prime, squared and composite.
STAR_CONDUCTORS = (1, 3, 5, 9, 15, 21, 4, 12, 20, 36, 60, 8, 24, 40, 72, 120, 16, 48, 80, 112)


@st.composite
def star_scalars(draw):
    """Scalars with up to three theta exponents, each holding roots of one conductor."""
    terms = []
    for theta in draw(st.lists(oracle_thetas, min_size=1, max_size=3, unique=True)):
        n = draw(st.sampled_from(STAR_CONDUCTORS))
        for k in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5)):
            terms.append(((Fraction(k, n), theta), draw(oracle_coeffs)))
    return Scalar(terms)


@settings(max_examples=300)
@given(star_scalars())
@example(Scalar([((Fraction(1, 16), 1), 1), ((Fraction(3, 16), 1), 2), ((Fraction(1, 3), 0), 1)]))
def test_star_key_map_matches_the_reduction(x):
    # oracle: conjugate each exponent in place and reduce, as star did before it became a key map
    raw = {-theta: scalar_mod._RawGroup(n, d, {-a % n: c for a, c in nums.items()})
           for theta, (n, d, nums) in x._groups.items()}
    assert x.star()._groups == scalar_mod._normalize(raw)


@settings(max_examples=300)
@given(star_scalars(), st.booleans(), oracle_thetas)
@example(Scalar([((Fraction(1, 4), Fraction(1, 2)), 1), ((0, Fraction(-3, 2)), 2)]), True, Fraction(1, 2))
def test_turn_key_map_matches_the_product(x, negate, shift):
    # oracle: the product with the phase -t^shift or t^shift, reduced as any product is;
    # scaled takes no gcd at +-1, as alpha_power calls it at a whole or half turn
    sign = -1 if negate else 1
    want = x * Scalar.term(sign, theta=shift)
    for s in (shift, shift.numerator if shift.denominator == 1 else shift):
        got = x.scaled(sign, 1, s)
        assert list(got._groups.items()) == list(want._groups.items()) and got.to_json() == want.to_json()
        # an integral theta exponent is stored as an int, whatever the shift that made it so
        assert all(type(theta) is (int if Fraction(theta).denominator == 1 else Fraction) for theta in got._groups)
