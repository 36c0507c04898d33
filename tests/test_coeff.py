import random
from fractions import Fraction
from math import gcd

import pytest

from bdlab import coeff
from bdlab.coeff import (
    Angle,
    CircleFunction,
    CircleRotation,
    FiniteCyclicFunction,
    FiniteCyclicShift,
    cyclic_invariant_ideal_search,
    cyclic_orbits,
    sample_scalar,
)
from bdlab.errors import BudgetError
from bdlab.scalar import Scalar
from numeric import circle_value


def numeric_rotation_oracle(f: CircleFunction, m: int, angle_value: float, theta0: float, points=8):
    """alpha^m(f) should equal s -> f(s - m*angle) pointwise."""
    return [circle_value(f, theta0, s / points - m * angle_value) for s in range(points)]


def test_sample_scalar_matches_the_term_route():
    # oracle: the draw as the general constructor made it before the unit table, reducing every time
    for seed in range(5000):
        rng, ref = random.Random(seed), random.Random(seed)
        got = sample_scalar(rng)
        c = Fraction(ref.choice((-3, -2, -1, 1, 1, 2, 3)), ref.choice((1, 1, 2, 3)))
        want = Scalar.term(c, ref.choice(coeff._ROOT_CHOICES), Fraction(ref.choice(coeff._THETA_CHOICES)))
        assert got == want and got.to_json() == want.to_json(), seed
        assert rng.getstate() == ref.getstate(), seed


class TestCircleRotation:
    def test_alpha_on_z_formal(self, circle):
        # substitute z = e^{2 pi i s} into f(s - theta): picks up t^{-1}
        assert circle.alpha_power(CircleFunction.z(), 1) == CircleFunction.z(1, Scalar.t_power(-1))

    def test_alpha_numeric_oracle(self, circle):
        theta0 = 0.4142135623
        f = CircleFunction({1: Scalar.one(), -2: Scalar.term(Fraction(1, 2))})
        g = circle.alpha_power(f, 3)
        for s in range(8):
            expected = circle_value(f, theta0, s / 8 - 3 * theta0)
            assert abs(circle_value(g, theta0, s / 8) - expected) < 1e-9

    def test_alpha_identity_power(self, circle):
        f = CircleFunction.z(5)
        assert circle.alpha_power(f, 0) == f

    def test_z_degree_cap(self):
        # the cap is on |l + r| of each pair of z-powers, not on the operands
        assert CircleFunction.z(32) * CircleFunction.z(32) == CircleFunction.z(64)
        assert CircleFunction.z(-32) * CircleFunction.z(-32) == CircleFunction.z(-64)
        with pytest.raises(BudgetError, match="z-degree 65"):
            CircleFunction.z(33) * CircleFunction.z(32)
        with pytest.raises(BudgetError, match="z-degree -65"):
            CircleFunction.z(-33) * CircleFunction.z(-32)

    def test_alpha_rational_angle(self):
        quarter = CircleRotation(Angle(Fraction(1, 4), Fraction(0)))
        assert quarter.alpha_power(CircleFunction.z(2), 1) == CircleFunction.z(2, Scalar.from_rational(-1))

    @pytest.mark.parametrize("algebra_fixture", ["circle", "circle_q", "cyclic3"])
    def test_alpha_group_law_and_star(self, algebra_fixture, request, rng):
        algebra = request.getfixturevalue(algebra_fixture)
        for _ in range(40):
            f = algebra.sample(rng)
            g = algebra.sample(rng)
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            assert algebra.alpha_power(algebra.alpha_power(f, b), a) == algebra.alpha_power(f, a + b)
            assert algebra.alpha_power(f * g, a) == algebra.alpha_power(f, a) * algebra.alpha_power(g, a)
            assert algebra.alpha_power(f + g, a) == algebra.alpha_power(f, a) + algebra.alpha_power(g, a)
            assert algebra.alpha_power(f.star(), a) == algebra.alpha_power(f, a).star()

    def test_trace0(self, circle):
        assert circle.trace0(CircleFunction.z()) == Scalar.zero()
        f = CircleFunction.one() + CircleFunction.z(2, Scalar.from_rational(3))
        assert circle.trace0(f) == Scalar.one()
        assert circle.trace0(CircleFunction.z(0, Scalar.t_power(1))) == Scalar.t_power(1)

    @pytest.mark.parametrize("algebra_fixture", ["circle", "circle_q", "cyclic3"])
    def test_trace_alpha_invariance(self, algebra_fixture, request):
        algebra = request.getfixturevalue(algebra_fixture)
        rng = random.Random(99)
        for _ in range(200):
            f = algebra.sample(rng)
            for m in range(-8, 9):
                assert algebra.trace0(algebra.alpha_power(f, m)) == algebra.trace0(f)

    @pytest.mark.parametrize("algebra_fixture", ["circle", "circle_q", "cyclic3"])
    def test_trace0_is_a_tracial_state(self, algebra_fixture, request, rng):
        algebra = request.getfixturevalue(algebra_fixture)
        assert algebra.trace0(algebra.one()) == Scalar.one()
        for _ in range(50):
            f, g = algebra.sample(rng), algebra.sample(rng)
            assert algebra.trace0(f * g) == algebra.trace0(g * f)

    def test_mul_matches_pointwise_numeric(self, rng):
        for _ in range(30):
            angle = Angle(Fraction(rng.randint(-3, 3), rng.randint(1, 4)), Fraction(rng.randint(-2, 2)))
            algebra = CircleRotation(angle)
            theta0 = rng.random()
            f, g = algebra.sample(rng), algebra.sample(rng)
            h = f * g
            for s in range(16):
                want = circle_value(f, theta0, s / 16) * circle_value(g, theta0, s / 16)
                assert abs(circle_value(h, theta0, s / 16) - want) < 1e-10

    def test_json_round_trip(self, circle, rng):
        f = circle.sample(rng)
        assert CircleFunction.from_json(f.to_json()) == f

    @pytest.mark.parametrize("angle", ["theta", "-theta", "theta+1/4", "1/2*theta+1/3", "theta+1/2",
                                       "-3/2*theta+1/2", "1/3*theta+5/6"])
    def test_alpha_matches_normalized_phase_product(self, angle):
        # oracle: each coefficient times a freshly normalized phase e(-e*q) t^(-e*r),
        # compared on stored groups (in order, int keys where integral), on terms and
        # on JSON, not only as values; some coefficients have theta exponents in thirds
        # and halves, which a fractional shift can make integral
        algebra = CircleRotation(Angle.parse(angle))
        q, r = algebra.angle.q, algebra.angle.r
        rng = random.Random(20261018)

        def stored(f):
            return {m: [(type(theta), theta, group) for theta, group in c._groups.items()]
                    for m, c in f.entries.items()}

        for _ in range(12):
            f = CircleFunction({
                m: sum((sample_scalar(rng) * Scalar.t_power(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))))
                        for _ in range(rng.randint(1, 4))), Scalar.zero())
                for m in rng.sample(range(-4, 5), rng.randint(1, 4))
            })
            for power in range(-12, 13):
                got = algebra.alpha_power(f, power)
                want = CircleFunction({
                    m: Scalar.term(1, root=(-m * power * q) % 1, theta=-m * power * r) * c
                    for m, c in f.entries.items()
                })
                assert stored(got) == stored(want)
                assert {m: list(c.terms.items()) for m, c in got.entries.items()} == \
                    {m: list(c.terms.items()) for m, c in want.entries.items()}
                assert got.to_json() == want.to_json()


    @pytest.mark.parametrize("algebra_fixture", ["circle", "circle_q"])
    def test_entrywise_eq_agrees_with_subtraction(self, algebra_fixture, request, rng):
        # random pairs, and pairs equal by construction but built along other routes
        algebra = request.getfixturevalue(algebra_fixture)
        for _ in range(100):
            f, g = algebra.sample(rng), algebra.sample(rng)
            twin = algebra.alpha_power(algebra.alpha_power(f, 3) * g, -3) + f - algebra.alpha_power(g, -3) * f
            for a, b in ((f, g), (f, (f + g) - g), (f * g, g * f), (f, twin), (f, f.star().star())):
                assert (a == b) == (a - b).is_zero()
                assert (b == a) == (a == b)
            assert f == (f + g) - g and f * g == g * f


class TestFiniteCyclicShift:
    def test_shift_examples(self):
        a, b, c = Scalar.from_rational(1), Scalar.from_rational(2), Scalar.from_rational(3)
        alg = FiniteCyclicShift(3)
        f = FiniteCyclicFunction(3, (a, b, c))
        assert alg.alpha_power(f, 1) == FiniteCyclicFunction(3, (c, a, b))
        assert alg.alpha_power(f, 3) == f
        g = FiniteCyclicFunction(2, (a, b))
        assert FiniteCyclicShift(2).alpha_power(g, -1) == FiniteCyclicFunction(2, (b, a))

    def test_trace_is_uniform_average(self, cyclic3):
        f = FiniteCyclicFunction(3, (Scalar.from_rational(1), Scalar.from_rational(2), Scalar.zero()))
        assert cyclic3.trace0(f) == Scalar.from_rational(1)

    def test_star_pointwise(self, cyclic3, rng):
        f = cyclic3.sample(rng)
        assert f.star().star() == f

    def test_json_round_trip(self, cyclic3, rng):
        f = cyclic3.sample(rng)
        assert FiniteCyclicFunction.from_json(f.to_json()) == f


class TestInvariantIdealSearch:
    def test_search_examples(self):
        assert cyclic_invariant_ideal_search(2, 2) == frozenset({0})
        assert cyclic_invariant_ideal_search(3, 2) is None
        assert cyclic_invariant_ideal_search(4, 2) == frozenset({0, 2})

    def test_none_iff_gcd_one(self):
        for d in range(1, 25):
            for n in range(1, 25):
                found = cyclic_invariant_ideal_search(d, n)
                assert (found is None) == (gcd(n, d) == 1)
                if found is not None:
                    assert 0 < len(found) < d
                    assert all((i + n) % d in found for i in found)

    def test_against_exhaustive_subset_enumeration(self):
        # independent oracle: scan all nonempty proper subsets for invariance
        for d in range(1, 9):
            for n in range(1, 9):
                exists = False
                for mask in range(1, 2**d - 1):
                    subset = {i for i in range(d) if mask >> i & 1}
                    if all((i + n) % d in subset for i in subset):
                        exists = True
                        break
                assert exists == (cyclic_invariant_ideal_search(d, n) is not None)

    def test_orbits_partition(self):
        for d in range(1, 13):
            for n in range(1, 13):
                orbits = cyclic_orbits(d, n)
                assert sorted(i for orbit in orbits for i in orbit) == list(range(d))


class TestAngle:
    @pytest.mark.parametrize(
        "text,q,r",
        [
            ("theta", 0, 1),
            ("-theta", 0, -1),
            ("2*theta", 0, 2),
            ("1/2*theta+3/4", Fraction(3, 4), Fraction(1, 2)),
            ("theta+1/4", Fraction(1, 4), 1),
            ("-theta+1/8", Fraction(1, 8), -1),
            ("1/4", Fraction(1, 4), 0),
        ],
    )
    def test_parse(self, text, q, r):
        angle = Angle.parse(text)
        assert angle == Angle(Fraction(q), Fraction(r))

    @pytest.mark.parametrize("text", ["", "+", "-", " - "])
    def test_parse_rejects_input_without_a_term(self, text):
        with pytest.raises(ValueError):
            Angle.parse(text)

    @pytest.mark.parametrize("text", ["--theta", "1--theta", "theta++1/2", "theta+"])
    def test_parse_rejects_stray_signs(self, text):
        # read as -theta, 1 - theta, theta + 1/2 and theta before
        with pytest.raises(ValueError, match="signed terms"):
            Angle.parse(text)

    @pytest.mark.parametrize("text,term", [("theta/2", "theta/2"), ("1/4+2*theta*theta", "2*theta*theta"),
                                           ("thetatheta", "thetatheta"), ("-theta*2", "theta*2"),
                                           ("2**theta", "2**theta"), ("2theta", "2theta"), ("1/2*3", "1/2*3")])
    def test_parse_names_a_malformed_term(self, text, term):
        # the first four blamed exponent notation, which none of them uses; 2**theta and
        # 2theta were read as 2*theta, and 1/2*3 was blamed on Fraction's literal syntax
        with pytest.raises(ValueError) as exc:
            Angle.parse(text)
        assert str(exc.value) == f"angle term {term!r} is not of the form p/q or p/q*theta"

    def test_parse_rejects_exponent_notation(self):
        with pytest.raises(ValueError, match="exponent notation is not accepted: '1e5'"):
            Angle.parse("1e5*theta")

    @pytest.mark.parametrize("angle, text", [(Angle(Fraction(0), Fraction(-1)), "-theta"),
                                             (Angle(Fraction(1, 8), Fraction(-1)), "-theta+1/8"),
                                             (Angle(Fraction(-1, 2), Fraction(1)), "theta-1/2")])
    def test_str(self, angle, text):
        # "-1*theta" would parse back to the same angle, so the round trip below does not pin it
        assert str(angle) == text

    def test_str_round_trip(self):
        for angle in (Angle(Fraction(1, 8), Fraction(-1)), Angle(Fraction(0), Fraction(1, 2))):
            assert Angle.parse(str(angle)) == angle

    def test_json_round_trip(self):
        angle = Angle(Fraction(3, 4), Fraction(-2, 3))
        assert Angle.from_json(angle.to_json()) == angle
