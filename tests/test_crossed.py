import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from bdlab.coeff import Angle, CircleFunction, CircleRotation
from bdlab.crossed import CrossedElement, MatrixElement, sample_crossed, sample_matrix
from bdlab.errors import BudgetError, MismatchError
from bdlab.scalar import Scalar
from numeric import scalar_value

FIB = [1, 1]
while len(FIB) < 25:
    FIB.append(FIB[-1] + FIB[-2])
GOLDEN_APPROXES = [Fraction(FIB[k], FIB[k + 1]) for k in (10, 15, 20)]


def test_twisted_product_example(circle):
    # (z u)(z u) = z * alpha(z) u^2 = t^-1 z^2 u^2, expanded by hand
    zu = CrossedElement(circle, 1, {1: CircleFunction.z()})
    expected = CrossedElement(circle, 1, {2: CircleFunction.z(2, Scalar.t_power(-1))})
    assert zu * zu == expected


def test_unit_and_unitarity(circle):
    x = sample_crossed(circle, 1, random.Random(1))
    one = CrossedElement.unit(circle, 1)
    assert one * x == x and x * one == x
    u = CrossedElement.u_power(circle, 1)
    assert u * CrossedElement.u_power(circle, 1, -1) == one
    assert u * u.star() == one and u.star() * u == one


def test_star_example_and_involution(circle):
    zu = CrossedElement(circle, 1, {1: CircleFunction.z()})
    expected = CrossedElement(circle, 1, {-1: CircleFunction.z(-1, Scalar.t_power(-1))})
    assert zu.star() == expected
    # x x* is self-adjoint, and star is an involution, on random elements
    rng = random.Random(2)
    for _ in range(100):
        x = sample_crossed(circle, 2, rng)
        assert x.star().star() == x
        xx = x * x.star()
        assert xx.star() == xx


def test_conditional_expectation(circle):
    z = CircleFunction.z()
    x = CrossedElement(circle, 1, {1: z, 0: CircleFunction.z(0, Scalar.from_rational(3))})
    assert x.expectation() == CircleFunction.z(0, Scalar.from_rational(3))
    assert CrossedElement.u_power(circle, 1).expectation() == circle.zero()
    zu = CrossedElement(circle, 1, {1: z})
    assert (zu.star() * zu).expectation() == circle.one()


def test_expectation_is_bimodular(circle, rng):
    # E(a x b) = a E(x) b for a, b in the coefficient subalgebra
    for _ in range(50):
        x = sample_crossed(circle, 2, rng)
        a = CrossedElement.from_coefficient(circle, 2, circle.sample(rng))
        b = CrossedElement.from_coefficient(circle, 2, circle.sample(rng))
        lhs = (a * x * b).expectation()
        rhs = a.expectation() * (x.expectation() * b.expectation())
        assert lhs == rhs


def test_stage_trace_examples(circle):
    assert CrossedElement.u_power(circle, 1).trace() == Scalar.zero()
    assert CrossedElement.unit(circle, 1).trace() == Scalar.one()
    assert CrossedElement.from_coefficient(circle, 1, CircleFunction.z()).trace() == Scalar.zero()


def test_star_algebra_axioms_500_random(circle, cyclic3):
    rng = random.Random(3)
    for algebra in (circle, cyclic3):
        for _ in range(250):
            x = sample_crossed(algebra, 2, rng, u_degree=3, coeff_degree=3)
            y = sample_crossed(algebra, 2, rng, u_degree=3, coeff_degree=3)
            z = sample_crossed(algebra, 2, rng, u_degree=3, coeff_degree=3)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert (x * y).star() == y.star() * x.star()


def test_matrix_units_and_trace(circle):
    for n in (2, 4):
        e01 = MatrixElement.single(circle, n, n, 0, 1)
        e10 = MatrixElement.single(circle, n, n, 1, 0)
        assert e01 * e10 == MatrixElement.single(circle, n, n, 0, 0)
        assert e01.star() == e10
        ue00 = MatrixElement.single(circle, n, n, 0, 0, CrossedElement.u_power(circle, n))
        assert ue00 * ue00.star() == MatrixElement.single(circle, n, n, 0, 0)
        assert MatrixElement.identity(circle, n, n).trace() == Scalar.one()
        assert MatrixElement.single(circle, n, n, 0, 0).trace() == Scalar.from_rational(Fraction(1, n))
        assert ue00.trace() == Scalar.zero()


def test_matrix_trace_is_tracial_200_random(circle):
    rng = random.Random(4)
    for _ in range(200):
        n = rng.choice((2, 3, 4))
        X = sample_matrix(circle, n, n, rng, u_degree=3, coeff_degree=3)
        Y = sample_matrix(circle, n, n, rng, u_degree=3, coeff_degree=3)
        assert (X * Y).trace() == (Y * X).trace()


def test_trace_faithfulness_probe(circle):
    # tau(x* x) must evaluate to a nonnegative real at rational rotation angles
    rng = random.Random(5)
    for _ in range(200):
        x = sample_crossed(circle, 2, rng, u_degree=3, coeff_degree=3)
        value = (x.star() * x).trace()
        for theta0 in GOLDEN_APPROXES:
            numeric = scalar_value(value, theta0)
            assert abs(numeric.imag) < 1e-10
            assert numeric.real >= -1e-10


_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
_scalars = st.builds(
    lambda c, r, t: Scalar.term(c, root=r, theta=t),
    st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3)),
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
)
_circle_elements = st.builds(
    lambda items: CircleFunction(dict(items)),
    st.lists(st.tuples(st.integers(-2, 2), _scalars), max_size=2),
)
_angles = st.builds(Angle, _fractions, _fractions)


@st.composite
def _crossed_pairs(draw):
    algebra = CircleRotation(draw(_angles))
    def element():
        coeffs = {draw(st.integers(-2, 2)): draw(_circle_elements) for _ in range(draw(st.integers(1, 2)))}
        return CrossedElement(algebra, 2, coeffs)
    return element(), element()


@given(_crossed_pairs())
def test_crossed_star_antimultiplicative_property(pair):
    x, y = pair
    assert (x * y).star() == y.star() * x.star()
    assert x.star().star() == x


@given(_crossed_pairs())
def test_crossed_trace_property(pair):
    # tracial, star-compatible, and unital-normalized
    x, y = pair
    assert (x * y).trace() == (y * x).trace()
    assert x.star().trace() == x.trace().star()


@pytest.mark.parametrize("algebra_fixture", ["circle_q", "cyclic3"])
def test_entrywise_eq_agrees_with_subtraction(algebra_fixture, request, rng):
    # crossed and matrix elements: random pairs and pairs equal by construction
    algebra = request.getfixturevalue(algebra_fixture)
    for _ in range(30):
        x, y, z = (sample_crossed(algebra, 2, rng) for _ in range(3))
        for a, b in ((x, y), (x, (x + y) - y), ((x * y) * z, x * (y * z)), (x, x.star().star())):
            assert (a == b) == (a - b).is_zero()
            assert (b == a) == (a == b)
        assert x == (x + y) - y and (x * y) * z == x * (y * z)
        X, Y, Z = (sample_matrix(algebra, 2, 2, rng, u_degree=1, coeff_degree=1) for _ in range(3))
        for A, B in ((X, Y), (X, (X + Y) - Y), ((X * Y) * Z, X * (Y * Z)), (X, X.star().star())):
            assert (A == B) == (A - B).is_zero()
            assert (B == A) == (A == B)
        assert X == (X + Y) - Y and (X * Y) * Z == X * (Y * Z)


def test_mismatch_rejected(circle, cyclic3):
    x = CrossedElement.unit(circle, 1)
    y = CrossedElement.unit(circle, 2)
    with pytest.raises(MismatchError):
        x * y
    with pytest.raises(MismatchError):
        x + CrossedElement.unit(cyclic3, 1)
    A = MatrixElement.identity(circle, 2, 2)
    B = MatrixElement.identity(circle, 3, 3)
    with pytest.raises(MismatchError):
        A * B


def test_with_twist_checks_the_composite_twist():
    # (theta+1/4)^4 = (1/2*theta+1/8)^8 as rotations, but not ^6; asked twice, as the tags are memoized
    base, half = CircleRotation(Angle.parse("theta+1/4")), CircleRotation(Angle.parse("1/2*theta+1/8"))
    X = MatrixElement.identity(base, 4, 2)
    for _ in range(2):
        assert X.with_twist(half, 8).with_twist(base, 4) == X
        with pytest.raises(MismatchError, match="incompatible twist"):
            X.with_twist(half, 6)
    assert base.composite_tag(4) == half.composite_tag(8) == ("circle", 0, 4)


def test_with_twist_reads_the_rational_angle_mod_one():
    # theta+5/4 is the rotation theta+1/4; three turns of theta+1/4 and nine of 1/3*theta+3/4 both
    # rotate by 3*theta+3/4 mod 1; three turns of theta+1/2 do not
    X = MatrixElement.identity(CircleRotation(Angle.parse("theta+1/4")), 3, 2)
    assert X.with_twist(CircleRotation(Angle.parse("theta+5/4")), 3).power == 3
    assert X.with_twist(CircleRotation(Angle.parse("1/3*theta+3/4")), 9).power == 9
    with pytest.raises(MismatchError, match="incompatible twist"):
        X.with_twist(CircleRotation(Angle.parse("theta+1/2")), 3)


def test_with_twist_on_cyclic_stages(cyclic3):
    # on Z/3, the shift by 1 is the shift by 4 and by -2, but not by 2
    X = MatrixElement.identity(cyclic3, 1, 2)
    for power in (4, -2):
        assert X.with_twist(cyclic3, power).with_twist(cyclic3, 1) == X
    with pytest.raises(MismatchError, match="incompatible twist"):
        X.with_twist(cyclic3, 2)


def test_entry_of_another_stage_algebra_is_rejected(circle):
    with pytest.raises(MismatchError, match="different stage algebra"):
        MatrixElement(circle, 2, 2, {(0, 1): CrossedElement.unit(circle, 3)})
    # an equal algebra built apart is the same stage algebra
    twin = CircleRotation(Angle.parse(str(circle.angle)))
    assert twin is not circle and MatrixElement(circle, 2, 2, {(0, 1): CrossedElement.unit(twin, 2)}).size == 2


def test_u_degree_cap(circle):
    x = CrossedElement.u_power(circle, 1, 40)
    with pytest.raises(BudgetError):
        x * x


def test_json_round_trip(circle, cyclic3, rng):
    for algebra in (circle, cyclic3):
        x = sample_crossed(algebra, 2, rng)
        assert CrossedElement.from_json(x.to_json()) == x
        X = sample_matrix(algebra, 3, 3, rng)
        assert MatrixElement.from_json(X.to_json()) == X


def test_matrix_json_builds_one_tag(circle, rng):
    X = sample_matrix(circle, 3, 3, rng) + MatrixElement.identity(circle, 3, 3)
    entries = {key: x.to_json() for key, x in X.entries.items()}
    with mock.patch.object(CircleRotation, "tag", autospec=True, side_effect=CircleRotation.tag) as tag:
        data = X.to_json()
    assert tag.call_count == 1
    assert all(data["entries"][i][j] == entry for (i, j), entry in entries.items())
