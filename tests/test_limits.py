import random
from fractions import Fraction

import pytest

from bdlab.coeff import Angle, CircleFunction
from bdlab.crossed import CrossedElement, MatrixElement, sample_crossed, sample_matrix
from bdlab.errors import BudgetError, MismatchError
from bdlab.limits import (
    amplification_shuffle,
    gamma,
    verify_amplification_intertwining,
    verify_gamma_composition,
    verify_gamma_homomorphism,
    verify_trace_compatibility,
)
from bdlab.report import Report, case_rng
from bdlab.scalar import Scalar
from bdlab.sparse import DEGREE_CAP

SIZE_PAIRS = [(1, 2), (1, 3), (2, 4), (2, 6), (3, 6)]


def gamma_left_inverse(n: int, m: int, Y: MatrixElement) -> MatrixElement | None:
    """Recover X with gamma_{n,m}(X) == Y, or None if Y is not in the image.

    The candidate is read off the first row-block: the image places the
    coefficient of u_n^l in entry (i, j) at position (i, j + (l mod k) n)
    with u_m-exponent floor(l / k).  The candidate is then pushed back
    through gamma to certify membership.
    """
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


def verify_gamma_injectivity(algebra, n, m, seed, count, u_degree=2, coeff_degree=2):
    """gamma_left_inverse recovers X from gamma_{n,m}(X) for random stage elements."""
    report = Report("gamma-inverse", config={"n": n, "m": m, "algebra": algebra.tag(), "seed": seed, "count": count})
    cases = ((idx, sample_matrix(algebra, n, n, case_rng(seed, idx), u_degree, coeff_degree)) for idx in range(count))
    report.compare(cases, lambda X: (gamma_left_inverse(n, m, gamma(n, m, X)), X),
                   lambda back, X: back is not None and back == X)
    return report


def gamma_generator_product(n: int, m: int, X: MatrixElement) -> MatrixElement:
    """Independent oracle: gamma_{n,m} as a product of generator images.

    a u^l e_{i,j} factors as e_{i,0} (a e_00) (u e_00)^l e_{0,j}, with the star
    of the u-image for negative l.  Multiplying by the images of e_{i,0} and
    e_{0,j} shifts rows by i and columns by j, so only the images of a e_00 and
    of (u e_00)^l are multiplied.  Raises BudgetError when a power of the
    u-image passes the u-degree cap.
    """
    k = m // n
    algebra = X.algebra
    v_entries = {(c * n, (c + 1) * n): CrossedElement.unit(algebra, m) for c in range(k - 1)}
    v_entries[((k - 1) * n, 0)] = CrossedElement.u_power(algebra, m)
    V = MatrixElement(algebra, m, m, v_entries)
    powers = {0: MatrixElement.identity(algebra, m, m)}

    def vpow(l: int) -> MatrixElement:
        step, factor = (1, V) if l > 0 else (-1, V.star())
        for e in range(step, l + step, step):
            if e not in powers:
                powers[e] = powers[e - step] * factor
        return powers[l]

    acc = MatrixElement.zero(algebra, m, m)
    for (i, j), x in X.entries.items():
        for l, a in x.coeffs.items():
            coeff_image = MatrixElement(algebra, m, m, {
                (c * n, c * n): CrossedElement.from_coefficient(algebra, m, algebra.alpha_power(a, c * n))
                for c in range(k)
            })
            base = coeff_image * vpow(l)
            acc = acc + MatrixElement(algebra, m, m, {(r + i, c + j): v for (r, c), v in base.entries.items()})
    return acc


class TestGammaGenerators:
    def test_coefficient_image(self, circle):
        z = CircleFunction.z()
        X = MatrixElement.single(circle, 1, 1, 0, 0, CrossedElement.from_coefficient(circle, 1, z))
        expected = MatrixElement(circle, 2, 2, {
            (0, 0): CrossedElement.from_coefficient(circle, 2, z),
            (1, 1): CrossedElement.from_coefficient(circle, 2, CircleFunction.z(1, Scalar.t_power(-1))),
        })
        assert gamma(1, 2, X) == expected

    def test_u_image(self, circle):
        U = MatrixElement.single(circle, 1, 1, 0, 0, CrossedElement.u_power(circle, 1))
        expected = MatrixElement(circle, 2, 2, {
            (1, 0): CrossedElement.u_power(circle, 2),
            (0, 1): CrossedElement.unit(circle, 2),
        })
        assert gamma(1, 2, U) == expected

    def test_identity_stage(self, circle, rng):
        X = sample_matrix(circle, 2, 2, rng)
        assert gamma(2, 2, X) == X

    def test_matrix_unit_image(self, circle):
        E = MatrixElement.single(circle, 2, 2, 0, 1)
        expected = MatrixElement(circle, 6, 6, {
            (0, 1): CrossedElement.unit(circle, 6),
            (2, 3): CrossedElement.unit(circle, 6),
            (4, 5): CrossedElement.unit(circle, 6),
        })
        assert gamma(2, 6, E) == expected

    def test_rejects_non_divisor(self, circle):
        X = MatrixElement.identity(circle, 2, 2)
        with pytest.raises(MismatchError):
            gamma(2, 3, X)

    @pytest.mark.parametrize("m", [0, -2])
    def test_rejects_smaller_target(self, circle, m):
        # m % n == 0 holds for m <= 0, which used to give a matrix of size m
        with pytest.raises(MismatchError):
            gamma(1, m, MatrixElement.identity(circle, 1, 1))

    def test_rejects_partial_block(self, circle):
        with pytest.raises(MismatchError):
            gamma(2, 4, MatrixElement.identity(circle, 2, 3))


def gamma_per_block(p: int, n: int, m: int, X: MatrixElement) -> MatrixElement:
    """Oracle for gamma_{n,m} (x) id_p: cut X into n x n blocks and map each one alone."""
    blocks: dict[tuple[int, int], dict] = {}
    for (r, c), x in X.entries.items():
        blocks.setdefault((r // n, c // n), {})[(r % n, c % n)] = x
    out = {}
    for (B, C), block in blocks.items():
        image = gamma(n, m, MatrixElement(X.algebra, n, n, block))
        for (i, j), v in image.entries.items():
            out[(B * m + i, C * m + j)] = v
    return MatrixElement(X.algebra, m, p * m, out)


@pytest.mark.parametrize("p,n,m", [(2, 1, 2), (2, 2, 6), (3, 1, 3)])
def test_gamma_on_blocks_matches_per_block_oracle(p, n, m, circle, cyclic3):
    rng = random.Random(f"perblock{p}{n}{m}")
    for algebra in (circle, cyclic3):
        for _ in range(10):
            X = sample_matrix(algebra, n, p * n, rng)
            got, expected = gamma(n, m, X), gamma_per_block(p, n, m, X)
            assert (got.size, got.power) == (p * m, m)
            assert got == expected and got.to_json() == expected.to_json()


@pytest.mark.parametrize("n,m", SIZE_PAIRS)
def test_gamma_matches_closed_form_oracle(n, m, circle, circle_q, cyclic3):
    # gamma is the closed form; the oracle multiplies generator images.  The
    # serialized forms agree too, not only the values.
    rng = random.Random(f"oracle{n}{m}")
    for algebra in (circle, circle_q, cyclic3):
        for _ in range(25):
            X = sample_matrix(algebra, n, n, rng, u_degree=2 * m, coeff_degree=2)
            got, expected = gamma(n, m, X), gamma_generator_product(n, m, X)
            assert got == expected and got.to_json() == expected.to_json()


@pytest.mark.parametrize("k", [2, 3, 6])
def test_gamma_degree_cap_matches_oracle(k, circle):
    # the oracle raises while powering the u-image; gamma raises on the
    # output u-exponent, and the two agree at the edge of the cap
    edge = DEGREE_CAP * k
    for l in [s * edge + d for s in (1, -1) for d in range(-k, k + 1)]:
        X = MatrixElement.single(circle, 1, 1, 0, 0, CrossedElement.u_power(circle, 1, l))
        outcomes = []
        for construction in (gamma, gamma_generator_product):
            try:
                outcomes.append(construction(1, k, X).to_json())
            except BudgetError:
                outcomes.append("budget")
        assert outcomes[0] == outcomes[1], l
        assert (outcomes[0] == "budget") == (abs(l) > edge), l


@pytest.mark.parametrize("n,m", SIZE_PAIRS)
def test_gamma_image_respects_residue_blocks(n, m, circle):
    # the image of x e_{i,j} only populates positions congruent to (i, j) mod n
    rng = random.Random(f"blocks{n}{m}")
    for _ in range(10):
        i, j = rng.randrange(n), rng.randrange(n)
        X = MatrixElement.single(circle, n, n, i, j, sample_crossed(circle, n, rng))
        for (r, c) in gamma(n, m, X).entries:
            assert r % n == i and c % n == j


@pytest.mark.parametrize("n,m", [(1, 2), (2, 4)])
def test_gamma_homomorphism_suites(n, m, circle, cyclic3):
    for algebra in (circle, cyclic3):
        report = verify_gamma_homomorphism(algebra, n, m, seed=1, count=25)
        assert report.ok, report.failures[:2]


def test_gamma_composition_suites(circle):
    for (n, k, l) in [(1, 2, 2), (1, 2, 3), (2, 2, 2), (3, 1, 1)]:
        report = verify_gamma_composition(circle, n, k, l, seed=2, count=15)
        assert report.ok, (n, k, l)


def test_trace_compatibility_base_cases(circle):
    # both displayed computations from the trace-compatibility proof
    a_e00 = MatrixElement.single(circle, 1, 1, 0, 0, CrossedElement.unit(circle, 1))
    assert gamma(1, 2, a_e00).trace() == Scalar.one() == a_e00.trace()
    u_e00 = MatrixElement.single(circle, 1, 1, 0, 0, CrossedElement.u_power(circle, 1))
    assert gamma(1, 2, u_e00).trace() == Scalar.zero() == u_e00.trace()
    report = verify_trace_compatibility(circle, 2, 6, seed=3, count=25)
    assert report.ok


class TestLeftInverse:
    @pytest.mark.parametrize("n,m", SIZE_PAIRS)
    def test_round_trip_random(self, n, m, circle):
        report = verify_gamma_injectivity(circle, n, m, seed=4, count=15)
        assert report.ok

    def test_rejects_off_image(self, circle):
        bad = MatrixElement.single(circle, 2, 2, 0, 1)
        assert gamma_left_inverse(1, 2, bad) is None

    def test_single_entry_recovery(self, circle):
        X = MatrixElement.single(circle, 1, 1, 0, 0, CrossedElement.u_power(circle, 1, -2))
        assert gamma_left_inverse(1, 3, gamma(1, 3, X)) == X


class TestAmplificationShuffle:
    def test_p1_and_inner1_are_identity(self, circle, rng):
        X = sample_matrix(circle, 1, 2, rng)
        assert amplification_shuffle(2, X).entries == X.entries
        Y = sample_matrix(circle, 2, 2, rng)
        assert amplification_shuffle(1, Y).entries == Y.entries

    def test_position_example(self, circle):
        # p=2, inner n=2: (block 1, inner 0) x (block 0, inner 1) -> (1, 2)
        X = MatrixElement.single(circle, 2, 4, 2, 1)
        shuffled = amplification_shuffle(2, X)
        assert set(shuffled.entries) == {(1, 2)}

    def test_is_star_isomorphism(self, circle, rng):
        for _ in range(20):
            X = sample_matrix(circle, 2, 4, rng)
            Y = sample_matrix(circle, 2, 4, rng)
            assert amplification_shuffle(2, X * Y) == amplification_shuffle(2, X) * amplification_shuffle(2, Y)
            assert amplification_shuffle(2, X.star()) == amplification_shuffle(2, X).star()

    def test_rejects_bad_size(self, circle):
        with pytest.raises(MismatchError):
            amplification_shuffle(2, MatrixElement.identity(circle, 3, 3))


class TestAmplificationIntertwining:
    def test_trivial_p(self):
        report = verify_amplification_intertwining(Angle(Fraction(0), Fraction(1)), 1, 1, 2, seed=5, count=5)
        assert report.ok

    @pytest.mark.parametrize("p,n,m", [(2, 1, 2), (2, 2, 4), (3, 1, 2)])
    def test_intertwining(self, p, n, m):
        report = verify_amplification_intertwining(Angle(Fraction(0), Fraction(1)), p, n, m, seed=6, count=10)
        assert report.ok, report.failures[:1]

    def test_intertwining_with_rational_angle_part(self):
        # theta' = 1/4 + theta halves to 1/8 + theta/2: fractional roots and
        # t-powers flow through the re-tag
        report = verify_amplification_intertwining(Angle(Fraction(1, 4), Fraction(1)), 2, 1, 2, seed=7, count=10)
        assert report.ok, report.failures[:1]
