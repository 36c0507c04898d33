import pytest

from bdlab.cantor import (
    CylinderFunction,
    OdometerAlgebra,
    OdometerElement,
    StageSequence,
    flip_digits,
    odometer_step,
    psi_map,
    rho,
    rho_extract,
    verify_flip_conjugacy,
    verify_gk_generation,
    verify_psi_flip,
    verify_rg,
    verify_rho_homomorphism,
)
from bdlab.coeff import CircleFunction
from bdlab.crossed import CrossedElement, MatrixElement, sample_matrix
from bdlab.errors import MismatchError


class DenseCylinder:
    """Oracle: the dense cylinder arithmetic, a table of all n_k values per function."""

    def __init__(self, algebra, depth, values):
        self.algebra, self.depth, self.values = algebra, depth, tuple(values)
        assert len(self.values) == algebra.stages.size(depth)

    @staticmethod
    def of(f):
        return DenseCylinder(f.algebra, f.depth, f.values)

    def _aligned(self, other):
        depth = max(self.depth, other.depth)
        return self.promote(depth), other.promote(depth)

    def promote(self, depth):
        n_old, n_new = len(self.values), self.algebra.stages.size(depth)
        return DenseCylinder(self.algebra, depth, (self.values[j % n_old] for j in range(n_new)))

    def shifted(self, d):
        if d == 0:
            return self
        n, alg = len(self.values), self.algebra
        return DenseCylinder(alg, self.depth,
                             (alg.coeff.alpha_power(self.values[(i - d) % n], alg.alpha_sign * d) for i in range(n)))

    def flip_compose(self):
        return DenseCylinder(self.algebra, self.depth, self.values[::-1])

    def is_zero(self):
        return all(v.is_zero() for v in self.values)

    def __add__(self, other):
        a, b = self._aligned(other)
        return DenseCylinder(self.algebra, a.depth, (x + y for x, y in zip(a.values, b.values)))

    def __sub__(self, other):
        a, b = self._aligned(other)
        return DenseCylinder(self.algebra, a.depth, (x - y for x, y in zip(a.values, b.values)))

    def __mul__(self, other):
        a, b = self._aligned(other)
        return DenseCylinder(self.algebra, a.depth, (x * y for x, y in zip(a.values, b.values)))

    def star(self):
        return DenseCylinder(self.algebra, self.depth, (v.star() for v in self.values))

    def __eq__(self, other):
        a, b = self._aligned(other)
        return all(x == y for x, y in zip(a.values, b.values))

    def to_json(self):
        return {"depth": self.depth, "values": [v.to_json() for v in self.values]}


def dense_odometer_mul(x, y):
    """sum_(d,e) f_d * sigma^d(g_e) U^(d+e), densely, as JSON with zero coefficients dropped."""
    depth = max(x.depth, y.depth)
    out = {}
    for d, f in x.coeffs.items():
        for e, g in y.coeffs.items():
            term = DenseCylinder.of(f).promote(depth) * DenseCylinder.of(g).promote(depth).shifted(d)
            out[d + e] = out[d + e] + term if d + e in out else term
    return {"depth": depth,
            "coeffs": {f"U:{k}": out[k].to_json() for k in sorted(out) if not out[k].is_zero()}}


def assert_matches_dense(f, dense):
    """Same depth, equal values, the same JSON, and a support of exactly the nonzero values."""
    assert isinstance(f, CylinderFunction) and f.depth == dense.depth
    assert all(x == y for x, y in zip(f.values, dense.values))
    assert f.to_json() == dense.to_json()
    assert f.support.keys() == {j for j, v in enumerate(dense.values) if not v.is_zero()}


@pytest.fixture
def stages():
    return StageSequence((1, 2, 6))


@pytest.fixture
def odometer(stages, circle):
    return OdometerAlgebra(stages, circle)


class TestDigits:
    def test_step_examples(self):
        assert odometer_step((2, 3), (1, 2)) == (0, 0)
        assert odometer_step((2, 3), (0, 0)) == (1, 0)

    def test_step_matches_index_increment(self, stages):
        for index in range(6):
            digits = stages.index_to_digits(index, 3)
            stepped = odometer_step(stages.radii, digits)
            assert stages.digits_to_index(stepped) == (index + 1) % 6

    def test_step_inverse(self, stages, rng):
        for _ in range(100):
            index = rng.randrange(6)
            digits = stages.index_to_digits(index, 3)
            assert odometer_step(stages.radii, odometer_step(stages.radii, digits, 1), -1) == digits

    def test_flip(self):
        assert flip_digits((2, 3), (0, 1)) == (1, 1)
        assert flip_digits((2, 3), flip_digits((2, 3), (1, 2))) == (1, 2)

    def test_divisibility_validated(self):
        with pytest.raises(MismatchError):
            StageSequence((1, 2, 5))
        with pytest.raises(MismatchError):
            StageSequence((2, 4))


class TestSigma:
    def test_indicator_shift(self, odometer):
        d0 = odometer.indicator(0, 3)
        assert d0.shifted(1) == odometer.indicator(1, 3)
        assert d0.shifted(0) == d0

    def test_full_cycle_applies_alpha(self, odometer, circle):
        f = odometer.constant(CircleFunction.z(), 3)
        assert f.shifted(6) == odometer.constant(circle.alpha_power(CircleFunction.z(), 6), 3)

    def test_promotion_commutes_with_sigma_product_star(self, odometer, rng):
        for _ in range(25):
            f = odometer.sample_function(rng, 2)
            g = odometer.sample_function(rng, 2)
            d = rng.randint(-3, 3)
            assert f.shifted(d).promote(3) == f.promote(3).shifted(d)
            assert (f * g).promote(3) == f.promote(3) * g.promote(3)
            assert f.star().promote(3) == f.promote(3).star()


class TestOdometerElements:
    def test_disjoint_indicator_product(self, odometer):
        x = odometer.element(odometer.indicator(0, 3), 1)
        assert (x * x).is_zero()

    def test_exponent_zero_is_pointwise(self, odometer, rng):
        f, g = odometer.sample_function(rng, 3), odometer.sample_function(rng, 3)
        assert odometer.element(f) * odometer.element(g) == odometer.element(f * g)

    def test_self_adjoint_products(self, odometer, rng):
        for _ in range(100):
            coeffs = {rng.randint(-3, 3): odometer.sample_function(rng, 2) for _ in range(2)}
            x = OdometerElement(odometer, coeffs)
            y = x * x.star()
            assert y.star() == y

    def test_unitary_relation(self, odometer, rng):
        # U f U* = sigma(f)
        f = odometer.sample_function(rng, 3)
        U = odometer.u_power(1, 3)
        assert U * odometer.element(f) * U.star() == odometer.element(f.shifted(1))

    @pytest.mark.parametrize("algebra_fixture", ["circle", "circle_q"])
    def test_entrywise_eq_agrees_with_subtraction(self, stages, algebra_fixture, request, rng):
        # random pairs, pairs equal by construction, and pairs at different depths
        odo = OdometerAlgebra(stages, request.getfixturevalue(algebra_fixture))
        for _ in range(20):
            x, y, z = (OdometerElement(odo, {rng.randint(-2, 2): odo.sample_function(rng, rng.randint(1, 3))
                                             for _ in range(2)}) for _ in range(3))
            for a, b in ((x, y), (x, (x + y) - y), ((x * y) * z, x * (y * z)), (x, x.promote(3)),
                         (x, x.star().star())):
                assert (a == b) == (a - b).is_zero()
                assert (b == a) == (a == b)
            assert x == (x + y) - y and (x * y) * z == x * (y * z) and x == x.promote(3)

    def test_products_are_uncapped(self, odometer):
        # the u- and z-degree cap of 64 does not apply to U-degrees
        U40 = odometer.u_power(40, 3)
        assert U40 * U40 == odometer.u_power(80, 3)
        assert U40.star() * U40.star() == odometer.u_power(-80, 3)

    def test_json_round_trip(self, odometer, rng):
        x = OdometerElement(odometer, {2: odometer.sample_function(rng, 3),
                                       -1: odometer.sample_function(rng, 3)})
        assert OdometerElement.from_json(x.to_json(), odometer) == x


class TestRho:
    def test_matrix_unit_images(self, odometer, circle):
        # rho(e_{i,j}) = sigma^{-i}(delta_0) U^{j-i}
        for (i, j) in [(0, 1), (1, 0), (1, 1)]:
            E = MatrixElement.single(circle, 2, 2, i, j)
            expected = odometer.element(odometer.indicator(0, 2).shifted(-i), j - i)
            assert rho(odometer, 2, E) == expected

    def test_u_image(self, odometer, circle):
        X = MatrixElement.single(circle, 2, 2, 0, 0, CrossedElement.u_power(circle, 2))
        assert rho(odometer, 2, X) == odometer.element(odometer.indicator(0, 2), 2)

    def test_unital(self, odometer, circle):
        assert rho(odometer, 3, MatrixElement.identity(circle, 6, 6)) == odometer.unit(3)

    def test_extraction_round_trip(self, odometer, circle, rng):
        for _ in range(25):
            X = sample_matrix(circle, 6, 6, rng)
            Y = rho(odometer, 3, X)
            for p in range(6):
                for q in range(6):
                    assert rho_extract(odometer, 3, Y, p, q) == X.entry(p, q)

    def test_extraction_rejects_off_image(self, odometer):
        # a depth-3 function probed at stage 2 leaves support off cylinder 0
        bad = odometer.element(odometer.indicator(1, 3))
        assert rho_extract(odometer, 2, bad, 1, 1) is None
        # rho is onto the stage subalgebra, so U itself extracts fine: its
        # preimage has zero (0, 0) entry
        assert rho_extract(odometer, 3, odometer.u_power(1, 3), 0, 0) == CrossedElement.zero(
            odometer.coeff, 6)

    @pytest.mark.parametrize("sizes,stage", [((1, 2, 6), 2), ((1, 2, 6), 3), ((1, 3, 6), 2), ((1, 1, 2), 2)])
    def test_homomorphism_suite(self, sizes, stage, circle):
        odo = OdometerAlgebra(StageSequence(sizes), circle)
        report = verify_rho_homomorphism(odo, stage, seed=11, count=20)
        assert report.ok, report.failures[:1]

    def test_state_pulls_back_matrix_trace(self, odometer, circle, rng):
        for _ in range(30):
            X = sample_matrix(circle, 6, 6, rng)
            assert rho(odometer, 3, X).state() == X.trace()


class TestRg:
    @pytest.mark.parametrize("sizes", [(1, 2, 6), (1, 3, 6)])
    def test_rg_suite(self, sizes, circle, cyclic3):
        for algebra in (circle, cyclic3):
            odo = OdometerAlgebra(StageSequence(sizes), algebra)
            for stage in (1, 2):
                report = verify_rg(odo, stage, seed=12, count=15)
                assert report.ok, (sizes, stage, report.failures[:1])

    def test_generator_values(self, odometer, circle):
        # a e_{0,0} maps to a delta_0 at both stages
        z = CircleFunction.z()
        X = MatrixElement.single(circle, 2, 2, 0, 0, CrossedElement.from_coefficient(circle, 2, z))
        lhs = rho(odometer, 2, X).promote(3)
        from bdlab.limits import gamma

        rhs = rho(odometer, 3, gamma(2, 6, X))
        assert lhs == rhs == odometer.element(odometer.indicator(0, 2, z)).promote(3)


class TestFlipAndPsi:
    def test_flip_conjugacy_exhaustive(self):
        for sizes in [(1, 2, 6), (1, 3, 6), (1, 2, 4, 8, 16, 32, 64)]:
            report = verify_flip_conjugacy(StageSequence(sizes))
            assert report.ok

    def test_psi_on_unit_and_indicator(self, odometer):
        report = verify_psi_flip(odometer, 3, seed=13, count=10)
        assert report.ok, report.failures[:1]

    def test_psi_is_star_homomorphism(self, odometer, rng):
        dual = odometer.dual()
        for _ in range(20):
            x = OdometerElement(odometer, {rng.randint(-2, 2): odometer.sample_function(rng, 3)})
            y = OdometerElement(odometer, {rng.randint(-2, 2): odometer.sample_function(rng, 3)})
            assert psi_map(x * y) == psi_map(x) * psi_map(y)
            assert psi_map(x.star()) == psi_map(x).star()
            assert psi_map(x).algebra == dual

    def test_psi_inverts_itself(self, odometer, rng):
        # the analogous map from the dual tower undoes psi
        for _ in range(20):
            x = OdometerElement(odometer, {rng.randint(-2, 2): odometer.sample_function(rng, 3)})
            assert psi_map(psi_map(x)) == x

    def test_gk_generation(self, circle, cyclic3):
        for algebra in (circle, cyclic3):
            for sizes in [(1, 2, 6), (1, 3, 6)]:
                report = verify_gk_generation(OdometerAlgebra(StageSequence(sizes), algebra))
                assert report.ok


def test_odometer_cycle_order(stages):
    # depth-k odometer is the +1 cycle of order n_k
    for stage in (1, 2, 3):
        n = stages.size(stage)
        prefix = stages.radii[: stage - 1]
        digits = stages.index_to_digits(0, stage)
        seen = {digits}
        for _ in range(n - 1):
            digits = odometer_step(prefix, digits)
            seen.add(digits)
        assert len(seen) == n
        assert odometer_step(prefix, digits) == stages.index_to_digits(0, stage)


@pytest.fixture(params=["circle", "circle_dual", "circle_q", "cyclic3", "cyclic3_dual"])
def any_odometer(request, stages):
    name = request.param
    odo = OdometerAlgebra(stages, request.getfixturevalue(name.removesuffix("_dual")))
    return odo.dual() if name.endswith("_dual") else odo


def _sample_cylinder(odo, rng):
    """A random function at depth 1-3: sampled, an indicator, zero, or a constant."""
    depth = rng.randint(1, 3)
    kind = rng.random()
    if kind < 0.6:
        return odo.sample_function(rng, depth)
    if kind < 0.8:
        return odo.indicator(rng.randrange(6), depth, odo.coeff.sample(rng))
    if kind < 0.9:
        return odo.constant(odo.coeff.zero(), depth)
    return odo.constant(odo.coeff.sample(rng), depth)


class TestSparseAgainstDenseOracle:
    def test_cylinder_operations(self, any_odometer, rng):
        odo = any_odometer
        for _ in range(40):
            f, g = _sample_cylinder(odo, rng), _sample_cylinder(odo, rng)
            F, G = DenseCylinder.of(f), DenseCylinder.of(g)
            d = rng.randint(-7, 7)
            assert_matches_dense(f.promote(3), F.promote(3))
            assert_matches_dense(f.shifted(d), F.shifted(d))
            assert_matches_dense(f.flip_compose(), F.flip_compose())
            assert_matches_dense(f + g, F + G)
            assert_matches_dense(f - g, F - G)
            assert_matches_dense(f * g, F * G)
            assert_matches_dense(f.star(), F.star())
            assert_matches_dense(f.times_shifted(g, d), F * G.shifted(d))
            assert_matches_dense(f.times_shifted(f, d), F * F.shifted(d))
            for a, b, A, B in ((f, g, F, G), (f, f.promote(3), F, F.promote(3)), (f, (f + g) - g, F, (F + G) - G)):
                assert (a == b) == (A == B) == (b == a)
            assert f == f.promote(3) and f == (f + g) - g

    def test_odometer_product(self, any_odometer, rng):
        odo = any_odometer
        for _ in range(20):
            x, y = (OdometerElement(odo, {rng.randint(-7, 7): _sample_cylinder(odo, rng) for _ in range(2)})
                    for _ in range(2))
            assert (x * y).to_json() == dense_odometer_mul(x, y)
            assert (y * x).to_json() == dense_odometer_mul(y, x)

    def test_dense_constructor_drops_zeros(self, odometer, circle):
        z = CircleFunction.z()
        f = CylinderFunction(odometer, 2, (circle.zero(), z))
        assert f.support == {1: z} and f.values == (circle.zero(), z)
        assert f.to_json() == {"depth": 2, "values": [{}, z.to_json()]}
