import operator

import pytest

from bdlab import cantor
from bdlab.cantor import (
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
from bdlab.coeff import CircleFunction, FiniteCyclicShift
from bdlab.crossed import CrossedElement, MatrixElement, sample_matrix
from bdlab.errors import MismatchError


class DenseCylinder:
    """Oracle: the dense cylinder arithmetic, a table of all n_k values per function."""

    def __init__(self, algebra, depth, values):
        self.algebra, self.depth, self.values = algebra, depth, tuple(values)
        assert len(self.values) == algebra.stages.size(depth)

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

    def to_json(self):
        return {"depth": self.depth, "values": [v.to_json() for v in self.values]}


def dense(x):
    """x as U-degree -> DenseCylinder, read back from its JSON (one dense table per U-degree)."""
    coeff = x.algebra.coeff
    return {int(key[2:]): DenseCylinder(x.algebra, f["depth"], (coeff.element_from_json(v) for v in f["values"]))
            for key, f in x.to_json()["coeffs"].items()}


def dense_json(depth, coeffs):
    """The element JSON of U-degree -> DenseCylinder, zero coefficients dropped."""
    return {"depth": depth,
            "coeffs": {f"U:{d}": coeffs[d].to_json() for d in sorted(coeffs) if not coeffs[d].is_zero()}}


def dense_odometer_mul(x, y):
    """sum_(d,e) f_d * sigma^d(g_e) U^(d+e), densely."""
    depth = max(x.depth, y.depth)
    out = {}
    for d, f in dense(x).items():
        for e, g in dense(y).items():
            term = f.promote(depth) * g.promote(depth).shifted(d)
            out[d + e] = out[d + e] + term if d + e in out else term
    return dense_json(depth, out)


def dense_sum(x, y, op):
    """op (add or sub) of x and y, U-degree by U-degree, densely."""
    depth = max(x.depth, y.depth)
    zero = DenseCylinder(x.algebra, depth, [x.algebra.coeff.zero()] * x.algebra.stages.size(depth))
    X = {d: f.promote(depth) for d, f in dense(x).items()}
    Y = {d: f.promote(depth) for d, f in dense(y).items()}
    return dense_json(depth, {d: op(X.get(d, zero), Y.get(d, zero)) for d in X.keys() | Y.keys()})


def assert_matches_dense(x, expected):
    """x serializes as the dense oracle's result and stores no zero value."""
    assert x.to_json() == expected
    assert not any(a.is_zero() for a in x.entries.values())


def with_degrees(odo, pairs):
    """sum f U^d over (d, f) pairs of a U-degree and a cylinder function."""
    x = OdometerElement(odo, {})
    for d, f in pairs:
        x = x + f * odo.u_power(d)
    return x


def table(f):
    """The dense values of a cylinder function (an element with U-degree 0 only)."""
    zero = f.algebra.coeff.zero()
    assert all(d == 0 for d, _ in f.entries)
    return [f.entries.get((0, j), zero) for j in range(f.size)]


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
            assert stepped == stages.index_to_digits(index + 1, 3)

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
        x = odometer.indicator(0, 3) * odometer.u_power(1)
        assert (x * x).is_zero()

    def test_exponent_zero_is_pointwise(self, odometer, rng):
        f, g = odometer.sample_function(rng, 3), odometer.sample_function(rng, 3)
        assert f * g == odometer.function((x * y for x, y in zip(table(f), table(g))), 3)

    def test_self_adjoint_products(self, odometer, rng):
        for _ in range(100):
            x = with_degrees(odometer, [(rng.randint(-3, 3), odometer.sample_function(rng, 2)) for _ in range(2)])
            y = x * x.star()
            assert y.star() == y

    def test_unitary_relation(self, odometer, rng):
        # U f U* = sigma(f)
        f = odometer.sample_function(rng, 3)
        U = odometer.u_power(1, 3)
        assert U * f * U.star() == f.shifted(1)

    def test_entrywise_eq_agrees_with_subtraction(self, any_odometer, rng):
        # random pairs, pairs equal by construction, and pairs at different depths
        odo = any_odometer
        for _ in range(20):
            x, y, z = (sample_element(odo, rng) for _ in range(3))
            d = rng.randint(-7, 7)
            for a, b in ((x, y), (x, (x + y) - y), ((x * y) * z, x * (y * z)), (x, x.promote(3)),
                         (x, x.star().star()), (x, x.shifted(d).shifted(-d)), (x, psi_map(psi_map(x))),
                         (x, x.shifted(1))):
                assert (a == b) == (a - b).is_zero()
                assert (b == a) == (a == b)
            assert x == (x + y) - y and (x * y) * z == x * (y * z) and x == x.promote(3)

    def test_products_are_uncapped(self, odometer):
        # the u- and z-degree cap of 64 does not apply to U-degrees
        U40 = odometer.u_power(40, 3)
        assert U40 * U40 == odometer.u_power(80, 3)
        assert U40.star() * U40.star() == odometer.u_power(-80, 3)

    def test_json_round_trip(self, odometer, rng):
        x = with_degrees(odometer, [(2, odometer.sample_function(rng, 3)), (-1, odometer.sample_function(rng, 3))])
        assert OdometerElement.from_json(x.to_json(), odometer) == x


class TestRho:
    def test_matrix_unit_images(self, odometer, circle):
        # rho(e_{i,j}) = sigma^{-i}(delta_0) U^{j-i}
        for (i, j) in [(0, 1), (1, 0), (1, 1)]:
            E = MatrixElement.single(circle, 2, 2, i, j)
            expected = odometer.indicator(0, 2).shifted(-i) * odometer.u_power(j - i)
            assert rho(odometer, 2, E) == expected

    def test_u_image(self, odometer, circle):
        X = MatrixElement.single(circle, 2, 2, 0, 0, CrossedElement.u_power(circle, 2))
        assert rho(odometer, 2, X) == odometer.indicator(0, 2) * odometer.u_power(2)

    def test_closed_form_matches_generator_products(self, any_odometer, rng):
        # a u^l e_(i,j) -> U^(-i) (a delta_0) U^(j + n l) = sigma^(-i)(a delta_0) U^(j - i + n l)
        odo = any_odometer
        for stage in (2, 3):
            n = odo.stages.size(stage)
            for _ in range(5):
                X = sample_matrix(odo.coeff, odo.alpha_sign * n, n, rng)
                by_products = by_shifts = OdometerElement(odo, {}, stage)
                for (i, j), x in X.entries.items():
                    for l, a in x.entries.items():
                        delta = odo.indicator(0, stage, a)
                        by_products += odo.u_power(-i, stage) * delta * odo.u_power(j + n * l, stage)
                        by_shifts += delta.shifted(-i) * odo.u_power(j - i + n * l, stage)
                assert rho(odo, stage, X) == by_products == by_shifts

    def test_unital(self, odometer, circle):
        assert rho(odometer, 3, MatrixElement.identity(circle, 6, 6)) == odometer.unit(3)

    @pytest.mark.parametrize("algebra, power, size", [("circle", 2, 3), ("circle", 3, 2), ("cyclic3", 2, 2)])
    def test_rejects_an_element_of_another_stage(self, odometer, algebra, power, size, request):
        # stage 2 of (1, 2, 6) is the size-2 matrices over the circle at power 2; each case is off in one
        X = MatrixElement.identity(request.getfixturevalue(algebra), power, size)
        with pytest.raises(MismatchError, match="expected a size-2 stage element"):
            rho(odometer, 2, X)

    def test_extraction_round_trip(self, odometer, circle, rng):
        for _ in range(25):
            X = sample_matrix(circle, 6, 6, rng)
            Y = rho(odometer, 3, X)
            for p in range(6):
                for q in range(6):
                    assert rho_extract(odometer, 3, Y, p, q) == X.entry(p, q)

    def test_extraction_rejects_off_image(self, odometer):
        # a depth-3 function probed at stage 2 leaves support off cylinder 0
        bad = odometer.indicator(1, 3)
        assert rho_extract(odometer, 2, bad, 1, 1) is None
        # rho is onto the stage subalgebra, so U itself extracts fine: its
        # preimage has zero (0, 0) entry
        assert rho_extract(odometer, 3, odometer.u_power(1, 3), 0, 0) == CrossedElement(odometer.coeff, 6)

    @pytest.mark.parametrize("sizes,stage", [((1, 2, 6), 2), ((1, 2, 6), 3), ((1, 3, 6), 2), ((1, 1, 2), 2)])
    def test_homomorphism_suite(self, sizes, stage, circle):
        odo = OdometerAlgebra(StageSequence(sizes), circle)
        report = verify_rho_homomorphism(odo, stage, seed=11, count=20)
        assert report.ok, report.failures[:1]

    def test_state_pulls_back_matrix_trace(self, odometer, circle, rng):
        for _ in range(30):
            X = sample_matrix(circle, 6, 6, rng)
            assert rho(odometer, 3, X).state() == X.trace()


def rho_extract_by_products(algebra, stage, Y, p, q):
    """Oracle: U^p delta_(n-p) Y delta_(n-q) U^(-q) by four odometer products, then the shape test.

    The shape: every U-degree a multiple of n, each value a_l on the stage cylinder 0 promoted.
    """
    n = algebra.stages.size(stage)
    left = algebra.u_power(p, stage) * algebra.indicator(n - p, stage)
    right = algebra.indicator(n - q, stage) * algebra.u_power(-q, stage)
    Z = left * Y * right
    head = {(d, 0): a for (d, j), a in Z.entries.items() if j == 0}
    if any(d % n for d, _ in head) or not OdometerElement(algebra, head, stage).promote(Z.depth) == Z:
        return None
    return CrossedElement(algebra.coeff, algebra.alpha_sign * n, {d // n: a for (d, _), a in head.items()})


def _stage_image(odo, stage, rng):
    n = odo.stages.size(stage)
    return rho(odo, stage, sample_matrix(odo.coeff, odo.alpha_sign * n, n, rng))


def _extraction_inputs(odo, stage, rng):
    """A rho image at ``stage``, it promoted to the deepest stage, it plus a sampled deepest-stage cylinder
    function times U^e (off the image below the deepest stage), and an image at the stage before."""
    Y, depth = _stage_image(odo, stage, rng), odo.stages.depth
    noise = odo.sample_function(rng, depth) * odo.u_power(rng.randint(-6, 6))
    return [Y, Y.promote(depth), Y + noise] + ([_stage_image(odo, stage - 1, rng)] if stage > 1 else [])


class TestExtractionClosedForm:
    @pytest.mark.parametrize("sizes", [(1, 2, 6), (1, 3, 6), (1, 2, 4, 8)])
    @pytest.mark.parametrize("coeff", ["circle_q", "cyclic3"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_product_oracle(self, request, rng, sizes, coeff, sign):
        odo = OdometerAlgebra(StageSequence(sizes), request.getfixturevalue(coeff), sign)
        results = []
        for stage in range(1, odo.stages.depth + 1):
            n = odo.stages.size(stage)
            for Y in _extraction_inputs(odo, stage, rng):
                for p in range(n):
                    for q in range(n):
                        got = rho_extract(odo, stage, Y, p, q)
                        assert got == rho_extract_by_products(odo, stage, Y, p, q), (stage, Y, p, q)
                        results.append(got)
        assert any(x is None for x in results) and any(x is not None and not x.is_zero() for x in results)

    @pytest.mark.parametrize("other", [lambda odo: odo.dual(),
                                       lambda odo: OdometerAlgebra(odo.stages, FiniteCyclicShift(3), odo.alpha_sign)])
    def test_element_of_another_algebra(self, odometer, rng, other):
        Y = _stage_image(other(odometer), 2, rng)
        for extract in (rho_extract, rho_extract_by_products):
            with pytest.raises(MismatchError):
                extract(odometer, 2, Y, 1, 0)


def _transposed(algebra, stage, Y, p, q):
    """Mutant: reads the (q, p) corner."""
    return rho_extract(algebra, stage, Y, q, p)


def _untwisted(algebra, stage, Y, p, q):
    """Mutant: leaves out the sigma^p twist of the values."""
    x = rho_extract(algebra, stage, Y, p, q)
    if x is None:
        return None
    return CrossedElement(x.algebra, x.power, {l: algebra.twist(a, -p) for l, a in x.entries.items()})


@pytest.mark.parametrize("mutant", [_transposed, _untwisted])
def test_extraction_cases_catch_mutants(monkeypatch, circle, mutant):
    odo = OdometerAlgebra(StageSequence((1, 2, 6)), circle)
    assert verify_rho_homomorphism(odo, 2, seed=5, count=4).ok
    monkeypatch.setattr(cantor, "rho_extract", mutant)
    failures = verify_rho_homomorphism(odo, 2, seed=5, count=4).failures
    assert failures and all(str(f.case).startswith("extract") for f in failures)


class TestRg:
    @pytest.mark.parametrize("sizes", [(1, 2, 6), (1, 3, 6)])
    def test_rg_suite(self, sizes, circle, cyclic3):
        for algebra in (circle, cyclic3):
            odo = OdometerAlgebra(StageSequence(sizes), algebra)
            for stage in (1, 2):
                report = verify_rg(odo, stage, seed=12, count=15)
                assert report.ok, (sizes, stage, report.failures[:1])

    def test_last_stage_has_no_next_stage(self, odometer):
        with pytest.raises(MismatchError, match="need a next stage"):
            verify_rg(odometer, 3, seed=12, count=1)

    def test_generator_values(self, odometer, circle):
        # a e_{0,0} maps to a delta_0 at both stages
        z = CircleFunction.z()
        X = MatrixElement.single(circle, 2, 2, 0, 0, CrossedElement.from_coefficient(circle, 2, z))
        lhs = rho(odometer, 2, X).promote(3)
        from bdlab.limits import gamma

        rhs = rho(odometer, 3, gamma(2, 6, X))
        assert lhs == rhs == odometer.indicator(0, 2, z).promote(3)


class TestFlipAndPsi:
    def test_flip_conjugacy_exhaustive(self):
        for sizes in [(1, 2, 6), (1, 3, 6), (1, 2, 4, 8, 16, 32, 64)]:
            report = verify_flip_conjugacy(StageSequence(sizes))
            # one case per point of each stage
            assert report.ok and report.cases == sum(sizes)

    @pytest.mark.parametrize("step", ["real", "carry-less", "identity"])
    def test_flip_suite_fails_under_a_broken_step(self, monkeypatch, step):
        # g∘T = T⁻¹∘g holds for both broken steps: only the comparison with index ± 1 can fail
        if step == "carry-less":
            monkeypatch.setattr(cantor, "odometer_step", lambda radii, digits, direction=1: (
                ((digits[0] + direction) % radii[0], *digits[1:]) if digits else tuple(digits)))
        elif step == "identity":
            monkeypatch.setattr(cantor, "odometer_step", lambda radii, digits, direction=1: tuple(digits))
        report = verify_flip_conjugacy(StageSequence((1, 2, 6, 12)))
        assert report.cases == 1 + 2 + 6 + 12
        if step == "real":
            assert report.ok
        else:
            # a failure's sides are (g T x, T x, T⁻¹ x) and (T⁻¹ g x, x + 1, x - 1), each a list of digit lists
            sides = [(f.lhs, f.rhs) for f in report.failures]
            assert sides and all(lhs[0] == rhs[0] and lhs[1:] != rhs[1:] for lhs, rhs in sides)

    def test_psi_on_unit_and_indicator(self, odometer):
        report = verify_psi_flip(odometer, 3, seed=13, count=10)
        assert report.ok, report.failures[:1]

    def test_psi_is_star_homomorphism(self, odometer, rng):
        dual = odometer.dual()
        for _ in range(20):
            x, y = (odometer.sample_function(rng, 3) * odometer.u_power(rng.randint(-2, 2)) for _ in range(2))
            assert psi_map(x * y) == psi_map(x) * psi_map(y)
            assert psi_map(x.star()) == psi_map(x).star()
            assert psi_map(x).algebra == dual

    def test_psi_inverts_itself(self, odometer, rng):
        # the analogous map from the dual tower undoes psi
        for _ in range(20):
            x = odometer.sample_function(rng, 3) * odometer.u_power(rng.randint(-2, 2))
            assert psi_map(psi_map(x)) == x

    def test_gk_generation(self, circle, cyclic3):
        for algebra in (circle, cyclic3):
            for sizes in [(1, 2, 6), (1, 3, 6)]:
                report = verify_gk_generation(OdometerAlgebra(StageSequence(sizes), algebra))
                # one case per stage
                assert report.ok and report.cases == len(sizes)


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


def sample_element(odo, rng):
    """A random cylinder function, or a sum of two times random U-powers, at mixed depths."""
    if rng.random() < 0.3:
        return _sample_cylinder(odo, rng)
    return with_degrees(odo, [(rng.randint(-7, 7), _sample_cylinder(odo, rng)) for _ in range(2)])


class TestSparseAgainstDenseOracle:
    def test_cylinder_operations(self, any_odometer, rng):
        odo = any_odometer
        for _ in range(40):
            x, y = sample_element(odo, rng), sample_element(odo, rng)
            X, d = dense(x), rng.randint(-7, 7)
            assert_matches_dense(x.promote(3), dense_json(3, {e: f.promote(3) for e, f in X.items()}))
            assert_matches_dense(x.shifted(d), dense_json(x.depth, {e: f.shifted(d) for e, f in X.items()}))
            assert_matches_dense(x.star(), dense_json(x.depth, {-e: f.star().shifted(-e) for e, f in X.items()}))
            assert_matches_dense(psi_map(x), dense_json(x.depth, {-e: f.flip_compose() for e, f in X.items()}))
            assert psi_map(x).algebra == odo.dual()
            assert_matches_dense(x + y, dense_sum(x, y, operator.add))
            assert_matches_dense(x - y, dense_sum(x, y, operator.sub))
            for a, b in ((x, y), (x, x.promote(3)), (x, (x + y) - y)):
                assert (a == b) == (b == a) == (not dense_sum(a, b, operator.sub)["coeffs"])

    def test_odometer_product(self, any_odometer, rng):
        odo = any_odometer
        for _ in range(20):
            x, y = sample_element(odo, rng), sample_element(odo, rng)
            assert_matches_dense(x * y, dense_odometer_mul(x, y))
            assert_matches_dense(y * x, dense_odometer_mul(y, x))
            assert_matches_dense(x * x, dense_odometer_mul(x, x))

    def test_dense_constructor_drops_zeros(self, odometer, circle):
        z = CircleFunction.z()
        f = odometer.function((circle.zero(), z), 2)
        assert f.entries == {(0, 1): z} and table(f) == [circle.zero(), z]
        assert f.to_json() == {"depth": 2, "coeffs": {"U:0": {"depth": 2, "values": [{}, z.to_json()]}}}
