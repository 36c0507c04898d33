import random
from unittest import mock

import pytest

from bdlab.coeff import CircleFunction, FiniteCyclicFunction, FiniteCyclicShift
from bdlab.errors import MismatchError
from bdlab.fock import (
    BlockMatrix,
    FockOperator,
    block_decompose,
    block_trust,
    compact_preservation_sides,
    eq_id_sides,
    weighted_blocks_check,
    theta_block_map,
    verify_compact_preservation,
    verify_fock_identity,
    verify_weighted_blocks,
    verify_shuffle,
)
from bdlab.scalar import Scalar


def block_reassemble(blocks, k, depth, *, step=1, trust=None):
    """Inverse of block_decompose for blocks sharing one decomposition."""
    entries = {}
    algebra = None
    for (lp, l), block in blocks.items():
        algebra = block.algebra
        for (qp, q), a in block.entries.items():
            entries[(qp * k + lp, q * k + l)] = a
    if algebra is None:
        raise MismatchError("no blocks to reassemble")
    return FockOperator(algebra, depth, entries, step=step, trust=trust)


def sample_fock(algebra, depth, rng, *, step=1, band=2, density=0.4):
    """A random band operator: each entry within ``band`` of the diagonal is set with probability ``density``."""
    entries = {}
    for i in range(depth):
        for j in range(max(0, i - band), min(depth, i + band + 1)):
            if rng.random() < density:
                entries[(i, j)] = algebra.sample(rng)
    return FockOperator(algebra, depth, entries, step=step)


class TestGenerators:
    def test_phi_diagonal(self, circle):
        op = FockOperator.phi(circle, CircleFunction.z(), 3)
        assert op.entries == {
            (0, 0): CircleFunction.z(),
            (1, 1): CircleFunction.z(1, Scalar.t_power(-1)),
            (2, 2): CircleFunction.z(1, Scalar.t_power(-2)),
        }
        assert FockOperator.phi(circle, circle.one(), 4).entries == {
            (i, i): circle.one() for i in range(4)
        }
        assert FockOperator.phi(circle, circle.zero(), 4).entries == {}

    def test_weighted_periodic_extension(self, circle):
        op = FockOperator.weighted(circle, (circle.zero(), circle.one()), circle.one(), 4)
        assert set(op.entries) == {(2, 1)}
        assert op.entries[(2, 1)] == circle.one()

    @pytest.mark.parametrize("algebra_fixture", ["circle_q", "cyclic3"])
    @pytest.mark.parametrize("period", [1, 2, 3])
    @pytest.mark.parametrize("step", [1, 2])
    def test_weighted_matches_per_level_oracle(self, algebra_fixture, period, step, request, rng):
        # oracle: level q+1 <- q carries alpha^(step*q)(lam_(q+1) * a), built level by level
        algebra = request.getfixturevalue(algebra_fixture)
        for depth in (1, 2, 3 * period + 2):
            weights = tuple(algebra.sample(rng) for _ in range(period))
            a = algebra.sample(rng)
            want = FockOperator(algebra, depth, {
                (q + 1, q): algebra.alpha_power(weights[q % period] * a, step * q) for q in range(depth - 1)
            }, step=step)
            assert FockOperator.weighted(algebra, weights, a, depth, step=step).to_json() == want.to_json()

    def test_weighted_zero_argument(self, circle):
        assert FockOperator.weighted(circle, (circle.one(),), circle.zero(), 4).entries == {}

    def test_weighted_needs_a_weight(self, circle):
        with pytest.raises(MismatchError):
            FockOperator.weighted(circle, (), circle.one(), 4)

    def test_shift_isometry_relations(self, circle):
        K = 6
        S = FockOperator.shift(circle, K)
        I = FockOperator.identity(circle, K)
        P0 = FockOperator.projection0(circle, K)
        sts = S.star().compose(S)
        assert sts.trust == K - 1
        assert sts.agrees(I)
        sst = S.compose(S.star())
        assert sst.trust == K
        assert sst.agrees(I - P0)

    def test_compose_with_zero(self, circle, rng):
        X = sample_fock(circle, 6, rng)
        assert X.compose(FockOperator(circle, 6)).entries == {}


class TestTrustRule:
    def test_trust_erodes_with_raising_right_factor(self, circle, rng):
        K = 8
        X = sample_fock(circle, K, rng)
        S = FockOperator.shift(circle, K)
        assert X.compose(S).trust == min(X.trust, K) - 1
        assert X.compose(S.star()).trust == min(X.trust, K)

    def test_adjoint_involution_and_antimultiplicativity(self, circle, rng):
        K = 10
        for _ in range(30):
            X = sample_fock(circle, K, rng)
            Y = sample_fock(circle, K, rng)
            assert X.star().star().entries == X.entries
            lhs = X.compose(Y).star()
            rhs = Y.star().compose(X.star())
            if min(lhs.trust, rhs.trust) >= 2:
                assert lhs.agrees(rhs)

    def test_trust_after_creation_and_its_adjoint(self, circle, rng):
        K = 8
        T = FockOperator.creation(circle, CircleFunction.z(), K)
        assert (T.star() @ T).trust == K - 1
        assert (T @ T.star()).trust == K
        # a lowering right factor costs no trust, also below full depth
        X = FockOperator(circle, K, sample_fock(circle, K, rng).entries, trust=5)
        assert (X @ T.star()).trust == 5
        assert (X @ T).trust == 4


def inside(op, window):
    """The entries of ``op`` on levels below ``window``."""
    return {key: a for key, a in op.entries.items() if max(key) < window}


def built_operators(algebra, k, a, c, weights, depth):
    """{label: operator} for each operator and block the Fock suites build at ``depth`` from one input.

    The inputs are the pair (a, c), the period k and k weights: both sides of
    eq-id, each block of both sides of compact-preserve at n = 1, m = k, each
    block pair of fock-blocks, and each block of T(a) T(a)* and T(a)* T(a)
    split at period k.
    """
    ops = {}
    for side, op in zip(("lhs", "rhs"), eq_id_sides(algebra, a, c, depth)):
        ops["eq-id", side] = op
    for side, M in zip(("lhs", "rhs"), compact_preservation_sides(algebra, 1, k, a, c, depth)):
        for i in range(M.size):
            for j in range(M.size):
                ops["compact-preserve", side, i, j] = M.block(i, j)
    for label, pair in weighted_blocks_check(algebra, weights, a, depth):
        for side, op in zip(("actual", "expected"), pair):
            ops["fock-blocks", label, side] = op
    T = FockOperator.creation(algebra, a, depth)
    for name, X in (("T T*", T @ T.star()), ("T* T", T.star() @ T)):
        for key, block in block_decompose(X, k).items():
            ops[name, key] = block
    return ops


class TestTrustOracle:
    """An entry trusted at depth D is the entry of the untruncated operator, so it equals
    the same entry computed at depth 2D; and block_trust counts the trusted quotient levels."""

    @pytest.mark.parametrize("algebra_fixture", ["circle_q", "cyclic3"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_trusted_entries_match_twice_the_depth(self, algebra_fixture, k, request):
        algebra = request.getfixturevalue(algebra_fixture)
        rng = random.Random(f"trust:{algebra_fixture}:{k}")
        compared = 0
        for depth in range(2, 10):
            a, c = algebra.sample(rng), algebra.sample(rng)
            weights = tuple(algebra.sample(rng) for _ in range(k))
            shallow = built_operators(algebra, k, a, c, weights, depth)
            deep = built_operators(algebra, k, a, c, weights, 2 * depth)
            assert shallow.keys() == deep.keys()
            for label, op in shallow.items():
                assert op.trust <= deep[label].trust, label
                assert inside(op, op.trust) == inside(deep[label], op.trust), (depth, label)
                compared += len(inside(op, op.trust))
        assert compared

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_block_trust_counts_the_quotient_levels_inside_the_window(self, k):
        for trust in range(4 * k + 6):
            for r in range(k):
                for c in range(k):
                    want = sum(1 for q in range(trust + 1) if q * k + max(r, c) < trust)
                    assert block_trust(trust, r, c, k) == want, (trust, r, c)

    @pytest.mark.parametrize("trust, clamped", [(9, 4), (-2, 0), (0, 0), (3, 3), (None, 4)])
    def test_trust_is_clamped_to_the_levels(self, cyclic3, trust, clamped):
        assert FockOperator(cyclic3, 4, trust=trust).trust == clamped


def loop_agrees(x, y):
    """The entry-by-entry comparison on the joint trusted window, as an oracle."""
    window = min(x.trust, y.trust)
    for key in set(x.entries) | set(y.entries):
        if max(key) >= window:
            continue
        a, b = x.entries.get(key), y.entries.get(key)
        if a is None:
            if not b.is_zero():
                return False
        elif b is None:
            if not a.is_zero():
                return False
        elif not (a == b):
            return False
    return True


class TestAgrees:
    def test_differences_outside_the_window_are_ignored(self, cyclic3):
        one, a = cyclic3.one(), FiniteCyclicFunction(3, map(Scalar.from_rational, (1, 2, 0)))
        X = FockOperator(cyclic3, 6, {(0, 0): one, (1, 0): a, (4, 4): one}, trust=4)
        Y = FockOperator(cyclic3, 6, {(0, 0): one, (1, 0): a, (4, 4): a, (5, 4): one})
        assert X.agrees(Y) and Y.agrees(X)

    def test_differing_entry_inside_the_window(self, cyclic3):
        one, a = cyclic3.one(), FiniteCyclicFunction(3, map(Scalar.from_rational, (1, 2, 0)))
        X = FockOperator(cyclic3, 6, {(0, 0): one, (1, 0): a}, trust=4)
        Y = FockOperator(cyclic3, 6, {(0, 0): one, (1, 0): one})
        assert not X.agrees(Y) and not Y.agrees(X)

    def test_entry_on_one_side_only_inside_the_window(self, cyclic3):
        one = cyclic3.one()
        X = FockOperator(cyclic3, 6, {(0, 0): one}, trust=4)
        Y = FockOperator(cyclic3, 6, {(0, 0): one, (3, 2): one})
        assert not X.agrees(Y) and not Y.agrees(X)

    def test_matches_loop_on_random_pairs(self, cyclic3, rng):
        outcomes = set()
        for _ in range(300):
            X = sample_fock(cyclic3, 6, rng)
            entries = dict(X.entries)
            for _ in range(rng.randrange(3)):
                key = (rng.randrange(6), rng.randrange(6))
                if rng.random() < 0.5:
                    entries.pop(key, None)
                else:
                    entries[key] = cyclic3.sample(rng)
            X = FockOperator(cyclic3, 6, X.entries, trust=rng.randrange(7))
            Y = FockOperator(cyclic3, 6, entries, trust=rng.randrange(7))
            expected = loop_agrees(X, Y)
            assert X.agrees(Y) == expected == Y.agrees(X)
            outcomes.add(expected)
        assert outcomes == {True, False}


class TestEqId:
    def test_unit_case(self, circle):
        lhs, rhs = eq_id_sides(circle, circle.one(), circle.one(), 6)
        assert lhs.agrees(rhs)

    def test_z_case(self, circle):
        lhs, rhs = eq_id_sides(circle, CircleFunction.z(), circle.one(), 8)
        assert lhs.agrees(rhs)

    def test_random_suite(self, circle, cyclic3):
        for algebra in (circle, cyclic3):
            report = verify_fock_identity(algebra, seed=7, count=50, depth=8)
            assert report.ok

    def test_depth_two_is_the_least_that_sees_the_creation_operator(self):
        # with T(a) replaced by zero, fock-id passed all its cases at depth 1, where T has no entry;
        # so verify exits 2 on a --depth below 2
        def zero(algebra, a, depth, *, step=1):
            return FockOperator(algebra, depth, step=step)

        algebra = FiniteCyclicShift(1)
        with mock.patch.object(FockOperator, "creation", staticmethod(zero)):
            assert verify_fock_identity(algebra, seed=0, count=3, depth=1).ok
            assert not verify_fock_identity(algebra, seed=0, count=3, depth=2).ok

    def test_right_module_linearity(self, circle, rng):
        # T_lam(a c) = T_lam(a) phi(c), exactly on the whole window
        for _ in range(20):
            weights = tuple(circle.sample(rng) for _ in range(rng.randint(1, 3)))
            a, c = circle.sample(rng), circle.sample(rng)
            lhs = FockOperator.weighted(circle, weights, a * c, 8)
            rhs = FockOperator.weighted(circle, weights, a, 8).compose(FockOperator.phi(circle, c, 8))
            assert rhs.trust == 8
            assert lhs.agrees(rhs)


class TestBlocks:
    def test_phi_blocks_diagonal(self, circle, rng):
        X = FockOperator.phi(circle, circle.sample(rng), 8)
        blocks = block_decompose(X, 2)
        assert blocks[(0, 1)].entries == {} and blocks[(1, 0)].entries == {}

    def test_shift_block_pattern(self, circle):
        S = FockOperator.shift(circle, 8)
        blocks = block_decompose(S, 2)
        # levels 2q -> 2q+1 sit in block (1, 0) on the diagonal;
        # levels 2q+1 -> 2q+2 carry into block (0, 1) one quotient up
        assert set(blocks[(1, 0)].entries) == {(q, q) for q in range(4)}
        assert set(blocks[(0, 1)].entries) == {(q + 1, q) for q in range(3)}
        assert blocks[(0, 0)].entries == {} and blocks[(1, 1)].entries == {}

    def test_zero_blocks(self, circle):
        blocks = block_decompose(FockOperator(circle, 6), 3)
        assert all(b.entries == {} for b in blocks.values())

    def test_reassembly_inverse(self, circle, rng):
        for _ in range(20):
            X = sample_fock(circle, 9, rng)
            blocks = block_decompose(X, 3)
            Y = block_reassemble(blocks, 3, 9, step=1, trust=X.trust)
            assert Y.entries == X.entries and Y.trust == X.trust

    def test_period_one_block_is_creation(self, circle):
        results = weighted_blocks_check(circle, (circle.one(),), circle.one(), 4)
        assert [label for label, _ in results] == ["block(0,0)"]
        assert all(actual.agrees(expected) for _, (actual, expected) in results)

    @pytest.mark.parametrize("period", [1, 2, 3])
    def test_block_equations_random(self, period, circle, cyclic3):
        for algebra in (circle, cyclic3):
            report = verify_weighted_blocks(algebra, period, seed=8, count=8)
            assert report.ok, report.failures[:1]

    def test_indicator_weights_extract_single_blocks(self, circle, rng):
        # a weight sequence supported on one residue leaves exactly one block:
        # the subdiagonal left-action block, or the creation corner
        k, K = 3, 12
        b = circle.sample(rng)
        for j in range(k):
            weights = [circle.one() if i == j else circle.zero() for i in range(k)]
            blocks = block_decompose(FockOperator.weighted(circle, tuple(weights), b, K), k)
            nonzero = {key for key, op in blocks.items() if op.entries}
            if j < k - 1:
                assert nonzero == {(j + 1, j)}
                expected = FockOperator.phi(circle, circle.alpha_power(b, j), 4, step=k)
            else:
                assert nonzero == {(0, k - 1)}
                expected = FockOperator.creation(circle, circle.alpha_power(b, k - 1), 4, step=k)
            assert blocks[nonzero.pop()].agrees(expected)

    def test_pattern_product_reaches_corner(self, circle, rng):
        # the chain T(b) e_{0,k-1} * phi(a_{k-1}) e_{k-1,k-2} * ... * phi(a_1) e_{1,0}
        # collapses to T(b) phi(a_{k-1} ... a_1) e_{0,0} = T(b a_{k-1} ... a_1) e_{0,0}
        k, K = 3, 9
        b = circle.sample(rng)
        a = [circle.sample(rng) for _ in range(k - 1)]
        chain = BlockMatrix(circle, k, K, {(0, k - 1): FockOperator.creation(circle, b, K, step=k)}, step=k)
        for j in range(k - 2, -1, -1):
            factor = BlockMatrix(circle, k, K,
                                 {(j + 1, j): FockOperator.phi(circle, a[j], K, step=k)}, step=k)
            chain = chain * factor
        product = a[-1]
        for x in reversed(a[:-1]):
            product = product * x
        expected = BlockMatrix(circle, k, K,
                               {(0, 0): FockOperator.creation(circle, b * product, K, step=k)}, step=k)
        assert chain.agrees(expected)


class TestThetaMap:
    def test_unit_is_block_identity(self, circle):
        out = theta_block_map(circle, 1, 2, "phi", circle.one(), 6)
        assert set(out.entries) == {(0, 0), (1, 1)}
        for op in out.entries.values():
            assert op.agrees(FockOperator.identity(circle, 6, step=2))

    def test_creation_image_example(self, circle):
        # n=1, m=2, b=z: T^(2)(t^-1 z) e_{0,1} + phi^(2)(z) e_{1,0}
        out = theta_block_map(circle, 1, 2, "creation", CircleFunction.z(), 6)
        assert set(out.entries) == {(0, 1), (1, 0)}
        tz = CircleFunction.z(1, Scalar.t_power(-1))
        assert out.entries[(0, 1)].agrees(FockOperator.creation(circle, tz, 6, step=2))
        assert out.entries[(1, 0)].agrees(FockOperator.phi(circle, CircleFunction.z(), 6, step=2))

    def test_equal_sizes_identity(self, circle, rng):
        a = circle.sample(rng)
        out = theta_block_map(circle, 2, 2, "phi", a, 6)
        assert set(out.entries) == {(0, 0)}
        assert out.entries[(0, 0)].agrees(FockOperator.phi(circle, a, 6, step=2))


class TestCompactPreservation:
    def test_unit_case(self, circle):
        lhs, rhs = compact_preservation_sides(circle, 1, 2, circle.one(), circle.one(), 8)
        assert lhs.agrees(rhs)

    def test_z_z2_case(self, circle):
        lhs, rhs = compact_preservation_sides(circle, 1, 2, CircleFunction.z(), CircleFunction.z(2), 8)
        assert lhs.agrees(rhs)

    @pytest.mark.parametrize("n,m", [(1, 2), (2, 4)])
    def test_random_suite(self, n, m, circle):
        report = verify_compact_preservation(circle, n, m, seed=9, count=15)
        assert report.ok


@pytest.mark.parametrize("n,m", [(1, 2), (2, 4), (2, 6)])
def test_shuffle_conjugation_matches_block_images(n, m, circle):
    report = verify_shuffle(circle, n, m, seed=10)
    assert report.ok, report.failures[:1]


def test_block_matrix_mismatch(circle):
    A = BlockMatrix(circle, 2, 6, {}, step=2)
    B = BlockMatrix(circle, 2, 6, {}, step=1)
    with pytest.raises(Exception):
        A + B


def test_fock_json(circle, rng):
    X = sample_fock(circle, 5, rng)
    data = X.to_json()
    assert data["depth"] == 5 and data["trust"] == X.trust
    assert set(data["entries"]) == {f"{i},{j}" for (i, j) in X.entries}
