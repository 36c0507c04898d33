"""Report.compare, and the sides every suite's failures carry.

Each suite is run once with one of its maps broken, so that cases fail; every
failure must then carry both sides, not only its label, and ``bdlab verify``
must exit 1 under the same defect.  The suites are also run with the base of
``sparse``, each of its two product cores, the odometer's promotion, circle
alpha's half-turn sign and the scalar kernel broken, which some of them must
notice.  ``canonical_json`` is checked against ``json.dumps``, its oracle.
"""

import json
import operator
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

import bdlab
from bdlab import cantor, cli, coeff, fock, limits, scalar, sparse
from bdlab.coeff import Angle, CircleRotation, FiniteCyclicShift
from bdlab.crossed import MatrixElement, sample_matrix
from bdlab.report import Report, canonical_json


class TestCompare:
    def test_records_every_case_with_both_sides_of_a_failure(self):
        report = Report("squares")
        report.compare([(0, 2), ("three", 3)], lambda x: (x * x, x + x))
        assert report.cases == 2
        assert [f.to_json() for f in report.failures] == [{"case": "three", "lhs": 9, "rhs": 6}]

    def test_list_sides_are_json_arrays(self):
        # with the odometer step patched to the identity, verify flip fails with digit tuples on both sides
        with mock.patch.object(cantor, "odometer_step", lambda radii, digits, direction=1: tuple(digits)):
            report = cantor.verify_flip_conjugacy(cantor.StageSequence((1, 2, 6, 12)))
        assert report.failures
        for f in report.failures:
            for side in (f.lhs, f.rhs):
                assert type(side) is list and all(type(digits) is list for digits in side)
        assert json.loads(canonical_json(report.to_json())) == report.to_json()

    def test_same_replaces_equality(self):
        report = Report("parity")
        report.compare(((i, i) for i in range(4)), lambda x: (x, x + 2), lambda a, b: a % 2 == b % 2)
        assert report.ok and report.cases == 4


def stdlib_json(obj):
    """The oracle of canonical_json: its text, or the class and message of the error it raised."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    except TypeError as exc:
        return TypeError, str(exc)


def written_json(obj):
    try:
        return canonical_json(obj)
    except TypeError as exc:
        return TypeError, str(exc)


_strings = st.one_of(st.text(max_size=6), st.sampled_from(['"', "\\", "\n", "\x00\x1f\x7f", "é", "\u2028", "😀"]))
_leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.sampled_from([10**40, -(10**40)]), _strings)
# ints sort among themselves; a str key beside an int makes both writers raise
_int_keys = st.one_of(st.integers(-3, 3), st.sampled_from([10**40, -(10**40)]))
_json_trees = st.recursive(_leaves, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    *(st.dictionaries(keys, kids, max_size=4) for keys in (_strings, _int_keys, st.one_of(_strings, _int_keys)))),
    max_leaves=25)


class TestCanonicalJson:
    @given(_json_trees)
    @example({"b": [], "a": {}, "c": ()})
    @example({1: "int", "1": "str"})  # sorting int keys beside str keys raises the stdlib's TypeError
    def test_matches_the_stdlib(self, tree):
        assert written_json(tree) == stdlib_json(tree)

    @pytest.mark.parametrize("obj", [0.5, [1, {"a": float("inf")}], -0.0])
    def test_float_raises_type_error(self, obj):
        # no to_json writes a float, so the writer has no float form
        assert written_json(obj) == (TypeError, "Object of type float is not JSON serializable")

    @pytest.mark.parametrize("obj", [object(), {"a": [1, {2}]}])
    def test_object_without_json_form_raises_the_stdlib_type_error(self, obj):
        assert written_json(obj) == stdlib_json(obj) and stdlib_json(obj)[0] is TypeError

    @pytest.mark.parametrize("key", [(1, 2), 0.5, True, None])
    def test_key_other_than_str_or_int_raises_type_error(self, key):
        # no to_json builds such keys, so the writer does not spell them
        assert written_json({key: 1}) == (TypeError, f"keys must be str or int, not {type(key).__name__}")

    def test_is_the_only_writer(self):
        # every output goes through canonical_json, so no second writer may come back
        src = Path(bdlab.__file__).parent
        assert [path.name for path in sorted(src.rglob("*.py")) if "json.dumps" in path.read_text()] == []


class TestCompareHomomorphism:
    def _run(self, f, count=3):
        algebra = FiniteCyclicShift(3)
        report = Report("hom")
        report.compare_homomorphism(f, MatrixElement.identity(algebra, 1, 2), MatrixElement.identity(algebra, 1, 2),
                                    lambda rng: sample_matrix(algebra, 1, 2, rng), 5, count)
        return report

    def test_identity_passes_every_case(self):
        report = self._run(lambda X: X)
        assert report.ok and report.cases == 1 + 2 * 3

    def test_adjoint_fails_only_products(self):
        # X -> X* reverses products and commutes with the adjoint
        report = self._run(MatrixElement.star)
        assert report.failures and all(f.case.endswith(":mul") for f in report.failures)


def _doubled(module, name):
    """Patch module.name so that it returns y + y for its true value y."""
    real = getattr(module, name)

    def broken(*args):
        y = real(*args)
        return y + y

    return mock.patch.object(module, name, broken)


def _unit_added_to_gamma():
    """Patch gamma_{n,m} on size-n input so that it adds the unit of the size-m stage."""
    real = limits.gamma
    return mock.patch.object(limits, "gamma", lambda n, m, X: real(n, m, X) + MatrixElement.identity(X.algebra, m, m))


def _transposed(module, name):
    """Patch module.name, which returns a dict keyed by (row, column), to swap row and column."""
    real = getattr(module, name)
    return mock.patch.object(module, name, lambda *args: {(j, i): v for (i, j), v in real(*args).items()})


CIRCLE = CircleRotation(Angle.parse("theta+1/4"))
CYCLIC = FiniteCyclicShift(3)
ODOMETER = cantor.OdometerAlgebra(cantor.StageSequence((1, 2, 6)), CIRCLE)

# suite -> (the map it breaks, a run of the suite)
BROKEN = {
    "gamma-hom": (lambda: _doubled(limits, "gamma"),
                  lambda: limits.verify_gamma_homomorphism(CIRCLE, 1, 2, 5, 2)),
    "gamma-comp": (lambda: _doubled(limits, "gamma"),
                   lambda: limits.verify_gamma_composition(CIRCLE, 1, 2, 2, 5, 2)),
    "trace-compat": (_unit_added_to_gamma,
                     lambda: limits.verify_trace_compatibility(CIRCLE, 1, 2, 5, 2)),
    "amplification": (lambda: mock.patch.object(limits, "amplification_shuffle", lambda p, X: X),
                      lambda: limits.verify_amplification_intertwining(Angle.parse("theta"), 2, 1, 2, 5, 2)),
    "rho-hom": (lambda: _doubled(cantor, "rho"),
                lambda: cantor.verify_rho_homomorphism(ODOMETER, 2, 5, 2)),
    "rg": (lambda: _doubled(cantor, "gamma"),
           lambda: cantor.verify_rg(ODOMETER, 1, 5, 2)),
    "flip": (lambda: mock.patch.object(cantor, "flip_digits", lambda radii, digits: digits),
             lambda: cantor.verify_flip_conjugacy(ODOMETER.stages)),
    "psi-flip": (lambda: mock.patch.object(cantor.OdometerElement, "shifted", lambda self, d: self),
                 lambda: cantor.verify_psi_flip(ODOMETER, 2, 5, 2)),
    "gk-generation": (lambda: _doubled(cantor.OdometerAlgebra, "indicator"),
                      lambda: cantor.verify_gk_generation(ODOMETER)),
    "fock-id": (lambda: _doubled(fock, "compact_remainder"),
                lambda: fock.verify_fock_identity(CYCLIC, 5, 2, 6)),
    "fock-blocks": (lambda: _transposed(fock, "block_decompose"),
                    lambda: fock.verify_weighted_blocks(CYCLIC, 2, 5, 2)),
    "compact-preserve": (lambda: _doubled(fock, "compact_remainder"),
                         lambda: fock.verify_compact_preservation(CYCLIC, 1, 2, 5, 2, 6)),
    "shuffle": (lambda: mock.patch.object(fock, "shuffle_conjugate", lambda M, n: M),
                lambda: fock.verify_shuffle(CYCLIC, 2, 4, 5, 6)),
}


_CIRCLE_RUN = ["--angle", "theta+1/4", "--seed", "5", "--count", "2"]
_CYCLIC_RUN = ["--algebra", "cyclic", "--modulus", "3", "--seed", "5"]

# suite -> (verify options equal to those of its BROKEN run, the case prefixes verify gives its runs);
# verify runs every stage pair of --sizes, or every stage, where the library run takes one
BROKEN_CLI = {
    "gamma-hom": ([*_CIRCLE_RUN, "--sizes", "1,2"], {"1->2"}),
    "gamma-comp": ([*_CIRCLE_RUN, "--sizes", "1,2,4"], {"(1,2,2)"}),
    "trace-compat": ([*_CIRCLE_RUN, "--sizes", "1,2"], {"1->2"}),
    "amplification": (["--angle", "theta", "--p", "2", "--seed", "5", "--count", "2", "--sizes", "1,2"], {"1->2"}),
    "rho-hom": ([*_CIRCLE_RUN, "--sizes", "1,2,6"], {"stage1", "stage2", "stage3"}),
    "rg": ([*_CIRCLE_RUN, "--sizes", "1,2,6"], {"stage1", "stage2"}),
    "flip": (["--sizes", "1,2,6"], {"flip"}),
    "psi-flip": ([*_CIRCLE_RUN, "--sizes", "1,2,6"], {"psi"}),
    "gk-generation": (["--angle", "theta+1/4", "--sizes", "1,2,6"], {"gk"}),
    "fock-id": ([*_CYCLIC_RUN, "--count", "2", "--depth", "6"], {"id"}),
    "fock-blocks": ([*_CYCLIC_RUN, "--count", "2", "--periods", "2"], {"k=2"}),
    "compact-preserve": ([*_CYCLIC_RUN, "--count", "2", "--depth", "6", "--sizes", "1,2"], {"1->2"}),
    "shuffle": ([*_CYCLIC_RUN, "--depth", "6", "--sizes", "1,2,4"], {"1->2", "2->4"}),
}


def test_every_suite_has_a_planted_defect():
    assert set(BROKEN) == set(BROKEN_CLI) == set(cli.SUITES)


@pytest.mark.parametrize("suite", sorted(BROKEN))
def test_verify_exits_one_under_each_planted_defect(suite, capsys):
    breaking, _ = BROKEN[suite]
    options, prefixes = BROKEN_CLI[suite]
    assert cli.main(["verify", suite, *options]) == 0
    capsys.readouterr()
    with breaking():
        code = cli.main(["verify", suite, *options])
    out, err = capsys.readouterr()
    failures = json.loads(out)["failures"]
    assert code == 1 and failures
    assert {f["case"].split(":", 1)[0] for f in failures} <= prefixes
    assert err.startswith(f"suite {suite}: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("suite", sorted(BROKEN))
def test_every_failure_carries_both_sides(suite):
    breaking, run = BROKEN[suite]
    with breaking():
        report = run()
    assert report.suite == suite and report.failures
    assert all(f.lhs is not None and f.rhs is not None for f in report.failures)


_real_product = sparse.SquareMatrix._product
_real_turn = CircleRotation._turn
_real_difference = scalar.Scalar.__sub__


def _unsigned_turn(self, e):
    """CircleRotation._turn with the sign of a half turn dropped: alpha puts t^shift where -t^shift belongs."""
    turn = _real_turn(self, e)
    return turn and (1,) + turn[1:]


def _untwisted_product(self, other):
    """SparseSum._product with the twist left out: (a x^l)(b x^r) = ab x^(l+r)."""
    self, other = self._operands(other)
    out = {}
    for l, a in self.entries.items():
        for r, b in other.entries.items():
            out[l + r] = out[l + r] + a * b if l + r in out else a * b
    return self._pruned(out)


# class patched -> mutant -> (the method it replaces, the replacement, suites that must fail).
# A mutant of a method the class inherits shadows it on that class alone, so the
# base's + and - are broken for matrices only, or for Laurent sums only.  A sum or a
# negation the suites no longer reach, since - merges key by key, is broken in
# tests/test_sparse.py::UNREACHED_MUTANTS instead.
CORE_MUTANTS = {
    sparse.Sparse: {
        "sum as its left operand": ("__add__", lambda self, other: self, {"gk-generation"}),
        "sum and product keep zero entries": ("_pruned", lambda self, entries: self._like(entries),
                                              {"fock-id", "compact-preserve"}),
        "difference as its left operand": ("__sub__", lambda self, other: self, {"fock-id", "compact-preserve"}),
        "difference as the sum": ("__sub__", lambda self, other: self + other, {"fock-id", "compact-preserve"}),
    },
    sparse.SquareMatrix: {
        "star without the transpose": (
            "star", lambda self: self._like({key: x.star() for key, x in self.entries.items()}),
            {"gamma-hom", "rho-hom", "fock-id", "compact-preserve"}),
        "product with swapped operands": (
            "_product", lambda self, other, mul=operator.mul: _real_product(other, self, mul),
            {"rho-hom", "fock-id", "compact-preserve"}),
        "difference as its left operand": ("__sub__", lambda self, other: self, {"fock-id", "compact-preserve"}),
        "difference as the sum": ("__sub__", lambda self, other: self + other, {"fock-id", "compact-preserve"}),
    },
    sparse.SparseSum: {
        "star without the twist": (
            "star", lambda self: self._like({-l: a.star() for l, a in self.entries.items()}), {"rho-hom"}),
        "product without the twist": ("_product", _untwisted_product, {"gamma-hom", "rho-hom"}),
        "difference as its left operand": ("__sub__", lambda self, other: self, {"fock-id", "compact-preserve"}),
        "difference as the sum": ("__sub__", lambda self, other: self + other, {"fock-id", "compact-preserve"}),
    },
    cantor.OdometerElement: {
        "odometer operands not promoted": ("_operands", lambda self, other: (self, other), {"rg"}),
    },
    CircleRotation: {
        # alpha at a half turn, e(-e*q) = -1, left as t^(-e*r)
        "rotation without the half-turn sign": ("_turn", _unsigned_turn, {"gamma-hom", "gamma-comp", "rho-hom"}),
    },
    scalar.Scalar: {
        # e(-a/N) left off the basis when 4 | N: e(1/4)* is then stored as e(3/4), not -e(1/4)
        "star without the 2-part sign flip": (
            "star", lambda self: scalar.Scalar._of({-theta: (n, d, {-a % n: c for a, c in nums.items()})
                                                    for theta, (n, d, nums) in self._groups.items()}),
            {"rho-hom"}),
        # x - x left as x: the Fock identities cancel equal entries
        "equal values not cancelled": (
            "__sub__", lambda self, other: self if self == other else _real_difference(self, other),
            {"fock-id", "compact-preserve"}),
    },
}


def _failing_suites(runs: dict | None = None) -> set:
    """The suites whose run fails; ``runs`` replaces the runs of BROKEN for the suites it names."""
    runs = runs or {}
    return {suite for suite, (_, run) in BROKEN.items() if not runs.get(suite, run)().ok}


def _assert_noticed(core, mutant):
    # CIRCLE memoizes its alpha phases and turns: none stored before or under a mutant is kept
    name, broken, catching = CORE_MUTANTS[core][mutant]
    _clear_circle_memos()
    try:
        with mock.patch.object(core, name, broken):
            assert catching <= _failing_suites()
    finally:
        _clear_circle_memos()


@pytest.mark.parametrize("mutant", sorted(CORE_MUTANTS[sparse.Sparse]))
def test_suites_notice_a_broken_base(mutant):
    _assert_noticed(sparse.Sparse, mutant)


@pytest.mark.parametrize("mutant", sorted(CORE_MUTANTS[sparse.SquareMatrix]))
def test_suites_notice_a_broken_matrix_core(mutant):
    _assert_noticed(sparse.SquareMatrix, mutant)


@pytest.mark.parametrize("mutant", sorted(CORE_MUTANTS[sparse.SparseSum]))
def test_suites_notice_a_broken_sum_core(mutant):
    _assert_noticed(sparse.SparseSum, mutant)


@pytest.mark.parametrize("mutant", sorted(CORE_MUTANTS[cantor.OdometerElement]))
def test_suites_notice_unpromoted_odometer_operands(mutant):
    _assert_noticed(cantor.OdometerElement, mutant)


@pytest.mark.parametrize("mutant", sorted(CORE_MUTANTS[CircleRotation]))
def test_suites_notice_a_broken_rotation(mutant):
    _assert_noticed(CircleRotation, mutant)


@pytest.mark.parametrize("mutant", sorted(CORE_MUTANTS[scalar.Scalar]))
def test_suites_notice_a_broken_scalar_kernel(mutant):
    _assert_noticed(scalar.Scalar, mutant)


def test_no_suite_fails_under_the_real_matrix_core():
    # nor under the real base, sum core or odometer promotion: all are in place here
    assert _failing_suites() == set()


def _clear_circle_memos():
    for memo in (CIRCLE._phases, CIRCLE._turns, CIRCLE._tags):
        memo.clear()


def test_suites_notice_a_reduction_without_the_conductor_shrink():
    # Equal values then keep the forms of the conductors they arrived at, which == tells
    # apart.  CIRCLE (which ODOMETER shares) memoizes its alpha phases, so the phases the
    # mutant stores are dropped after it, and the ones the real kernel stored before it.
    # The sampler's unit table is built at import, where a defect in the kernel would be
    # too, so it is rebuilt under the mutant.  alpha negates at a half turn without a
    # product, so gamma-hom's row run no longer meets an unshrunk form; the run at seed 3
    # does, through products of its +-i phases.
    def gamma_hom():
        return limits.verify_gamma_homomorphism(CIRCLE, 1, 2, 3, 5)

    _clear_circle_memos()
    try:
        with mock.patch.object(scalar, "_shrink", lambda n, nums: (n, nums)):
            with mock.patch.object(coeff, "_UNITS", tuple(map(scalar.Scalar.root_of_unity, coeff._ROOT_CHOICES))):
                assert {"gamma-hom", "rho-hom", "rg"} <= _failing_suites({"gamma-hom": gamma_hom})
    finally:
        _clear_circle_memos()
    assert gamma_hom().ok
