"""The base of ``sparse`` and its two product cores, through the classes built on them.

Every element type shares the construction, ``+``, ``-``, ``==``, the space
check and the zero rule of ``Sparse``.  ``MatrixElement`` and
``FockOperator`` add the checked construction, star and product of
``SquareMatrix``, and ``fock.block_assemble`` builds Fock operators from
blocks; ``CircleFunction``, ``FiniteCyclicFunction`` and
``CrossedElement`` the twisted product and star of ``SparseSum``; the
odometer's ``OdometerElement`` its own product.  These tests pin the rules
the base and the cores enforce for each of them.
"""

import importlib
import operator
import random
import re
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from bdlab import sparse
from bdlab.cantor import OdometerAlgebra, OdometerElement, StageSequence
from bdlab.coeff import Angle, CircleFunction, CircleRotation, FiniteCyclicFunction, FiniteCyclicShift
from bdlab.crossed import CrossedElement, MatrixElement, sample_matrix
from bdlab.errors import BudgetError, MismatchError
from bdlab.fock import FockOperator, block_assemble
from bdlab.limits import amplification_shuffle, gamma
from bdlab.scalar import Scalar
from bdlab.sparse import DEGREE_CAP, add_entries

OPERATIONS = {"+": operator.add, "-": operator.sub, "product": operator.mul}


def _matrix_pair(circle, cyclic3, field):
    X = MatrixElement.identity(circle, 2, 2)
    other = {"algebra": MatrixElement.identity(cyclic3, 2, 2),
             "power": MatrixElement.identity(circle, 3, 2),
             "size": MatrixElement.identity(circle, 2, 3)}[field]
    return X, other


def _fock_pair(circle, cyclic3, field):
    X = FockOperator.identity(circle, 4)
    other = {"algebra": FockOperator.identity(cyclic3, 4),
             "step": FockOperator.identity(circle, 4, step=2),
             "depth": FockOperator.identity(circle, 5)}[field]
    return X, other


def _crossed_pair(circle, cyclic3, field):
    X = CrossedElement.unit(circle, 2)
    other = {"algebra": CrossedElement.unit(cyclic3, 2), "power": CrossedElement.unit(circle, 3)}[field]
    return X, other


def _cyclic_pair(circle, cyclic3, field):
    return cyclic3.one(), {"modulus": FiniteCyclicShift(2).one()}[field]


def _block_pair(circle, cyclic3, field):
    # blocks of one depth and step, assembled at block sizes 2 and 3: on 8 and 12 levels
    one = FockOperator.identity(circle, 4, step=6)
    X = block_assemble(circle, 2, 4, {(0, 0): one, (1, 1): one}, 6)
    other = {"block size": block_assemble(circle, 3, 4, {(0, 0): one}, 6)}[field]
    return X, other


class TestSpaceMismatch:
    @pytest.mark.parametrize("pair,field", [
        (_matrix_pair, "algebra"), (_matrix_pair, "power"), (_matrix_pair, "size"),
        (_fock_pair, "algebra"), (_fock_pair, "step"), (_fock_pair, "depth"),
        (_block_pair, "block size"),
        (_crossed_pair, "algebra"), (_crossed_pair, "power"), (_cyclic_pair, "modulus"),
    ])
    @pytest.mark.parametrize("operation", sorted(OPERATIONS))
    def test_operands_on_different_spaces(self, circle, cyclic3, pair, field, operation):
        X, Y = pair(circle, cyclic3, field)
        op = OPERATIONS[operation]
        if isinstance(X, FockOperator) and operation == "product":
            op = operator.matmul
        with pytest.raises(MismatchError):
            op(X, Y)
        with pytest.raises(MismatchError):
            op(Y, X)

    @pytest.mark.parametrize("pair,field", [
        (_matrix_pair, "size"), (_fock_pair, "step"), (_fock_pair, "depth"), (_block_pair, "block size"),
        (_crossed_pair, "algebra"), (_crossed_pair, "power"), (_cyclic_pair, "modulus"),
    ])
    def test_comparison_on_different_spaces(self, circle, cyclic3, pair, field):
        X, Y = pair(circle, cyclic3, field)
        with pytest.raises(MismatchError):
            X.agrees(Y) if isinstance(X, FockOperator) else X == Y


def _elements(circle, cyclic3):
    """One element of every type built on ``Sparse``, each with a nonzero entry."""
    odometer = OdometerAlgebra(StageSequence((1, 2)), circle)
    return [CircleFunction.z(1, Scalar.one()), FiniteCyclicFunction(3, (Scalar.one(), Scalar.zero(), Scalar.one())),
            CrossedElement.u_power(circle, 2), MatrixElement.identity(circle, 2, 2),
            FockOperator.shift(cyclic3, 4), odometer.u_power(1, 2)]


class TestConstruction:
    @pytest.mark.parametrize("key", [(2, 0), (0, 2), (-1, 0), (0, -1)])
    def test_entry_outside_the_square(self, circle, key):
        with pytest.raises(MismatchError):
            MatrixElement(circle, 1, 2, {key: CrossedElement.unit(circle, 1)})
        with pytest.raises(MismatchError):
            FockOperator(circle, 2, {key: circle.one()})
        with pytest.raises(MismatchError):
            block_assemble(circle, 2, 3, {key: FockOperator.identity(circle, 3, step=2)}, 2)

    @pytest.mark.parametrize("entry", [
        lambda circle, cyclic3: CrossedElement.unit(cyclic3, 2),
        lambda circle, cyclic3: CrossedElement.unit(circle, 1),
        lambda circle, cyclic3: CrossedElement(circle, 1),
    ], ids=("algebra", "power", "zero of another power"))
    def test_entry_from_another_stage_algebra(self, circle, cyclic3, entry):
        with pytest.raises(MismatchError):
            MatrixElement(circle, 2, 2, {(0, 1): entry(circle, cyclic3)})

    @pytest.mark.parametrize("block", [
        lambda circle, cyclic3: FockOperator.identity(cyclic3, 3, step=2),
        lambda circle, cyclic3: FockOperator.identity(circle, 4, step=2),
        lambda circle, cyclic3: FockOperator.identity(circle, 3, step=4),
    ], ids=("algebra", "depth", "step"))
    def test_block_on_another_truncated_space(self, circle, cyclic3, block):
        with pytest.raises(MismatchError):
            block_assemble(circle, 2, 3, {(1, 0): block(circle, cyclic3)}, 2)

    def test_zero_entries_are_dropped(self, circle, cyclic3):
        X = MatrixElement(circle, 1, 2, {(0, 0): CrossedElement(circle, 1), (1, 0): CrossedElement.unit(circle, 1)})
        assert set(X.entries) == {(1, 0)}
        assert set((X - X).entries) == set() and (X - X).is_zero()
        # sums and products drop what cancels, for every type built on Sparse
        for x in _elements(circle, cyclic3):
            assert (x - x).entries == {} and _cancellation_holds(x)
        f = FiniteCyclicFunction(3, (Scalar.one(), Scalar.zero(), Scalar.zero()))
        assert (f * f.shifted(1)).entries == {}
        E01 = MatrixElement.single(circle, 1, 2, 0, 1)
        assert (E01 * E01).entries == {}


def _cancellation_holds(x) -> bool:
    """x + (-x) is zero and (x + x) - x is x."""
    return (x + (-x)).entries == {} and (x + x) - x == x


# Defects that no suite of ``verify`` reaches: its Fock suites reach the base only
# through ``-``, which merges key by key with neither a sum nor a negation.  The
# identities of ``_cancellation_holds`` must then notice each of them on every type
# built on the class patched.  (class patched, mutant) -> (method it replaces, replacement)
UNREACHED_MUTANTS = {
    (sparse.Sparse, "negation as the identity"): ("__neg__", lambda self: self),
    (sparse.SquareMatrix, "negation as the identity"): ("__neg__", lambda self: self),
    (sparse.SquareMatrix, "sum as its left operand"): ("__add__", lambda self, other: self),
    (sparse.SparseSum, "negation as the identity"): ("__neg__", lambda self: self),
    (sparse.SparseSum, "sum as its left operand"): ("__add__", lambda self, other: self),
}


@pytest.mark.parametrize("core,mutant", UNREACHED_MUTANTS, ids=[f"{core.__name__}-{mutant}"
                                                                 for core, mutant in UNREACHED_MUTANTS])
def test_cancellation_notices_a_broken_sum_or_negation(circle, cyclic3, core, mutant):
    elements = [x for x in _elements(circle, cyclic3) if isinstance(x, core)]
    name, broken = UNREACHED_MUTANTS[core, mutant]
    with mock.patch.object(core, name, broken):
        assert elements and not any(_cancellation_holds(x) for x in elements)


CIRCLE, CYCLIC = CircleRotation(Angle.parse("theta+1/4")), FiniteCyclicShift(3)
ODOMETER = OdometerAlgebra(StageSequence((1, 2, 6)), CIRCLE)
# few entry values, so that drawn entries are often equal and cancel
_scalars = st.sampled_from([Scalar.one(), Scalar.from_rational(-2), Scalar.root_of_unity(Fraction(1, 3)),
                            Scalar.term(Fraction(1, 2), Fraction(1, 4), 1)])


def _dicts(keys, values):
    return st.dictionaries(keys, values, max_size=3)


def _square(size):
    return st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))


def _cyclic(entries):
    return FiniteCyclicFunction(3, (entries.get(i, Scalar.zero()) for i in range(3)))


_circle_functions = _dicts(st.integers(-1, 1), _scalars).map(CircleFunction)
_cyclic_functions = _dicts(st.integers(0, 2), _scalars).map(_cyclic)
_crossed = _dicts(st.integers(-1, 1), _circle_functions).map(lambda e: CrossedElement(CIRCLE, 2, e))
_fock = st.builds(lambda e, trust: FockOperator(CYCLIC, 3, e, step=2, trust=trust),
                  _dicts(_square(3), _cyclic_functions), st.integers(0, 3))

# type -> (a strategy of builders from an entry dict, keys, entries); an operand's own
# fields (a Fock operator's trust, an odometer element's depth) are drawn with its builder
OPERANDS = {
    "CircleFunction": (st.just(CircleFunction), st.integers(-2, 2), _scalars),
    "FiniteCyclicFunction": (st.just(_cyclic), st.integers(0, 2), _scalars),
    "CrossedElement": (st.just(lambda e: CrossedElement(CIRCLE, 2, e)), st.integers(-2, 2), _circle_functions),
    "MatrixElement": (st.just(lambda e: MatrixElement(CIRCLE, 2, 2, e)), _square(2), _crossed),
    "FockOperator": (st.integers(0, 3).map(lambda trust: lambda e: FockOperator(CYCLIC, 3, e, trust=trust)),
                     _square(3), _cyclic_functions),
    # a Fock operator assembled from 2 x 2 blocks, which cancel in x - y where y takes x's
    "block_assemble": (st.just(lambda e: block_assemble(CYCLIC, 2, 3, e, 2)), _square(2), _fock),
    # a key's cylinder is taken mod the size of the operand's depth, so that depths mix
    "OdometerElement": (st.integers(1, 3).map(lambda depth: lambda e: OdometerElement(
        ODOMETER, {(d, j % ODOMETER.stages.size(depth)): a for (d, j), a in e.items()}, depth)),
                        st.tuples(st.integers(-1, 1), st.integers(0, 5)), _circle_functions),
}


@st.composite
def _operand_pairs(draw, builders, keys, values):
    """x and y on one space: y draws entries under some of x's keys and takes others of x's entries
    as they are, which cancel in x - y; its other keys either meet an entry of x or stand alone."""
    x, y = draw(_dicts(keys, values)), draw(_dicts(keys, values))
    if x:
        shared = st.sets(st.sampled_from(sorted(x)))
        y.update({key: draw(values) for key in draw(shared)})
        y.update({key: x[key] for key in draw(shared)})
    return draw(builders)(x), draw(builders)(y)


def _negated_and_added(x, y):
    """x - y by the route it took before ``sub_entries``: y negated entry by entry, then added to x."""
    a, b = x._operands(y)
    out = a._pruned(add_entries(a.entries, {key: -v for key, v in b.entries.items()}))
    if isinstance(out, FockOperator):
        out.trust = min(a.trust, b.trust)
    return out


class TestDifference:
    @pytest.mark.parametrize("kind", OPERANDS)
    @given(data=st.data())
    def test_matches_negation_and_sum(self, kind, data):
        x, y = data.draw(_operand_pairs(*OPERANDS[kind]))
        for a, b in ((x, y), (x, x)):
            got, want = a - b, _negated_and_added(a, b)
            assert type(got) is type(want) and got == want and got.to_json() == want.to_json()
        assert (x - x).entries == {}


class TestSparseSum:
    @pytest.mark.parametrize("symbol", ["z", "u"])
    def test_product_past_the_degree_cap_names_its_symbol(self, circle, symbol):
        def power(l):
            if symbol == "z":
                return CircleFunction.z(l)
            return CrossedElement.u_power(circle, 1, l)

        assert (power(DEGREE_CAP) * power(0)).entries.keys() == {DEGREE_CAP}
        with pytest.raises(BudgetError, match=f"^{symbol}-degree {DEGREE_CAP + 1} exceeds cap"):
            power(DEGREE_CAP) * power(1)
        with pytest.raises(BudgetError, match=f"^{symbol}-degree {-DEGREE_CAP - 1} exceeds cap"):
            power(-1) * power(-DEGREE_CAP)

    def test_cyclic_function_stores_no_zero_value(self, cyclic3):
        zero, one = Scalar.zero(), Scalar.one()
        f = FiniteCyclicFunction(3, (zero, zero, zero))
        assert f.entries == {} and f.is_zero() and f == cyclic3.zero()
        assert f.to_json() == {"d": 3, "values": [[], [], []]}
        g = FiniteCyclicFunction(3, (zero, one, zero))
        assert g.entries.keys() == {1} and (g - g).entries == {} and (g * f).entries == {}
        assert g.to_json() == {"d": 3, "values": [[], one.to_json(), []]}
        assert g.shifted(2).entries.keys() == {0}

    def test_coeffs_is_a_read_only_view_of_the_entries(self, circle):
        x = CrossedElement(circle, 2, {1: circle.one(), 3: circle.zero()})
        assert dict(x.coeffs) == x.entries == {1: circle.one()}
        with pytest.raises(TypeError):
            x.coeffs[2] = circle.one()
        with pytest.raises(AttributeError):
            x.coeffs = {}

    def test_sums_over_a_cyclic_function_agree_in_any_order(self):
        # alpha rotates the insertion order of the stored dict; a Scalar has one stored
        # form per value, so trace0(f) and trace0(alpha(f)) write the same bytes
        zeta6, zeta3 = Scalar.root_of_unity(Fraction(1, 6)), Scalar.root_of_unity(Fraction(1, 3))
        algebra = FiniteCyclicShift(3)
        f = FiniteCyclicFunction(3, (zeta6, -zeta6, zeta3))
        for trace in (algebra.trace0(f), algebra.trace0(algebra.alpha_power(f, 1))):
            assert repr(trace) == "1/3*e(1/3)"
            assert trace.to_json() == [{"coeff": "1/3", "root": "1/3", "theta": "0"}]


class TestZeroRule:
    """Construction, sums and products drop zero entries; nothing else tests an entry for zero."""

    def test_negation_star_and_twists_test_no_entry(self, circle, cyclic3):
        elements = _elements(circle, cyclic3)
        f, g, odometer_x = elements[0], elements[1], elements[-1]
        with mock.patch.object(Scalar, "is_zero", side_effect=AssertionError("an entry was tested for zero")):
            for x in elements:
                -x, x.star()
            circle.alpha_power(f, 1), cyclic3.alpha_power(g, 1), odometer_x.shifted(1)

    def test_connecting_maps_test_no_entry(self):
        # gamma, the amplification shuffle and the twist re-tag are alpha-twists and re-keyings
        angle = Angle.parse("theta+1/4")
        base, target = CircleRotation(angle), CircleRotation(angle.scaled(Fraction(1, 2)))
        X, zero = sample_matrix(base, 2, 4, random.Random(7)), MatrixElement(base, 2, 4)
        with mock.patch.object(sparse.Sparse, "_nonzero", side_effect=AssertionError("an entry was tested for zero")):
            images = [(gamma(2, 6, X), base, 6, 12), (amplification_shuffle(2, X), base, 2, 4),
                      (X.with_twist(target, 4), target, 4, 4), (gamma(2, 6, zero), base, 6, 12)]
        assert X.entries and all(image.entries for image, *_ in images[:3]) and not images[3][0].entries
        for image, algebra, power, size in images:
            # the same matrix through the checked constructors; == raises on a field that differs
            rebuilt = MatrixElement(algebra, power, size, {
                key: CrossedElement(algebra, power, x.entries) for key, x in image.entries.items()})
            assert image == rebuilt and image.to_json() == rebuilt.to_json()


class TestBlockTrust:
    """An empty block of trust below its depth still narrows the assembled operator's window:
    it hides what lies outside its own."""

    def test_low_trust_empty_block_is_kept(self, cyclic3):
        low = FockOperator(cyclic3, 6, step=2, trust=2)
        B = block_assemble(cyclic3, 2, 6, {(0, 1): low, (1, 0): FockOperator(cyclic3, 6, step=2)}, 2)
        assert B.entries == {} and B.trust == 2 * 2 + 0
        assert (-B).trust == (B + B).trust == B.star().trust == 4
        assert block_assemble(cyclic3, 2, 6, {(1, 0): FockOperator(cyclic3, 6, step=2)}, 2).trust == 12

    def test_equality_requires_equal_trust(self, cyclic3):
        one = cyclic3.one()
        X, Y = (FockOperator(cyclic3, 6, {(0, 0): one}, step=2, trust=t) for t in (6, 2))
        assert X != Y and Y != X and X.agrees(Y)
        assert X == FockOperator(cyclic3, 6, {(0, 0): one}, step=2)
        assert Y == FockOperator(cyclic3, 6, {(0, 0): one}, step=2, trust=2)
        assert block_assemble(cyclic3, 2, 6, {(0, 1): X}, 2) != block_assemble(cyclic3, 2, 6, {(0, 1): Y}, 2)
        assert block_assemble(cyclic3, 2, 6, {(0, 1): Y}, 2) == block_assemble(cyclic3, 2, 6, {(0, 1): Y + X - X}, 2)

    def test_agrees_narrows_to_the_kept_block_window(self, cyclic3):
        # block (0, 1) trusts quotient levels below 2, so the assembled operator trusts levels below 4
        one = cyclic3.one()

        def assembled(key, entries, trust=None):
            return block_assemble(cyclic3, 2, 6, {key: FockOperator(cyclic3, 6, entries, step=2, trust=trust)}, 2)

        B = assembled((0, 1), {}, trust=2)
        outside = assembled((0, 1), {(3, 2): one})  # level pair (6, 5)
        inside = assembled((0, 1), {(1, 0): one})  # level pair (2, 1)
        other_block_inside = assembled((1, 0), {(1, 1): one})  # level pair (3, 2)
        other_block_outside = assembled((1, 0), {(3, 2): one})  # level pair (7, 4)
        assert B.agrees(outside) and outside.agrees(B)
        assert not B.agrees(inside) and not inside.agrees(B)
        assert not B.agrees(other_block_inside) and B.agrees(other_block_outside)


def test_sum_takes_the_smaller_trust_and_composition_erodes_it(cyclic3):
    one = cyclic3.one()
    X = FockOperator(cyclic3, 6, {(0, 0): one}, trust=5)
    Y = FockOperator(cyclic3, 6, {(1, 1): one}, trust=3)
    assert (X + Y).trust == (Y + X).trust == (X - Y).trust == 3
    assert (-X).trust == X.star().trust == 5
    T = FockOperator.shift(cyclic3, 6)
    assert (X @ T).trust == 4 and X.compose(T).trust == 4 and (T @ X).trust == 5
    assert (Y @ T @ T @ T @ T).trust == 0


# bench/tracer.py wraps only the functions a class's own module defines in its
# body, and reads its per-layer counts off the "<layer>.<Class>.<method>" names
# it spells out; a method inherited from a core would read 0.
TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
TRACED = sorted(set(re.findall(r'"(\w+)\.([A-Z]\w*)\.(\w+)"', TRACER.read_text(encoding="utf-8"))))


def _traced_class(layer, cls):
    return getattr(importlib.import_module(f"bdlab.{layer}"), cls, None)


PRESENT = [t for t in TRACED if _traced_class(*t[:2])]


@pytest.mark.parametrize("layer,cls,name", PRESENT, ids=[f"{cls}.{name}" for _, cls, name in PRESENT])
def test_traced_methods_are_defined_in_their_own_class(layer, cls, name):
    # the tracer also skips a function that another module defined, such as a core method bound by alias
    method = vars(_traced_class(layer, cls)).get(name)
    assert method is not None and method.__module__ == f"bdlab.{layer}"


def test_the_stale_hooks_name_deleted_classes():
    # CylinderFunction was deleted when the odometer became one dict, and BlockMatrix when
    # Fock block matrices became the operators they assemble; repointing the cantor.shifted.*
    # rows and dropping the fock.block_mul.calls row is left to the benchmark (ROADMAP item 1)
    assert [t for t in TRACED if t not in PRESENT] == [("cantor", "CylinderFunction", "shifted"),
                                                       ("fock", "BlockMatrix", "__mul__")]
