"""The square-matrix core of ``sparse``, through the three classes built on it.

``MatrixElement``, ``FockOperator`` and ``BlockMatrix`` share their checked
construction, ``+``, unary ``-``, star and product; these tests pin the rules
that core enforces for each of them.
"""

import operator

import pytest

from bdlab.crossed import CrossedElement, MatrixElement
from bdlab.errors import MismatchError
from bdlab.fock import BlockMatrix, FockOperator

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


def _block_pair(circle, cyclic3, field):
    one = FockOperator.identity(circle, 4)
    X = BlockMatrix(circle, 2, 4, {(0, 0): one, (1, 1): one})
    other = {"block size": BlockMatrix(circle, 3, 4, {(0, 0): one})}[field]
    return X, other


class TestSpaceMismatch:
    @pytest.mark.parametrize("pair,field", [
        (_matrix_pair, "algebra"), (_matrix_pair, "power"), (_matrix_pair, "size"),
        (_fock_pair, "algebra"), (_fock_pair, "step"), (_fock_pair, "depth"),
        (_block_pair, "block size"),
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
    ])
    def test_comparison_on_different_spaces(self, circle, cyclic3, pair, field):
        X, Y = pair(circle, cyclic3, field)
        with pytest.raises(MismatchError):
            X == Y if isinstance(X, MatrixElement) else X.agrees(Y)


class TestConstruction:
    @pytest.mark.parametrize("key", [(2, 0), (0, 2), (-1, 0), (0, -1)])
    def test_entry_outside_the_square(self, circle, key):
        with pytest.raises(MismatchError):
            MatrixElement(circle, 1, 2, {key: CrossedElement.unit(circle, 1)})
        with pytest.raises(MismatchError):
            FockOperator(circle, 2, {key: circle.one()})
        with pytest.raises(MismatchError):
            BlockMatrix(circle, 2, 3, {key: FockOperator.identity(circle, 3)})

    @pytest.mark.parametrize("entry", [
        lambda circle, cyclic3: CrossedElement.unit(cyclic3, 2),
        lambda circle, cyclic3: CrossedElement.unit(circle, 1),
        lambda circle, cyclic3: CrossedElement.zero(circle, 1),
    ], ids=("algebra", "power", "zero of another power"))
    def test_entry_from_another_stage_algebra(self, circle, cyclic3, entry):
        with pytest.raises(MismatchError):
            MatrixElement(circle, 2, 2, {(0, 1): entry(circle, cyclic3)})

    @pytest.mark.parametrize("block", [
        lambda circle, cyclic3: FockOperator.identity(cyclic3, 3),
        lambda circle, cyclic3: FockOperator.identity(circle, 4),
        lambda circle, cyclic3: FockOperator.identity(circle, 3, step=2),
    ], ids=("algebra", "depth", "step"))
    def test_block_on_another_truncated_space(self, circle, cyclic3, block):
        with pytest.raises(MismatchError):
            BlockMatrix(circle, 2, 3, {(1, 0): block(circle, cyclic3)})

    def test_zero_entries_are_dropped(self, circle):
        X = MatrixElement(circle, 1, 2, {(0, 0): CrossedElement.zero(circle, 1), (1, 0): CrossedElement.unit(circle, 1)})
        assert set(X.entries) == {(1, 0)}
        assert set((X - X).entries) == set() and (X - X).is_zero()


class TestBlockTrust:
    """A block with no entries but trust below its depth is not zero: it hides what lies outside its window."""

    def test_low_trust_empty_block_is_kept(self, cyclic3):
        low = FockOperator(cyclic3, 6, trust=2)
        assert not low.is_zero() and FockOperator(cyclic3, 6).is_zero()
        B = BlockMatrix(cyclic3, 2, 6, {(0, 1): low, (1, 0): FockOperator(cyclic3, 6)})
        assert set(B.entries) == {(0, 1)}
        assert set((-B).entries) == {(0, 1)} and set((B + B).entries) == {(0, 1)}
        assert set(B.star().entries) == {(1, 0)} and B.star().block(1, 0).trust == 2

    def test_agrees_narrows_to_the_kept_block_window(self, cyclic3):
        one = cyclic3.one()
        B = BlockMatrix(cyclic3, 2, 6, {(0, 1): FockOperator(cyclic3, 6, trust=2)})
        outside = BlockMatrix(cyclic3, 2, 6, {(0, 1): FockOperator(cyclic3, 6, {(3, 2): one})})
        inside = BlockMatrix(cyclic3, 2, 6, {(0, 1): FockOperator(cyclic3, 6, {(1, 0): one})})
        other_block = BlockMatrix(cyclic3, 2, 6, {(1, 0): FockOperator(cyclic3, 6, {(3, 2): one})})
        assert B.agrees(outside) and outside.agrees(B)
        assert not B.agrees(inside) and not inside.agrees(B)
        assert not B.agrees(other_block)


def test_sum_takes_the_smaller_trust_and_composition_erodes_it(cyclic3):
    one = cyclic3.one()
    X = FockOperator(cyclic3, 6, {(0, 0): one}, trust=5)
    Y = FockOperator(cyclic3, 6, {(1, 1): one}, trust=3)
    assert (X + Y).trust == (Y + X).trust == (X - Y).trust == 3
    assert (-X).trust == X.star().trust == 5
    T = FockOperator.shift(cyclic3, 6)
    assert (X @ T).trust == 4 and X.compose(T).trust == 4 and (T @ X).trust == 5
    assert (Y @ T @ T @ T @ T).trust == 0


# bench/tracer.py wraps only the attributes a class defines itself, and reads
# its per-layer counts (crossed.matrix_mul.calls, fock.compose.calls,
# fock.block_mul.calls, fock.agrees.entries_compared) off these five; one
# inherited from the core would read 0.
TRACED = [(MatrixElement, "__mul__"), (FockOperator, "compose"), (FockOperator, "__matmul__"),
          (BlockMatrix, "__mul__"), (FockOperator, "agrees")]


@pytest.mark.parametrize("cls,name", TRACED, ids=[f"{cls.__name__}.{name}" for cls, name in TRACED])
def test_traced_methods_are_defined_in_their_own_class(cls, name):
    assert name in vars(cls)
