"""Report.compare, and the sides every suite's failures carry.

Each suite is run once with one of its maps broken, so that cases fail; every
failure must then carry both sides, not only its label.
"""

from unittest import mock

import pytest

from bdlab import cantor, fock, limits
from bdlab.coeff import Angle, CircleRotation, FiniteCyclicShift
from bdlab.crossed import MatrixElement
from bdlab.report import Report


class TestCompare:
    def test_records_every_case_with_both_sides_of_a_failure(self):
        report = Report("squares")
        report.compare([(0, 2), ("three", 3)], lambda x: (x * x, x + x))
        assert report.cases == 2
        assert [f.to_json() for f in report.failures] == [{"case": "three", "lhs": 9, "rhs": 6}]

    def test_same_replaces_equality(self):
        report = Report("parity")
        report.compare(((i, i) for i in range(4)), lambda x: (x, x + 2), lambda a, b: a % 2 == b % 2)
        assert report.ok and report.cases == 4


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


@pytest.mark.parametrize("suite", sorted(BROKEN))
def test_every_failure_carries_both_sides(suite):
    breaking, run = BROKEN[suite]
    with breaking():
        report = run()
    assert report.suite == suite and report.failures
    assert all(f.lhs is not None and f.rhs is not None for f in report.failures)
