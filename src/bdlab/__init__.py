"""bdlab: exact symbolic computation for generalized Bunce-Deddens limit algebras.

The library constructs the finite stages M_n(A x_(alpha^n) Z) of the limit
algebra attached to an automorphism alpha of a coefficient algebra A, the
connecting homomorphisms between stages, the Fock/Toeplitz block picture, the
odometer crossed-product presentation, and the K-theoretic classification
data, all over an exact scalar ring (cyclotomics times powers of a formal
circle unit).  Every claimed identity is verified by exact computation at
desk scale; the `bdlab` CLI drives the verification suites and deciders.
"""

from .cantor import OdometerAlgebra, OdometerElement, StageSequence
from .coeff import Angle, CircleFunction, CircleRotation, CoefficientAlgebra, FiniteCyclicFunction, FiniteCyclicShift
from .crossed import CrossedElement, MatrixElement
from .errors import BudgetError, MismatchError
from .fock import FockOperator, WeightSequence
from .invariants import (
    K0Class,
    K1Class,
    SupernaturalNumber,
    ThetaEnclosure,
    decide_amplification,
    decide_isomorphism,
    decide_simplicity_finite_model,
    decide_trace_uniqueness_finite_model,
)
from .limits import amplification_shuffle, gamma
from .scalar import Scalar

__all__ = [
    "Angle",
    "BudgetError",
    "CircleFunction",
    "CircleRotation",
    "CoefficientAlgebra",
    "CrossedElement",
    "FiniteCyclicFunction",
    "FiniteCyclicShift",
    "FockOperator",
    "K0Class",
    "K1Class",
    "MatrixElement",
    "MismatchError",
    "OdometerAlgebra",
    "OdometerElement",
    "Scalar",
    "StageSequence",
    "SupernaturalNumber",
    "ThetaEnclosure",
    "WeightSequence",
    "amplification_shuffle",
    "decide_amplification",
    "decide_isomorphism",
    "decide_simplicity_finite_model",
    "decide_trace_uniqueness_finite_model",
    "gamma",
]
