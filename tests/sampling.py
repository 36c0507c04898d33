"""Samplers of a chosen degree, for tests that draw past the library's fixed sampling degrees.

They draw from the generator in the order of ``CircleRotation.sample``,
``crossed.sample_crossed`` and ``crossed.sample_matrix``, so at the library's
degrees (``SAMPLE_Z_DEGREE`` and ``SAMPLE_U_DEGREE``) they draw what the
library draws.
"""

from bdlab.coeff import CircleFunction, CircleRotation, sample_scalar
from bdlab.crossed import CrossedElement, MatrixElement


def sample_coefficient(algebra, rng, degree):
    """A circle function of |z-degree| at most ``degree``; an algebra without a degree samples as it does."""
    if not isinstance(algebra, CircleRotation):
        return algebra.sample(rng)
    coeffs = {}
    for _ in range(rng.randint(1, 2)):
        coeffs[rng.randint(-degree, degree)] = sample_scalar(rng)
    return CircleFunction(coeffs)


def sample_crossed_of_degree(algebra, power, rng, u_degree, coeff_degree):
    coeffs = {}
    for _ in range(rng.randint(1, 2)):
        coeffs[rng.randint(-u_degree, u_degree)] = sample_coefficient(algebra, rng, coeff_degree)
    return CrossedElement(algebra, power, coeffs)


def sample_matrix_of_degree(algebra, power, size, rng, u_degree, coeff_degree):
    entries = {}
    for i in range(size):
        for j in range(size):
            if rng.random() < 0.5:
                entries[(i, j)] = sample_crossed_of_degree(algebra, power, rng, u_degree, coeff_degree)
    return MatrixElement(algebra, power, size, entries)
