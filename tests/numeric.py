"""Floating-point values of exact elements, used by the tests as numeric oracles.

Built on the public ``Scalar.terms`` and ``CircleFunction.entries`` views, so
they do not depend on how the library stores a scalar.
"""

import cmath


def scalar_value(s, theta_value):
    """Numeric value of a Scalar with t = exp(2*pi*i*theta_value)."""
    tv = float(theta_value)
    return sum(
        (float(coeff) * cmath.exp(2j * cmath.pi * (float(root) + float(theta) * tv))
         for (root, theta), coeff in s.terms.items()),
        0j,
    )


def circle_value(f, theta_value, point):
    """Numeric value of a CircleFunction at z = exp(2*pi*i*point) with t = exp(2*pi*i*theta_value)."""
    return sum(
        (scalar_value(c, theta_value) * cmath.exp(2j * cmath.pi * m * point) for m, c in f.entries.items()),
        0j,
    )
