"""One design's surfaces read from its 1-row DecodedStack, for the tests.

A design is the 1-row stack its decoder returns.  The heights and slopes
here come from the one-surface references ``eval_shape`` and
``shape_derivative`` on the coefficients of one surface of one row, and
the curvature from the second derivative of the basis terms, so a test
compares the stacked code with them and not with itself.
"""

import numpy as np

from activefoil import cst, parsec
from activefoil.geometry import (
    DecodedStack,
    eval_shape,
    naca_thickness_pair,
    shape_derivative,
)

UPPER, LOWER = 0, 1


def decoded(parameterization, row):
    """The 1-row stack of one "parsec" or "cst" row; a design that fails raises its error."""
    decode = parsec.solve_coefficients if parameterization == "parsec" else cst.surface_pair
    stack = decode([row])
    if stack.errors:
        raise stack.errors[0]
    return stack


def coefficients(stack, surface, row=0):
    """Coefficient vector of surface UPPER or LOWER of one row."""
    return stack.coefficients[row, surface]


def height(stack, surface, ell, row=0):
    return eval_shape(coefficients(stack, surface, row), stack.basis, ell)


def slope(stack, surface, ell, row=0):
    return shape_derivative(coefficients(stack, surface, row), stack.basis, ell)


def curvature(stack, surface, ell, row=0):
    """d2s/dell2 = sum_j a_j e_j (e_j - 1) ell**(e_j - 2) for ell in (0, 1]."""
    e = stack.basis.exponents()
    terms = e * (e - 1.0) * np.asarray(ell, dtype=float)[..., np.newaxis] ** (e - 2.0)
    return terms @ coefficients(stack, surface, row)


def scaled_naca(thickness, upper_scale, lower_scale, closed=False):
    """``naca_thickness_pair`` with its upper surface times ``upper_scale`` and its
    lower surface times ``lower_scale``; a negative ``lower_scale`` crosses them."""
    stack = naca_thickness_pair(thickness, closed)
    return DecodedStack(stack.basis, stack.coefficients * [[upper_scale], [lower_scale]], {})
