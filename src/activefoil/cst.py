"""Class/shape-transformation airfoil surfaces.

Each surface is the product of a class function and a shape polynomial,

    s(ell) = ell**(1/2) * (1 - ell) * sum_{j=0..m-1} x_j * ell**j,

with the class exponents fixed at 1/2 (round nose) and 1 (sharp
trailing edge).  The substitution ell = t**2 turns the product into a
purely odd polynomial in t of degree 2m + 1:

    s(t) = t * (1 - t**2) * sum_j x_j * t**(2j)
         = x_0 t + (x_1 - x_0) t**3 + ... + (x_{m-1} - x_{m-2}) t**(2m-1)
           - x_{m-1} t**(2m+1)

so a CST surface with m coefficients is exactly an odd-in-t series with
m + 1 terms.  For m = 5 the support is {t, t**3, t**5, t**7, t**9,
t**11}: the same degrees the crest-constrained (half-integer power)
parameterization spans, so both decode into the one half-integer basis.
:func:`surface_pair` decodes an (N, 2m) stack of flat rows, upper then
lower coefficients, into one DecodedStack; one design is the 1-row
stack, and :func:`read_params` reads a ``--params`` file into that row.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation
from .geometry import (
    BasisKind,
    BasisSpec,
    DecodedStack,
    _checked_coordinate,
    eval_shape,
    naca_thickness_pair,
)
from .sampling import ParameterBox, make_box, read_json_object


def read_params(text: str) -> np.ndarray:
    """The flat row, upper then lower coefficients, of a --params JSON object with keys
    upper, lower and, optionally, m."""
    payload = read_json_object(
        text, {"upper": "a list of numbers", "lower": "a list of numbers", "m": "an integer"},
        "parameter", ContractViolation, optional=("m",))
    upper, lower = payload["upper"], payload["lower"]
    if not upper or len(upper) != len(lower):
        raise ContractViolation("upper and lower must be equal-length 1-D vectors")
    if payload.get("m", len(upper)) != len(upper):
        raise ContractViolation(
            f"declared m={payload['m']} does not match coefficient length {len(upper)}")
    return np.array(upper + lower, dtype=float)


def class_function(ell):
    """sqrt(ell) * (1 - ell) on [0, 1]."""
    arr = _checked_coordinate(ell, "ell")
    out = np.sqrt(arr) * (1.0 - arr)
    return float(out) if np.ndim(ell) == 0 else out


def cst_surface(ell, coeffs):
    """Class function times the shape polynomial sum_j x_j * ell**j."""
    x = np.asarray(coeffs, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ContractViolation("coefficient vector must be 1-D and non-empty")
    arr = np.asarray(ell, dtype=float)
    # Horner's rule in numpy.polynomial.polynomial.polyval's order, so the
    # bits match it without importing numpy.polynomial on every start
    shape = x[-1] + arr * 0
    for coef in x[-2::-1]:
        shape = coef + shape * arr
    out = class_function(arr) * shape
    return float(out) if np.ndim(ell) == 0 else out


def _expand_rows(x: np.ndarray) -> np.ndarray:
    """Odd-term coefficients of each row of an (N, m) coefficient stack."""
    odd = np.empty((x.shape[0], x.shape[1] + 1))
    odd[:, 0] = x[:, 0]
    odd[:, 1:-1] = x[:, 1:] - x[:, :-1]
    odd[:, -1] = -x[:, -1]
    return odd


def odd_basis(m: int) -> BasisSpec:
    """Basis of the expansion of an m-coefficient surface.

    It is the common series t, t**3, ..., t**(2m+1), PARSEC's ell**(j - 1/2).
    """
    return BasisSpec(BasisKind.HALF_INTEGER, m + 1)


def _decode_stack(rows: np.ndarray) -> DecodedStack:
    half = rows.shape[1] // 2
    # a row that is not finite, or whose differences overflow, gets a
    # series that is not finite, and DecodedStack fails it
    with np.errstate(invalid="ignore", over="ignore"):
        odd = np.stack([_expand_rows(rows[:, :half]), _expand_rows(rows[:, half:])], axis=1)
    return DecodedStack(odd_basis(half), odd, {})


def surface_pair(rows) -> DecodedStack:
    """Decode both surfaces of every row into their exact odd-in-t series.

    ``rows`` is an (N, 2m) stack of flat rows (upper then lower
    coefficients), decoded together into a DecodedStack that keeps each
    failing row's error.  One design is the 1-row stack.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] < 2 or rows.shape[1] % 2:
        raise ContractViolation(
            f"expected an (N, 2m) stack of flat rows, got shape {rows.shape}")
    return _decode_stack(rows)


def leading_edge_radius(leading_coeff: float) -> float:
    """Osculating-circle radius at the nose from the leading coefficient."""
    return 0.5 * leading_coeff * leading_coeff


def baseline_box() -> ParameterBox:
    """Built-in +/-20% box around the closed NACA-0012 fit (CLI name cst-table3).

    The upper coefficients a are the least-squares fit of
    sqrt(ell) * (1 - ell) * sum_j a_j ell**j (m = 5) to the closed-
    trailing-edge NACA-0012 half-thickness, which matches the class
    function's closed trailing edge, at 399 uniform interior chord
    stations; the largest deviation there is about 2.7e-4.  The lower
    coefficients are -a, so the centre is the symmetric design; the flat
    layout is upper then lower.
    """
    ell = np.arange(1, 400) / 400.0
    design = class_function(ell)[:, np.newaxis] * ell[:, np.newaxis] ** np.arange(5)
    naca = naca_thickness_pair(0.12, closed=True)
    target = eval_shape(naca.coefficients[0, 0], naca.basis, ell)
    a = np.linalg.lstsq(design, target, rcond=None)[0]
    return make_box(np.concatenate([a, -a]), 0.2)
