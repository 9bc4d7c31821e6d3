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
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DomainError
from .geometry import (
    BasisKind,
    BasisSpec,
    DecodedStack,
    ShapeCoefficients,
    naca_thickness_pair,
)
from .sampling import ParameterBox, _freeze, make_box


@dataclass(frozen=True, eq=False)
class CstParams:
    """Shape-polynomial coefficients for both surfaces (equal length m)."""

    upper: np.ndarray
    lower: np.ndarray

    def __post_init__(self):
        up = np.array(self.upper, dtype=float)
        lo = np.array(self.lower, dtype=float)
        if up.ndim != 1 or up.size == 0 or up.shape != lo.shape:
            raise ContractViolation("upper and lower must be equal-length 1-D vectors")
        if not (np.all(np.isfinite(up)) and np.all(np.isfinite(lo))):
            raise ContractViolation("coefficients must be finite")
        _freeze(self, upper=up, lower=lo)

    @property
    def m(self) -> int:
        return self.upper.size

    @classmethod
    def from_flat(cls, values) -> "CstParams":
        """Flat layout: first half upper coefficients, second half lower."""
        vals = np.asarray(list(values), dtype=float)
        if vals.ndim != 1 or vals.size < 2 or vals.size % 2:
            raise ContractViolation("flat parameter vector must have even length >= 2")
        half = vals.size // 2
        return cls(upper=vals[:half], lower=vals[half:])

    def to_flat(self) -> np.ndarray:
        return np.concatenate([self.upper, self.lower])

    def to_json(self) -> str:
        return json.dumps(
            {"m": self.m, "upper": list(self.upper), "lower": list(self.lower)},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "CstParams":
        payload = json.loads(text)
        params = cls(upper=np.asarray(payload["upper"], dtype=float),
                     lower=np.asarray(payload["lower"], dtype=float))
        if "m" in payload and int(payload["m"]) != params.m:
            raise ContractViolation(
                f"declared m={payload['m']} does not match coefficient length {params.m}"
            )
        return params


def class_function(ell):
    """sqrt(ell) * (1 - ell) on [0, 1]."""
    arr = np.asarray(ell, dtype=float)
    if arr.size and (np.any(arr < 0.0) or np.any(arr > 1.0)):
        raise DomainError("ell must lie in [0, 1]")
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


def expand_odd_polynomial(coeffs) -> ShapeCoefficients:
    """Closed-form odd-in-t series equal to the class/shape product.

    The m input coefficients map to m + 1 odd-term coefficients

        (x_0, x_1 - x_0, ..., x_{m-1} - x_{m-2}, -x_{m-1})

    pairing with t**1, t**3, ..., t**(2m+1).
    """
    x = np.asarray(coeffs, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ContractViolation("coefficient vector must be 1-D and non-empty")
    return ShapeCoefficients(_expand_rows(x[np.newaxis])[0])


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


def surface_pair(params):
    """Decode both surfaces into their exact odd-in-t series.

    ``params`` is one CstParams, whose AirfoilSurfacePair is returned,
    or an (N, 2m) stack of flat rows (upper then lower coefficients),
    decoded together into a DecodedStack that keeps each failing row's
    error.  One design is the 1-row stack.
    """
    if isinstance(params, CstParams):
        return _decode_stack(params.to_flat()[np.newaxis]).pair(0)
    rows = np.asarray(params, dtype=float)
    if rows.ndim != 2 or rows.shape[1] < 2 or rows.shape[1] % 2:
        raise ContractViolation(
            f"expected one CstParams or an (N, 2m) stack of flat rows, got shape {rows.shape}"
        )
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
    coefficients are -a, so the centre is the symmetric pair; the flat
    layout is upper then lower.
    """
    ell = np.arange(1, 400) / 400.0
    design = class_function(ell)[:, np.newaxis] * ell[:, np.newaxis] ** np.arange(5)
    target = naca_thickness_pair(0.12, closed=True).upper.height(ell)
    a = np.linalg.lstsq(design, target, rcond=None)[0]
    return make_box(np.concatenate([a, -a]), 0.2)


def baseline_center() -> CstParams:
    box = baseline_box()
    return CstParams.from_flat(0.5 * (box.lower + box.upper))
