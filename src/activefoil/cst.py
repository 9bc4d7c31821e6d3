"""Class/shape-transformation airfoil surfaces.

Each surface is the product of a class function and a shape polynomial,

    s(ell) = ell**r1 * (1 - ell)**r2 * sum_{j=0..m-1} x_j * ell**j,

with default exponents r1 = 1/2 (round nose) and r2 = 1 (sharp trailing
edge).  Under those defaults the substitution ell = t**2 turns the
product into a purely odd polynomial in t of degree 2m + 1:

    s(t) = t * (1 - t**2) * sum_j x_j * t**(2j)
         = x_0 t + (x_1 - x_0) t**3 + ... + (x_{m-1} - x_{m-2}) t**(2m-1)
           - x_{m-1} t**(2m+1)

so a CST surface with m coefficients is exactly an odd-in-t series with
m + 1 terms.  For m = 5 the support is {t, t**3, t**5, t**7, t**9,
t**11}: the same degrees the crest-constrained (half-integer power)
parameterization spans, which is what makes the two families directly
comparable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ContractViolation, DomainError, UnsupportedExpansionError
from .geometry import (
    BasisKind,
    BasisSpec,
    DecodedStack,
    ShapeCoefficients,
)
from .sampling import ParameterBox


@dataclass(frozen=True)
class ClassFunctionSpec:
    """Exponent pair of the class function ell**nose * (1 - ell)**tail."""

    nose_exponent: float = 0.5
    tail_exponent: float = 1.0

    def __post_init__(self):
        for name in ("nose_exponent", "tail_exponent"):
            value = getattr(self, name)
            if not (np.isfinite(value) and 0.0 <= value <= 1.0):
                raise DomainError(f"{name} must lie in [0, 1]")
            object.__setattr__(self, name, float(value))


DEFAULT_CLASS = ClassFunctionSpec()


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
        up.flags.writeable = False
        lo.flags.writeable = False
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "lower", lo)

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


def class_function(ell, spec: ClassFunctionSpec = DEFAULT_CLASS):
    """ell**nose * (1 - ell)**tail on [0, 1]; zero exponents give 1 at the ends."""
    arr = np.asarray(ell, dtype=float)
    if arr.size and (np.any(arr < 0.0) or np.any(arr > 1.0)):
        raise DomainError("ell must lie in [0, 1]")
    out = arr**spec.nose_exponent * (1.0 - arr) ** spec.tail_exponent
    return float(out) if np.ndim(ell) == 0 else out


def cst_surface(ell, coeffs, spec: ClassFunctionSpec = DEFAULT_CLASS):
    """Class function times the shape polynomial sum_j x_j * ell**j."""
    x = np.asarray(coeffs, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ContractViolation("coefficient vector must be 1-D and non-empty")
    arr = np.asarray(ell, dtype=float)
    out = class_function(arr, spec) * npoly.polyval(arr, x)
    return float(out) if np.ndim(ell) == 0 else out


def _require_expansion(spec: ClassFunctionSpec) -> None:
    if spec != DEFAULT_CLASS:
        raise UnsupportedExpansionError(
            "odd-polynomial expansion exists only for class exponents (1/2, 1)"
        )


def _expand_rows(x: np.ndarray) -> np.ndarray:
    """Odd-term coefficients of each row of an (N, m) coefficient stack."""
    odd = np.empty((x.shape[0], x.shape[1] + 1))
    odd[:, 0] = x[:, 0]
    odd[:, 1:-1] = x[:, 1:] - x[:, :-1]
    odd[:, -1] = -x[:, -1]
    return odd


def expand_odd_polynomial(
    coeffs, spec: ClassFunctionSpec = DEFAULT_CLASS
) -> ShapeCoefficients:
    """Closed-form odd-in-t series equal to the class/shape product.

    Valid only for the default exponents (nose 1/2, tail 1).  The m
    input coefficients map to m + 1 odd-term coefficients

        (x_0, x_1 - x_0, ..., x_{m-1} - x_{m-2}, -x_{m-1})

    pairing with t**1, t**3, ..., t**(2m+1).
    """
    _require_expansion(spec)
    x = np.asarray(coeffs, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ContractViolation("coefficient vector must be 1-D and non-empty")
    return ShapeCoefficients(_expand_rows(x[np.newaxis])[0])


def odd_basis(m: int) -> BasisSpec:
    """Basis of the expansion of an m-coefficient surface."""
    return BasisSpec(BasisKind.ODD_T, m + 1)


def _decode_stack(rows: np.ndarray, spec: ClassFunctionSpec) -> DecodedStack:
    _require_expansion(spec)
    errors = {}
    for i in np.flatnonzero(~np.all(np.isfinite(rows), axis=1)).tolist():
        try:
            CstParams.from_flat(rows[i])
        except ContractViolation as exc:
            errors[i] = exc
    half = rows.shape[1] // 2
    with np.errstate(invalid="ignore"):  # rows with errors may hold inf - inf
        odd = np.stack([_expand_rows(rows[:, :half]), _expand_rows(rows[:, half:])], axis=1)
    return DecodedStack(odd_basis(half), odd, errors)


def surface_pair(params, spec: ClassFunctionSpec = DEFAULT_CLASS):
    """Decode both surfaces into their exact odd-in-t series.

    ``params`` is one CstParams, whose AirfoilSurfacePair is returned,
    or an (N, 2m) stack of flat rows (upper then lower coefficients),
    decoded together into a DecodedStack that keeps each failing row's
    error.  One design is the 1-row stack.
    """
    if isinstance(params, CstParams):
        return _decode_stack(params.to_flat()[np.newaxis], spec).pair(0)
    rows = np.asarray(params, dtype=float)
    if rows.ndim != 2 or rows.shape[1] < 2 or rows.shape[1] % 2:
        raise ContractViolation(
            f"expected one CstParams or an (N, 2m) stack of flat rows, got shape {rows.shape}"
        )
    return _decode_stack(rows, spec)


def leading_edge_radius(leading_coeff: float) -> float:
    """Osculating-circle radius at the nose from the leading coefficient."""
    return 0.5 * leading_coeff * leading_coeff


# +/-20% box around coefficients fitted to the NACA 0012 (m = 5 per
# surface; flat layout upper then lower).  Stored literally with the
# lower-surface leading interval already canonicalized to
# (lower, upper) order.
_BASELINE_LOWER = (0.12, 0.8, 0.8, 0.8, 0.8, -0.18, 0.8, 0.8, 0.8, 0.8)
_BASELINE_UPPER = (0.18, 1.2, 1.2, 1.2, 1.2, -0.12, 1.2, 1.2, 1.2, 1.2)


def baseline_box() -> ParameterBox:
    """Built-in parameter box around the NACA-0012 fit (CLI name cst-table3)."""
    return ParameterBox(
        lower=np.array(_BASELINE_LOWER),
        upper=np.array(_BASELINE_UPPER),
    )


def baseline_center() -> CstParams:
    box = baseline_box()
    return CstParams.from_flat(0.5 * (box.lower + box.upper))
