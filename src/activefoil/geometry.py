"""Polynomial shape functions for airfoil surfaces.

An airfoil boundary splits into an upper surface ``s_U`` and a lower
surface ``s_L``, each a scaled linear combination of basis functions of
the chord fraction ``ell`` in ``[0, 1]`` (leading edge at 0, trailing
edge at 1).  Three exponent families cover the parameterizations used
in this package:

``naca4-like``
    ``sqrt(ell), ell, ell**2, ell**3, ell**4`` -- the classic four-digit
    thickness series; exactly five terms.
``half-integer-powers``
    ``ell**(j - 1/2)`` for ``j = 1..k``.
``odd-powers-in-t``
    ``t**(2j - 1)`` for ``j = 1..k`` in the nose-resolving coordinate
    ``t = sqrt(ell)``.

The last two families describe the same curves (substitute
``ell = t**2``); keeping them as distinct kinds records which
coordinate a coefficient vector was derived in.  Every basis term
vanishes at the leading edge.  A nonzero leading square-root term gives
the round nose: heights grow like a multiple of ``sqrt(ell)`` and the
slope ``ds/dell`` is singular at ``ell = 0``.  The chain rule

    ds/dell = (1 / (2 sqrt(ell))) * ds/dt

moves derivatives between the two coordinates, and grids uniform in
``t`` keep the nose region resolved where uniform-``ell`` grids do not.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ContractViolation,
    DomainError,
    IllPosedFitError,
    SingularityError,
)
from .sampling import _freeze


class BasisKind(str, Enum):
    NACA4 = "naca4-like"
    HALF_INTEGER = "half-integer-powers"
    ODD_T = "odd-powers-in-t"


@dataclass(frozen=True)
class BasisSpec:
    """Basis family plus term count; fixes the exponent sequence exactly."""

    kind: BasisKind
    term_count: int

    def __post_init__(self):
        _freeze(self, kind=BasisKind(self.kind))
        if int(self.term_count) != self.term_count or self.term_count < 1:
            raise ContractViolation("term_count must be a positive integer")
        _freeze(self, term_count=int(self.term_count))
        if self.kind is BasisKind.NACA4 and self.term_count != 5:
            raise ContractViolation("naca4-like basis has exactly five terms")

    def exponents(self) -> np.ndarray:
        """Exponents of ell for each term."""
        if self.kind is BasisKind.NACA4:
            return np.array([0.5, 1.0, 2.0, 3.0, 4.0])
        # Same ell-powers for both square-root families.
        return np.arange(1, self.term_count + 1) - 0.5

    def exponents_t(self) -> np.ndarray:
        """Exponents of t = sqrt(ell) for each term."""
        return 2.0 * self.exponents()


@dataclass(frozen=True, eq=False)
class ShapeCoefficients:
    """Coefficient vector ``values`` with a positive overall scale."""

    values: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ContractViolation("coefficient vector must be 1-D and non-empty")
        if not np.all(np.isfinite(vals)):
            raise ContractViolation("coefficients must be finite")
        if not (np.isfinite(self.scale) and self.scale > 0.0):
            raise ContractViolation("scale must be positive and finite")
        _freeze(self, values=vals, scale=float(self.scale))


@dataclass(frozen=True, eq=False)
class Surface:
    """One airfoil surface: a basis and its coefficients."""

    basis: BasisSpec
    coeffs: ShapeCoefficients

    def height(self, ell):
        return eval_shape(self.coeffs, self.basis, ell)

    def slope(self, ell):
        return shape_derivative(self.coeffs, self.basis, ell)


@dataclass(frozen=True, eq=False)
class AirfoilSurfacePair:
    upper: Surface
    lower: Surface


@dataclass(frozen=True, eq=False)
class DecodedStack:
    """Surface coefficients decoded from a stack of designs, one entry per row.

    ``coefficients[i]`` holds the upper and lower series of row i in
    ``basis``.  ``errors`` maps each row that failed to decode, in row
    order, to the exception the single-design decode of that row
    raises; a row whose coefficients are not finite fails here.  Pairs
    are built on request, so the stack holds one (N, 2, k) array.
    """

    basis: BasisSpec
    coefficients: np.ndarray
    errors: dict

    def __post_init__(self):
        errors = dict(self.errors)
        finite = np.all(np.isfinite(self.coefficients), axis=(1, 2))
        for i in np.flatnonzero(~finite).tolist():
            if i not in errors:
                try:
                    self._pair(i)
                except ContractViolation as exc:
                    errors[i] = exc
        _freeze(self, coefficients=self.coefficients, errors=dict(sorted(errors.items())))

    def __len__(self) -> int:
        return self.coefficients.shape[0]

    def _pair(self, i: int) -> AirfoilSurfacePair:
        upper, lower = self.coefficients[i]
        return AirfoilSurfacePair(
            upper=Surface(self.basis, ShapeCoefficients(upper)),
            lower=Surface(self.basis, ShapeCoefficients(lower)),
        )

    def pair(self, i: int) -> AirfoilSurfacePair:
        """Pair of row i; raises that row's decode error if it has one."""
        error = self.errors.get(i)
        if error is not None:
            raise error
        return self._pair(i)


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the point-wise geometric checks on a surface pair."""

    feasible: bool
    min_gap: float
    endpoints_fixed: bool
    endpoint_tol: float
    bounded: bool
    lower_bound: float
    upper_bound: float
    grid_size: int
    sharp_trailing_edge: bool

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "min_gap": self.min_gap,
            "endpoints_fixed": self.endpoints_fixed,
            "endpoint_tol": self.endpoint_tol,
            "bounded": self.bounded,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "grid_size": self.grid_size,
            "sharp_trailing_edge": self.sharp_trailing_edge,
        }


@dataclass(frozen=True, eq=False)
class FitResult:
    coefficients: ShapeCoefficients
    residual_norm: float
    rank: int


def _matched_values(coeffs: ShapeCoefficients, basis: BasisSpec) -> np.ndarray:
    if coeffs.values.size != basis.term_count:
        raise ContractViolation(
            f"coefficient count {coeffs.values.size} does not match "
            f"basis term count {basis.term_count}"
        )
    return coeffs.values


def _checked_coordinate(x, name):
    arr = np.asarray(x, dtype=float)
    if arr.size and (np.any(arr < 0.0) or np.any(arr > 1.0)):
        raise DomainError(f"{name} must lie in [0, 1]")
    return arr


def _power_table(basis: BasisSpec, ell: np.ndarray, slope: bool) -> np.ndarray:
    """Rows ell**e, or e * ell**(e - 1) when ``slope``, at every point of ell."""
    arr = _checked_coordinate(ell, "ell")
    e = basis.exponents()
    if not slope:
        return arr[..., np.newaxis] ** e
    if np.any(arr == 0.0):
        raise SingularityError(
            "slope is singular at the leading edge (ell = 0); "
            "differentiate in t = sqrt(ell) instead"
        )
    return arr[..., np.newaxis] ** (e - 1.0) * e


@functools.lru_cache(maxsize=64)
def _fixed_table(basis: BasisSpec, slope: bool, ell_bytes: bytes) -> np.ndarray:
    table = _power_table(basis, np.frombuffer(ell_bytes), slope)
    table.flags.writeable = False
    return table


def _basis_table(basis: BasisSpec, ell, slope: bool) -> np.ndarray:
    """Power table of the basis at ell, built once per (basis, grid) for fixed grids.

    A read-only 1-D grid -- the nose-resolving grid, the lift quadrature
    nodes -- is looked up by content, so evaluating many surfaces on it
    builds its table and checks its domain only once.
    """
    arr = np.asarray(ell, dtype=float)
    if arr.ndim == 1 and not arr.flags.writeable:
        return _fixed_table(basis, slope, arr.tobytes())
    return _power_table(basis, arr, slope)


def eval_shape(coeffs: ShapeCoefficients, basis: BasisSpec, ell):
    """Surface height at chord fraction ``ell`` (scalar or array).

    Every basis term vanishes at ell = 0, so the leading edge height is
    exactly zero for all three kinds.
    """
    a = _matched_values(coeffs, basis)
    out = coeffs.scale * (_basis_table(basis, ell, slope=False) @ a)
    return float(out) if np.ndim(ell) == 0 else out


def eval_shape_t(coeffs: ShapeCoefficients, basis: BasisSpec, t):
    """Surface height as a function of t = sqrt(ell).

    For the square-root families the t-form has purely odd powers with
    the same coefficients; the naca4-like series maps to
    ``t, t**2, t**4, t**6, t**8``.
    """
    a = _matched_values(coeffs, basis)
    arr = _checked_coordinate(t, "t")
    out = coeffs.scale * ((arr[..., np.newaxis] ** basis.exponents_t()) @ a)
    return float(out) if np.ndim(t) == 0 else out


def shape_derivative(coeffs: ShapeCoefficients, basis: BasisSpec, ell):
    """Analytic slope ds/dell for ell in (0, 1].

    Raises :class:`SingularityError` at ell = 0: the square-root term
    of a round-nosed surface has unbounded slope there.
    """
    a = _matched_values(coeffs, basis)
    out = coeffs.scale * (_basis_table(basis, ell, slope=True) @ a)
    return float(out) if np.ndim(ell) == 0 else out


def shape_derivative_t(coeffs: ShapeCoefficients, basis: BasisSpec, t):
    """Analytic slope ds/dt; finite on the whole of [0, 1].

    Relates to the ell-derivative by ds/dell = ds/dt / (2 sqrt(ell)).
    """
    a = _matched_values(coeffs, basis)
    arr = _checked_coordinate(t, "t")
    e = basis.exponents_t()
    out = coeffs.scale * ((arr[..., np.newaxis] ** (e - 1.0) * e) @ a)
    return float(out) if np.ndim(t) == 0 else out


def nose_resolving_grid(n: int):
    """Uniform grid in t with its ell image; clusters points at the nose.

    The two arrays are read-only and shared by every caller asking for
    the same n, so surfaces evaluated on them reuse one power table.
    """
    if n < 2:
        raise ContractViolation("grid needs at least two points")
    return _nose_grid(operator.index(n))


@functools.lru_cache(maxsize=None)
def _nose_grid(n: int):
    t = np.linspace(0.0, 1.0, n)
    ell = t * t
    t.flags.writeable = False
    ell.flags.writeable = False
    return t, ell


def validate_airfoil(
    pair: AirfoilSurfacePair,
    grid_size: int = 201,
    *,
    sharp_trailing_edge: bool = False,
    endpoint_tol: float = 1e-9,
) -> ValidityReport:
    """Point-wise geometric checks on a grid uniform in t.

    feasible   : upper strictly above lower at every interior node
    endpoints  : |s(0)| <= tol for both surfaces; the trailing edge is
                 checked too only when declared sharp
    bounded    : all sampled heights finite; observed extrema reported
    """
    if grid_size < 3:
        raise ContractViolation("grid_size must be at least 3")
    _, ell = nose_resolving_grid(grid_size)
    up = pair.upper.height(ell)
    lo = pair.lower.height(ell)

    gap = up[1:-1] - lo[1:-1]
    feasible = bool(np.all(gap > 0.0))
    min_gap = float(np.min(gap))

    bounded = bool(np.all(np.isfinite(up)) and np.all(np.isfinite(lo)))
    fixed = abs(up[0]) <= endpoint_tol and abs(lo[0]) <= endpoint_tol
    if sharp_trailing_edge:
        fixed = fixed and abs(up[-1]) <= endpoint_tol and abs(lo[-1]) <= endpoint_tol

    return ValidityReport(
        feasible=feasible,
        min_gap=min_gap,
        endpoints_fixed=bool(fixed),
        endpoint_tol=float(endpoint_tol),
        bounded=bounded,
        lower_bound=float(np.min(lo)),
        upper_bound=float(np.max(up)),
        grid_size=int(grid_size),
        sharp_trailing_edge=bool(sharp_trailing_edge),
    )


def fit_coefficients(targets, basis: BasisSpec) -> FitResult:
    """Least-squares fit of basis coefficients to (ell, height) targets.

    Needs at least as many targets as basis terms; solved with an
    orthogonal factorization (never normal equations).
    """
    pts = np.asarray(targets, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ContractViolation("targets must be a sequence of (ell, height) pairs")
    if pts.shape[0] < basis.term_count:
        raise ContractViolation(
            f"need at least {basis.term_count} targets, got {pts.shape[0]}"
        )
    ell = _checked_coordinate(pts[:, 0], "ell")
    heights = pts[:, 1]

    design = ell[:, np.newaxis] ** basis.exponents()
    beta, _, rank, _ = np.linalg.lstsq(design, heights, rcond=None)
    if rank < basis.term_count:
        raise IllPosedFitError(
            f"design matrix rank {rank} < {basis.term_count}; "
            "targets do not determine the coefficients",
            rank=int(rank),
            required=basis.term_count,
        )
    residual = float(np.linalg.norm(design @ beta - heights))
    return FitResult(ShapeCoefficients(beta), residual, int(rank))


# Classic four-digit thickness series (unit thickness parameter, open
# trailing edge).  The "closed" variant replaces the last coefficient so
# the terms sum to zero and the trailing-edge height vanishes.
NACA4_THICKNESS_COEFFS = (0.2969, -0.1260, -0.3516, 0.2843, -0.1015)
NACA4_THICKNESS_COEFFS_CLOSED = (0.2969, -0.1260, -0.3516, 0.2843, -0.1036)


def naca_thickness_pair(
    thickness: float = 0.12,
    upper_scale: float = 1.0,
    lower_scale: float = 1.0,
    closed: bool = False,
) -> AirfoilSurfacePair:
    """Symmetric-family two-parameter pair: s_U = x1 * series, s_L = -x2 * series."""
    if thickness <= 0.0:
        raise DomainError("thickness must be positive")
    base = NACA4_THICKNESS_COEFFS_CLOSED if closed else NACA4_THICKNESS_COEFFS
    a = np.asarray(base, dtype=float)
    basis = BasisSpec(BasisKind.NACA4, 5)
    tau = 5.0 * thickness
    upper = Surface(basis, ShapeCoefficients(upper_scale * a, tau))
    lower = Surface(basis, ShapeCoefficients(-lower_scale * a, tau))
    return AirfoilSurfacePair(upper, lower)


def write_surface_table(surface: Surface, path, n: int = 201, meta: dict | None = None):
    """Two-column (ell, height) text table, 15 significant digits, LF endings."""
    _, ell = nose_resolving_grid(n)
    heights = surface.height(ell)
    with open(path, "w", newline="\n") as fh:
        for key in sorted(meta or {}):
            fh.write(f"# {key}={meta[key]}\n")
        for x, y in zip(ell, heights):
            fh.write(f"{x:.15g} {y:.15g}\n")


def write_coordinate_loop(
    pair: AirfoilSurfacePair, path, n: int = 201, name: str = "airfoil"
):
    """Closed-loop coordinate file for external mesh/CFD tools.

    Order: trailing edge -> upper surface -> leading edge -> lower
    surface -> trailing edge, with the leading edge listed once.
    """
    _, ell = nose_resolving_grid(n)
    up = pair.upper.height(ell)
    lo = pair.lower.height(ell)
    xs = np.concatenate([ell[::-1], ell[1:]])
    ys = np.concatenate([up[::-1], lo[1:]])
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{name}\n")
        for x, y in zip(xs, ys):
            fh.write(f"{x:.15g} {y:.15g}\n")
