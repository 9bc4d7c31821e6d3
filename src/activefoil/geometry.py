"""Polynomial shape functions for airfoil surfaces.

An airfoil boundary splits into an upper surface ``s_U`` and a lower
surface ``s_L``, each a linear combination of basis functions of
the chord fraction ``ell`` in ``[0, 1]`` (leading edge at 0, trailing
edge at 1).  Two exponent families cover the parameterizations used in
this package:

``naca4-like``
    ``sqrt(ell), ell, ell**2, ell**3, ell**4`` -- the classic four-digit
    thickness series; exactly five terms.
``half-integer-powers``
    ``ell**(j - 1/2)`` for ``j = 1..k``, which is ``t**(2j - 1)`` in the
    nose-resolving coordinate ``t = sqrt(ell)``.  PARSEC and CST both
    decode into this common series.

The one decoded form is the :class:`DecodedStack`: the (N, 2, k)
coefficients of N designs, upper then lower surface.  One design is the
1-row stack, and :func:`validate_airfoil` checks every row into one
:class:`StackValidity`.

Every basis term vanishes at the leading edge.  A nonzero leading
square-root term gives the round nose: heights grow like a multiple of
``sqrt(ell)`` and the slope ``ds/dell`` is singular at ``ell = 0``.
The chain rule

    ds/dell = (1 / (2 sqrt(ell))) * ds/dt

moves derivatives between the two coordinates, and grids uniform in
``t`` keep the nose region resolved where uniform-``ell`` grids do not.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import (
    ConditioningError,
    ContractViolation,
    DomainError,
    SingularityError,
)
from .sampling import _freeze


class BasisKind(str, Enum):
    NACA4 = "naca4-like"
    HALF_INTEGER = "half-integer-powers"


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
        return np.arange(1, self.term_count + 1) - 0.5

    def exponents_t(self) -> np.ndarray:
        """Exponents of t = sqrt(ell) for each term."""
        return 2.0 * self.exponents()


# Rows per block when a decoded stack is evaluated on a grid, so each
# block's (B, 2, G) values stay a few hundred KB whatever the stack size.
STACK_BLOCK_ROWS = 128


@dataclass(frozen=True, eq=False)
class DecodedStack:
    """Surface coefficients decoded from a stack of designs, one entry per row.

    ``coefficients[i]`` holds the upper and lower series of row i in
    ``basis``, an (N, 2, basis.term_count) array.  ``errors`` maps each
    row that failed to decode, in row order, to the exception the decode
    of that row alone, its 1-row stack, records; a row whose coefficients
    are not finite fails here.
    """

    basis: BasisSpec
    coefficients: np.ndarray
    errors: dict

    def __post_init__(self):
        coefficients = np.asarray(self.coefficients, dtype=float)
        if coefficients.ndim != 3 or coefficients.shape[1:] != (2, self.basis.term_count):
            raise ContractViolation(f"coefficients must have shape (N, 2, "
                                    f"{self.basis.term_count}), got {coefficients.shape}")
        errors = dict(self.errors)
        finite = np.all(np.isfinite(coefficients), axis=(1, 2))
        for i in np.flatnonzero(~finite).tolist():
            errors.setdefault(i, ContractViolation("coefficients must be finite"))
        _freeze(self, coefficients=coefficients, errors=dict(sorted(errors.items())))

    def __len__(self) -> int:
        return self.coefficients.shape[0]

    def grid_blocks(self, ell, slope: bool = False):
        """Values of every row on ``ell``, one block of STACK_BLOCK_ROWS rows at a time.

        ``values[b, s]`` is the height, or the slope, of surface s (upper,
        lower) of the block's row b at every point of ``ell``.  The one
        broadcast product per block runs one matrix-vector product per row
        and surface on the grid's power table, built once per call, the
        same BLAS call as :func:`eval_shape`, so each row has the bits of
        its 1-row stack.  Rows that failed to decode are evaluated as well;
        callers mask them.  An empty stack gives one empty block.
        """
        table = _power_table(self.basis, ell, slope)
        for start in range(0, max(len(self), 1), STACK_BLOCK_ROWS):
            coef = self.coefficients[start:start + STACK_BLOCK_ROWS, :, :, np.newaxis]
            with np.errstate(invalid="ignore", over="ignore"):
                yield np.matmul(table, coef)[..., 0]


# Per-row outcome codes of a stacked validation, indexed by StackValidity.reason.
# A decode error takes precedence, then non-finite heights, then crossing
# surfaces.  "contract" covers every other decode error (non-finite
# coefficients).
REASONS = ("ok", "infeasible", "unbounded", "domain", "conditioning", "contract")


def _decode_reason(exc: Exception) -> int:
    if isinstance(exc, ConditioningError):
        return REASONS.index("conditioning")
    if isinstance(exc, DomainError):
        return REASONS.index("domain")
    return REASONS.index("contract")


@dataclass(frozen=True, eq=False)
class StackValidity:
    """Outcome of :func:`validate_airfoil` on every row of a DecodedStack.

    The per-row arrays hold what :meth:`row` reports for one design, plus
    each row's maximum thickness on the grid and its ``reason`` code (an
    index into REASONS; 0 is a valid row).  ``feasible`` and
    ``bounded`` are single truth values over every row; a row that failed
    to decode counts as neither.
    """

    feasible_rows: np.ndarray
    min_gap: np.ndarray
    endpoints_fixed: np.ndarray
    bounded_rows: np.ndarray
    lower_bound: np.ndarray
    upper_bound: np.ndarray
    thickness: np.ndarray
    reason: np.ndarray
    endpoint_tol: float
    grid_size: int
    sharp_trailing_edge: bool

    def __post_init__(self):
        _freeze(self, **{f.name: getattr(self, f.name) for f in fields(self)})

    @property
    def feasible(self) -> bool:
        return bool(np.all(self.feasible_rows))

    @property
    def bounded(self) -> bool:
        return bool(np.all(self.bounded_rows))

    def row(self, i: int) -> dict:
        """Report of row i, the keys ``shapes`` and ``validate`` write, equal to row 0 of
        ``validate_airfoil`` on its 1-row stack."""
        return {
            "feasible": bool(self.feasible_rows[i]),
            "min_gap": float(self.min_gap[i]),
            "endpoints_fixed": bool(self.endpoints_fixed[i]),
            "endpoint_tol": self.endpoint_tol,
            "bounded": bool(self.bounded_rows[i]),
            "lower_bound": float(self.lower_bound[i]),
            "upper_bound": float(self.upper_bound[i]),
            "grid_size": self.grid_size,
            "sharp_trailing_edge": self.sharp_trailing_edge,
        }


def _matched_values(coeffs, basis: BasisSpec) -> np.ndarray:
    """The coefficient row ``coeffs`` as a 1-D array of ``basis.term_count`` values."""
    a = np.asarray(coeffs, dtype=float)
    if a.shape != (basis.term_count,):
        raise ContractViolation(
            f"coefficient row of shape {a.shape} does not match "
            f"basis term count {basis.term_count}"
        )
    return a


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


def eval_shape(coeffs, basis: BasisSpec, ell):
    """Surface height at chord fraction ``ell`` (scalar or array).

    Every basis term vanishes at ell = 0, so the leading edge height is
    exactly zero for both kinds.
    """
    a = _matched_values(coeffs, basis)
    out = _power_table(basis, ell, slope=False) @ a
    return float(out) if np.ndim(ell) == 0 else out


def eval_shape_t(coeffs, basis: BasisSpec, t):
    """Surface height as a function of t = sqrt(ell).

    For the half-integer series the t-form has purely odd powers with
    the same coefficients; the naca4-like series maps to
    ``t, t**2, t**4, t**6, t**8``.
    """
    a = _matched_values(coeffs, basis)
    arr = _checked_coordinate(t, "t")
    out = (arr[..., np.newaxis] ** basis.exponents_t()) @ a
    return float(out) if np.ndim(t) == 0 else out


def shape_derivative(coeffs, basis: BasisSpec, ell):
    """Analytic slope ds/dell for ell in (0, 1].

    Raises :class:`SingularityError` at ell = 0: the square-root term
    of a round-nosed surface has unbounded slope there.
    """
    a = _matched_values(coeffs, basis)
    out = _power_table(basis, ell, slope=True) @ a
    return float(out) if np.ndim(ell) == 0 else out


def shape_derivative_t(coeffs, basis: BasisSpec, t):
    """Analytic slope ds/dt; finite on the whole of [0, 1].

    Relates to the ell-derivative by ds/dell = ds/dt / (2 sqrt(ell)).
    """
    a = _matched_values(coeffs, basis)
    arr = _checked_coordinate(t, "t")
    e = basis.exponents_t()
    out = (arr[..., np.newaxis] ** (e - 1.0) * e) @ a
    return float(out) if np.ndim(t) == 0 else out


def nose_resolving_grid(n: int):
    """Uniform grid of n >= 2 points in t with its ell image; clusters points at the nose."""
    if n < 2:
        raise ContractViolation("grid needs at least two points")
    t = np.linspace(0.0, 1.0, operator.index(n))
    return t, t * t


# Largest |height| at a checked endpoint that still counts as fixed at zero.
ENDPOINT_TOL = 1e-9


def _surface_checks(up, lo, sharp_trailing_edge: bool) -> dict:
    """Row-wise checks on the heights (..., G) of both surfaces on one grid.

    The arrays it returns are named as the fields of a StackValidity.
    """
    gap = up[..., 1:-1] - lo[..., 1:-1]
    ends = [0, -1] if sharp_trailing_edge else [0]
    return {
        "feasible_rows": np.all(gap > 0.0, axis=-1),
        "min_gap": np.min(gap, axis=-1),
        "endpoints_fixed": (np.all(np.abs(up[..., ends]) <= ENDPOINT_TOL, axis=-1)
                            & np.all(np.abs(lo[..., ends]) <= ENDPOINT_TOL, axis=-1)),
        "bounded_rows": np.all(np.isfinite(up), axis=-1) & np.all(np.isfinite(lo), axis=-1),
        "lower_bound": np.min(lo, axis=-1),
        "upper_bound": np.max(up, axis=-1),
        "thickness": np.max(up - lo, axis=-1),
    }


def validate_airfoil(stack: DecodedStack, grid_size: int = 201, *,
                     sharp_trailing_edge: bool = False) -> StackValidity:
    """Point-wise geometric checks of every row on a grid uniform in t.

    feasible   : upper strictly above lower at every interior node
    endpoints  : |s(0)| <= ENDPOINT_TOL for both surfaces; the trailing
                 edge is checked too only when declared sharp
    bounded    : all sampled heights finite; observed extrema reported

    The rows are checked block by block into one StackValidity.
    """
    if grid_size < 3:
        raise ContractViolation("grid_size must be at least 3")
    _, ell = nose_resolving_grid(grid_size)
    blocks = [_surface_checks(heights[:, 0], heights[:, 1], sharp_trailing_edge)
              for heights in stack.grid_blocks(ell)]
    rows = {name: np.concatenate([block[name] for block in blocks]) for name in blocks[0]}
    reason = np.where(rows["feasible_rows"], 0, REASONS.index("infeasible")).astype(np.int8)
    reason[~rows["bounded_rows"]] = REASONS.index("unbounded")
    for i, exc in stack.errors.items():
        reason[i] = _decode_reason(exc)
        rows["feasible_rows"][i] = rows["bounded_rows"][i] = False
    return StackValidity(
        **rows,
        reason=reason,
        endpoint_tol=ENDPOINT_TOL,
        grid_size=ell.size,
        sharp_trailing_edge=bool(sharp_trailing_edge),
    )


# Classic four-digit thickness series (unit thickness parameter, open
# trailing edge).  The "closed" variant replaces the last coefficient so
# the terms sum to zero and the trailing-edge height vanishes.
NACA4_THICKNESS_COEFFS = (0.2969, -0.1260, -0.3516, 0.2843, -0.1015)
NACA4_THICKNESS_COEFFS_CLOSED = (0.2969, -0.1260, -0.3516, 0.2843, -0.1036)


def naca_thickness_pair(thickness: float = 0.12, closed: bool = False) -> DecodedStack:
    """1-row stack of the symmetric family s_U = tau * series, s_L = -tau * series.

    tau = 5 * thickness is folded into the coefficient values.
    """
    if thickness <= 0.0:
        raise DomainError("thickness must be positive")
    base = NACA4_THICKNESS_COEFFS_CLOSED if closed else NACA4_THICKNESS_COEFFS
    a = np.asarray(base, dtype=float)
    tau = 5.0 * thickness
    return DecodedStack(BasisSpec(BasisKind.NACA4, 5), np.array([[tau * a, -tau * a]]), {})


def write_coordinate_loop(stack: DecodedStack, path, n: int = 201, name: str = "airfoil"):
    """Closed-loop coordinate file of row 0 of ``stack`` for external mesh/CFD tools.

    Order: trailing edge -> upper surface -> leading edge -> lower
    surface -> trailing edge, with the leading edge listed once.  The
    first line is ``name``.
    """
    _, ell = nose_resolving_grid(n)
    up, lo = next(stack.grid_blocks(ell))[0]
    xs = np.concatenate([ell[::-1], ell[1:]])
    ys = np.concatenate([up[::-1], lo[1:]])
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{name}\n")
        for x, y in zip(xs, ys):
            fh.write(f"{x:.15g} {y:.15g}\n")
