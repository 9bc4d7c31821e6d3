"""Crest-and-edge airfoil parameterization (PARSEC family).

Eleven physically meaningful parameters fix each surface of the airfoil
through a six-term half-integer-power series

    s(ell) = sum_{j=1..6} a_j * ell**(j - 1/2)

whose coefficients solve a 6x6 linear equality-constraint system: crest
interpolation, trailing-edge height, zero crest slope, trailing-edge
slope, crest curvature, and the leading-edge radius through the first
coefficient ``a_1 = +/- sqrt(2 * r_le)`` (plus for the upper surface).

Parameter layout (JSON keys x1..x11):

    x1  upper crest chordwise position      x7  trailing-edge direction [deg]
    x2  lower crest chordwise position      x8  trailing-edge wedge half-angle [deg]
    x3  upper crest height                  x9  upper crest curvature
    x4  lower crest height                  x10 lower crest curvature
    x5  trailing-edge height offset         x11 leading-edge radius
    x6  trailing-edge half-thickness

Convention note: the two trailing-edge angles enter as slopes

    ds_U/dell(1) = tan((x7 - x8) * pi / 180)
    ds_L/dell(1) = tan((x7 + x8) * pi / 180)

i.e. x7 steers the mean camber direction at the trailing edge and x8
opens the wedge.  Other sign/offset conventions exist in the wild; all
results in this package are self-consistent with the one above.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConditioningError, ContractViolation, DomainError
from .geometry import (
    BasisKind,
    BasisSpec,
    DecodedStack,
)
from .sampling import ParameterBox, _freeze

TERM_COUNT = 6
CONDITION_LIMIT = 1e12
RESIDUAL_LIMIT = 1e-10

_BASIS = BasisSpec(BasisKind.HALF_INTEGER, TERM_COUNT)
_EXPS = _BASIS.exponents()


@dataclass(frozen=True)
class ParsecParams:
    upper_crest_x: float
    lower_crest_x: float
    upper_crest_y: float
    lower_crest_y: float
    te_y: float
    te_half_thickness: float
    te_angle_deg: float
    te_wedge_deg: float
    upper_curvature: float
    lower_curvature: float
    le_radius: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not np.isfinite(value):
                raise DomainError(f"{f.name} must be finite")
            _freeze(self, **{f.name: float(value)})
        for name in ("upper_crest_x", "lower_crest_x"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise DomainError(f"{name} must lie strictly inside (0, 1), got {value}")
        if self.le_radius <= 0.0:
            raise DomainError("le_radius must be positive")
        if self.te_half_thickness < 0.0:
            raise DomainError("te_half_thickness must be non-negative")

    @classmethod
    def from_sequence(cls, values) -> "ParsecParams":
        vals = list(values)
        if len(vals) != 11:
            raise ContractViolation(f"expected 11 parameters, got {len(vals)}")
        return cls(*vals)

    @classmethod
    def from_mapping(cls, mapping) -> "ParsecParams":
        missing = [k for k in JSON_KEYS if k not in mapping]
        if missing:
            raise ContractViolation(f"missing parameter keys: {missing}")
        return cls.from_sequence([mapping[k] for k in JSON_KEYS])

    def to_sequence(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]

    def to_mapping(self) -> dict:
        return dict(zip(JSON_KEYS, self.to_sequence()))

    def to_json(self) -> str:
        return json.dumps(self.to_mapping(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ParsecParams":
        return cls.from_mapping(json.loads(text))


JSON_KEYS = tuple(f"x{i}" for i in range(1, 12))


@dataclass(frozen=True, eq=False)
class ConstraintSystem:
    matrix: np.ndarray
    rhs: np.ndarray
    surface: str


def leading_edge_coefficient(radius: float, surface: str) -> float:
    """First series coefficient from the leading-edge radius: +/- sqrt(2 * radius)."""
    if radius <= 0.0:
        raise DomainError("leading-edge radius must be positive")
    root = math.sqrt(2.0 * radius)
    if surface == "upper":
        return root
    if surface == "lower":
        return -root
    raise ContractViolation(f"surface must be 'upper' or 'lower', got {surface!r}")


_SURFACES = ("upper", "lower")
# Columns of (crest position, crest height, crest curvature) per surface.
_SURFACE_COLUMNS = ((0, 2, 8), (1, 3, 9))


def _stack_systems(rows: np.ndarray):
    """(N, 2, 6, 6) matrices and (N, 2, 6) right-hand sides, upper then lower.

    Rows are admissible parameter sequences.  The trailing-edge slopes
    and the leading-edge coefficient use ``math`` per row, so each
    entry carries the bits of the one-design system.
    """
    n = rows.shape[0]
    e = _EXPS
    matrix = np.empty((n, 2, TERM_COUNT, TERM_COUNT))
    rhs = np.zeros((n, 2, TERM_COUNT))
    for s, (crest_x, crest_y, curvature) in enumerate(_SURFACE_COLUMNS):
        ell = rows[:, crest_x, np.newaxis]
        matrix[:, s, 0] = ell**e                            # height at the crest
        matrix[:, s, 1] = 1.0                               # height at the trailing edge
        matrix[:, s, 2] = e * ell ** (e - 1.0)              # slope at the crest (set to zero)
        matrix[:, s, 3] = e                                 # slope at the trailing edge
        matrix[:, s, 4] = e * (e - 1.0) * ell ** (e - 2.0)  # curvature at the crest
        matrix[:, s, 5] = np.eye(TERM_COUNT)[0]             # leading-edge radius via a_1
        rhs[:, s, 0] = rows[:, crest_y]
        rhs[:, s, 4] = rows[:, curvature]
    rhs[:, 0, 1] = rows[:, 4] + rows[:, 5]
    rhs[:, 1, 1] = rows[:, 4] - rows[:, 5]
    for i, (angle, wedge, radius) in enumerate(rows[:, [6, 7, 10]].tolist()):
        rhs[i, 0, 3] = math.tan(math.radians(angle - wedge))
        rhs[i, 1, 3] = math.tan(math.radians(angle + wedge))
        rhs[i, 0, 5] = leading_edge_coefficient(radius, "upper")
        rhs[i, 1, 5] = leading_edge_coefficient(radius, "lower")
    return matrix, rhs


def build_constraint_system(params: ParsecParams, surface: str) -> ConstraintSystem:
    """Assemble the 6x6 system M a = p for one surface."""
    if surface not in _SURFACES:
        raise ContractViolation(f"surface must be 'upper' or 'lower', got {surface!r}")
    matrix, rhs = _stack_systems(np.array([params.to_sequence()]))
    s = _SURFACES.index(surface)
    return ConstraintSystem(matrix=matrix[0, s], rhs=rhs[0, s], surface=surface)


def _check_solution(surface: str, matrix: np.ndarray, cond: float, residual: float) -> None:
    """Raise the ConditioningError of a solved system that cannot be trusted."""
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        ell_int = matrix[0, 0] ** 2.0  # first row is ell_int ** 1/2, ...
        raise ConditioningError(
            f"{surface} constraint system too ill-conditioned "
            f"(cond ~ {cond:.3e} at crest position {ell_int:.6g})"
        )
    if residual > RESIDUAL_LIMIT:
        raise ConditioningError(
            f"{surface} solve residual {residual:.3e} exceeds {RESIDUAL_LIMIT:g}"
        )


def _domain_errors(rows: np.ndarray) -> dict:
    """Row index -> the DomainError ParsecParams raises, for inadmissible rows."""
    bad = ~np.all(np.isfinite(rows), axis=1)
    bad |= np.any((rows[:, :2] <= 0.0) | (rows[:, :2] >= 1.0), axis=1)
    bad |= (rows[:, 10] <= 0.0) | (rows[:, 5] < 0.0)
    errors = {}
    for i in np.flatnonzero(bad).tolist():
        try:
            ParsecParams.from_sequence(rows[i])
        except DomainError as exc:
            errors[i] = exc
    return errors


def _solve_stack(rows: np.ndarray) -> DecodedStack:
    """Both surfaces of every row: one batched cond screen, solve and residual check.

    A row that fails keeps the error its one-design solve raises: the
    DomainError of its parameters, or the first ConditioningError of
    its upper then lower system.
    """
    errors = _domain_errors(rows)
    good = np.array([i for i in range(rows.shape[0]) if i not in errors], dtype=int)
    matrix, rhs = _stack_systems(rows[good])
    # An overflowed entry (a crest within ~1e-200 of the nose) gets its
    # condition number on its own, so one such row cannot fail the stack.
    finite = np.all(np.isfinite(matrix), axis=(-2, -1))
    cond = np.full(finite.shape, np.inf)
    cond[finite] = np.linalg.cond(matrix[finite], "fro")
    # The Frobenius condition number bounds the 2-norm one from above at
    # about half its cost, and clears a system at half the limit, a margin
    # for the rounding of its inverse; the others get the exact number.
    exact = finite & ~(cond <= CONDITION_LIMIT / 2)
    cond[exact] = np.linalg.cond(matrix[exact])
    solvable = finite & (cond <= CONDITION_LIMIT)
    solved = np.zeros(rhs.shape)
    solved[solvable] = np.linalg.solve(matrix[solvable], rhs[solvable][..., np.newaxis])[..., 0]
    residual = np.zeros(rhs.shape[:2])
    residual[solvable] = np.max(
        np.abs((matrix[solvable] @ solved[solvable][..., np.newaxis])[..., 0] - rhs[solvable]),
        axis=-1,
    )
    trusted = np.all(solvable & (residual <= RESIDUAL_LIMIT), axis=1)
    for j in np.flatnonzero(~trusted).tolist():
        try:
            for s, surface in enumerate(_SURFACES):
                c = cond[j, s] if finite[j, s] else np.linalg.cond(matrix[j, s])
                _check_solution(surface, matrix[j, s], c, residual[j, s])
        except Exception as exc:
            errors[int(good[j])] = exc
    coefficients = np.zeros((rows.shape[0], 2, TERM_COUNT))
    coefficients[good] = solved
    return DecodedStack(_BASIS, coefficients, errors)


def solve_coefficients(params):
    """Solve both surfaces; returns half-integer-power series of six terms each.

    ``params`` is one ParsecParams, whose AirfoilSurfacePair is returned
    (raising its DomainError or ConditioningError), or an (N, 11) stack
    of physical rows, decoded together into a DecodedStack that keeps
    each failing row's error.  One design is the 1-row stack.
    """
    if isinstance(params, ParsecParams):
        return _solve_stack(np.array([params.to_sequence()])).pair(0)
    rows = np.asarray(params, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != len(JSON_KEYS):
        raise ContractViolation(
            f"expected one ParsecParams or an (N, 11) stack of rows, got shape {rows.shape}"
        )
    return _solve_stack(rows)


# +/-20% box around parameters fitted to the NACA 0012 (upper/lower
# crest at 30.25% chord, half-thickness 0.06).  Stored literally with
# each interval already in (lower, upper) order; the trailing-edge
# height row is symmetric about zero so the box cannot be regenerated
# from its centre with make_box.
_BASELINE_LOWER = (0.242, 0.242, 0.048, -0.072, -0.004, 0.008,
                   -3.335, 7.4, -0.6, 0.4, 0.012)
_BASELINE_UPPER = (0.363, 0.363, 0.072, -0.048, 0.004, 0.012,
                   -2.223, 11.1, -0.4, 0.6, 0.018)


def baseline_box() -> ParameterBox:
    """Built-in parameter box around the NACA-0012 fit (CLI name parsec-table2)."""
    return ParameterBox(
        lower=np.array(_BASELINE_LOWER),
        upper=np.array(_BASELINE_UPPER),
        labels=JSON_KEYS,
    )


def baseline_center() -> ParsecParams:
    box = baseline_box()
    return ParsecParams.from_sequence(0.5 * (box.lower + box.upper))
