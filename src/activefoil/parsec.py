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

:func:`solve_coefficients` decodes an (N, 11) stack of rows into one
DecodedStack; one design is the 1-row stack, and :func:`read_params`
reads a ``--params`` file into that row.  A row outside the domain fails
with a DomainError that names the first rule it breaks, by the
parameter's name in ``FIELDS``: every value finite, both crest positions
strictly inside (0, 1), a positive leading-edge radius, a non-negative
trailing-edge half-thickness.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConditioningError, ContractViolation, DomainError
from .geometry import (
    BasisKind,
    BasisSpec,
    DecodedStack,
)
from .sampling import ParameterBox, read_json_object

TERM_COUNT = 6
CONDITION_LIMIT = 1e12
# Bound on a solve's residual relative to its scale:
# ||M a - p||_inf <= RESIDUAL_LIMIT * max|M| * max|a|.
RESIDUAL_LIMIT = 1e-12

_BASIS = BasisSpec(BasisKind.HALF_INTEGER, TERM_COUNT)
_EXPS = _BASIS.exponents()

JSON_KEYS = tuple(f"x{i}" for i in range(1, 12))
# The name of each column, as a DomainError names it.
FIELDS = ("upper_crest_x", "lower_crest_x", "upper_crest_y", "lower_crest_y", "te_y",
          "te_half_thickness", "te_angle_deg", "te_wedge_deg", "upper_curvature",
          "lower_curvature", "le_radius")


def read_params(text: str) -> np.ndarray:
    """The row of a --params JSON object with a number under each of the keys x1..x11."""
    payload = read_json_object(text, dict.fromkeys(JSON_KEYS, "a number"), "parameter",
                               ContractViolation)
    return np.array([payload[key] for key in JSON_KEYS], dtype=float)


_SURFACES = ("upper", "lower")
# Messages of the condition and residual checks; the crest is ell_int, M's first entry squared.
_CHECKS = ("{surface} constraint system too ill-conditioned "
           "(cond ~ {cond:.3e} at crest position {crest:.6g})",
           "{surface} solve residual {residual:.3e} relative to max|M| max|a| exceeds {limit:g}")
# Columns of (crest position, crest height, crest curvature) per surface.
_SURFACE_COLUMNS = ((0, 2, 8), (1, 3, 9))


def _stack_systems(rows: np.ndarray):
    """(N, 2, 6, 6) matrices and (N, 2, 6) right-hand sides, upper then lower.

    Rows are admissible parameter sequences.  The trailing-edge slopes
    and the leading-edge coefficient a_1 = +/- sqrt(2 * r_le) use ``math``
    per row, so each entry has the same bits in any stack.
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
        rhs[i, 0, 5] = math.sqrt(2.0 * radius)
        rhs[i, 1, 5] = -math.sqrt(2.0 * radius)
    return matrix, rhs


# Each domain rule's message and the column it reads, in the order of _domain_errors' mask.
_RULES = (*(f"{name} must be finite" for name in FIELDS),
          *(f"{name} must lie strictly inside (0, 1), got {{}}" for name in FIELDS[:2]),
          "le_radius must be positive", "te_half_thickness must be non-negative")
_RULE_COLUMNS = (*range(len(FIELDS)), 0, 1, 10, 5)


def _domain_errors(rows: np.ndarray) -> dict:
    """Row index -> DomainError of each row outside the domain, naming the first rule it breaks."""
    crest = rows[:, :2]
    broken = np.column_stack([~np.isfinite(rows), (crest <= 0.0) | (crest >= 1.0),
                              rows[:, 10] <= 0.0, rows[:, 5] < 0.0])
    bad = np.flatnonzero(broken.any(axis=1))
    return {i: DomainError(_RULES[rule].format(rows[i, _RULE_COLUMNS[rule]].item()))
            for i, rule in zip(bad.tolist(), np.argmax(broken[bad], axis=1).tolist())}


def _solve_stack(rows: np.ndarray) -> DecodedStack:
    """Both surfaces of every row: one batched cond screen, solve and relative residual check.

    A row that fails keeps the error its one-design solve raises: the
    DomainError of its parameters, or the ConditioningError of the first
    check it breaks, upper then lower system, condition number then
    residual.  The residual is relative: ||M a - p||_inf / (max|M| * max|a|).
    """
    errors = _domain_errors(rows)
    good = np.array([i for i in range(rows.shape[0]) if i not in errors], dtype=int)
    with np.errstate(over="ignore"):  # an overflowed entry fails its own row below
        matrix, rhs = _stack_systems(rows[good])
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
    m, a = matrix[solvable], solved[solvable]
    error = np.abs((m @ a[..., np.newaxis])[..., 0] - rhs[solvable])
    residual = np.zeros(rhs.shape[:2])
    residual[solvable] = np.max(error, axis=-1) / (
        np.max(np.abs(m), axis=(-2, -1)) * np.max(np.abs(a), axis=-1))
    # upper cond, upper residual, lower cond, lower residual: the order the checks apply
    broken = np.stack([~solvable, residual > RESIDUAL_LIMIT], axis=-1).reshape(-1, 4)
    bad = np.flatnonzero(broken.any(axis=1))
    first = np.argmax(broken[bad], axis=1)
    errors.update({int(good[j]): ConditioningError(_CHECKS[check % 2].format(
        surface=_SURFACES[s], cond=cond[j, s], crest=matrix[j, s, 0, 0] ** 2.0,
        residual=residual[j, s], limit=RESIDUAL_LIMIT))
        for j, check, s in zip(bad.tolist(), first.tolist(), (first // 2).tolist())})
    coefficients = np.zeros((rows.shape[0], 2, TERM_COUNT))
    coefficients[good] = solved
    return DecodedStack(_BASIS, coefficients, errors)


def solve_coefficients(rows) -> DecodedStack:
    """Both surfaces of every row as half-integer-power series of six terms each.

    ``rows`` is an (N, 11) stack of physical rows, decoded together into a
    DecodedStack that keeps each failing row's DomainError or
    ConditioningError.  One design is the 1-row stack.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != len(JSON_KEYS):
        raise ContractViolation(f"expected an (N, 11) stack of rows, got shape {rows.shape}")
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
