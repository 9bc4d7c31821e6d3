"""Quantities of interest over normalized parameter vectors.

Evaluators map x in [-1, 1]^m to a scalar, deterministically: the same
input always returns the bitwise-same output.  Four families:

* synthetic quadratic  -- exact 0.5 x'Hx + v'x + c, for calibration;
* ridge                -- g(w'x / ||w||) with a linear, quadratic, or
                          exponential profile, optionally with noise
                          drawn reproducibly per sample;
* panel surrogate      -- decodes an airfoil parameterization and
                          returns a lift-like or drag-like number from
                          thin-airfoil-style camber and thickness
                          integrals (qualitative stand-in for a flow
                          solver, nothing more);
* dataset              -- looks evaluations up from a CSV of precomputed
                          rows.
"""

from __future__ import annotations

import abc
import functools
import hashlib
import math

import numpy as np

from . import cst, parsec
from .errors import (
    ContractViolation,
    DatasetError,
    EvaluationError,
)
from .geometry import DecodedStack, StackValidity, validate_airfoil
from .sampling import denormalize, read_matrix_csv


class QoiEvaluator(abc.ABC):
    """Scalar quantity of interest over normalized inputs."""

    name: str = "qoi"
    dim: int = 0

    @abc.abstractmethod
    def evaluate(self, x) -> float:
        """Value at one normalized parameter vector."""

    def _checked(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.dim,):
            raise ContractViolation(
                f"{self.name} expects a vector of length {self.dim}, got shape {arr.shape}"
            )
        return arr

    def evaluate_many(self, X):
        """Values at the rows of X and the error of each failing row.

        Returns (values, failed): ``values[i]`` is NaN where row i
        failed, and ``failed`` maps each failing row, in row order, to
        the exception its evaluation raised.  This default evaluates
        row by row; evaluators with a batched path override it.
        """
        rows = np.atleast_2d(np.asarray(X, dtype=float))
        values = np.full(rows.shape[0], np.nan)
        failed = {}
        for i, row in enumerate(rows):
            try:
                values[i] = self.evaluate(row)
            except Exception as exc:
                failed[i] = exc
        return values, failed

    def __call__(self, X):
        arr = np.asarray(X, dtype=float)
        if arr.ndim == 1:
            return self.evaluate(arr)
        values, failed = self.evaluate_many(arr)
        if failed:
            raise next(iter(failed.values()))
        return values


def evaluate_batch(evaluator: QoiEvaluator, X, on_error: str = "raise"):
    """Evaluate rows of X; returns (values, failed_indices).

    ``on_error='skip'`` records failing rows (values NaN) instead of
    raising; ``'raise'`` wraps the first failure with its sample index.
    """
    if on_error not in ("raise", "skip"):
        raise ContractViolation("on_error must be 'raise' or 'skip'")
    values, failed = evaluator.evaluate_many(np.atleast_2d(np.asarray(X, dtype=float)))
    if failed and on_error == "raise":
        i, exc = next(iter(failed.items()))
        if isinstance(exc, EvaluationError) and exc.index is None:
            exc.index = i
            raise exc
        raise EvaluationError(f"evaluation failed at sample {i}: {exc}", index=i) from exc
    return values, list(failed)


class SyntheticQuadratic(QoiEvaluator):
    def __init__(self, hessian, linear, constant):
        hess = np.asarray(hessian, dtype=float)
        lin = np.asarray(linear, dtype=float)
        if hess.ndim != 2 or hess.shape[0] != hess.shape[1]:
            raise ContractViolation("hessian must be square")
        if lin.shape != (hess.shape[0],):
            raise ContractViolation("linear term must match hessian dimension")
        scale = max(1.0, float(np.max(np.abs(hess))))
        if np.max(np.abs(hess - hess.T)) > 1e-12 * scale:
            raise ContractViolation("hessian must be symmetric")
        self.hessian = hess
        self.linear = lin
        self.constant = float(constant)
        self.dim = lin.size
        self.name = "synthetic-quadratic"

    def evaluate(self, x) -> float:
        arr = self._checked(x)
        return float(0.5 * arr @ self.hessian @ arr + self.linear @ arr + self.constant)


def seeded_quadratic(dim: int, seed: int) -> SyntheticQuadratic:
    """Reproducible random quadratic: H = (A + A') / 2, v standard normal."""
    if dim < 1:
        raise ContractViolation("dim must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    square = rng.standard_normal((dim, dim))
    return SyntheticQuadratic(0.5 * (square + square.T), rng.standard_normal(dim), 0.0)


RIDGE_PROFILES = ("linear", "quadratic", "exp")


class Ridge(QoiEvaluator):
    """f(x) = g(w'x / ||w||), constant on slices orthogonal to w.

    With ``noise_std > 0`` a reproducible perturbation is added: the
    noise is a deterministic function of (noise_seed, x), so the
    determinism contract still holds bitwise while distinct samples see
    independent-looking draws.
    """

    def __init__(self, direction, profile: str = "linear",
                 noise_std: float = 0.0, noise_seed: int = 0):
        w = np.asarray(direction, dtype=float)
        if w.ndim != 1 or w.size == 0 or not np.all(np.isfinite(w)):
            raise ContractViolation("direction must be a finite 1-D vector")
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            raise ContractViolation("direction must be nonzero")
        if profile not in RIDGE_PROFILES:
            raise ContractViolation(f"profile must be one of {RIDGE_PROFILES}")
        if noise_std < 0.0:
            raise ContractViolation("noise_std must be non-negative")
        self.direction = w / norm
        self.profile = profile
        self.noise_std = float(noise_std)
        self.noise_seed = int(noise_seed)
        self.dim = w.size
        self.name = f"ridge-{profile}"

    def _profile_value(self, u: float) -> float:
        if self.profile == "linear":
            return u
        if self.profile == "quadratic":
            return u * u
        return math.exp(u)

    def _noise(self, arr: np.ndarray) -> float:
        digest = hashlib.sha256(
            self.noise_seed.to_bytes(8, "little", signed=True) + arr.tobytes()
        ).digest()
        key = int.from_bytes(digest[:8], "little")
        rng = np.random.Generator(np.random.PCG64(key))
        return self.noise_std * float(rng.standard_normal())

    def evaluate(self, x) -> float:
        arr = self._checked(x)
        value = self._profile_value(float(self.direction @ arr))
        if self.noise_std > 0.0:
            value += self._noise(arr)
        return value


PARAMETERIZATIONS = ("parsec", "cst")
PANEL_OBJECTIVES = ("lift", "drag", "both")

# Drag-like surrogate constants: offset plus thickness-squared gain.
PANEL_DRAG_OFFSET = 0.002
PANEL_DRAG_GAIN = 0.35
_LIFT_QUAD_POINTS = 256


def _decode(parameterization: str, physical: np.ndarray) -> DecodedStack:
    """Decode a stack of physical rows in one call of the parameterization's decoder."""
    if parameterization == "parsec":
        return parsec.solve_coefficients(physical)
    return cst.surface_pair(physical)


@functools.lru_cache(maxsize=None)
def _lift_nodes():
    """Read-only midpoint nodes ell(theta) and weights cos(theta) - 1."""
    k = _LIFT_QUAD_POINTS
    theta = (np.arange(k) + 0.5) * (np.pi / k)
    ell = 0.5 * (1.0 - np.cos(theta))
    weight = np.cos(theta) - 1.0
    ell.flags.writeable = False
    weight.flags.writeable = False
    return ell, weight


def camber_lift(pair):
    """2 * Integral_0^pi camber'(ell(theta)) (cos(theta) - 1) dtheta, midpoint rule.

    ell(theta) = (1 - cos theta) / 2; for a parabolic camber line of
    height h this evaluates to the classical 4*pi*h.  Odd under the
    upper/lower mirror swap (U, L) -> (-L, -U), and exactly zero for
    mirror-symmetric pairs (the camber slope cancels term by term).

    ``pair`` is a DecodedStack, whose rows' lifts are an (N,) array with
    the bits of each row's pair (rows that failed to decode hold arbitrary
    values), or one AirfoilSurfacePair, whose lift is element 0 of its
    1-row stack's.
    """
    ell, weight = _lift_nodes()
    stack = pair if isinstance(pair, DecodedStack) else DecodedStack.of_pair(pair)
    sums = [np.sum(0.5 * (slopes[:, 0] + slopes[:, 1]) * weight, axis=-1)
            for slopes in stack.grid_blocks(ell, slope=True)]
    lift = 2.0 * (np.pi / _LIFT_QUAD_POINTS) * np.concatenate(sums)
    return lift if stack is pair else float(lift[0])


def thickness_drag(pair, grid_size: int = 201):
    """Offset plus gain * (max thickness)^2 on a nose-resolving grid.

    Even under the upper/lower mirror swap: the gap U - L is unchanged
    by (U, L) -> (-L, -U).  ``pair`` is the StackValidity of a stack
    validated on the same grid, whose row-wise maximum thickness gives an
    (N,) array, or one AirfoilSurfacePair, whose drag is element 0 of
    that of its 1-row stack validated by :func:`validate_airfoil`.
    """
    if not isinstance(pair, StackValidity):
        validity = validate_airfoil(DecodedStack.of_pair(pair), grid_size)
        return float(thickness_drag(validity, grid_size)[0])
    if pair.grid_size != grid_size:
        raise ContractViolation(
            f"validation ran on a {pair.grid_size}-point grid, not {grid_size}"
        )
    return PANEL_DRAG_OFFSET + PANEL_DRAG_GAIN * pair.thickness * pair.thickness


class PanelSurrogate(QoiEvaluator):
    """Qualitative lift-like / drag-like numbers from decoded surfaces.

    Not a flow solver: the lift-like value is a thin-airfoil-style
    weighted camber-slope integral and the drag-like value is an offset
    plus a thickness-squared penalty.  Useful for exercising the
    estimation pipeline end to end, nothing aerodynamic beyond trends.

    Objective ``"both"`` gives each design a (lift, drag) row, so a
    two-objective study decodes and validates every design once.
    Designs are validated on the default 201-point grid.  A row whose
    lift or drag is not finite fails as ``unbounded``.
    """

    def __init__(self, parameterization: str, objective: str):
        if parameterization not in PARAMETERIZATIONS:
            raise ContractViolation(
                f"parameterization must be one of {PARAMETERIZATIONS}"
            )
        if objective not in PANEL_OBJECTIVES:
            raise ContractViolation(f"objective must be one of {PANEL_OBJECTIVES}")
        self.parameterization = parameterization
        self.objective = objective
        self.box = (parsec if parameterization == "parsec" else cst).baseline_box()
        self.dim = self.box.dim
        self.name = f"panel-{objective}-{parameterization}"

    def evaluate_many(self, X):
        """One decode and one validation of the whole stack, then array reductions.

        Lift and drag are computed for every row at once; only failing
        rows are visited one by one, to attach their errors.
        """
        rows = np.atleast_2d(np.asarray(X, dtype=float))
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            return super().evaluate_many(rows)  # every row fails its shape check
        decoded = _decode(self.parameterization, denormalize(rows, self.box))
        report = validate_airfoil(decoded)
        columns = []
        with np.errstate(over="ignore", invalid="ignore"):  # such rows fail below
            if self.objective != "drag":
                columns.append(camber_lift(decoded))
            if self.objective != "lift":
                columns.append(thickness_drag(report))
        values = np.column_stack(columns)
        bad = np.flatnonzero((report.reason > 0) | ~np.all(np.isfinite(values), axis=1))
        values[bad] = np.nan
        failed = {}
        for i in bad.tolist():
            if i in decoded.errors:
                failed[i] = decoded.errors[i]
                continue
            row = report.row(i)
            detail = (f"decoded surfaces infeasible (min gap {row.min_gap:.3e})"
                      if report.reason[i] else "lift or drag is not finite (unbounded)")
            failed[i] = EvaluationError(f"{self.name}: {detail}", report=row)
        return (values if len(columns) > 1 else values[:, 0]), failed

    def evaluate(self, x):
        """Value at one design: the 1-row case of :meth:`evaluate_many`."""
        values, failed = self.evaluate_many(self._checked(x)[np.newaxis])
        if failed:
            raise failed[0]
        return values[0]


class DatasetQoi(QoiEvaluator):
    """Lookup evaluator over precomputed (x, f) rows.

    Construction rejects duplicate inputs (within the lookup tolerance,
    Euclidean) that disagree on f.  A dataset without an f column loads
    as an unevaluated design set: ``has_outputs`` is False and
    evaluation raises.

    Rows are kept sorted by their projection on a fixed unit direction
    whose weights are unequal and free of small rational relations.  Two
    points within the tolerance in Euclidean distance have projections
    within it too, so a lookup only measures the rows whose projection
    lies in that window; unlike a single coordinate, the projection does
    not collapse on gridded sweeps or constant columns.  A query takes
    the f of the nearest row, the lowest row index on ties.
    """

    def __init__(self, X, f=None, tolerance: float = 1e-9):
        rows = np.atleast_2d(np.asarray(X, dtype=float))
        if rows.size == 0:
            raise ContractViolation("dataset must have at least one row")
        if tolerance <= 0.0:
            raise ContractViolation("tolerance must be positive")
        if not np.all(np.isfinite(rows)):
            raise DatasetError("dataset inputs must be finite")
        self.rows = rows
        self.outputs = None if f is None else np.asarray(f, dtype=float)
        if self.outputs is not None and self.outputs.shape != (rows.shape[0],):
            raise ContractViolation("f must have one value per row")
        self.tolerance = float(tolerance)
        self.dim = rows.shape[1]
        self.name = "dataset"
        weights = np.random.default_rng(0).uniform(1.0, 2.0, self.dim)
        self._direction = weights / np.linalg.norm(weights)
        keys = rows @ self._direction
        self._order = np.argsort(keys, kind="stable")
        self._keys = keys[self._order]
        if self.outputs is not None:
            self._check_duplicates()

    def _reach(self, points):
        """Half-width of the projection window around each of ``points``.

        It is the tolerance padded by a relative 1e-12 of the point's size,
        so that rounding in the projection or the distance never drops a
        row within the tolerance.
        """
        return self.tolerance + 1e-12 * (self.tolerance + np.abs(points) @ self._direction)

    def _check_duplicates(self) -> None:
        keys = self._keys
        stops = np.searchsorted(keys, keys + self._reach(self.rows[self._order]), side="right")
        for pos in np.flatnonzero(stops > np.arange(1, keys.size + 1)).tolist():
            i = int(self._order[pos])
            near = self._order[pos + 1 : stops[pos]]
            dist = np.linalg.norm(self.rows[near] - self.rows[i], axis=1)
            for j in near[dist <= self.tolerance].tolist():
                if abs(self.outputs[i] - self.outputs[j]) > self.tolerance:
                    a, b = sorted((i, j))
                    raise DatasetError(
                        f"rows {a} and {b} duplicate x within {self.tolerance:g} "
                        f"but disagree on f ({self.outputs[a]!r} vs {self.outputs[b]!r})"
                    )

    @property
    def has_outputs(self) -> bool:
        return self.outputs is not None

    def evaluate(self, x) -> float:
        arr = self._checked(x)
        if self.outputs is None:
            raise EvaluationError("dataset has no outputs (unevaluated design set)")
        key, reach = arr @ self._direction, self._reach(arr)
        start = np.searchsorted(self._keys, key - reach, side="left")
        stop = np.searchsorted(self._keys, key + reach, side="right")
        near = self._order[start:stop]
        dist = np.linalg.norm(self.rows[near] - arr, axis=1)
        if not np.any(dist <= self.tolerance):
            nearest = float(np.min(np.linalg.norm(self.rows - arr, axis=1)))
            raise EvaluationError(
                f"no dataset row within {self.tolerance:g} of the query "
                f"(nearest at {nearest:.3e})"
            )
        return float(self.outputs[near[dist == dist.min()].min()])


def load_dataset(path, tolerance: float = 1e-9) -> DatasetQoi:
    matrix, f, _, _ = read_matrix_csv(path)
    return DatasetQoi(matrix, f, tolerance=tolerance)

