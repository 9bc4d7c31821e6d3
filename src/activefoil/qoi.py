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
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import cst, parsec
from .errors import (
    ContractViolation,
    DatasetError,
    EvaluationError,
)
from .geometry import (
    AirfoilSurfacePair,
    DecodedStack,
    nose_resolving_grid,
    validate_airfoil,
    write_coordinate_loop,
)
from .sampling import denormalize, read_matrix_csv, write_matrix_csv


class QoiEvaluator(abc.ABC):
    """Scalar quantity of interest over normalized inputs."""

    name: str = "qoi"
    dim: int = 0

    @abc.abstractmethod
    def evaluate(self, x) -> float:
        """Value at one normalized parameter vector."""

    @property
    def metadata(self) -> dict:
        return {"name": self.name, "dim": self.dim}

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


def evaluate_rows(evaluator, X):
    """(values, failed) of :meth:`QoiEvaluator.evaluate_many` for any evaluator.

    An object that only has ``evaluate(x)`` is evaluated row by row.
    """
    many = getattr(evaluator, "evaluate_many", None)
    if many is None:
        return QoiEvaluator.evaluate_many(evaluator, X)
    return many(X)


def evaluate_batch(evaluator: QoiEvaluator, X, on_error: str = "raise"):
    """Evaluate rows of X; returns (values, failed_indices).

    ``on_error='skip'`` records failing rows (values NaN) instead of
    raising; ``'raise'`` wraps the first failure with its sample index.
    """
    if on_error not in ("raise", "skip"):
        raise ContractViolation("on_error must be 'raise' or 'skip'")
    values, failed = evaluate_rows(evaluator, np.atleast_2d(np.asarray(X, dtype=float)))
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


def synthetic_quadratic(hessian, linear, constant) -> SyntheticQuadratic:
    return SyntheticQuadratic(hessian, linear, constant)


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

    @property
    def metadata(self) -> dict:
        return {
            "name": self.name,
            "dim": self.dim,
            "profile": self.profile,
            "noise_std": self.noise_std,
            "noise_seed": self.noise_seed,
        }

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


def ridge(direction, profile: str = "linear",
          noise_std: float = 0.0, noise_seed: int = 0) -> Ridge:
    return Ridge(direction, profile, noise_std, noise_seed)


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
def _lift_nodes(k: int):
    """Read-only midpoint nodes ell(theta) and weights cos(theta) - 1 for k points."""
    theta = (np.arange(k) + 0.5) * (np.pi / k)
    ell = 0.5 * (1.0 - np.cos(theta))
    weight = np.cos(theta) - 1.0
    ell.flags.writeable = False
    weight.flags.writeable = False
    return ell, weight


def camber_lift(pair: AirfoilSurfacePair, quad_points: int = _LIFT_QUAD_POINTS) -> float:
    """2 * Integral_0^pi camber'(ell(theta)) (cos(theta) - 1) dtheta, midpoint rule.

    ell(theta) = (1 - cos theta) / 2; for a parabolic camber line of
    height h this evaluates to the classical 4*pi*h.  Odd under the
    upper/lower mirror swap (U, L) -> (-L, -U), and exactly zero for
    mirror-symmetric pairs (the camber slope cancels term by term).
    """
    k = int(quad_points)
    if k < 1:
        raise ContractViolation("quad_points must be positive")
    ell, weight = _lift_nodes(k)
    slope = 0.5 * (pair.upper.slope(ell) + pair.lower.slope(ell))
    return 2.0 * (np.pi / k) * float(np.sum(slope * weight))


def thickness_drag(pair: AirfoilSurfacePair, grid_size: int = 201) -> float:
    """Offset plus gain * (max thickness)^2 on a nose-resolving grid.

    Even under the upper/lower mirror swap: the gap U - L is unchanged
    by (U, L) -> (-L, -U).
    """
    if grid_size < 2:
        raise ContractViolation("grid_size must be at least 2")
    _, ell = nose_resolving_grid(grid_size)
    thickness = float(np.max(pair.upper.height(ell) - pair.lower.height(ell)))
    return PANEL_DRAG_OFFSET + PANEL_DRAG_GAIN * thickness * thickness


class PanelSurrogate(QoiEvaluator):
    """Qualitative lift-like / drag-like numbers from decoded surfaces.

    Not a flow solver: the lift-like value is a thin-airfoil-style
    weighted camber-slope integral and the drag-like value is an offset
    plus a thickness-squared penalty.  Useful for exercising the
    estimation pipeline end to end, nothing aerodynamic beyond trends.

    Objective ``"both"`` gives each design a (lift, drag) row, so a
    two-objective study decodes and validates every design once.
    """

    def __init__(self, parameterization: str, objective: str, grid_size: int = 201):
        if parameterization not in PARAMETERIZATIONS:
            raise ContractViolation(
                f"parameterization must be one of {PARAMETERIZATIONS}"
            )
        if objective not in PANEL_OBJECTIVES:
            raise ContractViolation(f"objective must be one of {PANEL_OBJECTIVES}")
        self.parameterization = parameterization
        self.objective = objective
        self.grid_size = int(grid_size)
        self.box = (parsec if parameterization == "parsec" else cst).baseline_box()
        self.dim = self.box.dim
        self.name = f"panel-{objective}-{parameterization}"

    @property
    def metadata(self) -> dict:
        return {
            "name": self.name,
            "dim": self.dim,
            "parameterization": self.parameterization,
            "objective": self.objective,
            "grid_size": self.grid_size,
            "drag_offset": PANEL_DRAG_OFFSET,
            "drag_gain": PANEL_DRAG_GAIN,
        }

    def _objectives(self, pair: AirfoilSurfacePair):
        report = validate_airfoil(pair, self.grid_size)
        if not (report.feasible and report.bounded):
            raise EvaluationError(
                f"{self.name}: decoded surfaces infeasible (min gap {report.min_gap:.3e})",
                report=report,
            )
        if self.objective == "lift":
            return camber_lift(pair)
        if self.objective == "drag":
            return thickness_drag(pair, self.grid_size)
        return camber_lift(pair), thickness_drag(pair, self.grid_size)

    def evaluate_many(self, X):
        """One decode of the whole stack, then one validation per design."""
        rows = np.atleast_2d(np.asarray(X, dtype=float))
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            return super().evaluate_many(rows)  # every row fails its shape check
        decoded = _decode(self.parameterization, denormalize(rows, self.box))
        width = (2,) if self.objective == "both" else ()
        values = np.full((rows.shape[0], *width), np.nan)
        failed = {}
        for i in range(rows.shape[0]):
            try:
                values[i] = self._objectives(decoded.pair(i))
            except Exception as exc:
                failed[i] = exc
        return values, failed

    def evaluate(self, x):
        """Value at one design: the 1-row case of :meth:`evaluate_many`."""
        values, failed = self.evaluate_many(self._checked(x)[np.newaxis])
        if failed:
            raise failed[0]
        return values[0]


def panel_surrogate(parameterization: str, grid_size: int = 201):
    """(lift-like, drag-like) evaluator pair for a parameterization."""
    return (
        PanelSurrogate(parameterization, "lift", grid_size),
        PanelSurrogate(parameterization, "drag", grid_size),
    )


class DatasetQoi(QoiEvaluator):
    """Lookup evaluator over precomputed (x, f) rows.

    Construction rejects duplicate inputs (within the lookup tolerance,
    Euclidean) that disagree on f.  A dataset without an f column loads
    as an unevaluated design set: ``has_outputs`` is False and
    evaluation raises.
    """

    def __init__(self, X, f=None, tolerance: float = 1e-9, provenance: str = ""):
        rows = np.atleast_2d(np.asarray(X, dtype=float))
        if rows.size == 0:
            raise ContractViolation("dataset must have at least one row")
        if tolerance <= 0.0:
            raise ContractViolation("tolerance must be positive")
        self.rows = rows
        self.outputs = None if f is None else np.asarray(f, dtype=float)
        if self.outputs is not None and self.outputs.shape != (rows.shape[0],):
            raise ContractViolation("f must have one value per row")
        self.tolerance = float(tolerance)
        self.provenance = str(provenance)
        self.dim = rows.shape[1]
        self.name = "dataset"
        self._tree = cKDTree(rows)
        if self.outputs is not None:
            for i, j in self._tree.query_pairs(self.tolerance):
                if abs(self.outputs[i] - self.outputs[j]) > self.tolerance:
                    raise DatasetError(
                        f"rows {i} and {j} duplicate x within {self.tolerance:g} "
                        f"but disagree on f ({self.outputs[i]!r} vs {self.outputs[j]!r})"
                    )

    @property
    def has_outputs(self) -> bool:
        return self.outputs is not None

    @property
    def metadata(self) -> dict:
        return {
            "name": self.name,
            "dim": self.dim,
            "rows": self.rows.shape[0],
            "tolerance": self.tolerance,
            "provenance": self.provenance,
            "has_outputs": self.has_outputs,
        }

    def evaluate(self, x) -> float:
        arr = self._checked(x)
        if self.outputs is None:
            raise EvaluationError("dataset has no outputs (unevaluated design set)")
        dist, idx = self._tree.query(arr)
        if dist > self.tolerance:
            raise EvaluationError(
                f"no dataset row within {self.tolerance:g} of the query "
                f"(nearest at {dist:.3e})"
            )
        return float(self.outputs[idx])


def load_dataset(path, tolerance: float = 1e-9, provenance: str | None = None) -> DatasetQoi:
    matrix, f, _, meta = read_matrix_csv(path)
    note = provenance if provenance is not None else meta.get("provenance", str(path))
    return DatasetQoi(matrix, f, tolerance=tolerance, provenance=note)


def export_designs(
    X,
    parameterization: str,
    out_dir,
    prefix: str = "design",
    grid_size: int = 201,
    meta: dict | None = None,
):
    """Write one closed-loop coordinate file per normalized design row.

    Also writes ``<prefix>_manifest.csv`` with columns row, file,
    feasible, x1..xm (17 significant digits, so re-loading reproduces
    the input matrix exactly).  Returns the manifest path.
    """
    if parameterization not in PARAMETERIZATIONS:
        raise ContractViolation(f"parameterization must be one of {PARAMETERIZATIONS}")
    import os

    rows = np.atleast_2d(np.asarray(X, dtype=float))
    box = (parsec if parameterization == "parsec" else cst).baseline_box()
    if rows.shape[1] != box.dim:
        raise ContractViolation(
            f"{parameterization} designs need {box.dim} coordinates, got {rows.shape[1]}"
        )
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, f"{prefix}_manifest.csv")
    decoded = _decode(parameterization, denormalize(rows, box))
    records = []
    for i in range(rows.shape[0]):
        pair = decoded.pair(i)
        report = validate_airfoil(pair, grid_size)
        fname = f"{prefix}_{i:04d}.dat"
        write_coordinate_loop(
            pair, os.path.join(out_dir, fname), n=grid_size, name=f"{prefix}_{i:04d}"
        )
        records.append((fname, report.feasible))

    with open(manifest_path, "w", newline="\n") as fh:
        for key in sorted(meta or {}):
            fh.write(f"# {key}={meta[key]}\n")
        labels = ",".join(f"x{j}" for j in range(1, rows.shape[1] + 1))
        fh.write(f"row,file,feasible,{labels}\n")
        for i, (fname, feasible) in enumerate(records):
            coords = ",".join(f"{v:.17g}" for v in rows[i])
            fh.write(f"{i},{fname},{int(feasible)},{coords}\n")
    return manifest_path


def read_design_manifest(path):
    """Load (matrix, files, feasible) back from an export manifest."""
    rows = []
    files = []
    feasible = []
    with open(path, newline="") as fh:
        header = None
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                if header[:3] != ["row", "file", "feasible"]:
                    raise DatasetError(
                        f"line {lineno}: manifest header must start with row,file,feasible",
                        line=lineno,
                    )
                continue
            parts = line.split(",")
            if len(parts) != len(header):
                raise DatasetError(
                    f"line {lineno}: expected {len(header)} fields, got {len(parts)}",
                    line=lineno,
                )
            try:
                files.append(parts[1])
                feasible.append(bool(int(parts[2])))
                rows.append([float(s) for s in parts[3:]])
            except ValueError as exc:
                raise DatasetError(f"line {lineno}: {exc}", line=lineno) from exc
    if header is None or not rows:
        raise DatasetError("manifest has no data rows")
    return np.asarray(rows, dtype=float), files, np.asarray(feasible, dtype=bool)
