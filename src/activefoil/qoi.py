"""Quantities of interest over normalized parameter vectors.

Evaluators map each row x of a stack X in [-1, 1]^m to a scalar,
deterministically: a row's value has the same bits whatever stack it
sits in.  Three families:

* synthetic quadratic  -- exact 0.5 x'Hx + v'x + c, for calibration;
* ridge                -- g(w'x / ||w||) with a linear, quadratic, or
                          exponential profile, optionally with noise
                          drawn reproducibly per sample;
* panel surrogate      -- decodes an airfoil parameterization and
                          returns a lift-like or drag-like number from
                          thin-airfoil-style camber and thickness
                          integrals (qualitative stand-in for a flow
                          solver, nothing more).
"""

from __future__ import annotations

import abc

import numpy as np

from . import cst, parsec
from .errors import ContractViolation, EvaluationError
from .geometry import DecodedStack, StackValidity, validate_airfoil
from .sampling import denormalize


class QoiEvaluator(abc.ABC):
    """Scalar quantity of interest over the rows of normalized stacks."""

    name: str = "qoi"
    dim: int = 0

    @abc.abstractmethod
    def evaluate_many(self, X):
        """Values at the rows of the (N, dim) stack X and the error of each failing row.

        Returns (values, failed): ``values[i]`` is NaN where row i
        failed, and ``failed`` maps each failing row, in row order, to
        the exception its evaluation raised.  A stack of another shape
        raises a ContractViolation (see :meth:`_stack`).
        """

    def _stack(self, X) -> np.ndarray:
        rows = np.asarray(X, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise ContractViolation(
                f"{self.name} expects rows of length {self.dim}, got shape {rows.shape}"
            )
        return rows

    def evaluate(self, x):
        """Value at one design: the 1-row case of :meth:`evaluate_many`.

        A design that fails raises its row's error.
        """
        arr = np.asarray(x, dtype=float)
        if arr.ndim != 1:
            raise ContractViolation(f"{self.name} expects one design, got shape {arr.shape}")
        values, failed = self.evaluate_many(arr[np.newaxis])
        if failed:
            raise failed[0]
        return values[0]

    def __call__(self, X):
        """Values at the rows of X, or at the one design X; a failure raises."""
        values, _ = evaluate_batch(self, X)
        return values[0] if np.ndim(X) == 1 else values


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

    def evaluate_many(self, X):
        """Elementwise products summed along the last axis, so no row's bits
        depend on its stack (a BLAS product's blocking does).  Hx is formed
        for blocks of rows whose (rows, m, m) products stay near 1 MB."""
        rows = self._stack(X)
        block = max(1, 2**17 // self.hessian.size)  # 2**17 doubles are 1 MB
        hx = np.empty_like(rows)
        for i in range(0, len(rows), block):
            (rows[i:i + block, np.newaxis, :] * self.hessian).sum(axis=-1, out=hx[i:i + block])
        quadratic = 0.5 * (hx * rows).sum(axis=-1)
        return quadratic + (rows * self.linear).sum(axis=-1) + self.constant, {}


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
    noise is a deterministic function of (noise_seed, x rounded to the
    grid 2^-20), so the determinism contract still holds bitwise while
    distinct samples see independent-looking draws.  Two constructions
    of one design that differ in the last bits, such as a stacked and a
    per-point product, draw the same noise unless a coordinate lies
    within an ulp of a grid midpoint: for |x| < 1 that happens with
    probability about 2^-32 per coordinate.
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

    def _noise(self, rows: np.ndarray) -> np.ndarray:
        """One standard normal per row, times noise_std, keyed on the rounded row.

        Each coordinate's rounded bits (+0.0 folds -0.0 into 0.0) pass
        through SplitMix64 with a per-coordinate key derived from the
        seed; the XOR of the results, mixed again, gives two uniforms for
        a Box-Muller draw.
        """
        cells = (np.rint(rows * 2.0 ** 20) + 0.0).view(np.uint64)
        lanes = _splitmix64(np.arange(self.dim, dtype=np.uint64)
                            + np.uint64(self.noise_seed % 2 ** 64))
        key = _splitmix64(np.bitwise_xor.reduce(_splitmix64(cells ^ lanes), axis=-1))
        u1 = (key >> 11) * 2.0 ** -53
        u2 = (_splitmix64(key) >> 11) * 2.0 ** -53
        return self.noise_std * np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)

    def evaluate_many(self, X):
        """The projection is an elementwise product summed along the last axis,
        so no row's bits depend on its stack (a BLAS product's blocking does)."""
        rows = self._stack(X)
        u = (rows * self.direction).sum(axis=-1)
        values = (u if self.profile == "linear"
                  else u * u if self.profile == "quadratic" else np.exp(u))
        if self.noise_std > 0.0:
            values = values + self._noise(rows)
        return values, {}


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 output function of z, elementwise with wrapping uint64 arithmetic."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


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
    k = _LIFT_QUAD_POINTS
    theta = (np.arange(k) + 0.5) * (np.pi / k)
    ell = 0.5 * (1.0 - np.cos(theta))  # midpoint nodes
    weight = np.cos(theta) - 1.0
    stack = pair if isinstance(pair, DecodedStack) else DecodedStack.of_pair(pair)
    sums = [np.sum(0.5 * (slopes[:, 0] + slopes[:, 1]) * weight, axis=-1)
            for slopes in stack.grid_blocks(ell, slope=True)]
    lift = 2.0 * (np.pi / k) * np.concatenate(sums)
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
        rows = self._stack(X)
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
