"""Shadow projections, link-function fits, and Pareto-segment studies.

Once an active basis W1 is in hand, samples project to shadow
coordinates y = W1' x; a low-order polynomial in y (the link function)
summarizes f; and for a two-column drag basis the segment joining the
single-objective minimizers sweeps out candidate trade-off designs
x = W1 y, which the fitted surfaces then score.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolation, IllPosedFitError
from .activesubspace import SubspacePartition
from .sampling import _freeze, write_table

# Box-membership slack for reconstructed designs.
_FEASIBILITY_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class ShadowData:
    """Active coordinates Y = X W1 with the outputs they shadow."""

    coords: np.ndarray
    outputs: np.ndarray
    basis: np.ndarray
    labels: tuple

    def __post_init__(self):
        y = np.array(self.coords, dtype=float)
        f = np.array(self.outputs, dtype=float)
        w = np.array(self.basis, dtype=float)
        if y.ndim != 2 or f.shape != (y.shape[0],):
            raise ContractViolation("coords must be N x n with one output per row")
        if w.ndim != 2 or w.shape[1] != y.shape[1]:
            raise ContractViolation("basis must be m x n matching the coords")
        labels = tuple(self.labels) if self.labels else tuple(
            f"y{i}" for i in range(1, y.shape[1] + 1)
        )
        if len(labels) != y.shape[1]:
            raise ContractViolation("one label per active coordinate required")
        _freeze(self, coords=y, outputs=f, basis=w, labels=labels)

    @property
    def n(self) -> int:
        return self.coords.shape[1]


def shadow_project(X, f, basis, labels=None) -> ShadowData:
    """Project samples onto an active basis, keeping outputs row-for-row."""
    rows = np.atleast_2d(np.asarray(X, dtype=float))
    w = np.asarray(basis, dtype=float)
    if w.ndim == 1:
        w = w[:, np.newaxis]
    if w.shape[0] != rows.shape[1]:
        raise ContractViolation(
            f"basis rows {w.shape[0]} must match sample dimension {rows.shape[1]}"
        )
    return ShadowData(coords=rows @ w, outputs=np.asarray(f, dtype=float),
                      basis=w, labels=labels)


def write_shadow_csv(shadow: ShadowData, path, meta=None):
    """CSV schema y1[,y2],f; only 1-D and 2-D shadows are exported."""
    if shadow.n > 2:
        raise ContractViolation("shadow export supports at most two active coordinates")
    write_table(path, ",".join([*shadow.labels, "f"]),
                np.column_stack([shadow.coords, shadow.outputs]), meta)


def _monomial_powers(n_vars: int, degree: int):
    powers = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(n_vars), total):
            p = [0] * n_vars
            for idx in combo:
                p[idx] += 1
            powers.append(tuple(p))
    return tuple(powers)


def _monomial_design(Y: np.ndarray, powers) -> np.ndarray:
    cols = [np.prod(Y**np.asarray(p, dtype=float), axis=1) for p in powers]
    return np.column_stack(cols)


@dataclass(frozen=True, eq=False)
class ResponseSurface:
    """Polynomial link function g(y) over a fixed active basis."""

    basis: np.ndarray
    degree: int
    powers: tuple
    coefficients: np.ndarray
    residual_rms: float
    r_squared: float

    def predict_active(self, Y):
        y = np.atleast_2d(np.asarray(Y, dtype=float))
        if y.shape[1] != self.basis.shape[1]:
            raise ContractViolation(
                f"expected {self.basis.shape[1]} active coordinates, got {y.shape[1]}"
            )
        out = _monomial_design(y, self.powers) @ self.coefficients
        return float(out[0]) if np.ndim(Y) == 1 else out

    def predict(self, X):
        rows = np.atleast_2d(np.asarray(X, dtype=float))
        out = self.predict_active(rows @ self.basis)
        return float(out[0]) if np.ndim(X) == 1 else out

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "powers": [list(p) for p in self.powers],
            "coefficients": [float(v) for v in self.coefficients],
            "basis": [[float(v) for v in row] for row in self.basis],
            "residual_rms": self.residual_rms,
            "r_squared": self.r_squared,
        }


def fit_link_function(shadow: ShadowData, degree: int) -> ResponseSurface:
    """Least-squares polynomial of total degree <= degree in the shadow coords.

    Reports the in-sample residual RMS and R^2 (R^2 = 1 when the
    outputs are constant, which the constant term fits exactly).
    """
    if degree < 0:
        raise ContractViolation("degree must be non-negative")
    powers = _monomial_powers(shadow.n, degree)
    design = _monomial_design(shadow.coords, powers)
    n_rows, n_cols = design.shape
    if n_rows < n_cols:
        raise ContractViolation(
            f"need at least {n_cols} samples for degree {degree} in {shadow.n} variables"
        )
    beta, _, rank, _ = np.linalg.lstsq(design, shadow.outputs, rcond=None)
    if rank < n_cols:
        raise IllPosedFitError(
            f"link design matrix rank {rank} < {n_cols}", rank=int(rank), required=n_cols
        )
    resid = design @ beta - shadow.outputs
    rms = float(np.linalg.norm(resid) / np.sqrt(n_rows))
    ss_res = float(resid @ resid)
    centered = shadow.outputs - shadow.outputs.mean()
    ss_tot = float(centered @ centered)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ResponseSurface(
        basis=shadow.basis,
        degree=int(degree),
        powers=powers,
        coefficients=beta,
        residual_rms=rms,
        r_squared=r2,
    )


def cube_minimum(w):
    """Minimum of w'x over [-1, 1]^m: value -||w||_1 at the vertex -sign(w).

    Zero components have no effect on the value; their vertex entries
    are fixed at +1 so the minimizer is deterministic.
    """
    vec = np.asarray(w, dtype=float)
    if vec.ndim != 1 or vec.size == 0 or not np.all(np.isfinite(vec)):
        raise ContractViolation("w must be a finite 1-D vector")
    vertex = np.where(vec > 0.0, -1.0, 1.0)
    value = -float(np.sum(np.abs(vec)))
    return value, vertex


@dataclass(frozen=True, eq=False)
class ParetoSegment:
    """Designs along the segment joining the single-objective minimizers."""

    gamma: np.ndarray
    coords: np.ndarray
    designs: np.ndarray
    feasible: np.ndarray
    lift: np.ndarray | None = None
    drag: np.ndarray | None = None


def pareto_segment(w1, w2, gamma_count: int = 101) -> ParetoSegment:
    """Sweep y(gamma) = gamma*(y1min, 0) + (1-gamma)*(0, y2min).

    The endpoints are exactly (0, y2min) at gamma=0 and (y1min, 0) at
    gamma=1.  Designs reconstruct as x = W1 y with the inactive
    coordinates at zero; a design outside the cube is flagged infeasible.
    """
    a = np.asarray(w1, dtype=float)
    b = np.asarray(w2, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ContractViolation("w1 and w2 must be equal-length vectors")
    basis = np.column_stack([a, b])
    if np.max(np.abs(basis.T @ basis - np.eye(2))) > 1e-10:
        raise ContractViolation("w1 and w2 must be orthonormal")
    if gamma_count < 2:
        raise ContractViolation("gamma_count must be at least 2")

    y1min, _ = cube_minimum(a)
    y2min, _ = cube_minimum(b)
    gamma = np.linspace(0.0, 1.0, gamma_count)
    coords = np.column_stack([gamma * y1min, (1.0 - gamma) * y2min])
    designs = coords @ basis.T
    feasible = np.max(np.abs(designs), axis=1) <= 1.0 + _FEASIBILITY_SLACK
    return ParetoSegment(gamma=gamma, coords=coords, designs=designs, feasible=feasible)


def pareto_front(
    segment: ParetoSegment,
    lift_surface: ResponseSurface,
    drag_surface: ResponseSurface,
    strict: bool = False,
) -> ParetoSegment:
    """Score the segment designs with each surface in its own active coordinates.

    With ``strict`` on, infeasible points are skipped: their predictions
    are NaN and the feasibility flags mark them.
    """
    for surface in (lift_surface, drag_surface):
        if surface.basis.shape[0] != segment.designs.shape[1]:
            raise ContractViolation(
                "response surface dimension does not match the segment designs"
            )
    lift = lift_surface.predict(segment.designs)
    drag = drag_surface.predict(segment.designs)
    if strict:
        lift = np.where(segment.feasible, lift, np.nan)
        drag = np.where(segment.feasible, drag, np.nan)
    return replace(segment, lift=lift, drag=drag)


def write_pareto_csv(segment: ParetoSegment, path, meta=None):
    if segment.lift is None or segment.drag is None:
        raise ContractViolation("segment has no predictions; run pareto_front first")
    # feasible is 0/1, which the 17-digit format writes as "0"/"1"
    rows = np.column_stack([segment.gamma, segment.coords, segment.feasible,
                            segment.drag, segment.lift])
    write_table(path, "gamma,y1,y2,feasible,drag_pred,lift_pred", rows, meta)


def inactive_sensitivity_check(part: SubspacePartition, y_points, z_samples, evaluator):
    """Output spread over inactive perturbations at fixed active coordinates.

    For each y, evaluates x = W1 y + W2 z at every z that keeps x in the
    cube and returns (spread, feasible_count) per point.  Points with no
    feasible z get spread NaN and count 0.
    """
    ys = np.atleast_2d(np.asarray(y_points, dtype=float))
    zs = np.atleast_2d(np.asarray(z_samples, dtype=float))
    if ys.shape[1] != part.n:
        raise ContractViolation(f"y points must have {part.n} columns")
    if zs.shape[1] != part.dim - part.n:
        raise ContractViolation(f"z samples must have {part.dim - part.n} columns")

    spreads = np.full(ys.shape[0], np.nan)
    counts = np.zeros(ys.shape[0], dtype=int)
    for i, y in enumerate(ys):
        candidates = y @ part.active.T + zs @ part.inactive.T
        keep = np.max(np.abs(candidates), axis=1) <= 1.0 + _FEASIBILITY_SLACK
        if not np.any(keep):
            continue
        values, failed = evaluator.evaluate_many(candidates[keep])
        if failed:
            raise next(iter(failed.values()))
        spreads[i] = float(values.max() - values.min())
        counts[i] = int(keep.sum())
    return spreads, counts


def export_surface_grid(surface: ResponseSurface, y_low, y_high, path, n: int = 101,
                        meta=None):
    """Uniform n x n grid of a 2-D response surface, gnuplot block layout."""
    lo = np.asarray(y_low, dtype=float)
    hi = np.asarray(y_high, dtype=float)
    if surface.basis.shape[1] != 2 or lo.shape != (2,) or hi.shape != (2,):
        raise ContractViolation("grid export needs a 2-D surface and 2-vector bounds")
    if not np.all(lo < hi):
        raise ContractViolation("grid bounds must satisfy low < high")
    if n < 2:
        raise ContractViolation("grid export needs at least 2 points per axis")
    y1 = np.linspace(lo[0], hi[0], n)
    y2 = np.linspace(lo[1], hi[1], n)

    def blocks():  # one block per y1 value, streamed
        for a in y1:
            block = np.column_stack([np.full(n, a), y2])
            yield from np.column_stack([block, surface.predict_active(block)]).tolist()
            yield ()

    write_table(path, "# columns: y1,y2,value", blocks(), meta)


def emit_shadow_gnuplot(csv_name: str, out_path, n_active: int, skip_lines: int):
    """Gnuplot script for a 1-D scatter or a 2-D scatter colored by f."""
    lines = [
        "set datafile separator comma",
        "set key off",
    ]
    if n_active == 1:
        lines += [
            'set xlabel "y1"',
            'set ylabel "f"',
            f'plot "{csv_name}" skip {skip_lines} using 1:2 with points pt 7 ps 0.5',
        ]
    else:
        lines += [
            'set xlabel "y1"',
            'set ylabel "y2"',
            'set cblabel "f"',
            f'plot "{csv_name}" skip {skip_lines} using 1:2:3 with points pt 7 palette',
        ]
    with open(out_path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_pareto_gnuplot(pareto_name: str, grid_name: str, out_path, skip_lines: int):
    """Gnuplot script: drag contours from the grid plus the scored segment."""
    lines = [
        "set datafile separator comma",
        "set key off",
        'set xlabel "y1"',
        'set ylabel "y2"',
        'set cblabel "lift"',
        "set contour base",
        "set cntrparam levels auto 12",
        "unset surface",
        'set table "pareto_contours.dat"',
        f'splot "{grid_name}" using 1:2:3',
        "unset table",
        'plot "pareto_contours.dat" with lines lc rgb "gray60", \\',
        f'     "{pareto_name}" skip {skip_lines} using 2:3:6 with points pt 7 palette',
    ]
    with open(out_path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
