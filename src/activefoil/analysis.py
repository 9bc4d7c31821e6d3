"""Shadow projections, link-function fits, and two-objective Pareto fronts.

Once an active basis W1 is in hand, samples project to shadow
coordinates y = W1' x; a low-order polynomial in y (the link function)
summarizes f; and on the plane of two leading directions, designs in the
cube that reach the zonotope Z = W'[-1, 1]^m are scored by the fitted
surfaces, and the nondominated ones form the Pareto front.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolation, IllPosedFitError
from .sampling import _freeze, write_table

# Slack of box membership for designs and of polygon membership for points.
_FEASIBILITY_SLACK = 1e-12
_SLICES, _SLICE_POINTS = 401, 9  # Pareto candidates: y1-slices of Z, designs per slice


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
    return tuple(tuple(combo.count(i) for i in range(n_vars)) for total in range(degree + 1)
                 for combo in itertools.combinations_with_replacement(range(n_vars), total))


def _monomial_design(Y: np.ndarray, powers) -> np.ndarray:
    # y**k by repeated products: pow() per element costs several times more
    table = list(itertools.accumulate([Y.T] * max(map(sum, powers)), np.multiply,
                                      initial=np.ones_like(Y.T)))
    return np.column_stack([math.prod(table[e][i] for i, e in enumerate(p)) for p in powers])


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


def _edge_sides(polygon, points) -> np.ndarray:
    """(N, edges) cross products, positive where a point is left of a polygon edge."""
    edges = np.roll(polygon, -1, axis=0) - polygon  # a repeated vertex gives an empty edge
    rel = np.asarray(points, dtype=float)[:, np.newaxis, :] - polygon
    return edges[:, 0] * rel[..., 1] - edges[:, 1] * rel[..., 0]


def in_polygon(polygon, points) -> np.ndarray:
    """Whether each 2-D point is inside every edge of a counter-clockwise convex polygon."""
    return np.all(_edge_sides(polygon, points) >= -_FEASIBILITY_SLACK, axis=1)


def convex_hull(points) -> np.ndarray:
    """Convex hull vertices of 2-D points, counter-clockwise (monotone chain).

    The chain skips the points strictly inside the polygon of the extreme
    points in eight directions, which lies in the hull; with no slack, a
    point on its edges is kept, and exact cross products give the same hull.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts):
        angles = np.arange(8) * (np.pi / 4)
        extreme = np.argmax(pts @ np.array([np.cos(angles), np.sin(angles)]), axis=0)
        inner = pts[extreme[extreme != np.roll(extreme, 1)]]  # no empty edges
        if len(inner) >= 3:
            pts = pts[~np.all(_edge_sides(inner, pts) > 0.0, axis=1)]
    hull = []
    pts = sorted(set(map(tuple, pts.tolist())))  # by x, then y
    for chain in (pts, pts[::-1]):  # the lower chain, then the upper
        base = len(hull)
        for x, y in chain:
            while len(hull) > base + 1 and ((hull[-1][0] - hull[-2][0]) * (y - hull[-2][1])
                                            <= (hull[-1][1] - hull[-2][1]) * (x - hull[-2][0])):
                hull.pop()
            hull.append((x, y))
        hull.pop()  # each chain ends where the other starts
    return np.array(hull or pts).reshape(-1, 2)


@dataclass(frozen=True, eq=False)
class ParetoSegment:
    """Designs in the reachable plane Z, front positions gamma, Z's vertices."""

    gamma: np.ndarray
    coords: np.ndarray
    designs: np.ndarray
    feasible: np.ndarray
    lift: np.ndarray | None = None
    drag: np.ndarray | None = None
    region: np.ndarray | None = None


def pareto_segment(w1, w2, gamma_count: int = 101) -> ParetoSegment:
    """Candidate designs over Z = W'[-1, 1]^m, W = [w1 w2], for gamma_count rows.

    With each generator (w1_i, w2_i) turned rightwards by a sign s_i, flipping
    the signs of W'(-s) by increasing (decreasing) generator angle walks Z's
    lower (upper) boundary.  Each y1-slice of Z spans the two: convex combinations
    of cube vertices, in the cube by construction, as ``feasible`` checks.
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
    s = np.where((a > 0) | ((a == 0) & (b >= 0)), 1.0, -1.0)
    rank = np.argsort(np.argsort(np.arctan2(s * b, s * a), kind="stable"))
    flips = np.arange(a.size + 1)[:, np.newaxis]  # row k of a chain has k signs flipped
    chains = np.where(rank < flips, s, -s), np.where(a.size - 1 - rank < flips, s, -s)
    y1min, _ = cube_minimum(a)
    y1 = np.linspace(y1min, -y1min, _SLICES)[:, np.newaxis]
    ends = []
    for chain, side in zip(chains, ("left", "right")):  # least, then greatest y2 at each y1
        at = chain @ a
        k = np.clip(np.searchsorted(at, y1, side=side), 1, a.size)
        run = at[k] - at[k - 1]
        frac = np.clip(np.divide(y1 - at[k - 1], run, out=np.zeros_like(y1), where=run > 0), 0, 1)
        ends.append(chain[k - 1] + frac[..., np.newaxis] * (chain[k] - chain[k - 1]))
    along = np.linspace(0.0, 1.0, _SLICE_POINTS)[:, np.newaxis]
    designs = (ends[0] + along * (ends[1] - ends[0])).reshape(-1, a.size)
    return ParetoSegment(gamma=np.linspace(0.0, 1.0, gamma_count), coords=designs @ basis,
                         designs=designs,
                         feasible=np.max(np.abs(designs), axis=1) <= 1.0 + _FEASIBILITY_SLACK,
                         region=np.vstack([chains[0], chains[1][::-1]]) @ basis)


def pareto_front(
    segment: ParetoSegment,
    lift_surface: ResponseSurface,
    drag_surface: ResponseSurface,
) -> ParetoSegment:
    """One candidate per gamma: the least drag (most lift among ties) with lift
    at least (1 - gamma) l0 + gamma lmax, where l0 is the least-drag candidate's
    lift and lmax the greatest, so that no candidate dominates it."""
    for surface in (lift_surface, drag_surface):
        if surface.basis.shape[0] != segment.designs.shape[1]:
            raise ContractViolation(
                "response surface dimension does not match the segment designs"
            )
    lift = lift_surface.predict(segment.designs)
    drag = drag_surface.predict(segment.designs)
    order = np.argsort(-lift)  # most lift first; a level takes every candidate of a lift
    ranked = drag[order]
    record = np.r_[True, ranked[1:] < np.minimum.accumulate(ranked)[:-1]]
    best = order[np.maximum.accumulate(np.where(record, np.arange(order.size), 0))]
    top = lift[order[0]]
    levels = np.minimum((1.0 - segment.gamma) * lift[best[-1]] + segment.gamma * top, top)
    rows = best[np.searchsorted(-lift[order], -levels, side="right") - 1]
    return replace(segment, coords=segment.coords[rows], designs=segment.designs[rows],
                   feasible=segment.feasible[rows], lift=lift[rows], drag=drag[rows])


def write_pareto_csv(segment: ParetoSegment, path, meta=None):
    if segment.lift is None or segment.drag is None:
        raise ContractViolation("segment has no predictions; run pareto_front first")
    # feasible is 0/1, which the 17-digit format writes as "0"/"1"
    rows = np.column_stack([segment.gamma, segment.coords, segment.feasible,
                            segment.drag, segment.lift])
    write_table(path, "gamma,y1,y2,feasible,drag_pred,lift_pred", rows, meta)


def inactive_sensitivity_check(basis, n: int, y_points, z_samples, evaluator):
    """Output spread over inactive perturbations at fixed active coordinates.

    ``basis`` is an orthonormal m x m eigenvector matrix [W1 W2] whose
    first n columns are active, 1 <= n < m.  Every design x = W1 y + W2 z
    that lies in the cube, for every y and z, goes to one
    ``evaluator.evaluate_many`` call.  Returns (spread, count) per y over
    the designs that evaluated; a design that fails is dropped from both.
    Points that keep no design get spread NaN and count 0.
    """
    w = np.asarray(basis, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ContractViolation("basis must be a square m x m matrix")
    if np.max(np.abs(w.T @ w - np.eye(w.shape[0]))) > 1e-10:
        raise ContractViolation("basis must be orthonormal to 1e-10")
    m = w.shape[0]
    if not 1 <= n < m:
        raise ContractViolation(f"n must lie in [1, {m - 1}], got {n}")
    ys = np.atleast_2d(np.asarray(y_points, dtype=float))
    zs = np.atleast_2d(np.asarray(z_samples, dtype=float))
    if ys.shape[1] != n:
        raise ContractViolation(f"y points must have {n} columns")
    if zs.shape[1] != m - n:
        raise ContractViolation(f"z samples must have {m - n} columns")

    candidates = (ys @ w[:, :n].T)[:, np.newaxis] + zs @ w[:, n:].T  # (points, z, m)
    kept = np.max(np.abs(candidates), axis=2) <= 1.0 + _FEASIBILITY_SLACK
    values = np.zeros(kept.shape)
    values[kept], failed = evaluator.evaluate_many(candidates[kept])
    kept.flat[np.flatnonzero(kept)[list(failed)]] = False
    counts = kept.sum(axis=1)
    spreads = (np.max(values, axis=1, where=kept, initial=-np.inf)
               - np.min(values, axis=1, where=kept, initial=np.inf))
    return np.where(counts > 0, spreads, np.nan), counts


def export_surface_grid(surface: ResponseSurface, y_low, y_high, path, n: int = 101,
                        meta=None, region=None):
    """Uniform n x n grid of a 2-D response surface, NaN outside ``region``, gnuplot layout."""
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
            values = surface.predict_active(block)
            if region is not None:
                values[~in_polygon(region, block)] = np.nan
            yield from np.column_stack([block, values]).tolist()
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
