"""Shadow projections, link-function fits, and two-objective Pareto fronts.

Once an active basis W1 is in hand, ``shadow_project(X, W1)`` gives the
shadow coordinates y = W1' x of the samples; ``fit_link_function(X, f, W1)``
returns the link function, the ``QuadraticModel`` in y that the certified
solve of ``activesubspace.fit_quadratic`` fits; and on the plane of two
leading directions, ``pareto_segment`` builds candidate designs in the cube
that reach the zonotope Z = W'[-1, 1]^m, and ``pareto_front`` keeps the
nondominated ones by the lift and drag values their caller scored them with.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .activesubspace import QuadraticModel, fit_quadratic
from .errors import ContractViolation, SampleSizeWarning
from .sampling import write_table

# Slack of box membership for designs and of polygon membership for points.
_FEASIBILITY_SLACK = 1e-12
_SLICES, _SLICE_POINTS = 401, 9  # Pareto candidates: y1-slices of Z, designs per slice
# export_surface_grid tests points for its region in chunks whose (points, edges, 2)
# temporary stays near this size, so that all of in_polygon's stay under about 1 MB
_GRID_CHUNK_BYTES = 2**18


def shadow_project(X, basis) -> np.ndarray:
    """Shadow coordinates Y = X W1 of the sample rows; a 1-D basis is one direction."""
    rows = np.atleast_2d(np.asarray(X, dtype=float))
    w = np.asarray(basis, dtype=float).reshape(len(basis), -1)
    if w.shape[0] != rows.shape[1]:
        raise ContractViolation(
            f"basis rows {w.shape[0]} must match sample dimension {rows.shape[1]}"
        )
    return rows @ w


def write_shadow_csv(coords, f, path, meta=None):
    """CSV schema y1[,y2],f; only 1-D and 2-D shadows are exported."""
    y, f = np.asarray(coords, dtype=float), np.asarray(f, dtype=float)
    if y.ndim != 2 or f.shape != (y.shape[0],):
        raise ContractViolation("coords must be N x n with one f value per row")
    if y.shape[1] > 2:
        raise ContractViolation("shadow export supports at most two active coordinates")
    write_table(path, ",".join([*(f"y{i}" for i in range(1, y.shape[1] + 1)), "f"]),
                np.column_stack([y, f]), meta)


def fit_link_function(X, f, basis) -> QuadraticModel:
    """The quadratic in the ``shadow_project`` coordinates, by ``fit_quadratic``'s certified
    solve; the chain's model fit, with more coefficients, gives any sample-size warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampleSizeWarning)
        return fit_quadratic(shadow_project(X, basis), f)


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


def pareto_front(segment: ParetoSegment, lift, drag) -> ParetoSegment:
    """One candidate per gamma, from one lift and one drag value per candidate design:
    the least drag (most lift among ties) with lift at least (1 - gamma) l0 + gamma lmax,
    where l0 is the least-drag candidate's lift and lmax the greatest, so that no
    candidate dominates it."""
    lift, drag = np.asarray(lift, dtype=float), np.asarray(drag, dtype=float)
    if (lift.shape != (len(segment.designs),) or drag.shape != lift.shape
            or not (np.isfinite(lift).all() and np.isfinite(drag).all())):
        raise ContractViolation("lift and drag need one finite value per segment design")
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


def export_surface_grid(model: QuadraticModel, y_low, y_high, path, region,
                        n: int = 101, meta=None):
    """Uniform n x n grid of a 2-D link function, NaN outside ``region``, gnuplot layout."""
    lo = np.asarray(y_low, dtype=float)
    hi = np.asarray(y_high, dtype=float)
    if model.dim != 2 or lo.shape != (2,) or hi.shape != (2,):
        raise ContractViolation("grid export needs a 2-D link function and 2-vector bounds")
    if not np.all(lo < hi):
        raise ContractViolation("grid bounds must satisfy low < high")
    if n < 2:
        raise ContractViolation("grid export needs at least 2 points per axis")
    grid = np.empty((n, n, 3))  # one gnuplot block per y1 value
    grid[..., 0] = np.linspace(lo[0], hi[0], n)[:, np.newaxis]
    grid[..., 1] = np.linspace(lo[1], hi[1], n)
    step = max(1, _GRID_CHUNK_BYTES // (16 * n * len(region)))
    for start in range(0, n, step):
        points = grid[start:start + step, :, :2].reshape(-1, 2)
        values = model.predict(points)
        values[~in_polygon(region, points)] = np.nan
        grid[start:start + step, :, 2] = values.reshape(-1, n)
    write_table(path, "# columns: y1,y2,value", grid, meta)


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
