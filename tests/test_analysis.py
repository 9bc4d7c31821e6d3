import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from activefoil import analysis
from activefoil.analysis import (
    ParetoSegment,
    ResponseSurface,
    ShadowData,
    convex_hull,
    cube_minimum,
    emit_pareto_gnuplot,
    emit_shadow_gnuplot,
    export_surface_grid,
    fit_link_function,
    in_polygon,
    inactive_sensitivity_check,
    pareto_front,
    pareto_segment,
    shadow_project,
    write_pareto_csv,
    write_shadow_csv,
)
from activefoil.errors import ContractViolation, EvaluationError, IllPosedFitError
from activefoil.qoi import Ridge
from activefoil.sampling import read_matrix_csv, sample, unit_box


def _orthopair():
    w1 = np.array([0.8, 0.6, 0.0, 0.0])
    w2 = np.array([-0.6, 0.8, 0.0, 0.0])
    return w1, w2


def test_shadow_project_basics():
    X = sample(unit_box(4), 30, seed=1).matrix
    f = X[:, 0] + 2.0
    w = np.eye(4)[:, :2]
    shadow = shadow_project(X, f, w)
    np.testing.assert_array_equal(shadow.coords, X @ w)
    np.testing.assert_array_equal(shadow.outputs, f)
    assert shadow.labels == ("y1", "y2")
    assert shadow.n == 2

    one = shadow_project(X, f, np.eye(4)[:, 0])  # 1-D basis promoted
    assert one.coords.shape == (30, 1)

    named = shadow_project(X, f, w, labels=("u", "v"))
    assert named.labels == ("u", "v")

    with pytest.raises(ContractViolation):
        shadow_project(X, f, np.eye(3)[:, :1])
    with pytest.raises(ContractViolation):
        ShadowData(coords=X @ w, outputs=f[:-1], basis=w, labels=None)
    with pytest.raises(ContractViolation):
        ShadowData(coords=X @ w, outputs=f, basis=w, labels=("only",))


def test_write_shadow_csv(tmp_path):
    X = sample(unit_box(3), 8, seed=2).matrix
    f = X @ [1.0, 0.0, 0.0]
    shadow = shadow_project(X, f, np.eye(3)[:, :2])
    path = tmp_path / "shadow.csv"
    write_shadow_csv(shadow, path, meta={"n": 2})
    matrix, fcol, labels, meta = read_matrix_csv(path)
    np.testing.assert_array_equal(matrix, shadow.coords)
    np.testing.assert_array_equal(fcol, f)
    assert labels == ["y1", "y2"] and meta == {"n": "2"}

    wide = shadow_project(X, f, np.eye(3))
    with pytest.raises(ContractViolation):
        write_shadow_csv(wide, tmp_path / "wide.csv")


def test_link_function_exact_quadratic():
    rng = np.random.Generator(np.random.PCG64(3))
    X = sample(unit_box(5), 60, seed=3).matrix
    w = np.full(5, 1.0 / np.sqrt(5.0))
    y = X @ w
    f = 2.0 + 3.0 * y - y * y
    surface = fit_link_function(shadow_project(X, f, w), degree=2)
    assert surface.powers == ((0,), (1,), (2,))  # degree-major monomial order
    np.testing.assert_allclose(surface.coefficients, [2.0, 3.0, -1.0], atol=1e-12)
    assert surface.residual_rms < 1e-12
    assert surface.r_squared == pytest.approx(1.0, abs=1e-12)

    # predictions agree between active and full coordinates
    np.testing.assert_allclose(surface.predict(X), f, atol=1e-12)
    np.testing.assert_allclose(
        surface.predict_active(y[:, np.newaxis]), f, atol=1e-12
    )
    assert isinstance(surface.predict(X[0]), float)

    d = surface.to_dict()
    assert sorted(d) == [
        "basis", "coefficients", "degree", "powers", "r_squared", "residual_rms",
    ]
    assert d["degree"] == 2


def test_link_function_monomial_order_2d():
    X = sample(unit_box(4), 80, seed=4).matrix
    basis = np.eye(4)[:, :2]
    f = X[:, 0] * X[:, 1]
    surface = fit_link_function(shadow_project(X, f, basis), degree=2)
    assert surface.powers == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    np.testing.assert_allclose(surface.coefficients, [0, 0, 0, 0, 1, 0], atol=1e-12)


def test_link_function_r2_for_constant_outputs():
    X = sample(unit_box(3), 20, seed=5).matrix
    shadow = shadow_project(X, np.full(20, 7.5), np.eye(3)[:, :1])
    surface = fit_link_function(shadow, degree=1)
    assert surface.r_squared == 1.0
    assert surface.residual_rms < 1e-12


def test_link_function_failure_modes():
    X = sample(unit_box(3), 20, seed=6).matrix
    shadow = shadow_project(X, X[:, 0], np.eye(3)[:, :1])
    with pytest.raises(ContractViolation):
        fit_link_function(shadow, degree=-1)
    tiny = shadow_project(X[:2], X[:2, 0], np.eye(3)[:, :1])
    with pytest.raises(ContractViolation):
        fit_link_function(tiny, degree=3)
    flat = shadow_project(np.zeros((10, 3)), np.zeros(10), np.eye(3)[:, :1])
    with pytest.raises(IllPosedFitError):
        fit_link_function(flat, degree=1)


def test_cube_minimum_literal():
    value, vertex = cube_minimum([1.0, -2.0, 0.0])
    assert value == -3.0
    np.testing.assert_array_equal(vertex, [-1.0, 1.0, 1.0])
    with pytest.raises(ContractViolation):
        cube_minimum([[1.0]])
    with pytest.raises(ContractViolation):
        cube_minimum([np.nan])


def test_cube_minimum_against_vertex_enumeration():
    rng = np.random.Generator(np.random.PCG64(9))
    for _ in range(5):
        w = rng.standard_normal(6)
        value, vertex = cube_minimum(w)
        best = min(
            float(np.dot(w, corner))
            for corner in itertools.product((-1.0, 1.0), repeat=6)
        )
        assert value == pytest.approx(best, abs=1e-12)
        assert float(np.dot(w, vertex)) == pytest.approx(best, abs=1e-12)


def test_pareto_segment_endpoints_and_affinity():
    w1, w2 = _orthopair()
    segment = pareto_segment(w1, w2, gamma_count=11)
    assert segment.gamma.size == 11
    assert segment.gamma[0] == 0.0 and segment.gamma[-1] == 1.0
    # the y1-slices run between Z's extremes -||w1||_1 and ||w1||_1
    y1max = np.sum(np.abs(w1))
    assert segment.coords[:, 0].min() == pytest.approx(-y1max, abs=1e-12)
    assert segment.coords[:, 0].max() == pytest.approx(y1max, abs=1e-12)
    # the designs along one slice are affine in their position on it
    slices = segment.designs.reshape(-1, analysis._SLICE_POINTS, w1.size)
    assert np.max(np.abs(np.diff(slices, n=2, axis=1))) < 1e-14
    np.testing.assert_array_equal(segment.coords, segment.designs @ np.column_stack([w1, w2]))
    # the sweep this replaced left the cube at both ends; every candidate is in it
    assert segment.feasible.all() and np.max(np.abs(segment.designs)) <= 1.0 + 1e-12


def test_pareto_segment_validation():
    w1, w2 = _orthopair()
    with pytest.raises(ContractViolation):
        pareto_segment(w1, 2.0 * w2)
    with pytest.raises(ContractViolation):
        pareto_segment(w1, w1)
    with pytest.raises(ContractViolation):
        pareto_segment(w1, w2, gamma_count=1)


def _some_row_dominated(lift, drag) -> bool:
    """Whether some row has no less lift and no more drag than another, and differs."""
    no_worse = (lift[:, np.newaxis] >= lift) & (drag[:, np.newaxis] <= drag)
    better = (lift[:, np.newaxis] > lift) | (drag[:, np.newaxis] < drag)
    return bool(np.any(no_worse & better))


def _scored_segment():
    w1, w2 = _orthopair()
    X = sample(unit_box(4), 120, seed=7).matrix
    lift_surface = fit_link_function(shadow_project(X, X @ w1, w1), degree=1)
    drag_surface = fit_link_function(shadow_project(X, (X @ w2) ** 2, w2), degree=2)
    segment = pareto_segment(w1, w2, gamma_count=11)
    return segment, lift_surface, drag_surface


def test_pareto_front_scoring():
    segment, lift_surface, drag_surface = _scored_segment()
    scored = pareto_front(segment, lift_surface, drag_surface)
    assert scored.lift.shape == (11,) and scored.drag.shape == (11,)
    # the lift link is y1 itself and the drag link is y2^2
    np.testing.assert_allclose(scored.lift, scored.coords[:, 0], atol=1e-12)
    np.testing.assert_allclose(scored.drag, scored.coords[:, 1] ** 2, atol=1e-12)

    # the front runs from the least drag to the most lift over every candidate
    assert scored.feasible.all() and not _some_row_dominated(scored.lift, scored.drag)
    assert scored.drag[0] == pytest.approx(np.min(segment.coords[:, 1] ** 2), abs=1e-12)
    assert scored.lift[-1] == pytest.approx(np.sum(np.abs(_orthopair()[0])), abs=1e-12)

    with pytest.raises(ContractViolation):
        pareto_front(
            ParetoSegment(
                gamma=segment.gamma,
                coords=segment.coords,
                designs=segment.designs[:, :3],
                feasible=segment.feasible,
            ),
            lift_surface,
            drag_surface,
        )


def test_write_pareto_csv(tmp_path):
    segment, lift_surface, drag_surface = _scored_segment()
    with pytest.raises(ContractViolation):
        write_pareto_csv(segment, tmp_path / "nope.csv")
    scored = pareto_front(segment, lift_surface, drag_surface)
    path = tmp_path / "pareto.csv"
    write_pareto_csv(scored, path, meta={"seed": 7})
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed=7"
    assert lines[1] == "gamma,y1,y2,feasible,drag_pred,lift_pred"
    assert len(lines) == 2 + 11
    fields = lines[2].split(",")
    assert float(fields[0]) == 0.0 and fields[3] in ("0", "1")


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 12), seed=st.integers(0, 2**32 - 1), zero=st.integers(0, 3),
       parallel=st.integers(0, 3), vertical=st.integers(0, 2), gammas=st.integers(2, 40))
def test_pareto_front_is_feasible_exact_and_nondominated(m, seed, zero, parallel, vertical,
                                                         gammas):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((m, 2))
    for _ in range(parallel):  # rows of the basis stay parallel under the QR below
        i, j = rng.choice(m, 2, replace=False)
        raw[j] = rng.uniform(-2.0, 2.0) * raw[i]
    raw[rng.choice(m, min(vertical, m), replace=False), 0] = 0.0  # w1_i = 0
    raw[rng.choice(m, min(zero, m), replace=False)] = 0.0  # zero generators
    if np.linalg.matrix_rank(raw) < 2:  # keep two independent generators
        raw[-2:] = np.eye(2)
    basis = np.linalg.qr(raw)[0]
    w1, w2 = basis.T
    lift = ResponseSurface(basis=w1[:, np.newaxis], degree=2, powers=((0,), (1,), (2,)),
                           coefficients=rng.standard_normal(3), residual_rms=0.0, r_squared=1.0)
    powers = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    drag = ResponseSurface(basis=basis, degree=2, powers=powers,
                           coefficients=rng.standard_normal(6), residual_rms=0.0, r_squared=1.0)
    front = pareto_front(pareto_segment(w1, w2, gamma_count=gammas), lift, drag)
    assert front.gamma.size == gammas
    assert front.designs.shape == (gammas, m) and front.lift.shape == front.drag.shape == (gammas,)
    assert front.feasible.all() and np.max(np.abs(front.designs)) <= 1.0 + 1e-12
    assert np.max(np.abs(front.designs @ basis - front.coords)) <= 1e-12
    assert not _some_row_dominated(front.lift, front.drag)


def test_convex_hull_and_in_polygon():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    points = np.vstack([square, [[0.5, 0.5], [0.5, 0.0], [0.25, 0.75]]])
    hull = convex_hull(points[::-1])
    np.testing.assert_array_equal(hull, square)  # counter-clockwise from the lowest-left
    assert in_polygon(hull, points).all()
    outside = np.array([[1.5, 0.5], [0.5, -1e-9], [-0.1, 1.1]])
    assert not in_polygon(hull, outside).any()
    # repeated vertices make empty edges, which every point passes
    assert in_polygon(np.repeat(square, 2, axis=0), points).all()

    cloud = sample(unit_box(2), 200, seed=3).matrix
    hull = convex_hull(cloud)
    assert in_polygon(hull, cloud).all()
    edges = np.roll(hull, -1, axis=0) - hull
    turns = edges[:, 0] * np.roll(edges[:, 1], -1) - edges[:, 1] * np.roll(edges[:, 0], -1)
    assert np.all(turns > 0)  # strictly convex, counter-clockwise


def _monotone_chain(points):
    """The monotone chain over every point: the reference for convex_hull's filter."""
    hull = []
    pts = sorted(set(map(tuple, np.asarray(points, dtype=float).tolist())))
    for chain in (pts, pts[::-1]):
        base = len(hull)
        for x, y in chain:
            while len(hull) > base + 1 and ((hull[-1][0] - hull[-2][0]) * (y - hull[-2][1])
                                            <= (hull[-1][1] - hull[-2][1]) * (x - hull[-2][0])):
                hull.pop()
            hull.append((x, y))
        hull.pop()
    return np.array(hull or pts).reshape(-1, 2)


def _grid_points(low, high, min_size=1, max_size=80):
    """Points with few significant bits, so every cross product is exact."""
    coord = st.integers(low, high).map(lambda k: k / 8.0)
    return st.lists(st.tuples(coord, coord), min_size=min_size, max_size=max_size).map(
        lambda pts: np.array(pts, dtype=float).reshape(-1, 2))


def _collinear_points():
    ints = st.integers(-20, 20)
    return st.builds(lambda x0, y0, dx, dy, ts: np.array([(x0 + t * dx, y0 + t * dy)
                                                          for t in ts], dtype=float),
                     ints, ints, ints, ints, st.lists(ints, min_size=1, max_size=40))


_POINT_SETS = st.one_of(
    st.builds(lambda seed, n: np.random.default_rng(seed).standard_normal((n, 2)),
              st.integers(0, 2**32 - 1), st.integers(1, 400)),  # general position
    _grid_points(-2**16, 2**16),
    _grid_points(-3, 3),  # many duplicated and collinear points
    _collinear_points(),
    _grid_points(-2**16, 2**16, max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(points=_POINT_SETS)
def test_convex_hull_filter_keeps_the_unfiltered_chains_hull(points):
    np.testing.assert_array_equal(convex_hull(points), _monotone_chain(points))


def test_inactive_sensitivity_check():
    m = 4
    w = np.full(m, 0.5)
    basis = np.linalg.qr(np.column_stack([w, np.eye(m)[:, :3]]))[0]
    qoi = Ridge(w)
    y_points = np.array([[0.0], [0.4], [10.0]])  # last one unreachable in the cube
    z_samples = sample(unit_box(3), 50, seed=8).matrix * 0.5
    spreads, counts = inactive_sensitivity_check(basis, 1, y_points, z_samples, qoi)
    # an exact ridge is flat along the inactive subspace
    assert spreads[0] < 1e-12 and spreads[1] < 1e-12
    assert counts[0] > 0 and counts[1] > 0
    assert np.isnan(spreads[2]) and counts[2] == 0

    with pytest.raises(ContractViolation):
        inactive_sensitivity_check(basis, 1, np.zeros((2, 2)), z_samples, qoi)
    with pytest.raises(ContractViolation):
        inactive_sensitivity_check(basis, 1, y_points, np.zeros((5, 2)), qoi)
    # n must split the m = 4 columns into non-empty active and inactive sets
    for n in (0, m):
        with pytest.raises(ContractViolation, match="n must lie in"):
            inactive_sensitivity_check(basis, n, np.zeros((1, n)), z_samples, qoi)
    skewed = basis.copy()
    skewed[0, 0] += 1e-6
    for bad in (skewed, basis[:, :3]):
        with pytest.raises(ContractViolation, match="basis must be"):
            inactive_sensitivity_check(bad, 1, y_points, z_samples, qoi)


class _FailingRidge(Ridge):
    """Ridge that fails every design whose first coordinate exceeds 0.2."""

    def evaluate_many(self, X):
        values, _ = super().evaluate_many(X)
        bad = np.flatnonzero(X[:, 0] > 0.2)
        values[bad] = np.nan
        return values, {i: EvaluationError("first coordinate above 0.2") for i in bad.tolist()}


class _CountingRidge(Ridge):
    calls = 0

    def evaluate_many(self, X):
        self.calls += 1
        return super().evaluate_many(X)


def _inactive_setup(m=4):
    w = np.full(m, 0.5)
    basis = np.linalg.qr(np.column_stack([w, np.eye(m)[:, :m - 1]]))[0]
    y_points = np.array([[-0.6], [0.0], [0.4], [10.0]])  # the last is outside the cube
    z_samples = sample(unit_box(m - 1), 80, seed=8).matrix
    return w, basis, y_points, z_samples


def _per_point_check(basis, n, y_points, z_samples, evaluator):
    """The check one point at a time: spread and count of the designs that evaluate."""
    spreads, counts = np.full(len(y_points), np.nan), np.zeros(len(y_points), dtype=int)
    for i, y in enumerate(y_points):
        x = y @ basis[:, :n].T + z_samples @ basis[:, n:].T
        values = []
        for row in x[np.max(np.abs(x), axis=1) <= 1.0 + 1e-12]:
            try:
                values.append(evaluator.evaluate(row))
            except EvaluationError:
                pass
        if values:
            spreads[i], counts[i] = max(values) - min(values), len(values)
    return spreads, counts


def test_inactive_check_drops_failed_designs():
    w, basis, y_points, z_samples = _inactive_setup()
    _, in_cube = inactive_sensitivity_check(basis, 1, y_points, z_samples, Ridge(w))
    spreads, counts = inactive_sensitivity_check(basis, 1, y_points, z_samples,
                                                 _FailingRidge(w))
    assert np.all(counts[:3] > 0) and np.all(counts[:3] < in_cube[:3])
    assert np.all(spreads[:3] < 1e-12)  # an exact ridge is flat along the inactive subspace
    assert counts[3] == 0 and np.isnan(spreads[3])


def test_inactive_check_makes_one_stacked_evaluation():
    w, basis, y_points, z_samples = _inactive_setup()
    evaluator = _CountingRidge(w)
    inactive_sensitivity_check(basis, 1, y_points, z_samples, evaluator)
    assert evaluator.calls == 1


def test_inactive_check_matches_a_per_point_loop_on_a_noisy_ridge():
    w, basis, y_points, z_samples = _inactive_setup(5)
    evaluator = _FailingRidge(w, "exp", noise_std=0.05, noise_seed=3)
    for n in (1, 2):
        ys = np.column_stack([y_points, 0.3 * y_points])[:, :n]
        zs = z_samples[:, :5 - n]
        spreads, counts = inactive_sensitivity_check(basis, n, ys, zs, evaluator)
        expected = _per_point_check(basis, n, ys, zs, evaluator)
        np.testing.assert_array_equal(counts, expected[1])
        np.testing.assert_allclose(spreads, expected[0], rtol=0.0, atol=1e-15)
        assert np.all(spreads[:3] > 0.05) and np.isnan(spreads[3])


def test_export_surface_grid(tmp_path):
    X = sample(unit_box(4), 80, seed=10).matrix
    basis = np.eye(4)[:, :2]
    f = X[:, 0] + 2.0 * X[:, 1]
    surface = fit_link_function(shadow_project(X, f, basis), degree=1)
    path = tmp_path / "grid.dat"
    export_surface_grid(surface, [-1.0, -1.0], [1.0, 1.0], path, n=5, meta={"k": 1})
    blocks = path.read_text().split("\n\n")
    assert len(blocks) == 5 + 1  # trailing newline after the last block
    head = blocks[0].splitlines()
    assert head[0] == "# k=1" and head[1] == "# columns: y1,y2,value"
    y1, y2, val = (float(s) for s in head[2].split(","))
    assert (y1, y2) == (-1.0, -1.0)
    assert val == pytest.approx(surface.predict_active([[-1.0, -1.0]])[0], rel=1e-15)

    one_d = fit_link_function(shadow_project(X, f, basis[:, :1]), degree=1)
    with pytest.raises(ContractViolation):
        export_surface_grid(one_d, [-1.0, -1.0], [1.0, 1.0], tmp_path / "x.dat")
    with pytest.raises(ContractViolation):
        export_surface_grid(surface, [1.0, -1.0], [-1.0, 1.0], tmp_path / "x.dat")
    for n in (0, 1):
        with pytest.raises(ContractViolation):
            export_surface_grid(surface, [-1.0, -1.0], [1.0, 1.0], tmp_path / "x.dat", n=n)
    assert not (tmp_path / "x.dat").exists()


def test_export_surface_grid_writes_nan_outside_the_region(tmp_path):
    X = sample(unit_box(4), 80, seed=10).matrix
    f = X[:, 0] + 2.0 * X[:, 1]
    surface = fit_link_function(shadow_project(X, f, np.eye(4)[:, :2]), degree=1)
    diamond = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    path = tmp_path / "grid.dat"
    export_surface_grid(surface, [-1.0, -1.0], [1.0, 1.0], path, n=5, region=diamond)
    cells = np.array([[float(v) for v in line.split(",")]
                      for line in path.read_text().splitlines() if line and line[0] != "#"])
    outside = np.abs(cells[:, 0]) + np.abs(cells[:, 1]) > 1.0
    assert outside.sum() == 12 and np.isnan(cells[outside, 2]).all()
    np.testing.assert_allclose(cells[~outside, 2],
                               surface.predict_active(cells[~outside, :2]), rtol=1e-15)


def test_gnuplot_emitters(tmp_path):
    one = tmp_path / "one.gp"
    emit_shadow_gnuplot("shadow.csv", one, n_active=1, skip_lines=3)
    text = one.read_text()
    assert "using 1:2 with points" in text and "skip 3" in text
    assert text.endswith("\n")

    two = tmp_path / "two.gp"
    emit_shadow_gnuplot("shadow.csv", two, n_active=2, skip_lines=4)
    assert "using 1:2:3" in two.read_text()

    front = tmp_path / "front.gp"
    emit_pareto_gnuplot("pareto.csv", "pareto_grid.dat", front, skip_lines=5)
    text = front.read_text()
    assert '"pareto_grid.dat" using 1:2:3' in text
    assert '"pareto.csv" skip 5 using 2:3:6' in text
