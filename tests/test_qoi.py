import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from activefoil import cst
from activefoil.errors import ContractViolation, DatasetError, EvaluationError
from activefoil.geometry import (
    AirfoilSurfacePair,
    BasisKind,
    BasisSpec,
    DecodedStack,
    ShapeCoefficients,
    Surface,
    naca_thickness_pair,
    nose_resolving_grid,
    validate_airfoil,
)
from activefoil.qoi import (
    PANEL_DRAG_GAIN,
    PANEL_DRAG_OFFSET,
    DatasetQoi,
    PanelSurrogate,
    Ridge,
    SyntheticQuadratic,
    camber_lift,
    evaluate_batch,
    load_dataset,
    seeded_quadratic,
    thickness_drag,
)
from activefoil.sampling import sample, unit_box, write_matrix_csv


def test_synthetic_quadratic_literal():
    qoi = SyntheticQuadratic([[2.0, 0.0], [0.0, 0.0]], [0.0, 1.0], 3.0)
    assert qoi.evaluate([2.0, 5.0]) == 4.0 + 5.0 + 3.0
    assert qoi.dim == 2
    assert qoi([[2.0, 5.0], [0.0, 0.0]]).tolist() == [12.0, 3.0]
    with pytest.raises(ContractViolation):
        qoi.evaluate([1.0, 2.0, 3.0])
    with pytest.raises(ContractViolation):
        SyntheticQuadratic([[0.0, 1.0], [0.0, 0.0]], [0.0, 0.0], 0.0)
    with pytest.raises(ContractViolation):
        SyntheticQuadratic(np.eye(2), [1.0], 0.0)


def test_seeded_quadratic_reconstruction():
    qoi = seeded_quadratic(4, seed=20)
    again = seeded_quadratic(4, seed=20)
    np.testing.assert_array_equal(qoi.hessian, again.hessian)
    np.testing.assert_array_equal(qoi.linear, again.linear)
    np.testing.assert_array_equal(qoi.hessian, qoi.hessian.T)
    assert qoi.constant == 0.0

    rng = np.random.Generator(np.random.PCG64(20))
    square = rng.standard_normal((4, 4))
    np.testing.assert_array_equal(qoi.hessian, 0.5 * (square + square.T))
    np.testing.assert_array_equal(qoi.linear, rng.standard_normal(4))

    assert not np.array_equal(qoi.hessian, seeded_quadratic(4, seed=21).hessian)
    with pytest.raises(ContractViolation):
        seeded_quadratic(0, seed=1)


def test_ridge_profile_literals():
    lin = Ridge([3.0, 4.0], profile="linear")
    np.testing.assert_allclose(lin.direction, [0.6, 0.8], rtol=1e-15)
    assert lin.evaluate([1.0, 1.0]) == pytest.approx(1.4, rel=1e-15)
    assert Ridge([3.0, 4.0], "quadratic").evaluate([1.0, 1.0]) == pytest.approx(1.96, rel=1e-15)
    assert Ridge([3.0, 4.0], "exp").evaluate([1.0, 1.0]) == pytest.approx(math.exp(1.4), rel=1e-15)


def test_ridge_constant_on_orthogonal_slices():
    qoi = Ridge([1.0, 0.0, 0.0])
    base = qoi.evaluate([0.3, 0.0, 0.0])
    for a, b in ((1.0, -1.0), (0.25, 0.75), (-0.9, 0.1)):
        assert qoi.evaluate([0.3, a, b]) == base


def test_ridge_validation():
    with pytest.raises(ContractViolation):
        Ridge([0.0, 0.0])
    with pytest.raises(ContractViolation):
        Ridge([1.0], profile="cubic")
    with pytest.raises(ContractViolation):
        Ridge([1.0], noise_std=-0.1)
    with pytest.raises(ContractViolation):
        Ridge([[1.0, 2.0]])


def test_ridge_noise_is_reproducible():
    noisy = Ridge([1.0, 2.0], noise_std=0.5, noise_seed=3)
    x = np.array([0.2, -0.4])
    assert noisy.evaluate(x) == noisy.evaluate(x)  # bitwise
    assert noisy.evaluate(x) != Ridge([1.0, 2.0], noise_std=0.5, noise_seed=4).evaluate(x)
    assert noisy.evaluate(x) != noisy.evaluate(x + 1e-12)
    clean = Ridge([1.0, 2.0])
    assert abs(noisy.evaluate(x) - clean.evaluate(x)) < 5 * 0.5
    assert noisy.noise_std == 0.5 and noisy.noise_seed == 3


def test_evaluate_batch_error_modes():
    data = DatasetQoi([[0.0, 0.0], [1.0, 1.0]], [5.0, 6.0], tolerance=1e-6)
    X = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
    with pytest.raises(EvaluationError) as info:
        evaluate_batch(data, X, on_error="raise")
    assert info.value.index == 1

    values, failed = evaluate_batch(data, X, on_error="skip")
    assert failed == [1]
    assert values[0] == 5.0 and values[2] == 6.0
    assert np.isnan(values[1])

    with pytest.raises(ContractViolation):
        evaluate_batch(data, X, on_error="ignore")


def test_camber_lift_parabolic_oracle():
    # both surfaces on the camber line 4h*ell*(1-ell), whose thin-airfoil
    # lift is 4*pi*h: coefficients (0, 4h, -4h, 0, 0) in the naca4-like basis
    h = 0.03
    camber = Surface(BasisSpec(BasisKind.NACA4, 5),
                     ShapeCoefficients([0.0, 4.0 * h, -4.0 * h, 0.0, 0.0]))
    pair = AirfoilSurfacePair(camber, camber)
    assert camber_lift(pair) == pytest.approx(4.0 * math.pi * h, rel=1e-14)
    with pytest.raises(ContractViolation):
        camber_lift(pair, quad_points=0)


def test_camber_lift_is_odd_under_mirror_swap():
    params = cst.CstParams(upper=[0.16, 1.1, 0.9, 1.0, 1.05], lower=[-0.13, 0.85, 1.2, 0.95, 1.0])
    swapped = cst.CstParams(upper=-params.lower, lower=-params.upper)
    assert camber_lift(cst.surface_pair(swapped)) == -camber_lift(cst.surface_pair(params))


def test_camber_lift_zero_for_mirror_pairs():
    assert camber_lift(naca_thickness_pair(0.12)) == 0.0


def test_thickness_drag_literal_and_even():
    pair = naca_thickness_pair(0.12)
    _, ell = nose_resolving_grid(201)
    tmax = float(np.max(pair.upper.height(ell) - pair.lower.height(ell)))
    assert thickness_drag(pair) == PANEL_DRAG_OFFSET + PANEL_DRAG_GAIN * tmax * tmax

    params = cst.CstParams(upper=[0.16, 1.1, 0.9, 1.0, 1.05], lower=[-0.13, 0.85, 1.2, 0.95, 1.0])
    swapped = cst.CstParams(upper=-params.lower, lower=-params.upper)
    assert thickness_drag(cst.surface_pair(params)) == thickness_drag(cst.surface_pair(swapped))

    assert thickness_drag(naca_thickness_pair(0.144)) > thickness_drag(pair)
    # a pair's drag is that of its validation, which needs three grid points
    assert thickness_drag(pair, grid_size=3) == thickness_drag(
        validate_airfoil(DecodedStack.of_pair(pair), 3), 3)[0]
    for grid_size in (1, 2):
        with pytest.raises(ContractViolation):
            thickness_drag(pair, grid_size=grid_size)


def test_panel_surrogate_binds_its_box():
    lift = PanelSurrogate("parsec", "lift")
    from activefoil import parsec

    assert lift.dim == 11
    np.testing.assert_array_equal(lift.box.lower, parsec.baseline_box().lower)
    cst_lift, cst_drag = PanelSurrogate("cst", "lift"), PanelSurrogate("cst", "drag")
    assert cst_lift.objective == "lift" and cst_drag.objective == "drag"
    assert cst_lift.dim == 10
    with pytest.raises(ContractViolation):
        PanelSurrogate("bezier", "lift")
    with pytest.raises(ContractViolation):
        PanelSurrogate("cst", "moment")


def test_panel_surrogate_frozen_center_values():
    lift, drag = PanelSurrogate("cst", "lift"), PanelSurrogate("cst", "drag")
    center = np.zeros(10)
    assert lift.evaluate(center) == pytest.approx(8.253968254092284, rel=1e-12)
    assert drag.evaluate(center) == pytest.approx(0.006666434986206055, rel=1e-12)


def test_panel_surrogate_rejects_infeasible_decode():
    drag = PanelSurrogate("cst", "drag")
    # upper coefficients at their lower bounds, lower at their upper
    # bounds: the surfaces cross near mid-chord
    x = np.array([-1.0] * 5 + [1.0] * 5)
    with pytest.raises(EvaluationError) as info:
        drag.evaluate(x)
    assert info.value.report is not None and not info.value.report.feasible


def test_panel_surrogate_deterministic():
    lift = PanelSurrogate("parsec", "lift")
    x = sample(unit_box(11), 1, seed=40).matrix[0]
    assert lift.evaluate(x) == lift.evaluate(x)


def test_dataset_qoi_lookup():
    X = [[0.0, 0.0], [0.5, 0.5], [1.0, -1.0]]
    data = DatasetQoi(X, [1.0, 2.0, 3.0], tolerance=1e-6)
    assert data.evaluate([0.5, 0.5]) == 2.0
    assert data.evaluate([0.5 + 1e-8, 0.5]) == 2.0  # within tolerance
    with pytest.raises(EvaluationError):
        data.evaluate([0.25, 0.25])
    assert data.has_outputs
    assert data.rows.shape[0] == 3
    with pytest.raises(ContractViolation):
        DatasetQoi(X, [1.0, 2.0])
    with pytest.raises(ContractViolation):
        DatasetQoi(X, [1.0, 2.0, 3.0], tolerance=0.0)
    with pytest.raises(DatasetError):
        DatasetQoi([[0.0, np.nan], [0.0, 0.0]], [1.0, 2.0])


def test_dataset_qoi_duplicate_rules():
    with pytest.raises(DatasetError):
        DatasetQoi([[0.0, 0.0], [0.0, 0.0]], [1.0, 2.0], tolerance=1e-6)
    agreeing = DatasetQoi([[0.0, 0.0], [0.0, 0.0]], [1.0, 1.0], tolerance=1e-6)
    assert agreeing.evaluate([0.0, 0.0]) == 1.0


# Grid points k * 0.25 keep every coordinate, difference and tolerance
# exact, and (3, 4, 5) steps put pairs at exactly the tolerance.
_GRID = st.integers(-4, 4).map(lambda k: 0.25 * k)


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 3),
    data=st.data(),
    steps=st.integers(1, 5),
)
def test_dataset_lookup_matches_brute_force(m, data, steps):
    tol = 0.25 * steps
    rows = np.array(data.draw(st.lists(st.lists(_GRID, min_size=m, max_size=m),
                                       min_size=1, max_size=12)))
    f = tol * np.array(data.draw(st.lists(st.integers(0, 2), min_size=len(rows),
                                          max_size=len(rows))), dtype=float)
    conflict = any(
        np.linalg.norm(rows[i] - rows[j]) <= tol and abs(f[i] - f[j]) > tol
        for i in range(len(rows)) for j in range(i + 1, len(rows))
    )
    if conflict:
        with pytest.raises(DatasetError):
            DatasetQoi(rows, f, tolerance=tol)
        return
    dataset = DatasetQoi(rows, f, tolerance=tol)
    queries = data.draw(st.lists(st.lists(_GRID, min_size=m, max_size=m), max_size=6))
    for query in [*rows.tolist(), *queries]:
        dist = np.linalg.norm(rows - np.array(query), axis=1)
        if dist.min() > tol:
            with pytest.raises(EvaluationError, match=re.escape(f"nearest at {dist.min():.3e}")):
                dataset.evaluate(query)
        else:
            # the nearest row answers, the lowest index on ties
            assert dataset.evaluate(query) == f[np.flatnonzero(dist == dist.min())[0]]


def test_dataset_lookup_counts_the_tolerance_itself():
    # rows 1 and 2 are exactly 1.25 apart (a 3-4-5 step); rows 2 and 3 tie in x1
    rows = [[1.0, 0.0], [0.0, 0.0], [0.75, 1.0], [0.75, 3.0]]
    with pytest.raises(DatasetError, match="rows 1 and 2"):
        DatasetQoi(rows, [1.0, 0.0, 1.5, 0.0], tolerance=1.25)
    data = DatasetQoi(rows, [1.0, 0.0, 1.25, 5.0], tolerance=1.25)
    assert data.evaluate([0.0, -1.25]) == 0.0  # row 1, at exactly the tolerance
    assert data.evaluate([0.5, 0.0]) == 1.0  # rows 0 and 1 tie: the lower index
    assert data.evaluate([0.75, 2.0]) == 1.25  # rows 2 and 3 tie: the lower index
    with pytest.raises(EvaluationError, match=re.escape("nearest at 2.000e+00")):
        data.evaluate([3.0, 0.0])


def test_dataset_lookup_window_does_not_collapse_on_a_grid():
    # a 3^5 factorial sweep behind a constant first column: every row shares
    # its first coordinate, yet each row's lookup window holds that row alone
    levels = [-1.0, 0.0, 1.0]
    grid = np.stack(np.meshgrid(*[levels] * 5, indexing="ij"), axis=-1).reshape(-1, 5)
    rows = np.column_stack([np.full(len(grid), 0.3), grid])
    f = np.arange(len(rows), dtype=float)
    data = DatasetQoi(rows, f, tolerance=1e-6)
    reach = data._reach(rows[data._order])
    width = (np.searchsorted(data._keys, data._keys + reach, side="right")
             - np.searchsorted(data._keys, data._keys - reach, side="left"))
    assert width.max() == 1
    assert [data.evaluate(row) for row in rows] == f.tolist()


def test_dataset_without_outputs():
    designs = DatasetQoi([[0.0, 1.0]], tolerance=1e-6)
    assert not designs.has_outputs
    with pytest.raises(EvaluationError):
        designs.evaluate([0.0, 1.0])


def test_load_dataset_csv(tmp_path):
    path = tmp_path / "runs.csv"
    write_matrix_csv(
        path, [[0.1, 0.2], [0.3, 0.4]], f=[7.0, 8.0], meta={"provenance": "solver-v2"}
    )
    data = load_dataset(path)
    assert data.evaluate([0.3, 0.4]) == 8.0
    assert data.provenance == "solver-v2"
    assert load_dataset(path, provenance="override").provenance == "override"

