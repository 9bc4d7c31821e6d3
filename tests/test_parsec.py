import json
import math

import numpy as np
import pytest
from surfaces import LOWER, UPPER, coefficients, decoded, height, slope

from activefoil.errors import ConditioningError, ContractViolation, DomainError
from activefoil.geometry import REASONS, validate_airfoil
from activefoil.parsec import (
    CONDITION_LIMIT,
    FIELDS,
    JSON_KEYS,
    RESIDUAL_LIMIT,
    TERM_COUNT,
    _stack_systems,
    baseline_box,
    read_params,
    solve_coefficients,
)
from activefoil.sampling import sample

CENTER = baseline_box().center


def _mirror(row: np.ndarray) -> np.ndarray:
    """The mirror-symmetric design of ``row``'s upper surface."""
    mirror = row.copy()
    mirror[[1, 3, 4, 6, 9]] = row[0], -row[2], 0.0, 0.0, -row[8]
    return mirror


def test_param_validation():
    # a row outside the domain fails with a DomainError that names the parameter
    for field, bad in (
        ("upper_crest_x", 0.0),
        ("lower_crest_x", 1.0),
        ("le_radius", 0.0),
        ("te_half_thickness", -0.01),
        ("te_y", np.nan),
    ):
        row = CENTER.copy()
        row[FIELDS.index(field)] = bad
        error = solve_coefficients([row]).errors[0]
        assert type(error) is DomainError and str(error).startswith(field), error


def test_json_roundtrip_uses_x_keys():
    text = json.dumps(dict(zip(JSON_KEYS, CENTER.tolist())))
    assert read_params(text).tobytes() == CENTER.tobytes()
    with pytest.raises(ContractViolation) as info:
        read_params('{"x1": 0.3}')
    assert "x2" in str(info.value)


def test_leading_edge_coefficient_signs():
    # a_1 = +sqrt(2 r) on the upper surface and -sqrt(2 r) on the lower one;
    # a radius that is not positive is the row's DomainError
    rows = np.repeat([CENTER], 2, axis=0)
    rows[:, 10] = 0.015, 0.0
    _, rhs = _stack_systems(rows[:1])
    assert rhs[0, 0, 5] == math.sqrt(0.03) and rhs[0, 1, 5] == -math.sqrt(0.03)
    stack = solve_coefficients(rows)
    assert coefficients(stack, UPPER)[0] == pytest.approx(math.sqrt(0.03), rel=1e-12)
    assert coefficients(stack, LOWER)[0] == pytest.approx(-math.sqrt(0.03), rel=1e-12)
    assert list(stack.errors) == [1] and isinstance(stack.errors[1], DomainError)


def test_constraint_rows_are_the_documented_ones():
    (upper_x, lower_x, upper_y, _, te_y, te_half_thickness, te_angle, te_wedge,
     upper_curvature, _, le_radius) = CENTER.tolist()
    matrix, rhs = _stack_systems(CENTER[np.newaxis])
    assert matrix.shape == (1, 2, TERM_COUNT, TERM_COUNT) and rhs.shape == (1, 2, TERM_COUNT)
    system, lower_rhs = matrix[0, 0], rhs[0, 1]
    e = np.arange(TERM_COUNT) + 0.5
    p = upper_x
    np.testing.assert_allclose(system[0], p**e, rtol=1e-15)
    np.testing.assert_array_equal(system[1], np.ones(6))
    np.testing.assert_allclose(system[2], e * p ** (e - 1), rtol=1e-15)
    np.testing.assert_array_equal(system[3], e)
    np.testing.assert_allclose(system[4], e * (e - 1) * p ** (e - 2), rtol=1e-15)
    np.testing.assert_array_equal(system[5], [1, 0, 0, 0, 0, 0])

    expected_rhs = [
        upper_y,
        te_y + te_half_thickness,
        0.0,
        math.tan(math.radians(te_angle - te_wedge)),
        upper_curvature,
        math.sqrt(2.0 * le_radius),
    ]
    np.testing.assert_array_equal(rhs[0, 0], expected_rhs)

    assert lower_rhs[1] == te_y - te_half_thickness
    assert lower_rhs[3] == math.tan(math.radians(te_angle + te_wedge))
    assert lower_rhs[5] == -math.sqrt(2.0 * le_radius)
    np.testing.assert_allclose(matrix[0, 1, 0], lower_x**e, rtol=1e-15)


def test_solved_surfaces_satisfy_geometry():
    (upper_x, lower_x, upper_y, lower_y, te_y, te_half_thickness, te_angle, te_wedge,
     upper_curvature, _, le_radius) = CENTER.tolist()
    stack = decoded("parsec", CENTER)
    h = 1e-6

    assert height(stack, UPPER, upper_x) == pytest.approx(upper_y, abs=1e-12)
    assert height(stack, LOWER, lower_x) == pytest.approx(lower_y, abs=1e-12)
    assert slope(stack, UPPER, upper_x) == pytest.approx(0.0, abs=1e-10)
    assert slope(stack, LOWER, lower_x) == pytest.approx(0.0, abs=1e-10)

    assert height(stack, UPPER, 1.0) == pytest.approx(te_y + te_half_thickness, abs=1e-12)
    assert height(stack, LOWER, 1.0) == pytest.approx(te_y - te_half_thickness, abs=1e-12)
    assert slope(stack, UPPER, 1.0) == pytest.approx(
        math.tan(math.radians(te_angle - te_wedge)), abs=1e-10
    )
    assert slope(stack, LOWER, 1.0) == pytest.approx(
        math.tan(math.radians(te_angle + te_wedge)), abs=1e-10
    )

    # crest curvature via central differences of the slope
    fd = (slope(stack, UPPER, upper_x + h) - slope(stack, UPPER, upper_x - h)) / (2 * h)
    assert fd == pytest.approx(upper_curvature, rel=1e-5)

    # leading-edge coefficient carries the radius
    assert coefficients(stack, UPPER)[0] == pytest.approx(math.sqrt(2 * le_radius), rel=1e-12)
    assert coefficients(stack, LOWER)[0] == pytest.approx(-math.sqrt(2 * le_radius), rel=1e-12)


def test_residuals_small_across_the_box():
    box = baseline_box()
    draws = sample(box, 200, seed=17).physical()
    matrix, rhs = _stack_systems(draws)
    a = np.linalg.solve(matrix, rhs[..., np.newaxis])
    assert float(np.max(np.abs(matrix @ a - rhs[..., np.newaxis]))) < 1e-9
    assert solve_coefficients(draws).errors == {}  # nothing fails anywhere in the box


def test_leading_edge_osculation():
    stack = decoded("parsec", CENTER)
    eps = CENTER[10]
    for ell in (eps / 10, eps / 40, eps / 160):
        dev = abs(height(stack, UPPER, ell) / math.sqrt(2 * eps * ell) - 1.0)
        assert dev < 0.05
    # deviation shrinks as the nose is approached
    d1 = abs(height(stack, UPPER, eps / 10) / math.sqrt(2 * eps * eps / 10) - 1.0)
    d2 = abs(height(stack, UPPER, eps / 160) / math.sqrt(2 * eps * eps / 160) - 1.0)
    assert d2 < d1


def test_mirror_symmetry_is_bitwise():
    stack = decoded("parsec", _mirror(CENTER))
    np.testing.assert_array_equal(coefficients(stack, UPPER), -coefficients(stack, LOWER))


def test_sharp_trailing_edge():
    row = CENTER.copy()
    row[4] = row[5] = 0.0  # trailing-edge offset and half-thickness
    stack = decoded("parsec", row)
    assert sum(coefficients(stack, UPPER)) == pytest.approx(0.0, abs=1e-12)
    assert height(stack, UPPER, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert height(stack, LOWER, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_conditioning_guard_near_degenerate_crest():
    row = CENTER.copy()
    row[0] = 1e-9  # crest collapsing onto the leading edge
    with pytest.raises(ConditioningError):
        decoded("parsec", row)
    assert CONDITION_LIMIT == 1e12 and RESIDUAL_LIMIT == 1e-12


def test_crest_sweep_fails_on_conditioning_exactly_above_the_limit():
    # upper crests from near the nose to 5% chord at the box centre: the
    # residual test is relative to max|M| max|a|, so only the condition
    # limit decides which systems fail, and every other row decodes
    rows = np.repeat(CENTER[np.newaxis], 400, axis=0)
    rows[:, 0] = np.linspace(2e-3, 5e-2, rows.shape[0])
    cond = np.linalg.cond(_stack_systems(rows)[0])
    above = np.any(cond > CONDITION_LIMIT, axis=1)
    assert 0 < above.sum() < rows.shape[0] // 4
    reason = validate_airfoil(solve_coefficients(rows)).reason
    np.testing.assert_array_equal(reason == REASONS.index("conditioning"), above)
    assert set(REASONS[r] for r in reason) <= {"ok", "infeasible", "conditioning"}


def test_center_airfoil_is_feasible():
    report = validate_airfoil(decoded("parsec", CENTER), grid_size=401).row(0)
    assert report["feasible"]
    assert report["min_gap"] == pytest.approx(0.0008660156623361556, rel=1e-9)


def test_baseline_box_is_stored_literally():
    box = baseline_box()
    np.testing.assert_array_equal(
        box.lower,
        [0.242, 0.242, 0.048, -0.072, -0.004, 0.008, -3.335, 7.4, -0.6, 0.4, 0.012],
    )
    np.testing.assert_array_equal(
        box.upper,
        [0.363, 0.363, 0.072, -0.048, 0.004, 0.012, -2.223, 11.1, -0.4, 0.6, 0.018],
    )
    assert box.labels == JSON_KEYS
    # the x5 interval straddles zero, so it cannot come from a multiplicative rule
    assert box.lower[4] < 0.0 < box.upper[4]
