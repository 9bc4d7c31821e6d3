import json
import math

import numpy as np
import pytest
from surfaces import LOWER, UPPER, coefficients, decoded, height, slope

from activefoil.errors import ConditioningError, ContractViolation, DomainError
from activefoil.geometry import REASONS, validate_airfoil
from activefoil.parsec import (
    CONDITION_LIMIT,
    JSON_KEYS,
    RESIDUAL_LIMIT,
    TERM_COUNT,
    ParsecParams,
    _stack_systems,
    baseline_box,
    baseline_center,
    solve_coefficients,
)
from activefoil.sampling import sample


def _mirror(params: ParsecParams) -> ParsecParams:
    return ParsecParams(
        upper_crest_x=params.upper_crest_x,
        lower_crest_x=params.upper_crest_x,
        upper_crest_y=params.upper_crest_y,
        lower_crest_y=-params.upper_crest_y,
        te_y=0.0,
        te_half_thickness=params.te_half_thickness,
        te_angle_deg=0.0,
        te_wedge_deg=params.te_wedge_deg,
        upper_curvature=params.upper_curvature,
        lower_curvature=-params.upper_curvature,
        le_radius=params.le_radius,
    )


def test_param_validation():
    center = baseline_center()
    with pytest.raises(ContractViolation):
        ParsecParams.from_sequence(center.to_sequence()[:10])
    for field, bad in (
        ("upper_crest_x", 0.0),
        ("lower_crest_x", 1.0),
        ("le_radius", 0.0),
        ("te_half_thickness", -0.01),
        ("te_y", np.nan),
    ):
        values = center.to_mapping()
        values[JSON_KEYS[list(f.name for f in center.__dataclass_fields__.values()).index(field)]] = bad
        with pytest.raises(DomainError):
            ParsecParams.from_mapping(values)


def test_json_roundtrip_uses_x_keys():
    center = baseline_center()
    payload = json.loads(center.to_json())
    assert sorted(payload) == sorted(JSON_KEYS)
    again = ParsecParams.from_json(center.to_json())
    assert again == center
    with pytest.raises(ContractViolation) as info:
        ParsecParams.from_mapping({"x1": 0.3})
    assert "x2" in str(info.value)


def test_leading_edge_coefficient_signs():
    # a_1 = +sqrt(2 r) on the upper surface and -sqrt(2 r) on the lower one;
    # a radius that is not positive is the row's DomainError
    rows = np.repeat([baseline_center().to_sequence()], 2, axis=0)
    rows[:, 10] = 0.015, 0.0
    _, rhs = _stack_systems(rows[:1])
    assert rhs[0, 0, 5] == math.sqrt(0.03) and rhs[0, 1, 5] == -math.sqrt(0.03)
    stack = solve_coefficients(rows)
    assert coefficients(stack, UPPER)[0] == pytest.approx(math.sqrt(0.03), rel=1e-12)
    assert coefficients(stack, LOWER)[0] == pytest.approx(-math.sqrt(0.03), rel=1e-12)
    assert list(stack.errors) == [1] and isinstance(stack.errors[1], DomainError)


def test_constraint_rows_are_the_documented_ones():
    params = baseline_center()
    matrix, rhs = _stack_systems(np.array([params.to_sequence()]))
    assert matrix.shape == (1, 2, TERM_COUNT, TERM_COUNT) and rhs.shape == (1, 2, TERM_COUNT)
    system, lower_rhs = matrix[0, 0], rhs[0, 1]
    e = np.arange(TERM_COUNT) + 0.5
    p = params.upper_crest_x
    np.testing.assert_allclose(system[0], p**e, rtol=1e-15)
    np.testing.assert_array_equal(system[1], np.ones(6))
    np.testing.assert_allclose(system[2], e * p ** (e - 1), rtol=1e-15)
    np.testing.assert_array_equal(system[3], e)
    np.testing.assert_allclose(system[4], e * (e - 1) * p ** (e - 2), rtol=1e-15)
    np.testing.assert_array_equal(system[5], [1, 0, 0, 0, 0, 0])

    expected_rhs = [
        params.upper_crest_y,
        params.te_y + params.te_half_thickness,
        0.0,
        math.tan(math.radians(params.te_angle_deg - params.te_wedge_deg)),
        params.upper_curvature,
        math.sqrt(2.0 * params.le_radius),
    ]
    np.testing.assert_array_equal(rhs[0, 0], expected_rhs)

    assert lower_rhs[1] == params.te_y - params.te_half_thickness
    assert lower_rhs[3] == math.tan(math.radians(params.te_angle_deg + params.te_wedge_deg))
    assert lower_rhs[5] == -math.sqrt(2.0 * params.le_radius)
    np.testing.assert_allclose(matrix[0, 1, 0], params.lower_crest_x**e, rtol=1e-15)


def test_solved_surfaces_satisfy_geometry():
    params = baseline_center()
    stack = decoded(params)
    h = 1e-6

    assert height(stack, UPPER, params.upper_crest_x) == pytest.approx(params.upper_crest_y,
                                                                      abs=1e-12)
    assert height(stack, LOWER, params.lower_crest_x) == pytest.approx(params.lower_crest_y,
                                                                      abs=1e-12)
    assert slope(stack, UPPER, params.upper_crest_x) == pytest.approx(0.0, abs=1e-10)
    assert slope(stack, LOWER, params.lower_crest_x) == pytest.approx(0.0, abs=1e-10)

    assert height(stack, UPPER, 1.0) == pytest.approx(
        params.te_y + params.te_half_thickness, abs=1e-12)
    assert height(stack, LOWER, 1.0) == pytest.approx(
        params.te_y - params.te_half_thickness, abs=1e-12)
    assert slope(stack, UPPER, 1.0) == pytest.approx(
        math.tan(math.radians(params.te_angle_deg - params.te_wedge_deg)), abs=1e-10
    )
    assert slope(stack, LOWER, 1.0) == pytest.approx(
        math.tan(math.radians(params.te_angle_deg + params.te_wedge_deg)), abs=1e-10
    )

    # crest curvature via central differences of the slope
    fd = (slope(stack, UPPER, params.upper_crest_x + h)
          - slope(stack, UPPER, params.upper_crest_x - h)) / (2 * h)
    assert fd == pytest.approx(params.upper_curvature, rel=1e-5)

    # leading-edge coefficient carries the radius
    assert coefficients(stack, UPPER)[0] == pytest.approx(math.sqrt(2 * params.le_radius),
                                                          rel=1e-12)
    assert coefficients(stack, LOWER)[0] == pytest.approx(-math.sqrt(2 * params.le_radius),
                                                          rel=1e-12)


def test_residuals_small_across_the_box():
    box = baseline_box()
    draws = sample(box, 200, seed=17).physical()
    matrix, rhs = _stack_systems(draws)
    a = np.linalg.solve(matrix, rhs[..., np.newaxis])
    assert float(np.max(np.abs(matrix @ a - rhs[..., np.newaxis]))) < 1e-9
    assert solve_coefficients(draws).errors == {}  # nothing fails anywhere in the box


def test_leading_edge_osculation():
    params = baseline_center()
    stack = decoded(params)
    eps = params.le_radius
    for ell in (eps / 10, eps / 40, eps / 160):
        dev = abs(height(stack, UPPER, ell) / math.sqrt(2 * eps * ell) - 1.0)
        assert dev < 0.05
    # deviation shrinks as the nose is approached
    d1 = abs(height(stack, UPPER, eps / 10) / math.sqrt(2 * eps * eps / 10) - 1.0)
    d2 = abs(height(stack, UPPER, eps / 160) / math.sqrt(2 * eps * eps / 160) - 1.0)
    assert d2 < d1


def test_mirror_symmetry_is_bitwise():
    sym = _mirror(baseline_center())
    stack = decoded(sym)
    np.testing.assert_array_equal(coefficients(stack, UPPER), -coefficients(stack, LOWER))


def test_sharp_trailing_edge():
    values = baseline_center().to_mapping()
    values["x5"] = 0.0
    values["x6"] = 0.0
    stack = decoded(ParsecParams.from_mapping(values))
    assert sum(coefficients(stack, UPPER)) == pytest.approx(0.0, abs=1e-12)
    assert height(stack, UPPER, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert height(stack, LOWER, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_conditioning_guard_near_degenerate_crest():
    values = baseline_center().to_mapping()
    values["x1"] = 1e-9  # crest collapsing onto the leading edge
    with pytest.raises(ConditioningError):
        decoded(ParsecParams.from_mapping(values))
    assert CONDITION_LIMIT == 1e12 and RESIDUAL_LIMIT == 1e-12


def test_crest_sweep_fails_on_conditioning_exactly_above_the_limit():
    # upper crests from near the nose to 5% chord at the box centre: the
    # residual test is relative to max|M| max|a|, so only the condition
    # limit decides which systems fail, and every other row decodes
    rows = np.repeat(baseline_box().center[np.newaxis], 400, axis=0)
    rows[:, 0] = np.linspace(2e-3, 5e-2, rows.shape[0])
    cond = np.linalg.cond(_stack_systems(rows)[0])
    above = np.any(cond > CONDITION_LIMIT, axis=1)
    assert 0 < above.sum() < rows.shape[0] // 4
    reason = validate_airfoil(solve_coefficients(rows)).reason
    np.testing.assert_array_equal(reason == REASONS.index("conditioning"), above)
    assert set(REASONS[r] for r in reason) <= {"ok", "infeasible", "conditioning"}


def test_center_airfoil_is_feasible():
    report = validate_airfoil(decoded(baseline_center()), grid_size=401).row(0)
    assert report.feasible
    assert report.min_gap == pytest.approx(0.0008660156623361556, rel=1e-9)


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
    center = baseline_center()
    np.testing.assert_allclose(center.to_sequence(), 0.5 * (box.lower + box.upper), rtol=1e-15)
