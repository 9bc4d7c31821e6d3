import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from activefoil.cst import (
    CstParams,
    baseline_box,
    baseline_center,
    class_function,
    cst_surface,
    expand_odd_polynomial,
    leading_edge_radius,
    odd_basis,
    surface_pair,
)
from activefoil.errors import ContractViolation, DomainError
from activefoil.geometry import BasisKind, eval_shape_t, naca_thickness_pair
from activefoil.sampling import sample, unit_box


def test_class_function_literal():
    for ell in (0.0, 0.2, 0.5, 1.0):
        assert class_function(ell) == math.sqrt(ell) * (1.0 - ell)
    out = class_function(np.array([0.25, 0.36]))
    np.testing.assert_allclose(out, [0.5 * 0.75, 0.6 * 0.64], rtol=1e-15)
    with pytest.raises(DomainError):
        class_function(1.5)
    with pytest.raises(DomainError):
        class_function(np.array([0.5, -0.1]))


_finite = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(coeffs=st.lists(_finite, min_size=1, max_size=9),
       ell=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=12),
       scalar=st.booleans())
def test_cst_surface_matches_numpy_polyval_bitwise(coeffs, ell, scalar):
    x = np.array(coeffs)
    points = ell[0] if scalar and ell else np.array(ell)
    got = cst_surface(points, x)
    want = class_function(np.asarray(points, dtype=float)) * npoly.polyval(
        np.asarray(points, dtype=float), x)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    if scalar and ell:
        assert isinstance(got, float)


def test_cst_surface_is_class_times_polynomial():
    coeffs = np.array([0.3, -0.2, 0.1])
    for ell in (0.0, 0.3, 0.77, 1.0):
        poly = 0.3 - 0.2 * ell + 0.1 * ell**2
        assert cst_surface(ell, coeffs) == pytest.approx(
            math.sqrt(ell) * (1 - ell) * poly, rel=1e-15
        )
    assert cst_surface(0.0, coeffs) == 0.0
    assert cst_surface(1.0, coeffs) == 0.0
    with pytest.raises(ContractViolation):
        cst_surface(0.5, [[0.3]])


def test_params_flat_layout_and_json():
    params = CstParams.from_flat([1.0, 2.0, 3.0, -1.0, -2.0, -3.0])
    np.testing.assert_array_equal(params.upper, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(params.lower, [-1.0, -2.0, -3.0])
    assert params.m == 3
    np.testing.assert_array_equal(params.to_flat(), [1, 2, 3, -1, -2, -3])

    payload = json.loads(params.to_json())
    assert payload["m"] == 3
    again = CstParams.from_json(params.to_json())
    np.testing.assert_array_equal(again.upper, params.upper)
    np.testing.assert_array_equal(again.lower, params.lower)

    with pytest.raises(ContractViolation):
        CstParams.from_flat([1.0, 2.0, 3.0])  # odd length
    with pytest.raises(ContractViolation):
        CstParams(upper=[1.0, 2.0], lower=[1.0])
    with pytest.raises(ContractViolation):
        CstParams(upper=[np.nan], lower=[1.0])
    with pytest.raises(ContractViolation):
        CstParams.from_json('{"m": 4, "upper": [1, 2], "lower": [3, 4]}')


def test_expansion_literal_m2():
    odd = expand_odd_polynomial([0.4, 0.1])
    np.testing.assert_allclose(odd.values, [0.4, 0.1 - 0.4, -0.1], rtol=1e-15)
    basis = odd_basis(2)
    assert basis.kind is BasisKind.HALF_INTEGER and basis.term_count == 3
    np.testing.assert_array_equal(basis.exponents_t(), [1, 3, 5])


def test_expansion_matches_product_across_draws():
    # 300 random m=5 surfaces agree to 1e-12 on a 101-point grid
    draws = sample(unit_box(5), 300, seed=29).matrix
    t = np.linspace(0.0, 1.0, 101)
    ell = t * t
    basis = odd_basis(5)
    worst = 0.0
    for coeffs in draws:
        direct = cst_surface(ell, coeffs)
        series = eval_shape_t(expand_odd_polynomial(coeffs), basis, t)
        worst = max(worst, float(np.max(np.abs(direct - series))))
    assert worst <= 1e-12


def test_expansion_support_is_odd_degrees():
    basis = odd_basis(5)
    assert expand_odd_polynomial(np.ones(5)).values.size == 6
    np.testing.assert_array_equal(basis.exponents_t(), [1, 3, 5, 7, 9, 11])


def test_expansion_rejects_other_class_exponents():
    # the class exponents are fixed at (1/2, 1): there is no way to pass others
    with pytest.raises(TypeError):
        expand_odd_polynomial([1.0, 2.0], (0.5, 0.5))
    with pytest.raises(TypeError):
        class_function(0.5, (1.0, 1.0))
    with pytest.raises(ContractViolation):
        expand_odd_polynomial([])


def test_surface_pair_consistency():
    params = baseline_center()
    pair = surface_pair(params)
    ell = np.linspace(0.0, 1.0, 41)
    np.testing.assert_allclose(
        pair.upper.height(ell), cst_surface(ell, params.upper), atol=1e-14
    )
    np.testing.assert_allclose(
        pair.lower.height(ell), cst_surface(ell, params.lower), atol=1e-14
    )
    assert pair.upper.height(1.0) == pytest.approx(0.0, abs=1e-15)


def test_leading_edge_radius_osculation():
    params = baseline_center()
    pair = surface_pair(params)
    radius = leading_edge_radius(params.upper[0])
    assert radius == 0.5 * params.upper[0] ** 2
    for ell in (radius / 10, radius / 40, radius / 160):
        dev = abs(pair.upper.height(ell) / math.sqrt(2 * radius * ell) - 1.0)
        assert dev < 0.05


def test_baseline_box_is_stored_literally():
    # the +/-20% box around the closed NACA-0012 fit, derived in code
    box = baseline_box()
    assert box.dim == 10
    np.testing.assert_array_equal(box.lower[:5], -box.upper[5:])
    ell = np.linspace(0.0, 1.0, 1001)
    naca = naca_thickness_pair(0.12, closed=True)
    pair = surface_pair(baseline_center())
    assert np.max(np.abs(pair.upper.height(ell) - naca.upper.height(ell))) < 5e-4
    assert np.max(np.abs(pair.lower.height(ell) - naca.lower.height(ell))) < 5e-4
    assert np.all(pair.lower.height(ell[1:-1]) <= 0.0)
    # lower-surface leading coefficient interval is negative and ordered
    assert box.lower[5] < box.upper[5] < 0.0