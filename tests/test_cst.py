import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from surfaces import LOWER, UPPER, height

from activefoil.cst import (
    baseline_box,
    class_function,
    cst_surface,
    leading_edge_radius,
    odd_basis,
    read_params,
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
    # the flat row is the upper coefficients, then the lower ones
    row = read_params('{"m": 3, "upper": [1.0, 2, 3.0], "lower": [-1.0, -2.0, -3.0]}')
    assert row.dtype == float
    np.testing.assert_array_equal(row, [1, 2, 3, -1, -2, -3])
    np.testing.assert_array_equal(read_params('{"upper": [0.5], "lower": [-0.5]}'), [0.5, -0.5])
    for text in ('{"upper": [1, 2], "lower": [1]}', '{"upper": [], "lower": []}'):
        with pytest.raises(ContractViolation, match="must be equal-length 1-D vectors"):
            read_params(text)
    with pytest.raises(ContractViolation, match="declared m=4 does not match"):
        read_params('{"m": 4, "upper": [1, 2], "lower": [3, 4]}')


@pytest.mark.parametrize("text, missing", [
    ('{"upper": [1, 2]}', "['lower']"),
    ('{"m": 2}', "['upper', 'lower']"),
    ('[[1, 2], [3, 4]]', "['upper', 'lower']"),
    ('["upper", "lower"]', "['upper', 'lower']"),
], ids=["no-lower", "no-coefficients", "list", "list-of-keys"])
def test_from_json_refuses_missing_keys(text, missing):
    # a ContractViolation that names the keys, not a KeyError or TypeError
    with pytest.raises(ContractViolation, match=re.escape(f"missing parameter keys: {missing}")):
        read_params(text)


def test_expansion_literal_m2():
    stack = surface_pair([[0.4, 0.1, -0.4, -0.1]])
    np.testing.assert_allclose(stack.coefficients[0, UPPER], [0.4, 0.1 - 0.4, -0.1], rtol=1e-15)
    np.testing.assert_array_equal(stack.coefficients[0, LOWER], -stack.coefficients[0, UPPER])
    basis = odd_basis(2)
    assert stack.basis == basis
    assert basis.kind is BasisKind.HALF_INTEGER and basis.term_count == 3
    np.testing.assert_array_equal(basis.exponents_t(), [1, 3, 5])


def test_expansion_matches_product_across_draws():
    # 300 random m=5 surfaces, each decoded as both surfaces of one row,
    # agree with the product form to 1e-12 on a 101-point grid
    draws = sample(unit_box(5), 300, seed=29).matrix
    t = np.linspace(0.0, 1.0, 101)
    ell = t * t
    stack = surface_pair(np.hstack([draws, draws]))
    worst = 0.0
    for i, coeffs in enumerate(draws):
        direct = cst_surface(ell, coeffs)
        for surface in (UPPER, LOWER):
            series = eval_shape_t(stack.coefficients[i, surface], stack.basis, t)
            worst = max(worst, float(np.max(np.abs(direct - series))))
    assert worst <= 1e-12


def test_expansion_support_is_odd_degrees():
    basis = odd_basis(5)
    assert surface_pair(np.ones((1, 10))).coefficients.shape == (1, 2, 6)
    np.testing.assert_array_equal(basis.exponents_t(), [1, 3, 5, 7, 9, 11])


def test_expansion_rejects_other_class_exponents():
    # the class exponents are fixed at (1/2, 1): there is no way to pass others
    with pytest.raises(TypeError):
        surface_pair([[1.0, 2.0]], (0.5, 0.5))
    with pytest.raises(TypeError):
        class_function(0.5, (1.0, 1.0))
    for empty in ([], [[]]):
        with pytest.raises(ContractViolation):
            surface_pair(empty)


def test_surface_pair_consistency():
    upper, lower = np.split(baseline_box().center, 2)
    stack = surface_pair([baseline_box().center])
    ell = np.linspace(0.0, 1.0, 41)
    np.testing.assert_allclose(height(stack, UPPER, ell), cst_surface(ell, upper), atol=1e-14)
    np.testing.assert_allclose(height(stack, LOWER, ell), cst_surface(ell, lower), atol=1e-14)
    assert height(stack, UPPER, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_leading_edge_radius_osculation():
    center = baseline_box().center
    stack = surface_pair([center])
    radius = leading_edge_radius(center[0])
    assert radius == 0.5 * center[0] ** 2
    for ell in (radius / 10, radius / 40, radius / 160):
        dev = abs(height(stack, UPPER, ell) / math.sqrt(2 * radius * ell) - 1.0)
        assert dev < 0.05


def test_baseline_box_is_stored_literally():
    # the +/-20% box around the closed NACA-0012 fit, derived in code
    box = baseline_box()
    assert box.dim == 10
    np.testing.assert_array_equal(box.lower[:5], -box.upper[5:])
    ell = np.linspace(0.0, 1.0, 1001)
    naca = naca_thickness_pair(0.12, closed=True)
    stack = surface_pair([box.center])
    assert np.max(np.abs(height(stack, UPPER, ell) - height(naca, UPPER, ell))) < 5e-4
    assert np.max(np.abs(height(stack, LOWER, ell) - height(naca, LOWER, ell))) < 5e-4
    assert np.all(height(stack, LOWER, ell[1:-1]) <= 0.0)
    # lower-surface leading coefficient interval is negative and ordered
    assert box.lower[5] < box.upper[5] < 0.0