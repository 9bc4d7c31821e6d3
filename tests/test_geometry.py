import numpy as np
import pytest
from surfaces import LOWER, UPPER, height, scaled_naca

from activefoil import cst, parsec
from activefoil.errors import (
    ContractViolation,
    DomainError,
    SingularityError,
)
from activefoil.geometry import (
    NACA4_THICKNESS_COEFFS,
    NACA4_THICKNESS_COEFFS_CLOSED,
    BasisKind,
    BasisSpec,
    DecodedStack,
    eval_shape,
    eval_shape_t,
    naca_thickness_pair,
    nose_resolving_grid,
    shape_derivative,
    shape_derivative_t,
    validate_airfoil,
    write_coordinate_loop,
)

HALF = BasisSpec(BasisKind.HALF_INTEGER, 6)


def test_exponent_families():
    naca = BasisSpec(BasisKind.NACA4, 5)
    assert np.array_equal(naca.exponents(), [0.5, 1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(naca.exponents_t(), [1.0, 2.0, 4.0, 6.0, 8.0])

    # half-integer ell-powers are the odd integer t-powers
    half = BasisSpec(BasisKind.HALF_INTEGER, 4)
    assert np.array_equal(half.exponents(), [0.5, 1.5, 2.5, 3.5])
    assert np.array_equal(half.exponents_t(), [1.0, 3.0, 5.0, 7.0])
    assert [kind.value for kind in BasisKind] == ["naca4-like", "half-integer-powers"]


def test_basis_validation():
    with pytest.raises(ContractViolation):
        BasisSpec(BasisKind.NACA4, 4)
    with pytest.raises(ContractViolation):
        BasisSpec(BasisKind.HALF_INTEGER, 0)
    assert BasisSpec("half-integer-powers", 3).kind is BasisKind.HALF_INTEGER


def test_eval_shape_matches_literal_series():
    a = np.array([1.5, -2.0, 0.25])
    basis = BasisSpec(BasisKind.HALF_INTEGER, 3)
    for ell in (0.1, 0.37, 1.0):
        expected = 1.5 * ell**0.5 - 2.0 * ell**1.5 + 0.25 * ell**2.5
        assert eval_shape(a, basis, ell) == pytest.approx(expected, rel=1e-15)
    out = eval_shape(a, basis, np.array([0.1, 0.37]))
    assert isinstance(out, np.ndarray) and out.shape == (2,)
    assert isinstance(eval_shape(a, basis, 0.5), float)


def test_leading_edge_height_is_zero():
    rng = np.random.Generator(np.random.PCG64(0))
    for kind, k in ((BasisKind.NACA4, 5), (BasisKind.HALF_INTEGER, 6), (BasisKind.HALF_INTEGER, 4)):
        coeffs = rng.standard_normal(k)
        assert eval_shape(coeffs, BasisSpec(kind, k), 0.0) == 0.0
        assert eval_shape_t(coeffs, BasisSpec(kind, k), 0.0) == 0.0


def test_domain_checks():
    a = np.array([1.0, 0.5])
    basis = BasisSpec(BasisKind.HALF_INTEGER, 2)
    for bad in (-0.01, 1.01):
        with pytest.raises(DomainError):
            eval_shape(a, basis, bad)
        with pytest.raises(DomainError):
            eval_shape_t(a, basis, bad)
        with pytest.raises(DomainError):
            shape_derivative(a, basis, bad)


def test_slope_singular_at_nose_but_finite_in_t():
    a = np.array([1.0, -0.5, 0.2])
    basis = BasisSpec(BasisKind.HALF_INTEGER, 3)
    with pytest.raises(SingularityError):
        shape_derivative(a, basis, 0.0)
    with pytest.raises(SingularityError):
        shape_derivative(a, basis, np.array([0.5, 0.0]))
    # ds/dt at t=0 is the leading coefficient (t-exponents 1, 3, 5)
    assert shape_derivative_t(a, basis, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_chain_rule_between_coordinates():
    rng = np.random.Generator(np.random.PCG64(3))
    ell = np.linspace(0.05, 0.95, 19)
    t = np.sqrt(ell)
    for kind, k in ((BasisKind.NACA4, 5), (BasisKind.HALF_INTEGER, 6)):
        a = rng.standard_normal(k)
        basis = BasisSpec(kind, k)
        d_ell = shape_derivative(a, basis, ell)
        d_t = shape_derivative_t(a, basis, t)
        np.testing.assert_allclose(d_ell, d_t / (2.0 * np.sqrt(ell)), rtol=1e-12)


def test_derivatives_match_central_differences():
    rng = np.random.Generator(np.random.PCG64(4))
    a = rng.standard_normal(6)
    h = 1e-6
    for ell in np.linspace(0.05, 0.95, 7):
        fd = (eval_shape(a, HALF, ell + h) - eval_shape(a, HALF, ell - h)) / (2 * h)
        assert shape_derivative(a, HALF, ell) == pytest.approx(fd, rel=1e-5)
    for t in np.linspace(0.1, 0.9, 7):
        fd = (eval_shape_t(a, HALF, t + h) - eval_shape_t(a, HALF, t - h)) / (2 * h)
        assert shape_derivative_t(a, HALF, t) == pytest.approx(fd, rel=1e-5)


def test_t_and_ell_forms_agree():
    rng = np.random.Generator(np.random.PCG64(5))
    a = rng.standard_normal(6)
    ell = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(
        eval_shape(a, HALF, ell), eval_shape_t(a, HALF, np.sqrt(ell)), atol=1e-14
    )


def test_naca_thickness_literal_formula():
    stack = naca_thickness_pair(thickness=0.12)
    x = 0.3
    expected = 0.6 * (
        0.2969 * np.sqrt(x) - 0.1260 * x - 0.3516 * x**2 + 0.2843 * x**3 - 0.1015 * x**4
    )
    assert len(stack) == 1 and stack.basis == BasisSpec(BasisKind.NACA4, 5)
    assert height(stack, UPPER, x) == pytest.approx(expected, rel=1e-15)
    assert height(stack, LOWER, x) == pytest.approx(-expected, rel=1e-15)


def test_naca_trailing_edge_open_vs_closed():
    open_pair = naca_thickness_pair(0.12)
    closed_pair = naca_thickness_pair(0.12, closed=True)
    assert height(open_pair, UPPER, 1.0) == pytest.approx(0.6 * sum(NACA4_THICKNESS_COEFFS))
    assert abs(height(open_pair, UPPER, 1.0)) > 1e-4
    assert abs(height(closed_pair, UPPER, 1.0)) < 1e-15
    assert abs(sum(NACA4_THICKNESS_COEFFS_CLOSED)) < 1e-15
    with pytest.raises(DomainError):
        naca_thickness_pair(0.0)


def test_nose_resolving_grid_clusters_at_nose():
    t, ell = nose_resolving_grid(11)
    assert t[0] == 0.0 and t[-1] == 1.0
    np.testing.assert_allclose(np.diff(t), np.diff(t)[0], rtol=1e-12)
    np.testing.assert_array_equal(ell, t * t)
    assert ell[1] < t[1]  # finer resolution near the leading edge
    with pytest.raises(ContractViolation):
        nose_resolving_grid(1)


def test_validate_airfoil_feasible_report():
    report = validate_airfoil(naca_thickness_pair(0.12), grid_size=201).row(0)
    assert report["feasible"] is True and report["bounded"] and report["endpoints_fixed"]
    assert report["min_gap"] > 0.0
    assert report["lower_bound"] < 0.0 < report["upper_bound"]
    assert report["grid_size"] == 201


def test_validate_airfoil_detects_crossing():
    # lower_scale < 0 flips the lower surface on top of the upper one
    crossed = scaled_naca(0.12, 1.0, -1.0)
    report = validate_airfoil(crossed, grid_size=101).row(0)
    assert not report["feasible"]
    assert report["min_gap"] <= 0.0


def test_validate_airfoil_sharp_te_flag():
    open_pair = naca_thickness_pair(0.12)
    closed_pair = naca_thickness_pair(0.12, closed=True)
    assert validate_airfoil(open_pair).row(0)["endpoints_fixed"]
    assert not validate_airfoil(open_pair, sharp_trailing_edge=True).row(0)["endpoints_fixed"]
    assert validate_airfoil(closed_pair, sharp_trailing_edge=True).row(0)["endpoints_fixed"]
    with pytest.raises(ContractViolation):
        validate_airfoil(open_pair, grid_size=2)


def test_pair_in_two_bases_is_rejected():
    # a stack has one basis, so surfaces of another term count cannot enter it
    rng = np.random.Generator(np.random.PCG64(9))
    values = rng.standard_normal(6)
    naca = BasisSpec(BasisKind.NACA4, 5)
    for basis, coefficients in ((naca, [[values] * 2]),
                                (HALF, [[values[:5]] * 2])):
        with pytest.raises(ContractViolation, match=r"shape \(N, 2, \d\)"):
            DecodedStack(basis, np.array(coefficients), {})
    stack = DecodedStack(HALF, np.array([[values] * 2]), {})
    assert stack.basis == HALF and stack.coefficients.shape == (1, 2, 6)
    assert stack.coefficients.tobytes() == np.array([values] * 2).tobytes()


def test_parsec_and_cst_decode_into_one_series():
    # PARSEC's ell**(j - 1/2) terms are CST's t**(2j - 1) terms
    decoded = (parsec.solve_coefficients(parsec.baseline_box().lower[np.newaxis]),
               cst.surface_pair(cst.baseline_box().lower[np.newaxis]))
    assert decoded[0].basis == decoded[1].basis == HALF
    # so PARSEC's upper surface and CST's lower one make one design
    rows = np.array([decoded[0].coefficients[0, 0], decoded[1].coefficients[0, 1]])
    mixed = DecodedStack(HALF, rows[np.newaxis], {})
    stack = DecodedStack(HALF, np.array([decoded[0].coefficients[0], rows]), {})
    assert mixed.basis == HALF and mixed.coefficients.shape == (1, 2, 6)
    assert validate_airfoil(mixed).row(0) == validate_airfoil(stack).row(1)


def test_coefficient_container_contracts():
    for stack in (cst.surface_pair(np.full((2, 10), 0.5)),
                  parsec.solve_coefficients(np.tile(parsec.baseline_box().center, (2, 1)))):
        assert not stack.coefficients.flags.writeable
        with pytest.raises(ValueError):
            stack.coefficients[0, 0, 0] = 5.0
    # the reference evaluators take one 1-D row of basis.term_count values
    basis = BasisSpec(BasisKind.HALF_INTEGER, 3)
    for row in ([1.0, 2.0], [[1.0, 2.0, 3.0]]):
        with pytest.raises(ContractViolation, match="basis term count 3"):
            eval_shape(row, basis, 0.5)


def test_coordinate_loop_file(tmp_path):
    path = tmp_path / "loop.dat"
    stack = naca_thickness_pair(0.12)
    write_coordinate_loop(stack, path, n=51, name="demo")
    lines = path.read_text().splitlines()
    assert lines[0] == "demo"
    points = np.array([[float(v) for v in line.split()] for line in lines[1:]])
    assert points.shape == (2 * 51 - 1, 2)  # leading edge listed once
    assert points[0, 0] == 1.0 and points[-1, 0] == 1.0  # starts/ends at the TE
    assert points[50, 0] == 0.0 and points[50, 1] == 0.0  # LE in the middle
    assert np.all(points[:50, 1] >= points[51:, 1].min())  # upper first, then lower


def test_surface_objects_delegate():
    # each surface of a 1-row stack has on a grid the bits eval_shape and
    # shape_derivative give its coefficients
    rng = np.random.Generator(np.random.PCG64(8))
    a = rng.standard_normal(6)
    stack = DecodedStack(HALF, np.array([[a, a]]), {})
    ell = np.array([0.3])
    heights, = stack.grid_blocks(ell)
    slopes, = stack.grid_blocks(ell, slope=True)
    assert heights.shape == slopes.shape == (1, 2, 1)
    for surface in (UPPER, LOWER):
        assert heights[0, surface].tobytes() == eval_shape(a, HALF, ell).tobytes()
        assert slopes[0, surface].tobytes() == shape_derivative(a, HALF, ell).tobytes()
