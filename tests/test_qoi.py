import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from surfaces import LOWER, UPPER, height

from activefoil import cst
from activefoil.errors import ContractViolation, EvaluationError
from activefoil.geometry import (
    BasisKind,
    BasisSpec,
    DecodedStack,
    naca_thickness_pair,
    nose_resolving_grid,
    validate_airfoil,
)
from activefoil.qoi import (
    PANEL_DRAG_GAIN,
    PANEL_DRAG_OFFSET,
    PanelSurrogate,
    QoiEvaluator,
    Ridge,
    SyntheticQuadratic,
    camber_lift,
    evaluate_batch,
    seeded_quadratic,
    thickness_drag,
)
from activefoil.sampling import sample, unit_box


def test_synthetic_quadratic_literal():
    qoi = SyntheticQuadratic([[2.0, 0.0], [0.0, 0.0]], [0.0, 1.0], 3.0)
    assert qoi([2.0, 5.0]) == 4.0 + 5.0 + 3.0
    assert qoi.dim == 2
    assert qoi([[2.0, 5.0], [0.0, 0.0]]).tolist() == [12.0, 3.0]
    with pytest.raises(ContractViolation):
        qoi([1.0, 2.0, 3.0])
    with pytest.raises(ContractViolation):
        SyntheticQuadratic([[0.0, 1.0], [0.0, 0.0]], [0.0, 0.0], 0.0)
    with pytest.raises(ContractViolation):
        SyntheticQuadratic(np.eye(2), [1.0], 0.0)


def test_seeded_quadratic_reconstruction():
    qoi = seeded_quadratic(4, seed=20)
    again = seeded_quadratic(4, seed=20)
    np.testing.assert_array_equal(qoi.model.hessian, again.model.hessian)
    np.testing.assert_array_equal(qoi.model.linear, again.model.linear)
    np.testing.assert_array_equal(qoi.model.hessian, qoi.model.hessian.T)
    assert qoi.model.constant == 0.0

    rng = np.random.Generator(np.random.PCG64(20))
    square = rng.standard_normal((4, 4))
    np.testing.assert_array_equal(qoi.model.hessian, 0.5 * (square + square.T))
    np.testing.assert_array_equal(qoi.model.linear, rng.standard_normal(4))

    assert not np.array_equal(qoi.model.hessian, seeded_quadratic(4, seed=21).model.hessian)
    with pytest.raises(ContractViolation):
        seeded_quadratic(0, seed=1)


def test_synthetic_quadratic_blocks_keep_each_rows_bits_and_bound_memory():
    # Hx is formed in row blocks; each row keeps the unblocked elementwise sum
    import tracemalloc

    m = 78
    qoi = seeded_quadratic(m, seed=5)
    X = sample(unit_box(m), 300, seed=6).matrix
    model = qoi.model
    hx = (X[:, np.newaxis, :] * model.hessian).sum(axis=-1)  # one (300, m, m) product
    unblocked = 0.5 * (hx * X).sum(axis=-1) + (X * model.linear).sum(axis=-1) + model.constant
    np.testing.assert_array_equal(qoi(X), unblocked)

    X = sample(unit_box(m), 1000, seed=7).matrix
    tracemalloc.start()
    try:
        qoi(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # the unblocked (1000, m, m) product alone is 49 MB


def test_ridge_profile_literals():
    lin = Ridge([3.0, 4.0], profile="linear")
    np.testing.assert_allclose(lin.direction, [0.6, 0.8], rtol=1e-15)
    assert lin([1.0, 1.0]) == pytest.approx(1.4, rel=1e-15)
    assert Ridge([3.0, 4.0], "quadratic")([1.0, 1.0]) == pytest.approx(1.96, rel=1e-15)
    assert Ridge([3.0, 4.0], "exp")([1.0, 1.0]) == pytest.approx(math.exp(1.4), rel=1e-15)


def test_ridge_constant_on_orthogonal_slices():
    qoi = Ridge([1.0, 0.0, 0.0])
    base = qoi([0.3, 0.0, 0.0])
    for a, b in ((1.0, -1.0), (0.25, 0.75), (-0.9, 0.1)):
        assert qoi([0.3, a, b]) == base


def test_ridge_validation():
    with pytest.raises(ContractViolation):
        Ridge([0.0, 0.0])
    with pytest.raises(ContractViolation):
        Ridge([1.0], profile="cubic")
    for noise_std in (-0.1, np.inf, np.nan):
        with pytest.raises(ContractViolation, match="noise_std"):
            Ridge([1.0], noise_std=noise_std)
    with pytest.raises(ContractViolation):
        Ridge([[1.0, 2.0]])


def test_ridge_noise_is_reproducible():
    noisy = Ridge([1.0, 2.0], noise_std=0.5, noise_seed=3)
    x = np.array([0.2, -0.4])
    assert noisy(x) == noisy(x)  # bitwise
    assert noisy(x) != Ridge([1.0, 2.0], noise_std=0.5, noise_seed=4)(x)

    def noise(point):
        return noisy._noise(np.asarray(point)[np.newaxis])[0]

    # the draw is keyed on x rounded to the grid 2^-20: a last-bit change
    # keeps it, one grid step redraws it
    assert noise(np.nextafter(x, 2.0)) == noise(x)
    assert noise(x + 2.0 ** -20) != noise(x)
    clean = Ridge([1.0, 2.0])
    assert abs(noisy(x) - clean(x)) < 5 * 0.5
    assert noisy.noise_std == 0.5 and noisy.noise_seed == 3


class _FailsInside(QoiEvaluator):
    """f(x) = 5 + x1; a row with 0 < x1 < 1 fails."""

    dim = 2

    def evaluate_many(self, X):
        rows = self._stack(X)
        values = 5.0 + rows[:, 0]
        bad = np.flatnonzero((rows[:, 0] > 0.0) & (rows[:, 0] < 1.0))
        values[bad] = np.nan
        return values, {i: EvaluationError("x1 inside (0, 1)") for i in bad.tolist()}


def test_evaluate_batch_error_modes():
    ev = _FailsInside()
    X = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
    with pytest.raises(EvaluationError) as info:
        evaluate_batch(ev, X, on_error="raise")
    assert info.value.index == 1

    values, failed = evaluate_batch(ev, X, on_error="skip")
    assert failed == [1]
    assert values[0] == 5.0 and values[2] == 6.0
    assert np.isnan(values[1])

    with pytest.raises(ContractViolation):
        evaluate_batch(ev, X, on_error="ignore")
    # one design raises its row's error, as row 0 of its 1-row stack; a
    # stack of the wrong width is refused once
    with pytest.raises(EvaluationError, match="inside") as info:
        ev(X[1])
    assert info.value.index == 0
    for bad in (np.zeros((3, 3)), np.zeros(3)):
        with pytest.raises(ContractViolation, match="rows of length 2"):
            evaluate_batch(ev, bad)


_STACK_EVALUATORS = {
    "quadratic": lambda m: seeded_quadratic(m, 5),
    "ridge": lambda m: Ridge(1.0 / np.arange(1.0, m + 1.0), "exp"),
    "noisy-ridge": lambda m: Ridge(1.0 / np.arange(1.0, m + 1.0), "quadratic",
                                   noise_std=0.1, noise_seed=11),
    "panel-both": lambda m: PanelSurrogate("cst", "both"),
}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(_STACK_EVALUATORS)), m=st.integers(1, 30), data=st.data())
def test_rows_keep_their_bits_in_any_stack(kind, m, data):
    ev = _STACK_EVALUATORS[kind](m)
    n = data.draw(st.integers(1, 24))
    X = np.array(data.draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=ev.dim,
                                             max_size=ev.dim), min_size=n, max_size=n)))
    cuts = sorted(set(data.draw(st.lists(st.integers(1, n), max_size=4))) - {n})
    values, failed = ev.evaluate_many(X)
    blocks = [ev.evaluate_many(block) for block in np.split(X, cuts)]
    assert np.concatenate([v for v, _ in blocks]).tobytes() == values.tobytes()
    starts = [0, *cuts]
    assert [start + i for start, (_, f) in zip(starts, blocks) for i in f] == list(failed)
    for i, row in enumerate(X):
        if i in failed:  # an error that is not an EvaluationError is the cause of one
            with pytest.raises(EvaluationError) as info:
                ev(row)
            assert type(info.value.__cause__ or info.value) is type(failed[i])
        else:
            assert np.asarray(ev(row)).tobytes() == values[i].tobytes()


def test_camber_lift_parabolic_oracle():
    # both surfaces on the camber line 4h*ell*(1-ell), whose thin-airfoil
    # lift is 4*pi*h: coefficients (0, 4h, -4h, 0, 0) in the naca4-like basis
    h = 0.03
    camber = [0.0, 4.0 * h, -4.0 * h, 0.0, 0.0]
    stack = DecodedStack(BasisSpec(BasisKind.NACA4, 5), np.array([[camber, camber]]), {})
    assert camber_lift(stack)[0] == pytest.approx(4.0 * math.pi * h, rel=1e-14)


# a cambered CST row, upper then lower coefficients, and its upper/lower mirror swap
_CAMBERED = np.array([0.16, 1.1, 0.9, 1.0, 1.05, -0.13, 0.85, 1.2, 0.95, 1.0])
_SWAPPED = -np.concatenate([_CAMBERED[5:], _CAMBERED[:5]])


def test_camber_lift_is_odd_under_mirror_swap():
    assert (camber_lift(cst.surface_pair([_SWAPPED]))[0]
            == -camber_lift(cst.surface_pair([_CAMBERED]))[0])


def test_camber_lift_zero_for_mirror_pairs():
    assert camber_lift(naca_thickness_pair(0.12))[0] == 0.0


def _drag(stack):
    """Drag of the one design of a 1-row stack, validated on the default grid."""
    return thickness_drag(validate_airfoil(stack))[0]


def test_thickness_drag_literal_and_even():
    stack = naca_thickness_pair(0.12)
    _, ell = nose_resolving_grid(201)
    tmax = float(np.max(height(stack, UPPER, ell) - height(stack, LOWER, ell)))
    assert _drag(stack) == PANEL_DRAG_OFFSET + PANEL_DRAG_GAIN * tmax * tmax

    assert _drag(cst.surface_pair([_CAMBERED])) == _drag(cst.surface_pair([_SWAPPED]))

    assert _drag(naca_thickness_pair(0.144)) > _drag(stack)


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
    assert lift(center) == 0.0  # the centre is a mirror-symmetric pair
    assert drag(center) == pytest.approx(0.00703407401213271, rel=1e-12)


def test_panel_surrogate_rejects_infeasible_decode():
    drag = PanelSurrogate("cst", "drag")
    # the centre's mirror image, upper -a and lower a: the surfaces cross
    x = -4.0 * drag.box.center / drag.box.width
    with pytest.raises(EvaluationError) as info:
        drag(x)
    assert info.value.report is not None and not info.value.report["feasible"]


def test_panel_surrogate_fails_non_finite_values_as_unbounded():
    # decodable designs far outside the box whose surfaces do not cross:
    # thickness squared overflows at x1 = x2 = 1e160, and the camber
    # slopes too at x1 = 5e307
    X = np.zeros((3, 10))
    X[1, :2] = 1e160
    X[2, 0] = 5e307
    for objective, bad in (("drag", [1, 2]), ("lift", [2]), ("both", [1, 2])):
        panel = PanelSurrogate("cst", objective)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, failed = panel.evaluate_many(X)
        assert list(failed) == bad
        assert all(isinstance(exc, EvaluationError) and "(unbounded)" in str(exc)
                   for exc in failed.values())
        assert np.all(np.isnan(values[bad]))
        assert np.all(np.isfinite(np.delete(values, bad, axis=0)))
    with pytest.raises(EvaluationError, match="unbounded"):
        PanelSurrogate("cst", "drag")(X[1])


def test_panel_surrogate_deterministic():
    lift = PanelSurrogate("parsec", "lift")
    x = sample(unit_box(11), 1, seed=40).matrix[0]
    assert lift(x) == lift(x)
