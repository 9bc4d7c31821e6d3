"""Batch-first decode and panel evaluation against the one-design path.

The reference below is a test-local copy of the per-row evaluation loop
the panel surrogate used before decoding became batched: one PARSEC
6x6 solve per surface with its own cond/solve/residual check, one CST
expansion per surface, and heights and slopes from freshly built power
tables.  The batched path must reproduce it bit for bit, and each row of
a stack must have the bits of its own 1-row stack, the one-design path.
"""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from surfaces import LOWER, UPPER, height, scaled_naca, slope

from activefoil import cli, cst, parsec, qoi
from activefoil.errors import (
    ConditioningError,
    ContractViolation,
    DomainError,
    EvaluationError,
    SampleSizeWarning,
)
from activefoil.geometry import (
    REASONS,
    BasisKind,
    BasisSpec,
    DecodedStack,
    nose_resolving_grid,
)
from activefoil.sampling import denormalize, derive_seed, sample

N_DESIGNS = 200
GRID = 201
LIFT_POINTS = 256


# ---------------------------------------------------------------------------
# reference: the per-row loop


# each parameter's name, as a domain error names it
_PARSEC_FIELDS = ("upper_crest_x", "lower_crest_x", "upper_crest_y", "lower_crest_y", "te_y",
                  "te_half_thickness", "te_angle_deg", "te_wedge_deg", "upper_curvature",
                  "lower_curvature", "le_radius")


def _reference_domain(physical):
    """Raise the DomainError of the first domain rule the row breaks, one value at a time."""
    values = dict(zip(_PARSEC_FIELDS, physical.tolist()))
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite")
    for name in ("upper_crest_x", "lower_crest_x"):
        if not 0.0 < values[name] < 1.0:
            raise DomainError(f"{name} must lie strictly inside (0, 1), got {values[name]}")
    if values["le_radius"] <= 0.0:
        raise DomainError("le_radius must be positive")
    if values["te_half_thickness"] < 0.0:
        raise DomainError("te_half_thickness must be non-negative")


def _reference_parsec(physical):
    _reference_domain(physical)
    (upper_x, lower_x, upper_y, lower_y, te_y, te_half_thickness, te_angle, te_wedge,
     upper_curvature, lower_curvature, le_radius) = physical.tolist()
    e = np.arange(1, 7) - 0.5
    out = []
    for surface in ("upper", "lower"):
        if surface == "upper":
            ell_int, crest_y = upper_x, upper_y
            te_height = te_y + te_half_thickness
            te_slope = math.tan(math.radians(te_angle - te_wedge))
            curvature, le = upper_curvature, math.sqrt(2.0 * le_radius)
        else:
            ell_int, crest_y = lower_x, lower_y
            te_height = te_y - te_half_thickness
            te_slope = math.tan(math.radians(te_angle + te_wedge))
            curvature, le = lower_curvature, -math.sqrt(2.0 * le_radius)
        matrix = np.vstack([
            ell_int**e, np.ones(6), e * ell_int ** (e - 1.0), e.copy(),
            e * (e - 1.0) * ell_int ** (e - 2.0), np.eye(6)[0],
        ])
        rhs = np.array([crest_y, te_height, 0.0, te_slope, curvature, le])
        cond = np.linalg.cond(matrix)
        if not np.isfinite(cond) or cond > parsec.CONDITION_LIMIT:
            raise ConditioningError(
                f"{surface} constraint system too ill-conditioned "
                f"(cond ~ {cond:.3e} at crest position {matrix[0, 0] ** 2.0:.6g})"
            )
        a = np.linalg.solve(matrix, rhs)
        residual = float(np.max(np.abs(matrix @ a - rhs)))
        residual /= float(np.max(np.abs(matrix))) * float(np.max(np.abs(a)))
        if residual > parsec.RESIDUAL_LIMIT:
            raise ConditioningError(
                f"{surface} solve residual {residual:.3e} relative to max|M| max|a| "
                f"exceeds {parsec.RESIDUAL_LIMIT:g}"
            )
        out.append(a)
    return e, out[0], out[1]


def _reference_cst(physical):
    if not np.all(np.isfinite(physical)):
        raise ContractViolation("coefficients must be finite")
    out = []
    for x in np.split(physical, 2):
        odd = np.empty(x.size + 1)
        odd[0] = x[0]
        odd[1:-1] = x[1:] - x[:-1]
        odd[-1] = -x[-1]
        out.append(odd)
    return np.arange(1, physical.size // 2 + 2) - 0.5, out[0], out[1]


def _reference_evaluate(parameterization, objective, x, box):
    physical = denormalize(x, box)
    decode = _reference_parsec if parameterization == "parsec" else _reference_cst
    e, upper, lower = decode(physical)
    t = np.linspace(0.0, 1.0, GRID)
    ell = t * t
    up = (ell[:, None] ** e) @ upper
    lo = (ell[:, None] ** e) @ lower
    gap = up[1:-1] - lo[1:-1]
    feasible = bool(np.all(gap > 0.0))
    bounded = bool(np.all(np.isfinite(up)) and np.all(np.isfinite(lo)))
    if not (feasible and bounded):
        raise EvaluationError(
            f"panel-{objective}-{parameterization}: decoded surfaces infeasible "
            f"(min gap {float(np.min(gap)):.3e})"
        )
    if objective == "drag":
        thickness = float(np.max(up - lo))
        return qoi.PANEL_DRAG_OFFSET + qoi.PANEL_DRAG_GAIN * thickness * thickness
    theta = (np.arange(LIFT_POINTS) + 0.5) * (np.pi / LIFT_POINTS)
    nodes = 0.5 * (1.0 - np.cos(theta))
    slope_table = nodes[:, None] ** (e - 1.0) * e
    slope = 0.5 * (slope_table @ upper + slope_table @ lower)
    return 2.0 * (np.pi / LIFT_POINTS) * float(np.sum(slope * (np.cos(theta) - 1.0)))


def _reference_batch(parameterization, objective, X, box):
    """(values, failed, first error message) of the old per-row loop in skip mode."""
    values = np.full(X.shape[0], np.nan)
    failed, first = [], None
    for i, row in enumerate(X):
        try:
            values[i] = _reference_evaluate(parameterization, objective, row, box)
        except Exception as exc:
            failed.append(i)
            if first is None:
                first = str(exc) if isinstance(exc, EvaluationError) else (
                    f"evaluation failed at sample {i}: {exc}")
    return values, failed, first


def _designs(parameterization):
    box = (parsec if parameterization == "parsec" else cst).baseline_box()
    return box, sample(box, N_DESIGNS, derive_seed(7, "sample")).matrix.copy()


# ---------------------------------------------------------------------------
# equivalence with the per-row loop


@pytest.mark.parametrize("parameterization", ["parsec", "cst"])
def test_panel_batch_matches_per_row_loop(parameterization):
    box, X = _designs(parameterization)
    if parameterization == "parsec":
        X[17, 0] = -20.0  # crest behind the nose: a DomainError mid-batch
    else:
        X[17] = -4.0 * box.center / box.width  # the centre's mirror image: surfaces cross
    reference = {}
    for column, objective in enumerate(("lift", "drag")):
        ref_values, ref_failed, ref_first = _reference_batch(parameterization, objective, X, box)
        reference[objective] = (ref_values, ref_failed)
        ev = qoi.PanelSurrogate(parameterization, objective)
        values, failed = qoi.evaluate_batch(ev, X, on_error="skip")
        assert failed == ref_failed
        assert values.tobytes() == ref_values.tobytes()

        with pytest.raises(EvaluationError) as info:
            qoi.evaluate_batch(ev, X, on_error="raise")
        assert info.value.index == ref_failed[0]
        assert str(info.value) == ref_first

    both, failed = qoi.evaluate_batch(
        qoi.PanelSurrogate(parameterization, "both"), X, on_error="skip")
    assert failed == reference["lift"][1] == reference["drag"][1]
    assert both.shape == (N_DESIGNS, 2)
    for column, objective in enumerate(("lift", "drag")):
        assert both[:, column].tobytes() == reference[objective][0].tobytes()
    assert len(failed) > 0


def test_single_design_evaluate_is_the_one_row_batch():
    box, X = _designs("cst")
    ev = qoi.PanelSurrogate("cst", "drag")
    values, failed = ev.evaluate_many(X[:20])
    for i in range(20):
        if i in failed:
            with pytest.raises(EvaluationError):
                ev(X[i])
        else:
            assert ev(X[i]) == values[i]
    ok = [i for i in range(20) if i not in failed]
    assert ev(X[ok]).tobytes() == values[ok].tobytes()


# ---------------------------------------------------------------------------
# stacked decode against the one-design decode


def _single_outcome(call):
    try:
        return call(), None
    except Exception as exc:
        return None, exc


def _check_stack(stack, rows, single, reference):
    """Each row of the stack decodes as its own 1-row stack and the old per-row code."""
    assert isinstance(stack, DecodedStack) and len(stack) == len(rows)
    for i, row in enumerate(rows):
        one = single(row)
        assert len(one) == 1 and one.basis == stack.basis
        expected, reference_error = _single_outcome(lambda: reference(row))
        error = one.errors.get(0)
        if error is None:
            assert i not in stack.errors and reference_error is None
            assert stack.coefficients[i].tobytes() == one.coefficients[0].tobytes()
            _, upper, lower = expected
            assert stack.coefficients[i, UPPER].tobytes() == upper.tobytes()
            assert stack.coefficients[i, LOWER].tobytes() == lower.tobytes()
        else:
            for other in (stack.errors[i], reference_error):
                assert type(other) is type(error)
                assert str(other) == str(error)


_u = st.floats(-1.5, 1.5, allow_nan=False)

# (column, value): crest at the nose or the trailing edge, a non-positive
# leading-edge radius, crests so close to an end that the system is too
# ill-conditioned to solve
_PARSEC_BAD = [(0, 0.0), (1, 1.0), (10, 0.0), (10, -0.01), (0, 1e-3), (1, 1.0 - 1e-9),
               (1, 1e-250), (5, -0.001), (3, float("nan"))]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(_u, min_size=11, max_size=11), min_size=1, max_size=8),
       st.lists(st.tuples(st.integers(0, 7), st.sampled_from(_PARSEC_BAD)), max_size=4))
def test_parsec_stack_matches_single_design(unit_rows, bad):
    box = parsec.baseline_box()
    rows = denormalize(np.array(unit_rows), box)
    for position, (column, value) in bad:
        rows[position % len(rows), column] = value
    with np.errstate(over="ignore"):
        stack = parsec.solve_coefficients(rows)
        _check_stack(stack, rows, lambda r: parsec.solve_coefficients([r]), _reference_parsec)
    for position, _ in bad:
        assert (position % len(rows)) in stack.errors
    assert len(stack.errors) <= len(bad)


# (column, value) outside the domain: each crest at, before and beyond its ends,
# a radius that is not positive, a negative half-thickness, values that are not finite
_DOMAIN_BAD = [(0, 0.0), (1, 1.0), (0, -0.2), (1, 1.5), (10, 0.0), (10, -0.01), (5, -0.001),
               (3, float("nan")), (7, float("inf")), (0, float("nan")), (10, -float("inf"))]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_u, min_size=11, max_size=11), min_size=1, max_size=8),
       st.lists(st.tuples(st.integers(0, 7), st.sampled_from(_DOMAIN_BAD)), max_size=12))
@example(unit_rows=[[0.0] * 11] * 4,
         bad=[(0, (5, -0.001)), (0, (10, -0.01)), (1, (1, 1.5)), (1, (7, float("inf"))),
              (2, (1, 1.5)), (2, (0, 0.0)), (3, (5, -0.001))])
def test_domain_errors_match_each_row_and_the_rule_order(unit_rows, bad):
    # the stacked rule gives each row the error of its own 1-row stack and
    # of the per-row reference, which checks the rules one value at a time
    rows = denormalize(np.array(unit_rows), parsec.baseline_box())
    for position, (column, value) in bad:
        rows[position % len(rows), column] = value
    errors = parsec._domain_errors(rows)
    for i, row in enumerate(rows):
        _, want = _single_outcome(lambda: _reference_domain(row))
        one = parsec._domain_errors(rows[i:i + 1])
        if want is None:
            assert i not in errors and one == {}
        else:
            for got in (errors[i], one[0]):
                assert type(got) is DomainError and str(got) == str(want)
    assert set(errors) <= {position % len(rows) for position, _ in bad}


@pytest.mark.parametrize("limit, crests", [
    (1e12, (2.5e-3, 8e-3)),
    # a lower limit puts the straddling systems where the solve's residual
    # passes, so some of those that need the exact number decode
    (1e9, (8e-3, 3e-2)),
])
def test_parsec_condition_screen_keeps_every_decision(limit, crests, monkeypatch):
    # upper crests near the nose whose condition numbers straddle the limit:
    # some systems clear the Frobenius screen, some need the exact number
    # and pass it, some fail with the exact number in their message
    monkeypatch.setattr(parsec, "CONDITION_LIMIT", limit)
    rows = np.repeat(parsec.baseline_box().center[np.newaxis], 241, axis=0)
    rows[:, 0] = np.geomspace(*crests, rows.shape[0])
    matrix = parsec._stack_systems(rows)[0][:, 0]
    exact, screen = np.linalg.cond(matrix), np.linalg.cond(matrix, "fro")
    assert np.all(screen >= exact * (1.0 - 1e-12))
    straddling = (screen > limit / 2) & (exact <= limit)
    assert np.any(screen <= limit / 2) and np.any(straddling) and np.any(exact > limit)
    stack = parsec.solve_coefficients(rows)
    for i, row in enumerate(rows):
        want, error = _single_outcome(lambda: _reference_parsec(row))
        if error is None:
            _, upper, lower = want
            assert i not in stack.errors
            assert stack.coefficients[i, UPPER].tobytes() == upper.tobytes()
            assert stack.coefficients[i, LOWER].tobytes() == lower.tobytes()
        else:
            assert type(stack.errors[i]) is type(error)
            assert str(stack.errors[i]) == str(error)
    assert set(np.flatnonzero(exact > limit).tolist()) <= set(stack.errors)
    if limit < 1e12:
        assert any(i not in stack.errors for i in np.flatnonzero(straddling).tolist())


def test_parsec_residual_rule_names_the_first_surface_that_breaks_it(monkeypatch):
    # below the roundoff of a well-conditioned solve, the residual limit fails
    # upper systems on some rows and only lower systems on others
    monkeypatch.setattr(parsec, "RESIDUAL_LIMIT", 1e-16)
    box = parsec.baseline_box()
    rows = denormalize(sample(box, 400, 3).matrix, box)
    stack = parsec.solve_coefficients(rows)
    for i, row in enumerate(rows):
        _, error = _single_outcome(lambda: _reference_parsec(row))
        if error is None:
            assert i not in stack.errors
        else:
            assert type(stack.errors[i]) is type(error) is ConditioningError
            assert str(stack.errors[i]) == str(error)
    messages = [str(exc) for exc in stack.errors.values()]
    for surface in ("upper", "lower"):
        assert any(m.startswith(f"{surface} solve residual ") and m.endswith("exceeds 1e-16")
                   for m in messages)


_CST_BAD = [float("nan"), float("inf"), -float("inf")]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(_u, min_size=10, max_size=10), min_size=1, max_size=8),
       st.lists(st.tuples(st.integers(0, 7), st.integers(0, 9), st.sampled_from(_CST_BAD)),
                max_size=4))
def test_cst_stack_matches_single_design(unit_rows, bad):
    rows = denormalize(np.array(unit_rows), cst.baseline_box())
    for position, column, value in bad:
        rows[position % len(rows), column] = value
    stack = cst.surface_pair(rows)
    _check_stack(stack, rows, lambda r: cst.surface_pair([r]), _reference_cst)
    assert set(stack.errors) == {position % len(rows) for position, _, _ in bad}


def test_stacked_decoders_reject_misshapen_stacks():
    with pytest.raises(ContractViolation):
        parsec.solve_coefficients(np.zeros((3, 10)))
    with pytest.raises(ContractViolation):
        cst.surface_pair(np.zeros((3, 9)))
    assert len(parsec.solve_coefficients(np.zeros((0, 11)))) == 0
    assert len(cst.surface_pair(np.zeros((0, 10)))) == 0


@pytest.mark.parametrize("shape", [(3, 2, 5), (1, 2, 7), (3, 3, 6), (1, 1, 6), (2, 12), (12,)])
def test_decoded_stack_refuses_other_shapes(shape):
    # rows of (N, 2, term_count) are the one layout, so one row cannot mix
    # surfaces of two term counts or carry a third surface
    basis = BasisSpec(BasisKind.HALF_INTEGER, 6)
    with pytest.raises(ContractViolation, match=re.escape(f"got {shape}")):
        DecodedStack(basis, np.zeros(shape), {})
    for n in (0, 1, 3):
        assert len(DecodedStack(basis, np.zeros((n, 2, 6)), {})) == n


def test_parsec_stack_overflow_fails_its_row_without_a_warning():
    rows = np.repeat(parsec.baseline_box().center[np.newaxis], 2, axis=0)
    rows[0, 0] = 1e-300  # upper crest at the nose: its curvature row overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stack = parsec.solve_coefficients(rows)
    assert list(stack.errors) == [0]
    assert type(stack.errors[0]) is ConditioningError
    assert "cond ~ inf" in str(stack.errors[0])


def test_cst_stack_overflow_fails_its_row_without_a_warning():
    rows = np.repeat(cst.baseline_box().center[np.newaxis], 2, axis=0)
    rows[0, :2] = 1e308, -1e308  # finite, but x_1 - x_0 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stack = cst.surface_pair(rows)
    assert list(stack.errors) == [0]
    assert type(stack.errors[0]) is ContractViolation
    assert str(stack.errors[0]) == "coefficients must be finite"


# ---------------------------------------------------------------------------
# stacked validation, lift and drag against the one-design reference

_REASON_ERRORS = {"domain": DomainError, "conditioning": ConditioningError,
                  "contract": ContractViolation, "infeasible": EvaluationError,
                  "unbounded": EvaluationError}

_SINGLE_DECODE = {
    "parsec": lambda r: parsec.solve_coefficients([r]),
    "cst": lambda r: cst.surface_pair([r]),
}


# rows out to four half-widths from the centre, so some surfaces cross
_near = st.floats(-4.0, 4.0, allow_nan=False)


def _bits(value):
    return np.float64(value).tobytes()


def _design_reference(stack, grid_size=GRID, sharp_trailing_edge=False, endpoint_tol=1e-9):
    """(report, lift, drag) of the design of a 1-row stack from its surfaces' heights and slopes.

    This is the one-design code validate_airfoil, camber_lift and
    thickness_drag ran before one design became its 1-row stack.
    """
    _, ell = nose_resolving_grid(grid_size)
    up, lo = height(stack, UPPER, ell), height(stack, LOWER, ell)
    gap = up[1:-1] - lo[1:-1]
    ends = [0, -1] if sharp_trailing_edge else [0]
    report = {
        "feasible": bool(np.all(gap > 0.0)),
        "min_gap": float(np.min(gap)),
        "endpoints_fixed": bool(np.all(np.abs(up[ends]) <= endpoint_tol)
                                & np.all(np.abs(lo[ends]) <= endpoint_tol)),
        "endpoint_tol": float(endpoint_tol),
        "bounded": bool(np.all(np.isfinite(up)) & np.all(np.isfinite(lo))),
        "lower_bound": float(np.min(lo)),
        "upper_bound": float(np.max(up)),
        "grid_size": int(grid_size),
        "sharp_trailing_edge": bool(sharp_trailing_edge),
    }
    theta = (np.arange(LIFT_POINTS) + 0.5) * (np.pi / LIFT_POINTS)
    nodes = 0.5 * (1.0 - np.cos(theta))
    camber_slope = 0.5 * (slope(stack, UPPER, nodes) + slope(stack, LOWER, nodes))
    lift = 2.0 * (np.pi / LIFT_POINTS) * float(np.sum(camber_slope * (np.cos(theta) - 1.0)))
    thickness = float(np.max(up - lo))
    return report, lift, qoi.PANEL_DRAG_OFFSET + qoi.PANEL_DRAG_GAIN * thickness * thickness


def _check_design_calls(stack, grid_size, sharp_trailing_edge):
    report, lift, drag = _design_reference(stack, grid_size, sharp_trailing_edge)
    validity = qoi.validate_airfoil(stack, grid_size, sharp_trailing_edge=sharp_trailing_edge)
    single = validity.row(0)
    assert repr(single) == repr(report)
    single_lift, single_drag = qoi.camber_lift(stack), qoi.thickness_drag(validity)
    assert single_lift.shape == single_drag.shape == (1,)
    assert _bits(single_lift[0]) == _bits(lift)
    assert _bits(single_drag[0]) == _bits(drag)


@pytest.mark.parametrize("thickness, upper_scale, lower_scale, closed", [
    (0.12, 1.0, 1.0, False), (0.12, 1.0, 1.0, True), (0.09, 1.3, 0.7, False),
    (0.15, 0.8, -0.5, True), (0.12, 1.0, -1.0, False),  # the last two cross
])
@pytest.mark.parametrize("grid_size, sharp", [(3, False), (101, True), (201, False)])
def test_naca_pair_calls_match_the_pair_reference(thickness, upper_scale, lower_scale,
                                                  closed, grid_size, sharp):
    stack = scaled_naca(thickness, upper_scale, lower_scale, closed)
    _check_design_calls(stack, grid_size, sharp)


@settings(max_examples=60, deadline=None)
@given(st.lists(_near, min_size=10, max_size=10), st.sampled_from([3, 101, 201]),
       st.booleans())
def test_cst_pair_calls_match_the_pair_reference(unit_row, grid_size, sharp):
    row = denormalize(np.array(unit_row), cst.baseline_box())
    _check_design_calls(cst.surface_pair([row]), grid_size, sharp)


def test_overflowing_pair_stays_inside_the_block_guard():
    # upper heights and slopes overflow inside grid_blocks, whose errstate
    # keeps the 1-row path quiet; everything after it handles the infs
    # without a floating-point warning
    stack = DecodedStack(cst.odd_basis(5), np.array([[np.full(6, 1e308), np.full(6, -1.0)]]), {})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = qoi.validate_airfoil(stack)
        lift, drag = qoi.camber_lift(stack), qoi.thickness_drag(report)
    assert not report.bounded and report.row(0)["upper_bound"] == np.inf
    assert lift[0] == -np.inf and drag[0] == np.inf
    with np.errstate(all="ignore"):
        _check_design_calls(stack, GRID, False)


def _check_stacked_qois(parameterization, physical):
    """The stacked calls on the decoded rows equal, row by row, the calls on
    each row's own 1-row stack and the one-design reference, and
    ``evaluate_many`` fails each row with the error its reason code names,
    or as unbounded when its lift or drag is not finite."""
    box = (parsec if parameterization == "parsec" else cst).baseline_box()
    with np.errstate(all="ignore"):
        X = (2.0 * physical - (box.lower + box.upper)) / box.width
        physical = denormalize(X, box)  # the rows evaluate_many decodes
        stack = (parsec.solve_coefficients if parameterization == "parsec"
                 else cst.surface_pair)(physical)
        report = qoi.validate_airfoil(stack, GRID)
        lift, drag = qoi.camber_lift(stack), qoi.thickness_drag(report)
        values, failed = qoi.PanelSurrogate(parameterization, "both").evaluate_many(X)
    assert report.reason.size == lift.size == drag.size == len(X)
    overflow = (report.reason == 0) & ~(np.isfinite(lift) & np.isfinite(drag))
    assert list(failed) == np.flatnonzero((report.reason > 0) | overflow).tolist()
    assert (report.feasible and report.bounded and not overflow.any()) == (not failed)
    for i, row in enumerate(physical):
        reason = REASONS[report.reason[i]]
        with np.errstate(all="ignore"):
            one = _SINGLE_DECODE[parameterization](row)
        if one.errors:
            exc = one.errors[0]
            assert isinstance(exc, _REASON_ERRORS[reason]) and reason in (
                "domain", "conditioning", "contract")
            assert type(failed[i]) is type(exc) and str(failed[i]) == str(exc)
            continue
        with np.errstate(all="ignore"):
            single, single_lift, single_drag = _design_reference(one)
            one_report = qoi.validate_airfoil(one, GRID)
            one_lift, one_drag = qoi.camber_lift(one), qoi.thickness_drag(one_report)
        assert repr(report.row(i)) == repr(single) == repr(one_report.row(0))
        assert _bits(lift[i]) == _bits(single_lift) == _bits(one_lift[0])
        assert _bits(drag[i]) == _bits(single_drag) == _bits(one_drag[0])
        finite = np.isfinite(single_lift) and np.isfinite(single_drag)
        if single["feasible"] and single["bounded"] and finite:
            assert reason == "ok" and i not in failed
            assert values[i].tobytes() == np.array([single_lift, single_drag]).tobytes()
        elif single["feasible"] and single["bounded"]:
            assert reason == "ok" and type(failed[i]) is EvaluationError
            assert str(failed[i]).endswith("(unbounded)")
            assert np.isnan(values[i]).all()
        else:
            assert reason == ("infeasible" if single["bounded"] else "unbounded")
            assert type(failed[i]) is EvaluationError
            assert repr(failed[i].report) == repr(single)
            assert np.isnan(values[i]).all()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_near, min_size=11, max_size=11), min_size=1, max_size=8),
       st.lists(st.tuples(st.integers(0, 7), st.sampled_from(_PARSEC_BAD)), max_size=4))
@example(unit_rows=[[0.0] * 11, [0.0] * 11,
                    [4.0, 0.0, -4.0, 4.0, -4.0, -4.0, 4.0, 0.0, -4.0, -4.0, 0.0]],
         bad=[(0, (0, 1e-3)), (1, (10, 0.0))])  # conditioning, domain, crossed
def test_stacked_parsec_qois_match_each_pair(unit_rows, bad):
    rows = denormalize(np.array(unit_rows), parsec.baseline_box())
    for position, (column, value) in bad:
        rows[position % len(rows), column] = value
    _check_stacked_qois("parsec", rows)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_near, min_size=10, max_size=10), min_size=1, max_size=8),
       st.lists(st.tuples(st.integers(0, 7), st.integers(0, 9),
                          st.sampled_from(_CST_BAD + [1e300, -1e300])), max_size=4))
@example(unit_rows=[[0.0] * 10, [0.0] * 10, [0.0, 0.0, 0.0, -1.0, -1.0] + [0.0] * 5],
         bad=[(0, 2, float("nan"))])  # contract, ok, crossed
@example(unit_rows=[[0.0] * 10], bad=[(0, 0, 1e300)])  # lift and drag overflow
def test_stacked_cst_qois_match_each_pair(unit_rows, bad):
    rows = denormalize(np.array(unit_rows), cst.baseline_box())
    for position, column, value in bad:
        rows[position % len(rows), column] = value
    _check_stacked_qois("cst", rows)


def test_stacked_validation_gives_each_reason_code():
    center = cst.surface_pair([cst.baseline_box().center])
    upper, lower = center.coefficients[0]
    huge = np.full(upper.size, 1e308)
    coefficients = np.array([
        [upper, lower],        # ok
        [lower, upper],        # crossed
        [huge, -huge],         # heights overflow
        [-huge, huge],         # heights overflow and cross
        [upper, lower],        # decode errors given below
        [upper, lower],
        [upper, np.nan * lower],
    ])
    errors = {4: DomainError("crest"), 5: ConditioningError("cond")}
    stack = DecodedStack(center.basis, coefficients, errors)
    with np.errstate(over="ignore", invalid="ignore"):
        report = qoi.validate_airfoil(stack)
    assert [REASONS[r] for r in report.reason] == [
        "ok", "infeasible", "unbounded", "unbounded", "domain", "conditioning", "contract"]
    assert report.feasible is False and report.bounded is False
    assert report.feasible_rows.tolist() == [True, False, True, False, False, False, False]
    assert report.bounded_rows.tolist() == [True, True, False, False, False, False, False]
    ok = qoi.validate_airfoil(DecodedStack(stack.basis, coefficients[:1], {}))
    assert ok.feasible is True and ok.bounded is True
    assert repr(ok.row(0)) == repr(qoi.validate_airfoil(center).row(0))
    with pytest.raises(ValueError):
        report.reason[0] = 1  # read-only like every stacked array


def test_panel_evaluation_memory_is_linear_in_outputs_only():
    """Heights and slopes live one row block at a time.

    Between N=1000 and N=5000 the peak may grow by what scales with N:
    the normalized and physical rows, the decoded coefficients, and a few
    numbers per row.  One row's (2, 201) heights alone are 3216 bytes.
    """
    ev = qoi.PanelSurrogate("cst", "both")
    X = sample(cst.baseline_box(), 5000, derive_seed(7, "sample")).matrix
    ev.evaluate_many(X[:10])  # power tables and lift nodes are cached
    peaks = {}
    for n in (1000, 5000):
        tracemalloc.start()
        try:
            ev.evaluate_many(X[:n])
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    m, k = ev.dim, ev.dim // 2 + 1
    per_row = 8 * (2 * m + 2 * k + 16)
    assert peaks[5000] - peaks[1000] <= 4000 * per_row


# ---------------------------------------------------------------------------
# run-all decodes and validates each design once


@pytest.mark.parametrize("box", ["parsec-table2", "cst-table3"])
def test_run_all_decodes_and_validates_each_design_once(box, tmp_path, monkeypatch):
    counts = {"decoded": 0, "validated": 0}

    def counting(fn, key):
        # a stack of rows, or the DecodedStack validated in one call, counts
        # each of its designs
        def wrapper(arg, *args, **kwargs):
            counts[key] += len(arg)
            return fn(arg, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(parsec, "solve_coefficients",
                        counting(parsec.solve_coefficients, "decoded"))
    monkeypatch.setattr(cst, "surface_pair", counting(cst.surface_pair, "decoded"))
    monkeypatch.setattr(qoi, "validate_airfoil", counting(qoi.validate_airfoil, "validated"))
    n = 120
    with pytest.warns(SampleSizeWarning):  # fewer rows than twice the 78 or 66 coefficients
        code = cli.main(["run-all", "--box", box, "--qoi", "panel", "--n", str(n),
                         "--nboot", "3", "--gammas", "5", "--grid-n", "5", "--seed", "7",
                         "--skip-infeasible", "--out", str(tmp_path)])
    assert code == 0
    assert counts == {"decoded": n, "validated": n}
    header = (tmp_path / "lift_evals.csv").read_text().splitlines()
    n_failed = int(next(line for line in header if line.startswith("# n_failed="))[11:])
    rows = [line for line in header if not line.startswith("#")][1:]
    assert len(rows) + n_failed == n
