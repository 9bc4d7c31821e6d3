import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import activefoil.activesubspace as asub
from activefoil.activesubspace import (
    EIGENVALUE_FLOOR,
    Eigenpairs,
    QuadraticModel,
    bootstrap,
    choose_dimension,
    coefficient_count,
    eigendecompose,
    fit_quadratic,
    gradient_outer_matrix,
    quadratic_features,
    subspace_distance,
)
from activefoil.analysis import inactive_sensitivity_check
from activefoil.errors import (
    ContractViolation,
    IllPosedFitError,
    NoStructureError,
    SampleSizeWarning,
)
from activefoil.qoi import Ridge, seeded_quadratic
from activefoil.sampling import sample, unit_box


def _random_quadratic(m, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    square = rng.standard_normal((m, m))
    return 0.5 * (square + square.T), rng.standard_normal(m), float(rng.standard_normal())


def test_coefficient_count_literals():
    assert coefficient_count(1) == 3
    assert coefficient_count(2) == 6
    assert coefficient_count(5) == 21
    assert coefficient_count(10) == 66
    assert coefficient_count(11) == 78


def test_feature_ordering_literal():
    row = quadratic_features([[2.0, 3.0]])
    np.testing.assert_array_equal(row, [[1.0, 2.0, 3.0, 4.0, 6.0, 9.0]])
    three = quadratic_features([[1.0, 2.0, 3.0]])
    np.testing.assert_array_equal(
        three, [[1, 1, 2, 3, 1, 2, 3, 4, 6, 9]]  # 1, x, x1*(x1..x3), x2*(x2..x3), x3*x3
    )


def test_fit_recovers_exact_quadratic():
    m = 4
    hess, lin, const = _random_quadratic(m, 1)
    X = sample(unit_box(m), 2 * coefficient_count(m), seed=2).matrix
    f = 0.5 * np.einsum("ij,jk,ik->i", X, hess, X) + X @ lin + const
    model = fit_quadratic(X, f)
    np.testing.assert_allclose(model.hessian, hess, atol=1e-9)
    np.testing.assert_allclose(model.linear, lin, atol=1e-9)
    assert model.constant == pytest.approx(const, abs=1e-9)
    assert model.residual_rms < 1e-10
    np.testing.assert_allclose(model.predict(X), f, atol=1e-9)
    np.testing.assert_allclose(model.gradient(X[0]), X[0] @ hess + lin, atol=1e-9)


def test_fit_sample_size_rules():
    m = 3
    p = coefficient_count(m)
    X = sample(unit_box(m), 2 * p, seed=3).matrix
    f = X[:, 0] ** 2
    with pytest.raises(ContractViolation):
        fit_quadratic(X[: p - 1], f[: p - 1])
    with pytest.warns(SampleSizeWarning):
        fit_quadratic(X[: 2 * p - 1], f[: 2 * p - 1])
    with pytest.raises(ContractViolation):
        fit_quadratic(X, f[:-1])


def test_fit_rank_deficiency():
    X = np.tile([[0.1, 0.2]], (20, 1))  # one repeated point
    with pytest.raises(IllPosedFitError) as info:
        fit_quadratic(X, np.ones(20))
    assert info.value.rank < info.value.required == coefficient_count(2)


def _packed(model):
    """Coefficients of a model in the monomial order of ``quadratic_features``."""
    m = model.dim
    quad = model.hessian * (1.0 - 0.5 * np.eye(m))  # a square's coefficient is H_ii / 2
    return np.concatenate([[model.constant], model.linear, quad[np.triu_indices(m)]])


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 8), extra=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_fit_matches_a_lstsq_reference(m, extra, seed):
    # the point fit comes from the shared QR; lstsq on the design is the reference
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (2 * coefficient_count(m) + extra, m))
    f = 0.5 * np.einsum("ij,ij->i", X, X) + X[:, 0] + rng.standard_normal(X.shape[0])
    design = quadratic_features(X)
    want = np.linalg.lstsq(design, f, rcond=1e-10)[0]
    got = fit_quadratic(X, f)
    np.testing.assert_allclose(_packed(got), want, rtol=0.0, atol=1e-10 * np.abs(want).max())
    rms = np.linalg.norm(design @ want - f) / np.sqrt(f.size)
    assert got.residual_rms == pytest.approx(rms, rel=1e-10)

    X[:, -1] = X[:, 0]  # two equal columns: the design loses rank
    with pytest.raises(IllPosedFitError):
        fit_quadratic(X, f)


def test_fits_after_an_entry_of_X_changes_use_the_new_matrix():
    m = 3
    X = sample(unit_box(m), 40, seed=9).matrix.copy()
    f = seeded_quadratic(m, 2)(X) + 0.01 * X[:, 1] ** 3
    before = fit_quadratic(X, f)
    X[5, 1] = -X[5, 1]  # in place, so only the content of X changes
    changed = fit_quadratic(X, f)
    boot = bootstrap(X, f, n_boot=8, seed=3)
    asub._factored.cache_clear()
    assert _packed(changed).tobytes() == _packed(fit_quadratic(X.copy(), f)).tobytes()
    assert _packed(changed).tobytes() != _packed(before).tobytes()
    asub._factored.cache_clear()
    assert _summary_bits(boot) == _summary_bits(bootstrap(X.copy(), f, n_boot=8, seed=3))


def test_model_validation_and_symmetrization():
    with pytest.raises(ContractViolation):
        QuadraticModel(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2), 0.0)
    with pytest.raises(ContractViolation):
        QuadraticModel(np.eye(2), np.zeros(3), 0.0)
    tiny_skew = np.array([[1.0, 0.5 + 1e-14], [0.5, 1.0]])
    model = QuadraticModel(tiny_skew, np.zeros(2), 0.0)
    np.testing.assert_array_equal(model.hessian, model.hessian.T)
    assert model.dim == 2


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_gradient_outer_matrix_is_hh_third_plus_vv(m, seed):
    hess, lin, _ = _random_quadratic(m, seed)
    c = gradient_outer_matrix(QuadraticModel(hess, lin, 0.0))
    np.testing.assert_allclose(c, hess @ hess / 3.0 + np.outer(lin, lin), rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(c, c.T)


def test_gradient_outer_matrix_matches_monte_carlo():
    # oracle: with x ~ U[-1,1]^m, E[xx'] = I/3, so the exact average of
    # grad grad' is HH/3 + vv'; checked against 4e5 raw draws
    m = 4
    hess, lin, _ = _random_quadratic(m, 5)
    model = QuadraticModel(hess, lin, 0.0)
    rng = np.random.Generator(np.random.PCG64(42))
    X = rng.uniform(-1.0, 1.0, (400_000, m))
    G = X @ hess + lin
    mc = G.T @ G / X.shape[0]
    analytic = gradient_outer_matrix(model)
    rel = np.linalg.norm(mc - analytic, 2) / np.linalg.norm(analytic, 2)
    assert rel < 1e-2  # measured ~1.4e-3 for this seed


def test_eigendecompose_known_matrix():
    v1 = np.array([3.0, 4.0]) / 5.0
    v2 = np.array([-4.0, 3.0]) / 5.0
    matrix = 9.0 * np.outer(v1, v1) + 1.0 * np.outer(v2, v2)
    eig = eigendecompose(matrix)
    np.testing.assert_allclose(eig.values, [9.0, 1.0], rtol=1e-12)
    np.testing.assert_allclose(eig.vectors[:, 0], v1, atol=1e-12)
    # sign rule flips v2 so its largest-magnitude entry is positive
    np.testing.assert_allclose(eig.vectors[:, 1], -v2, atol=1e-12)


def test_eigendecompose_sign_tie_rule():
    u = np.array([1.0, -1.0]) / np.sqrt(2.0)
    w = np.array([1.0, 1.0]) / np.sqrt(2.0)
    eig = eigendecompose(4.0 * np.outer(u, u) + 1.0 * np.outer(w, w))
    # components tie in magnitude; the first one is made positive
    assert eig.vectors[0, 0] > 0.0
    np.testing.assert_allclose(eig.vectors[:, 0], u, atol=1e-12)


def test_eigendecompose_validation():
    with pytest.raises(ContractViolation):
        eigendecompose(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ContractViolation):
        eigendecompose(np.ones((2, 3)))


def test_eigenpairs_validation():
    with pytest.raises(ContractViolation):
        Eigenpairs(vectors=np.eye(2) * 2.0, values=np.array([2.0, 1.0]))
    with pytest.raises(ContractViolation):
        Eigenpairs(vectors=np.eye(2), values=np.array([1.0, 2.0]))
    with pytest.raises(ContractViolation):
        Eigenpairs(vectors=np.eye(2), values=np.array([1.0, -1.0]))
    good = Eigenpairs(vectors=np.eye(3), values=np.array([3.0, 2.0, 1.0]))
    assert good.dim == 3


def test_choose_dimension_literals():
    assert choose_dimension([10.0, 9.0, 1e-3, 1e-4]) == 2
    assert choose_dimension([100.0, 1.0, 0.01]) == 1  # equal gaps: first wins
    assert choose_dimension([10.0, 9.0, 1e-3, 1e-4], max_n=1) == 1
    with pytest.raises(ContractViolation):
        choose_dimension([1.0])
    with pytest.raises(ContractViolation):
        choose_dimension([1.0, 2.0])
    with pytest.raises(ContractViolation):
        choose_dimension([10.0, 1.0], max_n=0)
    with pytest.raises(NoStructureError):
        choose_dimension([0.0, 0.0, 0.0])


def test_choose_dimension_floor():
    # below the relative floor the trailing ratio is flattened away
    assert EIGENVALUE_FLOOR == 1e-14
    assert choose_dimension([1.0, 1e-300, 1e-301]) == 1


def test_partition_shapes():
    # the eigenvector matrix is the partition: its first n columns span
    # the active subspace and the rest the inactive one
    eig = eigendecompose(np.diag([4.0, 3.0, 2.0, 1.0]))
    active, inactive = eig.vectors[:, :3], eig.vectors[:, 3:]
    assert active.shape == (4, 3) and inactive.shape == (4, 1)
    assert eig.dim == 4
    np.testing.assert_allclose(active.T @ inactive, np.zeros((3, 1)), atol=1e-12)
    z_samples = sample(unit_box(1), 5, seed=3).matrix
    for bad in (0, 4):
        with pytest.raises(ContractViolation, match="n must lie in"):
            inactive_sensitivity_check(
                eig.vectors, bad, np.zeros((1, bad)), z_samples, Ridge(np.ones(4))
            )


def test_subspace_distance_literals():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert subspace_distance(e1, e2) == pytest.approx(1.0, abs=1e-12)
    assert subspace_distance(e1, e1) == 0.0
    assert subspace_distance(e1, -e1) == pytest.approx(0.0, abs=1e-12)
    theta = 0.3
    rotated = np.array([np.cos(theta), np.sin(theta)])
    assert subspace_distance(e1, rotated) == pytest.approx(np.sin(theta), rel=1e-12)
    with pytest.raises(ContractViolation):
        subspace_distance(np.eye(3)[:, :1], np.eye(3)[:, :2])
    with pytest.raises(ContractViolation):
        subspace_distance(np.array([1.0, 1.0]), e1)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 9), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_subspace_distance_is_the_projector_norm(m, data, seed):
    d = data.draw(st.integers(1, m - 1))
    rng = np.random.default_rng(seed)
    a = np.linalg.qr(rng.standard_normal((m, d)))[0]
    b = np.linalg.qr(rng.standard_normal((m, d)))[0]
    projector = np.linalg.norm(a @ a.T - b @ b.T, 2)
    assert abs(subspace_distance(a, b) - projector) <= 1e-12
    assert abs(subspace_distance(b, a) - projector) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(m=st.integers(2, 9), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_subspace_distance_resolves_tiny_angles(m, data, seed):
    # rotate the last basis column by theta toward the complement: the
    # largest principal angle is theta, where 1 - cos(theta) underflows
    d = data.draw(st.integers(1, m - 1))
    theta = 1e-9
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m)))[0]
    a = q[:, :d]
    b = a.copy()
    b[:, -1] = np.cos(theta) * q[:, d - 1] + np.sin(theta) * q[:, d]
    assert subspace_distance(a, b) == pytest.approx(np.sin(theta), rel=1e-6)


def _signs_by_column(vectors):
    """The sign rule one column at a time: largest |component| positive, lowest index on ties."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        lead = int(np.argmax(np.abs(out[:, j])))
        if out[lead, j] < 0.0:
            out[:, j] = -out[:, j]
    return out


def test_canonical_signs_ties_go_to_the_lowest_index():
    vectors = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, -2.0], [0.5, 0.0, 2.0]])
    np.testing.assert_array_equal(
        asub._canonical_signs(vectors),
        [[1.0, 1.0, 0.0], [-1.0, -1.0, 2.0], [0.5, 0.0, -2.0]],
    )


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 6), b=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_stacked_sign_rule_matches_each_matrix(m, b, seed):
    rng = np.random.default_rng(seed)
    # small integers make many components tie in magnitude
    ties = rng.integers(-2, 3, (b, m, m)).astype(float)
    stacked = asub._canonical_signs(ties)
    for k in range(b):
        np.testing.assert_array_equal(stacked[k], _signs_by_column(ties[k]))
        np.testing.assert_array_equal(stacked[k], asub._canonical_signs(ties[k]))
    square = rng.standard_normal((b, m, m))
    sym = square @ np.swapaxes(square, 1, 2)  # eigenvalues must be non-negative
    values, vectors = asub._eigh_descending(sym)
    for k in range(b):
        eig = eigendecompose(sym[k])
        assert values[k].tobytes() == eig.values.tobytes()
        assert vectors[k].tobytes() == eig.vectors.tobytes()


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 9), b=st.integers(1, 6), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_subspace_distance_matches_each_slice(m, b, data, seed):
    d = data.draw(st.integers(1, m - 1))
    rng = np.random.default_rng(seed)
    stack = np.linalg.qr(rng.standard_normal((b, m, d)))[0]
    basis = np.linalg.qr(rng.standard_normal((m, d)))[0]
    got = subspace_distance(stack, basis)
    assert got.shape == (b,)
    for k in range(b):
        assert abs(got[k] - subspace_distance(stack[k], basis)) <= 1e-15
    with pytest.raises(ContractViolation):
        subspace_distance(stack, basis[:, :-1])
    with pytest.raises(ContractViolation):
        subspace_distance(2.0 * stack, basis)


def test_subspace_distance_of_an_empty_stack_is_empty():
    basis = np.eye(4)[:, :2]
    got = subspace_distance(np.empty((0, 4, 2)), basis)
    assert isinstance(got, np.ndarray) and got.shape == (0,)
    assert subspace_distance(np.empty((3, 0, 4, 2)), basis).shape == (3, 0)
    with pytest.raises(ContractViolation):
        subspace_distance(np.empty((0, 4, 2)), 2.0 * basis)
    with pytest.raises(ContractViolation):
        subspace_distance(np.empty((0, 4, 3)), basis)


def test_bootstrap_is_deterministic():
    m = 3
    qoi = seeded_quadratic(m, 12)
    X = sample(unit_box(m), 80, seed=6).matrix
    f = qoi(X)
    one = bootstrap(X, f, n_boot=25, seed=9)
    two = bootstrap(X, f, n_boot=25, seed=9)
    np.testing.assert_array_equal(one.eigenvalues_mean, two.eigenvalues_mean)
    np.testing.assert_array_equal(one.error_mean, two.error_mean)
    assert not np.array_equal(
        one.error_mean, bootstrap(X, f, n_boot=25, seed=10).error_mean
    )


def test_bootstrap_summary_structure():
    m = 4
    qoi = seeded_quadratic(m, 13)
    X = sample(unit_box(m), 120, seed=7).matrix
    f = qoi(X)
    summary = bootstrap(X, f, n_boot=30, seed=11)
    np.testing.assert_array_equal(summary.dimensions, [1, 2, 3])
    assert summary.eigenvalues.shape == (m,)
    assert np.all(summary.eigenvalues_min <= summary.eigenvalues_mean + 1e-15)
    assert np.all(summary.eigenvalues_mean <= summary.eigenvalues_max + 1e-15)
    assert np.all(summary.error_min <= summary.error_mean + 1e-15)
    assert np.all(summary.error_mean <= summary.error_max + 1e-15)
    assert np.all(summary.error_min >= 0.0)
    assert summary.n_boot == 30 and summary.seed == 11
    assert summary.n_skipped == 0
    assert 1 <= summary.n < m

    mean, lo, hi = summary.error_row(2)
    assert (mean, lo, hi) == (
        summary.error_mean[1],
        summary.error_min[1],
        summary.error_max[1],
    )
    with pytest.raises(ContractViolation):
        summary.error_row(m)

    # exact quadratic data: every replicate refits the same surface
    assert float(summary.error_max.max()) < 1e-6

    with pytest.raises(ContractViolation):
        bootstrap(X, f, n_boot=0, seed=1)
    with pytest.raises(ContractViolation):
        bootstrap(X, f, n_boot=5, seed=1, n=m)


def test_ridge_direction_recovery_invariant():
    # a noiseless linear ridge profile is inside the model class, so the
    # fitted leading eigenvector recovers w essentially exactly
    m = 6
    w = np.array([1.0, -2.0, 0.5, 0.0, 3.0, -1.0])
    qoi = Ridge(direction=w, profile="linear")
    p = coefficient_count(m)
    X = sample(unit_box(m), 10 * p, seed=31).matrix
    f = qoi(X)
    model = fit_quadratic(X, f)
    eig = eigendecompose(gradient_outer_matrix(model))
    dist = subspace_distance(eig.vectors[:, 0], w / np.linalg.norm(w))
    assert dist < 1e-3

    # an exponential profile is outside the quadratic model class; the
    # truncation bias leaves an irreducible but small angle
    qoi_exp = Ridge(direction=w, profile="exp")
    f_exp = qoi_exp(X)
    model_exp = fit_quadratic(X, f_exp)
    eig_exp = eigendecompose(gradient_outer_matrix(model_exp))
    dist_exp = subspace_distance(eig_exp.vectors[:, 0], w / np.linalg.norm(w))
    assert dist_exp < 5e-2


# --- one-factorization bootstrap against the plain lstsq replicate loop ---


def _reference_bootstrap(X, f, n_boot, seed, n=None):
    """Each replicate refitted by lstsq on its resampled rows; projector-norm errors."""
    n_rows, m = X.shape
    point = fit_quadratic(X, f)
    eig = eigendecompose(gradient_outer_matrix(point))
    n = choose_dimension(eig.values) if n is None else n
    design = quadratic_features(X)
    p = design.shape[1]
    lam_rows, err_rows, skipped = [], [], 0
    for k in range(n_boot):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,)))
        )
        beta = None
        for _ in range(11):
            idx = rng.integers(0, n_rows, size=n_rows)
            coef, _, rank, _ = np.linalg.lstsq(design[idx], f[idx], rcond=1e-10)
            if rank == p:
                beta = coef
                break
        if beta is None:
            skipped += 1
            continue
        hess = np.zeros((m, m))
        hess[np.triu_indices(m)] = beta[m + 1 :]
        hess = hess + hess.T
        rep = QuadraticModel(hess, beta[1 : m + 1], beta[0])
        rep_eig = eigendecompose(gradient_outer_matrix(rep))
        lam_rows.append(rep_eig.values)
        err_rows.append([
            np.linalg.norm(
                rep_eig.vectors[:, :d] @ rep_eig.vectors[:, :d].T
                - eig.vectors[:, :d] @ eig.vectors[:, :d].T,
                2,
            )
            for d in range(1, m)
        ])
    lam, err = np.array(lam_rows), np.array(err_rows)
    return {
        "eigenvalues_min": lam.min(axis=0),
        "eigenvalues_mean": lam.mean(axis=0),
        "eigenvalues_max": lam.max(axis=0),
        "error_min": err.min(axis=0),
        "error_mean": err.mean(axis=0),
        "error_max": err.max(axis=0),
        "n": n,
        "n_skipped": skipped,
    }


def test_bootstrap_matches_lstsq_reference_on_separated_spectrum():
    m = 4
    basis = np.linalg.qr(np.random.Generator(np.random.PCG64(3)).standard_normal((m, m)))[0]
    hess = basis @ np.diag([4.0, 2.0, 1.0, 0.5]) @ basis.T
    X = sample(unit_box(m), 150, seed=4).matrix
    noise = np.random.Generator(np.random.PCG64(5)).standard_normal(X.shape[0])
    f = 0.5 * np.einsum("ij,jk,ik->i", X, hess, X) + 0.2 * noise
    got = bootstrap(X, f, n_boot=40, seed=17)
    want = _reference_bootstrap(X, f, n_boot=40, seed=17)
    assert got.n == want["n"] and got.n_skipped == want["n_skipped"] == 0
    for name in ("eigenvalues_min", "eigenvalues_mean", "eigenvalues_max",
                 "error_min", "error_mean", "error_max"):
        np.testing.assert_allclose(getattr(got, name), want[name], rtol=1e-12, atol=0.0,
                                   err_msg=name)


def test_bootstrap_matches_lstsq_reference_on_noisy_ridge():
    # f = u + u^2/2 + 1e-3 noise with u = w'x, m = 11: one dominant eigenvalue
    X, f = _noisy_ridge(11, 300, 1e-3)
    got = bootstrap(X, f, n_boot=20, seed=3)
    want = _reference_bootstrap(X, f, n_boot=20, seed=3)
    assert got.n == want["n"] == 1 and got.n_skipped == want["n_skipped"] == 0
    scale = 1e-12 * got.eigenvalues[0]
    for name in ("eigenvalues_min", "eigenvalues_mean", "eigenvalues_max"):
        np.testing.assert_allclose(getattr(got, name), want[name], rtol=0.0, atol=scale,
                                   err_msg=name)
    np.testing.assert_allclose(
        got.error_row(1),
        [want["error_mean"][0], want["error_min"][0], want["error_max"][0]],
        rtol=0.0, atol=1e-10,
    )


def test_bootstrap_point_model_is_reused():
    # the bootstrap's point estimate is the fit_quadratic model, from the same cached QR
    m = 3
    X = sample(unit_box(m), 60, seed=8).matrix
    f = seeded_quadratic(m, 4)(X) + 0.01 * X[:, 0] ** 3
    asub._factored.cache_clear()
    fresh = bootstrap(X, f, n_boot=10, seed=2)
    point = eigendecompose(gradient_outer_matrix(fit_quadratic(X, f)))
    reused = bootstrap(X, f, n_boot=10, seed=2)
    np.testing.assert_array_equal(fresh.eigenvalues, point.values)
    np.testing.assert_array_equal(fresh.eigenvalues, reused.eigenvalues)
    np.testing.assert_array_equal(fresh.error_mean, reused.error_mean)
    with pytest.raises(ContractViolation):
        bootstrap(X, f[:-1], n_boot=5, seed=1)


def _seven_row_design():
    # m = 2 needs 6 coefficients; 6 distinct unisolvent points plus one
    # repeat, so most resamples of 7 rows miss a point and are singular
    X = sample(unit_box(2), 6, seed=12).matrix
    X = np.vstack([X, X[:1]])
    f = X[:, 0] + 2.0 * X[:, 1] + 0.3 * X[:, 0] * X[:, 1] + np.array(
        [0.0, 1e-2, -1e-2, 2e-2, 0.0, 1e-2, -1e-2])
    return X, f


def test_bootstrap_rank_deficient_resamples_take_the_lstsq_path(monkeypatch):
    import activefoil.activesubspace as asub_module

    X, f = _seven_row_design()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampleSizeWarning)
        want = _reference_bootstrap(X, f, n_boot=30, seed=5, n=1)
    calls = []
    original = asub_module._solve_quadratic

    def counting(design, values, m):
        calls.append(design.shape[0])
        return original(design, values, m)

    monkeypatch.setattr(asub_module, "_solve_quadratic", counting)
    got = bootstrap(X, f, n_boot=30, seed=5, n=1)
    assert got.n_skipped == want["n_skipped"] > 0
    assert got.n_skipped < 30
    # the bound certifies the point fit, so every call is a replicate's:
    # at least the 11 failed draws of each skipped replicate
    assert len(calls) >= 11 * got.n_skipped
    np.testing.assert_allclose(got.eigenvalues_mean, want["eigenvalues_mean"],
                               rtol=0.0, atol=1e-9 * got.eigenvalues[0])


def test_bootstrap_memory_stays_bounded_at_small_m_and_large_n():
    # at m = 2 the (B, p, p) stacks are tiny, so the (B, N) draws bound the block
    import tracemalloc

    X = sample(unit_box(2), 5000, seed=6).matrix
    f = seeded_quadratic(2, 1)(X)
    asub._factored.cache_clear()
    tracemalloc.start()
    try:
        bootstrap(X, f, n_boot=1000, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_bootstrap_memory_does_not_grow_with_nboot():
    # errors are reduced block by block, so no (nboot, m, m) eigenvector
    # stack is kept, and a block holds about two (B, p, p) arrays at once
    import tracemalloc

    X = sample(unit_box(11), 1000, seed=6).matrix
    f = seeded_quadratic(11, 1)(X)
    peaks = {}
    for n_boot in (200, 2000):
        asub._factored.cache_clear()
        tracemalloc.start()
        try:
            bootstrap(X, f, n_boot=n_boot, seed=4)
            peaks[n_boot] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2000] < 7 * 2**20
    assert peaks[2000] - peaks[200] < 0.5 * 2**20


def test_bootstrap_works_in_one_reused_factor_stack():
    # each block factors its Gram matrices in place in one (B, p, p) stack
    # of about 1 MB; a Gram stack beside it, or 2 MB blocks, exceed the bound
    import tracemalloc

    X = sample(unit_box(11), 1000, seed=6).matrix
    f = seeded_quadratic(11, 1)(X)
    asub._factored.cache_clear()
    tracemalloc.start()
    try:
        bootstrap(X, f, n_boot=2000, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def _noisy_ridge(m, n_rows, noise, seed=7):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(m)
    w /= np.linalg.norm(w)
    X = rng.uniform(-1.0, 1.0, (n_rows, m))
    u = X @ w
    return X, u + 0.5 * u * u + noise * rng.standard_normal(n_rows)


def _stacked_lower_inverse(low, out=None):
    """``_lower_inverse`` as it was, with three fresh temporaries per level."""
    if out is None:
        out = np.zeros(low.shape)
    n = low.shape[-1]
    if n == 1:
        np.divide(1.0, low, out=out)
        return out
    h = n // 2
    top = _stacked_lower_inverse(low[..., :h, :h], out[..., :h, :h])
    bottom = _stacked_lower_inverse(low[..., h:, h:], out[..., h:, h:])
    out[..., h:, :h] = -(bottom @ (low[..., h:, :h] @ top))
    return out


def _stacked_cholesky_solve(refit, f, draws):
    """``_ResampledFit.solve`` as it was: a Gram stack, then one stacked Cholesky call."""
    p = refit.r.shape[0]
    grams = np.empty((len(draws), p, p))
    rhs = np.empty((len(draws), p))
    for i, idx in enumerate(draws):
        counts = np.bincount(idx, minlength=f.size)
        rows = np.flatnonzero(counts)
        root = np.sqrt(counts[rows])
        weighted = np.take(refit.q, rows, axis=0)
        weighted *= root[:, np.newaxis]
        grams[i] = weighted.T @ weighted
        rhs[i] = (root * f[rows]) @ weighted
    gram_norm = np.sqrt(np.einsum("bij,bij->b", grams, grams))
    try:
        chol, ok = np.linalg.cholesky(grams), np.ones(len(draws), dtype=bool)
    except np.linalg.LinAlgError:
        chol = np.broadcast_to(np.eye(p), grams.shape).copy()
        ok = np.zeros(len(draws), dtype=bool)
        for i, gram in enumerate(grams):
            try:
                chol[i] = np.linalg.cholesky(gram)
                ok[i] = True
            except np.linalg.LinAlgError:
                continue
    positive = ok.copy()
    chol_inv = _stacked_lower_inverse(chol, out=chol)
    bound = (refit.cond_r * np.sqrt(gram_norm)
             * np.sqrt(np.einsum("bij,bij->b", chol_inv, chol_inv)))
    ok &= bound < asub._CERTIFIED_RCOND / asub.RANK_RCOND
    y = chol_inv @ rhs[..., np.newaxis]
    z = np.swapaxes(np.swapaxes(chol_inv, 1, 2) @ y, 1, 2)
    return (z @ refit.r_inv.T)[:, 0], ok, positive


def test_factoring_each_gram_at_once_keeps_the_stacked_bits():
    # factoring each Gram matrix into the solver's own work stack, in calls
    # of different sizes, gives every replicate the bits of a fresh Gram
    # stack and one stacked Cholesky call
    for (X, f), sizes in ((_noisy_ridge(11, 300, 1e-3), (40, 7, 1, 50)),
                          (_seven_row_design(), (30, 3, 1, 12))):
        refit = asub._ResampledFit(X)
        first = 0
        certified, positive = [], []
        for size in sizes:
            draws = [asub._replicate_rng(5, k).integers(0, len(f), size=len(f))
                     for k in range(first, first + size)]
            first += size
            beta, ok = refit.solve(f, draws)
            want_beta, want_ok, want_positive = _stacked_cholesky_solve(refit, f, draws)
            assert beta.tobytes() == want_beta.tobytes()
            assert ok.tobytes() == want_ok.tobytes()
            certified.extend(ok)
            positive.extend(want_positive)
    # the seven-row design resamples to Grams that are not positive
    # definite and to ones that are, certified or not
    assert any(certified) and not all(positive) and sum(positive) > sum(certified)


def _summary_bits(summary):
    return [np.asarray(getattr(summary, field.name)).tobytes()
            for field in dataclasses.fields(summary)]


def test_bootstrap_block_layout_does_not_change_results(monkeypatch):
    X, f = _seven_row_design()
    ridge_X, ridge_f = _noisy_ridge(5, 200, 0.05)

    default = bootstrap(X, f, n_boot=30, seed=5, n=1)
    ridge = bootstrap(ridge_X, ridge_f, n_boot=60, seed=3)
    with pytest.raises(IllPosedFitError, match="every bootstrap replicate"):
        bootstrap(X[:6], f[:6], n_boot=5, seed=1, n=1)
    # skipped replicates leave empty groups, which must not be reduced
    assert 0 < default.n_skipped < 30
    assert ridge.n_skipped == 0

    # one replicate per block in one eigen group, one replicate per block
    # and group, and ridge blocks of 7 in groups of 10 that split a block;
    # every stacked product runs once per replicate, so the noisy ridge is
    # bit-identical across layouts too
    ridge_block = 7 * 8 * asub.coefficient_count(5) ** 2
    for block_bytes, group in ((1, asub._EIGEN_GROUP), (1, 1), (ridge_block, 10)):
        monkeypatch.setattr(asub, "_BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(asub, "_EIGEN_GROUP", group)
        assert _summary_bits(bootstrap(X, f, n_boot=30, seed=5, n=1)) == _summary_bits(default)
        with pytest.raises(IllPosedFitError, match="every bootstrap replicate"):
            bootstrap(X[:6], f[:6], n_boot=5, seed=1, n=1)
        one = bootstrap(ridge_X, ridge_f, n_boot=60, seed=3)
        assert _summary_bits(one) == _summary_bits(ridge)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), b=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_lower_inverse_in_place_matches_a_fresh_output(n, b, seed):
    rng = np.random.default_rng(seed)
    low = np.tril(rng.standard_normal((b, n, n)))
    diag = np.arange(n)
    low[..., diag, diag] = rng.choice([-1.0, 1.0], (b, n)) * rng.uniform(0.5, 2.0, (b, n))
    fresh = asub._lower_inverse(low)
    work = low.copy()
    assert asub._lower_inverse(work, out=work) is work
    assert work.tobytes() == fresh.tobytes()
    assert not np.triu(work, 1).any()
