"""Active-subspace estimation through a single global quadratic model.

Fit f(x) ~ 0.5 * x'Hx + v'x + c over normalized inputs on [-1, 1]^m,
then eigendecompose the average outer product of the model gradient,

    C = E[(Hx + v)(Hx + v)'] = H H / 3 + v v',

the exact mean under the uniform density on [-1, 1]^m that every sampler
draws from: E[x] = 0 and E[xx'] = I/3.  Directions with large
eigenvalues are the ones along which the model says f moves; trailing
directions are near-inactive.  Subspace uncertainty is estimated by a
pairs bootstrap: resample the (x, f) rows, refit, re-decompose, and
compare each replicate's leading subspace against the point estimate
with the projector distance
``|| W1 W1' - V1 V1' ||_2`` (the sine of the largest principal angle).

The quadratic design D of a sample matrix X is factored as D = QR once,
and a one-entry cache keyed on X's shape and bytes hands that QR to the
point fit and to the bootstrap of X, and to every other chain that fits
the same X.  A resample with row multiplicities c then solves one p x p
system: the Cholesky factor of Q' diag(c) Q gives the weighted
least-squares coefficients.  The point fit is the resample whose
multiplicities are all one.  Bootstrap replicates are solved in blocks
of at most about 1 MB per (B, p, p) stack and per (B, N) array of
resampled row indices.  Each replicate's Gram matrix is formed over its
distinct rows and factored at once in one (B, p, p) stack that the
solver allocates for its block and drops when it returns, so one stack
is alive at a time; the factors are inverted in place, and the block's
certification bounds and solves are stacked numpy calls.  The eigen
stage (C matrices, eigendecompositions, sign rule and one subspace
error call per dimension) runs on groups of a fixed number of
consecutive replicates, so its call count does not grow as blocks
shrink.  One bootstrap call thus works in one (B, p, p) stack plus the
eigen group's (G, m, m) arrays plus O(nboot * m), whatever nboot * m^2
is.  The shortcut is taken only when an upper bound on the condition
number of the resampled design certifies full rank at the 1e-10
tolerance with a wide margin; otherwise the point fit or the replicate
is refitted from its rows by ``lstsq``, so the rank errors and the
redraw and skip decisions never depend on the shortcut.

The module holds numerics only: it draws no samples and evaluates no
quantity of interest.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, IllPosedFitError, NoStructureError, SampleSizeWarning
from .sampling import _freeze

RANK_RCOND = 1e-10
EIGENVALUE_FLOOR = 1e-14

_MAX_RESAMPLE_RETRIES = 10
# Bootstrap replicates are solved in blocks whose (B, p, p) stacks and
# (B, N) resampling draws each stay near this size.
_BLOCK_BYTES = 2**20
# The eigen stage of the bootstrap runs on at least this many replicates
# at a time, whatever the block size.
_EIGEN_GROUP = 128
# The bootstrap's one-factorization shortcut must certify
# cond(resampled design) * RANK_RCOND below this, far from the rank cut.
_CERTIFIED_RCOND = 1e-2


def coefficient_count(m: int) -> int:
    """Quadratic monomial count: 1 + m + m(m+1)/2."""
    return 1 + m + m * (m + 1) // 2


def quadratic_features(X) -> np.ndarray:
    """Design matrix over the monomial basis, one row per sample.

    Column order: constant, x_1..x_m, then squares and cross terms as
    the lexicographic upper triangle (x1*x1, x1*x2, ..., x1*xm, x2*x2,
    x2*x3, ...).  This ordering is the contract for packing and
    unpacking (H, v, c).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, m = X.shape
    blocks = [np.ones((n, 1)), X]
    for i in range(m):
        blocks.append(X[:, i:] * X[:, i : i + 1])
    return np.hstack(blocks)


def _unpack_coefficients(beta: np.ndarray, m: int):
    """(H, v, c) of coefficients in the monomial order; beta may be a (..., p) stack."""
    upper = np.triu_indices(m)
    quad = beta[..., m + 1 :]
    hess = np.zeros(beta.shape[:-1] + (m, m))
    hess[..., upper[0], upper[1]] = quad
    hess[..., upper[1], upper[0]] = quad
    diag = np.arange(m)
    hess[..., diag, diag] *= 2.0
    return hess, beta[..., 1 : m + 1].copy(), beta[..., 0]


@dataclass(frozen=True, eq=False)
class QuadraticModel:
    """f(x) ~ 0.5 * x'Hx + v'x + c with the in-sample residual RMS."""

    hessian: np.ndarray
    linear: np.ndarray
    constant: float
    residual_rms: float = 0.0

    def __post_init__(self):
        hess = np.array(self.hessian, dtype=float)
        lin = np.array(self.linear, dtype=float)
        if hess.ndim != 2 or hess.shape[0] != hess.shape[1]:
            raise ContractViolation("hessian must be square")
        if lin.shape != (hess.shape[0],):
            raise ContractViolation("linear term must match hessian dimension")
        scale = max(1.0, float(np.max(np.abs(hess))) if hess.size else 1.0)
        if np.max(np.abs(hess - hess.T)) > 1e-12 * scale:
            raise ContractViolation("hessian must be symmetric to 1e-12")
        hess = 0.5 * (hess + hess.T)
        _freeze(self, hessian=hess, linear=lin, constant=float(self.constant),
                residual_rms=float(self.residual_rms))

    @property
    def dim(self) -> int:
        return self.linear.size

    def predict(self, X):
        arr = np.asarray(X, dtype=float)
        single = arr.ndim == 1
        rows = np.atleast_2d(arr)
        out = (
            0.5 * np.einsum("ij,jk,ik->i", rows, self.hessian, rows)
            + rows @ self.linear
            + self.constant
        )
        return float(out[0]) if single else out

    def gradient(self, X):
        arr = np.asarray(X, dtype=float)
        single = arr.ndim == 1
        rows = np.atleast_2d(arr)
        out = rows @ self.hessian + self.linear
        return out[0] if single else out


def _solve_quadratic(design: np.ndarray, f: np.ndarray, m: int):
    beta, _, rank, _ = np.linalg.lstsq(design, f, rcond=RANK_RCOND)
    p = design.shape[1]
    if rank < p:
        raise IllPosedFitError(
            f"quadratic design matrix rank {rank} < {p}",
            rank=int(rank),
            required=p,
        )
    residual = float(np.linalg.norm(design @ beta - f) / np.sqrt(design.shape[0]))
    return QuadraticModel(*_unpack_coefficients(beta, m), residual)


def _lower_inverse(low: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of each lower-triangular matrix of a (..., n, n) stack, by 2 x 2 blocks.

    inv([[A, 0], [B, C]]) = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]; the result,
    written into ``out`` when given, is exactly lower triangular.  ``out``
    may be ``low`` itself: each off-diagonal block B is read before it is
    written, so inverting a stack of Cholesky factors needs no second
    (..., n, n) array, and each level keeps one (..., n - h, h) temporary.
    """
    if out is None:
        out = np.zeros(low.shape)
    n = low.shape[-1]
    if n == 1:
        np.divide(1.0, low, out=out)
        return out
    h = n // 2
    top = _lower_inverse(low[..., :h, :h], out[..., :h, :h])
    bottom = _lower_inverse(low[..., h:, h:], out[..., h:, h:])
    corner = out[..., h:, :h]
    np.matmul(bottom, np.matmul(low[..., h:, :h], top), out=corner)
    np.negative(corner, out=corner)
    return out


class _ResampledFit:
    """Refits of one sample matrix's quadratic design on resampled rows, from one QR.

    With D = QR and multiplicities c of the resampled rows, the resampled
    design is S Q R with (S Q)'(S Q) = G = Q' diag(c) Q.  Cholesky G = LL'
    gives beta = R^-1 L'^-1 L^-1 Q'(c*f).  The shortcut is used only when

        cond2(D[idx]) <= cond2(R) sqrt(cond2(G))
                      <= |R|_F |R^-1|_F sqrt(|G|_F |L^-1|_F^2)

    stays below _CERTIFIED_RCOND / RANK_RCOND, an exact bound rather than
    a condition estimate; anything else goes through ``_solve_quadratic``
    on the resampled rows, which raises IllPosedFitError as before.  The
    point fit is the resample whose counts are all one.  Only Q, R, R^-1
    and cond_F(R) are kept, read-only, so one object serves every fit of
    the same X (see ``_factored``).
    """

    def __init__(self, X: np.ndarray):
        self.q, self.r = np.linalg.qr(quadratic_features(X))
        # a singular R gives a non-finite cond_r, which certifies no resample
        with np.errstate(divide="ignore", invalid="ignore"):
            self.r_inv = _lower_inverse(self.r.T).T
            self.cond_r = np.linalg.norm(self.r) * np.linalg.norm(self.r_inv)
        for arr in (self.q, self.r, self.r_inv):
            arr.flags.writeable = False

    def solve(self, f, draws):
        """Coefficients (B, p) of f on each resample, and whether the shortcut certified each.

        Each Gram matrix is Cholesky-factored as soon as it is formed, into
        one (B, p, p) work stack that this call allocates and inverts in
        place; a member that is not positive definite gets the identity as
        a placeholder factor.
        """
        p = self.r.shape[0]
        factors = np.empty((len(draws), p, p))
        rhs = np.empty((len(draws), p))
        gram_norm = np.empty(len(draws))
        ok = np.ones(len(draws), dtype=bool)
        for i, idx in enumerate(draws):
            counts = np.bincount(idx, minlength=f.size)
            rows = np.flatnonzero(counts)
            root = np.sqrt(counts[rows])
            weighted = np.take(self.q, rows, axis=0)
            weighted *= root[:, np.newaxis]
            gram = np.matmul(weighted.T, weighted, out=factors[i])
            rhs[i] = (root * f[rows]) @ weighted
            gram_norm[i] = np.sqrt(np.einsum("ij,ij->", gram, gram))
            try:
                factors[i] = np.linalg.cholesky(gram)
            except np.linalg.LinAlgError:
                factors[i] = np.eye(p)
                ok[i] = False
        chol_inv = _lower_inverse(factors, out=factors)
        bound = (
            self.cond_r
            * np.sqrt(gram_norm)
            * np.sqrt(np.einsum("bij,bij->b", chol_inv, chol_inv))
        )
        ok &= bound < _CERTIFIED_RCOND / RANK_RCOND
        y = chol_inv @ rhs[..., np.newaxis]
        z = np.swapaxes(np.swapaxes(chol_inv, 1, 2) @ y, 1, 2)
        # (B, 1, p) x (p, p) runs one product per replicate, so a replicate's
        # bits do not depend on how many share its block; a (B, p) x (p, p)
        # product lets BLAS pick its kernel by B.
        beta = (z @ self.r_inv.T)[:, 0]
        return beta, ok

    def refit(self, X, f, rng):
        """(H, v) of a replicate whose first draw the shortcut did not certify.

        The first draw is replayed from ``rng`` and refitted by
        ``_solve_quadratic``; a rank-deficient resample is redrawn from the
        same stream up to _MAX_RESAMPLE_RETRIES times.  None if every draw
        was rank deficient.
        """
        n_rows, m = X.shape
        for attempt in range(_MAX_RESAMPLE_RETRIES + 1):
            idx = rng.integers(0, n_rows, size=n_rows)
            if attempt:
                beta, ok = self.solve(f, [idx])
                if ok[0]:
                    return _unpack_coefficients(beta[0], m)[:2]
            try:
                model = _solve_quadratic(quadratic_features(X[idx]), f[idx], m)
            except IllPosedFitError:
                continue
            return model.hessian, model.linear
        return None


@functools.lru_cache(maxsize=1)
def _factored(shape: tuple, x_bytes: bytes) -> _ResampledFit:
    """The factorization of one sample matrix, looked up by its shape and bytes.

    One entry is enough: a chain fits and then bootstraps the same X, and
    the panel's lift and drag chains share theirs, so each sample matrix
    is factored once.  A changed X is a new key, never a stale hit.
    """
    return _ResampledFit(np.frombuffer(x_bytes).reshape(shape))


def fit_quadratic(X, f) -> QuadraticModel:
    """Least-squares quadratic surface over normalized samples.

    Requires N >= (m+2 choose 2) rows; warns (non-fatally) below twice
    that.  Solved from the cached QR of the design (``_factored``) as the
    resample whose counts are all one, when the bootstrap's condition
    bound certifies full rank; otherwise by ``lstsq`` with relative rank
    tolerance 1e-10, which raises IllPosedFitError below full rank.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    f = np.asarray(f, dtype=float)
    n, m = X.shape
    if f.shape != (n,):
        raise ContractViolation("f must have one value per sample row")
    p = coefficient_count(m)
    if n < p:
        raise ContractViolation(f"need at least {p} samples for m={m}, got {n}")
    if n < 2 * p:
        warnings.warn(
            f"only {n} samples for {p} coefficients; recommend at least {2 * p}",
            SampleSizeWarning,
            stacklevel=2,
        )
    fac = _factored(X.shape, X.tobytes())
    beta, ok = fac.solve(f, [np.arange(n)])
    if not ok[0]:
        return _solve_quadratic(quadratic_features(X), f, m)
    residual = float(np.linalg.norm(fac.q @ (fac.r @ beta[0]) - f) / np.sqrt(n))
    return QuadraticModel(*_unpack_coefficients(beta[0], m), residual)


def _outer(hess: np.ndarray, lin: np.ndarray) -> np.ndarray:
    """C = HH/3 + vv' (symmetrized) for each H of a (..., m, m) stack and v of (..., m)."""
    c = (hess @ hess) / 3.0
    c = c + lin[..., :, np.newaxis] * lin[..., np.newaxis, :]
    return 0.5 * (c + np.swapaxes(c, -1, -2))


def gradient_outer_matrix(model: QuadraticModel) -> np.ndarray:
    """Mean gradient outer product C = HH/3 + vv' over the uniform [-1, 1]^m (symmetrized)."""
    return _outer(model.hessian, model.linear)


@dataclass(frozen=True, eq=False)
class Eigenpairs:
    """Descending eigenvalues with sign-canonical orthonormal eigenvectors."""

    vectors: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        vec = np.array(self.vectors, dtype=float)
        val = np.array(self.values, dtype=float)
        if vec.ndim != 2 or vec.shape[0] != vec.shape[1] or val.shape != (vec.shape[0],):
            raise ContractViolation("vectors must be m x m with m eigenvalues")
        _check_eigenpairs(vec, val)
        _freeze(self, vectors=vec, values=val)

    @property
    def dim(self) -> int:
        return self.values.size


def _check_eigenpairs(vectors: np.ndarray, values: np.ndarray) -> None:
    """Orthonormal vectors, non-increasing non-negative values, for each member of a stack."""
    eye = np.eye(values.shape[-1])
    if np.any(np.abs(np.swapaxes(vectors, -1, -2) @ vectors - eye) > 1e-10):
        raise ContractViolation("eigenvectors must be orthonormal to 1e-10")
    if np.any(np.diff(values, axis=-1) > 0.0):
        raise ContractViolation("eigenvalues must be non-increasing")
    scale = np.maximum(1.0, values[..., 0])
    if np.any(values[..., -1] < -1e-12 * scale):
        raise ContractViolation("eigenvalues must be non-negative to 1e-12")


def _canonical_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude component is positive.

    Ties go to the lowest index.  ``vectors`` may be a (..., m, k) stack.
    """
    lead = np.argmax(np.abs(vectors), axis=-2)[..., np.newaxis, :]  # first index on ties
    flip = np.take_along_axis(vectors, lead, axis=-2) < 0.0
    return np.where(flip, -vectors, vectors)


def _eigh_descending(c: np.ndarray):
    """Checked (values, vectors) of a (..., m, m) stack of symmetric matrices.

    Values descend; vectors follow the sign rule of ``_canonical_signs``.
    """
    scale = np.maximum(1.0, np.max(np.abs(c), axis=(-2, -1), initial=0.0))
    if np.any(np.max(np.abs(c - np.swapaxes(c, -1, -2)), axis=(-2, -1), initial=0.0)
              > 1e-10 * scale):
        raise ContractViolation("matrix must be symmetric to 1e-10")
    values, vectors = np.linalg.eigh(0.5 * (c + np.swapaxes(c, -1, -2)))
    order = np.argsort(values, axis=-1)[..., ::-1]
    values = np.take_along_axis(values, order, axis=-1)
    vectors = _canonical_signs(np.take_along_axis(vectors, order[..., np.newaxis, :], axis=-1))
    _check_eigenpairs(vectors, values)
    return values, vectors


def eigendecompose(matrix) -> Eigenpairs:
    """Symmetric eigendecomposition, descending, with a deterministic sign rule.

    Each eigenvector is flipped so its largest-magnitude component is
    positive (ties resolved toward the lowest index), making repeated
    decompositions directly comparable.
    """
    c = np.asarray(matrix, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ContractViolation("matrix must be square")
    values, vectors = _eigh_descending(c)
    return Eigenpairs(vectors=vectors, values=values)


def choose_dimension(values, max_n: int | None = None) -> int:
    """Largest log-gap rule with an eigenvalue floor.

    Eigenvalues are floored at 1e-14 * lambda_1 before the ratios are
    taken; the dimension is argmax_i log(lambda_i / lambda_{i+1}) with
    ties resolved toward the smaller i.
    """
    lam = np.asarray(values, dtype=float)
    if lam.ndim != 1 or lam.size < 2:
        raise ContractViolation("need at least two eigenvalues")
    if np.any(np.diff(lam) > 0.0):
        raise ContractViolation("eigenvalues must be non-increasing")
    if lam[0] <= 0.0:
        raise NoStructureError("all eigenvalues at the floor; no gap to select")
    floor = EIGENVALUE_FLOOR * lam[0]
    lam = np.maximum(lam, floor)
    top = lam.size - 1 if max_n is None else min(int(max_n), lam.size - 1)
    if top < 1:
        raise ContractViolation("max_n must allow at least dimension 1")
    gaps = np.log(lam[:top] / lam[1 : top + 1])
    return int(np.argmax(gaps)) + 1  # argmax takes the first maximum


def subspace_distance(A, B):
    """Projector distance || A A' - B B' ||_2 between equal-shape orthonormal bases.

    That is the sine of the largest principal angle.  ``A`` may also be a
    (..., m, k) stack of bases, each compared with ``B``; the result is
    then an array of distances, empty for an empty stack.
    """
    a = np.asarray(A, dtype=float)
    b = np.asarray(B, dtype=float)
    if a.ndim == 1:
        a = a[:, np.newaxis]
    if b.ndim == 1:
        b = b[:, np.newaxis]
    if b.ndim != 2 or a.shape[-2:] != b.shape:
        raise ContractViolation(f"shape mismatch: {a.shape} vs {b.shape}")
    eye = np.eye(b.shape[1])
    if (np.max(np.abs(np.swapaxes(a, -1, -2) @ a - eye), initial=0.0) > 1e-8
            or np.max(np.abs(b.T @ b - eye), initial=0.0) > 1e-8):
        raise ContractViolation("inputs must have orthonormal columns")
    # ||(I - BB')A||_2 equals the projector distance for equal-dimension
    # subspaces; it needs an m x k SVD instead of an m x m one.
    dist = np.linalg.svd(a - b @ (b.T @ a), compute_uv=False)[..., 0]
    return float(dist) if dist.ndim == 0 else dist


@dataclass(frozen=True, eq=False)
class BootstrapSummary:
    """Replicate spread of the eigenvalues and of the subspace error.

    ``eigenvalues`` is the point estimate; the *_min/mean/max arrays are
    per eigen-index over replicates.  ``error_*`` rows cover every
    candidate dimension 1..m-1 against the point-estimate basis;
    ``n`` marks the selected active dimension.
    """

    eigenvalues: np.ndarray
    eigenvalues_min: np.ndarray
    eigenvalues_mean: np.ndarray
    eigenvalues_max: np.ndarray
    dimensions: np.ndarray
    error_mean: np.ndarray
    error_min: np.ndarray
    error_max: np.ndarray
    n: int
    n_boot: int
    seed: int
    n_skipped: int

    def error_row(self, dim: int):
        i = int(dim) - 1
        if not 0 <= i < self.dimensions.size:
            raise ContractViolation(f"no bootstrap row for dimension {dim}")
        return (
            float(self.error_mean[i]),
            float(self.error_min[i]),
            float(self.error_max[i]),
        )


def _replicate_rng(seed: int, k: int) -> np.random.Generator:
    """Resampling stream of bootstrap replicate k."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,)))
    )


def bootstrap(
    X,
    f,
    n_boot: int,
    seed: int,
    n: int | None = None,
) -> BootstrapSummary:
    """Pairs bootstrap of the quadratic-model subspace estimate.

    Each replicate resamples the N rows with replacement (stream
    ``SeedSequence(seed, spawn_key=(k,))``), refits, rebuilds C as the
    point estimate does, and re-decomposes.  A rank-deficient resample
    is redrawn up to 10 times, then counted as skipped.  The point fit
    and the refits share one QR factorization of the design, cached
    across calls on the same X, and refits run in blocks of replicates,
    each in the (B, p, p) work stack its solver allocates, whose eigen
    stage runs in groups of consecutive replicates (see the module
    docstring and ``_ResampledFit``).  Note the replicate ranges
    describe sampling variability of the fit only; they are not
    calibrated confidence intervals.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    f = np.asarray(f, dtype=float)
    if not 1 <= n_boot:
        raise ContractViolation("n_boot must be positive")
    n_rows, m = X.shape
    if f.shape != (n_rows,):
        raise ContractViolation("f must have one value per sample row")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampleSizeWarning)
        point = fit_quadratic(X, f)
    eig = eigendecompose(gradient_outer_matrix(point))
    if n is None:
        n = choose_dimension(eig.values)
    if not 1 <= n < m:
        raise ContractViolation(f"dimension must lie in [1, {m - 1}], got {n}")

    refit = _factored(X.shape, X.tobytes())
    block = max(1, _BLOCK_BYTES // (8 * max(refit.r.size, n_rows)))
    group = max(block, _EIGEN_GROUP)
    dims = np.arange(1, m)
    lam_rows = np.empty((n_boot, m))
    err_rows = np.empty((n_boot, m - 1))
    kept = np.ones(n_boot, dtype=bool)
    for start in range(0, n_boot, group):
        reps = slice(start, min(start + group, n_boot))
        betas, certified = zip(*(
            refit.solve(f, [_replicate_rng(seed, k).integers(0, n_rows, size=n_rows)
                            for k in range(first, min(first + block, reps.stop))])
            for first in range(start, reps.stop, block)
        ))
        hess, lin, _ = _unpack_coefficients(np.concatenate(betas), m)
        for i in np.flatnonzero(~np.concatenate(certified)):
            fitted = refit.refit(X, f, _replicate_rng(seed, start + i))
            if fitted is None:
                kept[start + i] = False
            else:
                hess[i], lin[i] = fitted
        ok = kept[reps]
        if not ok.any():  # every replicate of the group was skipped
            continue
        lam_rows[reps][ok], vectors = _eigh_descending(_outer(hess[ok], lin[ok]))
        # reduced per group, so no (nboot, m, m) eigenvector stack is kept
        err_rows[reps][ok] = np.column_stack(
            [subspace_distance(vectors[:, :, :d], eig.vectors[:, :d]) for d in dims]
        )
    skipped = int(n_boot - kept.sum())
    if skipped == n_boot:
        raise IllPosedFitError("every bootstrap replicate was rank deficient")
    lam_rows = lam_rows[kept]
    err_rows = err_rows[kept]

    return BootstrapSummary(
        eigenvalues=eig.values,
        eigenvalues_min=lam_rows.min(axis=0),
        eigenvalues_mean=lam_rows.mean(axis=0),
        eigenvalues_max=lam_rows.max(axis=0),
        dimensions=dims,
        error_mean=err_rows.mean(axis=0),
        error_min=err_rows.min(axis=0),
        error_max=err_rows.max(axis=0),
        n=int(n),
        n_boot=int(n_boot),
        seed=int(seed),
        n_skipped=skipped,
    )
