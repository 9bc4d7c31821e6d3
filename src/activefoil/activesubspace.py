"""Active-subspace estimation through a single global quadratic model.

Fit f(x) ~ 0.5 * x'Hx + v'x + c over normalized inputs on [-1, 1]^m,
then eigendecompose the average outer product of the model gradient,

    C = E[(Hx + v)(Hx + v)'] = H H / 3 + v v',

the exact mean under the uniform density on [-1, 1]^m that every sampler
draws from: E[x] = 0 and E[xx'] = I/3.  Directions with large
eigenvalues are the ones along which the model says f moves; trailing
directions are near-inactive.  Subspace uncertainty is estimated by a
pairs bootstrap: resample the (x, f) rows, fit again, re-decompose, and
compare each replicate's leading subspace against the caller's point
estimate with the projector distance
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
eigen group's (G, m, m) arrays plus O(nboot * m) per output, whatever
nboot * m^2 is.  Every fit is certified by an exact upper bound on the
condition number of its design: the bound must clear full rank at the
1e-10 tolerance with a wide margin.  An uncertified point fit raises
IllPosedFitError; an uncertified replicate is redrawn from its own
stream, each redraw solved and certified the same way, and skipped when
no redraw is certified.

The bootstrap takes an (N, k) matrix of k outputs of the same designs,
such as the panel's lift and drag, with the point eigenpairs the caller
already built from each column's ``fit_quadratic`` model; it fits,
decomposes and chooses no point estimate of its own.  Each replicate
resamples the rows once for all k: its draws, Gram matrix, Cholesky
factor, inverse and certificate depend on X alone and are made once, and
only each output's right-hand side, solves and eigen stage run per
column, the same operations as for that output alone, so each column
keeps the bits of its own bootstrap.  Rank decisions depend on X alone
too, so a skipped replicate is skipped for every output.

The module holds numerics only: it draws no samples and evaluates no
quantity of interest; its replicate streams come from
``sampling.substream``, the one constructor of per-row streams.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolation, IllPosedFitError, NoStructureError, SampleSizeWarning
from .sampling import _freeze, substream

RANK_RCOND = 1e-10
EIGENVALUE_FLOOR = 1e-14

_MAX_RESAMPLE_RETRIES = 10
# Bootstrap replicates are solved in blocks whose (B, p, p) stacks and
# (B, N) resampling draws each stay near this size.
_BLOCK_BYTES = 2**20
# The eigen stage of the bootstrap runs on at least this many replicates
# at a time, whatever the block size.
_EIGEN_GROUP = 128
# Every fit from the one factorization must certify
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
        if not all(np.all(np.isfinite(v)) for v in (hess, lin, self.constant)):
            raise ContractViolation("hessian, linear term and constant must be finite")
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
        """Values at the rows of X, or at the one design X, from elementwise products
        summed along the last axis, so no row's bits depend on its stack (a BLAS
        product's blocking does).  Hx is formed in blocks of about 1 MB."""
        arr = np.asarray(X, dtype=float)
        rows = np.atleast_2d(arr)
        block = max(1, 2**17 // self.hessian.size)  # 2**17 doubles are 1 MB
        hx = np.empty_like(rows)
        for i in range(0, len(rows), block):
            (rows[i:i + block, np.newaxis, :] * self.hessian).sum(axis=-1, out=hx[i:i + block])
        quadratic = 0.5 * (hx * rows).sum(axis=-1)
        out = quadratic + (rows * self.linear).sum(axis=-1) + self.constant
        return float(out[0]) if arr.ndim == 1 else out


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
    """Fits of one sample matrix's quadratic design on resampled rows, from one QR.

    With D = QR and multiplicities c of the resampled rows, the resampled
    design is S Q R with (S Q)'(S Q) = G = Q' diag(c) Q.  Cholesky G = LL'
    gives beta = R^-1 L'^-1 L^-1 Q'(c*f).  A fit is certified only when

        cond2(D[idx]) <= cond2(R) sqrt(cond2(G))
                      <= |R|_F |R^-1|_F sqrt(|G|_F |L^-1|_F^2)

    stays below _CERTIFIED_RCOND / RANK_RCOND, an exact bound rather than
    a condition estimate.  This certificate is the only rank decision:
    ``fit_quadratic`` refuses an uncertified point fit and ``bootstrap``
    redraws an uncertified replicate.  The point fit is the resample whose
    counts are all one.  Only Q, R, R^-1 and cond_F(R) are kept, read-only,
    so one object serves every fit of the same X (see ``_factored``).
    """

    def __init__(self, X: np.ndarray):
        self.q, self.r = np.linalg.qr(quadratic_features(X))
        # a singular R gives a non-finite cond_r, which certifies no resample
        with np.errstate(divide="ignore", invalid="ignore"):
            self.r_inv = _lower_inverse(self.r.T).T
            self.cond_r = np.linalg.norm(self.r) * np.linalg.norm(self.r_inv)
        for arr in (self.q, self.r, self.r_inv):
            arr.flags.writeable = False

    def solve(self, F, draws):
        """Coefficients of the k outputs F, (N, k), on each resample, (k, B, p),
        and whether the condition bound certified each resample.

        Each Gram matrix is
        Cholesky-factored as soon as it is formed, into one (B, p, p) work
        stack that this call allocates and inverts in place; a member that
        is not positive definite gets the identity as a placeholder factor.
        The draws, Gram matrices, factors and certificates depend on X
        alone, so they are made once for every column; each column then
        gets its own right-hand side and solves, the same operations as a
        call with that column alone, so it gets the same bits.
        """
        p = self.r.shape[0]
        cols = F.T
        factors = np.empty((len(draws), p, p))
        rhs = np.empty((len(cols), len(draws), p))
        gram_norm = np.empty(len(draws))
        ok = np.ones(len(draws), dtype=bool)
        for i, idx in enumerate(draws):
            counts = np.bincount(idx, minlength=F.shape[0])
            rows = np.flatnonzero(counts)
            root = np.sqrt(counts[rows])
            weighted = np.take(self.q, rows, axis=0)
            weighted *= root[:, np.newaxis]
            gram = np.matmul(weighted.T, weighted, out=factors[i])
            for j, col in enumerate(cols):
                rhs[j, i] = (root * col[rows]) @ weighted
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
        beta = np.empty(rhs.shape)
        for j in range(len(cols)):
            y = chol_inv @ rhs[j, :, :, np.newaxis]
            z = np.swapaxes(np.swapaxes(chol_inv, 1, 2) @ y, 1, 2)
            # (B, 1, p) x (p, p) runs one product per replicate, so a
            # replicate's bits do not depend on how many share its block;
            # a (B, p) x (p, p) product lets BLAS pick its kernel by B.
            # A singular R's non-finite inverse gives NaN fits, all uncertified.
            with np.errstate(invalid="ignore"):
                beta[j] = (z @ self.r_inv.T)[:, 0]
        return beta, ok


@functools.lru_cache(maxsize=1)
def _factored(shape: tuple, x_bytes: bytes) -> _ResampledFit:
    """The factorization of one sample matrix, looked up by its shape and bytes.

    One entry is enough: a chain fits and then bootstraps the same X, and
    the panel's lift and drag chains share theirs, so each sample matrix
    is factored once.  The Pareto link fits (``analysis.fit_link_function``)
    factor their shadow coordinates here too, after X's last use, so they
    evict X's entry only once nothing needs it.  A changed X is a new key,
    never a stale hit.
    """
    return _ResampledFit(np.frombuffer(x_bytes).reshape(shape))


def _finite(X, F):
    """X as a 2-D float array and F as a float array, refused unless both are finite."""
    X, F = np.atleast_2d(np.asarray(X, dtype=float)), np.asarray(F, dtype=float)
    if not (np.isfinite(X).all() and np.isfinite(F).all()):
        raise ContractViolation("samples and outputs must be finite")
    return X, F


def fit_quadratic(X, f) -> QuadraticModel:
    """Least-squares quadratic surface over normalized samples.

    Requires N >= (m+2 choose 2) rows; warns (non-fatally) below twice
    that.  Solved from the cached QR of the design (``_factored``) as the
    resample whose counts are all one.  Raises IllPosedFitError unless the
    bootstrap's condition bound certifies full rank; its ``rank`` counts the
    singular values of R (the design's) above 1e-10 times the largest.
    """
    X, f = _finite(X, f)
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
    beta, ok = fac.solve(f[:, np.newaxis], [np.arange(n)])
    if not ok[0]:
        sv = np.linalg.svd(fac.r, compute_uv=False)
        rank = int(np.sum(sv > RANK_RCOND * sv[0]))
        why = (f"rank {rank} < {p}" if rank < p else f"has full rank {p} but a condition "
               f"bound above {_CERTIFIED_RCOND / RANK_RCOND:.0e}, too ill-conditioned to certify")
        raise IllPosedFitError(f"quadratic design matrix {why}", rank=rank, required=p)
    residual = float(np.linalg.norm(fac.q @ (fac.r @ beta[0, 0]) - f) / np.sqrt(n))
    return QuadraticModel(*_unpack_coefficients(beta[0, 0], m), residual)


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


def _check_eigenpairs(vectors: np.ndarray, values: np.ndarray) -> None:
    """Finite orthonormal vectors, non-increasing non-negative values, per member of a stack."""
    if not (np.all(np.isfinite(vectors)) and np.all(np.isfinite(values))):
        raise ContractViolation("eigenvalues and eigenvectors must be finite")
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


def choose_dimension(values) -> int:
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
    gaps = np.log(lam[:-1] / lam[1:])
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
    """Replicate spread of the eigenvalues and of the subspace error of k outputs.

    The *_min/mean/max arrays hold, for each output, the per eigen-index
    spread over replicates, with a leading k axis.  ``error_*`` entry d-1
    is candidate dimension d, 1..m-1, against the caller's point-estimate
    basis.  ``column(j)`` is output j's own summary.  ``n_boot`` and
    ``n_skipped`` count replicates, which every output shares.
    """

    eigenvalues_min: np.ndarray
    eigenvalues_mean: np.ndarray
    eigenvalues_max: np.ndarray
    error_mean: np.ndarray
    error_min: np.ndarray
    error_max: np.ndarray
    n_boot: int
    n_skipped: int

    def column(self, j: int) -> "BootstrapSummary":
        """The summary of output j, without the leading k axis."""
        return replace(self, **{
            name: value[j] for name, value in vars(self).items() if np.ndim(value) == 2})

    def error_row(self, dim: int):
        """(mean, min, max) subspace error at dimension ``dim``, one per output of a
        summary and a scalar each of a ``column``."""
        i = int(dim) - 1
        if not 0 <= i < self.error_mean.shape[-1]:
            raise ContractViolation(f"no bootstrap row for dimension {dim}")
        return self.error_mean[..., i], self.error_min[..., i], self.error_max[..., i]


def bootstrap(X, F, n_boot: int, seed: int, points) -> BootstrapSummary:
    """Pairs bootstrap of the quadratic-model subspace estimates of k outputs.

    ``F`` is the (N, k) output matrix and ``points`` holds the k point
    ``Eigenpairs`` of the caller, the eigendecompositions of each column's
    ``fit_quadratic`` model.  Each replicate k resamples the N rows with
    replacement from its own stream ``sampling.substream(seed, k)``, which
    ``sample`` draws its rows from too, fits it, rebuilds C as the point
    estimate does, and re-decomposes.  A resample whose fit the condition
    bound does not certify is redrawn up to 10 times from the same stream,
    each redraw certified the same way, then counted as skipped.  The
    replicate fits share the QR factorization of the design that the
    caller's point fits cached, and run in blocks of replicates, each in the
    (B, p, p) work stack its solver allocates, whose eigen stage runs in
    groups of consecutive replicates (see the module docstring and
    ``_ResampledFit``).  Note the replicate ranges describe sampling
    variability of the fit only; they are not calibrated confidence
    intervals.

    The k outputs share each replicate's rows: its draws, Gram matrix,
    factor and rank decisions are made once, so a replicate skipped for
    one output is skipped for all.  Column j of the summary (see
    ``BootstrapSummary.column``) has the bits of ``bootstrap(X, F[:, [j]],
    n_boot, seed, [points[j]])``.
    """
    X, F = _finite(X, F)
    if not 1 <= n_boot:
        raise ContractViolation("n_boot must be positive")
    n_rows, m = X.shape
    if F.ndim != 2 or F.shape[0] != n_rows or not F.shape[1]:
        raise ContractViolation("F must have one row per sample row and one column per output")
    if m < 2 or len(points) != F.shape[1] or any(eig.vectors.shape != (m, m) for eig in points):
        raise ContractViolation(f"need m >= 2 and one {m} x {m} point Eigenpairs per column "
                                f"of F, got {len(points)} for {F.shape[1]} columns")

    fac = _factored(X.shape, X.tobytes())
    block = max(1, _BLOCK_BYTES // (8 * max(fac.r.size, n_rows)))
    group = max(block, _EIGEN_GROUP)
    lam_rows = np.empty((len(points), n_boot, m))
    err_rows = np.empty((len(points), n_boot, m - 1))
    kept = np.ones(n_boot, dtype=bool)
    for start in range(0, n_boot, group):
        reps = slice(start, min(start + group, n_boot))
        betas, certified = zip(*(
            fac.solve(F, [substream(seed, k).integers(0, n_rows, size=n_rows)
                          for k in range(first, min(first + block, reps.stop))])
            for first in range(start, reps.stop, block)
        ))
        hess, lin, _ = _unpack_coefficients(np.concatenate(betas, axis=1), m)
        for i in np.flatnonzero(~np.concatenate(certified)):
            rng = substream(seed, start + i)
            rng.integers(0, n_rows, size=n_rows)  # the first draw, already refused
            for _ in range(_MAX_RESAMPLE_RETRIES):
                beta, good = fac.solve(F, [rng.integers(0, n_rows, size=n_rows)])
                if good[0]:
                    hess[:, i], lin[:, i], _ = _unpack_coefficients(beta[:, 0], m)
                    break
            else:  # rank depends on X alone: skipped for every output
                kept[start + i] = False
        ok = kept[reps]
        if not ok.any():  # every replicate of the group was skipped
            continue
        for j, point in enumerate(points):
            lam_rows[j, reps][ok], vectors = _eigh_descending(_outer(hess[j, ok], lin[j, ok]))
            # reduced per group, so no (nboot, m, m) eigenvector stack is kept
            err_rows[j, reps][ok] = np.column_stack(
                [subspace_distance(vectors[:, :, :d], point.vectors[:, :d]) for d in range(1, m)]
            )
    skipped = int(n_boot - kept.sum())
    if skipped == n_boot:
        raise IllPosedFitError("every bootstrap replicate was uncertified: rank-deficient "
                               "or too ill-conditioned")
    # each output reduces its own (kept, m) rows, as a bootstrap of it alone does
    stats = {f"{name}_{reduce}": np.array([getattr(r[kept], reduce)(axis=0) for r in rows])
             for name, rows in (("eigenvalues", lam_rows), ("error", err_rows))
             for reduce in ("min", "mean", "max")}
    return BootstrapSummary(**stats, n_boot=int(n_boot), n_skipped=skipped)
