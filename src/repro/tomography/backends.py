"""Pluggable linear-algebra backends for :class:`LinearSystem`.

The measurement matrix ``R`` of eq. (1) is an extremely sparse 0/1
path-link incidence matrix, yet the original kernel materialised dense
operators (``R⁺``, the projectors) from one dense SVD.  That is the right
call at Fig.-1 scale and caps out quickly on ISP-scale topologies.  This
module supplies two interchangeable numerical cores:

- :class:`DenseBackend` — the historical dense path: one
  :func:`repro.utils.linalg.compact_svd`, every derived operator assembled
  from the shared factors.  Bit-identical to the pre-backend kernel.
- :class:`SparseBackend` — stores ``R`` as ``scipy.sparse.csr_matrix`` and
  never materialises ``R⁺``.  Estimates are direct solves against the
  *smaller-side* Gram matrix (``R^T R`` when tall, ``R R^T`` when wide),
  with iterative refinement: a Cholesky factorisation when the small
  side has full rank, and otherwise the Gram eigendecomposition that
  already decides the rank, applied as the pseudo-inverse
  ``G⁺ = V_r Λ_r⁻¹ V_r^T`` (min-norm least squares).  Residuals are two
  sparse matvecs (``R x_hat - y``) instead of a dense ``(I - R R⁺)``
  projector.  Rank decisions use the Gram spectrum with a certified
  decision rule; spectra too ambiguous to certify fall back to the dense
  factors — for the rank and the solves alike — so rank decisions never
  silently disagree with the library-wide cutoff convention.

Backend choice is resolved by :func:`resolve_backend_name` with the
precedence *explicit argument > ``REPRO_BACKEND`` environment variable >
auto heuristic*.  The heuristic picks sparse only when the matrix is
large (``m * n >= 65536``) and sparse (density <= 0.25) — exactly the
regime where the dense SVD dominates end-to-end sweep time.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse

from repro import config
from repro.exceptions import ValidationError
from repro.obs import core as obs
from repro.utils.linalg import compact_svd, pinv_from_svd
from repro.utils.updates import (
    cholesky_append,
    cholesky_delete,
    cholesky_downdate,
    cholesky_replace,
    cholesky_update,
    svd_append_row,
    svd_remove_row,
)

__all__ = [
    "DenseBackend",
    "SparseBackend",
    "resolve_backend_name",
    "AUTO_SIZE_THRESHOLD",
    "AUTO_DENSITY_THRESHOLD",
]

#: ``m * n`` at or above which the auto heuristic considers going sparse.
AUTO_SIZE_THRESHOLD = 65536

#: Density at or below which the auto heuristic considers going sparse.
AUTO_DENSITY_THRESHOLD = 0.25

#: Environment variable overriding the auto dispatch (``dense``/``sparse``/``auto``).
BACKEND_ENV_VAR = "REPRO_BACKEND"

_BACKEND_NAMES = ("dense", "sparse", "auto")

#: Iterative-refinement passes after a Cholesky or spectral Gram solve.
#: Normal equations square the condition number; one or two refinement
#: steps recover the accuracy of a backward-stable direct solve.
_REFINE_STEPS = 2

#: Relative residual floor below which further refinement is pure
#: roundoff churn and the loop exits early.
_REFINE_ATOL = 64.0 * np.finfo(float).eps


def _memoised_columns(memo, kind, cols, build):
    """Column-slice memo shared by both backends.

    LP base blocks, warm-started engine models and spliced override rows
    all consume the same ``Q[:, support]`` / ``C[:, support]`` blocks;
    one sweep grid point may ask for them several times (solver cache
    key miss, per-strategy contexts on a shared kernel).  On the sparse
    backend each build is a batched matrix-free solve, so repeats are
    worth remembering.  Keys are the requested column tuple — distinct
    support sets coexist — and the cached block is returned as-is; the
    LP layer never mutates these blocks.
    """
    key = (kind, tuple(int(c) for c in np.asarray(cols, dtype=int)))
    block = memo.get(key)
    if block is None:
        block = build(np.asarray(cols, dtype=int))
        memo[key] = block
    return block


def resolve_backend_name(
    requested: str | None,
    *,
    shape: tuple[int, int],
    density: float,
    sparse_input: bool = False,
) -> str:
    """Resolve ``dense``/``sparse`` from request, environment and heuristic.

    Precedence: explicit ``requested`` argument, then the
    ``REPRO_BACKEND`` environment variable, then the auto heuristic
    (sparse iff the matrix is both large and sparse, or the caller handed
    us an already-sparse matrix).  ``"auto"`` at either override level
    falls through to the heuristic.
    """
    choice = requested
    if choice is None:
        choice = config.raw(BACKEND_ENV_VAR) or "auto"
    if choice not in _BACKEND_NAMES:
        raise ValidationError(
            f"unknown backend {choice!r}; choose from {_BACKEND_NAMES}"
        )
    if choice != "auto":
        return choice
    if sparse_input:
        return "sparse"
    m, n = shape
    if m * n >= AUTO_SIZE_THRESHOLD and density <= AUTO_DENSITY_THRESHOLD:
        return "sparse"
    return "dense"


def _certified_rank(
    s: np.ndarray, shape: tuple[int, int], rank_tol: float
) -> int | None:
    """Rank under the shared cutoff, or ``None`` when not certifiable.

    ``s`` is descending.  Singular values read off a Gram spectrum or
    patched by incremental updates carry more rounding error than a cold
    SVD's, so the plain cutoff cannot be trusted near the boundary: every
    singular value must sit a factor of 4 away from the decision
    threshold (itself floored at the ``O(k * eps)`` noise level of the
    spectrum).  Ambiguous spectra return ``None`` and the caller falls
    back to a cold dense factorisation.
    """
    k = s.shape[0]
    if k == 0:
        return 0
    s_max = float(s[0])
    if s_max == 0.0:
        return 0
    m, n = shape
    cutoff = rank_tol * max(m, n) * s_max
    noise = s_max * np.sqrt(64.0 * k * np.finfo(float).eps)
    threshold = max(cutoff, 8.0 * noise)
    clear_above = s >= 4.0 * threshold
    clear_below = s <= threshold / 4.0
    if bool(np.all(clear_above | clear_below)):
        return int(np.count_nonzero(clear_above))
    return None


class DenseBackend:
    """The historical dense kernel: one SVD, dense derived operators.

    ``raw`` is ``R`` as the owning
    :class:`~repro.tomography.linear_system.LinearSystem` received it
    (dense or scipy sparse) and ``rank_tol`` its rank cutoff.  The
    backend holds these, not the system itself: a back-reference would
    make every system a reference cycle that only the cyclic garbage
    collector frees.  Every quantity here is assembled from the one
    shared :func:`compact_svd` factorisation, exactly as before the
    backend split — existing results are bit-identical.
    """

    name = "dense"

    def __init__(self, raw, rank_tol: float) -> None:
        self._raw = raw
        self._rank_tol = float(rank_tol)
        self._column_memo: dict[tuple, np.ndarray] = {}

    @cached_property
    def dense_matrix(self) -> np.ndarray:
        """``R`` as a dense array (``raw`` itself when it already is one)."""
        if scipy.sparse.issparse(self._raw):
            return np.asarray(self._raw.todense(), dtype=float)
        return self._raw

    @cached_property
    def factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """``(u, s, vt, rank)`` — the one factorisation everything shares."""
        return compact_svd(self.dense_matrix, rank_tol=self._rank_tol)

    @property
    def rank(self) -> int:
        return self.factors[3]

    @property
    def singular_values(self) -> np.ndarray:
        return self.factors[1]

    def numerical_health(self) -> dict:
        """Which solve serves this system (always the dense SVD here)."""
        return {"solve": "dense"}

    @cached_property
    def estimator(self) -> np.ndarray:
        """``R⁺`` (|L| x |P|), assembled from the shared factors."""
        return pinv_from_svd(*self.factors)

    @cached_property
    def column_space_projector(self) -> np.ndarray:
        u, _, _, rank = self.factors
        return u[:, :rank] @ u[:, :rank].T

    @cached_property
    def residual_projector(self) -> np.ndarray:
        return np.eye(self._raw.shape[0]) - self.column_space_projector

    @cached_property
    def nullspace(self) -> np.ndarray:
        if self.dense_matrix.size == 0:
            return np.eye(self._raw.shape[1])
        _, _, vt, rank = self.factors
        return vt[rank:].T.copy()

    def estimate(self, y: np.ndarray) -> np.ndarray:
        return self.estimator @ y

    def estimate_many(self, ys: np.ndarray) -> np.ndarray:
        """Multi-RHS estimate: one GEMM for a whole chunk of trials."""
        return self.estimator @ ys

    def regularized_estimate_many(self, ys: np.ndarray, lam: float) -> np.ndarray:
        """Tikhonov solve ``(R^T R + lam I)^{-1} R^T y`` off the shared SVD.

        With ``R = U S V^T`` the regularized operator is
        ``V diag(s / (s^2 + lam)) U^T`` — assembled from the one cached
        factorisation, no second factorisation path (RP001).  Handles 1-D
        vectors and (|P| x k) blocks alike; ``lam -> 0`` recovers the
        pseudo-inverse (zero singular values contribute nothing either
        way).
        """
        u, s, vt, _ = self.factors
        k = s.shape[0]
        coef = s / (s * s + float(lam))
        uty = u.T @ np.asarray(ys, dtype=float)
        scaled = coef * uty if uty.ndim == 1 else coef[:, None] * uty
        return vt[:k].T @ scaled

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.dense_matrix @ x

    def predict_many(self, xs: np.ndarray) -> np.ndarray:
        return self.dense_matrix @ xs

    def residual(self, y: np.ndarray) -> np.ndarray:
        return self.column_space_projector @ y - y

    def residual_many(self, ys: np.ndarray) -> np.ndarray:
        return self.column_space_projector @ ys - ys

    def estimator_columns(self, cols: np.ndarray) -> np.ndarray:
        return _memoised_columns(
            self._column_memo, "estimator", cols, lambda c: self.estimator[:, c]
        )

    def residual_projector_columns(self, cols: np.ndarray) -> np.ndarray:
        return _memoised_columns(
            self._column_memo,
            "residual",
            cols,
            lambda c: self.residual_projector[:, c],
        )

    # -- incremental evolution (LinearSystem.evolve seam) ------------------

    def update_path(
        self, row: np.ndarray, *, state: tuple | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Factors with ``row`` appended (Brand-style rank-1 SVD update).

        ``state`` is an ``(u, s, vt)`` triple to evolve from; by default
        the backend's own cached factors.  The returned triple follows
        the same convention and can be chained through further updates.
        """
        u, s, vt = state if state is not None else self.factors[:3]
        return svd_append_row(u, s, vt, np.asarray(row, dtype=float))

    def downdate_path(
        self, index: int, *, state: tuple | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Factors with row ``index`` removed, or ``None`` (refactorize)."""
        u, s, vt = state if state is not None else self.factors[:3]
        return svd_remove_row(u, s, vt, int(index))

    def seed_evolution(self, target, remove_indices, add_rows) -> bool:
        """Install incrementally evolved factors into ``target``.

        ``target`` is the fresh backend of the evolved
        :class:`~repro.tomography.linear_system.LinearSystem`; on success
        its ``factors`` cache is pre-seeded so the cold SVD never runs.
        Returns ``False`` — leaving ``target`` untouched — whenever the
        incremental chain cannot be certified: no cached factors to
        evolve from, an uncertifiable downdate or rank decision, or a
        reconstruction/orthonormality probe outside tolerance.
        """
        if not isinstance(target, DenseBackend):
            return False
        if "factors" not in self.__dict__:
            return False
        if not remove_indices and not add_rows:
            target.factors = self.factors
            return True
        if self._raw.shape[1] == 0:
            return False
        state = self.factors[:3]
        for index in sorted(remove_indices, reverse=True):
            state = self.downdate_path(index, state=state)
            if state is None:
                return False
        for row in add_rows:
            state = self.update_path(row, state=state)
        u, s, vt = state
        rank = _certified_rank(
            s, (u.shape[0], vt.shape[1]), self._rank_tol
        )
        if rank is None or not self._certify_factors(target, u, s, vt):
            return False
        target.factors = (u, s, vt, rank)
        return True

    #: Certification threshold for evolved SVD factors.  The estimate
    #: parity contract is 1e-8, but pseudo-inverse amplification can
    #: inflate factor drift by the condition number, so the factors must
    #: be certified orders of magnitude tighter.  Healthy update chains
    #: drift ~1e-14 per epoch; degenerate downdates (a removed row nearly
    #: parallel to the retained subspace) land around 1e-9 and must fall
    #: back to a cold factorization.
    _CERT_TOL = 1e-12

    def _certify_factors(self, target, u, s, vt) -> bool:
        """Probe the evolved factors against the evolved matrix.

        Cheap checks — reconstruction ``M v = U S V^T v`` on two
        deterministic probe vectors (out-of-phase, so a drift direction
        orthogonal to one probe still excites the other), and
        orthonormality of both bases — bound the error the incremental
        chain accumulated.  Any failure routes the target to a cold
        factorization.
        """
        matrix = target.dense_matrix
        m, k = u.shape
        n = vt.shape[1]
        grid = np.arange(n, dtype=float)
        for probe in (np.cos(grid), np.sin(grid + 0.5)):
            expected = matrix @ probe
            rebuilt = u @ (s * (vt[:k] @ probe))
            scale = max(1.0, float(np.abs(expected).max()) if m else 1.0)
            if float(np.abs(rebuilt - expected).max(initial=0.0)) > self._CERT_TOL * scale:
                return False
        if k:
            w = np.cos(np.arange(k, dtype=float))
            drift = u.T @ (u @ w) - w
            if float(np.abs(drift).max()) > self._CERT_TOL * max(
                1.0, float(np.abs(w).max())
            ):
                return False
        z = np.cos(grid)
        drift = vt.T @ (vt @ z) - z
        if float(np.abs(drift).max(initial=0.0)) > self._CERT_TOL * max(
            1.0, float(np.abs(z).max(initial=0.0))
        ):
            return False
        return True


class SparseBackend:
    """Matrix-free sparse kernel: CSR storage, direct small-side Gram solves.

    Estimates and residuals never materialise ``R⁺`` or the dense
    projectors.  One factorisation of the ``k x k`` small-side Gram
    (``k = min(m, n)``) serves rank and solve alike: a certified
    Cholesky at full small-side rank, else the Gram eigendecomposition
    whose spectrum certifies the rank.  Only a spectrum too ambiguous to
    certify routes rank and solves to the dense twin.  Quantities that
    are irreducibly dense (the full estimator matrix, the projectors, a
    nullspace basis, singular values) also come from a lazily
    constructed :class:`DenseBackend` over the same matrix, so
    requesting them is always *correct* — merely not matrix-free — and
    parity with the dense backend is exact for them.  Like the dense
    backend it holds ``raw`` and ``rank_tol``, never its owning system.
    """

    name = "sparse"

    def __init__(self, raw, rank_tol: float) -> None:
        self._raw = raw
        self._rank_tol = float(rank_tol)
        self._column_memo: dict[tuple, np.ndarray] = {}
        self._regularized_factors: dict[float, tuple] = {}

    # -- storage ----------------------------------------------------------

    @cached_property
    def matrix(self) -> scipy.sparse.csr_matrix:
        """``R`` in CSR form (built once from whichever form ``raw`` has)."""
        raw = self._raw
        if scipy.sparse.issparse(raw):
            return scipy.sparse.csr_matrix(raw, dtype=float)
        return scipy.sparse.csr_matrix(np.asarray(raw, dtype=float))

    @cached_property
    def matrix_t(self) -> scipy.sparse.csr_matrix:
        """``R^T`` in CSR form (cached — transposition is not free at scale)."""
        return self.matrix.T.tocsr()

    @cached_property
    def _dense_fallback(self) -> DenseBackend:
        """Dense twin used for irreducibly dense quantities."""
        return DenseBackend(self._raw, self._rank_tol)

    @property
    def dense_matrix(self) -> np.ndarray:
        """``R`` densified once, shared with the dense twin."""
        return self._dense_fallback.dense_matrix

    # -- small-side Gram factorisation ------------------------------------

    @cached_property
    def _gram(self) -> np.ndarray:
        """The smaller-side Gram matrix, densified (k x k, k = min(m, n))."""
        m, n = self.matrix.shape
        if m >= n:
            gram = self.matrix_t @ self.matrix
        else:
            gram = self.matrix @ self.matrix_t
        return np.asarray(gram.todense(), dtype=float)

    @cached_property
    def _cholesky(self) -> tuple | None:
        """Certified Cholesky factor of the Gram, or None when deficient.

        The certificate is a verification solve: reconstruct a known
        vector through the factorisation and require the round trip to be
        accurate.  A near-singular Gram that Cholesky happens to survive
        fails the round trip and is treated as rank-deficient, routing
        estimates through the spectral solve instead of an unstable
        direct one.
        """
        gram = self._gram
        k = gram.shape[0]
        if k == 0:
            return None
        obs.counter("gram_cholesky")
        try:
            factor = scipy.linalg.cho_factor(gram, check_finite=False)
        except scipy.linalg.LinAlgError:
            return None
        diag = np.abs(np.diagonal(factor[0]))
        if diag.min() <= 1e-12 * max(diag.max(), 1.0):
            return None
        probe = np.cos(np.arange(k, dtype=float))
        rhs = gram @ probe
        back = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
        scale = float(np.abs(probe).max()) or 1.0
        if float(np.abs(back - probe).max()) > 1e-8 * scale:
            return None
        # Stored as a CLEAN, Fortran-ordered upper triangle: cho_factor
        # leaves garbage in the unused half, the rank-1 update kernels
        # require (and preserve) the clean form, and keeping the LAPACK
        # memory order lets every later cho_solve run copy-free.
        return (np.asfortranarray(np.triu(factor[0])), False)

    @cached_property
    def _spectral(self) -> tuple | None:
        """Certified pseudo-inverse factors of a deficient Gram, or None.

        Returns ``(basis, inverse, rank_gap)``: the ``r`` leading Gram
        eigenvectors (k x r), the reciprocals of their eigenvalues, and
        ``s_r / s_{r+1}`` (``None`` when ``r`` is 0 or ``k``), where
        ``r`` is the rank certified by :func:`_certified_rank` on the
        singular values ``s = sqrt(max(eig, 0))``.  The pseudo-inverse
        is ``G⁺ = basis diag(inverse) basis^T``.  ``None`` means the
        spectrum is too ambiguous to certify; rank and solves then fall
        back to the dense factors.  Consulted only when the Cholesky
        fails, i.e. when ``R`` has redundancy on its small side.
        """
        m, n = self.matrix.shape
        k = min(m, n)
        if self.matrix.nnz == 0:
            return (np.zeros((k, 0)), np.zeros(0), None)
        obs.counter("gram_eigh")
        # The divide-and-conquer driver returns the same eigenpairs as
        # the default MRRR one, measurably faster at routing-matrix sizes.
        lam, vecs = scipy.linalg.eigh(self._gram, driver="evd", check_finite=False)
        s = np.sqrt(np.clip(lam[::-1], 0.0, None))
        rank = _certified_rank(s, (m, n), self._rank_tol)
        if rank is None:
            return None
        rank_gap = None
        if 0 < rank < k:
            rank_gap = float(s[rank - 1] / s[rank]) if s[rank] > 0.0 else float("inf")
        basis = np.ascontiguousarray(vecs[:, k - rank :])
        return (basis, 1.0 / lam[k - rank :], rank_gap)

    # -- rank -------------------------------------------------------------

    @cached_property
    def _rank(self) -> int:
        """Numerical rank under the shared cutoff, without a dense SVD.

        Full small-side rank is certified by the Gram Cholesky.  When the
        Gram is deficient, the rank is read off its eigenvalue spectrum
        (:attr:`_spectral`), but only when every eigenvalue sits far from
        the decision threshold (a factor-4 spectral gap both ways);
        ambiguous spectra — where squaring the condition number could
        miscount — fall back to the exact dense factorisation.  Routing
        matrices have integer spectra whose zero singular values are
        exact, so the fallback is rare in practice.
        """
        m, n = self.matrix.shape
        k = min(m, n)
        if k == 0 or self.matrix.nnz == 0:
            return 0
        if self._cholesky is not None:
            return k
        if self._spectral is not None:
            return self._spectral[0].shape[1]
        return self._dense_fallback.rank

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def singular_values(self) -> np.ndarray:
        """Exact singular values require the dense factors (documented cost)."""
        return self._dense_fallback.singular_values

    def numerical_health(self) -> dict:
        """Which solve serves this system, plus the spectral rank margin.

        ``solve`` is ``"cholesky"``, ``"spectral"`` or ``"dense"`` (the
        uncertified-spectrum fallback); the spectral path also reports
        ``rank_gap``, the ratio of the smallest kept to the largest
        dropped singular value.
        """
        if self._cholesky is not None:
            return {"solve": "cholesky"}
        if self._spectral is None:
            return {"solve": "dense"}
        return {"solve": "spectral", "rank_gap": self._spectral[2]}

    # -- solves -----------------------------------------------------------

    def _cholesky_inverse(self, rhs: np.ndarray) -> np.ndarray:
        """``G^{-1} rhs`` through the certified Cholesky factor."""
        return scipy.linalg.cho_solve(self._cholesky, rhs, check_finite=False)

    def _spectral_inverse(self, rhs: np.ndarray) -> np.ndarray:
        """``G⁺ rhs = V_r Λ_r⁻¹ V_r^T rhs`` — two GEMMs, any block width."""
        basis, inverse, _ = self._spectral
        coef = basis.T @ rhs
        coef *= inverse if coef.ndim == 1 else inverse[:, None]
        return basis @ coef

    def _solve_gram_tall(self, ys: np.ndarray, inverse) -> np.ndarray:
        """Tall: ``x = G⁺ R^T y`` with ``G = R^T R``, refined.

        ``inverse`` applies ``G^{-1}`` (Cholesky) or ``G⁺`` (spectral);
        ``R^T y`` lies in the range of ``G`` either way, so the
        normal-equation residual vanishes at the min-norm solution.
        Refinement residuals use two sparse matvecs instead of a dense
        Gram GEMV — same arithmetic, but ``O(nnz)`` instead of ``O(k^2)``
        traffic — and stop early once the residual hits roundoff.
        """
        aty = self.matrix_t @ ys
        scale = max(1.0, float(np.abs(aty).max(initial=0.0)))
        x = inverse(aty)
        for _ in range(_REFINE_STEPS):
            residual = aty - self.matrix_t @ (self.matrix @ x)
            if float(np.abs(residual).max(initial=0.0)) <= _REFINE_ATOL * scale:
                break
            x = x + inverse(residual)
        return x

    def _solve_gram_wide(self, ys: np.ndarray) -> np.ndarray:
        """Full row rank: min-norm ``x = R^T (R R^T)^{-1} y`` with refinement."""
        scale = max(1.0, float(np.abs(ys).max(initial=0.0)))
        z = self._cholesky_inverse(ys)
        for _ in range(_REFINE_STEPS):
            residual = ys - self.matrix @ (self.matrix_t @ z)
            if float(np.abs(residual).max(initial=0.0)) <= _REFINE_ATOL * scale:
                break
            z = z + self._cholesky_inverse(residual)
        return self.matrix_t @ z

    def _solve_spectral_wide(self, ys: np.ndarray) -> np.ndarray:
        """Deficient wide: min-norm ``x = R^T G⁺ y`` with ``G = R R^T``.

        ``y`` need not lie in the column space of ``R``, so ``y - R x``
        does not vanish at the solution; progress is measured on the
        normal-equation residual ``R^T (y - R x)``, which does.  Each
        correction re-applies the estimator to the raw residual —
        ``G⁺`` drops its out-of-range part.
        """
        aty = self.matrix_t @ ys
        scale = max(1.0, float(np.abs(aty).max(initial=0.0)))
        x = self.matrix_t @ self._spectral_inverse(ys)
        for _ in range(_REFINE_STEPS):
            residual = ys - self.matrix @ x
            normal = self.matrix_t @ residual
            if float(np.abs(normal).max(initial=0.0)) <= _REFINE_ATOL * scale:
                break
            x = x + self.matrix_t @ self._spectral_inverse(residual)
        return x

    def _solve(self, ys: np.ndarray) -> np.ndarray:
        """``R⁺ ys`` for a vector or a block, on the certified path."""
        m, n = self.matrix.shape
        if self._cholesky is not None:
            if m >= n:
                return self._solve_gram_tall(ys, self._cholesky_inverse)
            return self._solve_gram_wide(ys)
        if self._spectral is None:
            obs.counter("sparse_dense_fallback")
            return self._dense_fallback.estimate_many(ys)
        if m >= n:
            return self._solve_gram_tall(ys, self._spectral_inverse)
        return self._solve_spectral_wide(ys)

    def estimate(self, y: np.ndarray) -> np.ndarray:
        obs.counter("sparse_solve")
        return self._solve(np.asarray(y, dtype=float))

    def estimate_many(self, ys: np.ndarray) -> np.ndarray:
        """Multi-RHS estimate: one blocked Gram solve per chunk.

        The Cholesky and spectral solves both take the whole block in
        LAPACK/BLAS multi-RHS calls, rank-deficient systems included.
        """
        block = np.asarray(ys, dtype=float)
        obs.counter("sparse_solve")
        if block.ndim == 2 and block.shape[1] == 0:
            return np.zeros((self.matrix.shape[1], 0))
        return self._solve(block)

    def _regularized_cholesky(self, lam: float) -> tuple:
        """``(G + lam I, its Cholesky)`` for the small-side Gram (memoised).

        ``lam > 0`` makes the shifted Gram positive definite whatever the
        rank of ``R``, so this factorisation always succeeds — no
        spectral fallback needed on the regularized path.  One estimator
        instance solves many right-hand sides with a fixed ``lam``, hence
        the per-``lam`` memo; the shifted Gram is kept with its factor
        because every refinement step multiplies by it.
        """
        entry = self._regularized_factors.get(float(lam))
        if entry is None:
            obs.counter("gram_cholesky")
            shifted = self._gram + float(lam) * np.eye(self._gram.shape[0])
            factor = scipy.linalg.cho_factor(shifted, check_finite=False)
            entry = (shifted, factor)
            self._regularized_factors[float(lam)] = entry
        return entry

    def regularized_estimate_many(self, ys: np.ndarray, lam: float) -> np.ndarray:
        """Tikhonov solve via the small-side Gram, matrix-free either way.

        Tall systems solve ``(R^T R + lam I) x = R^T y`` directly; wide
        systems use the push-through identity
        ``(R^T R + lam I)^{-1} R^T = R^T (R R^T + lam I)^{-1}`` so the
        smaller Gram serves both orientations.  Iterative refinement
        recovers direct-solve accuracy, matching the dense SVD path to
        well below the library parity tolerance.
        """
        block = np.asarray(ys, dtype=float)
        obs.counter("sparse_solve")
        shifted, factor = self._regularized_cholesky(lam)
        m, n = self.matrix.shape
        if m >= n:
            rhs = self.matrix_t @ block
            x = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
            for _ in range(_REFINE_STEPS):
                residual = rhs - shifted @ x
                x = x + scipy.linalg.cho_solve(factor, residual, check_finite=False)
            return x
        z = scipy.linalg.cho_solve(factor, block, check_finite=False)
        for _ in range(_REFINE_STEPS):
            residual = block - shifted @ z
            z = z + scipy.linalg.cho_solve(factor, residual, check_finite=False)
        return self.matrix_t @ z

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def predict_many(self, xs: np.ndarray) -> np.ndarray:
        return self.matrix @ xs

    def residual(self, y: np.ndarray) -> np.ndarray:
        """``R x_hat - y`` via sparse matvecs — no dense projector."""
        y = np.asarray(y, dtype=float)
        return self.matrix @ self.estimate(y) - y

    def residual_many(self, ys: np.ndarray) -> np.ndarray:
        ys = np.asarray(ys, dtype=float)
        return self.matrix @ self.estimate_many(ys) - ys

    def estimator_columns(self, cols: np.ndarray) -> np.ndarray:
        """Selected columns of ``R⁺`` via batched unit-vector solves.

        ``R⁺[:, j] = R⁺ e_j``, so the requested columns are one
        :meth:`estimate_many` over the corresponding identity columns —
        the full dense pseudo-inverse is never formed.  Memoised per
        column set: repeat requests (shared solvers, warm engines) reuse
        the solved block.
        """
        return _memoised_columns(
            self._column_memo, "estimator", cols, self._estimator_columns_uncached
        )

    def _estimator_columns_uncached(self, cols: np.ndarray) -> np.ndarray:
        m, n = self.matrix.shape
        if cols.size == 0:
            return np.zeros((n, 0))
        unit = np.zeros((m, cols.size))
        unit[cols, np.arange(cols.size)] = 1.0
        return self.estimate_many(unit)

    def residual_projector_columns(self, cols: np.ndarray) -> np.ndarray:
        """Selected columns of ``I - R R⁺`` without the dense projector."""
        return _memoised_columns(
            self._column_memo, "residual", cols, self._residual_columns_uncached
        )

    def _residual_columns_uncached(self, cols: np.ndarray) -> np.ndarray:
        m = self.matrix.shape[0]
        if cols.size == 0:
            return np.zeros((m, 0))
        unit = np.zeros((m, cols.size))
        unit[cols, np.arange(cols.size)] = 1.0
        return unit - (self.matrix @ self.estimate_many(unit))

    # -- incremental evolution (LinearSystem.evolve seam) ------------------

    def _evolution_state(self) -> tuple | None:
        """``(matrix, chol)`` snapshot to evolve from, or ``None``.

        Only the certified-Cholesky regime evolves incrementally: the
        rank-deficient (spectral) regime would need a patched
        eigendecomposition with its own certificate, so it refactorizes
        cold, and a system that was never solved has nothing worth
        carrying over.
        The dense Gram is deliberately NOT part of the evolving state —
        every consumer (refinement, certification) works from sparse
        matvecs, so carrying the ``k x k`` Gram forward would only add a
        full-matrix copy per epoch.
        """
        if "_cholesky" not in self.__dict__:
            return None
        if self._cholesky is None:
            return None
        return (self.matrix, self._cholesky[0])

    def update_path(self, row: np.ndarray, *, state: tuple) -> tuple | None:
        """State with ``row`` appended: Cholesky patched in O(k^2).

        Tall systems rank-1-update the ``R^T R`` factor; wide systems
        border the ``R R^T`` factor by one dimension.  Returns ``None``
        when the append would flip the small side (wide -> tall) or the
        bordered factor is not safely positive.
        """
        matrix, chol = state
        m, n = matrix.shape
        row = np.asarray(row, dtype=float)
        new_matrix = scipy.sparse.vstack(
            [matrix, scipy.sparse.csr_matrix(row)], format="csr"
        )
        if m >= n:
            new_chol = cholesky_update(chol, row)
        else:
            if m + 1 >= n:
                return None
            b = matrix @ row
            d = float(row @ row)
            new_chol = cholesky_append(chol, b, d)
            if new_chol is None:
                return None
        return (new_matrix, new_chol)

    def downdate_path(self, index: int, *, state: tuple) -> tuple | None:
        """State with row ``index`` removed, or ``None`` (refactorize).

        Tall systems hyperbolically downdate the ``R^T R`` factor (which
        can fail when the removal exhausts a pivot); wide systems delete
        one dimension of the ``R R^T`` factor (always stable).
        """
        matrix, chol = state
        m, n = matrix.shape
        index = int(index)
        keep = np.ones(m, dtype=bool)
        keep[index] = False
        new_matrix = matrix[keep]
        if m >= n:
            if m - 1 < n:
                return None
            row = np.asarray(matrix[index].todense()).ravel()
            new_chol = cholesky_downdate(chol, row)
            if new_chol is None:
                return None
        else:
            new_chol = cholesky_delete(chol, index)
        return (new_matrix, new_chol)

    def replace_path(self, index: int, row: np.ndarray, *, state: tuple) -> tuple | None:
        """State with row ``index`` swapped for ``row`` — fused, or ``None``.

        The dominant churn pattern (one path fails, one recovers) would
        naively copy the full Cholesky factor twice; on memory-bound
        hosts those copies dwarf the O(k^2) arithmetic.  In the wide
        regime this fuses the delete and the border into one
        single-allocation pass (:func:`cholesky_replace`).  The tall
        regime is already rank-1, so it simply chains the downdate and
        update.
        """
        matrix, chol = state
        m, n = matrix.shape
        if m >= n:
            shrunk = self.downdate_path(index, state=state)
            if shrunk is None:
                return None
            return self.update_path(row, state=shrunk)
        index = int(index)
        row = np.asarray(row, dtype=float)
        keep = np.ones(m, dtype=bool)
        keep[index] = False
        kept = matrix[keep]
        new_matrix = scipy.sparse.vstack(
            [kept, scipy.sparse.csr_matrix(row)], format="csr"
        )
        b = kept @ row
        d = float(row @ row)
        new_chol = cholesky_replace(chol, index, b, d)
        if new_chol is None:
            return None
        return (new_matrix, new_chol)

    def seed_evolution(self, target, remove_indices, add_rows) -> bool:
        """Install an incrementally patched Cholesky into ``target``.

        On success the target backend's ``matrix``/``_cholesky`` caches
        are pre-seeded (full small-side rank, certified below), so its
        first estimate pays no ``cho_factor``.  Returns ``False`` for a
        cold rebuild whenever the chain leaves the certified regime: no
        factor to evolve from, a failed downdate, a small-side
        orientation flip, or a final round-trip probe out of tolerance.
        """
        if not isinstance(target, SparseBackend):
            return False
        state = self._evolution_state()
        if state is None:
            return False
        if not remove_indices and not add_rows:
            matrix, chol = state
            self._seed_target(target, matrix, chol)
            return True
        removals = sorted(remove_indices, reverse=True)
        additions = list(add_rows)
        if len(removals) == 1 and len(additions) == 1:
            state = self.replace_path(removals[0], additions[0], state=state)
            if state is None:
                return False
            removals, additions = [], []
        for index in removals:
            state = self.downdate_path(index, state=state)
            if state is None:
                return False
        for row in additions:
            state = self.update_path(row, state=state)
            if state is None:
                return False
        matrix, chol = state
        if not self._certify_state(matrix, chol):
            return False
        self._seed_target(target, matrix, chol)
        return True

    @staticmethod
    def _certify_state(matrix, chol) -> bool:
        """Probe the patched factor against the evolved matrix itself.

        The round trip ``chol^{-T} chol^{-1} (G p)`` — with ``G p``
        computed from two sparse matvecs against the TRUE evolved matrix,
        not any incrementally maintained copy — bounds the accumulated
        drift of the whole update chain in one shot; the pivot floor
        rejects factors that survived the chain numerically but are too
        ill-conditioned to solve with.
        """
        m, n = matrix.shape
        k = chol.shape[0]
        if k == 0 or min(m, n) != k:
            return False
        diag = np.abs(np.diagonal(chol))
        if diag.min() <= 1e-12 * max(diag.max(), 1.0):
            return False
        p = np.cos(np.arange(k, dtype=float))
        if m >= n:
            rhs = matrix.T @ (matrix @ p)
        else:
            rhs = matrix @ (matrix.T @ p)
        back = scipy.linalg.cho_solve((chol, False), rhs, check_finite=False)
        if float(np.abs(back - p).max()) > 1e-8 * max(1.0, float(np.abs(p).max())):
            return False
        return True

    @staticmethod
    def _seed_target(target, matrix, chol) -> None:
        """Pre-seed the target backend's caches with the evolved state."""
        target.matrix = matrix
        target.matrix_t = matrix.T.tocsr()
        target._cholesky = (chol, False)
        target._rank = min(matrix.shape)

    # -- irreducibly dense operators (exact dense fallback) ---------------

    @property
    def factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        return self._dense_fallback.factors

    @property
    def estimator(self) -> np.ndarray:
        return self._dense_fallback.estimator

    @property
    def column_space_projector(self) -> np.ndarray:
        return self._dense_fallback.column_space_projector

    @property
    def residual_projector(self) -> np.ndarray:
        return self._dense_fallback.residual_projector

    @property
    def nullspace(self) -> np.ndarray:
        return self._dense_fallback.nullspace
