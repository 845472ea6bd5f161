"""Dense/sparse backend parity and dispatch.

The sparse backend must be numerically interchangeable with the dense
SVD kernel: same estimates, residuals, rank, and nullspace span, to a
per-component tolerance of 1e-8, over random path-like 0/1 matrices —
including rank-deficient ones, where the min-norm solution is the
contract.  Dispatch (argument > environment > heuristic) is pinned down
separately.
"""

import numpy as np
import pytest
import scipy.sparse
import scipy.stats
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.tomography.backends import (
    AUTO_DENSITY_THRESHOLD,
    AUTO_SIZE_THRESHOLD,
    BACKEND_ENV_VAR,
    resolve_backend_name,
)
from repro.tomography.linear_system import LinearSystem

PARITY_TOL = 1e-8


def _incidence(num_paths: int, num_links: int, hops: int, seed: int) -> np.ndarray:
    """Random 0/1 path-link incidence matrix with ``hops`` ones per row."""
    rng = np.random.default_rng(seed)
    matrix = np.zeros((num_paths, num_links))
    for i in range(num_paths):
        cols = rng.choice(num_links, size=min(hops, num_links), replace=False)
        matrix[i, cols] = 1.0
    return matrix


def _pair(matrix: np.ndarray) -> tuple[LinearSystem, LinearSystem]:
    return (
        LinearSystem(matrix, backend="dense"),
        LinearSystem(matrix, backend="sparse"),
    )


class TestParity:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_paths=st.integers(2, 14),
        num_links=st.integers(2, 18),
        hops=st.integers(1, 6),
        seed=st.integers(0, 10_000),
    )
    def test_estimate_residual_rank_parity(self, num_paths, num_links, hops, seed):
        matrix = _incidence(num_paths, num_links, hops, seed)
        dense, sparse = _pair(matrix)
        rng = np.random.default_rng(seed + 1)
        observed = rng.uniform(0.0, 100.0, size=num_paths)

        assert dense.rank == sparse.rank
        np.testing.assert_allclose(
            dense.estimate(observed), sparse.estimate(observed), atol=PARITY_TOL
        )
        np.testing.assert_allclose(
            dense.residual(observed), sparse.residual(observed), atol=PARITY_TOL
        )
        assert sparse.residual_l1(observed) == pytest.approx(
            dense.residual_l1(observed), abs=PARITY_TOL * num_paths
        )

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_paths=st.integers(2, 12),
        num_links=st.integers(2, 14),
        hops=st.integers(1, 5),
        seed=st.integers(0, 10_000),
        width=st.integers(1, 6),
    )
    def test_estimate_many_matches_per_column(self, num_paths, num_links, hops, seed, width):
        matrix = _incidence(num_paths, num_links, hops, seed)
        dense, sparse = _pair(matrix)
        rng = np.random.default_rng(seed + 2)
        block = rng.uniform(0.0, 100.0, size=(num_paths, width))

        dense_block = dense.estimate_many(block)
        sparse_block = sparse.estimate_many(block)
        np.testing.assert_allclose(dense_block, sparse_block, atol=PARITY_TOL)
        for j in range(width):
            np.testing.assert_allclose(
                sparse_block[:, j], dense.estimate(block[:, j]), atol=PARITY_TOL
            )

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_paths=st.integers(2, 12),
        num_links=st.integers(2, 14),
        hops=st.integers(1, 5),
        seed=st.integers(0, 10_000),
    )
    def test_nullspace_span_and_operator_parity(self, num_paths, num_links, hops, seed):
        matrix = _incidence(num_paths, num_links, hops, seed)
        dense, sparse = _pair(matrix)

        np.testing.assert_allclose(dense.estimator, sparse.estimator, atol=PARITY_TOL)
        nd, ns = dense.nullspace, sparse.nullspace
        assert nd.shape == ns.shape
        # Same span: each sparse-backend nullspace column must be killed by
        # R and reproduced by projection onto the dense basis.
        np.testing.assert_allclose(matrix @ ns, 0.0, atol=PARITY_TOL)
        if nd.shape[1]:
            np.testing.assert_allclose(nd @ (nd.T @ ns), ns, atol=PARITY_TOL)

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_paths=st.integers(2, 10),
        num_links=st.integers(2, 12),
        hops=st.integers(1, 4),
        seed=st.integers(0, 10_000),
    )
    def test_column_slices_match_full_operators(self, num_paths, num_links, hops, seed):
        matrix = _incidence(num_paths, num_links, hops, seed)
        dense, sparse = _pair(matrix)
        rng = np.random.default_rng(seed + 3)
        # Both operators (R⁺ and I - R R⁺) have columns indexed by path.
        path_cols = np.unique(rng.integers(0, num_paths, size=min(4, num_paths)))

        np.testing.assert_allclose(
            sparse.estimator_columns(path_cols),
            dense.estimator[:, path_cols],
            atol=PARITY_TOL,
        )
        np.testing.assert_allclose(
            sparse.residual_projector_columns(path_cols),
            dense.residual_projector[:, path_cols],
            atol=PARITY_TOL,
        )


def _redundant_wide(seed: int = 3) -> np.ndarray:
    """Wide ``R`` with duplicated and summed rows (``max_per_pair=2`` shape).

    Two paths per pair over a shared backbone make rows repeat, and a
    path spliced from two link-disjoint paths is the sum of their rows,
    so ``rank < |P| < |L|``: the regime where the eq. 23 check can fire.
    """
    base = _incidence(18, 60, 3, seed)
    extra = [base[i] for i in range(4)]
    for i in range(base.shape[0]):
        for j in range(i + 1, base.shape[0]):
            if not np.any(base[i] * base[j]) and len(extra) < 10:
                extra.append(base[i] + base[j])
    return np.vstack([base, np.asarray(extra)])


def _deficient_tall(seed: int = 5) -> np.ndarray:
    """Tall ``R`` whose columns repeat: links that always co-occur."""
    matrix = _incidence(40, 16, 4, seed)
    matrix[:, 15] = matrix[:, 14]
    matrix[:, 13] = matrix[:, 12]
    return matrix


class TestDeficientRegime:
    """Rank-deficient sparse systems: the spectral solve matches ``R⁺``."""

    @pytest.mark.parametrize("build", [_redundant_wide, _deficient_tall])
    def test_spectral_solve_matches_dense(self, build):
        matrix = build()
        dense, sparse = _pair(matrix)
        assert sparse.rank == dense.rank < min(matrix.shape)
        assert sparse._backend.numerical_health()["solve"] == "spectral"
        rng = np.random.default_rng(17)
        observed = rng.uniform(0.0, 100.0, size=matrix.shape[0])
        block = rng.uniform(0.0, 100.0, size=(matrix.shape[0], 5))
        cols = np.array([0, 2, matrix.shape[0] - 1])

        np.testing.assert_allclose(
            sparse.estimate(observed), dense.estimate(observed), atol=PARITY_TOL
        )
        np.testing.assert_allclose(
            sparse.estimate_many(block), dense.estimate_many(block), atol=PARITY_TOL
        )
        np.testing.assert_allclose(
            sparse.residual(observed), dense.residual(observed), atol=PARITY_TOL
        )
        np.testing.assert_allclose(
            sparse.estimator_columns(cols), dense.estimator[:, cols], atol=PARITY_TOL
        )
        np.testing.assert_allclose(
            sparse.residual_projector_columns(cols),
            dense.residual_projector[:, cols],
            atol=PARITY_TOL,
        )

    def test_ambiguous_spectrum_goes_through_dense_fallback(self, tmp_path):
        from repro.obs import core as obs

        # One singular value inside the factor-4 band around the Gram
        # noise floor (~3e-6 s_max at this size): too close to call from
        # the squared spectrum, so rank and solves use the dense factors.
        rng = np.random.default_rng(23)
        u = scipy.stats.ortho_group.rvs(8, random_state=rng)
        v = scipy.stats.ortho_group.rvs(20, random_state=rng)
        s = np.array([1.0, 0.8, 0.5, 3e-6, 0.0, 0.0, 0.0, 0.0])
        matrix = (u * s) @ v[:8]
        dense, sparse = _pair(matrix)
        observed = rng.uniform(0.0, 1.0, size=8)
        with obs.enabled(tmp_path / "run.jsonl") as log:
            assert sparse.rank == dense.rank == 4
            estimate = sparse.estimate(observed)
        assert sparse._backend.numerical_health() == {"solve": "dense"}
        assert log.counters["sparse_dense_fallback"] == 1
        np.testing.assert_allclose(estimate, dense.estimate(observed), atol=PARITY_TOL)
        np.testing.assert_allclose(
            sparse.residual(observed), dense.residual(observed), atol=PARITY_TOL
        )


class TestDispatch:
    def test_explicit_argument_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "sparse")
        system = LinearSystem(np.eye(3), backend="dense")
        assert system.backend_name == "dense"

    def test_environment_overrides_heuristic(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "sparse")
        assert LinearSystem(np.eye(3)).backend_name == "sparse"
        monkeypatch.setenv(BACKEND_ENV_VAR, "dense")
        assert LinearSystem(np.eye(3)).backend_name == "dense"

    def test_auto_picks_dense_for_small_matrices(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert LinearSystem(np.eye(4)).backend_name == "dense"

    def test_auto_picks_sparse_for_large_sparse_matrices(self):
        side = int(np.sqrt(AUTO_SIZE_THRESHOLD))
        assert resolve_backend_name(
            "auto", shape=(side, side), density=AUTO_DENSITY_THRESHOLD / 10
        ) == "sparse"
        # Large but dense stays on the SVD path.
        assert resolve_backend_name(
            "auto", shape=(side, side), density=0.9
        ) == "dense"

    def test_sparse_input_defaults_to_sparse_backend(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        matrix = scipy.sparse.eye(5, format="csr")
        system = LinearSystem(matrix)
        assert system.backend_name == "sparse"
        np.testing.assert_allclose(system.estimate(np.ones(5)), np.ones(5))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError):
            LinearSystem(np.eye(3), backend="cursed")
        with pytest.raises(ValidationError):
            resolve_backend_name("cursed", shape=(3, 3), density=1.0)


class TestSparseEndToEnd:
    def test_fig1_attack_damage_matches_dense(self, monkeypatch):
        """The full chosen-victim pipeline agrees across backends."""
        from repro.attacks.chosen_victim import ChosenVictimAttack
        from repro.scenarios.simple_network import paper_fig1_scenario

        outcomes = {}
        for name in ("dense", "sparse"):
            monkeypatch.setenv(BACKEND_ENV_VAR, name)
            scenario = paper_fig1_scenario()
            context = scenario.attack_context(["B", "C"])
            assert context.system.backend_name == name
            outcomes[name] = ChosenVictimAttack(context, [9]).run()
        assert outcomes["dense"].feasible and outcomes["sparse"].feasible
        assert outcomes["sparse"].damage == pytest.approx(
            outcomes["dense"].damage, abs=1e-6
        )
        np.testing.assert_allclose(
            outcomes["sparse"].predicted_estimate,
            outcomes["dense"].predicted_estimate,
            atol=1e-6,
        )

    def test_detector_batch_matches_single_checks_on_sparse(self, monkeypatch):
        from repro.detection.consistency import ConsistencyDetector
        from repro.scenarios.simple_network import paper_fig1_scenario

        monkeypatch.setenv(BACKEND_ENV_VAR, "sparse")
        scenario = paper_fig1_scenario()
        detector = ConsistencyDetector(scenario.path_set.routing_matrix(), alpha=50.0)
        rng = np.random.default_rng(7)
        honest = scenario.honest_measurements()
        block = honest[:, None] + rng.normal(0.0, 30.0, size=(honest.size, 5))
        batched = detector.check_batch(block)
        for j, result in enumerate(batched):
            single = detector.check(block[:, j])
            assert result.detected == single.detected
            assert result.residual_l1 == pytest.approx(single.residual_l1, abs=1e-9)
