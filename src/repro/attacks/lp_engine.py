"""Persistent warm-started HiGHS engine for the manipulation LP.

The LP solve dominates the attack pipelines: a max-damage scan pays one
full :func:`scipy.optimize.linprog` call — with its own presolve, scaling
and cold simplex start — per candidate victim, even though consecutive
candidates differ by a *single link's band*.
This module keeps one HiGHS model alive across the whole scan instead:

- :func:`highs_bindings` locates the HiGHS pybind11 API, preferring the
  standalone ``highspy`` package and falling back to the identical module
  modern scipy vendors (``scipy.optimize._highspy._core``).  When neither
  exists the engine reports itself unavailable and every caller falls
  back to today's ``linprog`` path unchanged.
- :class:`PersistentLpSolver` builds the model once — one *two-sided* row
  per link (``q_j·m ∈ [lower_j - x_j, upper_j - x_j]``, infinities for
  absent bounds), the stealth equality block pinned to ``[0, 0]`` — and
  then serves each candidate by editing only the overridden links' row
  bounds.  The simplex basis from the previous candidate is reused, so a
  typical re-solve takes a handful of iterations instead of a cold start.
- :func:`resolve_engine_name` mirrors the backend dispatch convention
  (explicit argument > ``REPRO_LP_ENGINE`` environment variable >
  bit-compatible default): the default is ``"scipy"`` — byte-identical to
  the historical path — and ``"highs"``/``"auto"`` opt into warm starts.
- :func:`prune_capacities` is the Constraint-1 presolve arithmetic: the
  row-wise positive/negative coefficient mass of the support-restricted
  estimator bounds what any feasible manipulation can do to a link's
  estimate, so provably hopeless candidates are rejected with two
  comparisons before any model (or even constraint block) is touched.

The module deliberately knows nothing about :class:`~repro.attacks.lp`
solution types: it consumes arrays and returns a raw
:class:`PersistentSolveResult`; the LP layer owns the semantics
(unbounded re-solve caps, damage-is-L1 reporting, support embedding).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping

import numpy as np
import scipy.sparse

from repro import config
from repro.exceptions import ValidationError
from repro.obs import core as obs

__all__ = [
    "ENGINE_ENV_VAR",
    "HighsBindings",
    "PersistentLpSolver",
    "PersistentSolveResult",
    "highs_bindings",
    "prune_capacities",
    "resolve_engine_name",
]

#: Environment variable selecting the LP engine (``scipy``/``highs``/``auto``).
ENGINE_ENV_VAR = "REPRO_LP_ENGINE"

_ENGINE_NAMES = ("scipy", "highs", "auto")

#: Memoised bindings probe result (``None`` = not probed yet, ``False`` =
#: probed and absent, otherwise the :class:`HighsBindings`).
_BINDINGS: "HighsBindings | bool | None" = None


@dataclass(frozen=True)
class HighsBindings:
    """The subset of the HiGHS pybind11 API the persistent solver uses.

    Both providers expose the same pybind classes; only the top-level
    names differ (``highspy.Highs`` vs the vendored ``_core._Highs``).
    """

    source: str
    Highs: type
    HighsLp: type
    MatrixFormat: type
    HighsModelStatus: type
    infinity: float


def _probe_bindings() -> "HighsBindings | None":
    """Locate a HiGHS pybind module, or None when no provider imports."""
    try:
        import highspy  # type: ignore[import-not-found]

        return HighsBindings(
            source="highspy",
            Highs=highspy.Highs,
            HighsLp=highspy.HighsLp,
            MatrixFormat=highspy.MatrixFormat,
            HighsModelStatus=highspy.HighsModelStatus,
            infinity=float(highspy.kHighsInf),
        )
    except ImportError:
        pass
    try:
        from scipy.optimize._highspy import _core  # noqa: PLC2701

        return HighsBindings(
            source="scipy-vendored",
            Highs=_core._Highs,
            HighsLp=_core.HighsLp,
            MatrixFormat=_core.MatrixFormat,
            HighsModelStatus=_core.HighsModelStatus,
            infinity=float(_core.kHighsInf),
        )
    except ImportError:
        return None


def highs_bindings(*, refresh: bool = False) -> "HighsBindings | None":
    """The available HiGHS bindings (memoised), or None.

    Prefers the standalone ``highspy`` distribution; falls back to the
    pybind module scipy >= 1.15 vendors for its own ``linprog`` backend.
    ``refresh=True`` re-probes (tests use it to simulate absence).
    """
    global _BINDINGS  # repro: worker-state-ok (idempotent per-process probe memo)
    if refresh or _BINDINGS is None:
        found = _probe_bindings()
        _BINDINGS = found if found is not None else False
    return _BINDINGS if isinstance(_BINDINGS, HighsBindings) else None


def resolve_engine_name(requested: str | None = None) -> str:
    """Resolve ``scipy``/``highs`` from request, environment and probe.

    Precedence: explicit ``requested`` argument, then the
    ``REPRO_LP_ENGINE`` environment variable, then the bit-compatible
    default ``"scipy"``.  ``"auto"`` picks ``highs`` exactly when
    bindings import; requesting ``"highs"`` without bindings raises a
    :class:`ValidationError` rather than silently degrading.
    """
    if requested is not None:
        name = str(requested).strip().lower()
        source = "engine argument"
    else:
        env = (config.raw(ENGINE_ENV_VAR) or "").strip().lower()
        if not env:
            return "scipy"
        name = env
        source = f"{ENGINE_ENV_VAR} environment variable"
    if name not in _ENGINE_NAMES:
        raise ValidationError(
            f"LP engine must be one of {_ENGINE_NAMES}, got {name!r} ({source})"
        )
    if name == "auto":
        return "highs" if highs_bindings() is not None else "scipy"
    if name == "highs" and highs_bindings() is None:
        raise ValidationError(
            "LP engine 'highs' requested but no HiGHS bindings are importable "
            "(install highspy, or scipy >= 1.15 which vendors them); "
            f"requested via {source}"
        )
    return name


def prune_capacities(sub_operator: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-link estimate-shift capacities of a support-restricted operator.

    For ``Q_s = Q[:, support]`` and any Constraint-1 manipulation
    ``0 <= m <= cap``, the estimate shift of link ``j`` is bracketed by::

        -cap * neg[j] <= (Q_s m)[j] <= cap * pos[j]

    where ``pos``/``neg`` are the row-wise sums of the positive/negative
    parts of ``Q_s``.  A band override demanding more shift than the
    bracket allows is infeasible regardless of every other constraint —
    the presolve pruner rejects it without assembling anything.
    """
    sub = np.asarray(sub_operator, dtype=float)
    return (
        np.clip(sub, 0.0, None).sum(axis=1),
        np.clip(-sub, 0.0, None).sum(axis=1),
    )


@dataclass(frozen=True)
class PersistentSolveResult:
    """Raw outcome of one warm solve (semantics belong to the LP layer).

    ``values`` is the support-variable vector (length k) when optimal,
    else None.  ``iterations`` counts simplex iterations of *this* solve
    — the warm-start win is visible as tiny values after the first call.
    """

    optimal: bool
    values: np.ndarray | None
    status: str
    iterations: int
    rows_changed: int


class PersistentLpSolver:
    """One mutable HiGHS model reused across a candidate-victim scan.

    Parameters
    ----------
    sub_operator:
        ``Q[:, support]`` (|L| x k) — each link contributes one two-sided
        model row.
    row_lower, row_upper:
        Shifted base band bounds per link (``lower_j - x_j`` /
        ``upper_j - x_j``; ``±inf`` where the band is open).
    eq_rows:
        Optional stealth block ``C[:, support]`` (r x k) appended as
        equality rows ``= 0`` (pass the rows already filtered the way the
        scipy path filters them, so both engines see the same problem).
    var_upper:
        Finite per-variable cap (the caller substitutes its unbounded
        re-solve cap when the attack cap is None).
    bindings:
        Explicit :class:`HighsBindings` (defaults to the probed ones).

    Each :meth:`solve` call edits only the overridden links' row bounds,
    runs HiGHS (which reuses the previous basis), restores the base
    bounds, and returns a :class:`PersistentSolveResult`.  The model is
    never rebuilt and never re-presolved from scratch.
    """

    def __init__(
        self,
        sub_operator: np.ndarray,
        row_lower: np.ndarray,
        row_upper: np.ndarray,
        *,
        eq_rows: np.ndarray | None = None,
        var_upper: float,
        bindings: HighsBindings | None = None,
    ) -> None:
        self._hb = bindings if bindings is not None else highs_bindings()
        if self._hb is None:
            raise ValidationError(
                "PersistentLpSolver needs HiGHS bindings (highspy or "
                "scipy >= 1.15); use the scipy engine otherwise"
            )
        sub = np.asarray(sub_operator, dtype=float)
        if sub.ndim != 2:
            raise ValidationError(
                f"sub_operator must be 2-D (links x support), got ndim={sub.ndim}"
            )
        self.num_links, self.num_vars = (int(d) for d in sub.shape)
        if not np.isfinite(var_upper) or var_upper < 0:
            raise ValidationError(
                f"var_upper must be finite and non-negative, got {var_upper}"
            )
        lower = np.asarray(row_lower, dtype=float)
        upper = np.asarray(row_upper, dtype=float)
        if lower.shape != (self.num_links,) or upper.shape != (self.num_links,):
            raise ValidationError(
                "row bounds must have one entry per link "
                f"({self.num_links}), got {lower.shape} / {upper.shape}"
            )
        inf = self._hb.infinity
        self._base_lower = np.where(np.isfinite(lower), lower, -inf)
        self._base_upper = np.where(np.isfinite(upper), upper, inf)

        blocks = [scipy.sparse.csr_matrix(sub)]
        num_eq = 0
        if eq_rows is not None:
            if scipy.sparse.issparse(eq_rows):
                eq = eq_rows.tocsr().astype(float)
            else:
                eq = np.asarray(eq_rows, dtype=float)
            if eq.ndim != 2 or eq.shape[1] != self.num_vars:
                raise ValidationError(
                    f"eq_rows must be (r x {self.num_vars}), got {eq.shape}"
                )
            num_eq = eq.shape[0]
            blocks.append(scipy.sparse.csr_matrix(eq))
        matrix = scipy.sparse.vstack(blocks, format="csr") if num_eq else blocks[0]

        hb = self._hb
        lp = hb.HighsLp()
        lp.num_col_ = self.num_vars
        lp.num_row_ = self.num_links + num_eq
        lp.col_cost_ = -np.ones(self.num_vars)  # maximise sum(m)
        lp.col_lower_ = np.zeros(self.num_vars)
        lp.col_upper_ = np.full(self.num_vars, float(var_upper))
        lp.row_lower_ = np.concatenate([self._base_lower, np.zeros(num_eq)])
        lp.row_upper_ = np.concatenate([self._base_upper, np.zeros(num_eq)])
        lp.a_matrix_.format_ = hb.MatrixFormat.kRowwise
        lp.a_matrix_.start_ = matrix.indptr.astype(np.int64)
        lp.a_matrix_.index_ = matrix.indices.astype(np.int64)
        lp.a_matrix_.value_ = matrix.data.astype(float)

        self._model = hb.Highs()
        self._model.setOptionValue("output_flag", False)
        self._model.setOptionValue("threads", 1)
        self._model.passModel(lp)
        obs.counter("lp_model_build")
        self.solves = 0

    @property
    def engine_source(self) -> str:
        """Which provider backs the model (``highspy``/``scipy-vendored``)."""
        return self._hb.source

    def update_base_bounds(self, row_lower: np.ndarray, row_upper: np.ndarray) -> int:
        """Rebase the per-link band rows in place; returns rows changed.

        A churn epoch that only moves the baseline estimate (and hence
        the shifted band bounds) does not change the model's structure:
        the same variables, the same coefficient matrix, the same
        equality block.  Editing just the changed band rows via
        ``changeRowBounds`` keeps the model — and its simplex basis —
        alive, instead of paying a full rebuild.  Bounds follow the
        constructor's convention (``±inf`` where the band is open).
        """
        lower = np.asarray(row_lower, dtype=float)
        upper = np.asarray(row_upper, dtype=float)
        if lower.shape != (self.num_links,) or upper.shape != (self.num_links,):
            raise ValidationError(
                "row bounds must have one entry per link "
                f"({self.num_links}), got {lower.shape} / {upper.shape}"
            )
        inf = self._hb.infinity
        new_lower = np.where(np.isfinite(lower), lower, -inf)
        new_upper = np.where(np.isfinite(upper), upper, inf)
        changed = np.flatnonzero(
            (new_lower != self._base_lower) | (new_upper != self._base_upper)
        )
        for j in changed:
            self._model.changeRowBounds(
                int(j), float(new_lower[j]), float(new_upper[j])
            )
        self._base_lower = new_lower
        self._base_upper = new_upper
        return int(changed.size)

    def solve(
        self, row_overrides: Mapping[int, tuple[float, float]] | None = None
    ) -> PersistentSolveResult:
        """Warm solve with the given links' row bounds replaced.

        ``row_overrides`` maps link index to *shifted* bounds
        ``(lower_j - x_j, upper_j - x_j)`` — the same replace-not-
        intersect semantics as
        :meth:`repro.attacks.lp.IncrementalLpSolver.solve`.  Base bounds
        are restored before returning, so solves are order-independent
        (up to the reused basis, which affects speed, never the optimum).
        """
        hb = self._hb
        inf = hb.infinity
        overrides = dict(row_overrides or {})
        for j, (lower, upper) in overrides.items():
            if not 0 <= int(j) < self.num_links:
                raise ValidationError(
                    f"override row {j} out of range [0, {self.num_links})"
                )
            self._model.changeRowBounds(
                int(j),
                float(lower) if np.isfinite(lower) else -inf,
                float(upper) if np.isfinite(upper) else inf,
            )
        obs.counter("lp_solve")
        try:
            with obs.span("lp_solve"):
                self._model.run()
                status = self._model.getModelStatus()
                optimal = status == hb.HighsModelStatus.kOptimal
                values = (
                    np.array(self._model.getSolution().col_value, dtype=float)
                    if optimal
                    else None
                )
        finally:
            for j in overrides:
                self._model.changeRowBounds(
                    int(j),
                    float(self._base_lower[j]),
                    float(self._base_upper[j]),
                )
        iterations = int(self._model.getInfo().simplex_iteration_count)
        self.solves += 1
        result = PersistentSolveResult(
            optimal=optimal,
            values=values,
            status=str(self._model.modelStatusToString(status)),
            iterations=iterations,
            rows_changed=len(overrides),
        )
        if obs.is_enabled():
            obs.event(
                "lp_warm_start",
                engine=self.engine_source,
                optimal=bool(optimal),
                status=result.status,
                iterations=iterations,
                rows_changed=result.rows_changed,
                solves=self.solves,
            )
        return result
