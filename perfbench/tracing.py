"""Per-layer tracing for the benchmark, installed from outside the program.

The tracer wraps the public entry points of each layer of ``repro`` (the
table in ``LAYER_SPANS``) with span recorders.  A span's *self time* is its
duration minus the time of the spans it caused, so the self times of all
layers plus the unattributed remainder add up to the traced wall time.

Class methods are wrapped on the class that defines them; module
functions are re-bound in every ``repro`` module that holds them, because
most callers import them by name.  ``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

# Span name -> entry points, as "module:attribute" or "module:Class.attribute".
LAYER_SPANS: dict[str, tuple[str, ...]] = {
    "topology.generate": (
        "repro.topology.generators.isp:synthetic_rocketfuel",
        "repro.topology.generators.isp:large_isp_topology",
        "repro.topology.generators.isp:barabasi_albert_topology",
        "repro.topology.generators.geometric:random_geometric_topology",
        "repro.topology.generators.extra:waxman_topology",
        "repro.topology.generators.extra:fat_tree_topology",
        "repro.topology.generators.simple:grid_topology",
        "repro.topology.generators.simple:ladder_topology",
        "repro.topology.generators.simple:ring_topology",
        "repro.topology.generators.simple:tree_topology",
        "repro.topology.generators.simple:paper_example_network",
    ),
    "routing.ksp": ("repro.routing.ksp:k_shortest_paths",),
    "routing.select": (
        "repro.routing.selection:select_identifiable_paths",
        "repro.routing.selection:enumerate_candidate_paths",
    ),
    "routing.matrix": (
        "repro.routing.paths:PathSet.routing_matrix",
        "repro.routing.paths:PathSet.sparse_routing_matrix",
    ),
    "tomography.system": ("repro.tomography.linear_system:LinearSystem.__init__",),
    "tomography.estimate": (
        "repro.tomography.linear_system:LinearSystem.estimate",
        "repro.tomography.linear_system:LinearSystem.estimate_many",
        "repro.tomography.estimator_zoo:LeastSquaresZooEstimator.estimate",
        "repro.tomography.estimator_zoo:LeastSquaresZooEstimator.estimate_batch",
    ),
    "tomography.rank": ("repro.tomography.linear_system:LinearSystem.rank",),
    "tomography.columns": (
        "repro.tomography.linear_system:LinearSystem.estimator_columns",
        "repro.tomography.linear_system:LinearSystem.residual_projector_columns",
    ),
    "tomography.evolve": ("repro.tomography.linear_system:LinearSystem.evolve",),
    "attacks.context": ("repro.attacks.base:AttackContext.__init__",),
    "attacks.lp_oneshot": ("repro.attacks.lp:solve_manipulation_lp",),
    # ``solve_many`` only yields ``solve``, so wrapping ``solve`` times and
    # counts every scan solve; ``install`` counts what ``solve_many`` yields.
    "attacks.lp_scan": ("repro.attacks.lp:IncrementalLpSolver.solve",),
    "attacks.strategy": (
        "repro.attacks.chosen_victim:ChosenVictimAttack.run",
        "repro.attacks.max_damage:MaxDamageAttack.run",
        "repro.attacks.obfuscation:ObfuscationAttack.run",
        "repro.attacks.naive:NaiveDelayAttack.run",
    ),
    "detection.check": (
        "repro.detection.consistency:ConsistencyDetector.check",
        "repro.detection.auditor:TomographyAuditor.audit",
        "repro.detection.online:OnlineConsistencyDetector.check",
    ),
    "detection.advance": ("repro.detection.online:OnlineConsistencyDetector.advance",),
    "scenarios.build": ("repro.scenarios.scenario:Scenario.build",),
    "scenarios.mc": (
        "repro.scenarios.montecarlo:run_trials",
        "repro.scenarios.streaming:StreamingCampaign.run",
    ),
    "sweep.run": ("repro.sweep.runner:run_sweep",),
    "sweep.point": ("repro.sweep.runner:run_grid_point",),
    "sweep.store_io": (
        "repro.sweep.store:FactorizationStore.load",
        "repro.sweep.store:FactorizationStore.save",
    ),
}

# Per-layer metrics: name -> unit.  Every ``<span>_s`` self time is listed,
# so the table sums to the traced wall time.
PER_LAYER_METRICS: dict[str, str] = {
    "topology.generate_s": "s",
    "routing.ksp_calls": "count",
    "routing.ksp_s": "s",
    "routing.select_s": "s",
    "routing.paths_kept_ratio": "ratio",
    "routing.matrix_s": "s",
    "tomography.systems": "count",
    "tomography.sparse_share": "ratio",
    "tomography.system_s": "s",
    "tomography.estimate_calls": "count",
    "tomography.estimate_s": "s",
    "tomography.rank_s": "s",
    "tomography.columns_s": "s",
    "tomography.evolve_calls": "count",
    "tomography.evolve_s": "s",
    "tomography.evolve_incremental_ratio": "ratio",
    "attacks.context_s": "s",
    "attacks.lp_oneshot_calls": "count",
    "attacks.lp_oneshot_s": "s",
    "attacks.lp_scan_calls": "count",
    "attacks.scan_candidates": "count",
    "attacks.lp_scan_s": "s",
    "attacks.lp_feasible_ratio": "ratio",
    "attacks.lp_pruned": "count",
    "attacks.strategy_s": "s",
    "detection.check_calls": "count",
    "detection.check_s": "s",
    "detection.advance_s": "s",
    "scenarios.build_s": "s",
    "scenarios.mc_s": "s",
    "scenarios.replans": "count",
    "sweep.run_s": "s",
    "sweep.point_s": "s",
    "sweep.cache_hit_ratio": "ratio",
    "sweep.store_loads": "count",
    "sweep.store_saves": "count",
    "sweep.store_io_s": "s",
    "sweep.store_bytes": "bytes",
    "sweep.checkpoint_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def _resolve(target: str):
    """(owner, attribute name, raw attribute) for ``module:[Class.]attr``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    if isinstance(owner, type):
        owner = next(c for c in owner.__mro__ if attr in c.__dict__)
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


class Patches:
    """Attribute replacements on classes and modules, undone by ``uninstall``."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


class Tracer(Patches):
    """Span recorder over ``LAYER_SPANS``; also collects layer counters."""

    def __init__(self) -> None:
        super().__init__()
        self.self_s: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.caches: list = []
        self.sampled_checks: list = []
        self.check_every = 0
        self._stack: list[float] = [0.0]
        self._depth: Counter[str] = Counter()

    # -- spans ---------------------------------------------------------------

    def _timed(self, name: str, fn, hook=None):
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.self_s[name] += elapsed - stack.pop()
                stack[-1] += elapsed
                depth[name] -= 1
            if depth[name] == 0:
                self.calls[name] += 1
            if hook is not None:
                hook(result, args, kwargs)
            return result

        return span

    def _hook(self, span: str, attr: str):
        counts = self.counts
        if span == "routing.select":
            if attr == "select_identifiable_paths":
                return lambda r, a, k: counts.update(paths_kept=r.num_paths)
            return lambda r, a, k: counts.update(paths_enumerated=len(r))
        if span == "tomography.system":
            return lambda r, a, k: counts.update(
                sparse_systems=int(a[0].backend_name == "sparse")
            )
        if span == "tomography.evolve":
            return lambda r, a, k: counts.update(
                evolve_incremental=int(bool(r.evolved_incrementally))
            )
        if span in ("attacks.lp_oneshot", "attacks.lp_scan"):
            return functools.partial(self._count_lp, span)
        if span == "detection.check" and attr == "check" and self.check_every:
            return self._sample_online_check
        if attr == "run" and span == "scenarios.mc":
            return lambda r, a, k: counts.update(replans=r.replan_count)
        if span == "sweep.store_io":
            if attr == "load":
                return lambda r, a, k: counts.update(store_loads=int(r is not None))
            return self._count_store_save
        return None

    def _count_lp(self, span: str, solution, args, kwargs) -> None:
        self.counts[span] += 1
        self.counts["lp_solves"] += 1
        self.counts["lp_feasible"] += int(bool(solution.feasible))
        self.counts["lp_pruned"] += int(str(solution.status).startswith("presolve:"))

    def _sample_online_check(self, result, args, kwargs) -> None:
        detector = args[0]
        if not hasattr(detector, "advance"):
            return  # the batch detector: no evolving system to re-check
        self.counts["online_checks"] += 1
        if self.counts["online_checks"] % self.check_every == 0:
            self.sampled_checks.append((detector.system, args[1], result))

    def _count_store_save(self, written, args, kwargs) -> None:
        if written:
            store, digest = args[0], args[1]
            self.counts["store_saves"] += 1
            self.counts["store_bytes"] += store.entry_path(digest).stat().st_size

    # -- install -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in ``LAYER_SPANS``; ``uninstall`` restores them."""
        for span, targets in LAYER_SPANS.items():
            for target in targets:
                owner, attr, raw = _resolve(target)
                hook = self._hook(span, attr)
                if isinstance(raw, property):
                    self.patch(owner, attr, property(self._timed(span, raw.fget, hook)))
                elif isinstance(raw, classmethod):
                    self.patch(owner, attr, classmethod(self._timed(span, raw.__func__, hook)))
                elif isinstance(owner, type):
                    self.patch(owner, attr, self._timed(span, raw, hook))
                else:
                    wrapped = self._timed(span, raw, hook)
                    for module in list(sys.modules.values()):
                        name = getattr(module, "__name__", "") or ""
                        if name.split(".")[0] != "repro":
                            continue
                        for key, value in list(vars(module).items()):
                            if value is raw:
                                self.patch(module, key, wrapped)
        from repro.attacks.lp import IncrementalLpSolver
        from repro.sweep.cache import FactorizationCache

        solve_many = IncrementalLpSolver.solve_many

        def counted_solve_many(solver, overrides_iter):
            for solution in solve_many(solver, overrides_iter):
                self.counts["scan_candidates"] += 1
                yield solution

        self.patch(IncrementalLpSolver, "solve_many", counted_solve_many)

        init = FactorizationCache.__init__

        def remember_cache(cache, *args, **kwargs):
            init(cache, *args, **kwargs)
            self.caches.append(cache)

        self.patch(FactorizationCache, "__init__", remember_cache)

    # -- results -------------------------------------------------------------

    def metrics(self, traced_wall_s: float, overhead_frac: float, checkpoint_bytes: int) -> dict:
        s, calls, counts = self.self_s, self.calls, self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        hits = misses = 0
        for cache in self.caches:
            for key, value in cache.stats.items():
                if key.endswith("_hit"):
                    hits += value
                elif key.endswith("_miss"):
                    misses += value
        values = {
            "routing.ksp_calls": calls["routing.ksp"],
            "routing.paths_kept_ratio": ratio(counts["paths_kept"], counts["paths_enumerated"]),
            "tomography.systems": calls["tomography.system"],
            "tomography.sparse_share": ratio(counts["sparse_systems"], calls["tomography.system"]),
            "tomography.estimate_calls": calls["tomography.estimate"],
            "tomography.evolve_calls": calls["tomography.evolve"],
            "tomography.evolve_incremental_ratio": ratio(
                counts["evolve_incremental"], calls["tomography.evolve"]
            ),
            "attacks.lp_oneshot_calls": counts["attacks.lp_oneshot"],
            "attacks.lp_scan_calls": counts["attacks.lp_scan"],
            "attacks.scan_candidates": counts["scan_candidates"],
            "attacks.lp_feasible_ratio": ratio(counts["lp_feasible"], counts["lp_solves"]),
            "attacks.lp_pruned": counts["lp_pruned"],
            "detection.check_calls": calls["detection.check"],
            "scenarios.replans": counts["replans"],
            "sweep.cache_hit_ratio": ratio(hits, hits + misses),
            "sweep.store_loads": counts["store_loads"],
            "sweep.store_saves": counts["store_saves"],
            "sweep.store_bytes": counts["store_bytes"],
            "sweep.checkpoint_bytes": checkpoint_bytes,
            "trace.wall_s": traced_wall_s,
            "trace.unattributed_frac": ratio(traced_wall_s - sum(s.values()), traced_wall_s),
            "trace.overhead_frac": overhead_frac,
        }
        for span in LAYER_SPANS:
            values[f"{span}_s"] = s[span]
        return {name: values[name] for name in PER_LAYER_METRICS}
