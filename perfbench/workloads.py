"""The three benchmark workloads, driven through the public ``repro`` API.

Each workload has a set-up (built before the timed region), a *pass* (one
fixed unit of timed work over one input batch) and a pool of input batches
whose outputs are committed under ``perfbench/reference/``.  A pass returns
one record per op; records are compared with the reference and with the
repeat pass over the same batch.

Calls into ``repro`` go through module attributes (``experiments.x(...)``)
so that the tracer's re-bound functions are the ones called.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.detection.online import OnlineConsistencyDetector
from repro.scenarios import experiments, streaming
from repro.scenarios.scenario import Scenario
from repro.sweep import runner
from repro.sweep.spec import SweepSpec
from repro.topology.generators import isp
from tracing import Patches


class OpClock(Patches):
    """Completion timestamps of ops; latency is the gap between completions."""

    def __init__(self) -> None:
        super().__init__()
        self.gaps: list[float] = []
        self._last = 0.0

    def start(self) -> None:
        """Begin a pass: the first op's gap counts from here."""
        self.gaps = []
        self._last = perf_counter()

    def mark(self) -> None:
        now = perf_counter()
        self.gaps.append(now - self._last)
        self._last = now

    def finish(self) -> tuple[list[float], float]:
        """End a pass: its op gaps and the tail after the last op."""
        gaps, self.gaps = self.gaps, []
        return gaps, perf_counter() - self._last

    def marked(self, fn):
        """``fn`` with a completion mark after every call, raising or not."""

        def call(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self.mark()

        return call


def _float_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def record_matches(record: list, expected: list, tol: float = 1e-6) -> bool:
    """Flags, counts and labels equal; floats equal within ``tol`` (relative)."""
    if len(record) != len(expected):
        return False
    for got, want in zip(record, expected):
        if isinstance(want, float) and not isinstance(got, bool):
            if not isinstance(got, (int, float)) or not _float_close(float(got), want, tol):
                return False
        elif got != want or type(got) is not type(want):
            return False
    return True


class Workload:
    """Interface shared by the workloads (see the module docstring)."""

    name = ""
    sizes: dict[str, dict] = {}
    oracle_every = 0

    def __init__(self, size: str, work_dir: Path) -> None:
        self.size = size
        self.params = self.sizes[size]
        self.pool = self.params["pool"]
        self.work_dir = work_dir

    def install_op_clock(self, clock: OpClock) -> None:
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def prepare_pass(self, batch: int, tag: str) -> None:
        """Untimed work before a pass, such as resetting files it writes."""

    def run_pass(self, state, batch: int, tag: str) -> list[list]:
        raise NotImplementedError

    def op_failures(self, record: list) -> bool:
        """A workload-specific check on one record, beyond the reference."""
        return False

    def reference_problem(self, batch: int, expected: list) -> str | None:
        """Why one batch of the reference cannot serve as a check, if it cannot."""
        return None

    def repeat_identical(self, batch: int) -> bool:
        """Workload-specific identity check between the two passes."""
        return True


class WirelineMC(Workload):
    """Section V-C Monte-Carlo on the wireline substrate (Figs. 7 and 8)."""

    name = "wireline-mc"
    # The pool is one Fig. 7 batch per seed, then one Fig. 8 batch.  Each
    # Fig. 7 seed is chosen so that its batch holds a perfect-cut trial
    # (Theorem 1 is then checked) and a feasible attack.
    sizes = {
        "full": {"pool": 3, "fig7_seeds": [1010, 1023], "fig7_trials": 28, "fig8_seed": 14},
        "toy": {"pool": 3, "fig7_seeds": [1006, 1007], "fig7_trials": 6, "fig8_seed": 1},
    }

    def install_op_clock(self, clock: OpClock) -> None:
        run_trials = experiments.run_trials

        def timed_run_trials(num_trials, trial, **kwargs):
            return run_trials(num_trials, clock.marked(trial), **kwargs)

        clock.patch(experiments, "run_trials", timed_run_trials)

    def setup(self) -> Scenario:
        if self.size == "toy":
            topology = isp.synthetic_rocketfuel(
                "toy", backbone_nodes=4, pops_per_backbone=1, extra_backbone_chords=1, seed=0
            )
            return Scenario.build(topology, monitor_fraction=0.3, max_per_pair=6, rng=0)
        return experiments.standard_wireline_scenario(seed=0)

    def is_fig7(self, batch: int) -> bool:
        return batch < len(self.params["fig7_seeds"])

    def run_pass(self, scenario: Scenario, batch: int, tag: str) -> list[list]:
        if self.is_fig7(batch):
            fig7 = experiments.success_probability_sweep(
                scenario,
                num_trials=self.params["fig7_trials"],
                seed=self.params["fig7_seeds"][batch],
            )
            return [
                ["fig7", bool(t["success"]), bool(t["perfect_cut"]), float(t["damage"])]
                for t in fig7["trials"]
            ]
        fig8 = experiments.single_attacker_sweep(
            scenario, num_trials=1, seed=self.params["fig8_seed"]
        )
        return [
            [
                "fig8",
                bool(t["max_damage_success"]),
                bool(t["obfuscation_success"]),
                float(t["max_damage"]),
                int(t["obfuscation_victims"]),
            ]
            for t in fig8["trials"]
        ]

    def op_failures(self, record: list) -> bool:
        # Theorem 1: a chosen-victim attack behind a perfect cut always succeeds.
        return record[0] == "fig7" and record[2] and not record[1]

    def reference_problem(self, batch: int, expected: list) -> str | None:
        if not self.is_fig7(batch):
            return None
        if not any(record[0] == "fig7" and record[2] for record in expected):
            return "no perfect-cut Fig. 7 trial, so Theorem 1 goes unchecked"
        if not any(record[0] == "fig7" and record[1] for record in expected):
            return "no feasible Fig. 7 attack"
        return None


class IspChurn(Workload):
    """An online defender on the ISP-scale topology under path churn."""

    name = "isp-churn"
    oracle_every = 5
    sizes = {
        "full": {"pool": 2, "pair_budget": 150, "epochs": 25},
        "toy": {"pool": 2, "pair_budget": 30, "epochs": 8},
    }

    def install_op_clock(self, clock: OpClock) -> None:
        clock.patch(
            OnlineConsistencyDetector, "check", clock.marked(OnlineConsistencyDetector.check)
        )

    def setup(self):
        if self.size == "toy":
            topology = isp.synthetic_rocketfuel("toy-isp", backbone_nodes=6, seed=0)
        else:
            topology = isp.large_isp_topology(seed=0)
        scenario = Scenario.build(
            topology, pair_budget=self.params["pair_budget"], max_per_pair=2, rng=0
        )
        transit = sorted(
            {node for path in scenario.path_set.paths() for node in path.interior_nodes},
            key=str,
        )
        picks = np.random.default_rng(0).choice(len(transit), size=3, replace=False)
        attackers = [transit[int(i)] for i in picks]
        return scenario, attackers

    def run_pass(self, state, batch: int, tag: str) -> list[list]:
        scenario, attackers = state
        # A campaign's detector evolves as it runs, so every pass starts a new one.
        campaign = streaming.StreamingCampaign(scenario, attacker_nodes=attackers)
        schedule = streaming.random_churn_schedule(
            scenario.path_set.num_paths, self.params["epochs"], churn_rate=0.02, rng=2000 + batch
        )
        result = campaign.run(schedule, active_epochs=0.5, rng=3000 + batch)
        return [
            [
                bool(e.attacked),
                bool(e.replanned),
                bool(e.detected),
                float(e.detection.residual_l1),
            ]
            for e in result.epochs
        ]


class SweepGrid(Workload):
    """``run_sweep`` on a multi-family grid, cold store then warm store."""

    name = "sweep-grid"
    # One topology group per batch: short passes keep the host probes
    # around a pass close to its work.
    sizes = {
        "full": {
            "pool": 4,
            "groups": [
                [{"kind": "rgg", "num_nodes": 16}, {"kind": "ring", "num_nodes": 8}],
                [{"kind": "isp", "backbone_nodes": 3}, {"kind": "grid", "rows": 3, "cols": 3}],
                [{"kind": "fattree", "k": 4}, {"kind": "fig1"}],
                [{"kind": "grid", "rows": 3, "cols": 4}, {"kind": "waxman", "num_nodes": 12}],
            ],
            "attacker_counts": [1, 2],
        },
        "toy": {
            "pool": 2,
            "groups": [[{"kind": "fig1"}], [{"kind": "grid", "rows": 3, "cols": 3}]],
            "attacker_counts": [1],
        },
    }

    def install_op_clock(self, clock: OpClock) -> None:
        clock.patch(runner, "run_grid_point", clock.marked(runner.run_grid_point))

    def spec(self, batch: int) -> SweepSpec:
        return SweepSpec.from_dict(
            {
                "format": "repro-sweep",
                "version": 1,
                "name": "perfbench-sweep-grid",
                "seed": 100,
                "strategies": ["chosen-victim", "max-damage", "obfuscation", "naive"],
                "topologies": self.params["groups"][batch],
                "attacker_counts": self.params["attacker_counts"],
                "scenario": {"cap": 2000.0, "margin": 1.0},
                "attack": {"mode": "paper", "min_victims": 2, "alpha": 200.0},
            }
        )

    def setup(self):
        """Expand every pool spec and make an empty factorization store."""
        specs = [self.spec(batch) for batch in range(self.pool)]
        for spec in specs:
            spec.expand()
        store = self.work_dir / "store"
        shutil.rmtree(store, ignore_errors=True)
        store.mkdir(parents=True)
        return specs

    def results_path(self, batch: int, tag: str) -> Path:
        return self.work_dir / f"sweep-{batch}-{tag}.jsonl"

    def prepare_pass(self, batch: int, tag: str) -> None:
        store = self.work_dir / "store"
        if tag == "cold":
            # The first pass over a batch starts from an empty store.
            shutil.rmtree(store, ignore_errors=True)
            store.mkdir(parents=True)
        os.environ["REPRO_CACHE_DIR"] = str(store)
        self.results_path(batch, tag).unlink(missing_ok=True)

    def run_pass(self, specs, batch: int, tag: str) -> list[list]:
        summary = runner.run_sweep(specs[batch], results_path=self.results_path(batch, tag))
        return [
            [
                int(p["index"]),
                bool(p["feasible"]),
                float(p["damage"]),
                str(p["status"]),
                p["detected"],
            ]
            for p in summary["points"]
        ]

    def op_failures(self, record: list) -> bool:
        return record[3].startswith("error:")

    def repeat_identical(self, batch: int) -> bool:
        cold = self.results_path(batch, "cold").read_bytes()
        warm = self.results_path(batch, "warm").read_bytes()
        return cold == warm

    def checkpoint_bytes(self, batch: int, tag: str) -> int:
        return self.results_path(batch, tag).stat().st_size


WORKLOADS = {cls.name: cls for cls in (WirelineMC, IspChurn, SweepGrid)}
