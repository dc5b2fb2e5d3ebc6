"""Declarative experiment scenarios.

A :class:`Scenario` is a plain-data description of one run — protocol
parameters, engine flavour (NOW or a baseline), workload spec, optional
adversary spec, step budget and the seed discipline — that can be built
programmatically, loaded from JSON (the CLI's ``run-scenario --spec``), or
picked from the named registry (``run-scenario --name``).

Seed discipline: a scenario's single ``seed`` fans out deterministically —
``seed`` bootstraps the engine, ``seed + 1`` drives the workload,
``seed + 2`` the adversary and ``seed + 3`` the mixing driver — so one
integer reproduces the entire run, and changing it re-randomises every
component coherently.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional, Sequence

from ..adversary import (
    AdaptiveCorruptionAdversary,
    JoinLeaveAttack,
    ObliviousChurnAdversary,
    TargetedDosAdversary,
)
from ..baselines import (
    CuckooRuleEngine,
    NoShuffleEngine,
    StaticClusterEngine,
)
from ..core.engine import EngineConfig, NowEngine
from ..errors import ConfigurationError
from ..params import default_parameters
from ..walks.sampler import WalkMode
from ..workloads.churn import (
    GrowthWorkload,
    OscillatingWorkload,
    ShrinkWorkload,
    UniformChurn,
)
from ..workloads.traces import MixedDriver
from .bus import DEFAULT_PROBE_BUFFER
from .probes import Probe
from .runner import RunResult, SimulationRunner, StopCondition

WORKLOAD_KINDS = {
    "uniform": UniformChurn,
    "growth": GrowthWorkload,
    "shrink": ShrinkWorkload,
    "oscillating": OscillatingWorkload,
}

ADVERSARY_KINDS = {
    "join_leave": JoinLeaveAttack,
    "targeted_dos": TargetedDosAdversary,
    "oblivious": ObliviousChurnAdversary,
    "adaptive_corruption": AdaptiveCorruptionAdversary,
}

BASELINE_ENGINES = {
    "no_shuffle": NoShuffleEngine,
    "cuckoo_rule": CuckooRuleEngine,
    "static_clusters": StaticClusterEngine,
}


@dataclass
class Scenario:
    """One declarative experiment: parameters + workload + adversary + budget."""

    name: str = "scenario"
    engine: str = "now"
    max_size: int = 4096
    initial_size: int = 300
    tau: float = 0.15
    k: float = 3.0
    l: float = 2.0
    alpha: float = 0.1
    epsilon: float = 0.05
    seed: int = 1
    steps: int = 200
    workload: Optional[Dict[str, Any]] = field(default_factory=lambda: {"kind": "uniform"})
    adversary: Optional[Dict[str, Any]] = None
    adversary_weight: float = 0.6
    engine_options: Dict[str, Any] = field(default_factory=dict)
    max_idle_streak: Optional[int] = None
    #: Logical shard count: 0 runs the classic single engine; >= 1 runs the
    #: scenario as that many shard engines under ``repro.shard``.  A semantic
    #: field — changing it changes results — unlike the *worker* count, which
    #: is an execution choice (``run-scenario --shards N`` picks workers).
    shards: int = 0
    #: Sharded-execution tuning: ``barrier_interval``, ``rebalance_threshold``,
    #: ``min_shard_size`` (see ``repro.shard.coordinator``).  Semantic too:
    #: the barrier/handoff schedule shapes the run.
    shard_options: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------
    def parameters(self):
        """The protocol parameters this scenario runs under."""
        return default_parameters(
            max_size=self.max_size,
            k=self.k,
            l=self.l,
            alpha=self.alpha,
            tau=self.tau,
            epsilon=self.epsilon,
        )

    def build_engine(self):
        """Bootstrap the configured engine (NOW or a named baseline)."""
        params = self.parameters()
        if self.engine == "now":
            options = dict(self.engine_options)
            if isinstance(options.get("walk_mode"), str):
                options["walk_mode"] = WalkMode(options["walk_mode"])
            return NowEngine.bootstrap(
                params,
                initial_size=self.initial_size,
                byzantine_fraction=self.tau,
                seed=self.seed,
                config=EngineConfig(**options) if options else None,
            )
        if self.engine in BASELINE_ENGINES:
            now_only = set(self.engine_options) & set(EngineConfig.__dataclass_fields__)
            if now_only:
                raise ConfigurationError(
                    f"engine_options {sorted(now_only)} configure the NOW engine; "
                    f"baseline engine {self.engine!r} does not accept them"
                )
            return BASELINE_ENGINES[self.engine].bootstrap(
                params,
                initial_size=self.initial_size,
                byzantine_fraction=self.tau,
                seed=self.seed,
                **self.engine_options,
            )
        raise ConfigurationError(
            f"unknown engine {self.engine!r}; expected 'now' or one of "
            f"{sorted(BASELINE_ENGINES)}"
        )

    def build_source(self, engine):
        """Construct the per-step event source (workload, adversary, or a mix)."""
        workload = self._build_workload(engine)
        adversary = self._build_adversary(engine)
        if workload is not None and adversary is not None:
            return MixedDriver(
                [(adversary, self.adversary_weight), (workload, 1.0 - self.adversary_weight)],
                random.Random(self.seed + 3),
            )
        source = adversary if adversary is not None else workload
        if source is None:
            raise ConfigurationError("a scenario needs a workload and/or an adversary")
        return source

    def _build_workload(self, engine):
        if self.workload is None:
            return None
        spec = dict(self.workload)
        kind = spec.pop("kind", "uniform")
        if kind not in WORKLOAD_KINDS:
            raise ConfigurationError(
                f"unknown workload kind {kind!r}; expected one of {sorted(WORKLOAD_KINDS)}"
            )
        spec.setdefault("byzantine_join_fraction", self.tau)
        if kind == "shrink":
            spec.pop("byzantine_join_fraction", None)  # shrink only emits leaves
        return WORKLOAD_KINDS[kind](random.Random(self.seed + 1), **spec)

    def _build_adversary(self, engine):
        if self.adversary is None:
            return None
        spec = dict(self.adversary)
        kind = spec.pop("kind")
        if kind not in ADVERSARY_KINDS:
            raise ConfigurationError(
                f"unknown adversary kind {kind!r}; expected one of {sorted(ADVERSARY_KINDS)}"
            )
        if spec.get("target_cluster") == "first":
            spec["target_cluster"] = engine.state.clusters.cluster_ids()[0]
        return ADVERSARY_KINDS[kind](random.Random(self.seed + 2), **spec)

    def build_runner(
        self,
        probes: Sequence[Probe] = (),
        stop_conditions: Sequence[StopCondition] = (),
        engine=None,
        probe_buffer: int = DEFAULT_PROBE_BUFFER,
    ) -> SimulationRunner:
        """An engine + runner ready to :meth:`SimulationRunner.run`."""
        if self.shards:
            raise ConfigurationError(
                f"scenario {self.name!r} declares shards={self.shards}; build a "
                "repro.shard.ShardCoordinator (or call Scenario.run / "
                "run_sharded_scenario) instead of a single-engine runner"
            )
        if engine is None:
            engine = self.build_engine()
        return SimulationRunner(
            engine,
            self.build_source(engine),
            probes=probes,
            stop_conditions=stop_conditions,
            max_idle_streak=self.max_idle_streak,
            name=self.name,
            probe_buffer=probe_buffer,
        )

    def run(
        self,
        probes: Sequence[Probe] = (),
        stop_conditions: Sequence[StopCondition] = (),
        steps: Optional[int] = None,
    ) -> RunResult:
        """Build everything and execute the scenario once.

        A scenario with ``shards >= 1`` runs through the sharded coordinator
        (inline, one worker — results are worker-count independent, so this
        is *the* result for any worker count).
        """
        if self.shards:
            # Local import: repro.shard builds on top of scenarios.
            from ..shard.coordinator import ShardCoordinator

            coordinator = ShardCoordinator(
                self, workers=1, probes=probes, stop_conditions=stop_conditions
            )
            try:
                return coordinator.run(self.steps if steps is None else steps)
            finally:
                coordinator.close()
        runner = self.build_runner(probes=probes, stop_conditions=stop_conditions)
        return runner.run(self.steps if steps is None else steps)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready)."""
        return asdict(self)

    def to_json(self, indent: int = 2) -> str:
        """JSON text form."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        """Build a scenario from its plain-dict form (unknown keys rejected).

        The retired switches ``keep_reports`` and ``engine_options.
        record_history``, which older checkpoints and trace headers still
        carry, are dropped: neither ever affected simulated state.
        """
        data = dict(data)
        data.pop("keep_reports", None)
        if "record_history" in (data.get("engine_options") or {}):
            data["engine_options"] = dict(data["engine_options"])
            del data["engine_options"]["record_history"]
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown scenario fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Parse a scenario from JSON text."""
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Named scenarios (CLI presets)
# ----------------------------------------------------------------------
NAMED_SCENARIOS: Dict[str, Dict[str, Any]] = {
    "uniform-churn": dict(
        name="uniform-churn",
        steps=200,
        workload={"kind": "uniform"},
    ),
    "join-leave-attack": dict(
        name="join-leave-attack",
        tau=0.2,
        initial_size=260,
        steps=250,
        workload={"kind": "uniform"},
        adversary={"kind": "join_leave", "target_cluster": "first"},
        adversary_weight=0.6,
    ),
    "polynomial-growth": dict(
        name="polynomial-growth",
        max_size=16384,
        initial_size=256,
        tau=0.1,
        steps=1200,
        workload={"kind": "growth", "target_size": 900},
        max_idle_streak=3,
    ),
    "oscillating-churn": dict(
        name="oscillating-churn",
        max_size=8192,
        initial_size=400,
        tau=0.1,
        steps=400,
        workload={"kind": "oscillating", "low_size": 300, "high_size": 600},
    ),
    "no-shuffle-attack": dict(
        name="no-shuffle-attack",
        engine="no_shuffle",
        tau=0.2,
        initial_size=260,
        steps=250,
        workload={"kind": "uniform"},
        adversary={"kind": "join_leave", "target_cluster": "first"},
        adversary_weight=0.6,
    ),
}


def named_scenario(name: str, **overrides) -> Scenario:
    """A preset scenario by name, with optional field overrides."""
    if name not in NAMED_SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {name!r}; available: {sorted(NAMED_SCENARIOS)}"
        )
    spec = dict(NAMED_SCENARIOS[name])
    spec.update(overrides)
    return Scenario.from_dict(spec)
