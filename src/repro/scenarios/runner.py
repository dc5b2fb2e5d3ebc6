"""The simulation runner: one shared step loop for every experiment.

Before this subsystem existed, every benchmark, example and app hand-rolled
the same loop — ask the workload/adversary for an event, apply it to the
engine, measure something, decide whether to stop.  :class:`SimulationRunner`
owns that loop once, for any :class:`~repro.core.interface.EngineProtocol`
engine (NOW or a baseline):

    workload/adversary -> engine.apply_event -> observation bus -> stop conditions

Observation goes through the :class:`~repro.scenarios.bus.ObservationBus`:
inline probes run per event, buffered probes receive batched step records
every ``probe_buffer`` events (see :mod:`repro.scenarios.bus`).

Event sources are the existing per-step objects: a
:class:`~repro.workloads.churn.ChurnWorkload`, an
:class:`~repro.adversary.base.Adversary` (wrapped in its
:class:`~repro.adversary.base.AdversaryContext` automatically), a
:class:`~repro.workloads.traces.MixedDriver`, or anything with a
``next_event(engine)`` method.

The runner may be invoked repeatedly on the same engine (checkpoint-style
experiments run it once per growth target); each :meth:`SimulationRunner.run`
call returns a fresh :class:`RunResult` while probes keep accumulating.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..adversary.base import Adversary, AdversaryContext
from ..analysis.reporting import format_table
from ..core.cluster import ClusterId
from ..errors import ConfigurationError
from .bus import DEFAULT_PROBE_BUFFER, ObservationBus
from .probes import Probe

#: A stop condition: ``fn(engine, report, step_index) -> Optional[str]``.
#: Returning a non-empty string stops the run with that reason.
StopCondition = Callable[[Any, Any, int], Optional[str]]


# ----------------------------------------------------------------------
# Stop-condition helpers
# ----------------------------------------------------------------------
def stop_when_size_at_least(target: int) -> StopCondition:
    """Stop once the network grew to ``target`` nodes."""

    def condition(engine, report, step_index: int) -> Optional[str]:
        if engine.network_size >= target:
            return f"size >= {target}"
        return None

    return condition


def stop_when_size_at_most(target: int) -> StopCondition:
    """Stop once the network shrank to ``target`` nodes."""

    def condition(engine, report, step_index: int) -> Optional[str]:
        if engine.network_size <= target:
            return f"size <= {target}"
        return None

    return condition


def stop_when_compromised(cluster_id: Optional[ClusterId] = None) -> StopCondition:
    """Stop when any cluster (or a specific one) reaches the alarm threshold."""

    def condition(engine, report, step_index: int) -> Optional[str]:
        compromised = report.compromised_clusters
        if cluster_id is None:
            if compromised:
                return f"cluster {compromised[0]} compromised"
        elif cluster_id in compromised:
            return f"cluster {cluster_id} compromised"
        return None

    return condition


def bind_event_source(engine, source) -> Callable[[], Any]:
    """A zero-argument ``next_event`` callable for any supported source.

    Adversaries are wrapped in their read-only
    :class:`~repro.adversary.base.AdversaryContext`; anything else must
    expose ``next_event(engine)``.  Shared by :class:`SimulationRunner` and
    the trace subsystem's checkpoint-from-trace re-driver.
    """
    if isinstance(source, Adversary):
        context = AdversaryContext(engine)
        return lambda: source.next_event(context)
    if hasattr(source, "next_event"):
        return lambda: source.next_event(engine)
    raise ConfigurationError(f"event source {source!r} has no next_event method")


@dataclass
class RunResult:
    """Summary of one :meth:`SimulationRunner.run` call."""

    scenario: str
    steps: int
    events: int
    idle_steps: int
    elapsed_seconds: float
    final_size: int
    final_cluster_count: int
    final_worst_fraction: float
    peak_worst_fraction: float
    compromised_clusters: List[ClusterId]
    stop_reason: str
    probes: Dict[str, Any] = field(default_factory=dict)
    #: Logical shard count of a sharded run (0 for the classic single-engine
    #: path); under sharding, ``compromised_clusters`` holds
    #: ``(shard, cluster_id)`` pairs because cluster ids are shard-local.
    shards: int = 0

    @property
    def events_per_second(self) -> float:
        """Applied churn events per wall-clock second."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.events / self.elapsed_seconds

    @property
    def safe(self) -> bool:
        """Whether no cluster was compromised at the end of the run."""
        return not self.compromised_clusters

    def summary_rows(self) -> List[List[Any]]:
        """The result as (metric, value) rows for table rendering."""
        return ([["shards", self.shards]] if self.shards else []) + [
            ["scenario", self.scenario],
            ["steps", self.steps],
            ["events applied", self.events],
            ["idle steps", self.idle_steps],
            ["elapsed seconds", f"{self.elapsed_seconds:.3f}"],
            ["events / second", f"{self.events_per_second:.1f}"],
            ["final network size", self.final_size],
            ["final cluster count", self.final_cluster_count],
            ["final worst corruption", f"{self.final_worst_fraction:.3f}"],
            ["peak worst corruption", f"{self.peak_worst_fraction:.3f}"],
            ["compromised clusters", len(self.compromised_clusters)],
            ["stop reason", self.stop_reason],
        ]

    def summary_table(self) -> str:
        """A plain-text summary table (the CLI's ``run-scenario`` output)."""
        return format_table(["metric", "value"], self.summary_rows())


class SimulationRunner:
    """Drives one engine with one event source, probing every step.

    Parameters
    ----------
    engine:
        Any :class:`~repro.core.interface.EngineProtocol` implementation.
    source:
        Per-step event source (workload, adversary, mixed driver, or any
        object with ``next_event``); adversaries are wrapped in their
        read-only :class:`~repro.adversary.base.AdversaryContext`.
    probes:
        :class:`~repro.scenarios.probes.Probe` instances observing the run.
    stop_conditions:
        Callables evaluated after each applied event; the first non-``None``
        reason ends the run.
    max_idle_streak:
        Stop after this many consecutive idle steps (a finite workload such
        as pure growth idles forever once its target is reached); ``None``
        keeps looping through idle steps.
    probe_buffer:
        Events between deliveries to buffered (non-inline) probes — the
        :class:`~repro.scenarios.bus.ObservationBus` batch size.  Inline
        probes are unaffected; buffered probes always receive every record
        (a final flush happens at the end of each :meth:`run` segment).
    """

    def __init__(
        self,
        engine,
        source,
        probes: Sequence[Probe] = (),
        stop_conditions: Sequence[StopCondition] = (),
        max_idle_streak: Optional[int] = None,
        name: str = "scenario",
        probe_buffer: int = DEFAULT_PROBE_BUFFER,
    ) -> None:
        self.engine = engine
        self.probes: List[Probe] = list(probes)
        names = [probe.name for probe in self.probes]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            # RunResult.probes is keyed by name; a collision would silently
            # drop one probe's measurements.
            raise ConfigurationError(
                f"duplicate probe names {sorted(duplicates)}; give each probe "
                "a distinct name= (e.g. CallbackProbe(fn, name='...'))"
            )
        try:
            self.bus = ObservationBus(engine, self.probes, buffer_size=probe_buffer)
        except ValueError as error:
            raise ConfigurationError(str(error)) from None
        self.stop_conditions: List[StopCondition] = list(stop_conditions)
        self.max_idle_streak = max_idle_streak
        self.name = name
        #: The raw event source (exposed so checkpointing can snapshot its
        #: RNG streams alongside the engine state — see ``repro.trace``).
        self.source = source
        self._next_event = self._bind_source(source)
        self._started = False
        self.total_steps = 0
        self.total_events = 0

    # ------------------------------------------------------------------
    # Source binding
    # ------------------------------------------------------------------
    def _bind_source(self, source) -> Callable[[], Any]:
        return bind_event_source(self.engine, source)

    # ------------------------------------------------------------------
    # The step loop
    # ------------------------------------------------------------------
    def run(self, steps: int) -> RunResult:
        """Run up to ``steps`` time steps and return the result summary."""
        if steps < 0:
            raise ConfigurationError("steps must be non-negative")
        # probes is a public list; pick up anything attached since the last
        # segment so late-added probes are observed.
        self.bus.sync(self.probes)
        if not self._started:
            self.bus.on_start()
            self._started = True

        engine = self.engine
        publish = self.bus.publish
        events = 0
        idle = 0
        idle_streak = 0
        executed = 0
        stop_reason = "steps exhausted"
        peak_worst = 0.0
        started_at = time.perf_counter()
        try:
            for step_index in range(1, steps + 1):
                executed = step_index
                event = self._next_event()
                if event is None:
                    idle += 1
                    idle_streak += 1
                    if self.max_idle_streak is not None and idle_streak >= self.max_idle_streak:
                        stop_reason = "source idle"
                        break
                    continue
                idle_streak = 0
                report = engine.apply_event(event)
                events += 1
                self.total_events += 1
                if report.worst_byzantine_fraction > peak_worst:
                    peak_worst = report.worst_byzantine_fraction
                publish(report, step_index)
                reason = self._evaluate_stop(engine, report, step_index)
                if reason is not None:
                    stop_reason = reason
                    break
        finally:
            # Deliver any partially filled batch — on clean exit so probe
            # results are complete before they go into the RunResult, and on
            # an exception so buffered probes are exact to the interrupt
            # point (as per-event inline probes always were).
            self.bus.flush()
        elapsed = time.perf_counter() - started_at
        self.total_steps += executed

        return RunResult(
            scenario=self.name,
            steps=executed,
            events=events,
            idle_steps=idle,
            elapsed_seconds=elapsed,
            final_size=engine.network_size,
            final_cluster_count=engine.cluster_count,
            final_worst_fraction=engine.worst_cluster_fraction(),
            peak_worst_fraction=peak_worst,
            compromised_clusters=list(engine.compromised_clusters()),
            stop_reason=stop_reason,
            probes={probe.name: probe.result() for probe in self.probes},
        )

    def _evaluate_stop(self, engine, report, step_index: int) -> Optional[str]:
        for condition in self.stop_conditions:
            reason = condition(engine, report, step_index)
            if reason is not None:
                return reason
        return None

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def probe(self, name: str) -> Probe:
        """Look up an attached probe by its ``name`` (error when absent)."""
        for probe in self.probes:
            if probe.name == name:
                return probe
        raise ConfigurationError(f"no probe named {name!r} attached to this runner")

    def run_until_size(self, target: int, max_steps: int) -> RunResult:
        """Run until the network reaches ``target`` nodes (bounded by ``max_steps``).

        Grows or shrinks towards the target depending on the current size;
        already at the target, it returns immediately without stepping.
        """
        size = self.engine.network_size
        if size == target:
            return self.run(0)
        condition = (
            stop_when_size_at_least(target)
            if size < target
            else stop_when_size_at_most(target)
        )
        self.stop_conditions.append(condition)
        try:
            return self.run(max_steps)
        finally:
            self.stop_conditions.remove(condition)
