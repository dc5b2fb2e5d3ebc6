"""Engine memory stays flat over long batch runs.

A run keeps no per-event copy of what the observation bus, the probes and
the trace layer already hold, so heap growth per applied event is bounded
by a small constant.  The one allocation that legitimately grows with the
event count is excluded: ``NodeRegistry.register`` keeps a descriptor for
every identity that ever joined (ids are never reused, and the descriptors
are part of the hashed state).
"""

from __future__ import annotations

import inspect
import tracemalloc

from repro.core.state import NodeRegistry
from repro.scenarios import Scenario, SimulationRunner

#: Events under measurement, after WARMUP_EVENTS untraced ones.
EVENTS = 3000
WARMUP_EVENTS = 300

#: Bound on traced heap growth per event, registry descriptors excluded.
#: Measured at 88.5 / 67.9 / 49.4 B/event for seeds 1 / 2 / 3 (Python
#: 3.11); an engine that retained one MaintenanceReport per event measured
#: 740.5 B/event on the seed-1 run.
MAX_BYTES_PER_EVENT = 200


def _growth_per_event(seed: int) -> float:
    # A small population keeps the traced run short; the engine is built
    # exactly as any scenario builds it, with no engine options.
    scenario = Scenario(max_size=256, initial_size=60, k=1.0, tau=0.1, seed=seed)
    engine = scenario.build_engine()
    runner = SimulationRunner(engine, scenario.build_source(engine))
    runner.run(WARMUP_EVENTS)

    lines, first = inspect.getsourcelines(NodeRegistry.register)
    register_file = inspect.getsourcefile(NodeRegistry)
    register_lines = range(first, first + len(lines))

    def retained(snapshot) -> int:
        return sum(
            trace.size
            for trace in snapshot.traces
            if not any(
                frame.filename == register_file and frame.lineno in register_lines
                for frame in trace.traceback
            )
        )

    # Two frames reach from an allocation inside a callee (the descriptor's
    # __init__, the id counter) back to the register line that made it.
    tracemalloc.start(2)
    try:
        before = retained(tracemalloc.take_snapshot())
        result = runner.run(EVENTS)
        after = retained(tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()
    assert result.events == EVENTS
    return (after - before) / result.events


def test_heap_growth_per_event_is_bounded():
    assert _growth_per_event(seed=1) < MAX_BYTES_PER_EVENT
