"""Workload generators: the churn the experiments drive NOW with.

The paper's model allows one join or leave per time step, with the total size
staying inside ``[sqrt(N), N]`` while varying *polynomially*.  The workloads
here produce such event streams:

* :class:`UniformChurn`        — size-stable background churn (joins and
  leaves balanced), with the joining population corrupted at rate ``tau`` so
  the global Byzantine fraction stays constant,
* :class:`GrowthWorkload`      — monotone growth towards a target size (the
  ``sqrt(N) -> N`` polynomial expansion of E6),
* :class:`ShrinkWorkload`      — monotone shrink towards a target size,
* :class:`OscillatingWorkload` — repeated polynomial expansion/contraction,
* :class:`MixedDriver`         — interleave several event sources
  (workloads and adversaries share the same per-step interface); the
  :class:`~repro.scenarios.runner.SimulationRunner` drives it like any
  other source,
* :class:`PoissonArrivals` / :class:`LogNormalSessions` / arrival traces —
  wall-clock open-loop arrival schedules for the live service's load
  generator, optionally modulated by a :class:`DiurnalProfile`
  (:mod:`repro.workloads.arrivals`).
"""

from .arrivals import (
    Arrival,
    DiurnalProfile,
    LogNormalSessions,
    PoissonArrivals,
    load_arrival_trace,
    parse_mix,
    save_arrival_trace,
)
from .churn import (
    ChurnWorkload,
    GrowthWorkload,
    OscillatingWorkload,
    ShrinkWorkload,
    UniformChurn,
)
from .traces import MixedDriver

__all__ = [
    "ChurnWorkload",
    "UniformChurn",
    "GrowthWorkload",
    "ShrinkWorkload",
    "OscillatingWorkload",
    "MixedDriver",
    "Arrival",
    "DiurnalProfile",
    "LogNormalSessions",
    "PoissonArrivals",
    "load_arrival_trace",
    "parse_mix",
    "save_arrival_trace",
]
