"""Mixing several event sources into one per-step stream.

Workloads (:mod:`repro.workloads.churn`) and adversaries
(:mod:`repro.adversary`) expose the same per-step interface — "give me the
next event for this system" — but adversaries receive an
:class:`~repro.adversary.base.AdversaryContext` while workloads receive the
engine directly.  :class:`MixedDriver` papers over that difference so an
experiment can interleave background churn with an attack; the step loop
itself is :class:`~repro.scenarios.runner.SimulationRunner`'s.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Tuple

from ..adversary.base import Adversary, AdversaryContext
from ..core.events import ChurnEvent
from ..errors import ConfigurationError


def _next_event(source, engine) -> Optional[ChurnEvent]:
    """Ask ``source`` (adversary, or anything with ``next_event(engine)``)."""
    if isinstance(source, Adversary):
        return source.next_event(AdversaryContext(engine))
    return source.next_event(engine)


class MixedDriver:
    """Interleaves several event sources with fixed probabilities.

    A typical experiment mixes background honest churn with an adversary's
    attack stream, e.g. ``MixedDriver([(workload, 0.7), (attack, 0.3)], rng)``.
    """

    def __init__(self, sources: Sequence[Tuple[object, float]], rng: random.Random) -> None:
        if not sources:
            raise ConfigurationError("MixedDriver requires at least one source")
        total = float(sum(weight for _, weight in sources))
        if total <= 0:
            raise ConfigurationError("source weights must sum to a positive value")
        self._sources = [(source, weight / total) for source, weight in sources]
        self._rng = rng

    def next_event(self, engine) -> Optional[ChurnEvent]:
        """Pick a source by weight and return its event (falling back to the others)."""
        order = sorted(self._sources, key=lambda _pair: self._rng.random())
        roll = self._rng.random()
        cumulative = 0.0
        chosen = None
        for source, weight in self._sources:
            cumulative += weight
            if roll <= cumulative:
                chosen = source
                break
        if chosen is None:
            chosen = self._sources[-1][0]
        event = _next_event(chosen, engine)
        if event is not None:
            return event
        # The chosen source is idle; give the others a chance this step.
        for source, _weight in order:
            if source is chosen:
                continue
            event = _next_event(source, engine)
            if event is not None:
                return event
        return None

    # ------------------------------------------------------------------
    # Checkpoint serialisation (repro.trace)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """JSON-ready snapshot: own RNG plus every underlying source's state."""
        from ..rng import rng_state_to_json  # local import: avoids a cycle

        return {
            "kind": type(self).__name__,
            "rng": rng_state_to_json(self._rng.getstate()),
            "sources": [source.snapshot_state() for source, _weight in self._sources],
        }

    def restore_state(self, data: dict) -> None:
        """Restore a snapshot onto a driver built with the same source specs."""
        from ..rng import rng_state_from_json

        if data.get("kind") != type(self).__name__:
            raise ConfigurationError(
                f"snapshot is for {data.get('kind')!r}, not {type(self).__name__!r}"
            )
        snapshots = data.get("sources", [])
        if len(snapshots) != len(self._sources):
            raise ConfigurationError(
                f"snapshot has {len(snapshots)} sources, driver has {len(self._sources)}"
            )
        self._rng.setstate(rng_state_from_json(data["rng"]))
        for (source, _weight), snapshot in zip(self._sources, snapshots):
            source.restore_state(snapshot)
