"""Span recording for the traced benchmark run.

The benchmark times calls into each layer's public functions from its own
code: :meth:`Tracer.instrument` replaces a method or module function with a
wrapper that opens a span (name, start, end, parent) around the call, and
:meth:`Tracer.restore` puts every original back.  Nothing in ``src/`` is
changed, so an untraced run executes exactly the program's own code.

Self time is computed as spans close: a span's duration minus the time its
child spans cover.  Totals are kept per span name for every span; the raw
spans themselves are kept up to ``keep`` of them, in memory, and written
out when the run ends (a traced churn run opens millions of spans, so
keeping all of them would cost more memory than the program under test).
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional


class SpanStats:
    """Running totals of one span name."""

    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Records nested spans around wrapped calls and aggregates self time.

    Only synchronous calls are wrapped, so spans nest strictly even when the
    caller is an asyncio coroutine: a wrapped call never yields to the loop.
    """

    def __init__(self, keep: int = 20_000) -> None:
        self.keep = keep
        self.stats: Dict[str, SpanStats] = {}
        self.spans: List[tuple] = []
        self.span_count = 0
        self._stack: List[list] = []
        self._patched: List[tuple] = []

    def stat(self, name: str) -> SpanStats:
        """Totals of ``name`` (all zero when no such span was recorded)."""
        return self.stats.get(name) or SpanStats()

    def wrap(
        self,
        fn: Callable,
        name: Any,
        observe: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """A wrapper of ``fn`` that records one span per call.

        ``name`` is a span name, or a callable mapping the call's arguments
        to one (``apply_event`` is split by event kind this way).
        ``observe(args, kwargs, result)`` runs after the call, outside the
        span's timing, to take counts from the call's inputs and result.
        """
        stack = self._stack
        perf = time.perf_counter
        namer = name if callable(name) else None

        def wrapper(*args, **kwargs):
            label = namer(*args, **kwargs) if namer is not None else name
            self.span_count += 1
            span_id = self.span_count
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0, perf()]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                start = frame[2]
                duration = end - start
                stats = self.stats.get(label)
                if stats is None:
                    stats = self.stats[label] = SpanStats()
                stats.calls += 1
                stats.total += duration
                stats.self_time += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(self.spans) < self.keep:
                    self.spans.append((span_id, parent, label, start, end))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def instrument(
        self,
        owner: Any,
        attribute: str,
        name: Any,
        observe: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attribute`` (a class or a module) with a span wrapper."""
        original = owner.__dict__[attribute]
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(original.__func__, name, observe))
        else:
            wrapped = self.wrap(original, name, observe)
        setattr(owner, attribute, wrapped)
        self._patched.append((owner, attribute, original))

    def restore(self) -> None:
        """Put every instrumented attribute back (newest first)."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def write_spans(self, path: str) -> None:
        """Write the kept spans as JSON lines (times in seconds)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, label, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": label, "start": start, "end": end}
                    )
                    + "\n"
                )

    def layer_self_times(self) -> Dict[str, float]:
        """Self seconds summed per layer (the span name up to its first dot)."""
        layers: Dict[str, float] = {}
        for label, stats in self.stats.items():
            layer = label.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + stats.self_time
        return layers
