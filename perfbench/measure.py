"""Small measurement helpers: percentiles, machine speed, process CPU and memory, fingerprint."""

from __future__ import annotations

import bisect
import math
import os
import platform
import statistics
import time
from typing import Dict, List, Optional, Sequence

_TICKS = os.sysconf("SC_CLK_TCK")
_PAGE_KB = os.sysconf("SC_PAGE_SIZE") / 1024.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of the full list (``inf`` entries allowed).

    Requests that failed or never got an answer enter as ``inf``, so they
    count as missing any latency limit instead of dropping out.
    """
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def trimmed_mean(values: Sequence[float]) -> float:
    """Mean without the lowest and the highest value (the median below 4 values)."""
    if len(values) < 4:
        return statistics.median(values)
    return statistics.mean(sorted(values)[1:-1])


#: Seconds the reference kernel takes on the 2-CPU VM this benchmark was
#: built on: calibrated timings are expressed at this machine speed.
REFERENCE_KERNEL_S = 0.0008


def reference_kernel() -> int:
    """A fixed slice of interpreter work: dict updates, appends, a sort."""
    table: Dict[int, int] = {}
    items: List[int] = []
    for i in range(2500):
        key = (i * 7919) % 211
        table[key] = table.get(key, 0) + i
        items.append(key)
    items.sort()
    return len(table) + items[-1]


class Speedometer:
    """Samples how fast the machine runs the reference kernel, over time.

    On a shared machine the same code runs 20-35% faster or slower from one
    minute to the next, and faster or slower again within seconds, which
    swamps the differences a benchmark must see.  Timing the fixed
    :func:`reference_kernel` every ``every`` seconds, in the measured
    process and between its units of work, gives that process's speed
    through a measured segment.  A timing divided by :meth:`factor_at` its
    moment is expressed at the reference speed.

    The kernel runs in the measured process because its speed is what
    drifts: a probe in a process of its own tracked the program's load on
    the other CPU instead.  The price is that the kernel finds its data as
    the program left the caches: straight after an engine event it ran
    4-8% slower than on a warm second run, which bounds how far a change in
    the program's working set can move the factor.  A warm second run
    tracked the machine's drift worse (README: Calibrated timings).
    Callers keep all tick time (:attr:`spent`) out of what they measure.
    """

    #: Half-width (seconds) of the window of ticks one factor is taken over.
    WINDOW = 0.5

    def __init__(self, every: float = 0.1) -> None:
        self.every = every
        self.stamps: List[float] = []
        self.samples: List[float] = []

    def tick(self) -> None:
        """Time the kernel if ``every`` has passed since the last sample."""
        start = time.perf_counter()
        if self.stamps and start - self.stamps[-1] < self.every:
            return
        reference_kernel()
        end = time.perf_counter()
        self.stamps.append(end)
        self.samples.append(end - start)

    @property
    def spent(self) -> float:
        """Seconds spent in ticks so far."""
        return sum(self.samples)

    def factor(self) -> float:
        """Median kernel time over :data:`REFERENCE_KERNEL_S` (> 1: machine slow)."""
        return statistics.median(self.samples) / REFERENCE_KERNEL_S

    def factor_between(self, start: float, end: float) -> float:
        """:meth:`factor` over the ticks from ``start`` to ``end`` (all, if under 3)."""
        low = bisect.bisect_left(self.stamps, start)
        high = bisect.bisect_right(self.stamps, end)
        if high - low < 3:
            return self.factor()
        return statistics.median(self.samples[low:high]) / REFERENCE_KERNEL_S

    def factor_at(self, moment: float) -> float:
        """:meth:`factor` over the ticks within :data:`WINDOW` of ``moment``."""
        return self.factor_between(moment - self.WINDOW, moment + self.WINDOW)

    def calibrate(self, ends: Sequence[float], durations: Sequence[float]) -> List[float]:
        """``durations`` (ending at ``ends``) expressed at the reference speed."""
        return [d / self.factor_at(end) for end, d in zip(ends, durations)]


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a live process has used so far."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def rss_kb(pid: int) -> float:
    """Resident set size of a live process in KiB."""
    with open(f"/proc/{pid}/statm", "r", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * _PAGE_KB


def _git_commit(root: str) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, "r", encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint(root: str) -> Dict[str, object]:
    """What a result must carry to be compared with another machine's."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(root),
    }


def quartile_spread(values: List[float]) -> float:
    """(Q3 - Q1) / median, as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
