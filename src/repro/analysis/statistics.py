"""Trajectory statistics for corruption fractions and cost series.

Long churn experiments produce per-time-step histories (worst cluster
corruption, cluster counts, operation costs).  The helpers here condense them
into the quantities the experiment tables report: maxima, means, quantiles,
exceedance counts and the fraction of time above a threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence


@dataclass(frozen=True)
class TrajectorySummary:
    """Summary statistics of a scalar time series."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p90: float
    p99: float
    threshold: float
    steps_above_threshold: int
    fraction_above_threshold: float

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view (used when rendering tables)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "threshold": self.threshold,
            "steps_above": self.steps_above_threshold,
            "fraction_above": self.fraction_above_threshold,
        }


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of an already sorted sequence."""
    if not sorted_values:
        return float("nan")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    q = min(1.0, max(0.0, q))
    position = q * (len(sorted_values) - 1)
    low = int(math.floor(position))
    high = int(math.ceil(position))
    if low == high:
        return float(sorted_values[low])
    weight = position - low
    return float(sorted_values[low] * (1.0 - weight) + sorted_values[high] * weight)


def summarize_values(values: Iterable[float], threshold: float = float("inf")) -> TrajectorySummary:
    """Summarise an arbitrary scalar series with an exceedance threshold."""
    series: List[float] = [float(value) for value in values]
    if not series:
        return TrajectorySummary(
            count=0,
            mean=0.0,
            minimum=0.0,
            maximum=0.0,
            p50=0.0,
            p90=0.0,
            p99=0.0,
            threshold=threshold,
            steps_above_threshold=0,
            fraction_above_threshold=0.0,
        )
    ordered = sorted(series)
    above = sum(1 for value in series if value >= threshold)
    return TrajectorySummary(
        count=len(series),
        mean=sum(series) / len(series),
        minimum=ordered[0],
        maximum=ordered[-1],
        p50=quantile(ordered, 0.50),
        p90=quantile(ordered, 0.90),
        p99=quantile(ordered, 0.99),
        threshold=threshold,
        steps_above_threshold=above,
        fraction_above_threshold=above / len(series),
    )


#: Default bound on retained sample points before deterministic decimation
#: (shared with the scenarios layer's probe ``series_cap`` default).
DEFAULT_SAMPLE_CAP = 4096


class QuantileSketch:
    """Streaming quantile estimator with bounded memory and no randomness.

    The estimator behind :class:`RunningSummary`'s percentiles, exposed
    standalone for consumers that only need quantiles (the service load
    generator reports p50/p95/p99 per operation over millions of request
    latencies).  While fewer than ``cap`` values have been pushed the sketch
    stores the full series and quantiles are **exact**; past the cap every
    second retained point is dropped and the keep-stride doubles, so memory
    stays ``O(cap)`` and quantiles come from a deterministic, evenly spaced
    subsequence of the stream.  Two identical streams always retain exactly
    the same points — there is no reservoir randomness to perturb a
    recorded run.

    The decimated subsequence is index-based (every ``stride``-th pushed
    value, oldest-aligned), so for streams whose values are not correlated
    with arrival order — latency samples, per-step fractions — it behaves
    like a uniform sample of the distribution.
    """

    __slots__ = ("count", "_cap", "_stride", "_sample", "_sorted_cache")

    def __init__(self, cap: int = DEFAULT_SAMPLE_CAP) -> None:
        if cap < 2:
            raise ValueError("cap must be >= 2")
        self.count = 0
        self._cap = cap
        self._stride = 1
        self._sample: List[float] = []
        self._sorted_cache: Optional[List[float]] = None

    def push(self, value: float) -> None:
        """Fold one observation into the sketch (O(1) amortised)."""
        index = self.count
        self.count += 1
        if index % self._stride == 0:
            self._sample.append(value)
            self._sorted_cache = None
            if len(self._sample) > self._cap:
                # Decimate: keep every second point, double the stride.
                del self._sample[1::2]
                self._stride *= 2

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (NaN when empty; exact below the cap)."""
        if self._sorted_cache is None:
            self._sorted_cache = sorted(self._sample)
        return quantile(self._sorted_cache, q)

    def quantiles(self, qs: Sequence[float]) -> List[float]:
        """Estimates for several quantiles over one shared sort."""
        return [self.quantile(q) for q in qs]

    @property
    def exact(self) -> bool:
        """Whether the retained sample is still the full series."""
        return self._stride == 1

    @property
    def series(self) -> List[float]:
        """The retained sample in arrival order (decimated past the cap)."""
        return list(self._sample)

    @property
    def stride(self) -> int:
        """Spacing between retained points (1 while the series is complete)."""
        return self._stride


class RunningSummary:
    """Streaming trajectory statistics with bounded memory.

    The streaming counterpart of :func:`summarize_values`: values are pushed
    one at a time and the summary is available at any point without the full
    series ever being stored.  Count, mean (Welford), variance, min, max and
    threshold exceedances are **exact**; quantiles come from a composed
    :class:`QuantileSketch` — exact while fewer than ``sample_cap`` values
    have been pushed, estimated from the sketch's deterministically
    decimated sample afterwards, so memory stays ``O(sample_cap)`` over
    arbitrarily long runs and two identical runs always retain the same
    points (no randomness — the observation path must not perturb
    trajectories).
    """

    __slots__ = (
        "count",
        "threshold",
        "steps_above_threshold",
        "minimum",
        "maximum",
        "last",
        "_mean",
        "_m2",
        "_sketch",
    )

    def __init__(
        self, threshold: float = float("inf"), sample_cap: int = DEFAULT_SAMPLE_CAP
    ) -> None:
        if sample_cap < 2:
            raise ValueError("sample_cap must be >= 2")
        self.count = 0
        self.threshold = threshold
        self.steps_above_threshold = 0
        self.minimum = 0.0
        self.maximum = 0.0
        self.last = 0.0
        self._mean = 0.0
        self._m2 = 0.0
        self._sketch = QuantileSketch(cap=sample_cap)

    def push(self, value) -> None:
        """Fold one observation into the running aggregates (O(1) amortised)."""
        if self.count == 0:
            self.minimum = value
            self.maximum = value
        else:
            if value < self.minimum:
                self.minimum = value
            if value > self.maximum:
                self.maximum = value
        self.count += 1
        self.last = value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value >= self.threshold:
            self.steps_above_threshold += 1
        self._sketch.push(value)

    @property
    def mean(self) -> float:
        """Exact running mean (0.0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Exact population variance (0.0 with fewer than two values)."""
        return self._m2 / self.count if self.count > 1 else 0.0

    @property
    def series(self) -> List[float]:
        """The retained sample: the full series while ``count <= sample_cap``,
        a stride-decimated subsequence (oldest-aligned) afterwards."""
        return self._sketch.series

    @property
    def series_stride(self) -> int:
        """Spacing between retained points (1 while the series is complete)."""
        return self._sketch.stride

    def summary(self) -> TrajectorySummary:
        """A :class:`TrajectorySummary` of everything pushed so far.

        Count, mean, min, max and exceedances (against the constructed
        ``threshold``) come from the exact running aggregates; p50/p90/p99
        from the retained sample (exact until the cap is exceeded, then
        approximate on the decimated subsequence).
        """
        if not self.count:
            return summarize_values([], threshold=self.threshold)
        return TrajectorySummary(
            count=self.count,
            mean=self.mean,
            minimum=self.minimum,
            maximum=self.maximum,
            p50=self._sketch.quantile(0.50),
            p90=self._sketch.quantile(0.90),
            p99=self._sketch.quantile(0.99),
            threshold=self.threshold,
            steps_above_threshold=self.steps_above_threshold,
            fraction_above_threshold=self.steps_above_threshold / self.count,
        )


@dataclass(frozen=True)
class MeanConfidence:
    """Mean of independent replicates with a normal-approximation CI.

    The experiment sweeps aggregate per-seed run metrics; with the usual
    handful of seeds the half-width uses the sample standard deviation and a
    fixed z (1.96 for 95%) — a deliberate normal approximation, documented in
    the sweep output, rather than a t-quantile (no scipy dependency).
    """

    count: int
    mean: float
    std: float
    half_width: float
    minimum: float
    maximum: float

    @property
    def lower(self) -> float:
        """Lower edge of the confidence interval."""
        return self.mean - self.half_width

    @property
    def upper(self) -> float:
        """Upper edge of the confidence interval."""
        return self.mean + self.half_width

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view (used when rendering sweep tables)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "half_width": self.half_width,
            "lower": self.lower,
            "upper": self.upper,
            "min": self.minimum,
            "max": self.maximum,
        }

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.half_width:.3f}"


def mean_confidence(values: Iterable[float], z: float = 1.96) -> MeanConfidence:
    """Mean, sample std and ``z``-score confidence half-width of replicates.

    A single replicate (or none) yields a zero half-width — there is no
    spread to estimate — so callers can render every aggregate uniformly.
    """
    series = [float(value) for value in values]
    if not series:
        return MeanConfidence(0, 0.0, 0.0, 0.0, 0.0, 0.0)
    mean = sum(series) / len(series)
    if len(series) == 1:
        return MeanConfidence(1, mean, 0.0, 0.0, series[0], series[0])
    variance = sum((value - mean) ** 2 for value in series) / (len(series) - 1)
    std = math.sqrt(variance)
    half_width = z * std / math.sqrt(len(series))
    return MeanConfidence(len(series), mean, std, half_width, min(series), max(series))


def longest_run_above(values: Iterable[float], threshold: float) -> int:
    """Length of the longest consecutive stretch at or above ``threshold``.

    Lemma 3 predicts that excursions above ``tau (1 + eps/2)`` are repaired
    within ``O(log N)`` exchanges; this statistic measures the observed
    excursion lengths.
    """
    longest = 0
    current = 0
    for value in values:
        if value >= threshold:
            current += 1
            longest = max(longest, current)
        else:
            current = 0
    return longest
