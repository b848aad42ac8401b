"""Shared latency summaries: percentiles and run stats.

One implementation serves the offline experiment runner and benchmarks
(summarising a finished load run) and EXPLAIN ANALYZE's per-answer
delay profile (TTF / TT(k) / delay percentiles — the paper's own cost
model, Section 7).  The gateway's live fetch percentiles come from its
``repro_fetch_latency_seconds`` histogram instead
(:meth:`repro.obs.metrics.Histogram.quantiles`).
"""

from __future__ import annotations

from dataclasses import dataclass


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-th percentile of ``samples`` (nearest-rank method).

    Nearest-rank (as opposed to interpolation) reports a latency that
    some request actually experienced, the convention for serving tail
    latencies.  ``q`` is in percent, e.g. ``99`` for p99.
    """
    if not samples:
        raise ValueError("percentile of an empty sample set")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without math import
    return ordered[int(rank) - 1]


@dataclass
class LatencyStats:
    """Request-latency summary under (possibly concurrent) load."""

    count: int
    p50: float
    p95: float
    p99: float
    mean: float
    #: Total answers delivered across all timed requests.
    answers: int = 0
    #: Wall-clock of the whole load run (for throughput; 0 = unknown).
    elapsed: float = 0.0

    @classmethod
    def from_samples(
        cls,
        samples: list[float],
        answers: int = 0,
        elapsed: float = 0.0,
    ) -> "LatencyStats":
        """Summarise per-request latencies (seconds)."""
        return cls(
            count=len(samples),
            p50=percentile(samples, 50),
            p95=percentile(samples, 95),
            p99=percentile(samples, 99),
            mean=sum(samples) / len(samples),
            answers=answers,
            elapsed=elapsed,
        )

    @property
    def answers_per_second(self) -> float:
        """Aggregate throughput across the measured window."""
        return self.answers / self.elapsed if self.elapsed > 0 else 0.0

    def row(self) -> str:
        text = (
            f"{self.count:5d} fetches  "
            f"p50={self.p50 * 1e3:8.2f} ms  "
            f"p95={self.p95 * 1e3:8.2f} ms  "
            f"p99={self.p99 * 1e3:8.2f} ms"
        )
        if self.elapsed > 0:
            text += f"  {self.answers_per_second:10.0f} answers/s"
        return text

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "p50_ms": round(self.p50 * 1e3, 3),
            "p95_ms": round(self.p95 * 1e3, 3),
            "p99_ms": round(self.p99 * 1e3, 3),
            "mean_ms": round(self.mean * 1e3, 3),
            "answers": self.answers,
            "answers_per_second": round(self.answers_per_second, 1),
        }


def delay_profile(delays: list[float]) -> dict:
    """Summarise per-answer delays (seconds) as the paper reads them.

    ``delays[i]`` is the gap between answer ``i`` and its predecessor
    (``delays[0]`` is TTF measured from enumeration start).  Returned
    values are microseconds for the per-answer gaps — at flat-loop
    speeds individual delays sit well under a millisecond — and
    milliseconds for the cumulative TTF/TT(k) marks.
    """
    if not delays:
        return {
            "produced": 0,
            "ttf_ms": 0.0,
            "ttk_ms": 0.0,
            "delay_p50_us": 0.0,
            "delay_p95_us": 0.0,
            "delay_p99_us": 0.0,
            "delay_max_us": 0.0,
        }
    return {
        "produced": len(delays),
        "ttf_ms": round(delays[0] * 1e3, 4),
        "ttk_ms": round(sum(delays) * 1e3, 4),
        "delay_p50_us": round(percentile(delays, 50) * 1e6, 3),
        "delay_p95_us": round(percentile(delays, 95) * 1e6, 3),
        "delay_p99_us": round(percentile(delays, 99) * 1e6, 3),
        "delay_max_us": round(max(delays) * 1e6, 3),
    }
