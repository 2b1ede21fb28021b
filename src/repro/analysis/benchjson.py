"""Machine-readable serving-bench reports (``BENCH_serving.json``).

Every drill in :mod:`repro.bench` folds its scenario runs into a single
JSON document with schema ``repro.bench_serving/v1``::

    {
      "schema": "repro.bench_serving/v1",
      "scenarios": [
        {"name": "fifo", "requests": 60, "throughput_rps": ...,
         "latency_s": {"p50": ..., "p99": ...},
         "deadline_miss_rate": ..., "route_mix": {"jigsaw": ...},
         "throttled": 0, "promoted": 0},
        ...
      ],
      "comparison": {"baseline": "fifo", "contender": "edf_cost",
                     "baseline_miss_rate": ..., "contender_miss_rate": ...,
                     "miss_rate_improvement": ...,
                     "baseline_throughput_rps": ..., "contender_throughput_rps": ...,
                     "throughput_speedup": ...}
    }

CI schema-checks the artifact with ``python -m repro.obs --bench``; the
checker lives in :func:`repro.obs.validate.validate_bench_serving` so the
producer (this module) and the consumer share one contract.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.serve.stats import ServeStats

#: Version tag checked by the validator; bump on breaking changes.
BENCH_SERVING_SCHEMA = "repro.bench_serving/v1"


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (q in [0, 100]); 0.0 if empty."""
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def scenario_record(
    name: str,
    stats: ServeStats,
    latencies_s: list[float],
    wall_s: float,
    deadline_requests: int,
) -> dict:
    """One scenario's entry: throughput, tail latency, miss rate, route mix.

    ``latencies_s`` are per-request submit->result wall times measured by
    the caller; ``deadline_requests`` is how many submitted requests
    carried a deadline (the miss-rate denominator — ``deadline_expired``
    counts exactly the requests whose launch deadline passed).
    """
    return {
        "name": name,
        "requests": stats.requests,
        "throughput_rps": stats.requests / wall_s if wall_s > 0 else 0.0,
        "latency_s": {
            "p50": percentile(latencies_s, 50.0),
            "p99": percentile(latencies_s, 99.0),
        },
        "deadline_miss_rate": (
            stats.deadline_expired / deadline_requests if deadline_requests else 0.0
        ),
        "route_mix": {r: n for r, n in stats.route_counts.items()},
        "throttled": stats.throttled,
        "promoted": stats.promoted,
    }


def build_bench_serving(
    scenarios: list[dict],
    baseline: str | None = None,
    contender: str | None = None,
) -> dict:
    """Assemble the full document; adds a miss-rate and throughput
    comparison if both ``baseline`` and ``contender`` name a scenario."""
    doc: dict = {"schema": BENCH_SERVING_SCHEMA, "scenarios": list(scenarios)}
    if baseline is not None and contender is not None:
        by_name = {s["name"]: s for s in scenarios}
        base, cont = by_name[baseline], by_name[contender]
        doc["comparison"] = {
            "baseline": baseline,
            "contender": contender,
            "baseline_miss_rate": base["deadline_miss_rate"],
            "contender_miss_rate": cont["deadline_miss_rate"],
            "miss_rate_improvement": (
                base["deadline_miss_rate"] - cont["deadline_miss_rate"]
            ),
            "baseline_throughput_rps": base["throughput_rps"],
            "contender_throughput_rps": cont["throughput_rps"],
            "throughput_speedup": (
                cont["throughput_rps"] / base["throughput_rps"]
                if base["throughput_rps"] > 0
                else 0.0
            ),
        }
    return doc


def write_bench_serving(doc: dict, path: str | Path) -> Path:
    """Write the document as pretty-printed JSON; returns the path."""
    p = Path(path)
    p.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n")
    return p
