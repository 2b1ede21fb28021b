"""The bench driver: one host clock for latency, one comparison builder."""

from time import perf_counter

import numpy as np

from repro.analysis import build_bench_serving
from repro.bench import make_matrix, timed_scenario
from repro.serve import PlanRegistry, SpmmRequest


class LeapingClock:
    """An executor clock that leaps an hour on every read."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 3600.0
        return self.t


def test_latency_is_host_submit_to_resolve(tmp_path):
    """Latency is measured on the driver's host clock, so neither the
    executor's clock nor simulated kernel µs can leak into it."""
    registry = PlanRegistry(cache_dir=tmp_path, block_tiles=(64,))
    registry.register("w", make_matrix(64, 128, 0.9, 4, seed=0))
    rng = np.random.default_rng(1)
    burst = [
        SpmmRequest("w", rng.standard_normal((128, 16)).astype(np.float16))
        for _ in range(4)
    ]
    t0 = perf_counter()
    record, stats, failed = timed_scenario(
        registry, {"clock": LeapingClock()}, None, [], [burst], name="leap"
    )
    host_s = perf_counter() - t0
    assert failed == 0 and record["requests"] == stats.requests == 4
    # The executor's clock puts hours of queue wait on every request; the
    # latency a client saw cannot exceed the host time the scenario took.
    assert stats.queue_wait_max_s >= 3600.0
    assert 0.0 < record["latency_s"]["p50"] <= record["latency_s"]["p99"] <= host_s


def test_comparison_carries_the_throughput_speedup():
    def scenario(name, rps):
        return {"name": name, "throughput_rps": rps, "deadline_miss_rate": 0.0}

    comp = build_bench_serving(
        [scenario("a", 2.0), scenario("b", 5.0)], baseline="a", contender="b"
    )["comparison"]
    assert comp["baseline_throughput_rps"] == 2.0
    assert comp["contender_throughput_rps"] == 5.0
    assert comp["throughput_speedup"] == 2.5
    stalled = build_bench_serving(
        [scenario("a", 0.0), scenario("b", 5.0)], baseline="a", contender="b"
    )["comparison"]
    assert stalled["throughput_speedup"] == 0.0
