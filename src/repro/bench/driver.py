"""The one place a serving drill is timed.

Every drill in :mod:`repro.bench` generates its matrices with
:func:`make_matrix` / :func:`make_venom_matrix`.  The single-process
drills serve traffic through :func:`serve_burst` and time executor
scenarios with :func:`timed_scenario`; the graph and shard drills time
their own submit loops on the same clock.  Latency is host time end to
end: from just before a request's ``submit`` to the moment the driver
sees it resolve, on ``perf_counter``.  Simulated kernel µs never enter
it.
"""

from __future__ import annotations

from concurrent.futures import as_completed
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.analysis import render_serving, render_table, scenario_record
from repro.sched import Scheduler, ThrottledError
from repro.serve import BatchExecutor, PlanRegistry, RejectedError, ServeStats, SpmmRequest

#: How long the driver waits for one burst to resolve.
BURST_TIMEOUT_S = 180.0


@dataclass
class DrillResult:
    """What a drill hands back: its report, its verdict, and the facts
    the printed summary shows.

    ``doc`` is the ``repro.bench_serving/v1`` document; ``ok`` is the
    drill's acceptance verdict (the CLI exits 0 iff it holds).
    ``stats`` are the served stats the summary opens with, ``table``
    the drill's own ``(headers, rows)`` table, and ``notes`` trailing
    lines.  ``facts`` carries measurements outside the document schema
    that callers assert on.
    """

    doc: dict
    ok: bool
    stats: ServeStats | None = None
    table: tuple[list[str], list[list[str]]] | None = None
    notes: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    def render(self) -> str:
        parts = [render_serving(self.stats)] if self.stats is not None else []
        if self.table is not None:
            parts.append(render_table(*self.table))
        return "\n\n".join(parts + self.notes)


def make_matrix(m: int, k: int, sparsity: float, v: int, seed: int) -> np.ndarray:
    """A seeded (m, k) vector-sparse fp16 matrix: v-tall nonzero vectors
    over a random (m/v, k) mask at ``sparsity``."""
    from repro.data import expand_to_vector_sparse

    rng = np.random.default_rng(seed)
    base = rng.random((m // v, k)) >= sparsity
    return expand_to_vector_sparse(base, v, rng)


def make_venom_matrix(m: int, k: int, v: int, n: int, mm: int, seed: int) -> np.ndarray:
    """A seeded VENOM V:N:M-pruned matrix (n <= 2, so 2:4 routes apply too)."""
    from repro.formats import venom_prune

    rng = np.random.default_rng(seed)
    return venom_prune(rng.standard_normal((m, k)).astype(np.float16), v=v, n=n, m=mm)


def fmt_route_mix(mix: dict) -> str:
    return " ".join(f"{r}:{n}" for r, n in mix.items() if n)


def serve_burst(
    executor: BatchExecutor, burst: list[SpmmRequest], flush: bool = True
) -> tuple[list[float], int]:
    """Submit one burst and wait until every accepted request resolves.

    Returns the host submit -> resolve latency of each accepted request
    and how many of them failed.  Requests admission control turns away
    (throttled, shed) are skipped; the executor's stats count them.
    ``flush=False`` leaves dispatch to the linger window, which is what
    a scheduling drill measures.
    """
    submitted = {}
    for req in burst:
        t0 = perf_counter()
        try:
            submitted[executor.submit(req)] = t0
        except (ThrottledError, RejectedError):
            continue
    if flush:
        executor.flush()
    latencies, failed = [], 0
    for future in as_completed(submitted, timeout=BURST_TIMEOUT_S):
        latencies.append(perf_counter() - submitted[future])
        failed += future.exception() is not None
    return latencies, failed


def timed_scenario(
    registry: PlanRegistry,
    executor_kwargs: dict,
    scheduler: Scheduler | None,
    warm_bursts: list[list[SpmmRequest]],
    timed_bursts: list[list[SpmmRequest]],
    *,
    name: str,
    flush: bool = True,
) -> tuple[dict, ServeStats, int]:
    """Serve ``warm_bursts`` untimed, then time ``timed_bursts``.

    The warm bursts run in a throwaway executor: a scheduler's cost
    model carries its estimates over, while the timed executor's stats
    cover exactly the timed traffic.  Returns the scenario record, the
    timed stats, and the number of failed requests.
    """
    kwargs = dict(executor_kwargs, scheduler=scheduler)
    if warm_bursts:
        with BatchExecutor(registry, **kwargs) as executor:
            for burst in warm_bursts:
                serve_burst(executor, burst, flush)
    latencies, failed = [], 0
    with BatchExecutor(registry, **kwargs) as executor:
        t0 = perf_counter()
        for burst in timed_bursts:
            lat, bad = serve_burst(executor, burst, flush)
            latencies += lat
            failed += bad
        wall_s = perf_counter() - t0
        stats = executor.stats()
    deadline_requests = sum(
        1 for burst in timed_bursts for r in burst if r.deadline_s is not None
    )
    return scenario_record(name, stats, latencies, wall_s, deadline_requests), stats, failed
