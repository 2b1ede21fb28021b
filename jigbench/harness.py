"""Shared machinery of the benchmark's workloads.

Everything here drives the program from outside through its public
API: the metric catalogue, cold set-up timing, latency statistics, the
simulated-time ledger, seeded dynamic-sparsity updates, and the
:class:`Probe` that instruments the traced pass with the benchmark's
own wrappers around public functions plus the program's ``repro.obs``
spans.
"""

from __future__ import annotations

import math
import resource
import shutil
import statistics
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.baselines.cublas import cublas_hgemm
from repro.core import JigsawPlan
from repro.core import api as core_api
from repro.core.compatibility import clear_cover_cache
from repro.core.kernels import base as kernel_base
from repro.data.pruning import vector_prune
from repro.obs import Tracer, set_tracer

#: The one host clock of the benchmark; the executor's default clock too,
#: so client timestamps and the program's span timestamps compare.
clock = time.perf_counter

#: Linger long enough that the dispatcher never flushes a partial group
#: on its own: closed-loop batches form only when a group fills or the
#: client flushes, so their composition depends on the seed alone.
NEVER_LINGER_S = 3600.0

#: End-to-end metrics: name -> (unit, clock domain, better).
END_TO_END: dict[str, tuple[str, str, str]] = {
    "setup_s": ("s", "host", "lower"),
    "throughput_rps": ("1/s", "host", "higher"),
    "latency_p50_ms": ("ms", "host", "lower"),
    "latency_tail_ms": ("ms", "host", "lower"),
    "slo_attain": ("ratio", "host", "higher"),
    "update_p50_ms": ("ms", "host", "lower"),
    "sim_us_per_col": ("us", "sim", "lower"),
    "sim_speedup_vs_dense": ("x", "sim", "higher"),
    "peak_rss_mb": ("MB", "host", "lower"),
}

#: Per-layer metrics of the traced pass: name -> (unit, clock, better).
PER_LAYER: dict[str, tuple[str, str, str]] = {
    "preprocess.reorder_s": ("s", "host", "lower"),
    "preprocess.compress_s": ("s", "host", "lower"),
    "preprocess.evictions": ("count", "host", "lower"),
    "preprocess.cover_cache_hit_rate": ("ratio", "host", "higher"),
    "preprocess.repair_ms_p50": ("ms", "host", "lower"),
    "preprocess.repaired_slab_share": ("ratio", "host", "lower"),
    "kernel.tile_ms_p50": ("ms", "host", "lower"),
    "kernel.tile_simulate_share": ("ratio", "host", "lower"),
    "kernel.compiled_us_per_col": ("us", "host", "lower"),
    "kernel.launches": ("count", "host", "lower"),
    "kernel.cols_per_launch": ("cols", "host", "higher"),
    "sim.smem_conflicts_per_launch": ("count", "sim", "lower"),
    "sim.gmem_sector_efficiency": ("ratio", "sim", "higher"),
    "sim.exposed_stall_share": ("ratio", "sim", "lower"),
    "serve.queue_wait_ms_p50": ("ms", "host", "lower"),
    "serve.stack_ms_p50": ("ms", "host", "lower"),
    "serve.batch_size_mean": ("requests", "host", "higher"),
    "registry.hit_rate": ("ratio", "host", "higher"),
    "route.jigsaw_share": ("ratio", "host", "higher"),
    "route.compiled_share": ("ratio", "host", "higher"),
    "route.hybrid_share": ("ratio", "host", "lower"),
    "route.dense_share": ("ratio", "host", "lower"),
    "serve.retries": ("count", "host", "lower"),
    "sched.admit_us_p50": ("us", "host", "lower"),
    "sched.plan_us_p50": ("us", "host", "lower"),
    "sched.promoted": ("count", "host", "higher"),
    "sched.throttled": ("count", "host", "lower"),
    "graph.layer_ms_p50": ("ms", "host", "lower"),
    "graph.quiesce_ms_p50": ("ms", "host", "lower"),
    "obs.trace_overhead_ratio": ("ratio", "host", "lower"),
}

#: Percentiles a tail is reported at, highest first.
TAIL_PERCENTILES = (99, 95, 90)
#: Samples a tail percentile needs beyond it to be reported.
TAIL_MIN_BEYOND = 10

#: Row-slab height of the seeded writes: the BLOCK_TILE=64 format every
#: workload builds, whose slabs a repair re-reorders.
UPDATE_BLOCK_TILE = 64
#: v-tall column vectors each write flips per slab.
VECTORS_PER_SLAB = 4


# -- inputs -------------------------------------------------------------------


def vector_sparse(
    rng: np.random.Generator, shape, sparsity: float, v: int, scale: float = 1.0
) -> np.ndarray:
    """A seeded fp16 weight matrix pruned in v-tall column vectors."""
    dense = (rng.standard_normal(shape) * scale).astype(np.float16)
    return vector_prune(dense, v, sparsity)


def panel(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    """A seeded fp16 dense B-panel."""
    return rng.standard_normal((k, n)).astype(np.float16)


@dataclass(frozen=True)
class Update:
    """One dynamic-sparsity write ``A[rows, cols] = values``."""

    matrix: str
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def apply(self, a: np.ndarray) -> np.ndarray:
        out = a.copy()
        out[self.rows, self.cols] = self.values
        return out


def toggle_update(
    rng: np.random.Generator,
    name: str,
    a: np.ndarray,
    n_slabs: int,
    v: int,
) -> tuple[Update, Update]:
    """A seeded prune/regrow write over ``n_slabs`` BLOCK_TILE row slabs
    of a matrix pruned in ``v``-tall vectors, and the write that
    restores the original content.

    Each touched v-tall column vector flips: a kept vector is pruned to
    zero, a pruned one regrows with fresh nonzero values, so the update
    changes the sparsity structure the reorder sees.
    """
    m, k = a.shape
    slabs = rng.choice(m // UPDATE_BLOCK_TILE, size=n_slabs, replace=False)
    picks: set[tuple[int, int]] = set()
    for s in slabs:
        chosen: set[tuple[int, int]] = set()
        while len(chosen) < VECTORS_PER_SLAB:
            r0 = int(s) * UPDATE_BLOCK_TILE + v * int(rng.integers(UPDATE_BLOCK_TILE // v))
            chosen.add((r0, int(rng.integers(k))))
        picks |= chosen
    rows = np.array([r0 + i for r0, _ in sorted(picks) for i in range(v)], np.int64)
    cols = np.array([c for _, c in sorted(picks) for _ in range(v)], np.int64)
    old = a[rows, cols]
    grown = rng.standard_normal(len(rows)).astype(np.float16)
    grown = np.where(np.abs(grown) < 0.05, np.float16(0.5), grown)
    new = np.where(old != 0, np.float16(0), grown).astype(np.float16)
    return Update(name, rows, cols, new), Update(name, rows, cols, old.copy())


# -- set-up --------------------------------------------------------------------


class Scratch:
    """A plan-cache directory inside the working directory, removed on close."""

    def __init__(self) -> None:
        self.path = Path(tempfile.mkdtemp(prefix=".jigbench-", dir=Path.cwd()))

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def timed_setup(build, reps: int):
    """Build the serving stack ``reps`` times from cold; keep the last.

    Every repetition starts with an empty plan cache (a fresh
    :class:`Scratch`) and an empty reorder cover cache, so each one pays
    the full cold preprocessing.  Returns ``(env, median seconds)``.
    """
    times: list[float] = []
    env = None
    for _ in range(reps):
        if env is not None:
            env.close()
        scratch = Scratch()
        clear_cover_cache()
        t0 = clock()
        env = build(scratch)
        times.append(clock() - t0)
    return env, statistics.median(times)


def update_probe(env, updates: list[Update], log: "PassLog") -> list[float]:
    """Time seeded writes to a plan that is resident and built, after a pass.

    :meth:`PlanRegistry.warm` first loads every BLOCK_TILE format of the
    target, so each write repairs real formats rather than an empty plan.
    """
    out = []
    for u in updates:
        env.registry.warm(u.matrix)
        log.warms += 1
        out.append(quiesce_and_update(env.executor, env.registry, u)[1])
        log.updates_applied += 1
    return out


def quiesce_and_update(executor, registry, update: Update) -> tuple[float, float]:
    """Drain in-flight work, then apply one write; ``(quiesce_ms, total_ms)``.

    The total runs from the decision to update until
    :meth:`PlanRegistry.apply_update` returns, after which reads are
    served by the new version.
    """
    t0 = clock()
    executor.flush()
    while executor.pending:
        time.sleep(1e-4)
    t1 = clock()
    registry.apply_update(update.matrix, update.rows, update.cols, update.values)
    t2 = clock()
    return (t1 - t0) * 1e3, (t2 - t0) * 1e3


# -- statistics ----------------------------------------------------------------


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def tail(values) -> tuple[float, int, int]:
    """``(value, percentile, samples beyond)``: the highest of p99/p95/p90
    with at least :data:`TAIL_MIN_BEYOND` samples beyond it (p90 when
    none has)."""
    n = len(values)
    for q in TAIL_PERCENTILES:
        beyond = int(n * (100 - q) / 100)
        if beyond >= TAIL_MIN_BEYOND:
            return pct(values, q), q, beyond
    return pct(values, 90), 90, int(n * 0.1)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class DenseTimes:
    """Simulated cuBLAS time per launch shape (a pure function of shape)."""

    def __init__(self) -> None:
        self._us: dict[tuple[int, int, int], float] = {}

    def us(self, m: int, k: int, n: int) -> float:
        key = (m, k, n)
        if key not in self._us:
            res = cublas_hgemm(
                np.zeros((m, k), np.float16), np.zeros((k, n), np.float16),
                want_output=False,
            )
            self._us[key] = res.profile.duration_us
        return self._us[key]


@dataclass
class SimLedger:
    """Simulated device time of a set of launches, Jigsaw beside cuBLAS.

    Sums use :func:`math.fsum`, which is exact and order-independent, so
    the same launches give the same figures whatever order threads
    finished them in.
    """

    jigsaw_us: list[float] = field(default_factory=list)
    dense_us: list[float] = field(default_factory=list)
    cols: int = 0

    def add(self, jigsaw_us: float, dense_us: float, cols: int) -> None:
        self.jigsaw_us.append(jigsaw_us)
        self.dense_us.append(dense_us)
        self.cols += cols

    @property
    def launches(self) -> int:
        return len(self.jigsaw_us)

    def key(self) -> tuple:
        """Order-independent identity of the launch set."""
        return (sorted(zip(self.jigsaw_us, self.dense_us)), self.cols)

    def us_per_col(self) -> float:
        return math.fsum(self.jigsaw_us) / self.cols

    def speedup(self) -> float:
        return math.fsum(self.dense_us) / math.fsum(self.jigsaw_us)


@dataclass
class PassLog:
    """What one timed pass did, as the load generator saw it."""

    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Client-side latency per completed request, ms.
    latencies_ms: list[float] = field(default_factory=list)
    #: Requests resolved, not failed, within the workload's latency limit.
    within_limit: int = 0
    #: The first round's launch set, which the sim metrics cover.
    sim: SimLedger = field(default_factory=SimLedger)
    #: Columns over every launch of the pass, and the launch count the
    #: benchmark predicts for it.
    cols: int = 0
    launches: int = 0
    update_ms: list[float] = field(default_factory=list)
    quiesce_ms: list[float] = field(default_factory=list)
    updates_applied: int = 0
    #: :meth:`PlanRegistry.warm` calls, one registry lookup each.
    warms: int = 0
    #: Served route per completed request.
    routes: Counter = field(default_factory=Counter)
    #: Client latency, from submit, keyed by the executor's request id.
    submit_latency_s: dict[int, float] = field(default_factory=dict)
    #: Client latency per graph request id.
    graph_latency_s: dict[int, float] = field(default_factory=dict)
    #: Outputs kept for the oracle check after the pass.
    outputs: list = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.latencies_ms)


def end_to_end(log: PassLog, setup_s: float, update_ms: list[float]) -> dict[str, float]:
    """The end-to-end metrics of one untraced pass."""
    return {
        "setup_s": setup_s,
        "throughput_rps": log.completed / log.seconds,
        "latency_p50_ms": pct(log.latencies_ms, 50),
        "latency_tail_ms": tail(log.latencies_ms)[0],
        "slo_attain": log.within_limit / log.attempted,
        "update_p50_ms": pct(update_ms, 50),
        "sim_us_per_col": log.sim.us_per_col(),
        "sim_speedup_vs_dense": log.sim.speedup(),
        "peak_rss_mb": peak_rss_mb(),
    }


# -- traced pass ---------------------------------------------------------------


@dataclass
class Launch:
    """One JigsawPlan launch seen by the probe."""

    route: str
    cols: int
    host_s: float
    profile: object


class Probe:
    """Instrumentation of the traced pass, installed from outside ``src``.

    Arms a :class:`repro.obs.Tracer` (the program's own spans), and
    wraps public entry points to time them: ``JigsawPlan.run`` /
    ``run_compiled`` (host time and simulated profile per launch),
    ``compute_output`` (the functional half of a tile launch),
    ``JigsawPlan.updated`` (repair records) and the scheduler's
    ``admit`` / ``plan_routes``.  Everything is restored on exit, so the
    untraced pass runs the program untouched.
    """

    def __init__(self, scheduler=None) -> None:
        self.scheduler = scheduler
        self.tracer = Tracer(clock=clock)
        self.launches: list[Launch] = []
        self.compute_s: list[float] = []
        self.repairs: list = []
        self.updates = 0
        self.admit_us: list[float] = []
        self.plan_us: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __enter__(self) -> "Probe":
        probe = self
        run, run_compiled, updated = JigsawPlan.run, JigsawPlan.run_compiled, JigsawPlan.updated

        def timed_run(plan, b, *args, **kwargs):
            t0 = clock()
            res = run(plan, b, *args, **kwargs)
            probe.launches.append(Launch("jigsaw", b.shape[1], clock() - t0, res.profile))
            return res

        def timed_run_compiled(plan, b, *args, **kwargs):
            t0 = clock()
            res = run_compiled(plan, b, *args, **kwargs)
            probe.launches.append(Launch("compiled", b.shape[1], clock() - t0, res.profile))
            return res

        def recorded_updated(plan, *args, **kwargs):
            new = updated(plan, *args, **kwargs)
            probe.updates += 1
            probe.repairs.extend(r for r in new.stats.runs if r.plan_cache == "repair")
            return new

        def timed_compute(fn):
            def wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    probe.compute_s.append(clock() - t0)

            return wrapper

        self._patch(JigsawPlan, "run", timed_run)
        self._patch(JigsawPlan, "run_compiled", timed_run_compiled)
        self._patch(JigsawPlan, "updated", recorded_updated)
        self._patch(core_api, "compute_output", timed_compute(core_api.compute_output))
        self._patch(kernel_base, "compute_output", timed_compute(kernel_base.compute_output))
        sched = self.scheduler
        if sched is not None:
            admit, plan_routes = sched.admit, sched.plan_routes

            def timed_admit(*args, **kwargs):
                t0 = clock()
                try:
                    return admit(*args, **kwargs)
                finally:
                    probe.admit_us.append((clock() - t0) * 1e6)

            def timed_plan(*args, **kwargs):
                t0 = clock()
                out = plan_routes(*args, **kwargs)
                probe.plan_us.append((clock() - t0) * 1e6)
                return out

            self._patch(sched, "admit", timed_admit)
            self._patch(sched, "plan_routes", timed_plan)
        self._previous_tracer = set_tracer(self.tracer)
        return self

    def __exit__(self, *exc_info) -> None:
        set_tracer(self._previous_tracer)
        for owner, name, value in reversed(self._saved):
            if isinstance(owner, type) or not hasattr(type(owner), name):
                setattr(owner, name, value)
            else:
                delattr(owner, name)  # drop the instance override
        self._saved.clear()


def children(spans: list) -> dict[str, list]:
    """``span_id -> child spans`` over one trace buffer."""
    out: dict[str, list] = {}
    for s in spans:
        if s.parent_id is not None:
            out.setdefault(s.parent_id, []).append(s)
    return out


def request_breakdown(spans: list, by_parent: dict) -> dict[int, tuple[float, float, float]]:
    """``request_id -> (request, queue, kernel)`` seconds from the
    program's ``serve.request`` span tree."""
    out = {}
    for s in spans:
        if s.name != "serve.request" or s.attrs.get("outcome") != "ok":
            continue
        queue = kernel = 0.0
        for child in by_parent.get(s.span_id, []):
            if child.name == "serve.queue":
                queue += child.duration_s
            elif child.name == "serve.batch":
                kernel += sum(
                    k.duration_s for k in by_parent.get(child.span_id, [])
                    if k.name == "serve.kernel"
                )
        out[s.attrs["request_id"]] = (s.duration_s, queue, kernel)
    return out


def serve_delta(before, after) -> dict:
    """Counters a pass added to :class:`repro.serve.ServeStats`."""
    return {
        "requests": after.requests - before.requests,
        "batches": after.batches - before.batches,
        "routes": Counter({
            r: after.route_counts[r] - before.route_counts[r]
            for r in after.route_counts
            if after.route_counts[r] - before.route_counts[r]
        }),
        "retries": after.retries - before.retries,
        "promoted": after.promoted - before.promoted,
        "throttled": after.throttled - before.throttled,
        "registry_hits": after.registry_hits - before.registry_hits,
        "registry_misses": after.registry_misses - before.registry_misses,
    }


def per_layer(
    probe: Probe,
    log: PassLog,
    untraced: PassLog,
    before,
    after,
    preprocess_runs: list,
    repairs_before: int,
    repairs_after: int,
) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of a traced pass, and the cross-check errors.

    The cross-check holds the program's counters to the benchmark's own
    log: launches and route mix, registry lookups (one per launch and
    per ``warm``), repairs, and the per-request time breakdown.
    """
    errors: list[str] = []
    d = serve_delta(before, after)
    tile = [x for x in probe.launches if x.route == "jigsaw"]
    compiled = [x for x in probe.launches if x.route == "compiled"]
    tile_s = math.fsum(x.host_s for x in tile)
    profiles = [x.profile for x in probe.launches]
    sectors = sum(p.gmem.load_sectors + p.gmem.store_sectors for p in profiles)
    useful = sum(p.gmem.useful_load_bytes + p.gmem.useful_store_bytes for p in profiles)
    stall = math.fsum(p.exposed_stall_cycles for p in profiles)
    cycles = math.fsum(p.duration_cycles for p in profiles)

    spans = probe.tracer.buffer.snapshot()
    by_parent = children(spans)
    breakdown = request_breakdown(spans, by_parent)
    stacks, queues = [], []
    for rid, (req_s, queue_s, kernel_s) in breakdown.items():
        stack_s = req_s - queue_s - kernel_s
        stacks.append(stack_s * 1e3)
        queues.append(queue_s * 1e3)
        if stack_s < -1e-6:
            errors.append(f"request {rid}: queue + kernel exceed its span")
        client = log.submit_latency_s.get(rid)
        if client is not None and req_s > client + 1e-6:
            errors.append(f"request {rid}: span {req_s:.6f}s > client latency {client:.6f}s")
    if log.submit_latency_s and len(breakdown) < len(log.submit_latency_s):
        errors.append(
            f"{len(log.submit_latency_s) - len(breakdown)} served requests have no span"
        )

    for g in (s for s in spans if s.name == "graph.request"):
        layers = by_parent.get(g.span_id, [])
        if abs(math.fsum(s.duration_s for s in layers) - g.duration_s) > 1e-6:
            errors.append(f"graph request {g.attrs['graph_request_id']}: layers != span")
        client = log.graph_latency_s.get(g.attrs["graph_request_id"])
        if client is None or g.duration_s > client + 1e-6:
            errors.append(f"graph request {g.attrs['graph_request_id']}: span exceeds client")

    served = sum(d["routes"].values())
    if d["routes"] != log.routes:
        errors.append(f"route mix {dict(d['routes'])} != request log {dict(log.routes)}")
    sparse_batches = d["batches"] - d["routes"].get("dense", 0)
    if len(probe.launches) != sparse_batches:
        errors.append(f"{len(probe.launches)} plan launches != {sparse_batches} ServeStats batches")
    if d["batches"] != log.launches:
        errors.append(f"ServeStats batches {d['batches']} != launch log {log.launches}")
    lookups = d["registry_hits"] + d["registry_misses"]
    if lookups != log.launches + log.warms:
        errors.append(
            f"registry hits + misses {lookups} != {log.launches} launches"
            f" + {log.warms} warms"
        )
    repairs = repairs_after - repairs_before
    if repairs != len(probe.repairs):
        errors.append(f"PlanStats repairs {repairs} != {len(probe.repairs)} formats repaired")
    if probe.updates != log.updates_applied:
        errors.append(f"{probe.updates} plan repairs != {log.updates_applied} updates applied")

    overhead = (untraced.completed / untraced.seconds) / (log.completed / log.seconds) - 1.0

    repaired = sum(r.repaired_slabs for r in probe.repairs)
    slabs = sum(r.slabs for r in probe.repairs)
    cover_hits = sum(r.cover_cache_hits for r in preprocess_runs)
    cover_lookups = cover_hits + sum(r.cover_cache_misses for r in preprocess_runs)
    metrics = {
        "preprocess.reorder_s": math.fsum(r.reorder_seconds for r in preprocess_runs),
        "preprocess.compress_s": math.fsum(r.compress_seconds for r in preprocess_runs),
        "preprocess.evictions": sum(r.evictions for r in preprocess_runs),
        "preprocess.cover_cache_hit_rate": cover_hits / cover_lookups if cover_lookups else 0.0,
        "preprocess.repair_ms_p50": pct([r.reorder_seconds * 1e3 for r in probe.repairs], 50),
        "preprocess.repaired_slab_share": repaired / slabs if slabs else 0.0,
        "kernel.tile_ms_p50": pct([x.host_s * 1e3 for x in tile], 50),
        "kernel.tile_simulate_share": 1.0 - math.fsum(probe.compute_s) / tile_s if tile_s else 0.0,
        "kernel.compiled_us_per_col": (
            math.fsum(x.host_s for x in compiled) * 1e6 / sum(x.cols for x in compiled)
            if compiled else 0.0
        ),
        "kernel.launches": log.sim.launches,
        "kernel.cols_per_launch": log.cols / log.launches,
        "sim.smem_conflicts_per_launch": (
            sum(p.smem.conflicts for p in profiles) / len(profiles) if profiles else 0.0
        ),
        "sim.gmem_sector_efficiency": useful / (32 * sectors) if sectors else 0.0,
        "sim.exposed_stall_share": stall / cycles if cycles else 0.0,
        "serve.queue_wait_ms_p50": pct(queues, 50),
        "serve.stack_ms_p50": pct(stacks, 50),
        "serve.batch_size_mean": d["requests"] / d["batches"] if d["batches"] else 0.0,
        "registry.hit_rate": d["registry_hits"] / lookups if lookups else 0.0,
        "route.jigsaw_share": d["routes"].get("jigsaw", 0) / served if served else 0.0,
        "route.compiled_share": d["routes"].get("compiled", 0) / served if served else 0.0,
        "route.hybrid_share": d["routes"].get("hybrid", 0) / served if served else 0.0,
        "route.dense_share": d["routes"].get("dense", 0) / served if served else 0.0,
        "serve.retries": d["retries"],
        "sched.admit_us_p50": pct(probe.admit_us, 50),
        "sched.plan_us_p50": pct(probe.plan_us, 50),
        "sched.promoted": d["promoted"],
        "sched.throttled": d["throttled"],
        "graph.layer_ms_p50": pct(
            [s.duration_s * 1e3 for s in spans if s.name == "graph.layer"], 50
        ),
        "graph.quiesce_ms_p50": pct(log.quiesce_ms, 50),
        "obs.trace_overhead_ratio": overhead,
    }
    return metrics, errors
