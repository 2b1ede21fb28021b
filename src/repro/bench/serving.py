"""Single-process serving drills: batching, the A/B route drills,
SLO scheduling, and chaos."""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.analysis import build_bench_serving, scenario_record
from repro.core import JigsawPlan
from repro.faults import CLOSED, BreakerBoard, FaultPlan
from repro.sched import AdmissionController, CostModel, Scheduler
from repro.serve import FALLBACK_CHAIN, BatchExecutor, PlanRegistry, SpmmRequest

from .driver import (
    DrillResult,
    fmt_route_mix,
    make_matrix,
    make_venom_matrix,
    serve_burst,
    timed_scenario,
)

#: The A/B drills: ``(baseline, contender)``, each ``(scenario name,
#: route chain, cost-model explore_every or None for no scheduler)``.
#: Neither contender is pinned: its cost model has to discover the
#: faster route through its exploration cadence during warmup.
AB_DRILLS = {
    # Tile-pinned baseline (the compiled route cannot run) vs the full
    # chain; explore_every=8 discovers compiled during warmup, then
    # costs one re-probe launch per 8 decisions in steady state.
    "compiled": (
        ("tile", ("jigsaw", "hybrid", "dense"), None),
        ("compiled_cost", FALLBACK_CHAIN, 8),
    ),
    # Rigid 2:4 routes vs the chain that also offers jigsaw@vnm, on
    # VENOM-pruned matrices.  explore_every=4: the zoo has one more
    # route to visit, and probe #2 must reach jigsaw@vnm in the warmup.
    "formats": (
        ("rigid", tuple(r for r in FALLBACK_CHAIN if "@" not in r), 4),
        ("format_cost", FALLBACK_CHAIN, 4),
    ),
}


def _registry(
    *,
    matrices: int,
    m: int,
    k: int,
    sparsity: float,
    v: int,
    seed: int,
    budget_mb: float | None = None,
    workers: int | None = None,
    plan_cache: str | None = None,
    venom: tuple[int, int] | None = None,
    fault_plan: FaultPlan | None = None,
) -> tuple[PlanRegistry, dict[str, np.ndarray], str]:
    """A registry over ``w0..w{matrices-1}`` (VENOM V:2:M-pruned when
    ``venom=(V, M)``); returns it, the weights, and its cache dir."""
    cache_dir = plan_cache or tempfile.mkdtemp(prefix="jigsaw-bench-")
    registry = PlanRegistry(
        budget_bytes=budget_mb * (1 << 20) if budget_mb else None,
        cache_dir=cache_dir,
        workers=workers,
        fault_plan=fault_plan,
    )
    weights = {}
    for i in range(matrices):
        weights[f"w{i}"] = (
            make_venom_matrix(m, k, venom[0], 2, venom[1], seed + i)
            if venom
            else make_matrix(m, k, sparsity, v, seed + i)
        )
        registry.register(f"w{i}", weights[f"w{i}"])
    return registry, weights, cache_dir


def serve_drill(
    *,
    matrices: int,
    requests: int,
    m: int,
    k: int,
    n: int,
    sparsity: float,
    v: int,
    seed: int,
    max_batch: int,
    pool_workers: int,
    budget_mb: float | None = None,
    deadline_ms: float | None = None,
    workers: int | None = None,
    plan_cache: str | None = None,
) -> DrillResult:
    """One burst of synthetic traffic through the batched executor,
    against a sequential baseline of one ``plan.run`` per request.

    ``facts`` records both simulated kernel totals.
    """
    rng = np.random.default_rng(seed)
    registry, weights, cache_dir = _registry(
        matrices=matrices, m=m, k=k, sparsity=sparsity, v=v, seed=seed,
        budget_mb=budget_mb, workers=workers, plan_cache=plan_cache,
    )
    names = list(weights)
    reqs = [
        SpmmRequest(
            matrix=names[i % len(names)],
            b=rng.standard_normal((k, n)).astype(np.float16),
            deadline_s=deadline_ms / 1e3 if deadline_ms else None,
        )
        for i in range(requests)
    ]
    plans = {
        name: JigsawPlan(a, workers=workers, cache_dir=cache_dir)
        for name, a in weights.items()
    }
    seq_us = sum(
        plans[r.matrix].run(r.b, want_output=False).profile.duration_us for r in reqs
    )
    record, stats, failed = timed_scenario(
        registry,
        dict(max_batch=max_batch, max_workers=pool_workers),
        None,
        [],
        [reqs],
        name="serve",
    )
    batched_us = stats.batch_kernel_us_total
    speed = seq_us / batched_us if batched_us else float("inf")
    return DrillResult(
        doc=build_bench_serving([record]),
        ok=failed == 0,
        stats=stats,
        table=(
            ["comparison", "simulated kernel time"],
            [
                [f"sequential ({len(reqs)} launches)", f"{seq_us:.2f} us"],
                [f"batched ({stats.batches} launches)", f"{batched_us:.2f} us"],
                ["batching speedup", f"{speed:.2f}x"],
            ],
        ),
        facts={"sequential_kernel_us": seq_us, "batched_kernel_us": batched_us},
    )


def ab_drill(
    kind: str,
    *,
    matrices: int,
    requests: int,
    m: int,
    k: int,
    n: int,
    sparsity: float,
    v: int,
    seed: int,
    max_batch: int,
    pool_workers: int,
    warmup_rounds: int,
    venom_v: int,
    venom_m: int,
    budget_mb: float | None = None,
    workers: int | None = None,
    plan_cache: str | None = None,
) -> DrillResult:
    """Steady-state A/B drill ``kind`` (a key of :data:`AB_DRILLS`).

    Both scenarios serve identical rounds of one request per matrix:
    ``warmup_rounds`` untimed (formats built, compiled plans lowered,
    cost model converged), then ``requests // matrices`` timed.  The
    ``formats`` drill serves VENOM V:2:M-pruned matrices and adds a
    ``comparison.format_selection`` block: the contender's learned
    us/col per (matrix, route) and its route mix.
    """
    rng = np.random.default_rng(seed)
    registry, weights, _ = _registry(
        matrices=matrices, m=m, k=k, sparsity=sparsity, v=v, seed=seed,
        budget_mb=budget_mb, workers=workers, plan_cache=plan_cache,
        venom=(venom_v, venom_m) if kind == "formats" else None,
    )
    registry.warm()  # neither scenario pays reorder/IO inside the timed window

    def make_round():
        return [
            SpmmRequest(matrix=name, b=rng.standard_normal((k, n)).astype(np.float16))
            for name in weights
        ]

    warm_rounds = [make_round() for _ in range(warmup_rounds)]
    timed_rounds = [make_round() for _ in range(max(1, requests // len(weights)))]
    records, failed = [], 0
    for name, chain, explore_every in AB_DRILLS[kind]:
        sched = (
            Scheduler(cost_model=CostModel(explore_every=explore_every))
            if explore_every
            else None
        )
        record, stats, bad = timed_scenario(
            registry,
            dict(max_batch=max_batch, max_workers=pool_workers, chain=chain),
            sched,
            warm_rounds,
            timed_rounds,
            name=name,
        )
        records.append(record)
        failed += bad
    base, cont = records  # ``stats`` and ``sched`` are the contender's
    doc = build_bench_serving(records, baseline=base["name"], contender=cont["name"])
    if kind == "formats":
        doc["comparison"]["format_selection"] = {
            "venom_spec": f"vnm:{venom_v}:2:{venom_m}",
            "costs_us_per_col": sched.cost_model.snapshot(),
            "contender_route_mix": dict(cont["route_mix"]),
        }
    return DrillResult(
        doc=doc,
        ok=failed == 0,
        stats=stats,
        table=(
            ["steady-state serving", base["name"], cont["name"]],
            [
                [
                    "throughput",
                    f"{base['throughput_rps']:.1f} req/s",
                    f"{cont['throughput_rps']:.1f} req/s",
                ],
                [
                    "route mix",
                    fmt_route_mix(base["route_mix"]),
                    fmt_route_mix(cont["route_mix"]),
                ],
                [
                    "throughput speedup",
                    "1.00x",
                    f"{doc['comparison']['throughput_speedup']:.2f}x",
                ],
            ],
        ),
    )


def sched_drill(
    *,
    matrices: int,
    requests: int,
    m: int,
    k: int,
    n: int,
    sparsity: float,
    v: int,
    seed: int,
    max_batch: int,
    pool_workers: int,
    window_ms: float,
    deadline_ms: float,
    promote_margin_ms: float,
    bulk_rate: float | None,
    bulk_burst: float,
    workers: int | None = None,
    plan_cache: str | None = None,
) -> DrillResult:
    """SLO drill: FIFO baseline vs EDF + cost-model scheduling.

    A skewed two-tenant load (every 4th request is the interactive
    ``svc`` tenant with a launch deadline, the rest bulk traffic) is
    served twice with dispatch left to the linger window: once FIFO
    (no scheduler), once under a :class:`~repro.sched.Scheduler` whose
    EDF promotion dispatches deadline groups early.
    """
    rng = np.random.default_rng(seed)
    registry, _, _ = _registry(
        matrices=matrices, m=m, k=k, sparsity=sparsity, v=v, seed=seed,
        workers=workers, plan_cache=plan_cache,
    )
    registry.warm()  # both scenarios measure scheduling alone
    reqs = [
        SpmmRequest(
            matrix=f"w{i % matrices}",
            b=rng.standard_normal((k, n)).astype(np.float16),
            deadline_s=deadline_ms / 1e3 if i % 4 == 0 else None,
            tenant="svc" if i % 4 == 0 else "bulk",
        )
        for i in range(requests)
    ]
    executor_kwargs = dict(
        max_batch=max_batch, batch_window_s=window_ms / 1e3, max_workers=pool_workers
    )
    fifo, _, fifo_failed = timed_scenario(
        registry, executor_kwargs, None, [], [reqs], name="fifo", flush=False
    )
    # Built after the FIFO run, so the bulk token bucket starts full.
    admission = AdmissionController()
    admission.configure("svc", priority="interactive")
    admission.configure(
        "bulk", priority="best_effort", rate_per_s=bulk_rate, burst=bulk_burst
    )
    edf = Scheduler(
        admission=admission,
        cost_model=CostModel(),
        promote_margin_s=promote_margin_ms / 1e3,
    )
    cont, stats, edf_failed = timed_scenario(
        registry, executor_kwargs, edf, [], [reqs], name="edf_cost", flush=False
    )
    doc = build_bench_serving([fifo, cont], baseline="fifo", contender="edf_cost")
    comp = doc["comparison"]
    return DrillResult(
        doc=doc,
        ok=fifo_failed == edf_failed == 0,
        stats=stats,
        table=(
            ["scheduling", "fifo", "edf_cost"],
            [
                [
                    "deadline miss rate",
                    f"{comp['baseline_miss_rate']:.1%}",
                    f"{comp['contender_miss_rate']:.1%}",
                ],
                [
                    "p99 latency",
                    f"{fifo['latency_s']['p99'] * 1e3:.1f} ms",
                    f"{cont['latency_s']['p99'] * 1e3:.1f} ms",
                ],
                [
                    "throttled / promoted",
                    f"{fifo['throttled']} / {fifo['promoted']}",
                    f"{cont['throttled']} / {cont['promoted']}",
                ],
            ],
        ),
    )


def chaos_drill(
    *,
    matrices: int,
    requests: int,
    m: int,
    k: int,
    n: int,
    sparsity: float,
    v: int,
    seed: int,
    fault_rate: float,
    max_batch: int,
    pool_workers: int,
    breaker_threshold: int,
    breaker_cooldown_s: float,
    max_pending: int | None = None,
    workers: int | None = None,
    plan_cache: str | None = None,
) -> DrillResult:
    """Inject kernel faults + one corrupt artifact, then heal.

    The chaos phase serves ``requests`` with jigsaw kernel faults at
    ``fault_rate`` and one truncated on-disk artifact; the heal phase
    disables injection and serves ``requests`` more, so half-open
    breaker probes restore the fast path.  ``ok`` means no future
    raised in either phase; ``facts`` records the injected faults,
    quarantines, the heal phase's route counts and whether every
    breaker re-closed.
    """
    rng = np.random.default_rng(seed)
    fp = FaultPlan(seed=seed).add("executor.kernel.jigsaw", probability=fault_rate)
    fp.disable()  # armed only during the chaos phase
    registry, _, cache_dir = _registry(
        matrices=matrices, m=m, k=k, sparsity=sparsity, v=v, seed=seed,
        workers=workers, plan_cache=plan_cache, fault_plan=fp,
    )
    registry.warm()  # persist artifacts so there is something to corrupt
    artifacts = sorted(Path(cache_dir).glob("*.npz"))
    if artifacts:
        victim = artifacts[0]
        victim.write_bytes(victim.read_bytes()[: max(64, len(victim.read_bytes()) // 2)])
    registry.clear()  # force re-admission through the (corrupt) disk cache

    def burst():
        return [
            SpmmRequest(
                matrix=f"w{i % matrices}",
                b=rng.standard_normal((k, n)).astype(np.float16),
            )
            for i in range(requests)
        ]

    breakers = BreakerBoard(
        failure_threshold=breaker_threshold, cooldown_s=breaker_cooldown_s
    )
    with BatchExecutor(
        registry,
        max_batch=max_batch,
        max_workers=pool_workers,
        max_pending=max_pending,
        breakers=breakers,
        fault_plan=fp,
    ) as executor:
        fp.enable()
        t0 = perf_counter()
        chaos_lat, raised_chaos = serve_burst(executor, burst())
        wall_s = perf_counter() - t0
        chaos_stats = executor.stats()
        fp.disable()
        time.sleep(breaker_cooldown_s * 1.5)  # let probe windows open
        t0 = perf_counter()
        heal_lat, raised_heal = serve_burst(executor, burst())
        wall_s += perf_counter() - t0
        stats = executor.stats()

    routes = ("jigsaw", "hybrid", "dense")
    chaos_routes = {r: chaos_stats.route_counts.get(r, 0) for r in routes}
    heal_routes = {r: stats.route_counts.get(r, 0) - chaos_routes[r] for r in routes}
    reclosed = all(state == CLOSED for state in breakers.snapshot().values())
    return DrillResult(
        doc=build_bench_serving(
            [scenario_record("chaos_heal", stats, chaos_lat + heal_lat, wall_s, 0)]
        ),
        ok=raised_chaos == raised_heal == 0,
        stats=stats,
        table=(
            ["chaos drill", "value"],
            [
                ["faults injected", str(fp.total_fired)],
                ["chaos-phase futures raised", str(raised_chaos)],
                ["heal-phase futures raised", str(raised_heal)],
                ["chaos-phase routes (j/h/d)", "/".join(map(str, chaos_routes.values()))],
                ["heal-phase routes (j/h/d)", "/".join(map(str, heal_routes.values()))],
                ["artifacts quarantined", str(stats.quarantined)],
                ["breakers all re-closed", "yes" if reclosed else "no"],
            ],
        ),
        facts={
            "faults_injected": fp.total_fired,
            "heal_routes": heal_routes,
            "quarantined": stats.quarantined,
            "breakers_reclosed": reclosed,
        },
    )
