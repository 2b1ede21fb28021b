"""Crash-recovery drill: a supervised shard fleet under process chaos."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.analysis import build_bench_serving, scenario_record
from repro.obs import SloPolicy, SloTracker, counter_by, export_alerts_jsonl, get_tracer
from repro.serve import BatchExecutor, PlanRegistry, SpmmRequest
from repro.shard import Supervisor

from .driver import DrillResult, fmt_route_mix, make_matrix


def shard_drill(
    *,
    workers: int,
    kill_every: int,
    matrices: int,
    requests: int,
    m: int,
    k: int,
    n: int,
    sparsity: float,
    v: int,
    seed: int,
    fault_seed: int,
    max_batch: int,
    pool_workers: int,
    max_redeliveries: int,
    miss_storm: int,
    slo_miss_budget: float,
    plan_cache: str | None = None,
    status_file: str | None = None,
    alerts_out: str | None = None,
    fleet_snapshot_out: str | None = None,
) -> DrillResult:
    """Serve through ``workers`` shard processes while every worker
    incarnation hard-dies (``os._exit``) after ``kill_every`` requests.

    ``ok`` holds when no non-poison request is lost, results are
    bit-identical to a single-process executor on the same cache
    (poisoned and storm requests excepted: they serve dense by design),
    the fleet-aggregated route mix is within its loss bound of ground
    truth, and a ``miss_storm`` fired at least one SLO alert.  The
    ``shard`` block records all of it, including the reorder runs in
    worker incarnations (respawns admit every plan from the shared
    on-disk cache, so it stays zero).
    """
    rng = np.random.default_rng(seed)
    cache_dir = plan_cache or tempfile.mkdtemp(prefix="jigsaw-shard-")
    # Pre-warm the shared plan cache: every worker incarnation, respawns
    # included, then admits its plans from disk (zero-reorder recovery).
    warm = PlanRegistry(cache_dir=cache_dir, block_tiles=(64,))
    weights = {}
    for i in range(matrices):
        weights[f"w{i}"] = make_matrix(m, k, sparsity, v, seed + i)
        warm.register(f"w{i}", weights[f"w{i}"])
    warm.warm()

    # version="v2" pins BLOCK_TILE=64: v4's autotune could pick different
    # tiles for different batch shapes and break the bit-identity check.
    # The first ``miss_storm`` requests carry an unmeetable deadline:
    # each serves dense as deadline_expired, a deterministic burn-rate
    # storm for the SLO tracker.
    storm = min(miss_storm, requests)
    reqs = [
        SpmmRequest(
            matrix=f"w{i % matrices}",
            b=rng.standard_normal((k, n)).astype(np.float16),
            version="v2",
            deadline_s=1e-6 if i < storm else None,
        )
        for i in range(requests)
    ]
    fault_sites = []
    if kill_every:
        fault_sites.append(
            {"site": "shard.kill", "probability": 1.0, "after": kill_every - 1, "count": 1}
        )
    slo = SloTracker(
        [SloPolicy(name="serving", deadline_miss_budget=slo_miss_budget, min_requests=5)],
        clock=perf_counter,  # the router feeds it its own clock domain
    )
    sup = Supervisor(
        workers=workers,
        cache_dir=cache_dir,
        max_redeliveries=max_redeliveries,
        fault_seed=fault_seed,
        fault_sites=fault_sites,
        traced=get_tracer().enabled,
        max_batch=max_batch,
        pool_workers=pool_workers,
        slo=slo,
        status_path=status_file,
    ).start()
    results: list = []
    latencies: list[float] = []
    try:
        sup.wait_ready()
        for name, a in weights.items():
            sup.router.register_matrix(name, a)
        wall_t0 = perf_counter()
        # Serial submission keeps the redelivery window tight: each kill
        # orphans at most one request, so recovery — not poison
        # escalation — is what the drill measures.
        for r in reqs:
            t0 = perf_counter()
            try:
                results.append(sup.router.submit(r).result(timeout=120))
                latencies.append(perf_counter() - t0)
            except Exception:
                results.append(None)
        wall_s = perf_counter() - wall_t0
        stats = sup.router.stats()
    finally:
        sup.stop()
    router = sup.router
    shard = {
        "workers": workers,
        "kill_every": kill_every,
        "crashes": sup.crashes,
        "respawns": sup.respawns,
        "redeliveries": router.redeliveries,
        "poisoned_matrices": sorted(router.poisoned_matrices),
        "poison_served": router.poison_served,
        "reorder_runs_workers": sum(router.worker_reorder_runs.values()),
    }

    # Post-stop the fleet registry is final: every surviving worker's bye
    # flushed its last delta; only crashed incarnations lost theirs.
    reg = router.fleet.registry
    fleet_mix = counter_by(reg, "repro_requests_total", "route", require=("shard",))
    fleet_total = int(sum(fleet_mix.values()))
    ground_truth = len(router.request_stats()) - router.poison_served
    # Undercount: unshipped final deltas of crashed incarnations;
    # overcount: redelivered requests served twice.
    slack = sup.crashes * max(kill_every, 1) + router.redeliveries
    fleet_ok = abs(fleet_total - ground_truth) <= slack
    shard["fleet"] = {
        "requests_total": fleet_total,
        "route_mix": {r: int(c) for r, c in sorted(fleet_mix.items())},
        "ground_truth_requests": ground_truth,
        "slack": slack,
        "within_bound": fleet_ok,
        "snapshots_ingested": router.fleet.snapshots_ingested,
        "ingest_errors": router.fleet.ingest_errors,
        "dropped_on_crash": router.fleet.dropped_on_crash,
    }
    shard["slo"] = {
        "miss_storm": storm,
        "alerts_fired": len(slo.alerts),
        "alerts_active_at_stop": len(slo.active_alerts()),
    }
    notes = []
    if alerts_out:
        export_alerts_jsonl(slo.alerts, alerts_out)
        notes.append(f"{len(slo.alerts)} SLO alerts written to {alerts_out}")
    if fleet_snapshot_out:
        Path(fleet_snapshot_out).write_text(
            json.dumps(reg.snapshot(), indent=2, sort_keys=True) + "\n"
        )
        notes.append(f"fleet metrics snapshot written to {fleet_snapshot_out}")

    # Bit-identity reference: the same requests through a single-process
    # executor over the same warm cache.
    mismatched = compared = 0
    with BatchExecutor(
        PlanRegistry(cache_dir=cache_dir, block_tiles=(64,)),
        max_batch=max_batch,
        max_workers=pool_workers,
    ) as reference:
        for name, a in weights.items():
            reference.registry.register(name, a)
        for i, (req, res) in enumerate(zip(reqs, results)):
            if res is None or i < storm or req.matrix in shard["poisoned_matrices"]:
                continue
            ref = reference.submit(
                SpmmRequest(matrix=req.matrix, b=req.b, version="v2")
            ).result(timeout=120)
            compared += 1
            mismatched += not np.array_equal(res.c, ref.c)
    lost = sum(1 for r in results if r is None)
    shard["lost"] = lost
    shard["bit_identical_compared"] = compared
    shard["bit_identical"] = mismatched == 0 and compared > 0
    doc = build_bench_serving([scenario_record("shard_chaos", stats, latencies, wall_s, 0)])
    doc["shard"] = shard
    storm_ok = storm == 0 or len(slo.alerts) >= 1
    return DrillResult(
        doc=doc,
        ok=lost == 0 and shard["bit_identical"] and fleet_ok and storm_ok,
        stats=stats,
        table=(
            ["crash recovery", "value"],
            [
                ["workers / kill-every", f"{workers} / {kill_every or 'off'}"],
                ["crashes / respawns", f"{sup.crashes} / {sup.respawns}"],
                ["redeliveries", str(shard["redeliveries"])],
                ["poisoned matrices", ",".join(shard["poisoned_matrices"]) or "none"],
                ["lost requests", str(lost)],
                [
                    "bit-identical vs single-process",
                    f"{'yes' if shard['bit_identical'] else 'no'} ({compared} compared)",
                ],
                ["worker reorder runs", str(shard["reorder_runs_workers"])],
                [
                    "fleet requests (ground truth)",
                    f"{fleet_total} ({ground_truth}, slack {slack})",
                ],
                ["fleet route mix", fmt_route_mix(shard["fleet"]["route_mix"])],
                [
                    "fleet deltas ingested / errors / dropped",
                    f"{router.fleet.snapshots_ingested} / "
                    f"{router.fleet.ingest_errors} / {router.fleet.dropped_on_crash}",
                ],
                ["SLO alerts fired (storm)", f"{len(slo.alerts)} ({storm})"],
            ],
        ),
        notes=notes,
    )
