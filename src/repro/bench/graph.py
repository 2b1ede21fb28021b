"""Model-graph drill: pipelined vs sequential DAG execution with
dynamic-sparsity updates mid-stream, plus a repair-vs-rebuild check."""

from __future__ import annotations

import tempfile
from time import perf_counter

import numpy as np

from repro.analysis import build_bench_serving, scenario_record
from repro.core import JigsawPlan, roundtrip_equal
from repro.graph import INPUT, GraphExecutor, ModelGraph
from repro.serve import BatchExecutor, PlanRegistry

from .driver import DrillResult, make_matrix


def graph_drill(
    *,
    layers: int,
    requests: int,
    size: int,
    n: int,
    sparsity: float,
    v: int,
    seed: int,
    max_batch: int,
    window_ms: float,
    update_every: int,
    update_nnz: int,
    pool_workers: int,
    workers: int | None = None,
    plan_cache: str | None = None,
) -> DrillResult:
    """Run an encoder-style stack of vector-sparse layers through
    :class:`~repro.graph.GraphExecutor` twice — strictly sequentially,
    then pipelined — applying a registry update every ``update_every``
    requests.  ``ok`` means the pipelined outputs are bit-identical to
    the sequential ones; the ``graph`` block also records an
    incremental repair against a full rebuild of the same update.
    """
    rng = np.random.default_rng(seed)
    cache_dir = plan_cache or tempfile.mkdtemp(prefix="jigsaw-graph-")

    # Square layers; the default sparsity keeps the reorder succeeding,
    # so every layer serves on the jigsaw route.
    weights = [make_matrix(size, size, sparsity, v, seed + i) for i in range(layers)]
    graph = ModelGraph(input_cast="float16")
    prev = INPUT
    for i, w in enumerate(weights):
        node = graph.add_layer(
            f"enc{i}",
            weight=w,
            inputs=(prev,),
            activation="relu" if i < layers - 1 else "none",
            cast="float16",
        )
        prev = node.name
    panels = [rng.standard_normal((size, n)).astype(np.float16) for _ in range(requests)]

    # Updates rewrite already-nonzero entries in the first layer's
    # leading MMA tile (one dirty slab for any BLOCK_TILE), one value
    # batch per update point, so both scenarios replay one version history.
    upd_r, upd_c = (idx[:update_nnz] for idx in np.nonzero(weights[0][:16]))
    n_updates = (requests - 1) // update_every if update_every else 0
    upd_values = [
        rng.standard_normal(len(upd_r)).astype(np.float16) for _ in range(n_updates)
    ]

    def run_scenario(name: str, pipelined: bool):
        registry = PlanRegistry(cache_dir=cache_dir, workers=workers)
        graph.register(registry)
        registry.warm()
        # One executor config for both: the sequential run only ever has
        # one request in flight (singleton groups), the pipelined run
        # fills per-layer groups.  Batched launches compute each
        # request's columns independently, so grouping cannot change
        # outputs — which ``ok`` checks.
        with BatchExecutor(
            registry,
            max_batch=max_batch,
            batch_window_s=window_ms / 1e3,
            max_workers=pool_workers,
        ) as executor:
            gx = GraphExecutor(graph, executor)
            updates = iter(upd_values)
            results = []
            pending = []

            def drain() -> None:
                executor.flush()
                while pending:
                    results.append(pending.pop(0).result(timeout=180))
                    executor.flush()

            wall_t0 = perf_counter()
            for i, panel in enumerate(panels):
                if update_every and i and i % update_every == 0:
                    # Quiesce before the version bump so every request's
                    # layer chain runs against one content version.
                    drain()
                    registry.apply_update("enc0", upd_r, upd_c, next(updates))
                pending.append(gx.submit(panel))
                if not pipelined:
                    drain()
            drain()
            wall_s = perf_counter() - wall_t0
            stats = executor.stats()
        latencies = [r.duration_s for r in results]
        return scenario_record(name, stats, latencies, wall_s, 0), results

    seq, seq_results = run_scenario("graph_sequential", pipelined=False)
    pip, pip_results = run_scenario("graph_pipelined", pipelined=True)
    identical = all(
        np.array_equal(a.output, b.output) for a, b in zip(seq_results, pip_results)
    )

    # Repair vs rebuild: one update batch applied to a standalone plan
    # (incremental slab repair) against preprocessing the updated matrix
    # from scratch at the same content version.
    values = (
        upd_values[0]
        if upd_values
        else rng.standard_normal(len(upd_r)).astype(np.float16)
    )
    base_plan = JigsawPlan(weights[0], workers=workers)
    base_plan.format_for(JigsawPlan.FIXED_BLOCK_TILE)
    t0 = perf_counter()
    repaired_plan = base_plan.updated(upd_r, upd_c, values)
    repair_s = perf_counter() - t0
    rjm = repaired_plan.format_for(JigsawPlan.FIXED_BLOCK_TILE)
    a_new = weights[0].copy()
    a_new[upd_r, upd_c] = values.astype(np.float16)
    t0 = perf_counter()
    rebuilt_plan = JigsawPlan(
        a_new, workers=workers, content_version=repaired_plan.content_version
    )
    bjm = rebuilt_plan.format_for(JigsawPlan.FIXED_BLOCK_TILE)
    rebuild_s = perf_counter() - t0
    repair = repaired_plan.stats.runs[-1]

    doc = build_bench_serving(
        [seq, pip], baseline="graph_sequential", contender="graph_pipelined"
    )
    speedup = doc["comparison"]["throughput_speedup"]
    doc["graph"] = {
        "layers": layers,
        "concurrency": pool_workers,
        "requests": requests,
        "update_every": update_every,
        "sequential_rps": seq["throughput_rps"],
        "pipelined_rps": pip["throughput_rps"],
        "pipelined_speedup": speedup,
        "bit_identical": identical,
        "repair": {
            "repair_seconds": repair_s,
            "rebuild_seconds": rebuild_s,
            "repaired_slabs": repair.repaired_slabs,
            "total_slabs": repair.slabs,
            "bit_identical": roundtrip_equal(rjm, bjm),
        },
    }
    return DrillResult(
        doc=doc,
        ok=identical,
        table=(
            ["graph", "sequential", "pipelined"],
            [
                [
                    "throughput",
                    f"{seq['throughput_rps']:.2f} req/s",
                    f"{pip['throughput_rps']:.2f} req/s ({speedup:.2f}x)",
                ],
                [
                    "p99 latency",
                    f"{seq['latency_s']['p99'] * 1e3:.1f} ms",
                    f"{pip['latency_s']['p99'] * 1e3:.1f} ms",
                ],
                ["outputs bit-identical", "-", "yes" if identical else "NO"],
            ],
        ),
        notes=[
            f"repair: {repair.repaired_slabs}/{repair.slabs} slabs in "
            f"{repair_s * 1e3:.1f} ms vs full rebuild {rebuild_s * 1e3:.1f} ms "
            f"(bit-identical: {doc['graph']['repair']['bit_identical']})"
        ],
    )
