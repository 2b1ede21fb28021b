"""graph_update: a 4-layer sparse encoder with writes beside reads.

One client runs a :class:`repro.graph.ModelGraph` (attention in/out,
FFN up/down, residual join) through a pipelined
:class:`repro.graph.GraphExecutor` on a compiled-first, scheduled
executor, closed loop, in waves of a fixed number of outstanding
graph requests.  Every K-th graph request the client quiesces the executor and applies a
seeded ``PlanRegistry.apply_update`` that dirties 1-4 BLOCK_TILE slabs
of a rotating layer; the next write restores it, so every round of the
schedule serves the same content sequence.

This is the only workload with graph pipelining, slab repair
(``JigsawPlan.updated`` + ``repair_compiled``) and registry versioning
on the timed path.  A read-side gain that makes repair costlier shows
here.

Batch composition is seed-determined: every request of a wave has the
same width and ``max_batch`` divides the wave, so each layer's group
fills and launches without any flush or linger, whichever requests
happen to pair up.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.core import JigsawPlan
from repro.core.compiled import compiled_output
from repro.graph import INPUT, GraphExecutor, ModelGraph
from repro.sched import CostModel, Scheduler
from repro.serve import BatchExecutor, PlanRegistry, SpmmRequest

from .harness import (
    NEVER_LINGER_S,
    DenseTimes,
    PassLog,
    SimLedger,
    Update,
    clock,
    panel,
    quiesce_and_update,
    toggle_update,
    vector_sparse,
)

#: Matrix layers in order: name -> (M, K); d_model 512, FFN 1024.
LAYERS = {
    "attn_in": (512, 512),
    "attn_out": (512, 512),
    "ffn_up": (1024, 512),
    "ffn_down": (512, 1024),
}
SPARSITY, V = 0.9, 8
CHAIN = ("compiled", "jigsaw", "hybrid", "dense")
#: Outstanding graph requests per wave; ``max_batch`` divides it.
WAVE = 4
MAX_BATCH = 2
WIDTHS = (64, 128, 256)
WAVES_PER_ROUND = 48
#: Waves between writes (K = WAVE * UPDATE_EVERY graph requests).  Each
#: round perturbs and restores every layer once, in a seeded order.
UPDATE_EVERY = 6
#: BLOCK_TILE slabs each layer's write dirties.  Fixed per layer, so
#: every seed's round repairs the same amount of work, and the two
#: like-shaped attention layers share the middle cost, so the write
#: median falls inside one cohort rather than between two.
SLABS_DIRTIED = {"attn_in": 2, "attn_out": 2, "ffn_up": 1, "ffn_down": 4}
LIMIT_MS = 1000.0
WAVE_TIMEOUT_S = 60.0
WORKERS = min(2, os.cpu_count() or 1)


@dataclass
class Inputs:
    matrices: dict[str, np.ndarray]
    warm: dict[str, np.ndarray]
    #: Per wave: the wave's input panels (one width per wave).
    round: list[list[np.ndarray]]
    #: Writes in order; write j follows wave ``(j + 1) * UPDATE_EVERY``.
    updates: list[Update]


@dataclass
class Env:
    scratch: object
    registry: PlanRegistry
    executor: BatchExecutor
    graph: ModelGraph
    gexec: GraphExecutor
    preprocess_runs: list
    scheduler: Scheduler
    dense: DenseTimes = field(default_factory=DenseTimes)

    def close(self) -> None:
        self.executor.close()
        self.scratch.close()


def make_graph(matrices: dict[str, np.ndarray]) -> ModelGraph:
    g = ModelGraph()
    g.add_layer("attn_in", weight=matrices["attn_in"])
    g.add_layer("attn_out", weight=matrices["attn_out"], inputs="attn_in")
    g.add_layer("ffn_up", weight=matrices["ffn_up"], inputs="attn_out", activation="relu")
    g.add_layer("ffn_down", weight=matrices["ffn_down"], inputs="ffn_up")
    g.add_layer("residual", inputs=("attn_out", "ffn_down"))
    return g


def make_inputs(seed: int) -> Inputs:
    rng = np.random.default_rng([seed, 1])
    # Weights scaled by 1/sqrt(nonzeros per row) keep activations O(1)
    # through the four fp16 layers.
    matrices = {
        n: vector_sparse(rng, s, SPARSITY, V, scale=(s[1] * (1 - SPARSITY)) ** -0.5)
        for n, s in LAYERS.items()
    }
    warm = {n: panel(rng, s[1], WIDTHS[0]) for n, s in LAYERS.items()}
    d_model = LAYERS["attn_in"][1]
    # Stratified widths: every round serves the same width mix, in a
    # seeded order.
    widths = [WIDTHS[i % len(WIDTHS)] for i in range(WAVES_PER_ROUND)]
    waves = [
        [panel(rng, d_model, widths[i]) for _ in range(WAVE)]
        for i in rng.permutation(WAVES_PER_ROUND)
    ]
    updates = []
    for j in rng.permutation(len(LAYERS)):
        name = list(LAYERS)[j]
        updates.extend(toggle_update(rng, name, matrices[name], SLABS_DIRTIED[name], V))
    return Inputs(matrices, warm, waves, updates)


def build(inputs: Inputs, scratch) -> Env:
    """Register, preprocess cold (BLOCK_TILE 64), one launch per layer.

    The executor carries a :class:`~repro.sched.Scheduler` (EDF forming,
    a cost model without exploration, no rate limits), so the ``sched``
    layer is on this workload's path.  The registry has no plan cache: a
    write then costs the repair and the version swap, not an artifact
    store, whose disk time is the noisiest part of a write on a shared
    machine.  tile_serve's post-pass writes cover the plan cache.
    """
    registry = PlanRegistry(block_tiles=(64,), workers=1)
    scheduler = Scheduler(cost_model=CostModel(chain=CHAIN))
    executor = BatchExecutor(
        registry,
        max_batch=MAX_BATCH,
        batch_window_s=NEVER_LINGER_S,
        max_workers=WORKERS,
        scheduler=scheduler,
        chain=CHAIN,
    )
    graph = make_graph(inputs.matrices)
    graph.register(registry)
    runs = []
    for name in graph.matrices():
        plan = registry.get(name)
        executor.run([SpmmRequest(name, inputs.warm[name], version="v3")])
        runs.extend(plan.stats.runs)
    gexec = GraphExecutor(graph, executor, version="v3")
    return Env(scratch, registry, executor, graph, gexec, runs, scheduler)


def run_wave(gexec: GraphExecutor, panels: list[np.ndarray]):
    """Submit one wave of graph requests and wait for all of them.

    Returns ``(results, submit times, resolve times)``; a result is the
    request's ``(id, sink panel, routes)`` or the exception it raised,
    so the other layers' panels are freed as the round goes.
    """
    n = len(panels)
    done = threading.Semaphore(0)
    t_sub, t_done = [0.0] * n, [0.0] * n

    def resolved(_f, i):
        t_done[i] = clock()
        done.release()

    futures = []
    for i, x in enumerate(panels):
        t_sub[i] = clock()
        f = gexec.submit(x)
        f.add_done_callback(lambda f, i=i: resolved(f, i))
        futures.append(f)
    for _ in range(n):
        if not done.acquire(timeout=WAVE_TIMEOUT_S):
            raise RuntimeError("a graph wave did not complete; a layer group never filled")
    results = [
        f.exception() or (f.result().request_id, f.result().output, f.result().routes)
        for f in futures
    ]
    return results, t_sub, t_done


def run_pass(env: Env, inputs: Inputs, seconds: float) -> PassLog:
    log = PassLog(launches=0)
    per_wave = len(LAYERS) * WAVE // MAX_BATCH
    reference = None
    while log.seconds < seconds:
        first_batch = len(env.executor.batch_stats())
        waves = []
        t0 = clock()
        for w, panels in enumerate(inputs.round):
            waves.append(run_wave(env.gexec, panels))
            if (w + 1) % UPDATE_EVERY == 0:
                update = inputs.updates[(w + 1) // UPDATE_EVERY - 1]
                q_ms, total_ms = quiesce_and_update(env.executor, env.registry, update)
                log.quiesce_ms.append(q_ms)
                log.update_ms.append(total_ms)
                log.updates_applied += 1
        log.seconds += clock() - t0
        batches = env.executor.batch_stats()[first_batch:]
        if len(batches) != per_wave * len(waves):
            log.errors.append(f"{len(batches)} launches in a round of {len(waves)} waves")
        ledger, outputs = SimLedger(), []
        for w, (panels, (results, t_sub, t_done)) in enumerate(zip(inputs.round, waves)):
            width = panels[0].shape[1]
            outs = []
            for res, ts, td in zip(results, t_sub, t_done):
                log.attempted += 1
                if isinstance(res, BaseException):
                    log.failed += 1
                    log.errors.append(f"graph request failed: {res!r}")
                    outs.append(None)
                    continue
                request_id, output, routes = res
                lat_ms = (td - ts) * 1e3
                log.latencies_ms.append(lat_ms)
                log.within_limit += lat_ms <= LIMIT_MS
                log.graph_latency_s[request_id] = td - ts
                for node, route in routes.items():
                    if env.graph.nodes[node].matrix is not None:
                        log.routes[route] += 1
                outs.append(output)
            outputs.append(outs)
            for b in batches[w * per_wave : (w + 1) * per_wave]:
                if b.size != MAX_BATCH or b.route != "compiled":
                    log.errors.append(f"layer launch {b.matrix}: {b.size} x {b.route}")
                m, k = LAYERS[b.matrix]
                cols = b.size * width
                ledger.add(b.kernel_us, env.dense.us(m, k, cols), cols)
        log.launches += len(batches)
        log.cols += ledger.cols
        if reference is None:
            reference = (ledger.key(), outputs)
            log.sim = ledger
            log.outputs = outputs
        else:
            if ledger.key() != reference[0]:
                log.errors.append("a round's simulated launches differ from the first round's")
            for got, want in zip(outputs, reference[1]):
                if not all(
                    a is not None and b is not None and np.array_equal(a, b)
                    for a, b in zip(got, want)
                ):
                    log.errors.append("a round's outputs differ from the first round's")
    return log


def oracle_output(graph: ModelGraph, compiled: dict, x: np.ndarray) -> np.ndarray:
    """One graph request alone, layer by layer, on the given lowerings."""
    panels = {INPUT: x.astype(graph.input_cast)}
    for node in graph.topo_order():
        p = node.combined([panels[i] for i in node.inputs])
        if node.matrix is not None:
            p = compiled_output(compiled[node.matrix], p)
        panels[node.name] = node.apply_post(p)
    return panels[graph.output_node()]


def check(env: Env, inputs: Inputs, log: PassLog) -> list[str]:
    """The first round's outputs against single-request oracles.

    Each wave is replayed against the content version it ran on.  Each
    version's lowering comes from a fresh full build of that content
    (no plan cache, no repair), and the serving output must be
    bit-identical to it: the compiled route's determinism contract.
    """
    errors = []
    content = dict(inputs.matrices)
    lowered: dict[bytes, object] = {}

    def lowering(a: np.ndarray):
        key = hashlib.blake2b(a.tobytes(), digest_size=16).digest()
        if key not in lowered:
            lowered[key] = JigsawPlan(a, block_tiles=(64,), workers=1).compiled()
        return lowered[key]

    for w, (panels, outs) in enumerate(zip(inputs.round, log.outputs)):
        compiled = {name: lowering(a) for name, a in content.items()}
        for x, out in zip(panels, outs):
            if out is not None and not np.array_equal(out, oracle_output(env.graph, compiled, x)):
                errors.append(f"wave {w} width {x.shape[1]}: wrong graph output")
        if (w + 1) % UPDATE_EVERY == 0:
            u = inputs.updates[(w + 1) // UPDATE_EVERY - 1]
            content[u.matrix] = u.apply(content[u.matrix])
    return errors
