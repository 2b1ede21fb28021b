"""One benchmark run: set up, time a pass, check, report.

``--trace 0`` sets up :data:`SETUP_REPS` times from cold (median
``setup_s``), runs one untraced timed pass and reports the end-to-end
metrics.  ``--trace 1`` sets up once, runs an untraced pass and then a
traced pass of the same length, and reports the per-layer metrics; the
two passes' ratio is ``obs.trace_overhead_ratio``.  Outputs are checked
after the timed passes in both modes.
"""

from __future__ import annotations

from . import graph_update, tile_serve
from .harness import (
    END_TO_END,
    PER_LAYER,
    Probe,
    end_to_end,
    per_layer,
    tail,
    timed_setup,
    update_probe,
)

WORKLOADS = {m.__name__.rsplit(".", 1)[-1]: m for m in (tile_serve, graph_update)}

#: Cold set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns ``(result, errors, notes)``.

    ``result`` is the JSON object the benchmark prints last; ``notes``
    are extra human-readable lines (tail percentile, sample counts).
    """
    wl = WORKLOADS[name]
    inputs = wl.make_inputs(seed)
    reps = 1 if trace else SETUP_REPS
    env, setup_s = timed_setup(lambda scratch: wl.build(inputs, scratch), reps)
    notes: list[str] = []
    try:
        if not trace:
            log = wl.run_pass(env, inputs, seconds)
            update_ms = log.update_ms or update_probe(env, inputs.updates, log)
            errors = log.errors + wl.check(env, inputs, log)
            metrics = end_to_end(log, setup_s, update_ms)
            logs = [log]
            _, q, beyond = tail(log.latencies_ms)
            notes.append(
                f"latency_tail_ms is p{q} of {log.completed} requests "
                f"({beyond} beyond); update_p50_ms over {len(update_ms)} writes; "
                f"timed {log.seconds:.2f} s"
            )
        else:
            untraced = wl.run_pass(env, inputs, seconds)
            before, repairs_before = env.executor.stats(), env.registry.repairs
            with Probe(env.scheduler) as probe:
                log = wl.run_pass(env, inputs, seconds)
                if not log.update_ms:
                    update_probe(env, inputs.updates, log)
            after, repairs_after = env.executor.stats(), env.registry.repairs
            metrics, cross = per_layer(
                probe, log, untraced, before, after, env.preprocess_runs,
                repairs_before, repairs_after,
            )
            logs = [untraced, log]
            errors = (
                untraced.errors + wl.check(env, inputs, untraced)
                + log.errors + wl.check(env, inputs, log) + cross
            )
            notes.append(
                f"traced {log.completed} requests in {log.seconds:.2f} s, "
                f"untraced {untraced.completed} in {untraced.seconds:.2f} s; "
                f"{len(probe.tracer.buffer)} spans"
            )
    finally:
        env.close()
    catalogue = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not errors,
        "attempted": sum(x.attempted for x in logs),
        "failed": sum(x.failed for x in logs),
        "metrics": {
            k: {"value": float(metrics[k]), "unit": catalogue[k][0]} for k in catalogue
        },
    }
    return result, errors, notes


def table(result: dict, trace: bool) -> list[str]:
    """Human-readable metric lines: name, value, unit, clock domain."""
    catalogue = PER_LAYER if trace else END_TO_END
    return [
        f"{k:<34} {m['value']:>14.6g} {m['unit']:<9} {catalogue[k][1]}"
        for k, m in result["metrics"].items()
    ]


__all__ = ["WORKLOADS", "run_workload", "table"]
