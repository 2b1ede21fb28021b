"""Shard chaos benchmark — crash recovery in the multi-process tier.

The acceptance drill for the supervised shard fleet (docs/sharding.md),
run through the ``shard-bench`` drill (:func:`repro.bench.shard_drill`):
with every worker incarnation hard-dying (``os._exit``) after serving K
requests,

* zero requests are lost — each orphaned in-flight request is
  redelivered to a live sibling or parked for the respawn;
* every result is bit-identical to a single-process executor over the
  same plan cache (``version="v2"`` pins the tile, so the comparison is
  exact, not approximate);
* no worker incarnation ever reorders — respawns admit every plan from
  the shared pre-warmed on-disk cache.
"""

from repro.bench import shard_drill
from repro.obs import validate_bench_serving

from conftest import emit


def test_crash_recovery_zero_lost_bit_identical(tmp_path):
    """Kill a worker every 3 requests: zero lost, bit-identical, zero
    reorder in any respawned incarnation."""
    result = shard_drill(
        workers=2,
        kill_every=3,
        matrices=3,
        requests=12,
        m=128,
        k=256,
        n=32,
        sparsity=0.9,
        v=8,
        seed=40,
        fault_seed=0,
        max_batch=8,
        pool_workers=2,
        max_redeliveries=3,
        miss_storm=0,
        slo_miss_budget=0.05,
        plan_cache=str(tmp_path),
    )
    emit("Shard chaos: kill-every-3 across 2 workers", result.render())
    assert validate_bench_serving(result.doc) == []
    shard = result.doc["shard"]
    assert result.ok
    assert shard["lost"] == 0
    assert shard["crashes"] >= 1 and shard["respawns"] >= 1  # the chaos happened
    assert not shard["poisoned_matrices"]  # serial traffic: recovery, not poison
    assert shard["reorder_runs_workers"] == 0  # respawns admit from the warm cache
    assert shard["bit_identical"] and shard["bit_identical_compared"] == 12
