"""Serving engine — batched execution and the budgeted plan registry.

The paper's amortization story (Sections 3.1, 4.5) pays the reorder once
and spreads it over many SpMM launches; this bench measures the
many-launch half with the ``serve-bench`` drill (:func:`repro.bench.serve_drill`):

* **Batching amortizes launches.**  Eight concurrent requests against
  one stationary matrix execute as a single concatenated-B launch, which
  must beat eight sequential ``plan.run`` launches on simulated kernel
  time (fixed per-launch overhead + wave quantization amortize).  With
  no fault plan armed, every resilience counter stays zero.
* **Eviction is a disk load, not a recompute.**  A registry whose byte
  budget is smaller than the working set keeps evicting, yet — after the
  drill's sequential baseline populates the on-disk plan cache — serves
  every request with ``reorder_runs == 0``.
"""

from repro.bench import serve_drill
from repro.obs import validate_bench_serving

from conftest import emit

SMALL = dict(k=512, n=64, sparsity=0.9, v=8, seed=3, pool_workers=4)


def test_batched_executor_beats_sequential(tmp_path):
    result = serve_drill(
        matrices=1, requests=8, m=256, max_batch=8, plan_cache=str(tmp_path), **SMALL
    )
    assert result.ok
    assert validate_bench_serving(result.doc) == []
    (record,) = result.doc["scenarios"]
    seq_us = result.facts["sequential_kernel_us"]
    batched_us = result.facts["batched_kernel_us"]
    emit("Batched serving vs sequential launches", result.render())

    assert record["route_mix"]["jigsaw"] == 8
    stats = result.stats
    assert stats.batches == 1
    assert batched_us < seq_us, f"batched {batched_us:.2f}us not faster than {seq_us:.2f}us"
    # Injection disabled: the hardened executor pays nothing for it.
    assert (stats.retries, stats.breaker_trips, stats.quarantined, stats.rejected) == (
        0,
        0,
        0,
        0,
    )


def test_registry_under_budget_serves_with_zero_reorders(tmp_path):
    # 0.05 MiB fits about one of the three 128x512 plans.
    result = serve_drill(
        matrices=3,
        requests=24,
        m=128,
        max_batch=4,
        budget_mb=0.05,
        plan_cache=str(tmp_path),
        **SMALL,
    )
    assert result.ok
    assert validate_bench_serving(result.doc) == []
    emit("Registry under budget (evictions re-admit from disk)", result.render())
    stats = result.stats
    assert stats.registry_evictions > 0, "budget never forced an eviction"
    assert stats.reorder_runs == 0, "eviction caused a recompute"
