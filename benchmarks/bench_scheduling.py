"""SLO scheduling — EDF + cost-model serving vs the FIFO baseline.

The ``sched-bench`` drill (:func:`repro.bench.sched_drill`): a skewed
two-tenant load (a minority interactive tenant whose requests carry
launch deadlines well inside the batch linger window, a majority bulk
tenant without deadlines) is served twice through the same registry:
once FIFO (no scheduler — partial groups wait out the full linger
window, so every deadline passes before dispatch), once with the
:class:`repro.sched.Scheduler` (EDF promotion dispatches the deadline
groups early).  The deadline-miss rate must collapse, and the
``repro.bench_serving/v1`` report must pass the CI schema validator.
"""

from repro.bench import sched_drill
from repro.obs import validate_bench_serving

from conftest import emit

#: Generous real-clock margins so the contrast is robust on slow CI
#: machines: the linger window dwarfs the deadline, and the promotion
#: margin leaves dispatch plenty of room to launch inside it.
WINDOW_MS = 800.0
DEADLINE_MS = 250.0
PROMOTE_MARGIN_MS = 100.0


def test_edf_cost_scheduling_beats_fifo_on_deadline_misses(tmp_path):
    result = sched_drill(
        matrices=2,
        requests=24,
        m=128,
        k=256,
        n=32,
        sparsity=0.9,
        v=8,
        seed=9,
        max_batch=64,  # groups never fill: dispatch is the policy's call
        pool_workers=4,
        window_ms=WINDOW_MS,
        deadline_ms=DEADLINE_MS,
        promote_margin_ms=PROMOTE_MARGIN_MS,
        bulk_rate=None,
        bulk_burst=16.0,
        plan_cache=str(tmp_path),
    )
    assert result.ok
    doc = result.doc
    assert validate_bench_serving(doc) == []
    fifo, edf = doc["scenarios"]
    emit(
        "EDF + cost-model scheduling vs FIFO (skewed two-tenant load)",
        f"window {WINDOW_MS:.0f} ms, deadline {DEADLINE_MS:.0f} ms, "
        f"promote margin {PROMOTE_MARGIN_MS:.0f} ms\n\n" + result.render(),
    )

    # FIFO holds every deadline group for the full linger window, so the
    # deadline-carrying minority misses; EDF promotion rescues them.
    assert fifo["deadline_miss_rate"] == 1.0
    assert edf["deadline_miss_rate"] == 0.0
    assert edf["promoted"] == 6
    # The promoted requests ran the fast batched route, not the dense
    # expiry fallback FIFO degraded them to.
    assert fifo["route_mix"]["dense"] == 6
    assert edf["route_mix"]["dense"] == 0
