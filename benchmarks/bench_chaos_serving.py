"""Chaos benchmark — self-healing serving under injected faults.

The acceptance drill for the fault-injection harness, run through the
``chaos-bench`` drill (:func:`repro.bench.chaos_drill`): with >= 20% of
jigsaw kernel launches faulted *and* one on-disk plan artifact
corrupted,

* every request completes (zero raised futures) — transient faults are
  retried, persistent ones fall down the jigsaw -> hybrid -> dense
  chain;
* the corrupt artifact is quarantined and rebuilt transparently;
* once injection stops, half-open breaker probes restore the jigsaw
  fast path (breakers re-close).

That the harness is free when off is asserted by ``bench_serving.py``.
"""

from repro.bench import chaos_drill
from repro.core import load_jigsaw
from repro.obs import validate_bench_serving

from conftest import emit


def test_self_healing_under_kernel_faults_and_corrupt_artifact(tmp_path):
    """>= 20% jigsaw faults + one corrupt artifact: all served, quarantine
    + rebuild happens, and the breakers re-close once faults stop."""
    result = chaos_drill(
        matrices=2,
        requests=32,
        m=128,
        k=256,
        n=32,
        sparsity=0.9,
        v=8,
        seed=30,
        fault_rate=0.35,
        max_batch=4,
        pool_workers=4,
        breaker_threshold=2,
        breaker_cooldown_s=0.05,
        plan_cache=str(tmp_path),
    )
    emit("Chaos drill: 35% jigsaw faults + corrupt artifact", result.render())
    facts = result.facts

    assert result.ok  # zero raised futures in both phases
    assert validate_bench_serving(result.doc) == []
    # The chaos phase actually injected a meaningful fault volume.
    assert facts["faults_injected"] >= 2
    # Corrupt artifact quarantined and a fresh loadable one rebuilt.
    assert facts["quarantined"] == 1
    (victim,) = (tmp_path / "quarantine").glob("*.npz")
    load_jigsaw(tmp_path / victim.name)  # rebuilt in place, passes integrity check
    # Self-healing: breakers re-closed and the heal phase runs jigsaw.
    assert facts["breakers_reclosed"]
    assert facts["heal_routes"]["jigsaw"] > 0
