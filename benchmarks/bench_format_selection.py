"""Format zoo — V:N:M plans vs the rigid-2:4 routes, and cost-model selection.

The tentpole claim of the format dimension: on VENOM-pruned matrices the
``jigsaw@vnm`` route streams less (no flat index array; per-panel column
choices amortized over V rows) and therefore simulates faster than the
rigid 2:4 routes — most at V=32, shrinking toward parity as V grows and
the 2:4 slab extraction becomes byte-isomorphic to the V:N:M layout.

Run through the ``serve-bench --compare-formats`` drill
(:func:`repro.bench.ab_drill`): the contender's
:class:`~repro.sched.CostModel` measures every route on served traffic
and must *discover* the ranking (no pinning), so its learned simulated
us/col per route is what this bench asserts on.
"""

import pytest

from repro.bench import ab_drill
from repro.obs import validate_bench_serving

from conftest import emit


@pytest.mark.parametrize("venom_v", [32, 64, 128])
def test_format_selection(venom_v, tmp_path):
    result = ab_drill(
        "formats",
        matrices=1,
        requests=4,
        m=768,
        k=2048,
        n=64,
        sparsity=0.9,
        v=8,
        seed=0,
        max_batch=8,
        pool_workers=4,
        warmup_rounds=10,
        venom_v=venom_v,
        venom_m=16,
        plan_cache=str(tmp_path),
    )
    assert result.ok
    assert validate_bench_serving(result.doc) == []
    sel = result.doc["comparison"]["format_selection"]
    costs = sel["costs_us_per_col"]["w0"]
    emit(
        f"Format zoo at V={venom_v}: learned simulated us/col per route",
        "\n".join(f"{r:>11} {us:.5f}" for r, us in sorted(costs.items()))
        + "\n\n"
        + result.render(),
    )

    # vnm never loses to the rigid tile-family routes, and wins outright
    # at V=32 (there the 2:4 slab routes merge two panels' column choices
    # per 64-row slab and stream the padded union; vnm fetches less).
    vnm = costs["jigsaw@vnm"]
    assert vnm <= costs["compiled"] * 1.001, costs
    assert vnm <= costs["jigsaw"] * 1.001, costs
    if venom_v == 32:
        assert vnm < costs["compiled"] * 0.97, costs
        mix = sel["contender_route_mix"]
        assert mix["jigsaw@vnm"] > sum(n for r, n in mix.items() if r != "jigsaw@vnm"), mix
