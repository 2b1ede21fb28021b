"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest jigbench -q

The closed-loop workloads promise that one seed always yields the same
simulated launches (so ``sim_us_per_col``, ``sim_speedup_vs_dense`` and
``kernel.launches`` repeat exactly), that another seed yields other
inputs, and that the output check catches a wrong answer.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from jigbench import graph_update, tile_serve
from jigbench.harness import END_TO_END, PER_LAYER, timed_setup

CLOSED_LOOP = [tile_serve, graph_update]


def one_round(wl, seed: int):
    """Build from cold and run one round of the workload's schedule."""
    inputs = wl.make_inputs(seed)
    env, _ = timed_setup(lambda scratch: wl.build(inputs, scratch), 1)
    try:
        log = wl.run_pass(env, inputs, 1e-3)
        assert not log.errors
        assert not wl.check(env, inputs, log)
        return inputs, env, log
    finally:
        env.close()


@pytest.mark.parametrize("wl", CLOSED_LOOP, ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def test_same_seed_repeats_simulated_launches(wl):
    runs = [one_round(wl, 11)[2] for _ in range(2)]
    a, b = (r.sim for r in runs)
    assert a.launches == b.launches > 0
    assert a.key() == b.key()
    assert a.us_per_col() == b.us_per_col()
    assert a.speedup() == b.speedup()
    assert runs[0].launches == runs[1].launches


def test_tile_serve_measures_the_paper_regime():
    _, _, log = one_round(tile_serve, 3)
    assert log.sim.speedup() > 1.0


def test_check_catches_a_wrong_output():
    inputs, env, log = one_round(graph_update, 5)
    log.outputs[0][0] = log.outputs[0][0].copy()
    log.outputs[0][0][0, 0] += np.float16(1.0)
    # The scratch plan cache is gone, but the graph oracle rebuilds from
    # the inputs, so the check still runs.
    assert graph_update.check(env, inputs, log)


@pytest.mark.parametrize("wl", CLOSED_LOOP, ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def test_different_seed_gives_different_inputs(wl):
    a, b = wl.make_inputs(1), wl.make_inputs(2)
    assert not all(np.array_equal(a.matrices[n], b.matrices[n]) for n in a.matrices)
    again = wl.make_inputs(1)
    assert all(np.array_equal(a.matrices[n], again.matrices[n]) for n in a.matrices)


def test_benchmark_json_matches_the_metric_catalogue():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["jigbench"]
    assert {w["name"] for w in spec["workloads"]} == {"tile_serve", "graph_update"}
    for section, catalogue in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
        assert listed == {k: (v[0], v[2]) for k, v in catalogue.items()}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
