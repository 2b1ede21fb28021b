"""Serving drills: each is one plain function that runs a scenario and
returns a :class:`DrillResult` — the ``repro.bench_serving/v1`` document
and an ``ok`` verdict.

The ``repro`` CLI's bench subcommands parse flags, call a drill, print
``result.render()`` and exit 0 iff ``result.ok``; the serving benchmarks
call the same drills at small sizes and assert on the document.
:mod:`repro.bench.driver` is the one place a scenario is timed.
"""

from .driver import DrillResult, make_matrix, timed_scenario
from .graph import graph_drill
from .serving import ab_drill, chaos_drill, sched_drill, serve_drill
from .shard import shard_drill

__all__ = [
    "DrillResult",
    "ab_drill",
    "chaos_drill",
    "graph_drill",
    "make_matrix",
    "sched_drill",
    "serve_drill",
    "shard_drill",
    "timed_scenario",
]
