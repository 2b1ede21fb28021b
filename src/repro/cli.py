"""Command-line interface: run SpMMs, inspect reorders, regenerate figures.

Examples::

    python -m repro spmm --m 1024 --k 1024 --n 512 --sparsity 0.95 --v 8
    python -m repro reorder --m 512 --k 512 --sparsity 0.9 --v 4 --block-tile 32
    python -m repro figure fig1
    python -m repro figure table3 --size 512
    python -m repro device
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Sequence

import numpy as np


def cmd_spmm(args: argparse.Namespace) -> int:
    """Time one SpMM on the requested systems."""
    from repro.analysis import render_table
    from repro.baselines import (
        clasp_spmm,
        cublas_hgemm,
        cusparse_spmm,
        magicube_spmm,
        sparta_spmm,
        sputnik_spmm,
        vectorsparse_spmm,
    )
    from repro.bench import make_matrix
    from repro.core import JigsawPlan

    a = make_matrix(args.m, args.k, args.sparsity, args.v, args.seed)
    rng = np.random.default_rng(args.seed + 1)
    b = rng.standard_normal((args.k, args.n)).astype(np.float16)

    runners = {
        "jigsaw": lambda: JigsawPlan(
            a, workers=args.workers, cache_dir=args.plan_cache
        ).run(b, want_output=False).profile,
        "cublas": lambda: cublas_hgemm(a, b, want_output=False).profile,
        "clasp": lambda: clasp_spmm(a, b, want_output=False).profile,
        "magicube": lambda: magicube_spmm(a, b, v=args.v, want_output=False).profile,
        "sputnik": lambda: sputnik_spmm(a, b, want_output=False).profile,
        "sparta": lambda: sparta_spmm(a, b, want_output=False).profile,
        "cusparse": lambda: cusparse_spmm(a, b, want_output=False).profile,
        "vectorsparse": lambda: vectorsparse_spmm(a, b, want_output=False).profile,
    }
    wanted = args.systems.split(",") if args.systems else ["jigsaw", "cublas"]
    unknown = [s for s in wanted if s not in runners]
    if unknown:
        print(f"unknown systems: {unknown}; choose from {sorted(runners)}", file=sys.stderr)
        return 2

    profiles = {name: runners[name]() for name in wanted}
    base = profiles.get("cublas")
    rows = []
    for name, p in sorted(profiles.items(), key=lambda kv: kv[1].duration_us):
        speed = f"{base.duration_us / p.duration_us:.2f}x" if base else "-"
        rows.append([name, f"{p.duration_us:.2f}", speed, p.bound, str(p.smem_bank_conflicts)])
    print(
        render_table(["system", "duration_us", "vs cuBLAS", "bound", "bank_conflicts"], rows)
    )
    return 0


def cmd_reorder(args: argparse.Namespace) -> int:
    """Inspect the multi-granularity reorder of one matrix."""
    from repro.analysis import render_preprocessing, render_table
    from repro.bench import make_matrix
    from repro.core import JigsawPlan

    a = make_matrix(args.m, args.k, args.sparsity, args.v, args.seed)
    plan = JigsawPlan(
        a,
        block_tiles=(args.block_tile,),
        workers=args.workers,
        cache_dir=args.plan_cache,
    )
    jm = plan.format_for(args.block_tile)
    r = jm.reorder
    print(f"matrix {args.m}x{args.k}, sparsity {args.sparsity:.0%}, v={args.v}")
    print(f"BLOCK_TILE={args.block_tile}: {len(jm.slabs)} slabs")
    print(f"reorder success (K not grown): {jm.reorder_success}")
    print(f"zero-column work skipped: {r.skipped_column_fraction:.1%}")
    print(f"retry evictions: {r.total_evictions}")
    sizes = jm.storage_bytes()
    rows = [[key, str(val)] for key, val in sizes.items()]
    rows.append(["dense equivalent", str(jm.dense_bytes())])
    print(render_table(["component", "bytes"], rows))
    if plan.stats.runs:
        print()
        print(render_preprocessing(plan.stats.runs[-1]))
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    """Regenerate one of the paper's figures/tables (reduced grids)."""
    from repro import analysis as an
    from repro.data import DlmcDataset

    name = args.name
    size = args.size
    if name == "fig1":
        ds = DlmcDataset(methods=("random",))
        print(an.render_fig1(an.build_fig1(dataset=ds)))
    elif name == "fig10":
        series = an.build_fig10(
            sparsities=(0.8, 0.95),
            vector_widths=(2, 8),
            n_values=(256, 512, 1024),
            shapes=((size, size),),
        )
        print(an.render_fig10(series))
    elif name == "fig11":
        print(an.render_fig11(an.build_fig11(max_matrices=args.max_matrices)))
    elif name == "fig12":
        print(an.render_fig12(an.build_fig12(shapes=((size, size),), n_values=(256, 512))))
    elif name == "table2":
        rows = an.build_table2(
            n_values=(256, 1024), shapes=((size, size),)
        )
        print(an.render_table2(rows))
    elif name == "table3":
        print(an.render_table3(an.build_table3(shape=(size, size), n=size)))
    elif name == "overhead":
        print(
            an.render_overhead(
                {bt: an.paper_overhead_model(bt) for bt in (16, 32, 64)}
            )
        )
    else:  # pragma: no cover - argparse choices guard this
        return 2
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    """Speed-of-light style report of one Jigsaw launch."""
    from repro.bench import make_matrix
    from repro.core import JigsawPlan
    from repro.gpu import render_timeline

    a = make_matrix(args.m, args.k, args.sparsity, args.v, args.seed)
    rng = np.random.default_rng(args.seed + 1)
    b = rng.standard_normal((args.k, args.n)).astype(np.float16)
    plan = JigsawPlan(a, workers=args.workers, cache_dir=args.plan_cache)
    res = plan.run(b, version=args.version, want_output=False)
    print(render_timeline(res.profile))
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    """Regenerate every paper artifact in one run (reduced grids)."""
    import io

    from repro import analysis as an
    from repro.data import DlmcDataset

    out = io.StringIO()

    def block(title, body):
        bar = "=" * max(len(title), 20)
        out.write(f"{bar}\n{title}\n{bar}\n{body}\n\n")

    size = args.size
    block(
        "Figure 1: native 2:4 support",
        an.render_fig1(an.build_fig1(dataset=DlmcDataset(methods=("random",)))),
    )
    block(
        "Figure 10: speedup over cuBLAS",
        an.render_fig10(
            an.build_fig10(
                sparsities=(0.8, 0.95),
                vector_widths=(2, 8),
                n_values=(256, 1024),
                shapes=((size, size),),
            )
        ),
    )
    block(
        "Figure 11: reorder success",
        an.render_fig11(an.build_fig11(max_matrices=args.max_matrices)),
    )
    block(
        "Figure 12: ablation v0..v4",
        an.render_fig12(an.build_fig12(shapes=((size, size),), n_values=(256, 1024))),
    )
    block(
        "Table 2: avg/max speedups",
        an.render_table2(
            an.build_table2(n_values=(256, 1024), shapes=((size, size),))
        ),
    )
    block(
        "Table 3: vs VENOM / cuSparseLt",
        an.render_table3(an.build_table3(shape=(1024, 1024), n=1024)),
    )
    block(
        "Section 4.6: memory overhead (paper model)",
        an.render_overhead({bt: an.paper_overhead_model(bt) for bt in (16, 32, 64)}),
    )
    text = out.getvalue()
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(text)
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


@contextmanager
def _observability(args: argparse.Namespace):
    """Arm tracing + a fresh metrics registry for one CLI run.

    Active only when ``--trace-out`` or ``--metrics-out`` was given;
    otherwise the process keeps the disarmed :data:`NULL_TRACER` and the
    command pays no tracing cost.  On exit the artifacts are written,
    the dashboard is printed, and the previous tracer/registry are
    restored even if the command raised.
    """
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if not trace_out and not metrics_out:
        yield None
        return

    from repro.analysis import render_dashboard
    from repro.obs import (
        MetricsRegistry,
        Tracer,
        export_metrics,
        export_spans_jsonl,
        set_metrics,
        set_tracer,
    )

    tracer = Tracer()
    registry = MetricsRegistry()
    prev_tracer = set_tracer(tracer)
    prev_metrics = set_metrics(registry)
    try:
        yield tracer
    finally:
        set_tracer(prev_tracer)
        set_metrics(prev_metrics)
        print()
        print(render_dashboard(metrics=registry, spans=tracer))
        if trace_out:
            n = export_spans_jsonl(tracer, trace_out)
            print(f"\n{n} spans written to {trace_out}")
        if metrics_out:
            export_metrics(registry, metrics_out)
            print(f"metrics written to {metrics_out}")


def _run_drill(args: argparse.Namespace, drill, *pos) -> int:
    """Run one :mod:`repro.bench` drill under the run's observability.

    A drill's keyword parameters are named after the subcommand's flags,
    so each parameter takes its flag's value.  Prints the drill's
    summary, writes ``--bench-json``, and exits 0 iff the drill's
    verdict holds.
    """
    import inspect

    from repro.analysis import write_bench_serving

    params = inspect.signature(drill).parameters
    with _observability(args):
        result = drill(*pos, **{k: v for k, v in vars(args).items() if k in params})
        print(result.render())
        if getattr(args, "bench_json", None):
            path = write_bench_serving(result.doc, args.bench_json)
            print(f"\nbench report written to {path}")
    return 0 if result.ok else 1


def cmd_serve_bench(args: argparse.Namespace) -> int:
    """Drive the serving engine with synthetic traffic and report stats;
    ``--compare-compiled`` / ``--compare-formats`` run the A/B drills."""
    from repro.bench import ab_drill, serve_drill

    if args.compare_formats or args.compare_compiled:
        kind = "formats" if args.compare_formats else "compiled"
        return _run_drill(args, ab_drill, kind)
    return _run_drill(args, serve_drill)


def cmd_sched_bench(args: argparse.Namespace) -> int:
    """SLO drill: FIFO baseline vs EDF + cost-model scheduling."""
    from repro.bench import sched_drill

    return _run_drill(args, sched_drill)


def cmd_graph_bench(args: argparse.Namespace) -> int:
    """Model-graph drill: pipelined vs sequential DAG execution."""
    from repro.bench import graph_drill

    return _run_drill(args, graph_drill)


def cmd_chaos_bench(args: argparse.Namespace) -> int:
    """Chaos drill: inject kernel faults + one corrupt artifact, then heal."""
    from repro.bench import chaos_drill

    return _run_drill(args, chaos_drill)


def cmd_shard_bench(args: argparse.Namespace) -> int:
    """Crash-recovery drill: a supervised shard fleet under process chaos."""
    from repro.bench import shard_drill

    return _run_drill(args, shard_drill)


def _read_fleet_status(path: str) -> dict | None:
    import json
    from pathlib import Path

    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError):
        # Mid-replace reads cannot happen (the supervisor writes via
        # os.replace), but the file may simply not exist yet.
        return None


def cmd_fleet_status(args: argparse.Namespace) -> int:
    """One-shot JSON dump of the supervisor's fleet status document."""
    import json

    doc = _read_fleet_status(args.status_file)
    if doc is None:
        print(f"no fleet status at {args.status_file}", file=sys.stderr)
        return 2
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live fleet dashboard: poll the status file, render, repeat.

    Keys (press Enter after each): ``q`` quit, ``p`` pause/resume the
    refresh, ``r`` refresh immediately.  Non-interactive stdin (pipes,
    CI) just polls on ``--interval``; ``--once`` renders a single frame
    and exits (2 if the status file is missing).
    """
    import select
    import time as _time

    from repro.analysis import render_fleet_top

    interactive = sys.stdin.isatty() and not args.once
    paused = False
    doc = None
    while True:
        if not paused:
            doc = _read_fleet_status(args.status_file)
            if sys.stdout.isatty() and not args.once:
                print("\x1b[2J\x1b[H", end="")
            if doc is None:
                print(f"waiting for fleet status at {args.status_file} ...")
            else:
                print(render_fleet_top(doc))
            if interactive:
                print("\nkeys (+Enter): q quit  p pause  r refresh")
        if args.once:
            return 0 if doc is not None else 2
        if interactive:
            ready, _, _ = select.select([sys.stdin], [], [], args.interval)
            if not ready:
                continue
            key = sys.stdin.readline().strip().lower()[:1]
            if key == "q":
                return 0
            if key == "p":
                paused = not paused
                if paused:
                    print("[paused — p to resume]")
            elif key == "r":
                paused = False  # refresh now (and resume if paused)
        else:
            _time.sleep(args.interval)


def cmd_verify(args: argparse.Namespace) -> int:
    """Cross-check every system's output against fp32 numpy."""
    from repro.analysis import render_verification, run_verification

    report = run_verification()
    print(render_verification(report))
    return 0 if report.all_passed else 1


def cmd_device(args: argparse.Namespace) -> int:
    """Print the simulated device's key constants."""
    from repro.analysis import render_table
    from repro.gpu import A100

    d = A100
    rows = [
        ["name", d.name],
        ["SMs", str(d.num_sms)],
        ["SM clock", f"{d.sm_clock_ghz:.2f} GHz"],
        ["dense TC fp16 peak", f"{d.peak_tc_fp16_tflops:.0f} TFLOP/s"],
        ["CUDA-core fp16 peak", f"{d.peak_cuda_fp16_tflops:.0f} TFLOP/s"],
        ["DRAM bandwidth", f"{d.dram_bandwidth_gbps:.0f} GB/s"],
        ["L2", f"{d.l2_bytes // (1024 * 1024)} MiB"],
        ["shared memory / block", f"{d.smem_per_sm_bytes // 1024} KiB"],
        ["smem banks", f"{d.smem_banks} x {d.smem_bank_bytes} B"],
    ]
    print(render_table(["property", "value"], rows))
    return 0


def _plan_cache_dir(value: str) -> str:
    from pathlib import Path

    p = Path(value)
    if p.exists() and not p.is_dir():
        raise argparse.ArgumentTypeError(f"{value!r} exists and is not a directory")
    return value


def _add_preprocessing_flags(p: argparse.ArgumentParser) -> None:
    """Preprocessing-engine knobs shared by the plan-building commands."""
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="reorder worker processes (default: auto — parallel for large "
        "matrices, serial below the size threshold; 1 forces serial)",
    )
    p.add_argument(
        "--plan-cache",
        metavar="DIR",
        type=_plan_cache_dir,
        default=None,
        help="persistent plan-cache directory: preprocessing artifacts are "
        "stored/loaded by content hash, so repeated runs skip the reorder",
    )


def _add_observability_flags(p: argparse.ArgumentParser) -> None:
    """Tracing/metrics export flags shared by the serving commands."""
    p.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="arm the tracer and export a JSONL span trace of the run "
        "(one JSON object per completed span)",
    )
    p.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="collect into a fresh metrics registry and export it in "
        "Prometheus text exposition format",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Jigsaw (ICPP'24) reproduction on a simulated A100",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spmm", help="time one SpMM across systems")
    p.add_argument("--m", type=int, default=1024)
    p.add_argument("--k", type=int, default=1024)
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--sparsity", type=float, default=0.95)
    p.add_argument("--v", type=int, default=8, choices=(2, 4, 8))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--systems",
        default="jigsaw,cublas,clasp,magicube,sputnik,sparta",
        help="comma-separated list",
    )
    _add_preprocessing_flags(p)
    p.set_defaults(func=cmd_spmm)

    p = sub.add_parser("reorder", help="inspect a matrix's reorder")
    p.add_argument("--m", type=int, default=512)
    p.add_argument("--k", type=int, default=512)
    p.add_argument("--sparsity", type=float, default=0.9)
    p.add_argument("--v", type=int, default=4, choices=(2, 4, 8))
    p.add_argument("--block-tile", type=int, default=64, choices=(16, 32, 64))
    p.add_argument("--seed", type=int, default=0)
    _add_preprocessing_flags(p)
    p.set_defaults(func=cmd_reorder)

    p = sub.add_parser("figure", help="regenerate a paper figure/table")
    p.add_argument(
        "name",
        choices=("fig1", "fig10", "fig11", "fig12", "table2", "table3", "overhead"),
    )
    p.add_argument("--size", type=int, default=512, help="square shape edge")
    p.add_argument("--max-matrices", type=int, default=8)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("inspect", help="speed-of-light report of one launch")
    p.add_argument("--m", type=int, default=1024)
    p.add_argument("--k", type=int, default=1024)
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--sparsity", type=float, default=0.95)
    p.add_argument("--v", type=int, default=8, choices=(2, 4, 8))
    p.add_argument("--version", default="v4", choices=("v0", "v1", "v2", "v3", "v4"))
    p.add_argument("--seed", type=int, default=0)
    _add_preprocessing_flags(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("reproduce", help="regenerate every paper artifact")
    p.add_argument("--size", type=int, default=512, help="square shape edge")
    p.add_argument("--max-matrices", type=int, default=6)
    p.add_argument("--out", default=None, help="write the report to a file")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser(
        "serve-bench", help="drive the batched serving engine with synthetic traffic"
    )
    p.add_argument("--matrices", type=int, default=3, help="distinct weight matrices")
    p.add_argument("--requests", type=int, default=24, help="total SpMM requests")
    p.add_argument("--m", type=int, default=256)
    p.add_argument("--k", type=int, default=512)
    p.add_argument("--n", type=int, default=64, help="B-panel width per request")
    p.add_argument("--sparsity", type=float, default=0.9)
    p.add_argument("--v", type=int, default=8, choices=(2, 4, 8))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-batch", type=int, default=8)
    p.add_argument("--pool-workers", type=int, default=4)
    p.add_argument(
        "--budget-mb",
        type=float,
        default=None,
        help="registry memory budget in MiB (evicted plans re-admit from disk)",
    )
    p.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request queue deadline; expired requests take the dense fallback",
    )
    p.add_argument(
        "--bench-json",
        metavar="FILE",
        default=None,
        help="write a machine-readable repro.bench_serving/v1 report",
    )
    p.add_argument(
        "--compare-compiled",
        action="store_true",
        help="steady-state drill: tile-pinned baseline vs the cost-model-"
        "discovered compiled route (adds a throughput comparison to the report)",
    )
    p.add_argument(
        "--warmup-rounds",
        type=int,
        default=10,
        help="untimed warmup rounds per scenario in --compare-compiled / "
        "--compare-formats (lets the cost model's exploration discover "
        "the faster route)",
    )
    p.add_argument(
        "--compare-formats",
        action="store_true",
        help="format zoo drill on VENOM-pruned matrices: rigid-2:4 chain "
        "vs the cost-model-discovered jigsaw@vnm route (adds a "
        "format_selection block to the report)",
    )
    p.add_argument(
        "--venom-v",
        type=int,
        default=64,
        help="V:N:M vector length (panel rows) for --compare-formats matrices",
    )
    p.add_argument(
        "--venom-m",
        type=int,
        default=16,
        help="V:N:M group width M (N fixed at 2) for --compare-formats matrices",
    )
    _add_preprocessing_flags(p)
    _add_observability_flags(p)
    p.set_defaults(func=cmd_serve_bench)

    p = sub.add_parser(
        "sched-bench",
        help="SLO drill: FIFO vs EDF + cost-model scheduling on two tenants",
    )
    p.add_argument("--matrices", type=int, default=3, help="distinct weight matrices")
    p.add_argument("--requests", type=int, default=48, help="total SpMM requests")
    p.add_argument("--m", type=int, default=256)
    p.add_argument("--k", type=int, default=512)
    p.add_argument("--n", type=int, default=64, help="B-panel width per request")
    p.add_argument("--sparsity", type=float, default=0.9)
    p.add_argument("--v", type=int, default=8, choices=(2, 4, 8))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="group-size cap; keep it above requests/matrices so dispatch "
        "happens on the linger timer (where scheduling policy matters)",
    )
    p.add_argument("--pool-workers", type=int, default=4)
    p.add_argument(
        "--window-ms",
        type=float,
        default=250.0,
        help="batch linger window (FIFO holds partial groups this long)",
    )
    p.add_argument(
        "--deadline-ms",
        type=float,
        default=60.0,
        help="interactive-tenant launch deadline (below the linger window, "
        "so FIFO misses and EDF promotion meets it)",
    )
    p.add_argument(
        "--promote-margin-ms",
        type=float,
        default=20.0,
        help="how long before a deadline EDF promotes its group",
    )
    p.add_argument(
        "--bulk-rate",
        type=float,
        default=None,
        help="token-bucket rate limit for the bulk tenant (requests/s); "
        "omit for unlimited",
    )
    p.add_argument(
        "--bulk-burst",
        type=float,
        default=16.0,
        help="bulk tenant's bucket capacity when --bulk-rate is set",
    )
    p.add_argument(
        "--bench-json",
        metavar="FILE",
        default="BENCH_serving.json",
        help="machine-readable repro.bench_serving/v1 comparison report",
    )
    _add_preprocessing_flags(p)
    _add_observability_flags(p)
    p.set_defaults(func=cmd_sched_bench)

    p = sub.add_parser(
        "graph-bench",
        help="model-graph drill: pipelined vs sequential DAG execution "
        "with dynamic-sparsity updates mid-stream",
    )
    p.add_argument("--layers", type=int, default=4, help="encoder stack depth")
    p.add_argument("--requests", type=int, default=16, help="graph requests")
    p.add_argument(
        "--size", type=int, default=256, help="square layer dimension (m = k)"
    )
    p.add_argument("--n", type=int, default=64, help="B-panel width per request")
    p.add_argument(
        "--sparsity",
        type=float,
        default=0.9,
        help="vector sparsity; the default keeps the reorder succeeding so "
        "every layer serves on the jigsaw route",
    )
    p.add_argument("--v", type=int, default=4, choices=(2, 4, 8))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--max-batch",
        type=int,
        default=8,
        help="per-(matrix, version) group cap; the pipelined run batches "
        "concurrent requests' same-layer SpMMs together, the sequential "
        "reference only ever forms singleton groups",
    )
    p.add_argument(
        "--window-ms",
        type=float,
        default=2.0,
        help="batch linger window before a partial group dispatches",
    )
    p.add_argument(
        "--update-every",
        type=int,
        default=8,
        help="apply a registry update (incremental plan repair + version "
        "bump) every N requests; 0 disables updates",
    )
    p.add_argument(
        "--update-nnz",
        type=int,
        default=8,
        help="nonzero entries rewritten per update (all within one slab)",
    )
    p.add_argument(
        "--pool-workers",
        type=int,
        default=4,
        help="executor pool width — the pipelined run's concurrency",
    )
    p.add_argument(
        "--bench-json",
        metavar="FILE",
        default="BENCH_serving.json",
        help="machine-readable repro.bench_serving/v1 report with a graph block",
    )
    _add_preprocessing_flags(p)
    _add_observability_flags(p)
    p.set_defaults(func=cmd_graph_bench)

    p = sub.add_parser(
        "chaos-bench",
        help="fault-injection drill: chaos phase then self-healing phase",
    )
    p.add_argument("--matrices", type=int, default=2, help="distinct weight matrices")
    p.add_argument("--requests", type=int, default=24, help="requests per phase")
    p.add_argument("--m", type=int, default=256)
    p.add_argument("--k", type=int, default=512)
    p.add_argument("--n", type=int, default=64, help="B-panel width per request")
    p.add_argument("--sparsity", type=float, default=0.9)
    p.add_argument("--v", type=int, default=8, choices=(2, 4, 8))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--fault-rate",
        type=float,
        default=0.25,
        help="per-attempt probability of an injected jigsaw kernel fault",
    )
    p.add_argument("--max-batch", type=int, default=8)
    p.add_argument("--pool-workers", type=int, default=4)
    p.add_argument(
        "--max-pending",
        type=int,
        default=None,
        help="admission-control bound on the pending queue",
    )
    p.add_argument("--breaker-threshold", type=int, default=3)
    p.add_argument("--breaker-cooldown-s", type=float, default=0.05)
    _add_preprocessing_flags(p)
    _add_observability_flags(p)
    p.set_defaults(func=cmd_chaos_bench)

    p = sub.add_parser(
        "shard-bench",
        help="crash-recovery drill: supervised shard fleet under kill-every-K chaos",
    )
    p.add_argument(
        "--workers", type=int, default=2, help="shard worker processes to supervise"
    )
    p.add_argument(
        "--kill-every",
        type=int,
        default=0,
        help="each worker incarnation hard-dies after serving this many "
        "requests (0 disables the chaos)",
    )
    p.add_argument("--matrices", type=int, default=3, help="distinct weight matrices")
    p.add_argument("--requests", type=int, default=24, help="total SpMM requests")
    p.add_argument("--m", type=int, default=128)
    p.add_argument("--k", type=int, default=256)
    p.add_argument("--n", type=int, default=32, help="B-panel width per request")
    p.add_argument("--sparsity", type=float, default=0.9)
    p.add_argument("--v", type=int, default=8, choices=(2, 4, 8))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the workers' fault plans (each incarnation folds its "
        "own index in, so kills stay deterministic across respawns)",
    )
    p.add_argument("--max-batch", type=int, default=8)
    p.add_argument("--pool-workers", type=int, default=2)
    p.add_argument(
        "--max-redeliveries",
        type=int,
        default=3,
        help="redeliveries before a request's matrix is declared poison "
        "and degrades to router-local dense isolation",
    )
    p.add_argument(
        "--plan-cache",
        metavar="DIR",
        type=_plan_cache_dir,
        default=None,
        help="shared plan-cache directory all worker incarnations warm from "
        "(default: a fresh temp dir, pre-warmed before the fleet starts)",
    )
    p.add_argument(
        "--bench-json",
        metavar="FILE",
        default=None,
        help="write a repro.bench_serving/v1 report with a crash-recovery "
        "'shard' block (crashes, respawns, lost, bit_identical, ...)",
    )
    p.add_argument(
        "--status-file",
        metavar="FILE",
        default=None,
        help="have the supervisor atomically refresh a repro.fleet_status/v1 "
        "JSON here every heartbeat ('repro top' renders it live)",
    )
    p.add_argument(
        "--miss-storm",
        type=int,
        default=0,
        help="give the first N requests an unmeetable deadline: a "
        "deterministic deadline-miss storm that must fire at least one "
        "SLO burn-rate alert (exit 1 otherwise)",
    )
    p.add_argument(
        "--slo-miss-budget",
        type=float,
        default=0.05,
        help="deadline-miss budget of the built-in 'serving' SLO policy",
    )
    p.add_argument(
        "--alerts-out",
        metavar="FILE",
        default=None,
        help="write fired SLO alerts as repro.slo_alerts/v1 JSONL",
    )
    p.add_argument(
        "--fleet-snapshot-out",
        metavar="FILE",
        default=None,
        help="write the final fleet-wide metrics registry as a "
        "repro.metrics_snapshot/v1 JSON document",
    )
    _add_observability_flags(p)
    p.set_defaults(func=cmd_shard_bench)

    p = sub.add_parser(
        "top",
        help="live per-shard dashboard over a supervisor's --status-file",
    )
    p.add_argument(
        "--status-file",
        metavar="FILE",
        required=True,
        help="fleet status JSON the supervisor refreshes (shard-bench "
        "--status-file, or Supervisor(status_path=...))",
    )
    p.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="refresh period in seconds",
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (2 if the file is missing)",
    )
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "fleet-status",
        help="print a supervisor's fleet status document as JSON and exit",
    )
    p.add_argument("--status-file", metavar="FILE", required=True)
    p.set_defaults(func=cmd_fleet_status)

    p = sub.add_parser("verify", help="functional cross-check of every system")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("device", help="show the simulated device spec")
    p.set_defaults(func=cmd_device)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
