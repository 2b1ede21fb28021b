"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_spmm_defaults(self):
        args = build_parser().parse_args(["spmm"])
        assert args.m == 1024 and args.v == 8

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


class TestCommands:
    def test_device(self, capsys):
        assert main(["device"]) == 0
        out = capsys.readouterr().out
        assert "A100" in out and "312" in out

    def test_reorder(self, capsys):
        rc = main(
            ["reorder", "--m", "128", "--k", "128", "--sparsity", "0.9", "--v", "4",
             "--block-tile", "32"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "reorder success" in out
        assert "col_idx_array" in out

    def test_spmm_small(self, capsys):
        rc = main(
            ["spmm", "--m", "128", "--k", "128", "--n", "64", "--sparsity", "0.9",
             "--v", "4", "--systems", "jigsaw,cublas"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "jigsaw" in out and "vs cuBLAS" in out

    def test_spmm_unknown_system(self, capsys):
        rc = main(["spmm", "--systems", "jigsaw,tpu"])
        assert rc == 2
        assert "unknown systems" in capsys.readouterr().err

    def test_figure_overhead(self, capsys):
        assert main(["figure", "overhead"]) == 0
        assert "56.25%" in capsys.readouterr().out

    def test_reorder_workers_flag(self, capsys):
        rc = main(
            ["reorder", "--m", "128", "--k", "128", "--sparsity", "0.9", "--v", "4",
             "--block-tile", "32", "--workers", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "reorder success" in out
        assert "preprocessing" in out

    def test_reorder_plan_cache_flag(self, capsys, tmp_path):
        argv = ["reorder", "--m", "64", "--k", "128", "--sparsity", "0.9", "--v", "4",
                "--block-tile", "32", "--plan-cache", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "miss" in first
        assert main(argv) == 0  # second run loads the artifact
        second = capsys.readouterr().out
        assert "hit" in second
        assert list(tmp_path.glob("jigsaw-*.npz"))

    def test_spmm_accepts_engine_flags(self, capsys):
        rc = main(
            ["spmm", "--m", "128", "--k", "128", "--n", "64", "--sparsity", "0.9",
             "--v", "4", "--systems", "jigsaw", "--workers", "1"]
        )
        assert rc == 0
        assert "jigsaw" in capsys.readouterr().out

    def test_chaos_bench(self, capsys, tmp_path):
        rc = main(
            ["chaos-bench", "--matrices", "1", "--requests", "8", "--m", "64",
             "--k", "128", "--n", "16", "--v", "4", "--fault-rate", "0.9",
             "--max-batch", "4", "--breaker-cooldown-s", "0.01",
             "--plan-cache", str(tmp_path)]
        )
        assert rc == 0  # zero raised futures is the exit contract
        out = capsys.readouterr().out
        assert "chaos drill" in out
        assert "artifacts quarantined" in out
        assert "breakers all re-closed" in out


class TestFleetStatusCli:
    def _write_status(self, tmp_path):
        import json

        from tests.analysis.test_fleet_top import SAMPLE_STATUS

        p = tmp_path / "status.json"
        p.write_text(json.dumps(SAMPLE_STATUS))
        return str(p)

    def test_fleet_status_dumps_json(self, capsys, tmp_path):
        import json

        path = self._write_status(tmp_path)
        assert main(["fleet-status", "--status-file", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.fleet_status/v1"

    def test_fleet_status_missing_file_exits_2(self, capsys, tmp_path):
        rc = main(["fleet-status", "--status-file", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "no fleet status" in capsys.readouterr().err

    def test_top_once_renders_a_frame(self, capsys, tmp_path):
        path = self._write_status(tmp_path)
        assert main(["top", "--status-file", path, "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "fast_burn" in out

    def test_top_once_missing_file_exits_2(self, capsys, tmp_path):
        rc = main(["top", "--status-file", str(tmp_path / "nope.json"), "--once"])
        assert rc == 2
        assert "waiting for fleet status" in capsys.readouterr().out

    def test_top_parser_defaults(self):
        args = build_parser().parse_args(["top", "--status-file", "s.json"])
        assert args.interval == 1.0
        assert args.once is False


#: Keys every repro.bench_serving/v1 scenario record carries.
SCENARIO_KEYS = {
    "name",
    "requests",
    "throughput_rps",
    "latency_s",
    "deadline_miss_rate",
    "route_mix",
    "throttled",
    "promoted",
}

#: Tiny shapes so each drill finishes in seconds.
SMALL = ["--m", "64", "--k", "128", "--n", "16", "--v", "4"]


class TestDrillFlags:
    @pytest.mark.parametrize(
        "command, drill",
        [
            ("serve-bench", "serve_drill"),
            ("serve-bench", "ab_drill"),
            ("sched-bench", "sched_drill"),
            ("graph-bench", "graph_drill"),
            ("chaos-bench", "chaos_drill"),
            ("shard-bench", "shard_drill"),
        ],
    )
    def test_every_drill_parameter_is_a_flag(self, command, drill):
        """The CLI fills a drill's keywords from the flags of the same name;
        a parameter without a flag would silently keep its default."""
        import inspect

        import repro.bench

        params = inspect.signature(getattr(repro.bench, drill)).parameters
        keywords = {n for n, p in params.items() if p.kind is p.KEYWORD_ONLY}
        flags = set(vars(build_parser().parse_args([command])))
        assert keywords <= flags


class TestBenchSmoke:
    """Each bench subcommand at tiny sizes: exit code, a schema-valid
    report, and the report's top-level and scenario keys."""

    def _run(self, tmp_path, argv):
        import json

        from repro.obs import validate_bench_serving

        out = tmp_path / "bench.json"
        rc = main(argv + ["--plan-cache", str(tmp_path / "cache"), "--bench-json", str(out)])
        doc = json.loads(out.read_text())
        assert validate_bench_serving(doc) == []
        for s in doc["scenarios"]:
            assert set(s) == SCENARIO_KEYS
        return rc, doc

    def test_serve_bench(self, capsys, tmp_path):
        rc, doc = self._run(
            tmp_path, ["serve-bench", "--matrices", "2", "--requests", "4", *SMALL]
        )
        assert rc == 0
        assert set(doc) == {"schema", "scenarios"}
        assert [s["name"] for s in doc["scenarios"]] == ["serve"]
        assert "batching speedup" in capsys.readouterr().out

    def test_serve_bench_compare_compiled(self, capsys, tmp_path):
        rc, doc = self._run(
            tmp_path,
            ["serve-bench", "--compare-compiled", "--matrices", "2", "--requests", "4",
             "--warmup-rounds", "2", *SMALL],
        )
        assert rc == 0
        assert set(doc) == {"schema", "scenarios", "comparison"}
        assert [s["name"] for s in doc["scenarios"]] == ["tile", "compiled_cost"]
        assert doc["scenarios"][0]["route_mix"]["compiled"] == 0
        assert {"baseline_throughput_rps", "contender_throughput_rps",
                "throughput_speedup"} <= set(doc["comparison"])
        assert "throughput speedup" in capsys.readouterr().out

    def test_serve_bench_compare_formats(self, capsys, tmp_path):
        rc, doc = self._run(
            tmp_path,
            ["serve-bench", "--compare-formats", "--matrices", "1", "--requests", "2",
             "--warmup-rounds", "2", "--m", "64", "--k", "128", "--n", "16",
             "--venom-v", "32", "--venom-m", "8"],
        )
        assert rc == 0
        assert set(doc) == {"schema", "scenarios", "comparison"}
        assert [s["name"] for s in doc["scenarios"]] == ["rigid", "format_cost"]
        assert doc["scenarios"][0]["route_mix"].get("jigsaw@vnm", 0) == 0
        sel = doc["comparison"]["format_selection"]
        assert set(sel) == {"venom_spec", "costs_us_per_col", "contender_route_mix"}
        assert sel["venom_spec"] == "vnm:32:2:8"
        assert "throughput speedup" in capsys.readouterr().out

    def test_sched_bench(self, capsys, tmp_path):
        rc, doc = self._run(
            tmp_path,
            ["sched-bench", "--matrices", "2", "--requests", "8", *SMALL,
             "--window-ms", "100", "--deadline-ms", "40", "--promote-margin-ms", "20"],
        )
        assert rc == 0
        assert set(doc) == {"schema", "scenarios", "comparison"}
        assert [s["name"] for s in doc["scenarios"]] == ["fifo", "edf_cost"]
        assert "deadline miss rate" in capsys.readouterr().out

    def test_graph_bench(self, capsys, tmp_path):
        rc, doc = self._run(
            tmp_path,
            ["graph-bench", "--layers", "2", "--requests", "4", "--size", "64",
             "--n", "16", "--update-every", "2"],
        )
        assert rc == 0  # pipelined outputs bit-identical to sequential
        assert set(doc) == {"schema", "scenarios", "comparison", "graph"}
        assert [s["name"] for s in doc["scenarios"]] == [
            "graph_sequential",
            "graph_pipelined",
        ]
        assert doc["graph"]["bit_identical"] is True
        assert doc["graph"]["repair"]["bit_identical"] is True
        assert "outputs bit-identical" in capsys.readouterr().out
