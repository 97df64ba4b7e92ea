"""Tests for the command-line interface."""

from __future__ import annotations

import socket

import pytest

from repro.cli import build_parser, main, parse_graph_spec
from repro.errors import ParameterError
from repro.graphs import grid_graph, path_graph


class TestParseGraphSpec:
    def test_er(self):
        g = parse_graph_spec("er:30:0.2", seed=1)
        assert g.num_vertices == 30

    def test_grid(self):
        assert parse_graph_spec("grid:3:4") == grid_graph(3, 4)

    def test_path(self):
        assert parse_graph_spec("path:7") == path_graph(7)

    def test_cycle_tree_hypercube(self):
        assert parse_graph_spec("cycle:8").num_edges == 8
        assert parse_graph_spec("tree:2:3").num_vertices == 15
        assert parse_graph_spec("hypercube:4").num_vertices == 16

    def test_conn_regular_ws(self):
        assert parse_graph_spec("conn:40:0.02", seed=2).num_vertices == 40
        g = parse_graph_spec("regular:20:4", seed=3)
        assert all(g.degree(v) == 4 for v in g.vertices())
        assert parse_graph_spec("ws:30:4:0.1", seed=4).num_vertices == 30

    def test_torus(self):
        g = parse_graph_spec("torus:4:5")
        assert g.num_vertices == 20
        assert all(g.degree(v) == 4 for v in g.vertices())

    def test_gnp_fast(self):
        from repro.graphs import gnp_fast

        assert parse_graph_spec("gnp_fast:300:0.01", seed=5) == gnp_fast(
            300, 0.01, seed=5
        )
        # a distinct family: same seed, different instance than er:
        assert parse_graph_spec("gnp_fast:30:0.2", seed=1) != parse_graph_spec(
            "er:30:0.2", seed=1
        )

    def test_seed_threaded_through(self):
        a = parse_graph_spec("er:30:0.2", seed=1)
        b = parse_graph_spec("er:30:0.2", seed=2)
        assert a != b

    def test_unknown_family(self):
        with pytest.raises(ParameterError, match="unknown graph family"):
            parse_graph_spec("mobius:4")

    def test_malformed_args(self):
        with pytest.raises(ParameterError, match="bad graph spec"):
            parse_graph_spec("er:notanumber:0.5")
        with pytest.raises(ParameterError, match="bad graph spec"):
            parse_graph_spec("grid:3")


class TestCommands:
    def test_decompose_theorem1(self, capsys):
        assert main(["decompose", "er:60:0.08", "--theorem", "1", "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 1" in out
        assert "phases:" in out

    def test_decompose_theorem2(self, capsys):
        assert main(["decompose", "grid:5:5", "--theorem", "2", "-k", "3"]) == 0
        assert "Theorem 2" in capsys.readouterr().out

    def test_decompose_theorem3(self, capsys):
        assert main(["decompose", "grid:5:5", "--theorem", "3", "--colors", "2"]) == 0
        assert "Theorem 3" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(["compare", "er:60:0.08"]) == 0
        out = capsys.readouterr().out
        assert "EN16" in out and "LS93" in out

    def test_apps_all_verified(self, capsys):
        assert main(["apps", "grid:5:5", "--problem", "all"]) == 0
        out = capsys.readouterr().out
        assert out.count("yes") >= 3

    def test_apps_single_problem(self, capsys):
        assert main(["apps", "path:10", "--problem", "mis"]) == 0
        out = capsys.readouterr().out
        assert "MIS" in out and "matching" not in out

    def test_spanner(self, capsys):
        assert main(["spanner", "er:40:0.2", "-k", "3"]) == 0
        assert "stretch" in capsys.readouterr().out

    def test_theory(self, capsys):
        assert main(["theory", "1024"]) == 0
        out = capsys.readouterr().out
        for name in ("AGLP89", "PS92", "LS93", "EN16"):
            assert name in out

    def test_bad_spec_exit_code(self, capsys):
        assert main(["decompose", "nope:3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_seed_changes_output(self, capsys):
        main(["--seed", "1", "decompose", "er:60:0.08"])
        first = capsys.readouterr().out
        main(["--seed", "2", "decompose", "er:60:0.08"])
        second = capsys.readouterr().out
        assert first != second

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["theory", "256"])
        assert args.n == 256


class TestBench:
    def test_list_scenarios(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in (
            "er-sweep",
            "strong-vs-weak",
            "congest-rounds",
            "smoke",
            "kernel-scaling",
            "engine-scaling",
        ):
            assert name in out

    def test_list_shows_descriptions_and_shape(self, capsys):
        """--list is the discoverability surface: every scenario row must
        carry its registry description plus the point/trial shape."""
        from repro.experiments import SCENARIOS

        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "description" in out
        assert "Batch round-engine over a doubling sweep" in out
        for scenario in SCENARIOS.values():
            assert scenario.description[:40] in out

    def test_no_scenario_lists(self, capsys):
        assert main(["bench"]) == 0
        assert "registered scenarios" in capsys.readouterr().out

    def test_smoke_scenario_runs(self, capsys):
        assert main(["bench", "smoke", "--trials", "2", "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert "er:24:0.2" in captured.out
        assert "0 cache hits, 2 executed" in captured.err

    def test_cache_round_trip_and_byte_identical_output(self, capsys, tmp_path):
        argv = ["bench", "smoke", "--trials", "2", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "0 cache hits, 2 executed" in cold.err
        assert main(argv + ["--workers", "2"]) == 0
        warm = capsys.readouterr()
        assert "2 cache hits, 0 executed" in warm.err
        assert warm.out == cold.out

    def test_per_trial_rows(self, capsys):
        assert main(["bench", "smoke", "--trials", "2", "--no-cache", "--per-trial"]) == 0
        out = capsys.readouterr().out
        assert "trial" in out and "cached" in out

    def test_unknown_scenario_exit_code(self, capsys):
        assert main(["bench", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestOracleCommand:
    def test_build_prints_scale_table(self, capsys):
        assert main(["oracle", "build", "grid:6:6"]) == 0
        out = capsys.readouterr().out
        assert "stretch bound" in out
        assert "clusters" in out and "max_overlap" in out

    @pytest.mark.parametrize(
        "flags", [["--budget", "nan"], ["--budget", "inf"], ["-c", "nan"], ["-k", "nan"]]
    )
    def test_non_finite_parameter_is_a_usage_error(self, capsys, flags):
        assert main(["oracle", "build", "torus:6:6", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be finite" in err
        assert "Traceback" not in err

    def test_query_validates_and_writes_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "oracle.json"
        argv = [
            "oracle", "query", "gnp_fast:256:0.02",
            "--pairs", "300", "--check", "24", "--routes", "2",
            "--json", str(path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "query batch" in out
        assert "route " in out
        payload = json.loads(path.read_text())
        assert payload["command"] == "oracle query"
        assert payload["query"]["violations"] == 0
        assert payload["query"]["checked"] == 24
        assert payload["scales"]
        assert payload["stretch_bound"] >= 1.0
        # Provenance block rides along on every oracle artifact.
        assert "kernel_backend" in payload["environment"]

    def test_query_output_deterministic_for_seed(self, capsys):
        argv = ["oracle", "query", "er:48:0.08", "--pairs", "200", "--check", "8"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_oracle_scaling_scenario_listed(self, capsys):
        assert main(["bench", "--list"]) == 0
        assert "oracle-scaling" in capsys.readouterr().out


class TestBenchJsonEnvironment:
    def test_bench_json_carries_environment_block(self, capsys, tmp_path):
        import json

        path = tmp_path / "bench.json"
        argv = [
            "bench", "smoke", "--trials", "1", "--no-cache",
            "--json", str(path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        env = payload["environment"]
        assert env["python"]
        assert env["kernel_backend"] in ("numpy", "python")
        assert "numpy" in env and "git_sha" in env
        # Trial rows stay environment-free (cache portability).
        assert all("kernel_backend" not in row for row in payload["rows"])


class TestCampaignCli:
    def test_list_campaigns(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        assert "registered campaigns" in out
        for name in ("shootout", "quality", "campaign-smoke"):
            assert name in out

    def test_unknown_campaign_exit_code(self, capsys):
        assert main(["campaign", "run", "nope"]) == 2
        assert "unknown campaign" in capsys.readouterr().err

    def test_bad_shard_exit_code(self, capsys):
        assert main(["campaign", "run", "campaign-smoke", "--shard", "2/2"]) == 2
        assert "shard" in capsys.readouterr().err

    def test_run_writes_keyed_artifact(self, capsys, tmp_path):
        import json

        path = tmp_path / "out.json"
        argv = [
            "campaign", "run", "campaign-smoke",
            "--dir", str(tmp_path / "run"), "--json", str(path),
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "campaign 'campaign-smoke'" in captured.out
        assert "8 trial(s) in shard" in captured.err
        payload = json.loads(path.read_text())
        assert payload["kind"] == "campaign"
        assert payload["failures"] == 0
        assert {row["member"] for row in payload["rows"]} == {"runtime", "race"}
        assert all(row["key"] for row in payload["rows"])
        assert payload["environment"]["python"]

    def test_sharded_run_uses_shard_directory(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["campaign", "run", "campaign-smoke", "--shard", "0/4"]) == 0
        capsys.readouterr()
        assert (
            tmp_path / ".repro-campaigns" / "campaign-smoke-shard0of4"
            / "journal.jsonl"
        ).is_file()


class TestServingErrors:
    """Bad addresses and unreachable daemons are usage errors (exit 2)."""

    def test_loadgen_address_file_without_host_port(self, tmp_path, capsys):
        address = tmp_path / "addr.txt"
        address.write_text("not-an-address\n")
        assert main(["loadgen", "--addr-file", str(address)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "host:port" in err

    def test_loadgen_without_a_daemon(self, capsys):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        assert main(["loadgen", "--port", str(port)]) == 2
        assert "cannot reach a serve daemon" in capsys.readouterr().err

    def test_serve_port_out_of_range(self, capsys):
        assert main(["serve", "path:5", "--port", "70000"]) == 2
        assert "port must be in 0..65535" in capsys.readouterr().err

    def test_serve_port_in_use(self, tmp_path, capsys):
        ready = tmp_path / "ready.txt"
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            argv = [
                "serve", "path:5", "--port", str(taken.getsockname()[1]),
                "--workers", "1", "--ready-file", str(ready),
            ]
            assert main(argv) == 2
        assert "cannot serve on" in capsys.readouterr().err
        assert not ready.exists()
