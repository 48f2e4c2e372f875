"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_with_options(self):
        args = build_parser().parse_args(
            ["run", "fig12", "--trials", "10", "--no-charts"]
        )
        assert args.experiment == "fig12"
        assert args.trials == 10
        assert args.no_charts

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_trace_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "fig9-workday"])

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.command == "chaos"
        assert args.scenario == "kitchen-sink"
        assert args.minutes == 720
        assert not args.strict

    def test_chaos_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--scenario", "nope"])

    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.command == "fleet"
        assert args.workers == 2
        assert args.traces is None
        assert args.journal is None
        assert not args.resume
        assert args.scenario is None
        assert args.timeout_seconds is None

    def test_fleet_options(self):
        args = build_parser().parse_args(
            [
                "fleet",
                "--traces",
                "fig9-workday",
                "--workers",
                "4",
                "--journal",
                "j.jsonl",
                "--resume",
                "--format",
                "json",
            ]
        )
        assert args.workers == 4
        assert args.journal == "j.jsonl"
        assert args.resume
        assert args.format == "json"


class TestMain:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out
        assert "fig14-c_29247" in out

    def test_run_fig6(self, capsys):
        assert main(["run", "fig6"]) == 0
        assert "scaling factor" in capsys.readouterr().out

    def test_run_fig4_no_charts(self, capsys):
        assert main(["run", "fig4", "--no-charts"]) == 0
        assert "inflection" in capsys.readouterr().out

    def test_run_fig12_with_trials(self, capsys):
        assert main(["run", "fig12", "--trials", "8", "--no-charts"]) == 0
        assert "Pareto" in capsys.readouterr().out

    def test_run_fig14_with_containers(self, capsys):
        assert main(
            ["run", "fig14", "--containers", "c_4043", "--trials", "4"]
        ) == 0
        assert "c_4043" in capsys.readouterr().out

    def test_sweep_command(self, capsys):
        assert main(
            ["sweep", "--traces", "fig9-workday", "--min-cores", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "workday-12h" in out
        assert "fleet means" in out

    def test_fleet_command_serial(self, capsys):
        assert main(
            ["fleet", "--traces", "fig9-workday", "--workers", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "workday-12h" in out
        assert "1 ok, 0 failed" in out
        assert "workers=1" in out

    def test_fleet_journal_then_resume(self, tmp_path, capsys):
        journal = tmp_path / "fleet.jsonl"
        argv = [
            "fleet",
            "--traces",
            "fig9-workday",
            "--workers",
            "1",
            "--journal",
            str(journal),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0 resumed from journal" in first
        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "1 resumed from journal" in second
        # Resuming does not change the merged table.
        assert first.splitlines()[:4] == second.splitlines()[:4]

    @staticmethod
    def _one_line_error(capsys) -> str:
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("caasper: error: ")
        return lines[0]

    def test_fleet_resume_of_damaged_journal_is_one_line_error(
        self, tmp_path, capsys
    ):
        journal = tmp_path / "fleet.jsonl"
        argv = ["fleet", "--traces", "fig3-square-wave,fig9-workday",
                "--workers", "1", "--journal", str(journal)]
        assert main(argv) == 0
        lines = journal.read_text(encoding="utf-8").splitlines()
        lines[1] = "not json"
        journal.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 2
        assert "corrupt journal record" in self._one_line_error(capsys)

    def test_fleet_resume_by_another_plan_is_one_line_error(
        self, tmp_path, capsys
    ):
        journal = tmp_path / "fleet.jsonl"
        argv = ["fleet", "--traces", "fig3-square-wave",
                "--workers", "1", "--journal", str(journal)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--seed", "1", "--resume"]) == 2
        assert "refusing to resume" in self._one_line_error(capsys)

    def test_fleet_json_format(self, capsys):
        import json

        assert main(
            [
                "fleet",
                "--traces",
                "fig9-workday",
                "--workers",
                "1",
                "--format",
                "json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] == 1
        assert payload["failed"] == 0
        assert "mean_avg_insufficient_cpu" in payload["aggregate"]

    def test_fleet_chaos_scenario(self, capsys):
        assert main(
            [
                "fleet",
                "--traces",
                "fig9-workday",
                "--workers",
                "1",
                "--scenario",
                "flaky-actuation",
            ]
        ) == 0
        assert "1 ok, 0 failed" in capsys.readouterr().out

    def test_run_fig8(self, capsys):
        assert main(["run", "fig8"]) == 0
        assert "Eq. 4" in capsys.readouterr().out

    def test_trace_export(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert main(["trace", "fig9-workday", "--out", str(out)]) == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_chaos_stuck_rollout_strict(self, capsys):
        assert main(
            ["chaos", "--scenario", "stuck-rollout", "--seed", "1",
             "--minutes", "300", "--strict"]
        ) == 0
        out = capsys.readouterr().out
        assert "chaos scenario 'stuck-rollout'" in out
        assert "faults injected" in out
        assert "degradations absorbed" in out
        assert "every fired fault kind was absorbed" in out

    def test_chaos_jsonl_export(self, tmp_path, capsys):
        path = tmp_path / "chaos.jsonl"
        assert main(
            ["chaos", "--scenario", "telemetry-blackout", "--seed", "2",
             "--minutes", "240", "--jsonl", str(path), "--strict"]
        ) == 0
        assert path.exists()
        assert "wrote" in capsys.readouterr().out

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("DET001", "DET002", "DET003", "NUM001", "EXC001",
                     "API001", "OBS001", "CFG001"):
            assert code in out

    def test_lint_repo_is_clean_strict(self, capsys):
        assert main(["lint", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "0 errors" in out

    def test_lint_json_format(self, capsys):
        import json

        assert main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["files_checked"] > 0

    def test_lint_flags_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import time\n\n\ndef stamp():\n    return time.time()\n"
        )
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out

    def test_lint_select_and_ignore(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import time\n\n\ndef stamp():\n    return time.time()\n"
        )
        assert main(["lint", str(bad), "--ignore", "DET001"]) == 0
        capsys.readouterr()
        assert main(["lint", str(bad), "--select", "NUM001"]) == 0
        capsys.readouterr()

    def test_lint_unknown_code_fails_loudly(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path), "--select", "ZZZ999"]) == 2
        assert "unknown rule code" in capsys.readouterr().err


class TestStoreCommands:
    """`caasper store` maintenance plus the `--store-dir` seams."""

    def test_store_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store"])

    def test_store_gc_requires_max_bytes(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store", "gc"])

    def test_sweep_store_dir_cold_then_warm_identical(self, tmp_path, capsys):
        argv = [
            "sweep",
            "--traces",
            "fig3-square-wave",
            "--min-cores",
            "2",
            "--store-dir",
            str(tmp_path / "cas"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "hit rate 0.0%" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "hit rate 100.0%" in warm
        # Byte-identical sweep output; only the store summary differs.
        strip = lambda out: [  # noqa: E731
            line for line in out.splitlines() if not line.startswith("store:")
        ]
        assert strip(cold) == strip(warm)

    def test_fleet_store_dir_short_circuits_second_run(self, tmp_path, capsys):
        argv = [
            "fleet",
            "--traces",
            "fig3-square-wave",
            "--workers",
            "1",
            "--store-dir",
            str(tmp_path / "cas"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 ok, 0 failed" in out
        assert "hit rate 100.0%" in out

    def test_fleet_json_format_reports_store_stats(self, tmp_path, capsys):
        import json as json_module

        argv = [
            "fleet",
            "--traces",
            "fig3-square-wave",
            "--workers",
            "1",
            "--store-dir",
            str(tmp_path / "cas"),
            "--format",
            "json",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["store"] == {"hits": 1, "misses": 0, "hit_rate": 1.0}

    def test_stats_ls_verify_gc_clear_lifecycle(self, tmp_path, capsys):
        store_dir = str(tmp_path / "cas")
        assert main(
            [
                "sweep",
                "--traces",
                "fig3-square-wave",
                "--min-cores",
                "2",
                "--store-dir",
                store_dir,
            ]
        ) == 0
        capsys.readouterr()

        assert main(["store", "stats", "--store-dir", store_dir]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out
        assert "simulate" in out

        assert main(["store", "ls", "--store-dir", store_dir]) == 0
        assert "simulate" in capsys.readouterr().out

        assert main(["store", "verify", "--store-dir", store_dir]) == 0
        assert "1 ok, 0 corrupt" in capsys.readouterr().out

        assert main(["store", "gc", "--max-bytes", "0", "--store-dir", store_dir]) == 0
        assert "evicted 1 blobs" in capsys.readouterr().out

        assert main(["store", "clear", "--store-dir", store_dir]) == 0
        assert "removed 0 blobs" in capsys.readouterr().out

    def test_verify_flags_corruption_with_exit_1(self, tmp_path, capsys):
        from repro.store import ResultStore, store_key

        store_dir = tmp_path / "cas"
        store = ResultStore(store_dir)
        key = store_key("simulate", {"x": 1})
        store.put(key, "simulate", {"x": 1})
        store._blob_path(key).write_bytes(b"garbage")
        assert main(["store", "verify", "--store-dir", str(store_dir)]) == 1
        captured = capsys.readouterr()
        assert "1 corrupt" in captured.out
        assert key in captured.err
