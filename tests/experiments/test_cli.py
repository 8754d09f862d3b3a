"""Tests for the ocd-repro command-line interface."""

import json
import os

import pytest

from repro.cli import main
from repro.core.problem import Problem


@pytest.fixture
def problem_file(tmp_path, path_problem):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(path_problem.to_dict()))
    return str(path)


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert "fig1" in out and "fig7" in out and "locd" in out and "gap" in out


class TestRun:
    def test_run_fig1(self, tmp_path, capsys):
        assert main(["run", "fig1", "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "min_time_steps" in out
        assert "completed" in out

    def test_run_unknown_rejected(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_csv_output(self, tmp_path, capsys):
        csv_dir = str(tmp_path / "csvs")
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "fig1", "--csv-dir", csv_dir, "--cache-dir", cache_dir]) == 0
        assert os.path.exists(os.path.join(csv_dir, "fig1.csv"))

    def test_run_writes_only_its_cache_dir(self, tmp_path, tmp_path_factory, monkeypatch, capsys):
        cache = tmp_path_factory.mktemp("elsewhere") / "cache"
        monkeypatch.chdir(tmp_path)
        assert main(["run", "fig1", "--cache-dir", str(cache)]) == 0
        assert list(tmp_path.iterdir()) == []
        assert (cache / "ledger.jsonl").exists()

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestGenerate:
    @pytest.mark.parametrize("family", ["random", "bottleneck", "dag", "spread"])
    def test_generates_valid_problem(self, family, tmp_path, capsys):
        out = str(tmp_path / "p.json")
        assert main(["generate", "--family", family, "--seed", "1", "--out", out]) == 0
        with open(out) as handle:
            problem = Problem.from_dict(json.load(handle))
        assert problem.is_satisfiable()

    def test_stdout_output(self, capsys):
        assert main(["generate", "--seed", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert Problem.from_dict(data).num_vertices >= 2

    def test_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        main(["generate", "--seed", "5", "--out", a])
        main(["generate", "--seed", "5", "--out", b])
        assert open(a).read() == open(b).read()


class TestSolve:
    def test_solves_path_problem(self, problem_file, capsys):
        assert main(["solve", problem_file]) == 0
        out = capsys.readouterr().out
        assert "optimal makespan (FOCD): 3" in out
        assert "optimal bandwidth (EOCD): 4" in out

    def test_unsatisfiable_reported(self, tmp_path, capsys):
        p = Problem.build(2, 1, [(1, 0, 1)], {0: [0]}, {1: [0]})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(p.to_dict()))
        assert main(["solve", str(path)]) == 1
        assert "unsatisfiable" in capsys.readouterr().out

    def test_conflict_noted_on_figure1(self, tmp_path, capsys):
        from repro.topology import figure1_gadget

        path = tmp_path / "fig1.json"
        path.write_text(json.dumps(figure1_gadget().to_dict()))
        assert main(["solve", str(path)]) == 0
        assert "conflict" in capsys.readouterr().out


class TestSimulate:
    def test_runs_heuristic(self, problem_file, capsys):
        assert main(["simulate", problem_file, "--heuristic", "local"]) == 0
        out = capsys.readouterr().out
        assert "success=True" in out
        assert "makespan=3" in out

    def test_render_flag(self, problem_file, capsys):
        assert main(["simulate", problem_file, "--render"]) == 0
        assert "step 1:" in capsys.readouterr().out

    def test_sequential_supported(self, problem_file, capsys):
        assert main(["simulate", problem_file, "--heuristic", "sequential"]) == 0
        assert "sequential" in capsys.readouterr().out

    def test_unknown_heuristic(self, problem_file, capsys):
        assert main(["simulate", problem_file, "--heuristic", "dijkstra"]) == 2
        assert "unknown heuristic" in capsys.readouterr().err


class TestCompare:
    def test_table_printed(self, problem_file, capsys):
        assert main(["compare", problem_file]) == 0
        out = capsys.readouterr().out
        for name in ("round_robin", "random", "local", "bandwidth", "global"):
            assert name in out

    def test_with_sequential(self, problem_file, capsys):
        assert main(["compare", problem_file, "--with-sequential"]) == 0
        assert "sequential" in capsys.readouterr().out


class TestTrace:
    def test_trace_problem_file_and_report(self, problem_file, tmp_path, capsys):
        out = str(tmp_path / "run.trace.jsonl")
        assert main(["trace", problem_file, "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert f"wrote {out}" in stdout
        from repro.obs import read_events

        events = read_events(out)
        assert events[0]["event"] == "trace_header"
        assert {"run_start", "step", "run_end"} <= {e["event"] for e in events}

        assert main(["report", out]) == 0
        report = capsys.readouterr().out
        assert "convergence" in report
        assert "stall spans" in report

    def test_trace_generated_family(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert (
            main(
                [
                    "trace",
                    "random",
                    "--heuristic",
                    "local",
                    "--seed",
                    "3",
                    "--size",
                    "10",
                    "--tokens",
                    "5",
                ]
            )
            == 0
        )
        assert (tmp_path / "random.trace.jsonl").exists()
        header = json.loads(
            (tmp_path / "random.trace.jsonl").read_text().splitlines()[0]
        )
        assert header["family"] == "random"
        assert header["size"] == 10

    def test_trace_profile_prints_phase_summary(self, problem_file, tmp_path, capsys):
        out = str(tmp_path / "t.jsonl")
        assert main(["trace", problem_file, "--out", out, "--profile"]) == 0
        stdout = capsys.readouterr().out
        assert "heuristic_select" in stdout
        assert "kernel_apply" in stdout

    def test_trace_unknown_heuristic(self, problem_file, tmp_path, capsys):
        assert (
            main(
                [
                    "trace",
                    problem_file,
                    "--heuristic",
                    "nope",
                    "--out",
                    str(tmp_path / "t.jsonl"),
                ]
            )
            == 2
        )
        assert "unknown heuristic" in capsys.readouterr().err

    def test_trace_determinism_via_cli(self, problem_file, tmp_path):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        assert main(["trace", problem_file, "--out", a]) == 0
        assert main(["trace", problem_file, "--out", b]) == 0
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()


class TestSimulateProfile:
    def test_profile_flag_prints_summary(self, problem_file, capsys):
        assert main(["simulate", problem_file, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "heuristic_select" in out


class TestRunTraceDir:
    def test_run_writes_per_point_traces(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        assert (
            main(
                [
                    "run",
                    "fig1",
                    "--no-cache",
                    "--trace-dir",
                    str(trace_dir),
                ]
            )
            == 0
        )
        capsys.readouterr()
        files = sorted(trace_dir.iterdir())
        assert files, "expected at least one per-point trace"
        from repro.obs import read_events

        events = read_events(str(files[0]))
        assert events[0]["event"] == "trace_header"


class TestRunLedgerDefault:
    def test_cached_run_appends_ledger_under_cache_dir(self, tmp_path, capsys):
        from repro.obs import read_events

        cache = tmp_path / "cache"
        assert main(["run", "fig1", "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        events = read_events(str(cache / "ledger.jsonl"))
        kinds = {e["event"] for e in events}
        assert {"sweep_start", "point_start", "point_end", "sweep_end"} <= kinds
        ends = [e for e in events if e["event"] == "point_end"]
        assert ends and all(len(e["key"]) == 64 for e in ends)

    def test_no_cache_without_ledger_writes_none(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["run", "fig1", "--no-cache", "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert not cache.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_two(self, capsys, workers):
        assert main(["run", "fig1", "--no-cache", "--workers", workers]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_environment_does_not_configure_run(self, tmp_path, capsys, monkeypatch):
        # A run is set by its flags alone: variables that once doubled
        # the flags change neither the output nor what is written.
        def rows():
            assert main(["run", "fig1", "--no-cache"]) == 0
            out = capsys.readouterr().out
            return [line for line in out.splitlines() if "completed in" not in line]

        monkeypatch.chdir(tmp_path)
        plain = rows()
        for var in (
            "REPRO_WORKERS",
            "REPRO_NO_CACHE",
            "REPRO_FORCE",
            "REPRO_CACHE_DIR",
            "REPRO_TRACE_DIR",
            "REPRO_LEDGER",
            "REPRO_HEARTBEAT_S",
            "REPRO_PROFILE_SWEEP",
            "REPRO_PAPER_SCALE",
        ):
            monkeypatch.setenv(var, "garbage")
        assert rows() == plain
        assert list(tmp_path.iterdir()) == []


class TestLiveMonitoringCli:
    @pytest.fixture
    def monitored_run(self, tmp_path, capsys):
        """One fig1 sweep with the ledger and per-point traces on disk."""
        ledger = tmp_path / "ledger.jsonl"
        traces = tmp_path / "traces"
        assert (
            main(
                [
                    "run",
                    "fig2",
                    "--no-cache",
                    "--ledger",
                    str(ledger),
                    "--trace-dir",
                    str(traces),
                ]
            )
            == 0
        )
        capsys.readouterr()
        return ledger, traces

    def test_watch_once_snapshot(self, monitored_run, capsys):
        ledger, traces = monitored_run
        assert main(["watch", str(ledger), "--trace", str(traces), "--once"]) == 0
        out = capsys.readouterr().out
        assert "sweep fig2 [finished]" in out
        assert "0 failed" in out
        assert "anomalies: none" in out

    def test_watch_fail_on_anomaly_gates(self, monitored_run, tmp_path, capsys):
        ledger, traces = monitored_run
        # Strip the final run_end from one trace: a genuinely truncated
        # run that the strict pass must flag.
        source = sorted(traces.iterdir())[0]
        lines = source.read_text().splitlines(keepends=True)
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "torn.jsonl").write_text("".join(lines[:-1]))
        assert (
            main(
                [
                    "watch",
                    str(ledger),
                    "--trace",
                    str(broken),
                    "--once",
                    "--fail-on-anomaly",
                ]
            )
            == 2
        )
        assert "truncated-run" in capsys.readouterr().out

    def test_watch_missing_ledger_is_an_error(self, tmp_path, capsys):
        assert main(["watch", str(tmp_path / "nope.jsonl"), "--once"]) == 2
        assert "watch failed" in capsys.readouterr().err

    def test_trace_scan_json_is_deterministic(self, monitored_run, capsys):
        _, traces = monitored_run
        assert main(["trace-scan", str(traces), "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["trace-scan", str(traces), "--format", "json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["count"] == 0
        assert payload["anomalies"] == []
        assert payload["paths"] == [str(traces)]

    def test_trace_verify_json_reports(self, monitored_run, capsys):
        _, traces = monitored_run
        files = [str(p) for p in sorted(traces.iterdir())]
        assert main(["trace-verify", *files, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert [r["path"] for r in payload["reports"]] == files
        assert all(r["ok"] for r in payload["reports"])
