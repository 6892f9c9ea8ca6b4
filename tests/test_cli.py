"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main


class TestCli:
    def test_env_prints_table2(self, capsys):
        assert main(["env"]) == 0
        out = capsys.readouterr().out
        assert "ZN540" in out and "904" in out

    def test_list_prints_experiment_ids(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert "fig2a" in out and "fig7" in out and "fig8" in out
        assert "sec4" in out  # auxiliary: listed, run only when named

    def test_run_selected_experiment(self, capsys):
        assert main(["--fast", "run", "fig2a"]) == 0
        out = capsys.readouterr().out
        assert "[fig2a]" in out and "spdk" in out

    def test_run_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            main(["--fast", "run", "figZZ"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bench_is_not_a_command(self):
        # The suite's only speed instrument is benchmarks/e2e.
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == 2

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            main(["--scale", "-1", "run", "fig2a"])


class TestObservabilityCli:
    def test_run_with_trace_and_metrics(self, capsys, tmp_path):
        jsonl = tmp_path / "trace.jsonl"
        perfetto = tmp_path / "trace.json"
        assert main(["--fast", "run", "fig2b", "--trace", str(jsonl),
                     "--trace-perfetto", str(perfetto), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "[trace]" in out and "[metrics]" in out
        lines = jsonl.read_text().splitlines()
        assert lines and all(json.loads(line)["ts"] >= 0 for line in lines)
        payload = json.loads(perfetto.read_text())
        assert payload["traceEvents"]

    def test_profile_self(self, capsys):
        assert main(["profile", "--self"]) == 0
        out = capsys.readouterr().out
        assert "per-layer attribution" in out and "nand" in out

    def test_profile_experiment(self, capsys):
        assert main(["--fast", "profile", "fig2b"]) == 0
        out = capsys.readouterr().out
        assert "[profile] experiment fig2b" in out
        assert "per-opcode latency" in out

    def test_profile_without_target_errors(self):
        with pytest.raises(SystemExit):
            main(["profile"])
