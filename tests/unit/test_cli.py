"""Unit tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_design_args(self):
        args = build_parser().parse_args(
            ["design", "--k", "8", "--d", "3", "--t", "2", "--routing", "udr"]
        )
        assert (args.k, args.d, args.t, args.routing) == (8, 3, 2, "udr")

    def test_defaults(self):
        args = build_parser().parse_args(["analyze", "--k", "4", "--d", "2"])
        assert args.t == 1 and args.routing == "odr"
        assert args.engine == "auto"

    def test_engine_args(self):
        args = build_parser().parse_args(
            ["analyze", "--k", "4", "--d", "2", "--engine", "fft"]
        )
        assert args.engine == "fft"

    def test_engine_rejects_unknown(self):
        for engine in ("bogus", "parallel"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["analyze", "--k", "4", "--d", "2", "--engine", engine]
                )

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--k", "4", "--d", "2", "--jobs", "2"],
            ["sweep", "--d", "2", "--ks", "4,6", "--retries", "3"],
        ],
        ids=["analyze-jobs", "sweep-retries"],
    )
    def test_load_commands_reject_fanout_flags(self, argv):
        # only certify fans out over processes; the load commands have
        # no --jobs or resilience flags
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


class TestCommands:
    def test_design(self, capsys):
        assert main(["design", "--k", "6", "--d", "2"]) == 0
        out = capsys.readouterr().out
        assert "|P|                : 6" in out
        assert "ODR" in out

    def test_analyze_bounds_hold(self, capsys):
        assert main(["analyze", "--k", "6", "--d", "2"]) == 0
        out = capsys.readouterr().out
        assert "bounds hold     : True" in out

    @pytest.mark.parametrize("engine", ["reference", "displacement"])
    def test_analyze_engines_agree(self, capsys, engine):
        argv = ["analyze", "--k", "6", "--d", "2", "--engine", engine]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "E_max           : 3" in out
        assert "bounds hold     : True" in out

    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        assert "[P]" in capsys.readouterr().out

    def test_experiments_single(self, capsys):
        assert main(["experiments", "--quick", "--only", "EXP-2"]) == 0
        assert "Verdict: PASS" in capsys.readouterr().out

    def test_simulate(self, capsys):
        assert main(["simulate", "--k", "4", "--d", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "packets delivered : 12" in out

    def test_simulate_with_failures(self, capsys):
        assert main(
            ["simulate", "--k", "5", "--d", "2", "--routing", "udr",
             "--fail-links", "5", "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "injected 5 link failures" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "--d", "2", "--ks", "4,6,8", "--family", "linear"]) == 0
        out = capsys.readouterr().out
        assert "growth exponent" in out

    def test_error_exit_code(self, capsys):
        # k=1 is an invalid radix: the CLI reports and exits 2
        assert main(["design", "--k", "1", "--d", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_experiment_errors(self, capsys):
        assert main(["experiments", "--only", "EXP-99"]) == 2


class TestCertify:
    def test_default_size_seeds_linear_incumbent(self, capsys):
        assert main(["certify", "--k", "4", "--d", "2"]) == 0
        out = capsys.readouterr().out
        assert "incumbent seed  : linear(c=0) E_max = 2" in out
        assert "global min E_max: 2" in out
        assert "optimal count   : 292" in out
        assert "0 full evaluations" in out

    def test_full_mode_prints_histogram(self, capsys):
        assert main(["certify", "--k", "3", "--d", "2", "--mode", "full"]) == 0
        out = capsys.readouterr().out
        assert "E_max histogram :" in out
        assert "orbits          : 4" in out

    def test_explicit_size_and_jobs(self, capsys):
        assert main(
            ["certify", "--k", "3", "--d", "2", "--size", "2", "--jobs", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "certified space : all C(9, 2) = 36 placements" in out

    def test_unachievable_ub_exits_nonzero(self, capsys):
        assert main(
            ["certify", "--k", "3", "--d", "2", "--ub", "0.25"]
        ) == 2
        assert "error:" in capsys.readouterr().err


class TestAnalyzeMarkdown:
    def test_markdown_flag(self, capsys):
        assert main(["analyze", "--k", "6", "--d", "2", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Placement analysis")
        assert "Bisection certificates" in out


class TestObservabilityFlags:
    def test_certify_trace_roundtrip(self, capsys, tmp_path):
        from repro.obs import read_trace

        path = tmp_path / "out.jsonl"
        assert main(
            ["certify", "--k", "3", "--d", "2", "--trace", str(path)]
        ) == 0
        err = capsys.readouterr().err
        assert f"trace written to {path}" in err
        records = read_trace(path)
        assert records[0]["label"] == "certify"
        names = {r.get("name") for r in records if r.get("kind") == "span"}
        assert "search.certify" in names

    def test_trace_summarize_subcommand(self, capsys, tmp_path):
        path = tmp_path / "out.jsonl"
        assert main(
            ["certify", "--k", "3", "--d", "2", "--trace", str(path)]
        ) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Trace summary — certify")
        assert "search.certify" in out

    def test_trace_summarize_missing_file_errors(self, capsys, tmp_path):
        assert main(["trace", "summarize", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_profile_flag_writes_dump(self, capsys, tmp_path):
        out = tmp_path / "analyze.prof"
        assert main(
            ["analyze", "--k", "4", "--d", "2",
             "--profile", "pstats", "--profile-out", str(out)]
        ) == 0
        assert out.exists()
        assert "profile (pstats) written" in capsys.readouterr().err

    def test_profile_rejects_unknown_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["analyze", "--k", "4", "--d", "2", "--profile", "perf"]
            )

    def test_quiet_silences_stderr_but_not_results(self, capsys):
        assert main(["--quiet", "analyze", "--k", "6", "--d", "2"]) == 0
        captured = capsys.readouterr()
        assert "bounds hold     : True" in captured.out
        assert captured.err == ""

    def test_certify_progress_emits_heartbeat_lines(self, capsys):
        import repro.placements.exact_search as es

        previous = es._HEARTBEAT_SECONDS
        es._HEARTBEAT_SECONDS = 0.0
        try:
            assert main(
                ["certify", "--k", "3", "--d", "2", "--progress"]
            ) == 0
        finally:
            es._HEARTBEAT_SECONDS = previous
        err = capsys.readouterr().err
        assert "exact-search T_3^2" in err
        assert "nodes expanded" in err


class TestImportFootprint:
    def test_analyze_runs_without_scipy_or_networkx(self):
        # scipy and networkx are test-only dependencies: blocking both
        # must leave the CLI importable and the load path working
        src = Path(__file__).resolve().parents[2] / "src"
        script = (
            "import sys\n"
            "sys.modules['scipy'] = sys.modules['networkx'] = None\n"
            "from repro.cli import main\n"
            "sys.exit(main(['analyze', '--k', '4', '--d', '2']))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "bounds hold     : True" in proc.stdout
