"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_describe_defaults(self):
        args = build_parser().parse_args(["describe"])
        assert args.system == "theta"
        assert args.seed == 2021

    def test_compare_args(self):
        args = build_parser().parse_args(
            ["compare", "--app", "hacc", "--nodes", "128", "--modes", "AD1,AD2"]
        )
        assert args.app == "hacc"
        assert args.nodes == 128
        assert args.modes == "AD1,AD2"

    def test_ensemble_args(self):
        args = build_parser().parse_args(
            ["ensemble", "--jobs", "4", "--mode", "AD0", "--placement", "compact"]
        )
        assert args.jobs == 4 and args.mode == "AD0"

    @pytest.mark.parametrize(
        "flag",
        [
            ["--queue", "Q"],
            ["--cache", "C"],
            ["--deadline", "1e-6"],
            ["--step-budget", "5"],
            ["--guard", "strict"],
            ["--hang-timeout", "1"],
            ["--bundle-dir", "B"],
        ],
    )
    def test_ensemble_rejects_campaign_only_flags(self, tmp_path, monkeypatch, capsys, flag):
        # ensemble takes --faults/--checkpoint/--resume only; the others
        # would be silently ignored, so argparse refuses them
        monkeypatch.chdir(tmp_path)
        argv = ["ensemble", "--system", "toy", "--jobs", "2", "--nodes", "4", *flag]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestCommands:
    def test_describe_runs(self, capsys):
        assert main(["describe", "--system", "theta"]) == 0
        out = capsys.readouterr().out
        assert "theta" in out
        assert "AD3" in out

    def test_describe_slingshot(self, capsys):
        assert main(["describe", "--system", "slingshot"]) == 0
        assert "slingshot" in capsys.readouterr().out

    def test_unknown_system(self, capsys):
        # config errors exit 2 with a one-line message, not a traceback
        assert main(["describe", "--system", "summit"]) == 2
        err = capsys.readouterr().err
        assert "unknown system" in err and "\n" == err[-1]

    def test_bad_fault_spec(self, capsys):
        assert main(["compare", "--faults", "bogus:1", "--samples", "1"]) == 2
        assert "unknown fault spec" in capsys.readouterr().err

    def test_compare_small(self, capsys):
        rc = main(
            ["compare", "--app", "latencybound", "--nodes", "64", "--samples", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "AD0" in out and "AD3" in out and "over AD0" in out

    def test_advise(self, capsys):
        assert main(["advise", "--app", "bisectionbound", "--nodes", "64"]) == 0
        out = capsys.readouterr().out
        assert "AD0" in out  # bisection-bound apps get AD0

    def test_facility_tiny(self, capsys):
        assert main(["facility", "--intervals", "2"]) == 0
        out = capsys.readouterr().out
        assert "flits" in out and "P99.99" in out

    def test_ensemble_tiny(self, capsys):
        rc = main(
            [
                "ensemble",
                "--app",
                "latencybound",
                "--jobs",
                "2",
                "--nodes",
                "128",
                "--mode",
                "AD3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "network stalls/flits" in out


class TestCalibrateCommand:
    def test_parser(self):
        args = build_parser().parse_args(
            ["calibrate", "--param", "stall_kappa", "--values", "1,3"]
        )
        assert args.param == "stall_kappa"
        assert args.values == "1,3"

    def test_unknown_param_is_a_config_error(self, capsys):
        assert main(["calibrate", "--param", "nosuch", "--values", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: unknown sweepable constant 'nosuch'; have ["
        )
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_param_without_values_is_a_config_error(self, capsys):
        assert main(["calibrate", "--param", "stall_kappa"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --values is required with --param\n"
        assert captured.out == ""

    def test_score_runs_small(self, capsys):
        assert main(["calibrate", "--samples", "2"]) == 0
        out = capsys.readouterr().out
        assert "milc_improvement_pct" in out


class TestInputErrors:
    """Bad CLI input is one ``error:`` line and exit 2, never a traceback."""

    APP = "unknown application 'nosuch'; have ["
    MODE = "unknown routing mode 'AD9'; expected AD0..AD3"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compare", "--app", "nosuch"], APP),
            (["compare", "--modes", "AD9"], MODE),
            (["compare", "--modes", "AD0,AD9"], MODE),
            (["sweep", "--app", "nosuch"], APP),
            (["sweep", "--modes", "AD9"], MODE),
            (["advise", "--app", "nosuch"], APP),
            (["ensemble", "--app", "nosuch"], APP),
            (["ensemble", "--mode", "AD9"], MODE),
            (["ensemble", "--modes", "AD0,AD9"], MODE),
            (["ensemble", "--placement", "bogus", "--jobs", "2", "--nodes", "16"],
             "unknown placement 'bogus'; have ["),
            (["chaos", "--schedule", "checkpoint.append:crash:at=1", "--app", "nosuch"], APP),
            (["chaos", "--schedule", "checkpoint.append:crash:at=1", "--modes", "AD9"], MODE),
            (["submit", "--url", "http://127.0.0.1:9", "--app", "nosuch"], APP),
            (["submit", "--url", "http://127.0.0.1:9", "--modes", "AD9"], MODE),
            (["compare", "--samples", "-1"], "samples (--samples) must be >= 0, got -1"),
            (["compare", "--nodes", "0"], "n_nodes (--nodes) must be > 0, got 0"),
            (["sweep", "--nodes", "-4"], "n_nodes (--nodes) must be > 0, got -4"),
            (["submit", "--url", "http://127.0.0.1:9", "--samples", "-2"],
             "samples (--samples) must be >= 0, got -2"),
            (["ensemble", "--nodes", "0"], "n_nodes (--nodes) must be > 0, got 0"),
            (["ensemble", "--nodes", "-4"], "n_nodes (--nodes) must be > 0, got -4"),
            (["compare", "--modes", "AD0,AD0"], "modes (--modes) repeats 'AD0'"),
            (["ensemble", "--modes", "AD3,AD0,3"], "modes (--modes) repeats 'AD3'"),
        ],
    )
    def test_one_line_and_exit_2(self, capsys, argv, message):
        assert main([*argv, "--system", "mini"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_campaign_config_rejects_repeated_modes(self):
        from repro.apps import MILC
        from repro.core.biases import AD0, AD3
        from repro.core.experiment import CampaignConfig

        with pytest.raises(ValueError, match="repeats 'AD3'"):
            CampaignConfig(app=MILC(), modes=(AD3, AD0, AD3))

    def test_lookups_stay_key_errors_for_library_callers(self):
        from repro.apps import app_by_name
        from repro.core.biases import mode_by_name

        with pytest.raises(KeyError):
            app_by_name("nosuch")
        with pytest.raises(KeyError):
            mode_by_name("AD9")


class TestSweepModes:
    def test_sweep_has_own_modes_default(self):
        args = build_parser().parse_args(["sweep"])
        assert args.modes == "AD0,AD1,AD2,AD3"

    def test_sweep_modes_honored(self, capsys):
        rc = main(
            [
                "sweep",
                "--app",
                "latencybound",
                "--nodes",
                "64",
                "--samples",
                "1",
                "--modes",
                "AD0,AD2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "AD2" in out and "AD1" not in out and "AD3" not in out

    def test_sweep_does_not_mutate_compare_defaults(self):
        # regression: sweep used to overwrite args.modes unconditionally
        args = build_parser().parse_args(["sweep", "--modes", "AD1,AD3"])
        assert args.modes == "AD1,AD3"


class TestObservabilityFlags:
    def test_flags_on_every_subcommand(self):
        for cmd in ("describe", "compare", "sweep", "advise", "facility",
                    "calibrate", "ensemble"):
            args = build_parser().parse_args([cmd])
            assert args.verbose == 0
            assert args.trace is None
            assert args.metrics is None

    def test_verbose_counts(self):
        args = build_parser().parse_args(["describe", "-vv"])
        assert args.verbose == 2

    def test_trace_written_and_closed(self, tmp_path, capsys):
        trace = tmp_path / "d.jsonl"
        assert main(["facility", "--intervals", "2", "--trace", str(trace)]) == 0
        capsys.readouterr()
        from repro.telemetry import read_trace

        events = read_trace(trace)
        kinds = {e["ev"] for e in events}
        assert "facility.interval" in kinds
        assert "fluid.solve" in kinds
        assert "facility.window" in kinds
