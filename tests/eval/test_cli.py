"""CLI tests (parser wiring and the fast subcommands)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_args(self):
        args = build_parser().parse_args(["simulate", "/tmp/x", "--scale", "small", "--seed", "9"])
        assert args.command == "simulate"
        assert args.output == "/tmp/x"
        assert args.seed == 9

    def test_detect_model_choices(self):
        args = build_parser().parse_args(["detect", "--model", "base-ff"])
        assert args.model == "base-ff"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["detect", "--model", "transformer"])

    def test_case_study_attacks(self):
        args = build_parser().parse_args(["case-study", "zeus"])
        assert args.attack == "zeus"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["case-study", "mirai"])

    def test_stream_args(self):
        args = build_parser().parse_args(
            [
                "stream",
                "--checkpoint-dir", "/tmp/ckpt",
                "--resume",
                "--checkpoint-every", "5",
                "--stop-after-days", "40",
                "--on-bad-day", "skip",
            ]
        )
        assert args.command == "stream"
        assert args.checkpoint_dir == "/tmp/ckpt"
        assert args.resume is True
        assert args.checkpoint_every == 5
        assert args.stop_after_days == 40
        assert args.on_bad_day == "skip"

    def test_stream_defaults_leave_policy_unset(self):
        # None lets a resumed stream inherit the checkpointed policy.
        args = build_parser().parse_args(["stream"])
        assert args.on_bad_day is None
        assert args.resume is False
        assert args.checkpoint_every == 1

    def test_stream_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream", "--on-bad-day", "ignore"])


class TestCommands:
    def test_presets_runs(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "small" in out and "paper" in out and "512x256x128x64" in out

    def test_simulate_writes_csvs(self, tmp_path, capsys):
        # Tiny bespoke run: reuse the small preset but a different seed to
        # keep it independent of the session-scoped benchmark fixture.
        assert main(["simulate", str(tmp_path), "--scale", "small", "--no-injection", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert (tmp_path / "http.csv").exists()
        assert (tmp_path / "logon.csv").exists()

    def test_simulate_with_injection_reports_insiders(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path), "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "injected insiders:" in out
        assert (tmp_path / "device.csv").exists()

    def test_stream_resume_without_model_fails_cleanly(self, tmp_path, capsys):
        assert main(["stream", "--resume", "--checkpoint-dir", str(tmp_path)]) == 2
        assert "no saved model" in capsys.readouterr().err


class TestIngestParser:
    def test_ingest_args(self):
        args = build_parser().parse_args(
            [
                "ingest",
                "--shuffle-seed", "3",
                "--allowed-lateness", "2",
                "--late-policy", "quarantine-file",
                "--quarantine-file", "/tmp/q.jsonl",
                "--max-open-days", "12",
                "--checkpoint-dir", "/tmp/ckpt",
                "--resume",
                "--stop-after-events", "5000",
            ]
        )
        assert args.command == "ingest"
        assert args.shuffle_seed == 3
        assert args.allowed_lateness == 2
        assert args.late_policy == "quarantine-file"
        assert args.quarantine_file == "/tmp/q.jsonl"
        assert args.max_open_days == 12
        assert args.resume is True
        assert args.stop_after_events == 5000

    def test_ingest_defaults(self):
        args = build_parser().parse_args(["ingest"])
        assert args.shuffle_seed is None  # canonical arrival order
        assert args.allowed_lateness == 1
        assert args.late_policy == "drop"
        assert args.checkpoint_every == 1
        assert args.resume is False

    def test_ingest_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ingest", "--late-policy", "vanish"])

    def test_ingest_quarantine_policy_requires_path(self, capsys):
        assert main(["ingest", "--late-policy", "quarantine-file"]) == 2
        assert "quarantine" in capsys.readouterr().err

    def test_ingest_resume_without_model_fails_cleanly(self, tmp_path, capsys):
        assert main(["ingest", "--resume", "--checkpoint-dir", str(tmp_path)]) == 2
        assert "no saved model" in capsys.readouterr().err


_STOP_FLAGS = {"stream": "--stop-after-days", "ingest": "--stop-after-events"}


class TestRunFlagValidation:
    """The run driver's flag checks, shared by ``stream`` and ``ingest``.

    Each rejection exits 2 before any data is simulated or loaded.
    """

    @pytest.mark.parametrize("command", sorted(_STOP_FLAGS))
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--resume"], "--checkpoint-dir"),
            (["--checkpoint-every", "0"], "--checkpoint-every"),
            (["--export-every", "0"], "--export-every"),
            (["--top", "-1"], "--top"),
            (["STOP", "-1"], "STOP"),
        ],
        ids=["resume-without-dir", "checkpoint-every-0", "export-every-0", "top-negative",
             "stop-after-negative"],
    )
    def test_rejects_with_exit_2(self, command, argv, flag, capsys):
        stop = _STOP_FLAGS[command]
        assert main([command, *[stop if a == "STOP" else a for a in argv]]) == 2
        assert (stop if flag == "STOP" else flag) in capsys.readouterr().err
