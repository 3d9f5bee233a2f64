"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture()
def trace_path(tmp_path):
    path = tmp_path / "trace.rpv5"
    code = main([
        "synth", "--out", str(path), "--bins", "4", "--fps", "6",
        "--seed", "3", "--anomaly", "port-scan",
    ])
    assert code == 0
    return path


class TestSynth:
    def test_writes_trace(self, trace_path, capsys):
        assert trace_path.exists()

    def test_multiple_anomalies(self, tmp_path):
        path = tmp_path / "multi.rpv5"
        code = main([
            "synth", "--out", str(path), "--bins", "4", "--fps", "5",
            "--anomaly", "udp-flood", "--anomaly", "syn-flood",
        ])
        assert code == 0
        assert path.exists()


class TestQuery:
    def test_filter_and_count(self, trace_path, capsys):
        code = main([
            "query", str(trace_path), "--filter", "src port 55548",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "flows match" in out

    def test_top_feature(self, trace_path, capsys):
        code = main([
            "query", str(trace_path), "--filter", "proto tcp",
            "--top", "dstPort", "-n", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "value" in out

    def test_bad_filter_is_handled(self, trace_path, capsys):
        # Filter errors map to their own exit code (see cli.EXIT_CODES).
        code = main(["query", str(trace_path), "--filter", "bogus 5"])
        assert code == 4
        assert "error:" in capsys.readouterr().err


class TestExtract:
    def test_extract_window_with_hints(self, trace_path, capsys):
        code = main([
            "extract", str(trace_path), "--start", "600", "--end", "900",
            "--hint", "srcPort=55548",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "#flows" in out
        assert "55548" in out

    def test_extract_empty_window(self, trace_path, capsys):
        code = main([
            "extract", str(trace_path), "--start", "90000",
            "--end", "90300",
        ])
        assert code == 2

    def test_anonymize(self, trace_path, capsys):
        code = main([
            "extract", str(trace_path), "--start", "600", "--end", "900",
            "--hint", "srcPort=55548", "--anonymize",
        ])
        assert code == 0
        assert "203.191.64.165" not in capsys.readouterr().out


class TestStream:
    @pytest.fixture()
    def long_trace(self, tmp_path):
        path = tmp_path / "long.rpv5"
        code = main([
            "synth", "--out", str(path), "--bins", "12", "--fps", "8",
            "--seed", "7", "--anomaly", "port-scan",
        ])
        assert code == 0
        return path

    def test_stream_detects_and_triages(self, long_trace, capsys):
        code = main([
            "stream", str(long_trace), "--train-bins", "8",
            "--triage", "--dedup-window", "600",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "window 2 [3000, 3300)" in out
        assert "ALARM" in out
        assert "triage" in out
        assert "flows/s" in out

    def test_stream_too_short_trace(self, trace_path, capsys):
        code = main(["stream", str(trace_path), "--train-bins", "10"])
        assert code == 2

    def test_stream_workers_matches_serial(self, long_trace, capsys):
        code = main([
            "stream", str(long_trace), "--train-bins", "8",
            "--triage", "--dedup-window", "600",
        ])
        assert code == 0
        serial = capsys.readouterr().out
        code = main([
            "stream", str(long_trace), "--train-bins", "8",
            "--triage", "--dedup-window", "600", "--workers", "3",
        ])
        assert code == 0
        sharded = capsys.readouterr().out
        # Identical windows/alarms/triage; only the timing line varies.
        strip = lambda text: [  # noqa: E731
            line for line in text.splitlines()
            if not line.startswith("streamed ")
        ]
        assert strip(sharded) == strip(serial)

    def test_stream_interrupt_summarises_cleanly(
        self, long_trace, capsys, monkeypatch
    ):
        from repro.stream import ReplayDriver

        original = ReplayDriver.chunks

        def interrupted_chunks(self):
            for count, chunk in enumerate(original(self)):
                if count == 2:
                    raise KeyboardInterrupt
                yield chunk

        monkeypatch.setattr(ReplayDriver, "chunks", interrupted_chunks)
        code = main(["stream", str(long_trace), "--train-bins", "8"])
        assert code == 130
        out = capsys.readouterr().out
        assert "interrupted after" in out
        assert "windows" in out

    def test_workers_flag_rejects_non_positive(self, long_trace, capsys):
        with pytest.raises(SystemExit):
            main(["stream", str(long_trace), "--workers", "0"])
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_ipc_flag_is_gone(self, long_trace, capsys):
        with pytest.raises(SystemExit):
            main(["stream", str(long_trace), "--ipc", "shm"])
        assert "unrecognized arguments: --ipc" in capsys.readouterr().err


class TestDetect:
    def test_too_short_trace(self, trace_path, capsys):
        code = main(["detect", str(trace_path), "--train-bins", "10"])
        assert code == 2


class TestRun:
    """The declarative `repro run config.toml` face."""

    @pytest.fixture()
    def long_trace(self, tmp_path):
        path = tmp_path / "long.rpv5"
        code = main([
            "synth", "--out", str(path), "--bins", "12", "--fps", "8",
            "--seed", "7", "--anomaly", "port-scan",
        ])
        assert code == 0
        return path

    def _config(self, tmp_path, trace, mode_lines):
        config = tmp_path / "session.toml"
        config.write_text(
            "[source]\n"
            'kind = "rpv5"\n'
            f'path = "{trace}"\n\n'
            "[detector]\n"
            "train_bins = 8\n\n"
            "[execution]\n"
            + mode_lines
        )
        return config

    def test_run_batch_config(self, long_trace, tmp_path, capsys):
        config = self._config(tmp_path, long_trace,
                              'mode = "batch"\ntriage = true\n')
        code = main(["run", str(config)])
        assert code == 0
        out = capsys.readouterr().out
        assert "session batch ok:" in out
        assert "triage" in out

    def test_run_matches_subcommand(self, long_trace, tmp_path, capsys):
        code = main(["stream", str(long_trace), "--train-bins", "8",
                     "--triage", "--dedup-window", "600"])
        assert code == 0
        subcommand = capsys.readouterr().out
        config = self._config(
            tmp_path, long_trace,
            'mode = "stream"\ndedup_window = 600\ntriage = true\n',
        )
        code = main(["run", str(config)])
        assert code == 0
        via_config = capsys.readouterr().out
        # Identical apart from the timing line and the trailing summary.
        strip = lambda text: [  # noqa: E731
            line for line in text.splitlines()
            if not line.startswith(("streamed ", "session "))
        ]
        assert strip(via_config) == strip(subcommand)

    def test_run_set_overrides(self, long_trace, tmp_path, capsys):
        config = self._config(tmp_path, long_trace, 'mode = "batch"\n')
        code = main([
            "run", str(config), "--workers", "2",
            "--set", "detector.train_bins=9",
        ])
        assert code == 0
        assert "session batch ok:" in capsys.readouterr().out

    def test_run_unknown_detector_exits_3(
        self, long_trace, tmp_path, capsys
    ):
        config = self._config(tmp_path, long_trace, 'mode = "batch"\n')
        code = main(["run", str(config), "--set", "detector.name=nope"])
        assert code == 3
        err = capsys.readouterr().err
        assert "detector.name" in err and "netreflex" in err

    def test_run_bad_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.toml"
        config.write_text("[execution]\nmode = 'batch'\n")
        assert main(["run", str(config)]) == 2
        config.write_text("not toml [ at all")
        assert main(["run", str(config)]) == 2
        assert main(["run", str(tmp_path / "missing.toml")]) == 2

    def test_run_unknown_spec_key_names_field(self, tmp_path, capsys):
        config = tmp_path / "typo.toml"
        config.write_text(
            '[source]\nkind = "rpv5"\npath = "t.rpv5"\n\n'
            "[execution]\nwrokers = 4\n"
        )
        assert main(["run", str(config)]) == 2
        assert "execution.wrokers" in capsys.readouterr().err


class TestArchiveQueryPlanner:
    @pytest.fixture()
    def archive_dir(self, trace_path, tmp_path):
        spool = tmp_path / "spool"
        assert main([
            "archive", "ingest", str(trace_path), "--dir", str(spool),
        ]) == 0
        return spool

    def test_stats_explain_reports_pushdown(self, archive_dir, capsys):
        code = main([
            "archive", "query", "--dir", str(archive_dir),
            "--stats", "--explain",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "plan: count" in out
        assert "zone-map-stats" in out
        assert "0 bytes read" in out
        assert "packets" in out  # the counters table rendered

    def test_top_explain_reports_feature_index(
        self, archive_dir, capsys
    ):
        code = main([
            "archive", "query", "--dir", str(archive_dir),
            "--top", "dstPort", "-n", "3", "--explain",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "plan: top" in out
        assert "feature-index" in out
        assert "value" in out

    def test_filtered_stats_scans_payload(self, archive_dir, capsys):
        code = main([
            "archive", "query", "--dir", str(archive_dir),
            "--stats", "--explain", "--filter", "proto tcp",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "payload scans:" in out
        assert "pushdown" not in out

    def test_rows_query_without_explain_prints_no_plan(
        self, archive_dir, capsys
    ):
        code = main([
            "archive", "query", "--dir", str(archive_dir),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "flows match" in out
        assert "plan:" not in out


class TestExitCodes:
    def test_error_hierarchy_maps_to_distinct_codes(self):
        from repro.cli import exit_code_for
        from repro.errors import (
            ArchiveError,
            CodecError,
            FilterSyntaxError,
            RegistryError,
            SpecError,
            StoreError,
        )

        assert exit_code_for(RegistryError("x")) == 3
        assert exit_code_for(SpecError("x")) == 2
        assert exit_code_for(FilterSyntaxError("x")) == 4
        assert exit_code_for(CodecError("x")) == 5
        assert exit_code_for(ArchiveError("x")) == 6
        assert exit_code_for(StoreError("x")) == 1

    def test_help_text_is_shared_across_subcommands(self, capsys):
        # Parent parsers are generated from the spec dataclasses, so
        # the same flag renders the same help everywhere.
        from repro.cli import build_parser

        parser = build_parser()
        texts = {}
        for command in ("detect", "stream"):
            sub = parser._subparsers._group_actions[0].choices[command]
            texts[command] = sub.format_help()
        assert "deprecated, no effect" in texts["detect"]
        assert "deprecated, no effect" in texts["stream"]
