"""Tests for the command-line interface."""

import shutil
from pathlib import Path

import pytest

from repro import api
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


QUERY_SHAPES = [
    pytest.param([], id="rows"),
    pytest.param(["--set", "execution.top=dstIP"], id="top"),
    pytest.param(["--set", "execution.stats=true"], id="stats"),
]


class TestQueryWindows:
    """One answer per window, whatever the source and the answer
    shape: an inverted window is a spec error (exit 2), and a start
    past the data with the end left open is an empty answer."""

    @pytest.fixture(params=["rpv5", "archive"])
    def config(self, request, trace_path, tmp_path):
        path = trace_path
        if request.param == "archive":
            path = tmp_path / "spool"
            assert main([
                "archive", "ingest", str(trace_path), "--dir", str(path),
            ]) == 0
        config = tmp_path / "query.toml"
        config.write_text(
            f'[source]\nkind = "{request.param}"\npath = "{path}"\n\n'
            f'[execution]\nmode = "query"\n'
        )
        return str(config)

    @pytest.mark.parametrize("shape", QUERY_SHAPES)
    def test_inverted_window_is_a_spec_error(self, config, shape, capsys):
        code = main([
            "run", config, "--set", "execution.start=900",
            "--set", "execution.end=600", *shape,
        ])
        assert code == 2
        assert "execution.end: window end 600.0 precedes start 900.0" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("shape", QUERY_SHAPES)
    def test_start_past_the_data_is_empty(self, config, shape, capsys):
        code = main(["run", config, "--set", "execution.start=9000",
                     *shape])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("0 flows match")
        assert "session query ok: matched=0" in out


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


# -- argv -> spec: the preset table pins each subcommand ---------------------

T = "t.rpv5"
CONFIGS = Path(__file__).resolve().parents[1] / "examples" / "configs"


def _stream_chain(**overrides):
    """The stream subcommand's builder chain, every argument explicit."""
    options = dict(
        window_seconds=None, workers=1, lateness_seconds=0.0,
        retain_windows=16, dedup_window=None, speedup=None,
        chunk_rows=8192, triage=False,
    )
    options.update(overrides)
    return (
        api.session().source("rpv5", path=T)
        .detect("netreflex", train_bins=8).stream(**options)
    )


def _query_chain(kind, path, **overrides):
    options = dict(start=None, end=None, filter=None, top=None, limit=10)
    options.update(overrides)
    return api.session().source(kind, path=path).query(**options)


def _archive_query_chain(**overrides):
    options = dict(stats=False, explain=False, workers=1)
    options.update(overrides)
    return _query_chain("archive", "full", **options)


def _triage_chain(workers=1, anonymize=False):
    return (
        api.session().source("archive", path="spool")
        .triage(workers=workers, anonymize=anonymize).alarmdb("alarms.db")
    )


SPEC_CASES = [
    pytest.param(
        ["synth", "--out", T],
        lambda: api.session().scenario(
            bins=6, fps=25.0, seed=0, sampling=1, anomalies=[],
        ).synth(T),
        id="synth",
    ),
    pytest.param(
        ["synth", "--out", T, "--bins", "12", "--fps", "8", "--seed", "7",
         "--sampling", "2", "--anomaly", "port-scan",
         "--anomaly", "udp-flood"],
        lambda: api.session().scenario(
            bins=12, fps=8.0, seed=7, sampling=2,
            anomalies=["port-scan", "udp-flood"],
        ).synth(T),
        id="synth-flags",
    ),
    pytest.param(["query", T], lambda: _query_chain("rpv5", T), id="query"),
    pytest.param(
        ["query", T, "--filter", "src port 55548", "--start", "3000",
         "--end", "3300", "--top", "dstIP", "-n", "3"],
        lambda: _query_chain(
            "rpv5", T, start=3000.0, end=3300.0, filter="src port 55548",
            top="dstIP", limit=3,
        ),
        id="query-flags",
    ),
    pytest.param(
        ["detect", T, "--train-bins", "8"],
        lambda: api.session().source("rpv5", path=T)
        .detect("netreflex", train_bins=8).batch(workers=1),
        id="detect",
    ),
    pytest.param(
        ["detect", T, "--train-bins", "9", "--workers", "4",
         "--detector", "kl"],
        lambda: api.session().source("rpv5", path=T)
        .detect("kl", train_bins=9).batch(workers=4),
        id="detect-flags",
    ),
    pytest.param(
        ["extract", T, "--start", "3000", "--end", "3300",
         "--hint", "srcPort=55548"],
        lambda: api.session().source("rpv5", path=T).extract(
            3000.0, 3300.0, hints=["srcPort=55548"], workers=1,
            anonymize=False,
        ),
        id="extract",
    ),
    pytest.param(
        ["extract", T, "--start", "3000", "--end", "3300", "--hint",
         "srcPort=55548", "--hint", "dstIP=10.9.0.4", "--workers", "4",
         "--anonymize"],
        lambda: api.session().source("rpv5", path=T).extract(
            3000.0, 3300.0, hints=["srcPort=55548", "dstIP=10.9.0.4"],
            workers=4, anonymize=True,
        ),
        id="extract-flags",
    ),
    pytest.param(
        ["stream", T, "--train-bins", "8"], _stream_chain, id="stream",
    ),
    pytest.param(
        ["stream", T, "--train-bins", "8", "--triage",
         "--dedup-window", "600", "--workers", "4"],
        lambda: _stream_chain(triage=True, dedup_window=600.0, workers=4),
        id="stream-triage",
    ),
    pytest.param(
        ["stream", T, "--train-bins", "8", "--window", "600",
         "--lateness", "30", "--retain-windows", "4", "--chunk-rows",
         "1000", "--speedup", "60", "--detector", "pca"],
        lambda: api.session().source("rpv5", path=T)
        .detect("pca", train_bins=8).stream(
            window_seconds=600.0, workers=1, lateness_seconds=30.0,
            retain_windows=4, dedup_window=None, speedup=60.0,
            chunk_rows=1000, triage=False,
        ),
        id="stream-geometry",
    ),
    pytest.param(
        ["stream", T, "--train-bins", "8", "--speedup", "0"],
        _stream_chain,
        id="stream-max-rate",
    ),
    pytest.param(
        ["stream", T, "--train-bins", "8", "--archive", "spool",
         "--alarmdb", "alarms.db"],
        lambda: _stream_chain().archive("spool").alarmdb("alarms.db"),
        id="stream-sinks",
    ),
    pytest.param(
        ["stream", T, "--train-bins", "8", "--triage", "--speedup", "400",
         "--metrics-port", "9309"],
        lambda: _stream_chain(triage=True, speedup=400.0).serve(9309),
        id="stream-metrics-port",
    ),
    pytest.param(
        ["stream", T, "--train-bins", "8", "--serve-port", "0"],
        lambda: _stream_chain().serve(0, console=True),
        id="stream-serve-port",
    ),
    pytest.param(
        ["archive", "ingest", T, "--dir", "full", "--window", "600",
         "--spill-rows", "4096"],
        lambda: api.session().source("rpv5", path=T).ingest(
            "full", window=600.0, spill_rows=4096,
        ),
        id="archive-ingest",
    ),
    pytest.param(
        ["archive", "query", "--dir", "full"],
        _archive_query_chain,
        id="archive-query",
    ),
    pytest.param(
        ["archive", "query", "--dir", "full", "--start", "3000", "--end",
         "3300", "--filter", "src port 55548", "--top", "dstIP"],
        lambda: _archive_query_chain(
            start=3000.0, end=3300.0, filter="src port 55548", top="dstIP",
        ),
        id="archive-query-top",
    ),
    pytest.param(
        ["archive", "query", "--dir", "full", "--stats", "--explain",
         "--workers", "2", "-n", "3"],
        lambda: _archive_query_chain(
            stats=True, explain=True, workers=2, limit=3,
        ),
        id="archive-query-stats",
    ),
    *(
        pytest.param(
            ["archive", mode, "--dir", "full"],
            lambda mode=mode: api.session().source("archive", path="full")
            .mode(mode),
            id=f"archive-{mode}",
        )
        for mode in ("ls", "compact", "stats")
    ),
    pytest.param(
        ["archive", "triage", "--dir", "spool", "--alarmdb", "alarms.db"],
        _triage_chain,
        id="archive-triage",
    ),
    pytest.param(
        ["archive", "triage", "--dir", "spool", "--alarmdb", "alarms.db",
         "--workers", "2", "--anonymize", "--serve-port", "0"],
        lambda: _triage_chain(workers=2, anonymize=True)
        .serve(0, console=True),
        id="archive-triage-serve-port",
    ),
    pytest.param(
        ["archive", "triage", "--dir", "spool", "--alarmdb", "alarms.db",
         "--metrics-port", "0"],
        lambda: _triage_chain().serve(0),
        id="archive-triage-metrics-port",
    ),
    # The config commands: the file, then --set, then flags.
    pytest.param(
        ["run", str(CONFIGS / "batch.toml"), "--workers", "4"],
        lambda: api.load_spec(CONFIGS / "batch.toml").with_overrides(
            execution={"workers": 4},
        ),
        id="run-workers",
    ),
    pytest.param(
        ["run", str(CONFIGS / "collector.toml"), "--port", "0"],
        lambda: api.load_spec(CONFIGS / "collector.toml").with_overrides(
            source={"options": {
                **api.load_spec(CONFIGS / "collector.toml").source.options,
                "port": 0,
            }},
        ),
        id="run-port",
    ),
    pytest.param(
        ["run", str(CONFIGS / "batch.toml"), "--set",
         "detector.train_bins=9", "--set", "execution.triage=false",
         "--set", "sink.alarmdb=a.db"],
        lambda: api.load_spec(CONFIGS / "batch.toml").with_overrides(
            detector={"train_bins": 9},
            execution={"triage": False},
            sink={"alarmdb": "a.db"},
        ),
        id="run-set",
    ),
    pytest.param(
        ["serve", str(CONFIGS / "stream.toml"), "--port", "0",
         "--linger", "15", "--workers", "2"],
        lambda: api.load_spec(CONFIGS / "stream.toml").with_overrides(
            execution={"workers": 2}, sink={"serve_port": 0},
        ),
        id="serve",
    ),
    pytest.param(
        ["obs", "trace", str(CONFIGS / "stream.toml"), "--set",
         "sink.alarmdb=a2.db", "--chrome"],
        lambda: api.load_spec(CONFIGS / "stream.toml").with_overrides(
            sink={"alarmdb": "a2.db"},
        ),
        id="obs-trace",
    ),
    pytest.param(
        ["obs", "dump", str(CONFIGS / "batch.toml"), "--json"],
        lambda: api.load_spec(CONFIGS / "batch.toml"),
        id="obs-dump",
    ),
]


class TestSpecPresets:
    """Each subcommand's argv -> spec step equals the builder chain (or
    config load plus overrides) it has always stood for."""

    @pytest.mark.parametrize("argv, expected", SPEC_CASES)
    def test_argv_spec_equals_builder_chain(self, argv, expected):
        from repro.cli import _session_spec, build_parser

        spec = _session_spec(build_parser().parse_args(argv))
        built = expected()
        assert spec == (
            built if isinstance(built, api.SessionSpec) else built.spec()
        )

    def test_every_mode_subcommand_has_a_preset(self):
        from repro.cli import PRESETS

        modes = {preset["execution.mode"] for preset in PRESETS.values()}
        assert modes == set(api.EXECUTION_MODES)


# -- error paths ---------------------------------------------------------------


class TestMissingInputs:
    @pytest.mark.parametrize("argv", [
        ["query", "{missing}"],
        ["detect", "{missing}"],
        ["extract", "{missing}", "--start", "0", "--end", "300"],
        ["stream", "{missing}"],
        ["archive", "ingest", "{missing}", "--dir", "{tmp}/spool"],
        ["run", "{config}", "--set", 'source.kind="csv"',
         "--set", "source.path={missing}"],
    ], ids=["query", "detect", "extract", "stream", "archive-ingest",
            "csv-source"])
    def test_missing_source_file_is_a_spec_error(
        self, argv, trace_path, tmp_path, capsys
    ):
        config = tmp_path / "batch.toml"
        config.write_text(
            f'[source]\nkind = "rpv5"\npath = "{trace_path}"\n'
        )
        names = {"missing": str(tmp_path / "none.rpv5"),
                 "tmp": str(tmp_path), "config": str(config)}
        assert main([arg.format(**names) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert "error: source.path: no such file" in err
        assert "none.rpv5" in err
        assert not (tmp_path / "spool").exists()

    @pytest.mark.parametrize("mode", ["batch", "stream"])
    def test_missing_training_trace_is_a_spec_error(
        self, mode, trace_path, tmp_path, capsys
    ):
        config = tmp_path / "session.toml"
        config.write_text(
            f'[source]\nkind = "rpv5"\npath = "{trace_path}"\n\n'
            f'[detector]\ntrain_path = "{tmp_path / "nope.rpv5"}"\n\n'
            f'[execution]\nmode = "{mode}"\n'
        )
        assert main(["run", str(config)]) == 2
        assert "error: detector.train_path: no such file" in \
            capsys.readouterr().err


class TestArchivePaths:
    @pytest.mark.parametrize(
        "command", ["query", "ls", "stats", "compact", "triage"]
    )
    def test_missing_archive_dir_is_an_archive_error(
        self, command, tmp_path, capsys
    ):
        missing = tmp_path / "nodir"
        argv = ["archive", command, "--dir", str(missing)]
        if command == "triage":
            argv += ["--alarmdb", str(tmp_path / "alarms.db")]
        assert main(argv) == 6
        assert "no archive directory at" in capsys.readouterr().err
        assert not missing.exists()
        assert not (tmp_path / "alarms.db").exists()

    def test_triage_refuses_a_missing_alarm_db(
        self, trace_path, tmp_path, capsys
    ):
        spool = tmp_path / "spool"
        assert main([
            "archive", "ingest", str(trace_path), "--dir", str(spool),
        ]) == 0
        missing = tmp_path / "none.db"
        code = main([
            "archive", "triage", "--dir", str(spool),
            "--alarmdb", str(missing),
        ])
        assert code == 1
        assert "no alarm DB at" in capsys.readouterr().err
        assert not missing.exists()

    def test_console_reader_tolerates_an_unwritten_spool(self, tmp_path):
        from repro.archive.reader import lazy_reader

        assert lazy_reader(None) is None
        spool = tmp_path / "spool"
        reader = lazy_reader(str(spool))()
        assert reader is not None and reader.partitions() == []
        assert not spool.exists()

    def test_positive_flag_error_names_its_flag(self, trace_path, capsys):
        with pytest.raises(SystemExit):
            main(["detect", str(trace_path), "--workers", "0"])
        assert "argument --workers: workers must be >= 1: 0" in \
            capsys.readouterr().err


# -- every example config runs ------------------------------------------------


class TestExampleConfigs:
    def test_every_example_config_loads(self):
        paths = sorted(CONFIGS.glob("*.toml"))
        assert {path.name for path in paths} >= {
            "synth.toml", "batch.toml", "stream.toml",
            "archive-resume.toml", "ingest.toml", "collector.toml",
        }
        for path in paths:
            assert isinstance(api.load_spec(path), api.SessionSpec)

    def test_bounded_configs_run_in_order(
        self, tmp_path, monkeypatch, capsys
    ):
        # synth -> batch, stream -> archive-resume, ingest: the configs'
        # relative paths chain through one working directory.
        for path in CONFIGS.glob("*.toml"):
            shutil.copy(path, tmp_path / path.name)
        monkeypatch.chdir(tmp_path)
        for name, mode in (
            ("synth.toml", "synth"),
            ("batch.toml", "batch"),
            ("stream.toml", "stream"),
            ("archive-resume.toml", "triage"),
            ("ingest.toml", "ingest"),
        ):
            assert main(["run", name]) == 0, name
            assert f"session {mode} ok:" in capsys.readouterr().out
