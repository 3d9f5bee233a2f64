"""The row-block header (repro.flows.shmem) and ``/dev/shm`` hygiene.

Every file of raw ``FLOW_DTYPE`` rows starts with one 32-byte header
whose magic and flow-schema version are checked on every read. No pass
stages rows in shared memory: an extractor asked for workers leaves
``/dev/shm`` as it found it, serialises no table, and reports the same
where shared memory is missing or every allocation of it fails.
"""

from __future__ import annotations

import errno
import logging
import os
import pickle
import struct
import subprocess
import sys
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.detect.base import Alarm
from repro.errors import CodecError
from repro.extraction.extractor import AnomalyExtractor
from repro.extraction.summarize import table_rows
from repro.flows import shmem
from repro.flows.table import FlowTable
from repro.mining.extended import ExtendedApriori

_ALARM = Alarm("a-1", "test", start=0.0, end=600.0, score=1.0)


def _report(workers: int, table: FlowTable) -> tuple:
    """What one extraction at ``workers`` reported, comparable across
    runs."""
    extractor = AnomalyExtractor(workers=workers)
    try:
        report = extractor.extract(_ALARM, table)
    finally:
        extractor.close()
    return table_rows(report), report.describe()


def _shm_names() -> set[str]:
    try:
        return {p.name for p in Path("/dev/shm").iterdir()}
    except OSError:
        return set()


def _random_table(seed: int, count: int) -> FlowTable:
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0.0, 600.0, count)
    return FlowTable.from_columns(
        src_ip=rng.integers(0x0A000000, 0x0A000010, count),
        dst_ip=rng.integers(0x0A000000, 0x0A000010, count),
        src_port=rng.integers(1024, 1100, count),
        dst_port=rng.choice(np.array([53, 80, 443]), count),
        proto=rng.choice(np.array([6, 17]), count),
        packets=rng.integers(1, 200, count),
        bytes=rng.integers(40, 10_000, count),
        start=starts,
        end=starts + 1.0,
    )


class TestRowHeader:
    def test_roundtrip(self):
        header = shmem.pack_row_header(12345)
        assert len(header) == shmem.ROW_HEADER_SIZE == 32
        assert shmem.unpack_row_header(header) == 12345

    def test_rejects_foreign_bytes(self):
        with pytest.raises(CodecError, match="truncated"):
            shmem.unpack_row_header(b"RPSM")
        with pytest.raises(CodecError, match="magic"):
            shmem.unpack_row_header(b"XXXX" + bytes(28))
        # A foreign schema version must fail loudly, never misparse.
        bad = struct.Struct("<4sHHQ16x").pack(b"RPSM", 9999, 0, 1)
        with pytest.raises(CodecError, match="schema version"):
            shmem.unpack_row_header(bad)


class TestShmHygiene:
    def test_engine_close_leaves_no_segments(self):
        before = _shm_names()
        extractor = AnomalyExtractor(workers=2)
        extractor.extract(_ALARM, _random_table(1, 900))
        extractor.close()
        assert _shm_names() <= before

    def test_worker_crash_leaves_no_segments(self, monkeypatch):
        before = _shm_names()
        monkeypatch.setattr(ExtendedApriori, "mine", _crash)
        with pytest.raises(RuntimeError, match="mining crashed"):
            _report(2, _random_table(1, 900))
        assert _shm_names() <= before

    def test_interpreter_unwind_unlinks_segments(self, tmp_path):
        # The SIGINT path: a KeyboardInterrupt after an extraction at
        # two workers unwinds to an interpreter exit that leaves
        # ``/dev/shm`` as it found it.
        script = tmp_path / "unwind.py"
        script.write_text(
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from tests.test_shmem_ipc import _report, _random_table\n"
            "rows, _ = _report(2, _random_table(1, 900))\n"
            "print(len(rows), flush=True)\n"
            "raise KeyboardInterrupt\n"
        )
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), env.get("PYTHONPATH", "")]
        )
        before = _shm_names()
        proc = subprocess.run(
            [sys.executable, str(script), str(root)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert int(proc.stdout.strip()) > 0  # the extraction ran
        assert proc.returncode != 0  # KeyboardInterrupt propagated
        assert _shm_names() <= before


# -- no staging, so nothing to fall back from --------------------------------


def _crash(_self, _flows):
    raise RuntimeError("mining crashed")


@pytest.mark.parametrize(
    "error",
    [OSError(errno.ENOSPC, "No space left on device"), MemoryError()],
    ids=["oserror", "memoryerror"],
)
class TestStagingFallback:
    """Shared memory that cannot be had changes nothing: no pass
    stages rows, so no pass falls back."""

    def test_allocation_failure_runs_in_process(
        self, error, monkeypatch, caplog
    ):
        tables = [_random_table(seed, 300) for seed in range(3)]
        reference = [_report(2, table) for table in tables]

        def refuse(*_args, **_kwargs):
            raise error

        monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
        with caplog.at_level(logging.WARNING, "repro"):
            assert [_report(2, table) for table in tables] == reference
        assert not caplog.records  # nothing fell back, nothing warned

    def test_task_error_is_not_a_staging_failure(self, error, monkeypatch):
        # The miner's own OSError / MemoryError is the caller's to see,
        # raised once: nothing re-runs the pass.
        calls = []

        def failing(_self, flows):
            calls.append(len(flows))
            raise error

        monkeypatch.setattr(ExtendedApriori, "mine", failing)
        with pytest.raises(type(error)):
            _report(2, _random_table(0, 300))
        assert len(calls) == 1


def test_platform_without_shm_runs_in_process(monkeypatch):
    tables = [_random_table(seed, 300) for seed in range(2)]
    reference = [_report(1, table) for table in tables]
    monkeypatch.delattr(shared_memory, "SharedMemory")
    assert [_report(2, table) for table in tables] == reference


class TestSerialPathNeverSerialises:
    def test_serial_map_calls_no_codec(self, monkeypatch):
        # Flow tables never cross a process boundary, so nothing
        # pickles one at any worker count.
        table = _random_table(2, 300)
        reference = _report(1, table)

        def refuse(*_args, **_kwargs):
            raise AssertionError("a flow table was serialised")

        monkeypatch.setattr(FlowTable, "__reduce_ex__", refuse)
        monkeypatch.setattr(pickle, "dumps", refuse)
        assert _report(2, table) == reference
