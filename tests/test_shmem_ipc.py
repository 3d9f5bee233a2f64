"""Tests for the zero-copy buffer plane (repro.flows.shmem + executor IPC).

The buffer plane's contract is threefold: (1) rows that travel as
shared-memory descriptors are byte-identical to the tables that were
written; (2) where a fan-out ran — the in-process loop, the pool over
shm descriptors, or the in-process fallback after a failed staging —
is invisible in every result the executor produces; (3) parent-owned
segments never outlive their owner — close(), worker crashes and
interpreter unwinds (the SIGINT path) all leave ``/dev/shm`` clean.
Hypothesis drives the equivalence over randomized flow sets and shard
counts (1, 2, 7) including empty and single-row shards.
"""

from __future__ import annotations

import errno
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.detect.base import Alarm
from repro.errors import CodecError, FlowError
from repro.extraction.extractor import AnomalyExtractor
from repro.flows import shmem
from repro.flows.record import FlowRecord
from repro.flows.table import FlowTable
from repro.obs import metrics as obs_metrics
from repro.parallel import PartitionSpec, ShardExecutor, shard_ids

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnraisableExceptionWarning"
)

_IPS = st.sampled_from(
    [0x0A000001, 0x0A000002, 0x0A010203, 0xC0A80001, 0xC6336445]
)
_PORTS = st.sampled_from([0, 53, 80, 443, 55548])
_PROTOS = st.sampled_from([6, 17])

SHARD_COUNTS = (1, 2, 7)

_SHM_OK = (
    shmem.shared_memory_available()
    and "fork" in __import__("multiprocessing").get_all_start_methods()
)
needs_shm = pytest.mark.skipif(
    not _SHM_OK, reason="POSIX shared memory with fork unavailable"
)


@st.composite
def flow_records(draw):
    start = draw(st.floats(min_value=0.0, max_value=1200.0,
                           allow_nan=False, allow_infinity=False))
    return FlowRecord(
        src_ip=draw(_IPS),
        dst_ip=draw(_IPS),
        src_port=draw(_PORTS),
        dst_port=draw(_PORTS),
        proto=draw(_PROTOS),
        packets=draw(st.integers(min_value=0, max_value=100_000)),
        bytes=draw(st.integers(min_value=0, max_value=10_000_000)),
        start=start,
        end=start + draw(st.floats(min_value=0.0, max_value=300.0,
                                   allow_nan=False,
                                   allow_infinity=False)),
    )


flow_lists = st.lists(flow_records(), min_size=0, max_size=60)


def _table(flows) -> FlowTable:
    return FlowTable.from_records(flows, cache_records=False)


def _shm_names() -> set[str]:
    try:
        return {p.name for p in Path("/dev/shm").iterdir()}
    except OSError:
        return set()


# Worker tasks must be module-level (picklable by reference).

def _echo_bytes(table: FlowTable) -> bytes:
    return table._data.tobytes()


def _echo_all_bytes(tables: list[FlowTable], tag: int) -> tuple:
    return tag, [table._data.tobytes() for table in tables]


def _crash(_table: FlowTable) -> None:
    os._exit(13)


def _raise(_table: FlowTable, error: BaseException) -> None:
    raise error


# -- the row-block header ----------------------------------------------------


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
        import struct
        bad = struct.Struct("<4sHHQ16x").pack(b"RPSM", 9999, 0, 1)
        with pytest.raises(CodecError, match="schema version"):
            shmem.unpack_row_header(bad)


# -- RowBuffer ---------------------------------------------------------------


@needs_shm
class TestRowBuffer:
    @given(flows=flow_lists)
    @settings(max_examples=20, deadline=None)
    def test_write_attach_is_byte_identical(self, flows):
        table = _table(flows)
        with shmem.RowBuffer(shmem.block_bytes(len(table))) as buffer:
            descriptor = buffer.write(table)
            view = shmem.attach_slice(descriptor)
            assert _echo_bytes(view) == _echo_bytes(table)
            assert not view._data.flags.writeable if len(view) else True
            del view
            shmem.detach_slices()

    def test_capacity_overflow_raises(self):
        table = _table([])
        with shmem.RowBuffer(shmem.ROW_HEADER_SIZE) as buffer:
            buffer.write(table)
            with pytest.raises(FlowError, match="full"):
                buffer.write(table)

    def test_rewind_refuses_while_acquired(self):
        with shmem.RowBuffer(1024) as buffer:
            buffer.acquire()
            with pytest.raises(FlowError, match="outstanding"):
                buffer.rewind()
            buffer.release()
            buffer.rewind()
            with pytest.raises(FlowError, match="without matching"):
                buffer.release()

    def test_descriptor_row_mismatch_rejected(self):
        table = _table([])
        with shmem.RowBuffer(1024) as buffer:
            descriptor = buffer.write(table)
            lying = shmem.RowSlice(
                descriptor.segment, descriptor.offset, 7
            )
            with pytest.raises(CodecError, match="descriptor says 7"):
                shmem.attach_slice(lying)
            shmem.detach_slices()

    def test_close_unlinks_and_is_idempotent(self):
        buffer = shmem.RowBuffer(1024)
        name = buffer.name
        assert name.lstrip("/") in _shm_names()
        buffer.close()
        buffer.close()
        assert name.lstrip("/") not in _shm_names()
        with pytest.raises(FlowError, match="closed"):
            buffer.write(_table([]))


# -- executor IPC equivalence ------------------------------------------------


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


@needs_shm
class TestExecutorIpcEquivalence:
    @given(flows=flow_lists, shards=st.sampled_from(SHARD_COUNTS))
    @settings(max_examples=6, deadline=None)
    def test_map_tables_identical_across_transports(
        self, flows, shards
    ):
        table = _table(flows)
        spec = PartitionSpec(shards=shards)
        ids = shard_ids(table, spec) if len(table) else None
        tables = [
            table.select(ids == shard) if ids is not None
            else table.select(np.zeros(0, dtype=bool))
            for shard in range(shards)
        ]
        with ShardExecutor(1) as serial:
            reference = serial.map_tables(_echo_bytes, tables)
        with ShardExecutor(2, use_processes=True) as executor:
            assert executor.map_tables(_echo_bytes, tables) \
                == reference
            assert executor.ipc_stats.shared_bytes > 0

    # map_masked / map_broadcast / map_table_groups are delegations
    # kept for the e2e tracer's ENTRY_POINTS rows: each returns what
    # its comprehension returns, on either path, and nothing more is
    # promised of them.

    def test_map_masked_identical_across_transports(self):
        table = _random_table(4, 500)
        masks = [
            shard_ids(table, PartitionSpec(shards=3)) == shard
            for shard in range(3)
        ]
        reference = [_echo_bytes(table.select(mask)) for mask in masks]
        for executor in (
            ShardExecutor(1), ShardExecutor(2, use_processes=True)
        ):
            with executor:
                assert executor.map_masked(_echo_bytes, table, masks) \
                    == reference

    def test_map_broadcast_identical_across_transports(self):
        table = _random_table(5, 500)
        pieces = [table.select(slice(0, 200)),
                  table.select(slice(200, 201)),
                  table.select(slice(201, 201)),  # empty piece
                  table.select(slice(201, 500))]
        extras = [(0,), (1,), (2,)]
        reference = [_echo_all_bytes(pieces, *extra) for extra in extras]
        for executor in (
            ShardExecutor(1), ShardExecutor(2, use_processes=True)
        ):
            with executor:
                assert executor.map_broadcast(
                    _echo_all_bytes, pieces, extras
                ) == reference

    def test_shm_copies_descriptors_not_rows(self):
        # The perf contract behind the descriptor path: what crosses
        # the pipe per task is a descriptor, whatever the shard holds.
        table = _random_table(1, 8192)
        halves = [table.select(slice(0, 4096)),
                  table.select(slice(4096, 8192))]
        with ShardExecutor(2, use_processes=True) as executor:
            executor.map_tables(_echo_bytes, halves)
            stats = executor.ipc_stats
            assert stats.copied_per_task() <= 256
            assert stats.shared_bytes >= sum(
                len(_echo_bytes(half)) for half in halves
            )


# -- staging failure: the in-process fallback --------------------------------


def _pressured(error, good=None):
    """A ``RowBuffer`` class that cannot be allocated (``good=None``)
    or whose ``write`` raises after ``good`` tables."""

    class Pressured(shmem.RowBuffer):
        built: list = []

        def __init__(self, capacity):
            if good is None:
                raise error
            super().__init__(capacity)
            self.budget = good
            self.built.append(self)

        def write(self, table):
            if not self.budget:
                raise error
            self.budget -= 1
            return super().write(table)

    return Pressured


@needs_shm
@pytest.mark.parametrize(
    "error",
    [OSError(errno.ENOSPC, "No space left on device"), MemoryError()],
    ids=["oserror", "memoryerror"],
)
class TestStagingFallback:
    @pytest.fixture(autouse=True)
    def _registry(self):
        self.registry = obs_metrics.MetricsRegistry()
        previous = obs_metrics.install(self.registry)
        yield
        obs_metrics.install(previous)

    def _fallbacks(self) -> int:
        return self.registry.value("repro_ipc_frames_fallback_total")

    def test_allocation_failure_runs_in_process(
        self, error, monkeypatch, caplog
    ):
        monkeypatch.setattr(shmem, "RowBuffer", _pressured(error))
        tables = [_random_table(seed, 40) for seed in range(3)]
        reference = [_echo_bytes(table) for table in tables]
        with caplog.at_level(logging.WARNING, "repro.parallel.executor"):
            with ShardExecutor(2, use_processes=True) as executor:
                for fan_out in (1, 2):
                    assert executor.map_tables(_echo_bytes, tables) \
                        == reference
                    assert self._fallbacks() == fan_out
                assert executor._pool is None  # nothing was submitted
                assert executor.ipc_stats.copied_bytes == 0
                assert executor.ipc_stats.shared_bytes == 0
        assert len(caplog.records) == 1  # warned once, counted twice

    def test_task_error_is_not_a_staging_failure(self, error):
        # The task's own OSError / MemoryError is the caller's to see:
        # it must not re-run the fan-out in-process.
        table = _random_table(0, 40)
        with ShardExecutor(2, use_processes=True) as executor:
            with pytest.raises(type(error)):
                executor.map_tables(
                    _raise, [table, table], [(error,), (error,)]
                )
            assert executor._segment.refs == 0
            assert executor.ipc_stats.copied_bytes > 0  # it was staged
        assert self._fallbacks() == 0

    def test_write_failure_releases_the_segment(
        self, error, monkeypatch
    ):
        pressure = _pressured(error, good=1)
        monkeypatch.setattr(shmem, "RowBuffer", pressure)
        tables = [_random_table(seed, 40) for seed in range(3)]
        with ShardExecutor(2, use_processes=True) as executor:
            assert executor.map_tables(_echo_bytes, tables) \
                == [_echo_bytes(table) for table in tables]
            (segment,) = pressure.built
            assert segment.refs == 0
            assert executor._pool is None
        assert segment.closed
        assert self._fallbacks() == 1


def test_platform_without_shm_runs_in_process(monkeypatch):
    monkeypatch.setattr(shmem, "_AVAILABLE", False)
    tables = [_random_table(seed, 40) for seed in range(2)]
    with ShardExecutor(2, use_processes=True) as executor:
        assert executor.map_tables(_echo_bytes, tables) \
            == [_echo_bytes(table) for table in tables]
        assert executor._pool is None
        assert executor.ipc_stats.copied_bytes == 0


# -- serial path purity (no codec, no copies) --------------------------------


class TestSerialPathNeverSerialises:
    def test_serial_map_calls_no_codec(self):
        table = _table([])
        with ShardExecutor(1) as executor:
            assert not executor.uses_processes
            # Tables pass through by identity — same object, no copy.
            results = executor.map_tables(lambda t: t, [table])
            assert results[0] is table
            assert executor.ipc_stats.copied_bytes == 0
            assert executor.ipc_stats.shared_bytes == 0


# -- /dev/shm hygiene --------------------------------------------------------


@needs_shm
class TestShmHygiene:
    def test_engine_close_leaves_no_segments(self):
        before = _shm_names()
        extractor = AnomalyExtractor(workers=2)
        extractor.extract(
            Alarm("a-1", "test", start=0.0, end=600.0, score=1.0),
            _random_table(1, 900),
        )
        assert extractor._miner.executor.ipc_stats.shared_bytes > 0
        extractor.close()
        assert _shm_names() <= before

    def test_worker_crash_leaves_no_segments(self):
        before = _shm_names()
        table = _table([])
        executor = ShardExecutor(2, use_processes=True)
        try:
            with pytest.raises(Exception):
                executor.map_tables(_crash, [table, table])
        finally:
            executor.close()
        assert _shm_names() <= before

    def test_interpreter_unwind_unlinks_segments(self, tmp_path):
        # The SIGINT path: KeyboardInterrupt unwinds to a normal
        # interpreter exit, where the atexit backstop closes every
        # live parent-owned segment.
        script = tmp_path / "unwind.py"
        script.write_text(
            "from repro.flows import shmem\n"
            "buffer = shmem.RowBuffer(4096)\n"
            "print(buffer.name.lstrip('/'), flush=True)\n"
            "raise KeyboardInterrupt\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, env=env,
        )
        name = proc.stdout.strip()
        assert name  # the segment existed
        assert proc.returncode != 0  # KeyboardInterrupt propagated
        assert name not in _shm_names()


# -- group fan-outs -----------------------------------------------------------


class TestGroupFanOut:
    @given(flows=flow_lists, pieces=st.sampled_from((1, 2, 7)))
    @settings(max_examples=6, deadline=None)
    def test_map_table_groups_identical_across_transports(
        self, flows, pieces
    ):
        table = _table(flows)
        step = max(1, -(-len(table) // pieces))
        parts = [
            table.select(slice(start, min(start + step, len(table))))
            for start in range(0, max(len(table), 1), step)
        ]
        groups = [parts[:1], parts[1:]]
        reference = [
            _echo_bytes(FlowTable.concat(group)) for group in groups
        ]
        for executor in (
            ShardExecutor(1),
            ShardExecutor(2, use_processes=_SHM_OK),
        ):
            with executor:
                assert executor.map_table_groups(
                    _echo_bytes, groups
                ) == reference
