#!/usr/bin/env python3
"""Sharded execution benchmark: mining and stream-engine scale-out.

Two measurements over the same synthetic mixed traffic as the stream
benchmark:

* **partitioned mining** — end-to-end table → ranked frequent
  itemsets at 1, 2 and 4 workers. The 1-worker row is the production
  serial call (``TransactionSet.from_table`` + ``mine_apriori``, the
  columnar group-by kernel); higher worker counts run the SON
  two-pass — the same kernel per shard, then the global recount —
  over that many hash shards through a
  :class:`~repro.parallel.executor.ShardExecutor`. Outputs are
  asserted byte-identical to the serial call every round, and the
  1/2/4-worker ratios are recorded so that whether sharded *mining*
  still earns its keep is decided on a number (ROADMAP item 3).
* **stream engine** — sustained max-rate ingest flows/s of
  ``StreamEngine`` (1 worker) vs ``ShardedStreamEngine`` (2, 4
  workers) over the full online path, on both IPC transports
  (``shm`` descriptors and pickled ``frames``), pools warmed, all
  configurations timed interleaved round-robin, speedups taken as
  the median of paired per-round ratios (drift-robust on shared
  boxes).

Run:  PYTHONPATH=src python benchmarks/bench_parallel.py [--flows N]

Writes ``BENCH_parallel.json``; ``--check`` gates on all three
acceptance floors, and ``acceptance_pass`` records their conjunction:

* serial (1-worker) mining ≥ 403k flows/s on the default 150k-flow
  table — the figure the two-pass needed 2 workers for before the
  kernel (ROADMAP item 2's acceptance);
* sharded streaming (shm) at 4 workers ≥ 0.95x of the single-worker
  engine — fan-out overhead must be within noise of free even on a
  single-core box;
* bytes copied through the pool per chunk drop ≥ 10x on shm vs
  frames (descriptors instead of rows).

The recorded ``machine`` block (the e2e benchmark's) qualifies the
numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

from bench_e2e import machine_block  # noqa: E402

from repro.detect.netreflex import NetReflexDetector  # noqa: E402
from repro.flows.table import FlowTable  # noqa: E402
from repro.flows.trace import FlowTrace  # noqa: E402
from repro.mining.apriori import mine_apriori  # noqa: E402
from repro.mining.transactions import TransactionSet  # noqa: E402
from repro.parallel import (  # noqa: E402
    PartitionSpec,
    ShardExecutor,
    mine_partitioned,
    partition_table,
)
from repro.stream import (  # noqa: E402
    ShardedStreamEngine,
    StreamEngine,
    streaming_adapter,
    table_chunks,
)

WINDOW_SECONDS = 300.0
TRAIN_WINDOWS = 5
LIVE_WINDOWS = 10
CHUNK_ROWS = 65_536
WORKER_COUNTS = (1, 2, 4)
ACCEPTANCE_SERIAL_MINING_FLOWS_PER_SEC = 403_000
ACCEPTANCE_STREAM_SPEEDUP_4W = 0.95
ACCEPTANCE_IPC_COPY_DROP = 10.0
FLOW_SHARE = 0.05
PACKET_SHARE = 0.05


def synth_table(count: int, span: float, seed: int = 7) -> FlowTable:
    """Plausible mixed traffic (same shape as bench_stream)."""
    rng = np.random.default_rng(seed)
    start = np.sort(rng.uniform(0.0, span, count))
    return FlowTable.from_columns(
        src_ip=rng.integers(0x0A000000, 0x0A00FFFF, count),
        dst_ip=rng.integers(0x0A000000, 0x0A0000FF, count),
        src_port=rng.integers(1024, 65536, count),
        dst_port=rng.choice(np.array([53, 80, 443, 8080, 25, 123]), count),
        proto=rng.choice(np.array([6, 6, 6, 17, 1]), count),
        packets=rng.integers(1, 2000, count),
        bytes=rng.integers(40, 1_000_000, count),
        start=start,
        end=start + rng.uniform(0.0, 120.0, count),
        tcp_flags=rng.integers(0, 0x40, count),
        router=rng.integers(0, 23, count),
        sampling_rate=np.ones(count, dtype=np.int64),
    )


def bench_mining(table: FlowTable, repeats: int) -> dict:
    """Time table → ranked itemsets per worker count (best of N)."""
    thresholds = TransactionSet.from_table(table).absolute_thresholds(
        FLOW_SHARE, PACKET_SHARE
    )
    min_flows, min_packets = thresholds
    reference = mine_apriori(
        TransactionSet.from_table(table), min_flows, min_packets
    )
    results: dict[str, dict] = {}
    for workers in WORKER_COUNTS:
        executor = None
        spec = None
        if workers > 1:
            spec = PartitionSpec(shards=workers)
            executor = ShardExecutor(workers)
            # Warm the pool so startup is not billed to the first round.
            mine_partitioned(
                partition_table(table.select(slice(0, 1024)), spec),
                min_flows,
                min_packets,
                executor=executor,
            )
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            if workers == 1:
                mined = mine_apriori(
                    TransactionSet.from_table(table),
                    min_flows,
                    min_packets,
                )
            else:
                mined = mine_partitioned(
                    partition_table(table, spec),
                    min_flows,
                    min_packets,
                    executor=executor,
                )
            best = min(best, time.perf_counter() - t0)
            assert mined == reference, "sharded mining diverged"
        if executor is not None:
            executor.close()
        results[str(workers)] = {
            "seconds": best,
            "flows_per_sec": len(table) / best,
            "itemsets": len(reference),
        }
    base = results["1"]["seconds"]
    for entry in results.values():
        entry["speedup_vs_1w"] = base / entry["seconds"]
    results["thresholds"] = {
        "min_flows": min_flows,
        "min_packets": min_packets,
    }
    return results


def _stream_once(chunks, detector, executor=None, workers=1) -> tuple:
    """One full engine run; returns (wall_seconds, stats tuple)."""
    options = dict(
        window_seconds=WINDOW_SECONDS,
        origin=0.0,
        lateness_seconds=0.0,
    )
    if executor is None:
        engine = StreamEngine([streaming_adapter(detector)], **options)
    else:
        engine = ShardedStreamEngine(
            [streaming_adapter(detector)],
            workers=workers,
            executor=executor,
            **options,
        )
    t0 = time.perf_counter()
    for chunk in chunks:
        engine.process(chunk)
    engine.finish()
    wall = time.perf_counter() - t0
    engine.close()
    stats = (
        engine.stats.flows,
        engine.stats.windows_closed,
        engine.stats.alarms,
    )
    return wall, stats


def bench_stream(
    live: FlowTable, detector: NetReflexDetector, repeats: int
) -> dict:
    """Sustained max-rate ingest per worker count and IPC transport.

    Every sharded configuration reuses one warmed executor across the
    timing repeats (pool fork + worker detector unpickling are billed
    to setup, as in any long-running deployment) and records what the
    pool actually shipped per chunk: ~96-byte descriptors on ``shm``,
    full pickled row frames on ``frames``.
    """
    chunks = list(table_chunks(live, chunk_rows=CHUNK_ROWS))
    warmup = chunks[0].select(slice(0, 256))
    _, reference = _stream_once([warmup], detector)
    reference = None  # first full serial round sets the oracle

    # Build every configuration up front (pools forked and warmed),
    # then time them interleaved round-robin: box-load drift hits all
    # configurations equally instead of whichever ran last.
    configs: list[tuple[str, object, int]] = [("1", None, 1)]
    executors: list[ShardExecutor] = []
    for workers in WORKER_COUNTS:
        if workers == 1:
            continue
        for ipc in ("shm", "frames"):
            executor = ShardExecutor(workers, ipc=ipc)
            if executor.ipc_mode != ipc:
                executor.close()
                continue  # box cannot do shm; leave the key out
            _stream_once(
                [warmup], detector, executor=executor, workers=workers
            )
            executor.ipc_stats.tasks = 0
            executor.ipc_stats.copied_bytes = 0
            executors.append(executor)
            configs.append((f"{workers}-{ipc}", executor, workers))

    walls: dict[str, list[float]] = {key: [] for key, _, _ in configs}
    stats_of: dict[str, tuple] = {}
    try:
        for _ in range(repeats):
            for key, executor, workers in configs:
                wall, stats = _stream_once(
                    chunks, detector,
                    executor=executor, workers=workers,
                )
                if reference is None:
                    reference = stats
                assert stats == reference, f"{key} stream diverged"
                walls[key].append(wall)
                stats_of[key] = stats
        results: dict[str, dict] = {}
        for key, executor, _workers in configs:
            copied = 0.0
            if executor is not None:
                copied = executor.ipc_stats.copied_bytes / (
                    repeats * len(chunks)
                )
            best = min(walls[key])
            results[key] = {
                "seconds": best,
                "flows_per_sec": len(live) / best,
                "windows_closed": stats_of[key][1],
                "alarms": stats_of[key][2],
                "copied_bytes_per_chunk": copied,
            }
    finally:
        for executor in executors:
            executor.close()
    # Speedups are medians of *paired* per-round ratios: each round
    # times the serial engine and every sharded configuration back to
    # back, so box-load drift between rounds cancels out of the ratio
    # instead of letting one config's luckiest round set the number
    # (best-of walls stay in ``seconds`` for throughput display).
    for key, _executor, _workers in configs:
        paired = sorted(
            base / wall for base, wall in zip(walls["1"], walls[key])
        )
        results[key]["speedup_vs_1w"] = paired[len(paired) // 2]
    shm = results.get("4-shm")
    frames = results.get("4-frames")
    if shm and frames and shm["copied_bytes_per_chunk"] > 0:
        results["copy_drop_per_chunk_4w"] = (
            frames["copied_bytes_per_chunk"]
            / shm["copied_bytes_per_chunk"]
        )
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--flows", type=int, default=150_000,
                        help="flows in the mined segment")
    parser.add_argument("--stream-flows", type=int, default=1_200_000,
                        help="flows in the streamed segment (larger: "
                             "sustained-rate, not fan-out-bound)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing rounds per configuration "
                             "(median of paired per-round ratios)")
    parser.add_argument(
        "--out", default=str(Path(__file__).resolve().parent.parent
                             / "BENCH_parallel.json")
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero when any acceptance floor is missed: "
             f"serial mining >= "
             f"{ACCEPTANCE_SERIAL_MINING_FLOWS_PER_SEC:,} flows/s, "
             f"stream shm "
             f">= {ACCEPTANCE_STREAM_SPEEDUP_4W}x, copy drop >= "
             f"{ACCEPTANCE_IPC_COPY_DROP}x (meaningful at the default "
             "flow counts)",
    )
    args = parser.parse_args()

    live_span = LIVE_WINDOWS * WINDOW_SECONDS
    table = synth_table(args.flows, live_span, seed=7)

    mining = bench_mining(table, repeats=args.repeats)

    training = FlowTrace(
        synth_table(
            max(1000, args.stream_flows // 6),
            TRAIN_WINDOWS * WINDOW_SECONDS,
            seed=3,
        ),
        bin_seconds=WINDOW_SECONDS,
        origin=0.0,
    )
    detector = NetReflexDetector()
    detector.train(training)
    live = synth_table(args.stream_flows, live_span, seed=11)
    stream = bench_stream(live, detector, repeats=args.repeats)

    serial_mining = mining["1"]["flows_per_sec"]
    stream_speedup_4w = stream.get("4-shm", {}).get("speedup_vs_1w", 0.0)
    copy_drop_4w = stream.get("copy_drop_per_chunk_4w", 0.0)
    checks = {
        "serial_mining_flows_per_sec": (
            serial_mining >= ACCEPTANCE_SERIAL_MINING_FLOWS_PER_SEC
        ),
        "stream_shm_speedup_4w": (
            stream_speedup_4w >= ACCEPTANCE_STREAM_SPEEDUP_4W
        ),
        "ipc_copy_drop_4w": copy_drop_4w >= ACCEPTANCE_IPC_COPY_DROP,
    }
    payload = {
        "benchmark": "sharded_execution",
        "flows": args.flows,
        "stream_flows": args.stream_flows,
        "worker_counts": list(WORKER_COUNTS),
        "machine": machine_block(),
        "mining": mining,
        "stream": stream,
        "acceptance_min_serial_mining_flows_per_sec":
            ACCEPTANCE_SERIAL_MINING_FLOWS_PER_SEC,
        "acceptance_min_stream_speedup_4w": ACCEPTANCE_STREAM_SPEEDUP_4W,
        "acceptance_min_ipc_copy_drop": ACCEPTANCE_IPC_COPY_DROP,
        "acceptance_checks": checks,
        "acceptance_pass": all(checks.values()),
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")

    print(f"sharded execution ({os.cpu_count()} cpu): "
          f"{args.flows} flows mined, {args.stream_flows} streamed")
    for workers in WORKER_COUNTS:
        m = mining[str(workers)]
        print(f"  mining {workers}w: {m['seconds']*1e3:8.1f} ms "
              f"({m['flows_per_sec']:10,.0f} flows/s, "
              f"{m['speedup_vs_1w']:.2f}x of serial)")
    for key in ("1", "2-shm", "2-frames", "4-shm", "4-frames"):
        s = stream.get(key)
        if s is None:
            continue
        print(f"  stream {key:>9}: {s['flows_per_sec']:10,.0f} flows/s "
              f"({s['speedup_vs_1w']:.2f}x, "
              f"{s['copied_bytes_per_chunk']:10,.0f} B/chunk "
              "through pool)")
    print(f"  serial mining: {serial_mining:,.0f} flows/s "
          f"(floor {ACCEPTANCE_SERIAL_MINING_FLOWS_PER_SEC:,})")
    print(f"  stream shm speedup at 4 workers: "
          f"{stream_speedup_4w:.2f}x "
          f"(floor {ACCEPTANCE_STREAM_SPEEDUP_4W}x)")
    print(f"  per-chunk copy drop shm vs frames: {copy_drop_4w:,.0f}x "
          f"(floor {ACCEPTANCE_IPC_COPY_DROP}x)")
    print(f"wrote {args.out}")
    if args.check and not all(checks.values()):
        failed = [name for name, ok in checks.items() if not ok]
        print(f"acceptance FAILED: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
