#!/usr/bin/env python3
"""Sharded execution benchmark: does sharded mining earn its keep?

End-to-end table → ranked frequent itemsets at 1, 2 and 4 workers over
the same synthetic mixed traffic as the stream benchmark. The 1-worker
row is the production serial call (``TransactionSet.from_table`` +
``mine_apriori``, the columnar group-by kernel); higher worker counts
run the SON two-pass — the same kernel per shard, then the global
recount — over that many hash shards through a
:class:`~repro.parallel.executor.ShardExecutor`. Outputs are asserted
byte-identical to the serial call every round, and the 1/2/4-worker
ratios are recorded so that whether sharded *mining* still earns its
keep is decided on a number (ROADMAP item 3(f)).

Run:  PYTHONPATH=src python benchmarks/bench_parallel.py [--flows N]

Writes ``BENCH_parallel.json``; ``--check`` gates on the one floor this
file uniquely holds: serial (1-worker) mining ≥ 403k flows/s on the
default 150k-flow table — the figure the two-pass needed 2 workers for
before the kernel (ROADMAP item 2's acceptance).

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

from repro.flows.table import FlowTable  # noqa: E402
from repro.mining.apriori import mine_apriori  # noqa: E402
from repro.mining.transactions import TransactionSet  # noqa: E402
from repro.parallel import (  # noqa: E402
    PartitionSpec,
    ShardExecutor,
    mine_partitioned,
    partition_table,
)

WINDOW_SECONDS = 300.0
LIVE_WINDOWS = 10
WORKER_COUNTS = (1, 2, 4)
ACCEPTANCE_SERIAL_MINING_FLOWS_PER_SEC = 403_000
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--flows", type=int, default=150_000,
                        help="flows in the mined segment")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing rounds per worker count (best of)")
    parser.add_argument(
        "--out", default=str(Path(__file__).resolve().parent.parent
                             / "BENCH_parallel.json")
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero when the acceptance floor is missed: "
             f"serial mining >= "
             f"{ACCEPTANCE_SERIAL_MINING_FLOWS_PER_SEC:,} flows/s "
             "(meaningful at the default flow count)",
    )
    args = parser.parse_args()

    table = synth_table(args.flows, LIVE_WINDOWS * WINDOW_SECONDS, seed=7)
    mining = bench_mining(table, repeats=args.repeats)

    serial_mining = mining["1"]["flows_per_sec"]
    checks = {
        "serial_mining_flows_per_sec": (
            serial_mining >= ACCEPTANCE_SERIAL_MINING_FLOWS_PER_SEC
        ),
    }
    payload = {
        "benchmark": "sharded_execution",
        "flows": args.flows,
        "worker_counts": list(WORKER_COUNTS),
        "machine": machine_block(),
        "mining": mining,
        "acceptance_min_serial_mining_flows_per_sec":
            ACCEPTANCE_SERIAL_MINING_FLOWS_PER_SEC,
        "acceptance_checks": checks,
        "acceptance_pass": all(checks.values()),
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")

    print(f"sharded execution ({os.cpu_count()} cpu): "
          f"{args.flows} flows mined")
    for workers in WORKER_COUNTS:
        m = mining[str(workers)]
        print(f"  mining {workers}w: {m['seconds']*1e3:8.1f} ms "
              f"({m['flows_per_sec']:10,.0f} flows/s, "
              f"{m['speedup_vs_1w']:.2f}x of serial)")
    print(f"  serial mining: {serial_mining:,.0f} flows/s "
          f"(floor {ACCEPTANCE_SERIAL_MINING_FLOWS_PER_SEC:,})")
    print(f"wrote {args.out}")
    if args.check and not all(checks.values()):
        failed = [name for name, ok in checks.items() if not ok]
        print(f"acceptance FAILED: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
