#!/usr/bin/env python3
"""Archive benchmark: ingest throughput, pruned vs full-scan queries.

Three measurements over a synthetic mixed-traffic trace persisted to a
temporary archive directory:

* **ingest throughput** — flows/second through the buffered writer
  (time partitioning, zone-map construction, atomic file writes);
* **query latency** — a narrow window+filter query answered three
  ways: zone-map pruned (the default), full scan (pruning disabled)
  and via the in-memory ``FlowTrace`` baseline. The acceptance floor
  is the tentpole criterion: pruning must make the narrow query at
  least 10x faster than the full archive scan at 1M flows;
* **count fast path** — aggregate counters for an archived window
  answered from zone maps alone (zero payload reads);
* **planner pushdown** — unfiltered count and top-N over an archived
  window answered from sidecar metadata (zone-map stats and feature
  indexes) with *zero payload bytes read*, timed against the same
  questions forced through payload scans and asserted identical;
* **what the end-to-end workload sees** — the two read shapes
  ``archive_forensics`` spends its time in, which the cases above do
  not reach: a *high-cardinality* push-down (top-10 ``srcIP`` over
  three windows: tens of thousands of distinct values to rank, where
  ``dstPort`` has six) and a *one-minute* filtered query into a
  five-minute partition, both against this bulk-ingested archive
  (chunks arrive shuffled, as a collector's do; every spill must read
  back ``sorted``).

Run:  PYTHONPATH=src python benchmarks/bench_archive.py [--flows N]

Writes ``BENCH_archive.json`` (stamped with the end-to-end
benchmark's machine block); ``--check`` gates on the 10x pruning
floor, on reads being served as zero-copy mmap views, on the pushdown
answers reading zero payload bytes while matching the scan answers,
and on every spilled partition reading back ``sorted``. The timings of
the two end-to-end shapes are recorded, not gated: their gate is the
``archive_forensics`` workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

from bench_e2e import machine_block  # noqa: E402

from repro.archive import ArchiveReader, ArchiveWriter  # noqa: E402
from repro.flows.record import FlowFeature  # noqa: E402
from repro.flows.table import FlowTable  # noqa: E402
from repro.flows.trace import FlowTrace  # noqa: E402
from repro.stream.sources import table_chunks  # noqa: E402

SLICE_SECONDS = 300.0
ACCEPTANCE_SPEEDUP = 10.0
#: The narrow query: one rotation slice, one unpopular port.
QUERY_FILTER = "dst port 123 and packets > 1000"
#: The one-minute query: the operator's "this minute on port 53".
MINUTE_FILTER = "dst port 53"


def synth_table(count: int, span: float, seed: int = 7) -> FlowTable:
    """Plausible mixed traffic spread over ``span`` seconds."""
    rng = np.random.default_rng(seed)
    start = np.sort(rng.uniform(0.0, span, count))
    return FlowTable.from_columns(
        src_ip=rng.integers(0x0A000000, 0x0AFFFFFF, count),
        dst_ip=rng.integers(0x0A000000, 0x0AFFFFFF, count),
        src_port=rng.integers(1024, 65536, count),
        dst_port=rng.choice(
            np.array([53, 80, 443, 8080, 25, 123]), count
        ),
        proto=rng.choice(np.array([6, 6, 6, 17, 1]), count),
        packets=rng.integers(1, 2000, count),
        bytes=rng.integers(40, 1_000_000, count),
        start=start,
        end=start + rng.uniform(0.0, 120.0, count),
        tcp_flags=rng.integers(0, 0x40, count),
        router=rng.integers(0, 23, count),
        sampling_rate=np.ones(count, dtype=np.int64),
    )


def _maps_file(data: np.ndarray, path: Path) -> bool:
    """Is ``data`` a read-only view whose ``base`` chain ends at an
    ``np.memmap`` of ``path`` (a zero-copy partition read)?"""
    mapping = data
    while isinstance(mapping.base, np.ndarray):
        mapping = mapping.base
    return (
        isinstance(mapping, np.memmap)
        and os.path.samefile(mapping.filename, path)
        and not data.flags.writeable
    )


def _median_seconds(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples))


def run(flows: int, repeats: int) -> dict:
    # ~16k flows per 5-minute slice, matching a mid-size deployment.
    span = max(2.0, flows / 16_384) * SLICE_SECONDS
    table = synth_table(flows, span)
    root = Path(tempfile.mkdtemp(prefix="bench-archive-"))
    try:
        # Bulk ingest, rows shuffled inside each chunk: exporters do
        # not deliver in start order, and the writer must not need it.
        rng = np.random.default_rng(11)
        chunks = [
            chunk.select(rng.permutation(len(chunk)))
            for chunk in table_chunks(table, 65_536)
        ]
        t0 = time.perf_counter()
        with ArchiveWriter(root, slice_seconds=SLICE_SECONDS) as writer:
            writer.ingest_chunks(chunks)
        ingest_wall = time.perf_counter() - t0

        pruned = ArchiveReader(root)
        full = ArchiveReader(root, use_zone_maps=False)
        memory = FlowTrace(table, bin_seconds=SLICE_SECONDS)

        # The narrow query: one slice in the middle, plus a filter the
        # zone maps can also prune on.
        mid = (span // (2 * SLICE_SECONDS)) * SLICE_SECONDS
        window = (mid, mid + SLICE_SECONDS)

        def q(reader):
            return reader.query_table(*window, QUERY_FILTER)

        result_rows = len(q(pruned))
        zero_copy = all(
            _maps_file(p.table()._data, p.path) for p in pruned.partitions()
        )
        match = (
            len(q(full)) == result_rows
            and len(memory.query_table(*window, QUERY_FILTER))
            == result_rows
        )

        pruned_s = _median_seconds(lambda: q(pruned), repeats)
        scan = pruned.last_scan
        full_s = _median_seconds(lambda: q(full), repeats)
        memory_s = _median_seconds(
            lambda: memory.query_table(*window, QUERY_FILTER), repeats
        )
        count_s = _median_seconds(
            lambda: pruned.count(*window), repeats
        )
        speedup = full_s / pruned_s if pruned_s > 0 else float("inf")

        # Planner pushdown: aggregate questions answered from sidecar
        # metadata alone — zero payload bytes read — vs the same
        # questions forced through payload scans.
        count_plan = pruned.last_plan
        top = FlowFeature.DST_PORT
        top_ranked = pruned.top_feature_values(*window, top, n=5)
        top_plan = pruned.last_plan
        top_s = _median_seconds(
            lambda: pruned.top_feature_values(*window, top, n=5),
            repeats,
        )
        count_scan_s = _median_seconds(
            lambda: full.count(*window), repeats
        )
        top_scan_s = _median_seconds(
            lambda: full.top_feature_values(*window, top, n=5),
            repeats,
        )
        pushdown_match = (
            pruned.count(*window) == full.count(*window)
            and top_ranked == full.top_feature_values(*window, top, n=5)
        )
        pushdown_zero_reads = (
            count_plan is not None
            and count_plan.pushdown == "zone-map-stats"
            and count_plan.payload_bytes_read == 0
            and top_plan.pushdown == "feature-index"
            and top_plan.payload_bytes_read == 0
        )

        # What archive_forensics sees: many distinct values to rank,
        # and a minute cut out of a five-minute partition.
        three = (mid, mid + 3 * SLICE_SECONDS)
        talkers = FlowFeature.SRC_IP
        talkers_ranked = pruned.top_feature_values(*three, talkers, n=10)
        talkers_plan = pruned.last_plan
        talkers_s = _median_seconds(
            lambda: pruned.top_feature_values(*three, talkers, n=10),
            repeats,
        )
        talkers_match = talkers_ranked == \
            full.top_feature_values(*three, talkers, n=10)
        minute = (mid + 60.0, mid + 120.0)

        def minute_query(reader):
            return reader.query_table(*minute, MINUTE_FILTER)

        minute_rows = minute_query(pruned)
        minute_scan = pruned.last_scan
        minute_s = _median_seconds(lambda: minute_query(pruned), repeats)
        minute_mask_s = _median_seconds(
            lambda: minute_query(full), repeats
        )
        minute_match = (
            minute_rows._data.tobytes()
            == minute_query(full)._data.tobytes()
            == memory.query_table(*minute, MINUTE_FILTER)._data.tobytes()
        )
        all_sorted = all(p.zone.sorted for p in pruned.partitions())

        stats = pruned.stats()
        return {
            "benchmark": "archive_pruned_vs_full_scan",
            "flows": flows,
            "span_seconds": span,
            "slice_seconds": SLICE_SECONDS,
            "partitions": stats.partitions,
            "payload_bytes": stats.payload_bytes,
            "machine": machine_block(),
            "ingest": {
                "wall_s": ingest_wall,
                "flows_per_sec": flows / ingest_wall,
            },
            "narrow_query": {
                "filter": QUERY_FILTER,
                "window_s": SLICE_SECONDS,
                "rows_returned": result_rows,
                "partitions_scanned": scan.scanned,
                "partitions_pruned": scan.pruned,
                "pruned_ms": pruned_s * 1e3,
                "full_scan_ms": full_s * 1e3,
                "memory_ms": memory_s * 1e3,
                "pruning_speedup": speedup,
                "results_match": match,
            },
            "count_fast_path_ms": count_s * 1e3,
            "planner_pushdown": {
                "count_pushdown": count_plan.pushdown,
                "count_payload_bytes_read":
                    count_plan.payload_bytes_read,
                "count_ms": count_s * 1e3,
                "count_scan_ms": count_scan_s * 1e3,
                "top_feature": str(top),
                "top_pushdown": top_plan.pushdown,
                "top_payload_bytes_read": top_plan.payload_bytes_read,
                "top_ms": top_s * 1e3,
                "top_scan_ms": top_scan_s * 1e3,
                "results_match": pushdown_match,
                "zero_payload_reads": pushdown_zero_reads,
            },
            "high_cardinality_pushdown": {
                "feature": str(talkers),
                "windows": 3,
                "distinct_values": int(len(np.unique(
                    memory.query_table(*three).src_ip
                ))),
                "pushdown": talkers_plan.pushdown,
                "payload_bytes_read": talkers_plan.payload_bytes_read,
                "top_ms": talkers_s * 1e3,
                "results_match": talkers_match,
            },
            "minute_query": {
                "filter": MINUTE_FILTER,
                "window_s": 60.0,
                "rows_returned": len(minute_rows),
                "partition_rows": minute_scan.rows_scanned,
                "partitions_scanned": minute_scan.scanned,
                "bisected_ms": minute_s * 1e3,
                "full_scan_ms": minute_mask_s * 1e3,
                "results_match": minute_match,
            },
            "partitions_sorted": all_sorted,
            "zero_copy_mmap": zero_copy,
            "acceptance_min_speedup": ACCEPTANCE_SPEEDUP,
            "acceptance_pass": bool(
                speedup >= ACCEPTANCE_SPEEDUP
                and zero_copy
                and match
                and pushdown_match
                and pushdown_zero_reads
                and talkers_match
                and talkers_plan.payload_bytes_read == 0
                and minute_match
                and all_sorted
            ),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--flows", type=int, default=1_000_000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the acceptance floor is met",
    )
    parser.add_argument(
        "--out",
        default=str(
            Path(__file__).resolve().parent.parent
            / "BENCH_archive.json"
        ),
    )
    args = parser.parse_args()

    results = run(args.flows, args.repeats)
    Path(args.out).write_text(json.dumps(results, indent=2) + "\n")

    query = results["narrow_query"]
    print(
        f"ingest: {results['ingest']['flows_per_sec']:,.0f} flows/s "
        f"({results['partitions']} partitions, "
        f"{results['payload_bytes']:,} bytes)"
    )
    print(
        f"narrow query: pruned {query['pruned_ms']:.2f}ms "
        f"(scanned {query['partitions_scanned']}, "
        f"pruned {query['partitions_pruned']}) vs "
        f"full scan {query['full_scan_ms']:.2f}ms vs "
        f"in-memory {query['memory_ms']:.2f}ms "
        f"-> {query['pruning_speedup']:.1f}x"
    )
    print(
        f"count fast path: {results['count_fast_path_ms']:.3f}ms; "
        f"zero-copy mmap: {results['zero_copy_mmap']}"
    )
    push = results["planner_pushdown"]
    print(
        f"pushdown count [{push['count_pushdown']}]: "
        f"{push['count_ms']:.3f}ms vs scan "
        f"{push['count_scan_ms']:.3f}ms "
        f"({push['count_payload_bytes_read']} payload bytes read)"
    )
    print(
        f"pushdown top {push['top_feature']} "
        f"[{push['top_pushdown']}]: {push['top_ms']:.3f}ms vs scan "
        f"{push['top_scan_ms']:.3f}ms "
        f"({push['top_payload_bytes_read']} payload bytes read)"
    )
    talkers = results["high_cardinality_pushdown"]
    print(
        f"pushdown top {talkers['feature']} over 3 windows "
        f"[{talkers['pushdown']}]: {talkers['top_ms']:.3f}ms to rank "
        f"{talkers['distinct_values']:,} distinct values"
    )
    minute = results["minute_query"]
    print(
        f"one-minute query ({minute['filter']}): "
        f"{minute['bisected_ms']:.3f}ms for {minute['rows_returned']} of "
        f"{minute['partition_rows']:,} partition rows vs full scan "
        f"{minute['full_scan_ms']:.2f}ms; every partition sorted: "
        f"{results['partitions_sorted']}"
    )
    print(f"wrote {args.out}")
    if args.check and not results["acceptance_pass"]:
        print(
            f"ACCEPTANCE FAIL: speedup "
            f"{query['pruning_speedup']:.1f}x < "
            f"{ACCEPTANCE_SPEEDUP}x floor (or reads not zero-copy, an "
            f"answer mismatch, or an unsorted spill)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
