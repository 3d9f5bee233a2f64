"""Deterministic inputs for the end-to-end benchmark.

One fixture per ``--seed`` serves all four workloads: an 8-bin clean
training trace (``train.rpv5``) and one bin per anomaly of
:data:`repro.synth.presets.ANOMALY_NAMES`, all rendered by one
:class:`repro.synth.Scenario` and stored *window-relative* with
integer-millisecond timestamps. Quiet live windows replay the training
bins: a separately drawn clean bin false-alarms for about one seed in
four, which would make the work a run does depend on its seed. A run
of any length is a *plan* — a list of bin ids, one per live window —
and window ``i`` is bin ``plan[i]`` shifted by ``i * 300 s`` (a
vectorised add, so a long run needs no long synth).

The same bins leave this module in two shapes that decode to identical
rows: :meth:`Fixture.window_rows` (``FLOW_DTYPE``, what ``bench-feed``
yields) and :class:`WireBins` (NetFlow v5 / v9 / IPFIX datagrams split
over four exporters, what the UDP sender transmits). Timestamps are
whole milliseconds and the boot time is 0, so all three wire formats
and the in-memory path reconstruct the same float ``ms / 1000.0``.

The cache key is (seed, generation parameters, ``FLOW_SCHEMA_VERSION``)
and never a git sha: a parent commit and a change read the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.collector.decode import (
    Template,
    encode_ipfix_datagram,
    encode_template_set,
    encode_v9_datagram,
)
from repro.flows.addresses import ip_to_int
from repro.flows.flowio import write_binary
from repro.flows.record import FlowFeature
from repro.flows.table import FLOW_DTYPE, FLOW_SCHEMA_VERSION
from repro.synth import (
    BackgroundConfig,
    GroundTruth,
    NetworkScan,
    PortScan,
    ReflectorAttack,
    Scenario,
    Signature,
    SynFlood,
    Topology,
    UdpFlood,
)
from repro.synth.presets import ANOMALY_NAMES
from repro.taxonomy import AnomalyKind

WINDOW_SECONDS = 300.0
WINDOW_MS = 300_000
TRAIN_BINS = 8
BACKGROUND_FPS = 25.0
#: Left edge of live window 0 (the training bins come first).
ORIGIN = TRAIN_BINS * WINDOW_SECONDS
ORIGIN_MS = TRAIN_BINS * WINDOW_MS
FLOWS_PER_DATAGRAM = 30
#: (wire format, engine id / source id / observation domain); every
#: fourth datagram in time order belongs to the same exporter.
EXPORTERS = (("v5", 1), ("v5", 2), ("v9", 3), ("ipfix", 4))
#: Bump when the stored layout or the generation recipe changes.
FIXTURE_VERSION = 3
#: Fixtures kept on disk; older ones are pruned (a driver that varies
#: the seed on every run must not fill the checkout).
CACHE_KEEP = 6

_ATTACKER = ip_to_int("203.191.64.165")

# -- wire layouts -------------------------------------------------------------

_V5_RECORD = np.dtype([
    ("src_ip", ">u4"), ("dst_ip", ">u4"), ("nexthop", ">u4"),
    ("input", ">u2"), ("output", ">u2"),
    ("packets", ">u4"), ("octets", ">u4"),
    ("first", ">u4"), ("last", ">u4"),
    ("src_port", ">u2"), ("dst_port", ">u2"),
    ("pad1", "u1"), ("tcp_flags", "u1"), ("proto", "u1"), ("tos", "u1"),
    ("src_as", ">u2"), ("dst_as", ">u2"),
    ("src_mask", "u1"), ("dst_mask", "u1"), ("pad2", ">u2"),
])
_V5_DATAGRAM = np.dtype([
    ("version", ">u2"), ("count", ">u2"), ("sys_uptime", ">u4"),
    ("unix_secs", ">u4"), ("unix_nsecs", ">u4"), ("seq", ">u4"),
    ("engine_type", "u1"), ("engine_id", "u1"), ("sampling", ">u2"),
    ("records", _V5_RECORD, (FLOWS_PER_DATAGRAM,)),
])

#: IANA elements shared by both template formats, in wire order.
_COMMON_FIELDS = (
    (8, 4, "src_ip"), (12, 4, "dst_ip"), (7, 2, "src_port"),
    (11, 2, "dst_port"), (4, 1, "proto"), (6, 1, "tcp_flags"),
    (10, 2, "router"), (2, 4, "packets"), (1, 4, "bytes"),
)
V9_TEMPLATE = Template(
    256, tuple((e, n) for e, n, _ in _COMMON_FIELDS) + ((22, 4), (21, 4))
)
IPFIX_TEMPLATE = Template(
    257, tuple((e, n) for e, n, _ in _COMMON_FIELDS) + ((152, 8), (153, 8))
)


def _record_dtype(time_bytes: int) -> np.dtype:
    fields = [
        (name, f">u{size}" if size > 1 else "u1")
        for _, size, name in _COMMON_FIELDS
    ]
    fields += [("first", f">u{time_bytes}"), ("last", f">u{time_bytes}")]
    return np.dtype(fields)


_V9_RECORD = _record_dtype(4)
_IPFIX_RECORD = _record_dtype(8)
_V9_DATAGRAM = np.dtype([
    ("version", ">u2"), ("count", ">u2"), ("sys_uptime", ">u4"),
    ("unix_secs", ">u4"), ("seq", ">u4"), ("source_id", ">u4"),
    ("set_id", ">u2"), ("set_len", ">u2"),
    ("records", _V9_RECORD, (FLOWS_PER_DATAGRAM,)),
])
_IPFIX_DATAGRAM = np.dtype([
    ("version", ">u2"), ("length", ">u2"), ("export_secs", ">u4"),
    ("seq", ">u4"), ("domain", ">u4"),
    ("set_id", ">u2"), ("set_len", ">u2"),
    ("records", _IPFIX_RECORD, (FLOWS_PER_DATAGRAM,)),
])
assert _V5_DATAGRAM.itemsize == 24 + 48 * FLOWS_PER_DATAGRAM
assert _V9_RECORD.itemsize == V9_TEMPLATE.record_size
assert _IPFIX_RECORD.itemsize == IPFIX_TEMPLATE.record_size

#: Sequence units one full datagram consumes, per wire format: v5
#: counts flows, v9 export packets, IPFIX data records.
_SEQ_UNITS = {"v5": FLOWS_PER_DATAGRAM, "v9": 1, "ipfix": FLOWS_PER_DATAGRAM}


def _fill_common(records: np.ndarray, rows: np.ndarray) -> None:
    for _, _, name in _COMMON_FIELDS:
        records[name] = rows[name]


def encode_datagrams(
    kind: str,
    ident: int,
    rows: np.ndarray,
    start_ms: np.ndarray,
    end_ms: np.ndarray,
) -> np.ndarray:
    """Encode ``rows`` as full 30-record datagrams of one exporter.

    ``len(rows)`` must be a multiple of 30. Returns one structured
    array element per datagram; ``.tobytes()`` of an element is the
    datagram. Sequence numbers start at 0 (see :func:`shift_datagrams`).
    """
    count = len(rows) // FLOWS_PER_DATAGRAM
    if count * FLOWS_PER_DATAGRAM != len(rows):
        raise ValueError("rows must fill whole datagrams")
    shape = (count, FLOWS_PER_DATAGRAM)
    rows = rows.reshape(shape)
    if kind == "v5":
        out = np.zeros(count, dtype=_V5_DATAGRAM)
        out["version"] = 5
        out["count"] = FLOWS_PER_DATAGRAM
        out["engine_id"] = ident
        records = out["records"]
        for name in ("src_ip", "dst_ip", "src_port", "dst_port",
                     "proto", "tcp_flags", "packets"):
            records[name] = rows[name]
        records["input"] = rows["router"]
        records["octets"] = rows["bytes"]
    elif kind == "v9":
        out = np.zeros(count, dtype=_V9_DATAGRAM)
        out["version"] = 9
        out["count"] = 1
        out["source_id"] = ident
        out["set_id"] = V9_TEMPLATE.template_id
        out["set_len"] = 4 + _V9_RECORD.itemsize * FLOWS_PER_DATAGRAM
        records = out["records"]
        _fill_common(records, rows)
    elif kind == "ipfix":
        out = np.zeros(count, dtype=_IPFIX_DATAGRAM)
        out["version"] = 10
        out["length"] = _IPFIX_DATAGRAM.itemsize
        out["domain"] = ident
        out["set_id"] = IPFIX_TEMPLATE.template_id
        out["set_len"] = 4 + _IPFIX_RECORD.itemsize * FLOWS_PER_DATAGRAM
        records = out["records"]
        _fill_common(records, rows)
    else:
        raise ValueError(f"unknown wire format {kind!r}")
    records["first"] = start_ms.reshape(shape)
    records["last"] = end_ms.reshape(shape)
    out["seq"] = np.arange(count, dtype=np.int64) * _SEQ_UNITS[kind]
    return out


def shift_datagrams(
    datagrams: np.ndarray, shift_ms: int, seq_base: int
) -> np.ndarray:
    """A copy moved ``shift_ms`` along the time axis, sequence numbers
    continuing from ``seq_base`` (mod 2**32, as exporters wrap)."""
    out = datagrams.copy()
    records = out["records"]
    records["first"] = records["first"].astype(np.int64) + shift_ms
    records["last"] = records["last"].astype(np.int64) + shift_ms
    out["seq"] = (out["seq"].astype(np.int64) + seq_base) % (1 << 32)
    return out


def template_datagram(kind: str, ident: int, seq: int) -> bytes:
    """The template-only datagram a v9/IPFIX exporter opens with."""
    if kind == "v9":
        return encode_v9_datagram(
            [encode_template_set([V9_TEMPLATE])],
            sequence=seq, source_id=ident,
        )
    return encode_ipfix_datagram(
        [encode_template_set([IPFIX_TEMPLATE], ipfix=True)],
        sequence=seq, domain=ident,
    )


# -- the fixture --------------------------------------------------------------


@dataclass
class Fixture:
    """One seed's inputs, as loaded from the cache."""

    directory: Path
    sha256: str
    build_seconds: float
    #: Per bin: FLOW_DTYPE rows (start/end zero) + integer ms columns,
    #: sorted by start, trimmed to whole datagram rounds (120 flows).
    rows: list[np.ndarray]
    start_ms: list[np.ndarray]
    end_ms: list[np.ndarray]
    #: Bin ids by role.
    clean: list[int]
    anomalous: list[int]
    #: Ground truth per anomalous bin id: name + signature item maps.
    truths: dict[int, dict]

    @property
    def train_path(self) -> str:
        return str(self.directory / "train.rpv5")

    def bin_flows(self, bin_id: int) -> int:
        return len(self.rows[bin_id])

    def window_rows(self, bin_id: int, window: int) -> np.ndarray:
        """Bin ``bin_id`` placed at live window ``window``."""
        out = self.rows[bin_id].copy()
        shift = ORIGIN_MS + window * WINDOW_MS
        out["start"] = (self.start_ms[bin_id] + shift) / 1000.0
        out["end"] = (self.end_ms[bin_id] + shift) / 1000.0
        return out

    def ground_truth(self, bin_id: int, window: int) -> GroundTruth:
        """The injected anomaly of ``bin_id`` as placed at ``window``."""
        truth = self.truths[bin_id]
        start = ORIGIN + window * WINDOW_SECONDS
        return GroundTruth(
            anomaly_id=f"{truth['name']}@{window}",
            kind=truth["kind"],
            start=start,
            end=start + WINDOW_SECONDS,
            signatures=[
                Signature({FlowFeature(k): v for k, v in items.items()})
                for items in truth["signatures"]
            ],
        )

    def trigger_row(self, bin_id: int, lateness_seconds: float) -> int:
        """First row of the bin late enough to seal the previous
        window (start >= window edge + lateness)."""
        return int(np.searchsorted(
            self.start_ms[bin_id], int(lateness_seconds * 1000), "left"
        ))


class WireBins:
    """Every bin of a fixture as per-exporter datagram arrays."""

    def __init__(self, fixture: Fixture) -> None:
        #: ``bins[bin_id][exporter]`` -> structured datagram array.
        self.bins: list[list[np.ndarray]] = []
        for rows, start, end in zip(
            fixture.rows, fixture.start_ms, fixture.end_ms
        ):
            per_exporter = []
            for index, (kind, ident) in enumerate(EXPORTERS):
                pick = exporter_rows(len(rows), index)
                per_exporter.append(encode_datagrams(
                    kind, ident, rows[pick], start[pick], end[pick]
                ))
            self.bins.append(per_exporter)

    def window_datagrams(
        self, bin_id: int, window: int, seq: list[int]
    ) -> list[bytes]:
        """The datagrams of one window in send (time) order.

        ``seq`` holds each exporter's next sequence number and is
        advanced in place. The template exporters open every window
        with their template datagram — real exporters refresh
        templates periodically, and the first window needs them.
        """
        shift = ORIGIN_MS + window * WINDOW_MS
        out, blobs = [], []
        for index, (kind, ident) in enumerate(EXPORTERS):
            if kind != "v5":
                out.append(template_datagram(kind, ident, seq[index]))
                if kind == "v9":  # v9 sequences count export packets
                    seq[index] += 1
            base = self.bins[bin_id][index]
            blobs.append((
                shift_datagrams(base, shift, seq[index]).tobytes(),
                base.dtype.itemsize,
            ))
            seq[index] += len(base) * _SEQ_UNITS[kind]
        for j in range(len(self.bins[bin_id][0])):
            for blob, size in blobs:
                out.append(blob[j * size:(j + 1) * size])
        return out


def exporter_rows(total: int, exporter: int) -> np.ndarray:
    """Row indices (time order) that exporter ``exporter`` carries:
    datagram ``j`` of the window belongs to exporter ``j % 4``."""
    datagram = np.arange(total) // FLOWS_PER_DATAGRAM
    return np.flatnonzero(datagram % len(EXPORTERS) == exporter)


# -- generation and cache -----------------------------------------------------


def _injectors(topology: Topology) -> dict:
    """One injector per preset anomaly name (the presets' shapes)."""
    target = topology.host_address(topology.pops[9], 3)
    made = {
        "network-scan": NetworkScan(
            "network-scan", _ATTACKER,
            topology.pops[4].prefix.network, 15_000,
        ),
        "port-scan": PortScan(
            "port-scan", _ATTACKER + 1, target, 20_000, src_port=55548,
        ),
        "reflector": ReflectorAttack(
            "reflector", target, reflector_count=300, flow_count=20_000,
        ),
        "syn-flood": SynFlood("syn-flood", target, 80, flow_count=15_000),
        "udp-flood": UdpFlood(
            "udp-flood", _ATTACKER + 64, target, packets_total=3_000_000,
        ),
    }
    if tuple(sorted(made)) != tuple(ANOMALY_NAMES):
        raise RuntimeError(
            f"preset anomaly menu changed: {ANOMALY_NAMES}"
        )
    return made


def _columns(table) -> np.ndarray:
    data = np.empty(len(table), dtype=FLOW_DTYPE)
    for name in FLOW_DTYPE.names:
        data[name] = table.column(name)
    return data


def _generate(seed: int, directory: Path) -> dict:
    """Write ``train.rpv5`` and ``bins.npz``; returns the metadata."""
    topology = Topology()
    names = list(ANOMALY_NAMES)
    scenario = Scenario(
        topology=topology,
        background=BackgroundConfig(flows_per_second=BACKGROUND_FPS),
        bin_seconds=WINDOW_SECONDS,
        bin_count=TRAIN_BINS + len(names),
    )
    injectors = _injectors(topology)
    for offset, name in enumerate(names):
        scenario.add(injectors[name], TRAIN_BINS + offset)
    labeled = scenario.build(seed=seed)
    trace = labeled.trace
    write_binary(
        trace.between(0.0, ORIGIN), directory / "train.rpv5",
        boot_time=0.0,
    )
    data = _columns(trace.table.sorted_by_start())
    arrays: dict[str, np.ndarray] = {}
    meta: dict = {"clean": [], "anomalous": [], "truths": {}}
    for bin_id in range(TRAIN_BINS + len(names)):
        lo = bin_id * WINDOW_SECONDS
        rows = data[(data["start"] >= lo)
                    & (data["start"] < lo + WINDOW_SECONDS)]
        start_ms = np.minimum(
            np.round((rows["start"] - lo) * 1000.0).astype(np.int64),
            WINDOW_MS - 1,
        )
        duration = np.round(
            (rows["end"] - rows["start"]) * 1000.0
        ).astype(np.int64)
        order = np.argsort(start_ms, kind="stable")
        whole = len(order) - len(order) % (
            FLOWS_PER_DATAGRAM * len(EXPORTERS)
        )
        order = order[:whole]
        rows = rows[order]
        # Every wire format must carry every value losslessly.
        rows["router"] &= 0xFFFF
        rows["sampling_rate"] = 1
        if rows["packets"].max() > 0xFFFFFFFF \
                or rows["bytes"].max() > 0xFFFFFFFF:
            raise RuntimeError("synth counter overflows the v5 record")
        start_ms = start_ms[order]
        rows["start"] = 0.0
        rows["end"] = 0.0
        arrays[f"rows{bin_id}"] = rows
        arrays[f"start{bin_id}"] = start_ms
        arrays[f"end{bin_id}"] = start_ms + duration[order]
        if bin_id < TRAIN_BINS:
            meta["clean"].append(bin_id)
            continue
        name = names[bin_id - TRAIN_BINS]
        truth = labeled.truth_by_id(name)
        meta["anomalous"].append(bin_id)
        meta["truths"][str(bin_id)] = {
            "name": name,
            "kind": truth.kind.value,
            "signatures": [
                {feature.value: int(value)
                 for feature, value in signature.items.items()}
                for signature in truth.signatures
            ],
        }
    np.savez(directory / "bins.npz", **arrays)
    # Content hash (the .npz container embeds timestamps).
    digest = hashlib.sha256((directory / "train.rpv5").read_bytes())
    for name in sorted(arrays):
        digest.update(arrays[name].tobytes())
    meta["sha256"] = digest.hexdigest()
    return meta


def cache_key(seed: int) -> str:
    return (
        f"seed{seed}-fps{BACKGROUND_FPS:g}-t{TRAIN_BINS}"
        f"-fx{FIXTURE_VERSION}-schema{FLOW_SCHEMA_VERSION}"
    )


def ensure(seed: int, cache_dir: Path) -> None:
    """Generate the seed's fixture unless it is cached."""
    directory = cache_dir / cache_key(seed)
    if (directory / "meta.json").exists():
        directory.touch()
        return
    started = time.perf_counter()
    scratch = cache_dir / f".partial-{cache_key(seed)}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    meta = _generate(seed, scratch)
    meta["build_seconds"] = time.perf_counter() - started
    (scratch / "meta.json").write_text(json.dumps(meta, indent=1))
    shutil.rmtree(directory, ignore_errors=True)
    scratch.rename(directory)
    kept = sorted(
        (p for p in cache_dir.iterdir()
         if p.is_dir() and not p.name.startswith(".")),
        key=lambda p: p.stat().st_mtime, reverse=True,
    )
    for stale in kept[CACHE_KEEP:]:
        shutil.rmtree(stale, ignore_errors=True)


def load(seed: int, cache_dir: Path) -> Fixture:
    """Load a fixture :func:`ensure` has generated."""
    directory = cache_dir / cache_key(seed)
    meta = json.loads((directory / "meta.json").read_text())
    with np.load(directory / "bins.npz") as stored:
        count = len(meta["clean"]) + len(meta["anomalous"])
        rows = [stored[f"rows{i}"] for i in range(count)]
        start = [stored[f"start{i}"] for i in range(count)]
        end = [stored[f"end{i}"] for i in range(count)]
    truths = {
        int(bin_id): {**truth, "kind": AnomalyKind(truth["kind"])}
        for bin_id, truth in meta["truths"].items()
    }
    return Fixture(
        directory=directory,
        sha256=meta["sha256"],
        build_seconds=meta["build_seconds"],
        rows=rows,
        start_ms=start,
        end_ms=end,
        clean=list(meta["clean"]),
        anomalous=list(meta["anomalous"]),
        truths=truths,
    )
