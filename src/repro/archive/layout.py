"""On-disk layout of a flow archive.

An archive is one directory of **partition files** plus sidecar
metadata, modelled on an NfDump spool directory:

``MANIFEST.json``
    Archive geometry — schema version, rotation width
    (``slice_seconds``) and the timestamp of slice 0's left edge
    (``origin``). Written once, atomically, when the geometry is
    fixed; every reader and writer of the directory must agree with
    it.
``part<slice>-h0-<seq>.flows``
    One partition: a fixed 32-byte header followed by raw
    little-endian :data:`~repro.flows.table.FLOW_DTYPE` rows. Because
    the payload *is* the dtype buffer, a reader maps it with
    ``np.memmap`` and hands a plain view of the mapping straight to
    :class:`~repro.flows.table.FlowTable` — no decode step, no copy.
    ``slice`` is the rotation-slice index (signed) and ``seq`` a
    per-slice write sequence number; ``h0`` is a literal part of the
    name.
``part<slice>-h0-<seq>.idx``
    The partition's index sidecar (:mod:`repro.archive.index`): zone
    map and feature index in one checksummed binary file. A partition
    is servable iff its ``.flows`` and ``.idx`` both exist under their
    final names and the ``.idx`` checksum holds.
``quarantine/``
    Where the reader moves files it refuses to serve (truncated
    payloads, orphaned temporaries, missing or torn sidecars).
    Quarantined files keep their bytes for forensics but never reach a
    query.

Writes are crash-safe by construction: data is written to a
``.tmp-*`` name, flushed, fsynced and then atomically renamed, so a
file either exists completely under its final name or not at all. The
sidecar follows the same protocol *after* the data file, so a visible
``.flows`` file missing its sidecar marks an interrupted write — the
reader quarantines it — and the directory itself is fsynced once both
names are linked, so a partition reported written survives a power
cut.
"""

from __future__ import annotations

import json
import logging
import os
import re
import struct
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ArchiveError, CodecError
from repro.flows.table import FLOW_SCHEMA_VERSION
from repro.obs import metrics as obs_metrics

logger = logging.getLogger(__name__)

_QUARANTINED = obs_metrics.counter(
    "repro_archive_quarantined_total",
    "Files refused by the archive and moved into quarantine/.",
)

__all__ = [
    "MANIFEST_NAME",
    "PARTITION_SUFFIX",
    "INDEX_SUFFIX",
    "QUARANTINE_DIR",
    "PARTITION_HEADER_SIZE",
    "PartitionKey",
    "pack_partition_header",
    "unpack_partition_header",
    "partition_file_name",
    "parse_partition_name",
    "sidecar_path",
    "remove_partition",
    "atomic_write",
    "ArchiveLayout",
]

MANIFEST_NAME = "MANIFEST.json"
PARTITION_SUFFIX = ".flows"
INDEX_SUFFIX = ".idx"
QUARANTINE_DIR = "quarantine"
_TMP_PREFIX = ".tmp-"

#: Partition header: magic, flow schema version, reserved flags, row
#: count, padded to 32 bytes, little-endian like the payload.
_PARTITION_HEADER = struct.Struct("<4sHHQ16x")
PARTITION_HEADER_SIZE = _PARTITION_HEADER.size
_PARTITION_MAGIC = b"RPAR"

_NAME_RE = re.compile(
    r"^part(?P<slice>-?\d+)-h0-(?P<seq>\d+)"
    + re.escape(PARTITION_SUFFIX) + r"$"
)


@dataclass(frozen=True, slots=True, order=True)
class PartitionKey:
    """Identity of one partition file: ``(slice, seq)``.

    The tuple order is the canonical scan order — slice (time) first,
    then write sequence — which is what keeps archive query results
    byte-identical to an in-memory trace's (ties in the final sort
    resolve by input position).
    """

    slice_index: int
    seq: int


def pack_partition_header(rows: int) -> bytes:
    """The 32-byte header preceding ``rows`` raw ``FLOW_DTYPE`` rows."""
    return _PARTITION_HEADER.pack(
        _PARTITION_MAGIC, FLOW_SCHEMA_VERSION, 0, rows
    )


def unpack_partition_header(header: bytes, source: object = "") -> int:
    """Validate a partition header; returns the row count.

    Raises :class:`~repro.errors.CodecError` on a bad magic or a
    schema-version mismatch (a partition written by a different
    ``FLOW_DTYPE`` revision must never be silently misparsed) and on a
    short header.
    """
    where = f"{source}: " if source else ""
    if len(header) < PARTITION_HEADER_SIZE:
        raise CodecError(f"{where}truncated partition header")
    found, version, _flags, rows = _PARTITION_HEADER.unpack_from(header)
    if found != _PARTITION_MAGIC:
        raise CodecError(f"{where}bad partition magic {found!r}")
    if version != FLOW_SCHEMA_VERSION:
        raise CodecError(
            f"{where}partition carries flow schema version {version}; "
            f"this build reads version {FLOW_SCHEMA_VERSION}"
        )
    return int(rows)


def partition_file_name(key: PartitionKey) -> str:
    """Canonical file name of a partition."""
    return f"part{key.slice_index}-h0-{key.seq}{PARTITION_SUFFIX}"


def parse_partition_name(name: str) -> PartitionKey | None:
    """Parse a partition file name; ``None`` if it is not one."""
    match = _NAME_RE.match(name)
    if match is None:
        return None
    return PartitionKey(
        slice_index=int(match.group("slice")),
        seq=int(match.group("seq")),
    )


def sidecar_path(partition_path: Path, suffix: str = INDEX_SUFFIX) -> Path:
    """Sidecar path of a partition data file."""
    name = partition_path.name
    if not name.endswith(PARTITION_SUFFIX):
        raise ArchiveError(f"not a partition file: {partition_path}")
    return partition_path.parent / (
        name[: -len(PARTITION_SUFFIX)] + suffix
    )


def remove_partition(partition_path: Path) -> None:
    """Unlink a superseded partition: the data file, then its index."""
    partition_path.unlink(missing_ok=True)
    sidecar_path(partition_path).unlink(missing_ok=True)


def atomic_write(
    path: Path, payload: bytes, exclusive: bool = False
) -> None:
    """Write ``payload`` to ``path`` via tmp + fsync + rename.

    With ``exclusive`` the final link is created with
    ``os.link`` — which fails atomically if ``path`` already exists —
    instead of ``os.replace``. Partition files use this so two writers
    racing on the same ``(slice, seq)`` name (e.g. a long-lived
    ingest writer vs. a concurrent compaction) surface as a loud
    :class:`~repro.errors.ArchiveError` rather than one silently
    clobbering the other's data.
    """
    tmp = path.parent / f"{_TMP_PREFIX}{path.name}.{os.getpid()}"
    with open(tmp, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    if not exclusive:
        os.replace(tmp, path)
        return
    try:
        os.link(tmp, path)
    except FileExistsError as exc:
        os.unlink(tmp)
        raise ArchiveError(
            f"partition {path} already exists — another writer owns "
            f"this archive (one writer at a time; compaction counts)"
        ) from exc
    os.unlink(tmp)


class ArchiveLayout:
    """Path arithmetic and manifest I/O for one archive directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # -- paths -------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    @property
    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIR

    def partition_path(self, key: PartitionKey) -> Path:
        return self.root / partition_file_name(key)

    def sync_directory(self) -> None:
        """fsync the archive directory: makes the links and renames of
        the files written so far survive a power cut."""
        fd = os.open(self.root, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def ensure_root(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)

    # -- directory scan ----------------------------------------------------

    def partition_files(self) -> list[tuple[PartitionKey, Path]]:
        """All partition data files, in canonical ``(slice, seq)``
        order. Non-partition names are ignored (the manifest, sidecars,
        the quarantine directory); orphaned temporaries are reported by
        :meth:`stray_files` instead."""
        found = []
        if not self.root.is_dir():
            return found
        for entry in self.root.iterdir():
            key = parse_partition_name(entry.name)
            if key is not None and entry.is_file():
                found.append((key, entry))
        found.sort(key=lambda pair: pair[0])
        return found

    def stray_files(self, min_age_seconds: float = 60.0) -> list[Path]:
        """Leftover ``.tmp-*`` files from interrupted writes.

        Only temporaries at least ``min_age_seconds`` old count: a
        *young* temporary is most likely a live writer's in-flight
        partition (data written, rename pending), and moving it aside
        would crash that writer and lose the partition. Genuinely
        orphaned temporaries age past the threshold and get swept by
        the next scan.
        """
        if not self.root.is_dir():
            return []
        cutoff = time.time() - min_age_seconds
        strays = []
        for entry in self.root.iterdir():
            if not entry.name.startswith(_TMP_PREFIX):
                continue
            try:
                if entry.is_file() and entry.stat().st_mtime <= cutoff:
                    strays.append(entry)
            except FileNotFoundError:
                continue  # renamed away mid-scan: not a stray
        return sorted(strays)

    def quarantine(self, path: Path, reason: str) -> Path:
        """Move a refused file (and its sidecar, if any) aside.

        Returns the quarantined data-file path. The move is a rename
        into ``quarantine/`` so the bytes survive for forensics; a
        name collision appends a numeric suffix rather than
        overwriting earlier evidence.
        """
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        target = self.quarantine_dir / path.name
        counter = 1
        while target.exists():
            target = self.quarantine_dir / f"{path.name}.{counter}"
            counter += 1
        os.replace(path, target)
        note = target.with_name(target.name + ".reason")
        note.write_text(reason + "\n")
        if path.name.endswith(PARTITION_SUFFIX):
            sidecar = sidecar_path(path)
            if sidecar.exists():
                os.replace(sidecar, self.quarantine_dir / sidecar.name)
        logger.warning(
            "quarantined %s -> %s: %s", path.name, target, reason
        )
        _QUARANTINED.inc()
        return target

    # -- manifest ----------------------------------------------------------

    def write_manifest(self, slice_seconds: float, origin: float) -> None:
        """Persist the archive geometry (atomic; must not move later)."""
        existing = self.read_manifest()
        if existing is not None:
            if existing != (slice_seconds, origin):
                raise ArchiveError(
                    f"archive {self.root} already has geometry "
                    f"slice_seconds={existing[0]}, origin={existing[1]}; "
                    f"cannot change it to slice_seconds={slice_seconds}, "
                    f"origin={origin}"
                )
            return
        self.ensure_root()
        payload = json.dumps(
            {
                "schema": FLOW_SCHEMA_VERSION,
                "slice_seconds": float(slice_seconds),
                "origin": float(origin),
            },
            indent=2,
        ).encode()
        atomic_write(self.manifest_path, payload + b"\n")
        self.sync_directory()

    def read_manifest(self) -> tuple[float, float] | None:
        """``(slice_seconds, origin)``, or ``None`` if not written yet."""
        try:
            raw = self.manifest_path.read_text()
        except FileNotFoundError:
            return None
        try:
            data = json.loads(raw)
            schema = int(data["schema"])
            geometry = (float(data["slice_seconds"]), float(data["origin"]))
        except (ValueError, KeyError, TypeError) as exc:
            raise ArchiveError(
                f"corrupt archive manifest {self.manifest_path}: {exc}"
            ) from exc
        if schema != FLOW_SCHEMA_VERSION:
            raise CodecError(
                f"{self.manifest_path}: archive written with flow schema "
                f"version {schema}; this build reads version "
                f"{FLOW_SCHEMA_VERSION}"
            )
        return geometry
