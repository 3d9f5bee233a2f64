"""Compaction: merge rotation spills into sorted, sealed partitions —
and the one migration of archives older builds wrote.

A live archive accumulates many small partitions per rotation slice —
one per ingest spill, one per streamed window. Each carries its own
file, sidecar and zone map, so query cost (and directory churn) grows
with write count, not data size. Compaction restores the invariant an
NfDump spool enjoys naturally — *one file per capture interval* — by
merging every slice's partitions into a single ``h0`` partition whose
rows are stably sorted by start time, marked **sealed**: immutable,
never compacted again, the terminal state of archived data.

**Migration.** Only this module knows the two formats older builds
wrote — a ``.flows`` file with ``.zone.json`` (and maybe
``.fidx.json``) sidecars and no ``.idx``, and a hash-shard name
``part<slice>-h<n>-<seq>.flows`` with ``n > 0``. Readers call
:func:`refuse_outdated`; :func:`compact_archive` migrates before it
opens any reader, reading such a file's rows by its header's row count
and its ``replaces`` list from whichever sidecar it has. A slice that
holds one merges like any other, so it ends as one sealed ``h0`` file.

**Crash safety.** Compaction writes before it deletes: a slice's
merged partition is durable (data, ``.idx``, directory fsync), with a
``replaces`` list naming every input, before any input is unlinked. A
crash in between leaves both on disk. Readers never double-count: a
current-format input is dropped because a live ``replaces`` names it,
an old-format one makes them refuse the directory. A rerun first
deletes every file a ``replaces`` list names, which is exactly the
state an uninterrupted pass leaves, names and bytes alike.

Merging preserves query semantics exactly: rows of a slice concatenate
in ``(shard, seq)`` order and sort stably by start, so the canonical ``(start,
5-tuple)`` query order — including tie resolution — is byte-identical
before and after compaction.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

from repro.archive.index import decode_index
from repro.archive.layout import (
    INDEX_SUFFIX,
    PARTITION_SUFFIX,
    ArchiveLayout,
    parse_partition_name,
    remove_partition,
    sidecar_path,
)
from repro.archive.partition import checked_rows, open_rows
from repro.archive.writer import ArchiveWriter
from repro.errors import ArchiveError
from repro.flows.table import FLOW_DTYPE, FlowTable

__all__ = ["CompactionResult", "compact_archive", "refuse_outdated"]

#: The JSON sidecars of archives written before ``.idx``.
_LEGACY_SIDECARS = (".zone.json", ".fidx.json")

#: Every partition name any build wrote, hash shards included.
_ANY_NAME_RE = re.compile(
    r"^part(?P<slice>-?\d+)-h(?P<shard>\d+)-(?P<seq>\d+)"
    + re.escape(PARTITION_SUFFIX) + r"$"
)


@dataclass(frozen=True, slots=True)
class CompactionResult:
    """What one compaction pass did."""

    groups: int
    partitions_before: int
    partitions_after: int
    rows_compacted: int
    bytes_compacted: int


def _scan(root: Path) -> list[tuple[int, int, int, Path, bool]]:
    """``(slice, shard, seq, path, outdated)`` of every partition file
    under ``root``, in the ``(slice, shard, seq)`` order older builds
    scanned in; ``outdated`` flags a format only this module reads."""
    names = {entry.name for entry in root.iterdir()} \
        if root.is_dir() else set()
    found = []
    for name in names:
        match = _ANY_NAME_RE.match(name)
        if match is None:
            continue
        stem = name[: -len(PARTITION_SUFFIX)]
        legacy = stem + INDEX_SUFFIX not in names \
            and stem + _LEGACY_SIDECARS[0] in names
        found.append((
            int(match["slice"]), int(match["shard"]), int(match["seq"]),
            root / name, legacy or parse_partition_name(name) is None,
        ))
    return sorted(found)


def refuse_outdated(root: str | Path) -> None:
    """Raise :class:`~repro.errors.ArchiveError`, naming the migration,
    if ``root`` holds an old-format partition; touches nothing."""
    outdated = [path for *_, path, old in _scan(Path(root)) if old]
    if outdated:
        raise ArchiveError(
            f"archive {root} holds {len(outdated)} partition(s) in a "
            f"format this build does not read (first: "
            f"{outdated[0].name}); migrate it with "
            f"`repro archive compact --dir {root}`"
        )


def _replaces(path: Path) -> tuple[str, ...] | None:
    """A partition's ``replaces`` list, from its ``.idx`` or its legacy
    ``.zone.json``; ``None`` when it has neither sidecar."""
    index = sidecar_path(path)
    zone = sidecar_path(path, _LEGACY_SIDECARS[0])
    if index.exists():
        return decode_index(index.read_bytes(), source=path)[0].replaces
    if not zone.exists():
        return None
    try:
        return tuple(json.loads(zone.read_text())["replaces"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ArchiveError(f"{path}: corrupt zone map: {exc}") from exc


def _remove(path: Path) -> None:
    """Unlink a superseded partition under every name it may own."""
    remove_partition(path)
    for suffix in _LEGACY_SIDECARS:
        sidecar_path(path, suffix).unlink(missing_ok=True)


def _merge(
    writer: ArchiveWriter,
    slice_index: int,
    inputs: list[tuple[Path, FlowTable]],
) -> int:
    """Write one slice's inputs as one sealed partition, then delete
    them; returns the rows written."""
    merged = FlowTable.concat([table for _path, table in inputs])
    merged = merged.sorted_by_start()
    writer.write_partition(
        merged,
        slice_index=slice_index,
        sealed=True,
        replaces=tuple(path.name for path, _table in inputs),
    )
    for path, _table in inputs:
        # The sealed replacement is durable; now the inputs (and
        # their sidecars) can go.
        _remove(path)
    return len(merged)


def _migrate(
    layout: ArchiveLayout, writer: ArchiveWriter
) -> tuple[set[int], int, int]:
    """Merge every slice that holds an old-format partition; returns
    the migrated slices, and the partitions and rows that went into
    them. A current-format archive is left untouched."""
    stored = _scan(layout.root)
    if not any(old for *_, old in stored):
        return set(), 0, 0
    replaces = {}
    for *_, path, old in stored:
        found = _replaces(path)
        if found is not None:
            replaces[path] = found
        elif old:
            # No build writes these names any more: not a write in
            # flight, a crash leftover. A current-format file without
            # a sidecar is left to the reader's rules.
            layout.quarantine(path, "partition without an index sidecar")
    # Recovery sweep: finish the deletes of an interrupted pass.
    superseded = {name for names in replaces.values() for name in names}
    live = []
    for slice_index, _shard, _seq, path, old in stored:
        if path in replaces and path.name in superseded:
            _remove(path)
        elif path in replaces:
            live.append((slice_index, path, old))
    slices = {slice_index for slice_index, _path, old in live if old}
    inputs = rows = 0
    for index in sorted(slices):
        group = [
            (path, open_rows(path, checked_rows(path)))
            for slice_index, path, _old in live if slice_index == index
        ]
        inputs += len(group)
        rows += _merge(writer, index, group)
    return slices, inputs, rows


def compact_archive(root: str | Path) -> CompactionResult:
    """Merge every slice that holds several or unsealed partitions.

    Old-format slices are migrated first, before any reader opens the
    directory (:func:`_migrate`); after that only a terminal group —
    one sealed partition — is left alone. Returns counters; an empty
    or fully compacted archive is a no-op.
    """
    from repro.archive.reader import ArchiveReader  # imports this module

    writer = ArchiveWriter(root)
    migrated, before, merged_rows = _migrate(writer.layout, writer)
    reader = ArchiveReader(root)
    # Recovery sweep: a crash between a previous pass's write and its
    # deletes leaves superseded inputs on disk. Readers already ignore
    # them (provenance wins); finishing the interrupted deletes here is
    # what makes "re-running compaction completes the cleanup" true.
    superseded = {
        name
        for partition in reader.partitions()
        for name in partition.zone.replaces
    }
    for _key, path in reader.layout.partition_files():
        if path.name in superseded:
            remove_partition(path)
    grouped: dict[int, list] = {}
    for partition in reader.partitions():
        grouped.setdefault(partition.key.slice_index, []).append(partition)
    groups = len(migrated)
    for slice_index, group in sorted(grouped.items()):
        if slice_index in migrated:
            continue
        before += len(group)
        if len(group) == 1 and group[0].zone.sealed:
            continue
        groups += 1
        merged_rows += _merge(
            writer, slice_index, [(p.path, p.table()) for p in group]
        )
    reader.refresh()
    return CompactionResult(
        groups=groups,
        partitions_before=before,
        partitions_after=len(reader.partitions()),
        rows_compacted=merged_rows,
        bytes_compacted=merged_rows * FLOW_DTYPE.itemsize,
    )
