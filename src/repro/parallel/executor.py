"""The e2e tracer's ``ShardExecutor`` rows: an in-process stub.

There is no worker pool. Every pass runs in the calling process at any
``workers`` value: each former user of the pool was timed at 1 vs 2
workers on 2 vCPUs and lost to its serial path (ROADMAP item 7).
"""

from __future__ import annotations

from typing import Any

from repro.flows.table import FlowTable

__all__ = ["ShardExecutor"]


class ShardExecutor:
    """In-process stand-in that nothing under ``src/`` constructs."""

    # Kept only because benchmarks/e2e/spans.py::ENTRY_POINTS names
    # the five ``map_*`` methods as rows the tracer patches in this
    # class's own ``__dict__``, and its traced runs patch ``close``;
    # nothing under ``src/`` calls them. ROADMAP item 6 step 1 deletes
    # them.

    def map_tables(self, fn, tables, extras=None) -> list[Any]:
        extras = [()] * len(tables) if extras is None else extras
        return [
            fn(table, *extra)
            for table, extra in zip(tables, extras, strict=True)
        ]

    def map_table_groups(self, fn, groups, extras=None) -> list[Any]:
        tables = [FlowTable.concat(list(group)) for group in groups]
        return self.map_tables(fn, tables, extras)

    def map_masked(self, fn, table, masks, extras=None) -> list[Any]:
        tables = [table.select(mask) for mask in masks]
        return self.map_tables(fn, tables, extras)

    def map_broadcast(self, fn, tables, extras) -> list[Any]:
        return [fn(list(tables), *extra) for extra in extras]

    def map_items(self, fn, items) -> list[Any]:
        return [fn(*item) for item in items]

    def close(self) -> None:
        """Nothing to release."""
