"""The e2e tracer's ``ShardedApriori`` row: a stub over the serial miner.

There is no sharded miner. Extraction mines with
:class:`~repro.mining.extended.ExtendedApriori` in the calling process
at any ``workers`` value: the SON two-pass that sharded it lost to the
serial kernel on every workload measured (ROADMAP item 7).
"""

from __future__ import annotations

from repro.mining.extended import ExtendedApriori

__all__ = ["ShardedApriori"]


class ShardedApriori(ExtendedApriori):
    """:class:`ExtendedApriori` under its old name; nothing under
    ``src/`` constructs it."""

    # Kept only because benchmarks/e2e/spans.py::ENTRY_POINTS names
    # ``mine`` as a row the tracer patches in this class's own
    # ``__dict__``; nothing under ``src/`` calls it. ROADMAP item 6
    # step 1 deletes it.

    def mine(self, flows):
        return super().mine(flows)
