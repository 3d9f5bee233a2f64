"""The stream engine's flow balance, checked at the end of every
``StreamEngine`` test: every row fed is either windowed or dropped as
late, and the sealed windows together hold exactly the windowed rows.
"""

from __future__ import annotations


def assert_flow_balance(engine, results, fed: int) -> None:
    """``results`` are all the engine's ``WindowResult``s (through its
    ``finish``); ``fed`` is the number of rows handed to ``process``."""
    stats = engine.stats
    assert fed == stats.flows + stats.late_dropped
    assert sum(result.window.flows for result in results) == stats.flows
