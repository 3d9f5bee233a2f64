"""Frequent itemset mining over flow transactions — from scratch.

One engine, a columnar Apriori with dual flow/packet support counting,
plus closed/maximal reduction, association rules, and the paper's
**extended Apriori** envelope (dual thresholds + self-tuning).
"""

from repro.mining.apriori import mine_apriori
from repro.mining.extended import (
    ENGINES,
    ExtendedApriori,
    ExtendedAprioriConfig,
    MiningOutcome,
)
from repro.mining.items import (
    Item,
    Itemset,
    ItemsetSupport,
    itemset_from_signature,
)
from repro.mining.maximal import closed_itemsets, maximal_itemsets
from repro.mining.rules import AssociationRule, derive_rules
from repro.mining.transactions import TransactionSet

__all__ = [
    "mine_apriori",
    "ENGINES",
    "ExtendedApriori",
    "ExtendedAprioriConfig",
    "MiningOutcome",
    "Item",
    "Itemset",
    "ItemsetSupport",
    "itemset_from_signature",
    "closed_itemsets",
    "maximal_itemsets",
    "AssociationRule",
    "derive_rules",
    "TransactionSet",
]


# -- session-facade registration ---------------------------------------------
# The miners registry *adopts* ENGINES as its backing store: names
# registered through `repro.api.registry.miners` (e.g. by plugins)
# become valid `ExtendedAprioriConfig.engine` values and vice versa.

from repro.api.registry import miners as _miners  # noqa: E402

_miners.adopt(ENGINES)
