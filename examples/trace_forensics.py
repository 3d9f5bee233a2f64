#!/usr/bin/env python3
"""Forensics on an archived trace: store, filters and association rules.

A fourth workflow the system supports: no live detector, just an
archived NetFlow spool. The example writes a synthetic trace through
the NetFlow v5 binary codec (what an NfDump spool holds), loads it back
into the time-partitioned store, hunts suspects with nfdump-style
filters and top-N statistics, and finishes with association rules over
the suspicious window — the "association rules" view of the underlying
IMC'09 technique.

Run:  python examples/trace_forensics.py
"""

import tempfile
from pathlib import Path

from repro.flows import FlowFeature, FlowStore, int_to_ip, top_n
from repro.flows.flowio import read_binary, write_binary
from repro.mining import TransactionSet, derive_rules, mine_apriori
from repro.synth import (
    BackgroundConfig,
    NetworkScan,
    Scenario,
    Topology,
)


def main() -> None:
    # -- build and archive a trace ---------------------------------------
    topology = Topology()
    scenario = Scenario(
        topology=topology,
        background=BackgroundConfig(flows_per_second=15.0),
        bin_count=4,
    )
    scenario.add(
        NetworkScan(
            "netscan",
            scanner=0xC6336401,  # 198.51.100.1
            target_network=topology.pops[4].prefix.network,
            target_count=4000,
            dst_port=445,
        ),
        start_bin=2,
    )
    labeled = scenario.build(seed=9)

    spool = Path(tempfile.mkdtemp()) / "archive.rpv5"
    packets = write_binary(labeled.trace, spool, boot_time=0.0)
    print(f"archived {len(labeled.trace)} flows as {packets} NetFlow v5 "
          f"packets ({spool.stat().st_size // 1024} KiB)")

    # -- load it back into the nfdump-style store -------------------------
    store = FlowStore(slice_seconds=300.0)
    store.insert_many(read_binary(spool))
    print(f"store: {len(store)} flows in {len(store.slices())} slices")

    # -- hunt: who is talking to port 445? --------------------------------
    suspects = store.query(600.0, 900.0, "dst port 445 and flags S")
    print(f"\nfilter 'dst port 445 and flags S' in [600, 900): "
          f"{len(suspects)} flows")
    for value, count in top_n(suspects, FlowFeature.SRC_IP, n=3):
        print(f"  src {int_to_ip(value)}: {count} flows")

    # -- association rules over the suspicious window --------------------
    window = store.query(600.0, 900.0)
    transactions = TransactionSet.from_flows(window)
    itemsets = mine_apriori(
        transactions, min_flows=max(50, len(window) // 20)
    )
    rules = derive_rules(itemsets, total_flows=len(window),
                         min_confidence=0.9)
    print(f"\ntop association rules ({len(rules)} with confidence >= 0.9):")
    for rule in rules[:5]:
        print("  " + rule.render())


if __name__ == "__main__":
    main()
