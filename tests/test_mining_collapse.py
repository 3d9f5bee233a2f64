"""The sort factorisation, the pattern collapse of ``mine_apriori`` and
the subset-key reducers against their oracles.

After level 1 the kernel counts the distinct patterns of frequent
level-1 codes instead of the rows (``apriori._collapse``). These are
the shapes that collapse can take — every row its own pattern, one
pattern for all rows, a mixed-radix key that must be re-densified,
no collapse at all — each checked against the per-transaction Apriori
of ``tests/mining_oracle.py``. The reducers of
:mod:`repro.mining.maximal` are checked against the every-pair
comparison they replaced, on itemset lists that are not downward
closed.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.flows.aggregate import factorise
from repro.flows.record import FLOW_FEATURES, FlowRecord
from repro.flows.table import FlowTable
from repro.mining import apriori
from repro.mining.apriori import mine_apriori
from repro.mining.items import Item, Itemset, ItemsetSupport
from repro.mining.maximal import closed_itemsets, maximal_itemsets
from repro.mining.transactions import TransactionSet
from tests.mining_oracle import (
    OracleTransactionSet,
    oracle_apriori,
    oracle_closed_itemsets,
    oracle_maximal_itemsets,
)


@given(
    dtype=st.sampled_from([np.uint8, np.uint16, np.uint32, np.int64]),
    values=st.lists(
        st.one_of(
            st.sampled_from([0, 1, 255, 256, 65_535, 2**32 - 1, -1]),
            st.integers(-(2**40), 2**40),
        ),
        max_size=80,
    ),
    strided=st.booleans(),
)
@example(dtype=np.uint16, values=[], strided=False)
@example(dtype=np.uint8, values=[3] * 20, strided=True)
@settings(max_examples=200, deadline=None)
def test_factorise_equals_np_unique(dtype, values, strided):
    # astype wraps out-of-range values, as a column of that dtype would;
    # a table's feature columns are strided views.
    column = np.array(values, dtype=np.int64).astype(dtype)
    if strided:
        column = np.repeat(column, 2)[::2]
    values, codes = factorise(column)
    unique, inverse = np.unique(column, return_inverse=True)
    assert values.dtype == column.dtype and codes.dtype == np.int64
    assert values.tobytes() == unique.tobytes()
    assert codes.tolist() == inverse.tolist()


def _flow(src_ip, dst_ip, src_port, dst_port, proto, packets=1):
    return FlowRecord(
        src_ip=src_ip, dst_ip=dst_ip, src_port=src_port,
        dst_port=dst_port, proto=proto, packets=packets,
        bytes=40 * packets, start=0.0, end=1.0,
    )


def _patterns(monkeypatch) -> list[int]:
    """Record the pattern count of every ``_collapse`` call."""
    counts: list[int] = []
    collapse = apriori._collapse

    def spy(digits, packets, bytes_):
        codes, weights = collapse(digits, packets, bytes_)
        counts.append(len(weights[0]))
        return codes, weights

    monkeypatch.setattr(apriori, "_collapse", spy)
    return counts


def _both(flows, min_flows, min_packets=None, max_size=None):
    """The kernel's and the oracle's answers on the same flows."""
    mined = mine_apriori(
        TransactionSet.from_table(FlowTable.from_records(flows)),
        min_flows, min_packets, max_size,
    )
    expected = oracle_apriori(
        OracleTransactionSet.from_flows(flows),
        min_flows, min_packets, max_size,
    )
    return mined, expected


def test_every_row_its_own_pattern(monkeypatch):
    patterns = _patterns(monkeypatch)
    flows = [
        _flow(1 + i % 3, 2, 1000 + i, 80 + i % 2, 6, packets=1 + i % 5)
        for i in range(60)
    ]
    mined, expected = _both(flows, 1)
    assert mined == expected
    assert patterns == [len(flows)]


def test_one_pattern_for_every_row(monkeypatch):
    patterns = _patterns(monkeypatch)
    flows = [_flow(1, 2, 3, 80, 6, packets=p) for p in (1, 2, 3, 4) * 10]
    mined, expected = _both(flows, 5, 30)
    assert mined == expected
    assert patterns == [1]
    assert len(mined) == 31 and {s.flows for s in mined} == {40}


def test_max_size_one_mines_rows_only(monkeypatch):
    patterns = _patterns(monkeypatch)
    flows = [_flow(1 + i % 4, 2, 3 + i % 3, 80, 6) for i in range(24)]
    mined, expected = _both(flows, 2, None, max_size=1)
    assert mined == expected
    assert patterns == []
    assert {len(s.itemset) for s in mined} == {1}


def test_one_column_with_a_frequent_item(monkeypatch):
    patterns = _patterns(monkeypatch)
    # srcIP 7 on every row; every other value on one row only.
    flows = [_flow(7, 100 + i, 2000 + i, 3000 + i, i % 250) for i in range(30)]
    mined, expected = _both(flows, 2)
    assert mined == expected
    assert patterns == []
    assert [s.itemset for s in mined] == [Itemset([Item(FLOW_FEATURES[0], 7)])]


_IPS = st.sampled_from([1, 2, 3, 0xFFFFFFFF])
_PORTS = st.sampled_from([0, 53, 80, 65535])


@st.composite
def _flows(draw):
    distinct = draw(st.lists(
        st.builds(
            _flow, _IPS, _IPS, _PORTS, _PORTS,
            st.sampled_from([1, 6, 17]), st.sampled_from([0, 1, 7]),
        ),
        min_size=1, max_size=8,
    ))
    return draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=30))


@given(
    flows=_flows(),
    min_flows=st.integers(min_value=1, max_value=4),
    limit=st.sampled_from([1, 4, 64]),
)
@settings(max_examples=100, deadline=None)
def test_redensified_key_equals_oracle(flows, min_flows, limit):
    # A key limit this low re-densifies the pattern key at (nearly)
    # every column, on inputs small enough for the oracle.
    original = apriori._KEY_LIMIT
    apriori._KEY_LIMIT = limit
    try:
        mined, expected = _both(flows, min_flows)
    finally:
        apriori._KEY_LIMIT = original
    assert mined == expected


def test_radix_product_past_2_62(monkeypatch):
    # 12,000 distinct values in each address and port column and 256
    # protocols, all frequent at min_flows=1: the radix product
    # 12001**4 * 257 passes 2**62, so the key is ranked (once, over
    # the rows) before the protocol column joins it. That is too many
    # items for the oracle's candidate join; every row is its own
    # pattern, so the answer is every itemset of at most ``max_size``
    # items of every row, summed over equal itemsets.
    n, max_size = 12_000, 2
    assert (n + 1) ** 4 * 257 > apriori._KEY_LIMIT
    inside = [False]
    ranked = []
    collapse, factorise = apriori._collapse, apriori.factorise

    def collapse_spy(*args):
        inside[0] = True
        try:
            return collapse(*args)
        finally:
            inside[0] = False

    def factorise_spy(column):
        if inside[0]:
            ranked.append(len(column))
        return factorise(column)

    monkeypatch.setattr(apriori, "_collapse", collapse_spy)
    monkeypatch.setattr(apriori, "factorise", factorise_spy)
    flows = [
        _flow(10 * i, 10 * i + 1, i, 65535 - i, i % 256, packets=1 + i % 7)
        for i in range(n)
    ]
    mined = mine_apriori(
        TransactionSet.from_table(FlowTable.from_records(flows)),
        1, None, max_size,
    )
    assert ranked == [n]

    supports: dict[tuple[Item, ...], list[int]] = {}
    for flow in flows:
        row = [
            Item(feature, value)
            for feature, value in zip(FLOW_FEATURES, flow.key[:5])
        ]
        for size in range(1, max_size + 1):
            for items in combinations(row, size):
                counts = supports.setdefault(items, [0, 0, 0])
                counts[0] += 1
                counts[1] += flow.packets
                counts[2] += flow.bytes
    assert mined == sorted(
        (
            ItemsetSupport(Itemset(items), *counts)
            for items, counts in supports.items()
        ),
        key=lambda s: (-s.flows, -s.packets, s.itemset.items),
    )


# -- reducers ---------------------------------------------------------------


@st.composite
def _supports(draw):
    """Up to 28 itemsets over two values per feature with tied
    supports, in any order and with repeats: not downward closed."""
    def one():
        features = draw(st.sets(
            st.sampled_from(FLOW_FEATURES), min_size=1, max_size=5
        ))
        itemset = Itemset(
            Item(feature, draw(st.sampled_from([1, 2])))
            for feature in features
        )
        return ItemsetSupport(
            itemset,
            draw(st.sampled_from([1, 2])),
            draw(st.sampled_from([1, 2])),
        )

    made = [one() for _ in range(draw(st.integers(0, 25)))]
    if made:
        # Equal itemsets as distinct objects: the oracle orders its
        # survivors by object identity, so one object is never listed
        # twice (no miner lists an itemset twice either).
        made += [
            ItemsetSupport(s.itemset, s.flows, s.packets)
            for s in draw(st.lists(st.sampled_from(made), max_size=3))
        ]
    return draw(st.permutations(made))


@given(supports=_supports())
@settings(max_examples=200, deadline=None)
def test_reducers_equal_every_pair_comparison(supports):
    for reducer, oracle in (
        (maximal_itemsets, oracle_maximal_itemsets),
        (closed_itemsets, oracle_closed_itemsets),
    ):
        assert [id(s) for s in reducer(supports)] == [
            id(s) for s in oracle(supports)
        ]
