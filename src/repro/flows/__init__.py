"""NetFlow substrate: records, codecs, sampling, storage and filtering.

This package is the reproduction's stand-in for the paper's NfDump-based
flow backend (Figure 1): an archive of NetFlow records queryable by time
window and filter expression, plus the sampling machinery that models
GEANT's 1/100 packet-sampled exports.
"""

from repro.flows.addresses import (
    AddressPlan,
    Prefix,
    anonymize_ip,
    int_to_ip,
    ip_to_int,
)
from repro.flows.aggregate import (
    all_feature_histograms,
    distinct_counts,
    feature_histogram,
    top_n,
)
from repro.flows.filter import (
    compile_mask,
    filter_table,
    parse_filter,
)
from repro.flows.record import (
    FLOW_FEATURES,
    FlowFeature,
    FlowRecord,
    Protocol,
    TcpFlags,
    feature_value,
    format_feature_value,
)
from repro.flows.sampling import (
    DeterministicSampler,
    PacketSampler,
    RandomSampler,
    renormalize,
    sample_trace,
)
from repro.flows.table import FLOW_DTYPE, FlowTable
from repro.flows.trace import DEFAULT_BIN_SECONDS, FlowTrace, TraceStats

__all__ = [
    "AddressPlan",
    "Prefix",
    "anonymize_ip",
    "int_to_ip",
    "ip_to_int",
    "all_feature_histograms",
    "distinct_counts",
    "feature_histogram",
    "top_n",
    "compile_mask",
    "filter_table",
    "parse_filter",
    "FLOW_FEATURES",
    "FlowFeature",
    "FlowRecord",
    "Protocol",
    "TcpFlags",
    "feature_value",
    "format_feature_value",
    "DeterministicSampler",
    "PacketSampler",
    "RandomSampler",
    "renormalize",
    "sample_trace",
    "FLOW_DTYPE",
    "FlowTable",
    "DEFAULT_BIN_SECONDS",
    "FlowTrace",
    "TraceStats",
]
