"""repro.collector — the wire ingest plane: a NetFlow UDP collector.

The paper's deployment receives NetFlow from GEANT routers; every
other source in this repo reads files, tables or synth scenarios.
This package is the missing first mile: a UDP listener in its own
process (:mod:`~repro.collector.listener`) that decodes NetFlow v5, v9
and IPFIX datagrams (:mod:`~repro.collector.decode`), tracks
per-exporter sequence/template state
(:mod:`~repro.collector.exporters`) and batches rows into
:class:`~repro.flows.table.FlowTable` chunks
(:mod:`~repro.collector.batcher`) that reach the stream engine over a
pipe.

Importing the package registers ``SourceSpec(kind="udp")`` with
:data:`repro.api.registry.sources`, so::

    [source]
    kind = "udp"
    [source.options]
    port = 0            # ephemeral; the bound port lands in the summary

    $ repro run collector.toml

stands up a full collector→detect→archive→serve pipeline with no new
entry point.
"""

from repro.collector.batcher import ChunkBatcher
from repro.collector.decode import (
    DecodedDatagram,
    Template,
    TemplateCache,
    decode_datagram,
)
from repro.collector.exporters import ExporterState, ExporterTable
from repro.collector.listener import (
    FlowCollector,
    UdpSource,
    read_recorded_datagrams,
    send_datagrams,
)

__all__ = [
    "ChunkBatcher",
    "DecodedDatagram",
    "Template",
    "TemplateCache",
    "decode_datagram",
    "ExporterState",
    "ExporterTable",
    "FlowCollector",
    "UdpSource",
    "read_recorded_datagrams",
    "send_datagrams",
]
