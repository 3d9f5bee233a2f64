"""The flow record model.

A :class:`FlowRecord` mirrors the fields of a NetFlow v5 record that the
anomaly-extraction pipeline consumes: the 5-tuple, packet/byte counters,
start/end timestamps and TCP flags, plus the router (PoP) that exported
the flow. Records are immutable and hashable so they can be used as
dictionary keys and set members (the extraction code deduplicates and
intersects flow sets frequently).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import FlowError
from repro.flows.addresses import int_to_ip, is_valid_ip_int

__all__ = [
    "Protocol",
    "TcpFlags",
    "FlowRecord",
    "FlowFeature",
    "FLOW_FEATURES",
    "feature_value",
    "format_feature_value",
]


class Protocol(enum.IntEnum):
    """IP protocol numbers used by the generators and filters."""

    ICMP = 1
    TCP = 6
    UDP = 17
    GRE = 47
    ESP = 50

    @classmethod
    def parse(cls, text: str) -> "Protocol":
        """Parse a protocol name (``"tcp"``) or number (``"6"``)."""
        text = text.strip().lower()
        if text.isdigit():
            try:
                return cls(int(text))
            except ValueError as exc:
                raise FlowError(f"unknown protocol number {text!r}") from exc
        try:
            return cls[text.upper()]
        except KeyError as exc:
            raise FlowError(f"unknown protocol name {text!r}") from exc


class TcpFlags(enum.IntFlag):
    """TCP flag bits as stored in NetFlow's ``tcp_flags`` octet."""

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20

    @classmethod
    def parse(cls, text: str) -> "TcpFlags":
        """Parse flag names (``"syn,ack"``) or compact letters (``"SA"``)."""
        letters = {
            "F": cls.FIN,
            "S": cls.SYN,
            "R": cls.RST,
            "P": cls.PSH,
            "A": cls.ACK,
            "U": cls.URG,
        }
        flags = cls(0)
        tokens = text.replace(",", " ").upper().split()
        for token in tokens:
            if token in cls.__members__:
                flags |= cls[token]
                continue
            for char in token:
                if char not in letters:
                    raise FlowError(f"unknown TCP flag {char!r} in {text!r}")
                flags |= letters[char]
        return flags

    def compact(self) -> str:
        """Render as the nfdump-style 6-char mask, e.g. ``".A..S."``."""
        order = [
            (TcpFlags.URG, "U"),
            (TcpFlags.ACK, "A"),
            (TcpFlags.PSH, "P"),
            (TcpFlags.RST, "R"),
            (TcpFlags.SYN, "S"),
            (TcpFlags.FIN, "F"),
        ]
        return "".join(ch if self & bit else "." for bit, ch in order)


class FlowFeature(enum.Enum):
    """The five flow features the mining step builds items from."""

    SRC_IP = "srcIP"
    DST_IP = "dstIP"
    SRC_PORT = "srcPort"
    DST_PORT = "dstPort"
    PROTO = "proto"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Features in the order the paper's tables print them.
FLOW_FEATURES: tuple[FlowFeature, ...] = (
    FlowFeature.SRC_IP,
    FlowFeature.DST_IP,
    FlowFeature.SRC_PORT,
    FlowFeature.DST_PORT,
    FlowFeature.PROTO,
)


@dataclass(frozen=True, slots=True)
class FlowRecord:
    """A single unidirectional flow record.

    Parameters mirror NetFlow v5 semantics: ``packets``/``bytes`` are the
    (possibly sampling-renormalised) counters, ``start``/``end`` are UNIX
    timestamps in seconds (floats allowed), ``tcp_flags`` the OR of flags
    seen, ``router`` the index of the exporting PoP and ``sampling_rate``
    the 1/N packet-sampling denominator applied upstream (1 = unsampled).
    """

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    proto: int
    packets: int = 1
    bytes: int = 64
    start: float = 0.0
    end: float = 0.0
    tcp_flags: int = 0
    router: int = 0
    sampling_rate: int = 1

    def __post_init__(self) -> None:
        if not is_valid_ip_int(self.src_ip):
            raise FlowError(f"bad src_ip: {self.src_ip!r}")
        if not is_valid_ip_int(self.dst_ip):
            raise FlowError(f"bad dst_ip: {self.dst_ip!r}")
        for name, port in (("src_port", self.src_port),
                           ("dst_port", self.dst_port)):
            if not isinstance(port, int) or not 0 <= port <= 0xFFFF:
                raise FlowError(f"bad {name}: {port!r}")
        if not isinstance(self.proto, int) or not 0 <= self.proto <= 0xFF:
            raise FlowError(f"bad proto: {self.proto!r}")
        if not 0 <= self.packets <= 0x7FFFFFFFFFFFFFFF or \
                not 0 <= self.bytes <= 0x7FFFFFFFFFFFFFFF:
            raise FlowError("packet/byte counters outside [0, 2^63)")
        if not 0 <= self.tcp_flags <= 0xFF:
            raise FlowError(f"bad tcp_flags: {self.tcp_flags!r}")
        if not 0 <= self.router <= 0xFFFFFFFF:
            raise FlowError(f"bad router: {self.router!r}")
        if self.end < self.start:
            raise FlowError(
                f"flow ends before it starts ({self.end} < {self.start})"
            )
        if not 1 <= self.sampling_rate <= 0xFFFFFFFF:
            raise FlowError(f"bad sampling rate: {self.sampling_rate!r}")

    # -- derived views ---------------------------------------------------

    @property
    def key(self) -> tuple[int, int, int, int, int]:
        """The 5-tuple ``(src_ip, dst_ip, src_port, dst_port, proto)``."""
        return (self.src_ip, self.dst_ip, self.src_port, self.dst_port,
                self.proto)

    @property
    def duration(self) -> float:
        """Flow duration in seconds."""
        return self.end - self.start

    @property
    def estimated_packets(self) -> int:
        """Packet count corrected for upstream 1/N sampling."""
        return self.packets * self.sampling_rate

    @property
    def estimated_bytes(self) -> int:
        """Byte count corrected for upstream 1/N sampling."""
        return self.bytes * self.sampling_rate

    def is_tcp(self) -> bool:
        """True for TCP flows."""
        return self.proto == Protocol.TCP

    def is_udp(self) -> bool:
        """True for UDP flows."""
        return self.proto == Protocol.UDP

    def has_flags(self, flags: TcpFlags) -> bool:
        """True when every bit of ``flags`` is set on the record."""
        return (self.tcp_flags & int(flags)) == int(flags)

    def overlaps(self, start: float, end: float) -> bool:
        """True when the flow's active period intersects ``[start, end)``."""
        return self.start < end and self.end >= start

    def __str__(self) -> str:
        try:
            proto = Protocol(self.proto).name
        except ValueError:
            proto = str(self.proto)
        return (
            f"{int_to_ip(self.src_ip)}:{self.src_port} -> "
            f"{int_to_ip(self.dst_ip)}:{self.dst_port} {proto} "
            f"{self.packets}pkt {self.bytes}B"
        )


def feature_value(flow: FlowRecord, feature: FlowFeature) -> int:
    """Return the raw value of ``feature`` on ``flow``."""
    if feature is FlowFeature.SRC_IP:
        return flow.src_ip
    if feature is FlowFeature.DST_IP:
        return flow.dst_ip
    if feature is FlowFeature.SRC_PORT:
        return flow.src_port
    if feature is FlowFeature.DST_PORT:
        return flow.dst_port
    if feature is FlowFeature.PROTO:
        return flow.proto
    raise FlowError(f"unknown feature {feature!r}")


def format_feature_value(feature: FlowFeature, value: int,
                         anonymize: bool = False) -> str:
    """Human-readable rendering of a feature value.

    IPs render dotted (or anonymised per the paper's convention), ports as
    plain integers and protocols by name when known.
    """
    if feature in (FlowFeature.SRC_IP, FlowFeature.DST_IP):
        if anonymize:
            from repro.flows.addresses import anonymize_ip

            return anonymize_ip(value)
        return int_to_ip(value)
    if feature is FlowFeature.PROTO:
        try:
            return Protocol(value).name
        except ValueError:
            return str(value)
    return str(value)
