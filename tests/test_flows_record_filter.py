"""Tests for repro.flows.record and repro.flows.filter."""

import pytest

from conftest import make_flow
from repro.errors import FilterSyntaxError, FlowError
from repro.flows.filter import (
    And,
    MatchAny,
    Not,
    Or,
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


class TestProtocol:
    def test_parse_names_and_numbers(self):
        assert Protocol.parse("tcp") is Protocol.TCP
        assert Protocol.parse("UDP") is Protocol.UDP
        assert Protocol.parse("6") is Protocol.TCP
        assert Protocol.parse("17") is Protocol.UDP

    def test_parse_rejects_unknown(self):
        with pytest.raises(FlowError):
            Protocol.parse("quic")
        with pytest.raises(FlowError):
            Protocol.parse("999")


class TestTcpFlags:
    def test_parse_letters(self):
        assert TcpFlags.parse("SA") == TcpFlags.SYN | TcpFlags.ACK

    def test_parse_names(self):
        assert TcpFlags.parse("syn,ack") == TcpFlags.SYN | TcpFlags.ACK
        assert TcpFlags.parse("FIN") == TcpFlags.FIN

    def test_parse_rejects_unknown(self):
        with pytest.raises(FlowError):
            TcpFlags.parse("XQ")

    def test_compact_rendering(self):
        flags = TcpFlags.SYN | TcpFlags.ACK
        assert flags.compact() == ".A..S."
        assert TcpFlags(0).compact() == "......"


class TestFlowRecord:
    def test_validation_rejects_bad_values(self):
        with pytest.raises(FlowError):
            make_flow(sport=70000)
        with pytest.raises(FlowError):
            make_flow(src=-1)
        with pytest.raises(FlowError):
            make_flow(start=5.0, end=1.0)
        with pytest.raises(FlowError):
            make_flow(packets=-1)
        with pytest.raises(FlowError):
            make_flow(sampling=0)
        with pytest.raises(FlowError):
            FlowRecord(
                src_ip=1, dst_ip=2, src_port=1, dst_port=2, proto=300
            )

    def test_key_and_duration(self):
        flow = make_flow(start=10.0, end=12.5)
        assert flow.duration == 2.5
        assert flow.key == (
            flow.src_ip, flow.dst_ip, flow.src_port, flow.dst_port,
            flow.proto,
        )

    def test_estimated_counters_invert_sampling(self):
        flow = make_flow(packets=3, bytes_=300, sampling=100)
        assert flow.estimated_packets == 300
        assert flow.estimated_bytes == 30000

    def test_protocol_predicates(self):
        assert make_flow(proto=Protocol.TCP).is_tcp()
        assert make_flow(proto=Protocol.UDP).is_udp()
        assert not make_flow(proto=Protocol.UDP).is_tcp()

    def test_has_flags(self):
        flow = make_flow(flags=TcpFlags.SYN | TcpFlags.ACK)
        assert flow.has_flags(TcpFlags.SYN)
        assert flow.has_flags(TcpFlags.SYN | TcpFlags.ACK)
        assert not flow.has_flags(TcpFlags.FIN)

    def test_overlaps(self):
        flow = make_flow(start=10.0, end=20.0)
        assert flow.overlaps(15.0, 30.0)
        assert flow.overlaps(0.0, 11.0)
        assert not flow.overlaps(21.0, 30.0)

    def test_records_are_hashable_values(self):
        assert make_flow() == make_flow()
        assert len({make_flow(), make_flow()}) == 1

    def test_feature_value_covers_all_features(self):
        flow = make_flow()
        values = [feature_value(flow, f) for f in FLOW_FEATURES]
        assert values == [
            flow.src_ip, flow.dst_ip, flow.src_port, flow.dst_port,
            flow.proto,
        ]

    def test_format_feature_value(self):
        flow = make_flow()
        assert format_feature_value(
            FlowFeature.SRC_IP, flow.src_ip
        ) == "10.0.0.1"
        assert format_feature_value(FlowFeature.PROTO, 6) == "TCP"
        assert format_feature_value(FlowFeature.PROTO, 123) == "123"
        assert format_feature_value(FlowFeature.DST_PORT, 80) == "80"
        anonymized = format_feature_value(
            FlowFeature.SRC_IP, flow.src_ip, anonymize=True
        )
        assert anonymized.endswith(".0.0.1") and anonymized[0].isalpha()


class TestFilterParsing:
    @pytest.mark.parametrize(
        "expression",
        [
            "any",
            "src ip 10.0.0.1",
            "dst ip 10.1.0.2",
            "ip 10.0.0.1",
            "src net 10.0.0.0/8",
            "net 10.0.0.0/8",
            "src port 1234",
            "dst port 80",
            "port 80",
            "dst port > 1024",
            "src port <= 1023",
            "port != 53",
            "proto tcp",
            "proto 47",
            "packets > 100",
            "bytes <= 1500",
            "duration >= 10",
            "flags SA",
            "router 3",
            "ip in [10.0.0.1 10.1.0.2]",
            "dst port in [80 443 8080]",
            "src ip 10.0.0.1 and dst port 80",
            "proto udp or proto tcp",
            "not proto udp",
            "(src ip 10.0.0.1 or dst ip 10.1.0.2) and packets > 5",
            "not (proto udp and dst port 53)",
        ],
    )
    def test_parse_unparse_fixpoint(self, expression):
        node = parse_filter(expression)
        text = node.unparse()
        again = parse_filter(text)
        assert again.unparse() == text

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "bogus 5",
            "src proto tcp",
            "ip",
            "ip 999.0.0.1",
            "net 10.0.0.0",
            "port abc",
            "port 99999",
            "packets 5",
            "packets > ",
            "flags Z",
            "src ip 10.0.0.1 and",
            "(src ip 10.0.0.1",
            "src ip 10.0.0.1)",
            "port in []",
            "port in [80",
            "router x",
            "proto 300",
            "duration > -1",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(FilterSyntaxError):
            parse_filter(bad)

    def test_error_reports_position(self):
        with pytest.raises(FilterSyntaxError) as excinfo:
            parse_filter("src ip 10.0.0.1 and bogus 5")
        assert excinfo.value.position is not None


class TestFilterSemantics:
    def test_direction_either(self):
        flow = make_flow(src="10.0.0.1", dst="10.1.0.2")
        assert parse_filter("ip 10.0.0.1").matches(flow)
        assert parse_filter("ip 10.1.0.2").matches(flow)
        assert not parse_filter("ip 10.9.9.9").matches(flow)

    def test_directional_ip(self):
        flow = make_flow(src="10.0.0.1", dst="10.1.0.2")
        assert parse_filter("src ip 10.0.0.1").matches(flow)
        assert not parse_filter("dst ip 10.0.0.1").matches(flow)

    def test_net(self):
        flow = make_flow(src="10.0.0.1", dst="172.16.0.9")
        assert parse_filter("src net 10.0.0.0/8").matches(flow)
        assert parse_filter("net 172.16.0.0/12").matches(flow)
        assert not parse_filter("dst net 10.0.0.0/8").matches(flow)

    def test_port_comparisons(self):
        flow = make_flow(sport=1234, dport=80)
        assert parse_filter("dst port 80").matches(flow)
        assert parse_filter("src port > 1000").matches(flow)
        assert parse_filter("port < 100").matches(flow)
        assert not parse_filter("dst port > 80").matches(flow)
        assert parse_filter("dst port != 443").matches(flow)

    def test_port_sets(self):
        flow = make_flow(dport=443)
        assert parse_filter("dst port in [80 443]").matches(flow)
        assert not parse_filter("dst port in [80 8080]").matches(flow)

    def test_counters(self):
        flow = make_flow(packets=10, bytes_=500, start=0.0, end=2.0)
        assert parse_filter("packets >= 10").matches(flow)
        assert not parse_filter("packets > 10").matches(flow)
        assert parse_filter("bytes = 500").matches(flow)
        assert parse_filter("duration < 3").matches(flow)

    def test_flags(self):
        flow = make_flow(flags=TcpFlags.SYN | TcpFlags.ACK)
        assert parse_filter("flags S").matches(flow)
        assert parse_filter("flags SA").matches(flow)
        assert not parse_filter("flags F").matches(flow)

    def test_router(self):
        assert parse_filter("router 3").matches(make_flow(router=3))
        assert not parse_filter("router 3").matches(make_flow(router=1))

    def test_boolean_combinators(self):
        flow = make_flow(dport=80, proto=Protocol.TCP)
        assert parse_filter("dst port 80 and proto tcp").matches(flow)
        assert parse_filter("dst port 81 or proto tcp").matches(flow)
        assert not parse_filter("not proto tcp").matches(flow)
        assert parse_filter(
            "not (dst port 81 and proto udp)"
        ).matches(flow)

    def test_precedence_and_binds_tighter_than_or(self):
        # a or b and c == a or (b and c)
        flow = make_flow(dport=80, proto=Protocol.UDP)
        node = parse_filter("dst port 80 or dst port 81 and proto tcp")
        assert node.matches(flow)
        assert isinstance(node, Or)

    def test_ast_nodes_direct(self):
        flow = make_flow()
        assert MatchAny().matches(flow)
        assert Not(MatchAny()).matches(flow) is False
        both = And((MatchAny(), MatchAny()))
        assert both.matches(flow)
