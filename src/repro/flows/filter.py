"""An nfdump-style flow-filter language.

The demo's backend is NfDump; operators (and the extraction engine's
candidate pre-filter) select flows with expressions like::

    src ip 10.1.2.3 and dst port 80
    (dst net 10.128.0.0/9 or proto udp) and packets > 100
    dst ip 10.0.0.1 and port in [80 443 8080]
    flags S and not flags A

Grammar (recursive descent, case-insensitive keywords)::

    expr      := or_expr
    or_expr   := and_expr ( 'or' and_expr )*
    and_expr  := unary ( 'and' unary )*
    unary     := 'not' unary | '(' expr ')' | primitive
    primitive := [dir] 'ip'   ( VALUE | 'in' list )
               | [dir] 'net'  CIDR
               | [dir] 'port' ( [cmp] NUM | 'in' list )
               | 'proto'    ( NAME | NUM )
               | 'packets'  cmp NUM
               | 'bytes'    cmp NUM
               | 'duration' cmp NUM
               | 'flags'    FLAGS
               | 'router'   NUM
               | 'any'
    dir  := 'src' | 'dst'                 (absent = match either side)
    cmp  := '=' | '==' | '!=' | '<' | '<=' | '>' | '>='
    list := '[' VALUE+ ']'

Filters compile to vectorized boolean masks over a
:class:`~repro.flows.table.FlowTable` via :func:`compile_mask`; every
AST node also answers ``matches(flow)`` about one record, the
reference the property tests check the masks against flow-by-flow. The
AST *unparses* back to canonical text, which the tests use to verify a
parse → unparse → parse fixpoint.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import FilterSyntaxError
from repro.flows.addresses import Prefix, int_to_ip, ip_to_int
from repro.flows.record import FlowRecord, Protocol, TcpFlags
from repro.flows.table import FlowTable

__all__ = [
    "Direction",
    "FilterNode",
    "And",
    "Or",
    "Not",
    "MatchAny",
    "IpMatch",
    "NetMatch",
    "PortMatch",
    "ProtoMatch",
    "CounterMatch",
    "FlagsMatch",
    "RouterMatch",
    "parse_filter",
    "compile_mask",
    "filter_table",
]


class Direction(enum.Enum):
    """Which side of the flow a primitive constrains."""

    SRC = "src"
    DST = "dst"
    EITHER = ""

    def prefix(self) -> str:
        """Keyword prefix used when unparsing (``"src "`` or ``""``)."""
        return f"{self.value} " if self.value else ""


_COMPARATORS: dict[str, Callable[[float, float], bool]] = {
    "=": lambda a, b: a == b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

#: The same comparison table as numpy ufuncs (arrays broadcast).
_VECTOR_COMPARATORS: dict[str, Callable[..., np.ndarray]] = {
    "=": np.equal,
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def _member_mask(column: np.ndarray, wanted: frozenset[int]) -> np.ndarray:
    """Rows of ``column`` whose value is in ``wanted``; a one-member
    set (``dst port 53``) is an equality, not a set probe."""
    if len(wanted) == 1:
        return column == next(iter(wanted))
    return np.isin(
        column, np.fromiter(wanted, dtype=column.dtype, count=len(wanted))
    )


class FilterNode:
    """Base class of filter AST nodes."""

    def matches(self, flow: FlowRecord) -> bool:
        """Evaluate the node against one flow."""
        raise NotImplementedError

    def mask(self, table: FlowTable) -> np.ndarray:
        """Evaluate the node against every row of ``table`` at once.

        Returns a boolean array of ``len(table)``; row ``i`` is True
        exactly when ``matches(table.record(i))`` would be.
        """
        raise NotImplementedError

    def unparse(self) -> str:
        """Render the node back to canonical filter text."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.unparse()


@dataclass(frozen=True)
class And(FilterNode):
    """Conjunction of two or more sub-filters."""

    children: tuple[FilterNode, ...]

    def matches(self, flow: FlowRecord) -> bool:
        return all(child.matches(flow) for child in self.children)

    def mask(self, table: FlowTable) -> np.ndarray:
        result = self.children[0].mask(table)
        for child in self.children[1:]:
            result = result & child.mask(table)
        return result

    def unparse(self) -> str:
        return " and ".join(_parenthesize(c, And) for c in self.children)


@dataclass(frozen=True)
class Or(FilterNode):
    """Disjunction of two or more sub-filters."""

    children: tuple[FilterNode, ...]

    def matches(self, flow: FlowRecord) -> bool:
        return any(child.matches(flow) for child in self.children)

    def mask(self, table: FlowTable) -> np.ndarray:
        result = self.children[0].mask(table)
        for child in self.children[1:]:
            result = result | child.mask(table)
        return result

    def unparse(self) -> str:
        return " or ".join(_parenthesize(c, Or) for c in self.children)


@dataclass(frozen=True)
class Not(FilterNode):
    """Negation of a sub-filter."""

    child: FilterNode

    def matches(self, flow: FlowRecord) -> bool:
        return not self.child.matches(flow)

    def mask(self, table: FlowTable) -> np.ndarray:
        return ~self.child.mask(table)

    def unparse(self) -> str:
        return f"not {_parenthesize(self.child, Not)}"


@dataclass(frozen=True)
class MatchAny(FilterNode):
    """The ``any`` primitive: matches every flow."""

    def matches(self, flow: FlowRecord) -> bool:
        return True

    def mask(self, table: FlowTable) -> np.ndarray:
        return np.ones(len(table), dtype=bool)

    def unparse(self) -> str:
        return "any"


@dataclass(frozen=True)
class IpMatch(FilterNode):
    """``[src|dst] ip A`` or ``... ip in [A B C]``."""

    direction: Direction
    addresses: frozenset[int]

    def matches(self, flow: FlowRecord) -> bool:
        if self.direction is Direction.SRC:
            return flow.src_ip in self.addresses
        if self.direction is Direction.DST:
            return flow.dst_ip in self.addresses
        return flow.src_ip in self.addresses or flow.dst_ip in self.addresses

    def mask(self, table: FlowTable) -> np.ndarray:
        if self.direction is Direction.SRC:
            return _member_mask(table.src_ip, self.addresses)
        if self.direction is Direction.DST:
            return _member_mask(table.dst_ip, self.addresses)
        return _member_mask(table.src_ip, self.addresses) \
            | _member_mask(table.dst_ip, self.addresses)

    def unparse(self) -> str:
        rendered = sorted(int_to_ip(a) for a in self.addresses)
        if len(rendered) == 1:
            return f"{self.direction.prefix()}ip {rendered[0]}"
        return f"{self.direction.prefix()}ip in [{' '.join(rendered)}]"


@dataclass(frozen=True)
class NetMatch(FilterNode):
    """``[src|dst] net CIDR``."""

    direction: Direction
    prefix: Prefix

    def matches(self, flow: FlowRecord) -> bool:
        if self.direction is Direction.SRC:
            return flow.src_ip in self.prefix
        if self.direction is Direction.DST:
            return flow.dst_ip in self.prefix
        return flow.src_ip in self.prefix or flow.dst_ip in self.prefix

    def _side_mask(self, addresses: np.ndarray) -> np.ndarray:
        mask = np.uint32(self.prefix.mask)
        network = np.uint32(self.prefix.network)
        return (addresses & mask) == network

    def mask(self, table: FlowTable) -> np.ndarray:
        if self.direction is Direction.SRC:
            return self._side_mask(table.src_ip)
        if self.direction is Direction.DST:
            return self._side_mask(table.dst_ip)
        return self._side_mask(table.src_ip) | self._side_mask(table.dst_ip)

    def unparse(self) -> str:
        return f"{self.direction.prefix()}net {self.prefix}"


@dataclass(frozen=True)
class PortMatch(FilterNode):
    """``[src|dst] port [cmp] N`` or ``... port in [N...]``.

    ``comparator`` is ``None`` for set membership (including the
    single-value case, which behaves as equality).
    """

    direction: Direction
    ports: frozenset[int]
    comparator: str | None = None

    def _side_matches(self, port: int) -> bool:
        if self.comparator is None:
            return port in self.ports
        (bound,) = self.ports
        return _COMPARATORS[self.comparator](port, bound)

    def matches(self, flow: FlowRecord) -> bool:
        if self.direction is Direction.SRC:
            return self._side_matches(flow.src_port)
        if self.direction is Direction.DST:
            return self._side_matches(flow.dst_port)
        return self._side_matches(flow.src_port) or \
            self._side_matches(flow.dst_port)

    def _side_mask(self, ports: np.ndarray) -> np.ndarray:
        if self.comparator is None:
            return _member_mask(ports, self.ports)
        (bound,) = self.ports
        return _VECTOR_COMPARATORS[self.comparator](ports, bound)

    def mask(self, table: FlowTable) -> np.ndarray:
        if self.direction is Direction.SRC:
            return self._side_mask(table.src_port)
        if self.direction is Direction.DST:
            return self._side_mask(table.dst_port)
        return self._side_mask(table.src_port) | \
            self._side_mask(table.dst_port)

    def unparse(self) -> str:
        if self.comparator is not None:
            (bound,) = self.ports
            op = "" if self.comparator in ("=", "==") else f"{self.comparator} "
            return f"{self.direction.prefix()}port {op}{bound}"
        rendered = sorted(self.ports)
        if len(rendered) == 1:
            return f"{self.direction.prefix()}port {rendered[0]}"
        joined = " ".join(str(p) for p in rendered)
        return f"{self.direction.prefix()}port in [{joined}]"


@dataclass(frozen=True)
class ProtoMatch(FilterNode):
    """``proto tcp`` / ``proto 17``."""

    proto: int

    def matches(self, flow: FlowRecord) -> bool:
        return flow.proto == self.proto

    def mask(self, table: FlowTable) -> np.ndarray:
        return table.proto == self.proto

    def unparse(self) -> str:
        try:
            name = Protocol(self.proto).name.lower()
        except ValueError:
            name = str(self.proto)
        return f"proto {name}"


@dataclass(frozen=True)
class CounterMatch(FilterNode):
    """``packets|bytes|duration cmp N``."""

    field: str  # "packets" | "bytes" | "duration"
    comparator: str
    value: float

    def matches(self, flow: FlowRecord) -> bool:
        actual: float
        if self.field == "packets":
            actual = flow.packets
        elif self.field == "bytes":
            actual = flow.bytes
        else:
            actual = flow.duration
        return _COMPARATORS[self.comparator](actual, self.value)

    def mask(self, table: FlowTable) -> np.ndarray:
        if self.field == "packets":
            column = table.packets
        elif self.field == "bytes":
            column = table.bytes
        else:
            column = table.duration
        return _VECTOR_COMPARATORS[self.comparator](column, self.value)

    def unparse(self) -> str:
        value = self.value
        rendered = str(int(value)) if float(value).is_integer() else str(value)
        return f"{self.field} {self.comparator} {rendered}"


@dataclass(frozen=True)
class FlagsMatch(FilterNode):
    """``flags SA``: all listed TCP flags must be set."""

    flags: int

    def matches(self, flow: FlowRecord) -> bool:
        return (flow.tcp_flags & self.flags) == self.flags

    def mask(self, table: FlowTable) -> np.ndarray:
        flags = np.uint16(self.flags)
        return (table.tcp_flags & flags) == flags

    def unparse(self) -> str:
        letters = ""
        for bit, char in ((TcpFlags.URG, "U"), (TcpFlags.ACK, "A"),
                          (TcpFlags.PSH, "P"), (TcpFlags.RST, "R"),
                          (TcpFlags.SYN, "S"), (TcpFlags.FIN, "F")):
            if self.flags & bit:
                letters += char
        return f"flags {letters}"


@dataclass(frozen=True)
class RouterMatch(FilterNode):
    """``router N``: flows exported by PoP ``N``."""

    router: int

    def matches(self, flow: FlowRecord) -> bool:
        return flow.router == self.router

    def mask(self, table: FlowTable) -> np.ndarray:
        return table.router == self.router

    def unparse(self) -> str:
        return f"router {self.router}"


def _parenthesize(node: FilterNode, parent: type) -> str:
    """Wrap ``node`` in parentheses when needed for re-parse fidelity."""
    needs = isinstance(node, (And, Or)) and not isinstance(node, parent)
    if parent is Not and isinstance(node, (And, Or)):
        needs = True
    text = node.unparse()
    return f"({text})" if needs else text


# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lparen>\()|(?P<rparen>\))|(?P<lbracket>\[)|"
    r"(?P<rbracket>\])|(?P<cmp><=|>=|!=|==|<|>|=)|"
    r"(?P<word>[A-Za-z0-9_.:/]+))"
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int


def _tokenize(expression: str) -> list[_Token]:
    tokens = []
    position = 0
    while position < len(expression):
        match = _TOKEN_RE.match(expression, position)
        if match is None or match.lastgroup is None:
            remainder = expression[position:].strip()
            if not remainder:
                break
            raise FilterSyntaxError(
                f"unexpected character {remainder[0]!r}", position
            )
        if match.group().strip():
            tokens.append(
                _Token(match.lastgroup, match.group().strip(), match.start())
            )
        position = match.end()
    return tokens


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

_IP_RE = re.compile(r"^\d{1,3}(\.\d{1,3}){3}$")
_CIDR_RE = re.compile(r"^\d{1,3}(\.\d{1,3}){3}/\d{1,2}$")


class _Parser:
    def __init__(self, expression: str) -> None:
        self.expression = expression
        self.tokens = _tokenize(expression)
        self.index = 0

    # -- token helpers ---------------------------------------------------

    def _peek(self) -> _Token | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise FilterSyntaxError(
                "unexpected end of filter expression", len(self.expression)
            )
        self.index += 1
        return token

    def _accept_word(self, *words: str) -> _Token | None:
        token = self._peek()
        if token is not None and token.kind == "word" and \
                token.text.lower() in words:
            self.index += 1
            return token
        return None

    def _accept_kind(self, kind: str) -> _Token | None:
        token = self._peek()
        if token is not None and token.kind == kind:
            self.index += 1
            return token
        return None

    # -- grammar ---------------------------------------------------------

    def parse(self) -> FilterNode:
        node = self._or_expr()
        trailing = self._peek()
        if trailing is not None:
            raise FilterSyntaxError(
                f"trailing input {trailing.text!r}", trailing.position
            )
        return node

    def _or_expr(self) -> FilterNode:
        children = [self._and_expr()]
        while self._accept_word("or"):
            children.append(self._and_expr())
        if len(children) == 1:
            return children[0]
        return Or(tuple(children))

    def _and_expr(self) -> FilterNode:
        children = [self._unary()]
        while self._accept_word("and"):
            children.append(self._unary())
        if len(children) == 1:
            return children[0]
        return And(tuple(children))

    def _unary(self) -> FilterNode:
        if self._accept_word("not"):
            return Not(self._unary())
        if self._accept_kind("lparen"):
            node = self._or_expr()
            token = self._peek()
            if self._accept_kind("rparen") is None:
                where = token.position if token else len(self.expression)
                raise FilterSyntaxError("missing closing parenthesis", where)
            return node
        return self._primitive()

    def _primitive(self) -> FilterNode:
        if self._accept_word("any"):
            return MatchAny()

        direction = Direction.EITHER
        dir_token = self._accept_word("src", "dst")
        if dir_token is not None:
            direction = Direction(dir_token.text.lower())

        keyword = self._next()
        if keyword.kind != "word":
            raise FilterSyntaxError(
                f"expected a field keyword, got {keyword.text!r}",
                keyword.position,
            )
        field = keyword.text.lower()

        if field == "ip":
            return self._ip_primitive(direction)
        if field == "net":
            return self._net_primitive(direction)
        if field == "port":
            return self._port_primitive(direction)

        if direction is not Direction.EITHER:
            raise FilterSyntaxError(
                f"{field!r} does not accept a src/dst qualifier",
                keyword.position,
            )
        if field == "proto":
            return self._proto_primitive()
        if field in ("packets", "bytes", "duration"):
            return self._counter_primitive(field)
        if field == "flags":
            return self._flags_primitive()
        if field == "router":
            return self._router_primitive()
        raise FilterSyntaxError(
            f"unknown filter keyword {field!r}", keyword.position
        )

    def _value_list(self) -> list[_Token]:
        values = []
        while True:
            token = self._peek()
            if token is None:
                raise FilterSyntaxError(
                    "unterminated list (missing ])", len(self.expression)
                )
            if self._accept_kind("rbracket"):
                break
            if token.kind != "word":
                raise FilterSyntaxError(
                    f"unexpected {token.text!r} inside list", token.position
                )
            values.append(self._next())
        if not values:
            raise FilterSyntaxError("empty list", len(self.expression))
        return values

    def _ip_primitive(self, direction: Direction) -> FilterNode:
        if self._accept_word("in"):
            self._expect_bracket()
            tokens = self._value_list()
            addresses = frozenset(self._parse_ip(t) for t in tokens)
            return IpMatch(direction, addresses)
        token = self._next()
        return IpMatch(direction, frozenset([self._parse_ip(token)]))

    def _expect_bracket(self) -> None:
        if self._accept_kind("lbracket") is None:
            token = self._peek()
            where = token.position if token else len(self.expression)
            raise FilterSyntaxError("expected [ after 'in'", where)

    @staticmethod
    def _parse_ip(token: _Token) -> int:
        if not _IP_RE.match(token.text):
            raise FilterSyntaxError(
                f"not an IPv4 address: {token.text!r}", token.position
            )
        try:
            return ip_to_int(token.text)
        except Exception as exc:  # octet out of range
            raise FilterSyntaxError(
                f"not an IPv4 address: {token.text!r}", token.position
            ) from exc

    def _net_primitive(self, direction: Direction) -> FilterNode:
        token = self._next()
        if not _CIDR_RE.match(token.text):
            raise FilterSyntaxError(
                f"not a CIDR prefix: {token.text!r}", token.position
            )
        return NetMatch(direction, Prefix.parse(token.text))

    def _port_primitive(self, direction: Direction) -> FilterNode:
        if self._accept_word("in"):
            self._expect_bracket()
            tokens = self._value_list()
            ports = frozenset(self._parse_port(t) for t in tokens)
            return PortMatch(direction, ports)
        cmp_token = self._accept_kind("cmp")
        value_token = self._next()
        port = self._parse_port(value_token)
        if cmp_token is None or cmp_token.text in ("=", "=="):
            return PortMatch(direction, frozenset([port]))
        return PortMatch(direction, frozenset([port]), cmp_token.text)

    @staticmethod
    def _parse_port(token: _Token) -> int:
        if not token.text.isdigit():
            raise FilterSyntaxError(
                f"not a port number: {token.text!r}", token.position
            )
        port = int(token.text)
        if port > 0xFFFF:
            raise FilterSyntaxError(
                f"port out of range: {port}", token.position
            )
        return port

    def _proto_primitive(self) -> FilterNode:
        token = self._next()
        if token.kind != "word":
            raise FilterSyntaxError(
                f"expected protocol, got {token.text!r}", token.position
            )
        if token.text.isdigit():
            number = int(token.text)
            if number > 0xFF:
                raise FilterSyntaxError(
                    f"protocol out of range: {number}", token.position
                )
            return ProtoMatch(number)
        try:
            return ProtoMatch(int(Protocol.parse(token.text)))
        except Exception as exc:
            raise FilterSyntaxError(
                f"unknown protocol {token.text!r}", token.position
            ) from exc

    def _counter_primitive(self, field: str) -> FilterNode:
        cmp_token = self._accept_kind("cmp")
        if cmp_token is None:
            token = self._peek()
            where = token.position if token else len(self.expression)
            raise FilterSyntaxError(
                f"{field} requires a comparison operator", where
            )
        value_token = self._next()
        try:
            value = float(value_token.text)
        except ValueError as exc:
            raise FilterSyntaxError(
                f"not a number: {value_token.text!r}", value_token.position
            ) from exc
        if value < 0:
            raise FilterSyntaxError(
                f"{field} comparison value must be non-negative",
                value_token.position,
            )
        comparator = "==" if cmp_token.text == "=" else cmp_token.text
        return CounterMatch(field, comparator, value)

    def _flags_primitive(self) -> FilterNode:
        token = self._next()
        try:
            flags = TcpFlags.parse(token.text)
        except Exception as exc:
            raise FilterSyntaxError(
                f"bad TCP flags {token.text!r}", token.position
            ) from exc
        return FlagsMatch(int(flags))

    def _router_primitive(self) -> FilterNode:
        token = self._next()
        if not token.text.isdigit():
            raise FilterSyntaxError(
                f"router requires a numeric id, got {token.text!r}",
                token.position,
            )
        return RouterMatch(int(token.text))


def parse_filter(expression: str) -> FilterNode:
    """Parse ``expression`` into a filter AST.

    Raises :class:`~repro.errors.FilterSyntaxError` with the offending
    character position on malformed input.
    """
    if not expression or not expression.strip():
        raise FilterSyntaxError("empty filter expression", 0)
    return _Parser(expression).parse()


def compile_mask(
    expression: str | FilterNode,
) -> Callable[[FlowTable], np.ndarray]:
    """Compile a filter (text or AST) into a vectorized mask function.

    The returned callable maps a :class:`FlowTable` to a boolean array
    selecting the matching rows.
    """
    node = expression if isinstance(expression, FilterNode) \
        else parse_filter(expression)
    return node.mask


def filter_table(
    table: FlowTable, expression: str | FilterNode
) -> FlowTable:
    """New table holding the rows of ``table`` matching ``expression``."""
    return table.select(compile_mask(expression)(table))
