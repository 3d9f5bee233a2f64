"""API-surface snapshot: the public contract cannot drift silently.

``repro.__all__`` and ``repro.api.__all__`` are the semver surface
(ARCHITECTURE.md, "Public API contract"). Adding, renaming or removing
a name is allowed — but it must be *deliberate*: update the snapshot
below in the same change, and treat removals/renames as breaking.
"""

import ast
from pathlib import Path

import repro
import repro.api

REPRO_API_SURFACE = frozenset({
    "Registry",
    "detectors",
    "miners",
    "sources",
    "FlowSource",
    "SourceSpec",
    "DetectorSpec",
    "MiningSpec",
    "ExecutionSpec",
    "SinkSpec",
    "SessionSpec",
    "EXECUTION_MODES",
    "Session",
    "SessionBuilder",
    "RunResult",
    "session",
    "parse_hint",
    "load_spec",
})

REPRO_SURFACE = frozenset({
    "session",
    "Session",
    "SessionBuilder",
    "RunResult",
    "SourceSpec",
    "DetectorSpec",
    "MiningSpec",
    "ExecutionSpec",
    "SinkSpec",
    "SessionSpec",
    "Alarm",
    "MetadataItem",
    "Detector",
    "FlowRecord",
    "FlowFeature",
    "FlowTable",
    "FlowTrace",
    "ExtractionReport",
    "TriageResult",
    "AnomalyKind",
    "ReproError",
    "SpecError",
    "RegistryError",
    "__version__",
})


def test_repro_api_all_matches_snapshot():
    assert frozenset(repro.api.__all__) == REPRO_API_SURFACE


def test_repro_all_matches_snapshot():
    assert frozenset(repro.__all__) == REPRO_SURFACE


def test_every_exported_name_resolves():
    for name in repro.api.__all__:
        assert getattr(repro.api, name) is not None
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_execution_modes_are_dispatchable():
    # Every declared mode has a Session runner behind it.
    for mode in repro.api.EXECUTION_MODES:
        assert hasattr(repro.api.Session, f"_run_{mode}"), mode


# -- one flow collection ------------------------------------------------------

#: The only places that may ask "is this a FlowTable?": the coercion
#: itself and the trace constructor/extender that call it. Everything
#: else below ``repro.api`` takes a table, or coerces once with
#: ``FlowTable.from_records`` (ARCHITECTURE.md, "One flow collection").
FLOWTABLE_TYPE_TESTS = frozenset({
    ("flows/table.py", "FlowTable.from_records"),
    ("flows/trace.py", "FlowTrace.__init__"),
    ("flows/trace.py", "FlowTrace.extend"),
})


def _flowtable_type_tests():
    """``(module, function)`` of every ``isinstance(…, FlowTable)``
    under ``src/repro``."""
    root = Path(repro.__file__).parent
    sites = set()

    def visit(node, module, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call) \
                and getattr(node.func, "id", None) == "isinstance" \
                and len(node.args) == 2 \
                and "FlowTable" in {
                    getattr(name, "id", getattr(name, "attr", None))
                    for name in ast.walk(node.args[1])
                }:
            sites.add((module, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(root.rglob("*.py")):
        visit(ast.parse(path.read_text()),
              path.relative_to(root).as_posix(), ())
    return sites


def test_flowtable_dispatch_sites_are_pinned():
    # A new site means a function grew a second, per-record body
    # again: take a FlowTable, or coerce at the public entry instead.
    assert _flowtable_type_tests() == FLOWTABLE_TYPE_TESTS


def test_no_values_only_np_unique_under_src():
    # numpy >= 2.3 answers a values-only np.unique with a hash table:
    # on 17k uint32 feature values 2.8 ms against 0.07 ms for np.sort
    # (2-vCPU Xeon, numpy 2.4). With return_inverse= it took 1.9-2.3
    # ms on a uint16 port column of 17k distinct values, against
    # 0.7-0.8 ms for one radix argsort and a cumsum. repro.flows.
    # aggregate.distinct_values and factorise give the same arrays by
    # one sort each, so src/ calls np.unique nowhere.
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "unique" \
                    and getattr(node.func.value, "id", None) \
                    in {"np", "numpy"}:
                offenders.append(
                    f"{path.relative_to(root).as_posix()}:{node.lineno}"
                )
    assert not offenders, (
        f"np.unique at {offenders}: use "
        "repro.flows.aggregate.distinct_values for the values alone "
        "(one np.sort and an adjacent-difference mask; the hash-table "
        "np.unique of numpy >= 2.3 measured 40x slower on 17k uint32 "
        "values) or repro.flows.aggregate.factorise for values and "
        "per-row codes (one argsort and a cumsum over the run heads, "
        "radix-sorted on columns of 2 bytes or less)"
    )


#: The v5 codec and the trace files are table-in and table-out: record
#: input is coerced once, at the writer entries, and nothing else
#: there builds or asks for ``FlowRecord`` objects.
_CODEC_MODULES = ("flows/netflow_v5.py", "flows/flowio.py")
_CODEC_COERCIONS = {
    ("flows/netflow_v5.py", "encode_packet"),
    ("flows/flowio.py", "write_binary"),
}


def test_codecs_make_no_records():
    root = Path(repro.__file__).parent
    offenders, coercions = [], set()

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "from_records":
                coercions.add((module, function))
            elif name in {"FlowRecord", "to_records", "records"}:
                offenders.append(f"{module}:{node.lineno} {name}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for module in _CODEC_MODULES:
        visit(ast.parse((root / module).read_text()), module, None)
    assert not offenders
    assert coercions == _CODEC_COERCIONS
