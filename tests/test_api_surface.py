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
#: itself, the trace constructor/extender that call it, and the sharded
#: miner (a table partitions; a ``TransactionSet`` cannot). Everything
#: else below ``repro.api`` takes a table, or coerces once with
#: ``FlowTable.from_records`` (ARCHITECTURE.md, "One flow collection").
FLOWTABLE_TYPE_TESTS = frozenset({
    ("flows/table.py", "FlowTable.from_records"),
    ("flows/trace.py", "FlowTrace.__init__"),
    ("flows/trace.py", "FlowTrace.extend"),
    ("parallel/mining.py", "ShardedApriori.mine"),
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
