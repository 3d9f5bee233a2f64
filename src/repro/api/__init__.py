"""repro.api — the declarative public API over every execution mode.

One surface replaces four divergent entry points: describe *where the
flows come from* (:class:`SourceSpec`), *which detector watches them*
(:class:`DetectorSpec`), *how triage mines* (:class:`MiningSpec`),
*how the run executes* (:class:`ExecutionSpec`) and *where results
land* (:class:`SinkSpec`), and :class:`Session` dispatches the right
engine — batch, windowed stream or archive-resume — from the spec
alone::

    from repro import api

    result = (
        api.session()
        .source("rpv5", path="trace.rpv5")
        .detect("netreflex", train_bins=8)
        .stream(triage=True)
        .archive("spool/")
        .run()
    )

    # or declaratively:
    result = api.Session.from_config("config.toml").run()

Detectors, mining engines and sources are looked up by name in
:mod:`repro.api.registry`; the built-ins register themselves below and
third-party plugins extend the system the same way. The legacy
constructors (``ExtractionSystem``, ``StreamEngine``,
``FlowBackend.from_archive``) remain the supported
compatibility layer underneath — the facade composes them,
so ``Session`` runs are byte-identical to the legacy paths.
"""

from repro.api.registry import Registry, detectors, miners, sources
from repro.api.session import (
    RunResult,
    Session,
    SessionBuilder,
    load_spec,
    parse_hint,
    session,
)
from repro.api.specs import (
    EXECUTION_MODES,
    DetectorSpec,
    ExecutionSpec,
    MiningSpec,
    SessionSpec,
    SinkSpec,
    SourceSpec,
)
from repro.api.flowsources import FlowSource

# Bootstrap: import the subsystems that self-register their built-in
# detectors, mining engines and sources. Plain imports only — each
# module's registration runs at its import; nothing is referenced here.
import repro.detect  # noqa: F401,E402  (registers netreflex/pca/kl)
import repro.mining  # noqa: F401,E402  (adopts+registers the engines)
import repro.synth.presets  # noqa: F401,E402  (registers scenario)
import repro.stream.sources  # noqa: F401,E402  (registers tail)
import repro.archive.reader  # noqa: F401,E402  (registers archive)
import repro.collector  # noqa: F401,E402  (registers udp + metrics)

__all__ = [
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
]
