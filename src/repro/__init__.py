"""repro — anomaly extraction via frequent itemset mining.

A full reproduction of *"Automating Root-Cause Analysis of Network
Anomalies using Frequent Itemset Mining"* (Paredes-Oliva et al.,
SIGCOMM 2010) and the technique papers behind it, grown into a
columnar, streaming, archive-backed deployment system.

Public API
----------
The stable, supported surface is :mod:`repro.api` plus the core data
types re-exported here (``__all__`` is the contract — the API-surface
snapshot test fails when it drifts). A session is five orthogonal
specs — source, detector, mining, execution, sink — composed with a
fluent builder or loaded from TOML, and every execution mode (batch,
windowed stream, archive-resume) runs through the same
``Session.run()``::

    import repro

    result = (
        repro.session()
        .source("rpv5", path="trace.rpv5")
        .detect("netreflex", train_bins=8)
        .stream(triage=True)
        .archive("spool/")
        .run()
    )

    result = repro.Session.from_config("config.toml").run()

API stability
-------------
* :mod:`repro.api` names and the types in ``__all__`` below follow
  semantic versioning from ``__version__``.
* Subsystem modules (``repro.flows``, ``repro.detect``,
  ``repro.mining``, ``repro.extraction``, ``repro.stream``,
  ``repro.parallel``, ``repro.archive``, ``repro.system``,
  ``repro.synth``, ``repro.eval``) are importable and documented but
  are *implementation* surface; prefer the facade.
* The legacy entry points (``ExtractionSystem``, ``StreamEngine``,
  ``FlowBackend.from_archive``) remain supported
  compatibility shims — the facade composes them and the
  equivalence suite holds ``Session`` byte-identical to each — but new
  capabilities land as specs/registry entries, not as new entry
  points.

Subpackages
-----------
``repro.api``
    The declarative session facade: specs, registries, builder, TOML.
``repro.flows``
    NetFlow substrate: columnar tables, v5 codec, sampling, filters.
``repro.synth``
    Synthetic labelled traces: topology, background, anomaly presets.
``repro.detect``
    Histogram/KL and PCA/entropy detectors.
``repro.mining``
    Columnar Apriori; dual support; self-tuning envelope.
``repro.extraction``
    Candidates → mining → filtering → ranking → classification.
``repro.system``
    Alarm DB, flow backend, console, the Figure-1 pipeline.
``repro.stream`` / ``repro.parallel`` / ``repro.archive``
    Online windows, the tracer stubs, persistent mmap'd archive.
``repro.eval``
    Harness regenerating the paper's tables and figures.
"""

from repro.api import (
    DetectorSpec,
    ExecutionSpec,
    MiningSpec,
    RunResult,
    Session,
    SessionBuilder,
    SessionSpec,
    SinkSpec,
    SourceSpec,
    session,
)
from repro.detect.base import Alarm, Detector, MetadataItem
from repro.errors import RegistryError, ReproError, SpecError
from repro.extraction.extractor import ExtractionReport
from repro.flows.record import FlowFeature, FlowRecord
from repro.flows.table import FlowTable
from repro.flows.trace import FlowTrace
from repro.system.pipeline import TriageResult
from repro.taxonomy import AnomalyKind

__version__ = "0.3.0"

__all__ = [
    # facade
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
    # core data types
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
    # errors
    "ReproError",
    "SpecError",
    "RegistryError",
    # metadata
    "__version__",
]
