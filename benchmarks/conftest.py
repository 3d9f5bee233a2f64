"""Shared benchmark plumbing.

Every benchmark regenerates one paper artefact (table, figure or in-text
statistic) and records a paper-vs-measured comparison via
:func:`record_result`: the rows land in ``benchmarks/results/<id>.txt``
so the comparison survives pytest's output capture, and in the
benchmark's ``extra_info`` so they travel with ``--benchmark-json``.

Run them from the repo root with ``python -m pytest benchmarks/bench_*.py``:
the files are named ``bench_*.py``, so pytest collects them only when
they are named explicitly.

Scale knobs (environment variables):

* ``REPRO_BENCH_SCALE`` — float multiplier on workload sizes (default 1.0);
* ``REPRO_GEANT_ALARMS`` — alarms in the GEANT campaign (default 40);
* ``REPRO_SWITCH_CASES`` — cases in the SWITCH campaign (default 31).
"""

from __future__ import annotations

import os
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale() -> float:
    """Global workload multiplier."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def record_result(
    benchmark,
    experiment_id: str,
    title: str,
    rows: list[tuple],
    header: tuple,
) -> None:
    """Persist a paper-vs-measured table for one experiment."""
    RESULTS_DIR.mkdir(exist_ok=True)
    widths = [len(str(cell)) for cell in header]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(str(cell)))

    def fmt(row: tuple) -> str:
        return "  ".join(
            str(cell).rjust(widths[i]) for i, cell in enumerate(row)
        )

    lines = [f"{experiment_id}: {title}", fmt(header),
             "  ".join("-" * w for w in widths)]
    lines.extend(fmt(row) for row in rows)
    text = "\n".join(lines) + "\n"
    (RESULTS_DIR / f"{experiment_id}.txt").write_text(text)
    print("\n" + text)
    if benchmark is not None:
        benchmark.extra_info["experiment"] = experiment_id
        benchmark.extra_info["rows"] = [
            tuple(str(c) for c in row) for row in rows
        ]
