"""The e2e tracer's entry points still exist where it looks for them.

``benchmarks/e2e/spans.py`` patches every row of ``ENTRY_POINTS`` by
``owner.__dict__[attribute]`` — the class's *own* dict, so a method
that a refactor moved to a base class (or renamed) is a ``KeyError``
in ``bench_e2e.py --trace 1`` while the untraced benchmark and every
other test stay green. This repeats the tracer's lookup in tier 1.
"""

import importlib
import importlib.util
from pathlib import Path

_SPANS = Path(__file__).resolve().parent.parent / "benchmarks/e2e/spans.py"


def test_every_entry_point_is_defined_on_its_owner():
    spec = importlib.util.spec_from_file_location("e2e_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert len(spans.ENTRY_POINTS) > 30
    missing = []
    for _, dotted, attribute in spans.ENTRY_POINTS:
        module_name, _, owner_name = dotted.rpartition(".")
        owner = getattr(importlib.import_module(module_name), owner_name)
        if attribute not in owner.__dict__:
            missing.append(f"{dotted}.{attribute}")
    assert not missing, (
        f"not defined on the class itself, so the e2e tracer "
        f"(--trace 1) cannot patch them: {missing}"
    )
