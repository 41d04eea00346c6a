import importlib
import runpy
from pathlib import Path

TRACE_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"


def test_every_trace_target_resolves():
    # a traced name that no longer exists is skipped by the tracer and its
    # layer silently drops out of `perfbench/run.py --trace 1` records
    targets = runpy.run_path(str(TRACE_CHILD))["TARGETS"]
    missing = [f"{m}.{a}" for m, a, _, _ in targets if not hasattr(importlib.import_module(m), a)]
    assert targets
    assert missing == []
