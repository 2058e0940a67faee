"""The benchmark's tracer replaces functions by name; a rename that would
break `perfbench/run.py --trace 1` must fail here first."""

import runpy
from pathlib import Path

import nielsenkit
import nielsenkit.io  # noqa: F401  (spans hooks io functions)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_hooked_name_resolves():
    targets = runpy.run_path(str(SPANS))["_targets"](nielsenkit)
    assert targets
    missing = [(layer, getattr(owner, "__name__", owner), attr)
               for layer, owner, attr in targets if attr not in owner.__dict__]
    assert missing == []
