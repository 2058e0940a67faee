"""The benchmark's tracer replaces functions by name; a rename that would
break `perfbench/run.py --trace 1` must fail here first."""

import runpy
from pathlib import Path

import pytest

from conftest import LetterBudget, apply_budget
import nielsenkit
import nielsenkit.io  # noqa: F401  (spans hooks io functions)
from nielsenkit.boundary import MorphicRay
from nielsenkit.words import Endomorphism, default_basis

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_hooked_name_resolves():
    targets = runpy.run_path(str(SPANS))["_targets"](nielsenkit)
    assert targets
    missing = [(layer, getattr(owner, "__name__", owner), attr)
               for layer, owner, attr in targets if attr not in owner.__dict__]
    assert missing == []


def test_ray_growth_goes_through_apply(monkeypatch):
    """The benchmark abandons an instance once Endomorphism.apply has taken
    its letter budget, so ray growth must go through apply: a small budget
    stops a convergent ray asked for many letters."""
    apply_budget(monkeypatch, 5_000)
    b = default_basis(2)
    phi = Endomorphism(b, (b.parse("A"), b.parse("Abb")))
    with pytest.raises(LetterBudget):
        MorphicRay(b.parse("B"), phi).prefix(100_000)
