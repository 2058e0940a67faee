"""The benchmark's tracer replaces functions by name; a rename that would
break `perfbench/run.py --trace 1` must fail here first."""

import runpy
import signal
from pathlib import Path

import pytest

import nielsenkit
import nielsenkit.io  # noqa: F401  (spans hooks io functions)
from nielsenkit.invariants import analyze_route
from nielsenkit.words import IDENTITY, Endomorphism, default_basis

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_hooked_name_resolves():
    targets = runpy.run_path(str(SPANS))["_targets"](nielsenkit)
    assert targets
    missing = [(layer, getattr(owner, "__name__", owner), attr)
               for layer, owner, attr in targets if attr not in owner.__dict__]
    assert missing == []


class LetterBudget(Exception):
    pass


def test_ray_growth_goes_through_apply(monkeypatch):
    """The benchmark abandons a route analysis once Endomorphism.apply has
    taken its letter budget; the identity route of a -> BaBA, b -> ab grows
    its rays without bound, so the budget must stop it."""
    original = Endomorphism.apply
    left = [300_000]

    def apply(endo, w):
        left[0] -= len(w)
        if left[0] < 0:
            raise LetterBudget
        return original(endo, w)

    def too_slow(signum, frame):
        raise TimeoutError("ray growth bypassed Endomorphism.apply")

    monkeypatch.setattr(Endomorphism, "apply", apply)
    b = default_basis(2)
    phi = Endomorphism(b, (b.parse("BaBA"), b.parse("ab")))
    # Without the budget the rays would grow until memory runs out; fail
    # after 3 s instead.  The budget stops the analysis well within 1 s.
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 3)
    try:
        with pytest.raises(LetterBudget):
            analyze_route(phi, IDENTITY, 6)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
