"""Seeded random endomorphisms for the property surveys.

The seed defaults to DEFAULT_SEED, so survey runs are reproducible by default.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .invariants import DEPTH, AnalysisError, analyze_endomorphism
from .rtt import StructureViolation
from .words import Endomorphism, Word, default_basis

DEFAULT_SEED = 20240917


def random_reduced_word(rng: random.Random, rank: int, max_len: int) -> Word:
    n = rng.randint(1, max_len)
    letters: list[int] = []
    while len(letters) < n:
        x = rng.choice([s * i for i in range(1, rank + 1) for s in (1, -1)])
        if letters and letters[-1] == -x:
            continue
        letters.append(x)
    return Word(tuple(letters))


def random_injective_endos(rank: int, max_image_len: int,
                           seed: Optional[int] = None) -> Iterator[Endomorphism]:
    """Endless stream of injective endomorphisms with reduced random images."""
    rng = random.Random(DEFAULT_SEED if seed is None else seed)
    basis = default_basis(rank)
    while True:
        phi = Endomorphism(
            basis,
            tuple(random_reduced_word(rng, rank, max_image_len)
                  for _ in range(rank)))
        if phi.is_injective():
            yield phi


@dataclass
class SurveyStats:
    """Aggregate of a property survey over random injective endomorphisms."""

    requested: int = 0
    analyzed: int = 0
    skipped_unclassified: int = 0
    violations: list[str] = field(default_factory=list)
    verified_classes: int = 0      # analyze checked ind == 1 - rk - a on each

    @property
    def skip_rate(self) -> float:
        return self.skipped_unclassified / max(1, self.requested)

    @property
    def ok(self) -> bool:
        return not self.violations and self.skip_rate < 0.5


def run_survey(count: int, rank: int = 2, max_image_len: int = 4,
               seed: Optional[int] = None, depth: int = DEPTH) -> SurveyStats:
    """Analyze `count` random injective endomorphisms; on every instance
    whose classification completes, each failed verdict is a violation.  A
    StructureViolation or a failed cross-check (AnalysisError) is a state the
    proofs exclude, so it is a violation that names the map, and the
    instance is neither analyzed nor skipped."""
    stats = SurveyStats(requested=count)
    gen = random_injective_endos(rank, max_image_len, seed)
    for _ in range(count):
        phi = next(gen)
        try:
            rep = analyze_endomorphism(phi, depth)
        except (AnalysisError, StructureViolation) as exc:
            fmt = phi.basis.format
            name = ", ".join(f"{g} -> {fmt(im)}"
                             for g, im in zip(phi.basis.letters, phi.images))
            stats.violations.append(f"structure error on {name}: {exc}")
            continue
        if not rep.literal_classification_complete:
            stats.skipped_unclassified += 1
            continue
        stats.analyzed += 1
        stats.violations.extend(f"{name}: {rep.verdict_details[name]}"
                                for name, v in rep.verdicts.items() if v == "fail")
        stats.verified_classes += sum(c.improved_char is not None for c in rep.classes)
    return stats
