"""Seeded random endomorphisms for the property surveys.

The seed comes from the NIELSENKIT_SEED environment variable when not given
explicitly, so survey runs are reproducible by default.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .invariants import AnalysisConfig, analyze_endomorphism
from .rtt import StructureViolation
from .words import Endomorphism, Word, default_basis

DEFAULT_SEED = 20240917


def seed_from_env(explicit: Optional[int] = None) -> int:
    if explicit is not None:
        return explicit
    return int(os.environ.get("NIELSENKIT_SEED", DEFAULT_SEED))


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
    rng = random.Random(seed_from_env(seed))
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
    conjecture_equal: int = 0      # classes with ind == 1 - rk - a
    conjecture_checked: int = 0

    @property
    def skip_rate(self) -> float:
        return self.skipped_unclassified / max(1, self.requested)

    @property
    def ok(self) -> bool:
        return not self.violations and self.skip_rate < 0.5


def run_survey(count: int, rank: int = 2, max_image_len: int = 4,
               seed: Optional[int] = None,
               config: Optional[AnalysisConfig] = None) -> SurveyStats:
    """Analyze `count` random injective endomorphisms; on every instance
    whose classification completes, each failed verdict is a violation."""
    stats = SurveyStats(requested=count)
    gen = random_injective_endos(rank, max_image_len, seed)
    for _ in range(count):
        phi = next(gen)
        try:
            rep = analyze_endomorphism(phi, config)
        except StructureViolation:
            stats.skipped_unclassified += 1
            continue
        if not rep.literal_classification_complete:
            stats.skipped_unclassified += 1
            continue
        stats.analyzed += 1
        stats.violations.extend(f"{name}: {rep.verdict_details[name]}"
                                for name, v in rep.verdicts.items() if v == "fail")
        for c in rep.classes:
            if c.improved_char is not None:
                stats.conjecture_checked += 1
                if c.index == c.improved_char:
                    stats.conjecture_equal += 1
    return stats
