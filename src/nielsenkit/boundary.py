"""Points of the Gromov boundary of a free group: the attracting fixed words
at infinity of an injective endomorphism phi.

These are the rays phi(x) = x.u grown from fixed directions, and the program
builds two kinds of them:

* `MorphicRay`, seeded by a word e with phi(e) = e.u and generated lazily as
  e u phi(u) phi^2(u) ... with junction cancellations absorbed eagerly, so the
  emitted letters are already reduced;
* `invariants.ProjectedRay`, a graph ray [f^k(d)] read in the marking at its
  start vertex.

Both expose `prefix(m)`.  `attraction_check` reports a ray as attracting or
not fixed only on a finite certificate and as `inconclusive` otherwise; the
tool never upgrades a bounded observation into a claim silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .words import (
    Endomorphism,
    IDENTITY,
    Word,
    common_prefix,
    extend_reduced,
    subgroup_ball,
)


class DegenerateRay(ValueError):
    """Raised when a morphic seed does not generate a convergent infinite ray."""


class MorphicRay:
    """The ray prefix . e u phi(u) phi^2(u) ... for a seed e with phi(e) = e.u.

    The buffer holds reduced letters.  Appending the next block phi^k(u) may
    cancel into the tail of the buffer; a position is only exposed once the
    buffer has grown safely past it and two further blocks left it unchanged.
    Non-convergent seeds raise DegenerateRay instead of looping.
    """

    def __init__(self, seed: Word, endo: Endomorphism, pre: Word = IDENTITY,
                 _skip: int = 0):
        if seed.is_identity:
            raise DegenerateRay("empty seed")
        img = endo.apply(seed)
        if len(common_prefix(img, seed)) != len(seed):
            raise DegenerateRay("seed is not a prefix of its image")
        tail = Word(img.letters[len(seed):])
        if tail.is_identity:
            raise DegenerateRay("stationary seed: phi(e) = e is not a ray")
        self.seed = seed
        self.endo = endo
        self._block = tail  # next block to append is phi^k of this
        self._buf: list[int] = list(seed.letters)
        self._settled = 0
        self._appends = 0
        # Absorb cancellation between the stored prefix and the ray letters.
        p = list(pre.letters)
        skip = _skip
        while True:
            while len(self._buf) <= skip:
                self._append_block()
            if p and p[-1] == -self._buf[skip]:
                p.pop()
                skip += 1
            else:
                break
        self.pre = Word(tuple(p))
        self._skip = skip

    def _append_block(self) -> None:
        cap = 4096 + 64 * (len(self._buf) + 1)
        if self._appends > cap:
            raise DegenerateRay("ray generation stalled; seed does not converge")
        self._appends += 1
        kept = len(self._buf)
        extend_reduced(self._buf, self._block.letters)
        kept = min(kept, len(self._buf))
        self._settled = min(self._settled, kept)
        self._block = self.endo.apply(self._block)
        if self._block.is_identity:
            raise DegenerateRay("ray tail died; endomorphism is not injective")

    def _ensure(self, m: int) -> None:
        margin = 2 * max(4, self.endo.cancellation_bound())
        while True:
            while len(self._buf) < m + margin:
                self._append_block()
            snapshot = tuple(self._buf)
            self._append_block()
            self._append_block()
            agree = 0
            for x, y in zip(snapshot, self._buf):
                if x != y:
                    break
                agree += 1
            # Everything two further blocks left untouched is final.
            self._settled = max(self._settled, agree)
            if self._settled >= m:
                return

    def ray_letters(self, m: int) -> tuple[int, ...]:
        if self._settled < m + self._skip:
            self._ensure(m + self._skip)
        return tuple(self._buf[self._skip:self._skip + m])

    def prefix(self, m: int) -> Word:
        if m <= len(self.pre):
            return Word(self.pre.letters[:m])
        return Word(self.pre.letters + self.ray_letters(m - len(self.pre)))

    def structurally_equal(self, other: "MorphicRay") -> bool:
        return (self.endo == other.endo and self.seed == other.seed
                and self._skip == other._skip and self.pre == other.pre)

    def __repr__(self):
        return f"MorphicRay(pre={self.pre.letters}, seed={self.seed.letters})"


def left_multiply(u: Word, w: MorphicRay) -> MorphicRay:
    """The reduced ray u.w."""
    return MorphicRay(w.seed, w.endo, pre=u * w.pre, _skip=w._skip)


def rays_equal(w: MorphicRay, v: MorphicRay, cap: int) -> tuple[bool, bool]:
    """(equal, exact).  Structurally equal rays are equal, exactly; any other
    pair counts as equal when its first `cap` letters agree, never exactly."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if w.structurally_equal(v):
        return True, True
    return w.prefix(cap) == v.prefix(cap), False


# ---------------------------------------------------------------------------
# Attraction.


@dataclass
class AttractionVerdict:
    """Outcome of the bounded attraction test; `not-fixed` always carries a
    certificate, `attracting` certifies what the finite window can."""

    status: str  # attracting | not-fixed | inconclusive
    evidence: list[tuple[int, int]] = field(default_factory=list)
    reason: str = ""
    bound: int = 0


def attraction_check(w, phi: Endomorphism) -> AttractionVerdict:
    """Sample k(i) = |W ^ phi(W_i)| and classify the ray W against phi.

    not-fixed fires on the certificate |phi(W_i)| - k(i) > B, impossible for a
    fixed word; a MorphicRay of phi itself is fixed by construction.
    attracting requires k(i) - i to clear B after a burn-in of 4B + 8 letters
    and to gain at least 1 over every stretch of s = max generator image
    length steps of the 4s-letter window that follows.
    """
    if not phi.is_injective():
        raise ValueError("attraction is defined for injective endomorphisms only")
    bound = phi.cancellation_bound()
    s = max(1, phi.max_image_length())
    burn_in = 4 * bound + 8
    n = burn_in + 4 * s
    fixed = (isinstance(w, MorphicRay) and w.endo == phi
             and w.pre.is_identity and w._skip == 0)

    try:
        full = w.prefix(s * n + 1)
    except DegenerateRay:
        return AttractionVerdict("inconclusive", [], "ray generation failed", bound)
    evidence: list[tuple[int, int]] = []
    not_fixed_at: Optional[int] = None
    # Incremental image of growing prefixes, and its agreement k with W: the
    # letters that survive the cancellation keep their agreement.
    img_letters: list[int] = []
    ray = full.letters
    k = 0
    for i in range(1, n + 1):
        before = len(img_letters)
        cancelled = extend_reduced(img_letters, phi.letter_image(ray[i - 1]))
        k = min(k, before - cancelled)
        while k < len(img_letters) and k < len(ray) and img_letters[k] == ray[k]:
            k += 1
        evidence.append((i, k))
        if not fixed and len(img_letters) - k > bound:
            not_fixed_at = i

    if not_fixed_at is not None:
        return AttractionVerdict(
            "not-fixed", evidence,
            f"|phi(W_i)| - k(i) exceeds the cancellation bound at i={not_fixed_at}",
            bound)

    gaps = [k - i for i, k in evidence]
    grows = all(g > bound for g in gaps[burn_in:]) and all(
        gaps[j + s] >= gaps[j] + 1 for j in range(burn_in, n - s))
    if grows:
        return AttractionVerdict("attracting", evidence,
                                 "gap clears the cancellation bound and keeps growing",
                                 bound)
    return AttractionVerdict("inconclusive", evidence,
                             "window shows neither certified growth nor a certificate",
                             bound)


# ---------------------------------------------------------------------------
# Equivalence of rays modulo the fixed subgroup.


@dataclass(frozen=True)
class EquivalenceWitness:
    found: bool
    witness: Optional[Word]
    exact: bool  # False when equality was only checked to an agreement cap
    depth: int


def equivalent_under(w: MorphicRay, v: MorphicRay, fix_gens: Sequence[Word],
                     phi: Endomorphism, depth: int, cap: int = 256) -> EquivalenceWitness:
    """Search U in the <fix_gens> ball of radius `depth` with w = U.v."""
    for g in fix_gens:
        if phi.apply(g) != g:
            raise ValueError(f"certificate invalid: generator not fixed: {g.letters}")
    for u in subgroup_ball(fix_gens, depth):
        try:
            shifted = left_multiply(u, v)
        except DegenerateRay:
            continue
        equal, exact = rays_equal(w, shifted, cap)
        if equal:
            return EquivalenceWitness(True, u, exact, depth)
    return EquivalenceWitness(False, None, True, depth)
