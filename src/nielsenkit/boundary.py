"""Points of the Gromov boundary of a free group: the attracting fixed words
at infinity of an injective endomorphism phi.

These are the rays phi(x) = x.u grown from fixed directions, and the program
builds two kinds of them:

* `MorphicRay`, seeded by a word e with phi(e) = e.u: the limit of the
  iterates [phi^k(e)] = [e u phi(u) ... phi^(k-1)(u)], grown one block at a
  time and only as far as the letters asked for.  A letter is returned only
  once bounded cancellation proves that no later block can change it; a seed
  whose iterates stop yielding such proofs raises DegenerateRay;
* `invariants.ProjectedRay`, a graph ray [f^k(d)] read in the marking at its
  start vertex.

Both expose `prefix(m)`.  `attraction_check` reports a ray as attracting or
not fixed only on a finite certificate and as `inconclusive` otherwise; the
tool never upgrades a bounded observation into a claim silently.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Raised when a morphic seed does not generate a ray this module can
    certify: phi(e) is not e.u with u nonempty, phi is not injective, or
    STALL_BLOCKS consecutive blocks certified no further letter."""


# Blocks in a row that may pass without certifying a letter before a ray is
# given up.  On 2640 seeded rank-2 route analyses (images of length <= 4),
# the block that certified again came within 6 in all but 9 of ~16000 cases
# and never later than the 9th; route reports came out the same with 8 and 10.
# A block can be as long as the whole buffer, so the limit also bounds the
# work spent on seeds that never settle.
STALL_BLOCKS = 8


class MorphicRay:
    """The ray pre . e u phi(u) phi^2(u) ... for a seed e with phi(e) = e.u.

    The buffer holds P_k = [phi^k(e)].  Appending the block phi^k(u) turns it
    into P_{k+1}; its first `kept` letters survive, so X = P_{k+1}[:kept] is
    a prefix of both.  Letters are returned only once certified, and X is
    certified when |[phi(X)]| >= |X| + B, B = phi.cancellation_bound().

    Proof that such an X is a prefix of every P_j, j >= k, and so of the
    ray.  Suppose X is a prefix of P_j and P_{j+1}, as it is for j = k, and
    write P_j = X.Y, P_{j+1} = X.Z, both reduced.  By bounded cancellation
    (Cooper 1987) S, [phi(X)] without its last B letters, is a prefix of
    [phi(X.Y)] = P_{j+1} and of [phi(X.Z)] = P_{j+2}.  X and S are both
    prefixes of P_{j+1} and |S| >= |X|, so X is a prefix of S and hence of
    P_{j+2}.  The condition does not depend on j, so induction on j proves
    the claim.

    Blocks are computed only when appended, and only until the letters asked
    for are certified.  The rule is sufficient, not necessary: a ray that
    grows by fewer than B letters a step (a -> ab, b -> b) never certifies.
    Such rays, and seeds whose iterates never settle, raise DegenerateRay
    once STALL_BLOCKS blocks in a row certified nothing.
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
        try:
            self._bound = endo.cancellation_bound()
        except ValueError:
            raise DegenerateRay("ray growth needs an injective endomorphism") from None
        self.seed = seed
        self.endo = endo
        self._tail = tail
        self._block: Optional[Word] = None  # phi^k(u), the block appended last
        self._buf: list[int] = list(seed.letters)
        self._certified = 0
        self._stalled = 0
        # Absorb cancellation between the stored prefix and certified letters.
        p = list(pre.letters)
        skip = _skip
        while p:
            self._ensure(skip + 1)
            if p[-1] != -self._buf[skip]:
                break
            p.pop()
            skip += 1
        self.pre = Word(tuple(p))
        self._skip = skip

    def _append_block(self) -> None:
        self._block = self._tail if self._block is None else self.endo.apply(self._block)
        kept = len(self._buf) - extend_reduced(self._buf, self._block.letters)
        # Every prefix X of the kept letters is a prefix of P_k and P_{k+1};
        # certify the longest with |[phi(X)]| >= |X| + B.
        table = self.endo.image_table
        img: list[int] = []
        best = self._certified
        for i in range(kept):
            extend_reduced(img, table[self._buf[i]])
            if len(img) > i + self._bound:
                best = i + 1
        if best > self._certified:
            self._certified = best
            self._stalled = 0
        else:
            self._stalled += 1

    def _ensure(self, m: int) -> None:
        while self._certified < m:
            if self._stalled >= STALL_BLOCKS:
                raise DegenerateRay(
                    f"no letter certified in {STALL_BLOCKS} blocks; seed does not converge")
            self._append_block()

    def ray_letters(self, m: int) -> tuple[int, ...]:
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


def rays_equal(w: MorphicRay, v: MorphicRay, cap: int) -> bool:
    """Structurally equal rays are equal; any other pair counts as equal when
    its first `cap` letters agree."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    return w.structurally_equal(v) or w.prefix(cap) == v.prefix(cap)


# ---------------------------------------------------------------------------
# Attraction.


@dataclass
class AttractionVerdict:
    """Outcome of the bounded attraction test; `not-fixed` always carries a
    certificate, `attracting` certifies what the finite window can."""

    status: str  # attracting | not-fixed | inconclusive
    reason: str


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
        ray = w.prefix(s * n + 1).letters
    except DegenerateRay:
        return AttractionVerdict("inconclusive", "ray generation failed")
    # Incremental image of growing prefixes, and its agreement k with W: the
    # letters that survive the cancellation keep their agreement.
    img_letters: list[int] = []
    gaps: list[int] = []  # k(i) - i over the window after the burn-in
    k = 0
    for i in range(1, n + 1):
        before = len(img_letters)
        cancelled = extend_reduced(img_letters, phi.letter_image(ray[i - 1]))
        k = min(k, before - cancelled)
        while k < len(img_letters) and k < len(ray) and img_letters[k] == ray[k]:
            k += 1
        if not fixed and len(img_letters) - k > bound:
            return AttractionVerdict(
                "not-fixed",
                f"|phi(W_i)| - k(i) exceeds the cancellation bound at i={i}")
        if i > burn_in:
            gaps.append(k - i)

    if all(g > bound for g in gaps) and all(
            gaps[j + s] >= gaps[j] + 1 for j in range(len(gaps) - s)):
        return AttractionVerdict("attracting",
                                 "gap clears the cancellation bound and keeps growing")
    return AttractionVerdict("inconclusive",
                             "window shows neither certified growth nor a certificate")


# ---------------------------------------------------------------------------
# Equivalence of rays modulo the fixed subgroup.


@dataclass(frozen=True)
class EquivalenceWitness:
    found: bool
    witness: Optional[Word]


def equivalent_under(w: MorphicRay, v: MorphicRay, fix_gens: Sequence[Word],
                     phi: Endomorphism, depth: int, cap: int = 256) -> EquivalenceWitness:
    """Search U in the <fix_gens> ball of radius `depth` with w = U.v."""
    for g in fix_gens:
        if phi.apply(g) != g:
            raise ValueError(f"certificate invalid: generator not fixed: {g.letters}")
    for u in subgroup_ball(fix_gens, depth):
        try:
            if rays_equal(w, left_multiply(u, v), cap):
                return EquivalenceWitness(True, u)
        except DegenerateRay:  # a ray that cannot be certified to cap letters
            continue
    return EquivalenceWitness(False, None)
