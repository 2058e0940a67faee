"""Points of the Gromov boundary of a free group: the attracting fixed words
at infinity of an injective endomorphism phi.

These are the rays phi(x) = x.u grown from fixed directions, and the program
builds one kind of them, `MorphicRay`, seeded by a word e with phi(e) = e.u:
the limit of the iterates [phi^k(e)] = [e u phi(u) ... phi^(k-1)(u)], grown
one block at a time and only as far as the letters asked for.  A letter is
returned only once bounded cancellation proves that no later block can change
it; a seed whose iterates stop yielding such proofs raises DegenerateRay.
Route analysis seeds rays at single letters; a graph ray [f^k(d)] is seeded
at the marking word of one of its images (`invariants.attracting_rays`).

`attraction_check` reports a ray as attracting or not fixed only on a finite
certificate and as `inconclusive` otherwise; the tool never upgrades a
bounded observation into a claim silently.

Attracting rays are counted up to the fixed subgroup Fix phi: W ~ V when
W = U.V for some U in Fix phi.  `equivalent_under` searches U in the ball of
the generators found and compares W with U.V on their first EQUIVALENCE_CAP
letters, reading U.V off V's own buffer with `prefix(m, pre=U)`.  Agreement
to that cap is a bounded observation: two rays that agree so far count as
one class.
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
    certify: phi(e) is not e.u with u nonempty, phi is not injective,
    STALL_BLOCKS consecutive blocks certified no further letter, or a block
    outgrew the certified letters (see STALL_BLOCKS)."""


# Blocks in a row that may pass without certifying a letter before a ray is
# given up.  A ray is also given up once a finished block is longer than
# 2**STALL_BLOCKS * (c + B + 1) letters, c the certified count and B the
# fold count: a ray that certifies a letter every other block while its
# blocks keep doubling would otherwise grow until memory runs out (the ray
# of B under a -> ACA, b -> Cb, c -> AC).  On 2640 seeded rank-2 route
# analyses (images of length <= 4), the block that certified again after a
# stall came within 6 in all but 3 of ~2000 stalls and never later than the
# 8th; 256 rays stalled out and 28 outgrew their letters, and route reports
# came out the same with 8, 10 and 12.
STALL_BLOCKS = 8


class MorphicRay:
    """The ray e u phi(u) phi^2(u) ... for a seed e with phi(e) = e.u.

    Appending the block phi^k(u) to P_k = [phi^k(e)] gives P_{k+1}; its first
    `kept` letters survive, so X = P_{k+1}[:kept] is a prefix of both.
    Letters are returned only once certified, and X is certified when
    |[phi(X)]| >= |X| + B, B = phi.fold_count().

    Proof that such an X is a prefix of every P_j, j >= k, and so of the
    ray.  Suppose X is a prefix of P_j and P_{j+1}, as it is for j = k, and
    write P_j = X.Y, P_{j+1} = X.Z, both reduced.  By bounded cancellation
    (Cooper 1987) S, [phi(X)] without its last B letters, is a prefix of
    [phi(X.Y)] = P_{j+1} and of [phi(X.Z)] = P_{j+2}.  X and S are both
    prefixes of P_{j+1} and |S| >= |X|, so X is a prefix of S and hence of
    P_{j+2}.  The condition does not depend on j, so induction on j proves
    the claim.  In particular `kept` never falls below the certified count.

    The rule is sufficient, not necessary: a ray that grows by fewer than B
    letters a step (a -> ab, b -> b, c -> bcB, B = 3) never certifies.
    Such rays, and seeds whose iterates never settle, raise DegenerateRay
    once STALL_BLOCKS blocks in a row certified nothing.  So does a ray
    whose finished block is longer than 2**STALL_BLOCKS * (c + B + 1)
    letters, c the certified count: it certifies too slowly for its growth
    to be worth following.

    Growth is lazy in two ways, and neither changes what is computed.

    The last block is spelled only as far as its junction with the buffer.
    phi^k(u) = [phi(Q)] is built from chunks of Q = phi^(k-1)(u) passed to
    `Endomorphism.apply`.  For a prefix Q' of Q, Q'.Q'' is reduced, so
    [phi(Q')] without its last B letters is a prefix of [phi(Q)] by bounded
    cancellation; only those letters go to the buffer, which so holds
    [P_k . S] for a prefix S of the block.  A reduced block cancels against
    P_k only by a prefix of its own, so once one letter of S survives, no
    later block letter cancels: `kept` is then what appending the whole
    block gives, and the buffer is a prefix of P_{k+1}.  The rest of the
    block is spelled only when the next block is needed.

    Certification resumes instead of rescanning.  [phi(buf[:i])] is kept
    across blocks with one undo record per scanned letter, and rolled back
    to `kept` after each block; letters before `kept` are the same in P_k
    and P_{k+1}, so the images of their prefixes are too.  The scan stops
    as soon as the letters asked for are certified and resumes before the
    next block is appended, so each block's whole kept range is scanned
    before its stall count and its length check are decided.  `kept`, the
    certified count and the stall count after each block are hence those of
    appending each whole block and rescanning from the first letter, and so
    is every prefix and DegenerateRay.
    """

    def __init__(self, seed: Word, endo: Endomorphism):
        if seed.is_identity:
            raise DegenerateRay("empty seed")
        img = endo.apply(seed)
        if len(common_prefix(img, seed)) != len(seed):
            raise DegenerateRay("seed is not a prefix of its image")
        tail = Word(img.letters[len(seed):])
        if tail.is_identity:
            raise DegenerateRay("stationary seed: phi(e) = e is not a ray")
        try:
            self._bound = endo.fold_count()
        except ValueError:
            raise DegenerateRay("ray growth needs an injective endomorphism") from None
        self.seed = seed
        self.endo = endo
        self._tail = tail
        self._buf: list[int] = list(seed.letters)
        # The block phi^k(u) being appended, spelled as [phi(src[:pos])] from
        # src = phi^(k-1)(u) (None before the first block, which is u), the
        # number of its letters moved to the buffer, and `kept`, None until
        # the block has passed its junction with the buffer (0 before the
        # first block).
        self._src: Optional[tuple[int, ...]] = None
        self._pos = 0
        self._block: list[int] = []
        self._moved = 0
        self._kept: Optional[int] = 0
        # [phi(buf[:i])] for the i scanned letters, and (letter, cancelled)
        # for each of them to undo its step.
        self._img: list[int] = []
        self._undo: list[tuple[int, int]] = []
        self._certified = 0
        self._open: Optional[int] = None  # certified count when the block began
        self._stalled = 0

    def _spell(self, upto: int) -> None:
        """Spell the block from src[:upto] and move what it settles to the
        buffer, fixing `kept` once a block letter survives the junction."""
        if upto > self._pos:
            chunk = self.endo.apply(Word(self._src[self._pos:upto]))
            extend_reduced(self._block, chunk.letters)
            self._pos = upto
        done = upto == len(self._src)
        end = len(self._block) if done else len(self._block) - self._bound
        if end > self._moved:
            new = self._block[self._moved:end]
            self._moved = end
            if self._kept is None:
                survived = len(new) - extend_reduced(self._buf, new)
                if survived:
                    self._kept = len(self._buf) - survived
            else:
                self._buf.extend(new)
        if done and self._kept is None:
            self._kept = len(self._buf)

    def _append_block(self) -> None:
        if self._src is None:
            self._src, self._block = (), list(self._tail.letters)
        else:
            self._src, self._block = tuple(self._block), []
        self._pos = self._moved = 0
        self._kept = None
        step = self._bound + 1
        while self._kept is None:
            self._spell(min(len(self._src), self._pos + step))
            step *= 2
        table, img, undo = self.endo.image_table, self._img, self._undo
        while len(undo) > self._kept:
            x, cancelled = undo.pop()
            im = table[x]
            del img[len(img) - len(im) + cancelled:]
            img.extend(-y for y in reversed(im[:cancelled]))
        self._open = self._certified

    def _scan(self, m: int) -> None:
        """Scan the kept letters until m of them are certified."""
        buf, img, undo, table = self._buf, self._img, self._undo, self.endo.image_table
        bound, i = self._bound, len(undo)
        while i < self._kept:
            x = buf[i]
            undo.append((x, extend_reduced(img, table[x])))
            i += 1
            if len(img) >= i + bound:
                self._certified = i
                if i >= m:
                    return

    def _ensure(self, m: int) -> None:
        while self._certified < m:
            if len(self._undo) < self._kept:
                self._scan(m)
                continue
            if self._open is not None:   # the block's kept range is scanned
                self._stalled = 0 if self._certified > self._open else self._stalled + 1
                self._open = None
            if self._stalled >= STALL_BLOCKS:
                raise DegenerateRay(
                    f"no letter certified in {STALL_BLOCKS} blocks; seed does not converge")
            if self._src is not None:
                self._spell(len(self._src))   # finish the block: buf = P_{k+1}
                if len(self._block) > (self._certified + self._bound + 1) << STALL_BLOCKS:
                    raise DegenerateRay("a block outgrew the certified letters; "
                                        "the ray settles too slowly")
            self._append_block()

    def prefix(self, m: int, pre: Word = IDENTITY) -> Word:
        """The first m letters of the reduced ray pre.W, read off this ray's
        own buffer: the last letters of pre that cancel against certified
        letters of W are absorbed first."""
        p = list(pre.letters)
        skip = 0
        while p:
            self._ensure(skip + 1)
            if p[-1] != -self._buf[skip]:
                break
            p.pop()
            skip += 1
        if m <= len(p):
            return Word(tuple(p[:m]))
        end = skip + m - len(p)
        self._ensure(end)
        return Word(tuple(p) + tuple(self._buf[skip:end]))

    def __repr__(self):
        return f"MorphicRay(seed={self.seed.letters})"


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

    not-fixed fires on the certificate |phi(W_i)| - k(i) > B, B =
    phi.fold_count(), impossible for a fixed word; a MorphicRay of phi
    itself is fixed by construction.
    attracting requires k(i) - i to clear B after a burn-in of 4B + 8 letters
    and to gain at least 1 over every stretch of s = max generator image
    length steps of the 4s-letter window that follows.

    The window of n = 4B + 8 + 4s steps reads W up to index n and up to the
    agreement k(i) <= s.n.  W is asked for more letters, through `w.prefix`,
    only when i or k reaches the end of those held, doubling up to s.n + 1,
    so a slowly settling ray is grown no further than the verdict needs.
    The verdict is read off the same letters as if all s.n + 1 were asked
    for first, with one difference: `ray generation failed` is reported only
    when DegenerateRay is raised for a letter the window reads, so a ray
    that cannot be certified past those letters gets their verdict.
    A non-injective phi has no B, and fold_count raises ValueError.
    """
    bound = phi.fold_count()
    s = max(1, phi.max_image_length())
    burn_in = 4 * bound + 8
    n = burn_in + 4 * s
    cap = s * n + 1
    fixed = isinstance(w, MorphicRay) and w.endo == phi

    # Incremental image of growing prefixes, and its agreement k with W: the
    # letters that survive the cancellation keep their agreement.
    ray: tuple[int, ...] = ()
    img_letters: list[int] = []
    gaps: list[int] = []  # k(i) - i over the window after the burn-in
    k = 0
    try:
        for i in range(1, n + 1):
            if i > len(ray):
                ray = w.prefix(min(cap, 2 * len(ray) or 1)).letters
            before = len(img_letters)
            cancelled = extend_reduced(img_letters, phi.letter_image(ray[i - 1]))
            k = min(k, before - cancelled)
            while k < len(img_letters):
                if k == len(ray):
                    ray = w.prefix(min(cap, 2 * len(ray))).letters
                if img_letters[k] != ray[k]:
                    break
                k += 1
            if not fixed and len(img_letters) - k > bound:
                return AttractionVerdict(
                    "not-fixed",
                    f"|phi(W_i)| - k(i) exceeds the cancellation bound at i={i}")
            if i > burn_in:
                gaps.append(k - i)
    except DegenerateRay:
        return AttractionVerdict("inconclusive", "ray generation failed")

    if all(g > bound for g in gaps) and all(
            gaps[j + s] >= gaps[j] + 1 for j in range(len(gaps) - s)):
        return AttractionVerdict("attracting",
                                 "gap clears the cancellation bound and keeps growing")
    return AttractionVerdict("inconclusive",
                             "window shows neither certified growth nor a certificate")


# ---------------------------------------------------------------------------
# Equivalence of rays modulo the fixed subgroup.


# Letters of w and U.v that equivalent_under compares: agreement this far is
# a bounded observation, not a proof that the two words are equal.
EQUIVALENCE_CAP = 256


def equivalent_under(w, v: MorphicRay, fix_gens: Sequence[Word],
                     phi: Endomorphism, depth: int) -> Optional[Word]:
    """The first U in the <fix_gens> ball of radius `depth` with w = U.v on
    their first EQUIVALENCE_CAP letters, or None.  U.v is read off v's own
    buffer; a ray that cannot be certified that far matches nothing."""
    for g in fix_gens:
        if phi.apply(g) != g:
            raise ValueError(f"certificate invalid: generator not fixed: {g.letters}")
    try:
        target = w.prefix(EQUIVALENCE_CAP)
    except DegenerateRay:
        return None
    for u in subgroup_ball(fix_gens, depth):
        try:
            if v.prefix(EQUIVALENCE_CAP, pre=u) == target:
                return u
        except DegenerateRay:
            continue
    return None
