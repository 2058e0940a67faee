"""Points of the Gromov boundary of a free group: infinite reduced words.

Two representations are maintained:

* eventually periodic words, with an exact normal form (equality is decidable);
* morphic rays seeded by a word e with phi(e) = e.u, generated lazily as
  e u phi(u) phi^2(u) ... with junction cancellations absorbed eagerly, so the
  emitted letters are already reduced.

Fixedness and attraction against an endomorphism are decided where a finite
certificate exists and reported as `inconclusive` otherwise; the tool never
upgrades a bounded observation into a claim silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .words import (
    Endomorphism,
    FoldedGraph,
    IDENTITY,
    Word,
    common_prefix,
    cyclic_reduce,
    extend_reduced,
    fixed_subgroup_graph,
    subgroup_ball,
)


class DegenerateRay(ValueError):
    """Raised when a morphic seed does not generate a convergent infinite ray."""


def _rotate_left(t: tuple[int, ...]) -> tuple[int, ...]:
    return t[1:] + t[:1]


def _rotate_right(t: tuple[int, ...]) -> tuple[int, ...]:
    return t[-1:] + t[:-1]


def _primitive_root(t: tuple[int, ...]) -> tuple[int, ...]:
    n = len(t)
    for d in range(1, n + 1):
        if n % d == 0 and t == t[:d] * (n // d):
            return t[:d]
    return t


@dataclass(frozen=True)
class EventuallyPeriodic:
    """prefix . period^infinity in normal form: build through `ev_periodic`."""

    pre: tuple[int, ...]
    period: tuple[int, ...]

    def prefix(self, m: int) -> Word:
        if m <= len(self.pre):
            return Word(self.pre[:m])
        need = m - len(self.pre)
        reps = need // len(self.period) + 1
        return Word((self.pre + self.period * reps)[:m])

    def __repr__(self):
        return f"EventuallyPeriodic(pre={self.pre}, period={self.period})"


def ev_periodic(pre: Word, period: Word) -> EventuallyPeriodic:
    """Normalize pre . period^inf: cyclically reduced primitive period, junction
    cancellation absorbed, shortest prefix.  Normal forms compare by equality."""
    if period.is_identity:
        raise ValueError("period must be nonempty")
    conj, core = cyclic_reduce(period)
    if core.is_identity:
        raise ValueError("period is conjugate to the identity")
    p = list((pre * conj).letters)
    q = core.letters
    while p and p[-1] == -q[0]:
        p.pop()
        q = _rotate_left(q)
    while p and p[-1] == q[-1]:
        p.pop()
        q = _rotate_right(q)
    return EventuallyPeriodic(tuple(p), _primitive_root(q))


def ev_periodic_image(w: EventuallyPeriodic, phi: Endomorphism) -> EventuallyPeriodic:
    """Exact push-forward of an eventually periodic word along phi."""
    return ev_periodic(phi.apply(Word(w.pre)), phi.apply(Word(w.period)))


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


InfiniteWord = EventuallyPeriodic | MorphicRay


def left_multiply(u: Word, w: InfiniteWord) -> InfiniteWord:
    """The reduced infinite word u.w."""
    if isinstance(w, EventuallyPeriodic):
        return ev_periodic(u * Word(w.pre), Word(w.period))
    return MorphicRay(w.seed, w.endo, pre=u * w.pre, _skip=w._skip)


def agree_length(w: InfiniteWord, v: InfiniteWord, cap: int) -> float:
    """|W ^ V| when below cap; math.inf for a proven-equal pair; cap otherwise."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if isinstance(w, EventuallyPeriodic) and isinstance(v, EventuallyPeriodic):
        if w == v:
            return math.inf
        bound = (len(w.pre) + len(v.pre)
                 + 2 * len(w.period) * len(v.period) + 2)
        n = len(common_prefix(w.prefix(bound), v.prefix(bound)))
        return n  # genuinely distinct: the agreement is exact and finite
    if isinstance(w, MorphicRay) and isinstance(v, MorphicRay):
        if w.structurally_equal(v):
            return math.inf
    n = len(common_prefix(w.prefix(cap), v.prefix(cap)))
    return cap if n >= cap else n


def infinite_equal(w: InfiniteWord, v: InfiniteWord, cap: int) -> tuple[bool, bool]:
    """(equal, exact): exact means decided, not just agreement to cap."""
    a = agree_length(w, v, cap)
    if a is math.inf:
        return True, True
    if isinstance(w, EventuallyPeriodic) and isinstance(v, EventuallyPeriodic):
        return False, True
    return a >= cap, False


# ---------------------------------------------------------------------------
# Membership of a boundary word in the boundary of a folded subgroup.


@dataclass(frozen=True)
class BoundaryTrace:
    escapes_at: Optional[int]  # 1-based letter index, None = read to depth
    depth: int

    @property
    def stays_to_depth(self) -> bool:
        return self.escapes_at is None


def in_boundary_of_subgroup(w: InfiniteWord, graph: FoldedGraph, depth: int) -> BoundaryTrace:
    """Trace prefix(w, depth) through the folded graph from its base state."""
    return BoundaryTrace(graph.trace_escape(w.prefix(depth).letters), depth)


# ---------------------------------------------------------------------------
# Attraction.


@dataclass
class AttractionVerdict:
    """Outcome of the bounded attraction test.

    `attracting` and `fixed_not_attracting` certify what the finite window can
    certify (see module docstring); `not_fixed` always carries a certificate.
    """

    status: str  # attracting | fixed-not-attracting | not-fixed | inconclusive
    evidence: list[tuple[int, int]] = field(default_factory=list)
    reason: str = ""
    bound: int = 0
    burn_in: int = 0
    window: int = 0


def _certified_in_fixed_boundary(w: InfiniteWord, phi: Endomorphism,
                                 fix_gens: Optional[Sequence[Word]], depth: int) -> bool:
    if isinstance(w, EventuallyPeriodic):
        carrier = Word(w.pre) * Word(w.period) * Word(w.pre).inverse()
        if not carrier.is_identity and phi.apply(carrier) == carrier:
            return True
    if fix_gens:
        graph = fixed_subgroup_graph(phi, fix_gens)
        if in_boundary_of_subgroup(w, graph, depth).stays_to_depth:
            return True
    return False


def attraction_check(w: InfiniteWord, phi: Endomorphism,
                     burn_in: Optional[int] = None, window: Optional[int] = None,
                     fix_gens: Optional[Sequence[Word]] = None) -> AttractionVerdict:
    """Sample k(i) = |W ^ phi(W_i)| and classify W against phi.

    not-fixed fires on the certificate |phi(W_i)| - k(i) > B (impossible for a
    fixed word); for eventually periodic W fixedness is decided exactly first.
    attracting requires k(i) - i to clear B and to gain at least 1 over every
    stretch of s = max generator image length steps of the window.
    """
    if not phi.is_injective():
        raise ValueError("attraction is defined for injective endomorphisms only")
    bound = phi.cancellation_bound()
    s = max(1, phi.max_image_length())
    if burn_in is None:
        burn_in = 4 * bound + 8
    if window is None:
        window = 4 * s
    if burn_in < 1 or window < 1:
        raise ValueError("burn_in and window must be at least 1")
    n = burn_in + window

    exact_fixed: Optional[bool] = None
    if isinstance(w, EventuallyPeriodic):
        exact_fixed = ev_periodic_image(w, phi) == w
    elif isinstance(w, MorphicRay) and w.endo == phi and w.pre.is_identity and w._skip == 0:
        exact_fixed = True  # fixed by construction of the ray

    try:
        full = w.prefix(s * n + 1)
    except DegenerateRay:
        return AttractionVerdict("inconclusive", [], "ray generation failed",
                                 bound, burn_in, window)
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
        if exact_fixed is not True and len(img_letters) - k > bound:
            not_fixed_at = i

    if exact_fixed is False or (not_fixed_at is not None and exact_fixed is not True):
        return AttractionVerdict(
            "not-fixed", evidence,
            "exact decision on periodic normal forms" if exact_fixed is False
            else f"|phi(W_i)| - k(i) exceeds the cancellation bound at i={not_fixed_at}",
            bound, burn_in, window)

    gaps = [k - i for i, k in evidence]
    win = gaps[burn_in:]
    grows = all(g > bound for g in win) and all(
        gaps[j + s] >= gaps[j] + 1 for j in range(burn_in, n - s))
    if grows:
        return AttractionVerdict("attracting", evidence,
                                 "gap clears the cancellation bound and keeps growing",
                                 bound, burn_in, window)
    flat = max(win) - min(win) <= bound
    if flat and _certified_in_fixed_boundary(w, phi, fix_gens, depth=n):
        return AttractionVerdict("fixed-not-attracting", evidence,
                                 "bounded gap and certified inside the fixed-subgroup boundary",
                                 bound, burn_in, window)
    return AttractionVerdict("inconclusive", evidence,
                             "window shows neither certified growth nor a certificate",
                             bound, burn_in, window)


# ---------------------------------------------------------------------------
# Equivalence of boundary words modulo the fixed subgroup.


@dataclass(frozen=True)
class EquivalenceWitness:
    found: bool
    witness: Optional[Word]
    exact: bool  # False when equality was only checked to an agreement cap
    depth: int


def equivalent_under(w: InfiniteWord, v: InfiniteWord, fix_gens: Sequence[Word],
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
        equal, exact = infinite_equal(w, shifted, cap)
        if equal:
            return EquivalenceWitness(True, u, exact, depth)
    return EquivalenceWitness(False, None, True, depth)
