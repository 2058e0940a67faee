"""Exact arithmetic of reduced words in a free group and of its endomorphisms.

Letters are nonzero signed integers: +i is the i-th generator, -i its inverse
(1-based).  A word is always stored reduced; the reduction itself is a single
stack scan, so every operation here is linear in the data it touches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, MutableSequence, Optional, Sequence


class BasisMismatch(ValueError):
    pass


class UnknownGenerator(ValueError):
    pass


def reduce_letters(raw: Iterable[int]) -> tuple[int, ...]:
    """Free reduction by stack scan; cancels every adjacent x, -x pair."""
    out: list[int] = []
    for x in raw:
        if x == 0:
            raise ValueError("letter 0 is not a generator")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def extend_reduced(out: MutableSequence[int], letters: Sequence[int]) -> int:
    """Append the reduced word `letters` to the reduced `out`, a list or a
    deque, keeping it reduced; returns how many letters of `out` cancelled.
    Only a prefix of `letters` can cancel, because `letters` is itself
    reduced, so the rest is appended in one `extend`."""
    j, n = 0, len(letters)
    while j < n and out and out[-1] == -letters[j]:
        out.pop()
        j += 1
    out.extend(letters[j:] if j else letters)
    return j


@dataclass(frozen=True)
class Word:
    """A reduced word; construct through `word()` unless the input is reduced."""

    letters: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __mul__(self, other: "Word") -> "Word":
        return Word(reduce_letters(self.letters + other.letters))

    def inverse(self) -> "Word":
        return Word(tuple(-x for x in reversed(self.letters)))

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def max_generator(self) -> int:
        return max((abs(x) for x in self.letters), default=0)


IDENTITY = Word()


def word(raw: Iterable[int]) -> Word:
    return Word(reduce_letters(raw))


@dataclass(frozen=True)
class Basis:
    """Ordered generator names.  parse reads a basis of single-character
    names by case and any other as space-separated tokens with a "-" suffix
    for inverses; io rejects input names that it cannot read back."""

    letters: tuple[str, ...]

    def __post_init__(self):
        if not self.letters:
            raise ValueError("rank must be at least 1")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("generator names must be distinct")

    @property
    def rank(self) -> int:
        return len(self.letters)

    def index(self, name: str) -> int:
        try:
            return self.letters.index(name) + 1
        except ValueError:
            raise UnknownGenerator(f"unknown generator name: {name!r}") from None

    def parse(self, text: str) -> Word:
        """Parse a word; single-letter bases use case ("abA" = a b a^-1),
        any basis accepts space-separated tokens with a "-" suffix for inverses."""
        text = text.strip()
        if not text:
            return IDENTITY
        raw: list[int] = []
        if " " in text or any(len(n) > 1 for n in self.letters):
            for tok in text.split():
                if tok.endswith("-"):
                    raw.append(-self.index(tok[:-1]))
                else:
                    raw.append(self.index(tok))
        else:
            for ch in text:
                if ch.islower():
                    raw.append(self.index(ch))
                elif ch.isupper():
                    raw.append(-self.index(ch.lower()))
                else:
                    raise UnknownGenerator(f"unknown generator name: {ch!r}")
        return word(raw)

    def format(self, w: Word) -> str:
        if all(len(n) == 1 for n in self.letters):
            return "".join(
                self.letters[abs(x) - 1] if x > 0 else self.letters[abs(x) - 1].upper()
                for x in w.letters
            )
        return " ".join(
            self.letters[abs(x) - 1] + ("" if x > 0 else "-") for x in w.letters
        )


def default_basis(rank: int) -> Basis:
    if rank > 26:
        return Basis(tuple(f"x{i}" for i in range(1, rank + 1)))
    return Basis(tuple(chr(ord("a") + i) for i in range(rank)))


@dataclass(frozen=True)
class Endomorphism:
    """A free-group endomorphism given by the images of the generators."""

    basis: Basis
    images: tuple[Word, ...]

    def __post_init__(self):
        if len(self.images) != self.basis.rank:
            raise BasisMismatch("one image per generator required")
        for im in self.images:
            if im.max_generator() > self.basis.rank:
                raise UnknownGenerator("image uses a letter outside the basis")

    @property
    def rank(self) -> int:
        return self.basis.rank

    @cached_property
    def image_table(self) -> dict[int, tuple[int, ...]]:
        """Reduced image letters of every signed letter, inverses included.
        Built on first use; a letter outside the basis has no entry."""
        table: dict[int, tuple[int, ...]] = {}
        for i, im in enumerate(self.images, start=1):
            letters = reduce_letters(im.letters)
            table[i] = letters
            table[-i] = tuple(-y for y in reversed(letters))
        return table

    def letter_image(self, x: int) -> tuple[int, ...]:
        try:
            return self.image_table[x]
        except KeyError:
            raise BasisMismatch(f"letter {x} does not live over this basis") from None

    def apply(self, w: Word) -> Word:
        table = self.image_table
        out: list[int] = []
        try:
            for x in w.letters:
                extend_reduced(out, table[x])
        except KeyError:
            raise BasisMismatch("word does not live over this basis") from None
        return Word(tuple(out))

    def inner_twist(self, c: Word) -> "Endomorphism":
        """The endomorphism i_c o self: g -> c self(g) c^-1."""
        ci = c.inverse()
        return Endomorphism(self.basis, tuple(c * im * ci for im in self.images))

    def max_image_length(self) -> int:
        return max((len(im) for im in self.images), default=0)

    def fold_count(self) -> int:
        """The number of Stallings folds from the wedge of loops spelling
        the images to their folded core graph: sum |phi(x)| less the edges of
        folded_image().  It is the bounded-cancellation constant of the rose
        map, rose_map(phi).cancellation_bound(), whose docstring has the
        proof: at most this many letters of phi(W) cancel against phi(V)
        when W.V is reduced.  The two are one computation, since the rose
        map keeps this image table (rose_map(phi).image_table ==
        phi.image_table), so both fold the same labelled loops with
        stallings_fold.  Rejected for non-injective endomorphisms."""
        injective, edges = _fold_summary(self)
        if not injective:
            raise ValueError("cancellation is unbounded for non-injective endomorphisms")
        return sum(len(im) for im in self.images) - edges

    def folded_image(self) -> "FoldedGraph":
        """The folded core graph of the subgroup generated by the images."""
        return fold_words(self.images)

    def is_injective(self) -> bool:
        """Injective iff the image subgroup has full rank (free groups are Hopfian)."""
        return _fold_summary(self)[0]


@lru_cache(maxsize=4096)
def _fold_summary(phi: "Endomorphism") -> tuple[bool, int]:
    """Whether phi is injective, and the edge count of its folded image: one
    fold serves is_injective and fold_count.  Only the two figures are kept,
    since a kept graph per checked map costs more in garbage collection than
    the fold it saves."""
    if any(im.is_identity for im in phi.images):
        return False, 0
    g = phi.folded_image()
    return g.subgroup_rank() == phi.rank, g.edge_count()


# ---------------------------------------------------------------------------
# Folded (Stallings) graphs of finitely generated subgroups.


class FoldedGraph:
    """Deterministic and co-deterministic labeled graph with base state 0.

    out[s][x] = s' means the x-labeled edge leaves s and enters s' (and
    out[s'][-x] = s); a state folded into another has no edges.
    """

    def __init__(self, out: list[dict[int, int]], n_states: int):
        self.out = out
        self.n_states = n_states

    def read(self, w: Word) -> Optional[int]:
        s: Optional[int] = 0
        for x in w.letters:
            s = self.out[s].get(x)
            if s is None:
                return None
        return s

    def accepts(self, w: Word) -> bool:
        return self.read(w) == 0

    def edge_count(self) -> int:
        return sum(map(len, self.out)) // 2

    def subgroup_rank(self) -> int:
        # Folded graphs built from loops at the base are connected cores.
        return self.edge_count() - self.n_states + 1


def stallings_fold(n: int, paths: Iterable[tuple[int, Sequence[int], int]]
                   ) -> tuple[list[dict[int, int]], int]:
    """Stallings folding (Invent. Math. 71, 1983) of a graph whose edges
    carry nonzero integer labels, an edge read backwards carrying the
    negated label: the vertices 0, ..., n-1 and, for each (u, labels, v) of
    `paths`, a path from u to v spelling `labels` through new vertices (an
    empty one identifies u with v).  Returns the folded graph as (out,
    vertex count), out as in FoldedGraph; each vertex is named by the least
    vertex folded into it, so vertex 0 keeps its name.

    A worklist over a union-find: every edge is stored at both ends, keyed
    by its label read from there, and an edge whose key is taken queues the
    identification of the two far ends.  Identifying two vertices moves the
    edges of one onto the other, queueing each clash of keys in turn."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    out: list[dict[int, int]] = [{} for _ in parent]  # out[x][c]: far end of c at x
    merge: list[tuple[int, int]] = []

    def attach(x: int, c: int, y: int) -> None:
        z = out[x].setdefault(c, y)
        if z != y and find(z) != find(y):
            merge.append((z, y))

    for u, labels, v in paths:
        if not labels:
            merge.append((u, v))
            continue
        x = u
        for c in labels[:-1]:
            y = len(parent)
            parent.append(y)
            out.append({-c: x})  # a new vertex, with its edge back to x
            attach(x, c, y)
            x = y
        attach(x, labels[-1], v)
        attach(v, -labels[-1], x)
    states = len(parent)
    while merge:
        a, b = merge.pop()
        a, b = find(a), find(b)
        if a != b:
            if b < a:
                a, b = b, a
            parent[b] = a
            states -= 1
            for c, y in out[b].items():
                attach(a, c, y)
            out[b] = {}
    for at in out:
        for c, y in at.items():
            at[c] = find(y)
    return out, states


def fold_words(gens: Sequence[Word]) -> FoldedGraph:
    """Stallings folding of the wedge of loops at the base spelling the
    given words."""
    return FoldedGraph(*stallings_fold(1, [(0, g.letters, 0) for g in gens]))


# ---------------------------------------------------------------------------
# The bounded twisted-equation search.


def twisted_solutions(phi: Endomorphism, left: Word, right: Word,
                      depth: int) -> Iterator[Word]:
    """Every reduced u with |u| <= depth and left.phi(u) = u.right, shortest
    first, and within one length in the lexicographic order of the letters
    1 < -1 < 2 < -2 < ...

    The search grows u one letter at a time and carries phi(u) along, one
    letter image per step.  A branch u is cut when no u.v (u.v reduced, v
    possibly empty) can be a solution, by bounded cancellation (Cooper,
    J. Algebra 111, 1987), the rule `rtt.nielsen_paths_brute` uses for paths.

    Proof.  Let B = phi.fold_count(), the number of Stallings folds of the
    images, which bounds cancellation as GraphMap.cancellation_bound proves
    for the rose map (Stallings, Invent. Math. 71, 1983).  The cut below is
    exact for any valid constant.  At most B letters of phi(u)
    cancel in phi(u).phi(v), so phi(u) without its last B letters, S, is a
    prefix of phi(u.v).  When |S| >= |left|, the free reduction of
    left.phi(u.v) cancels only within the first |left| letters of phi(u.v),
    all of them in S, so L = [left.S] is a prefix of [left.phi(u.v)].  On the
    other side at most |right| letters of u.v cancel against right, so Q = u
    without its last |right| letters is a prefix of [u.v.right], a word of at
    most depth + |right| letters.  A solution u.v therefore needs
    |L| <= depth + |right| and L, Q equal on their first min(|L|, |Q|)
    letters; when either fails the branch is cut.  A non-injective phi has no
    B, and fold_count raises ValueError.

    Lemma (incremental prefix).  A letter of L matched against Q at u stays
    matched at every descendant u.v.  L_u and L_{u.v} are both prefixes of
    [left.phi(u.v)], since u.v is a reduced extension of u and of itself, so
    they agree where both are defined, and Q_u is a prefix of Q_{u.v}.  So
    each branch keeps how many letters are matched, the most of its own and
    of its ancestors, and a child compares only the positions past that
    count, which gives the cut above exactly.  L = [left.S] cancels only at
    the junction, k <= |left| letters, so L is the first |left| - k letters
    of left followed by S from its k-th letter on: past those, L[i] is
    phi(u)[i + 2k - |left|].

    A solution has |[left.phi(u)]| = |[u.right]|, and the two sides differ
    from |phi(u)| and |u| by at most |left| and |right|, so u is compared
    only when ||phi(u)| - |u|| <= |left| + |right|.  The empty word is never
    cut, and solves exactly when left = right.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    bound = phi.fold_count()
    table = phi.image_table
    lt, rt = left.letters, right.letters
    nl, nr = len(lt), len(rt)
    cap = depth + nr
    slack = nl + nr

    if lt == rt:
        yield IDENTITY
    order = [s * i for i in range(1, phi.rank + 1) for s in (1, -1)]
    follow = {x: [y for y in order if y != -x] for x in order}
    # (u, phi(u), how many letters of L and Q are known to agree)
    level: list[tuple[tuple[int, ...], tuple[int, ...], int]] = [((), (), 0)]
    for length in range(1, depth + 1):
        q = length - nr  # |Q| of the children
        grown = []
        for u, img, done in level:
            for x in follow[u[-1]] if u else order:
                ix = table[x]
                if img and img[-1] == -ix[0]:
                    j, n = 1, min(len(img), len(ix))
                    while j < n and img[-1 - j] == -ix[j]:
                        j += 1
                    img_v = img[:len(img) - j] + ix[j:]
                else:
                    img_v = img + ix
                v = u + (x,)
                matched = done
                settled = len(img_v) - bound  # |S|
                if settled >= nl:
                    # |L|, the letters of left leading it, and phi(u)'s offset
                    size, lead, shift = settled, 0, 0
                    if nl:
                        k = 0
                        while k < nl and lt[-1 - k] == -img_v[k]:
                            k += 1
                        lead, shift = nl - k, 2 * k - nl
                        size -= shift
                    if size > cap:
                        continue
                    m = size if size < q else q
                    if m > done:
                        lo = done
                        if lo < lead:
                            hi = lead if lead < m else m
                            if lt[lo:hi] != v[lo:hi]:
                                continue
                            lo = hi
                        if m == lo + 1:
                            if img_v[lo + shift] != v[lo]:
                                continue
                        elif lo < m and img_v[lo + shift:m + shift] != v[lo:m]:
                            continue
                        matched = m
                if slack:
                    if (-slack <= len(img_v) - length <= slack
                            and reduce_letters(lt + img_v) == reduce_letters(v + rt)):
                        yield Word(v)
                elif img_v == v:
                    yield Word(v)
                grown.append((v, img_v, matched))
        level = grown


def subgroup_ball(gens: Sequence[Word], depth: int) -> list[Word]:
    """Elements of <gens> written as products of at most `depth` generators,
    deduplicated, in deterministic length-then-letters order."""
    seen: dict[tuple[int, ...], Word] = {(): IDENTITY}
    frontier = [IDENTITY]
    steps = [g for g in gens if not g.is_identity]
    steps = steps + [g.inverse() for g in steps]
    for _ in range(depth):
        nxt = []
        for u in frontier:
            for g in steps:
                v = u * g
                if v.letters not in seen:
                    seen[v.letters] = v
                    nxt.append(v)
        frontier = nxt
    return sorted(seen.values(), key=lambda w: (len(w), w.letters))


@dataclass(frozen=True)
class RouteSearch:
    """Outcome of a bounded twisted-conjugacy search; a miss is only
    "no witness up to depth", never a proof of distinctness."""

    found: bool
    witness: Optional[Word]


def route_equivalent(w: Word, w2: Word, phi: Endomorphism, depth: int) -> RouteSearch:
    """The first u with |u| <= depth and w2 = u * w * phi(u)^-1, i.e.
    w2.phi(u) = u.w, in the order of `twisted_solutions`."""
    u = next(twisted_solutions(phi, w2, w, depth), None)
    return RouteSearch(u is not None, u)
