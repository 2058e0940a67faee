"""Exact arithmetic of reduced words in a free group and of its endomorphisms.

Letters are nonzero signed integers: +i is the i-th generator, -i its inverse
(1-based).  A word is always stored reduced; the reduction itself is a single
stack scan, so every operation here is linear in the data it touches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Optional, Sequence


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


def extend_reduced(out: list[int], letters: Sequence[int]) -> int:
    """Append the reduced word `letters` to the reduced list `out`, keeping it
    reduced; returns how many letters of `out` cancelled.  Only a prefix of
    `letters` can cancel, because `letters` is itself reduced, so the rest is
    appended in one `extend`."""
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

    def __invert__(self) -> "Word":
        return self.inverse()

    def prefix(self, m: int) -> "Word":
        return Word(self.letters[:m])

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def max_generator(self) -> int:
        return max((abs(x) for x in self.letters), default=0)


IDENTITY = Word()


def word(raw: Iterable[int]) -> Word:
    return Word(reduce_letters(raw))


def common_prefix(w: Word, v: Word) -> Word:
    n = 0
    for a, b in zip(w.letters, v.letters):
        if a != b:
            break
        n += 1
    return Word(w.letters[:n])


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

    def __call__(self, w: Word) -> Word:
        return self.apply(w)

    def inner_twist(self, c: Word) -> "Endomorphism":
        """The endomorphism i_c o self: g -> c self(g) c^-1."""
        ci = c.inverse()
        return Endomorphism(self.basis, tuple(c * im * ci for im in self.images))

    def abelianization(self) -> list[list[int]]:
        """M[j][i] = exponent sum of generator j+1 in the image of generator i+1."""
        n = self.rank
        mat = [[0] * n for _ in range(n)]
        for i, im in enumerate(self.images):
            for x in im.letters:
                mat[abs(x) - 1][i] += 1 if x > 0 else -1
        return mat

    def max_image_length(self) -> int:
        return max((len(im) for im in self.images), default=0)

    def cancellation_bound(self) -> int:
        """A valid constant B with |phi(W.V)| >= |phi(W)| + |phi(V)| - 2B whenever
        the product W.V is itself reduced.  Conservative, never sharp;
        meaningless (and rejected) for non-injective endomorphisms.

        It is the vertex count of the subdivided rose, more than the
        rose map's fold count (GraphMap.cancellation_bound), and it is kept
        so: the burn-in and gap thresholds of boundary.attraction_check and
        the settling of MorphicRay read B, so a smaller B would change the
        letters they grow and the route reports."""
        if not self.is_injective():
            raise ValueError("cancellation is unbounded for non-injective endomorphisms")
        return max(0, sum(len(im) for im in self.images) - self.rank + 1)

    def folded_image(self) -> "FoldedGraph":
        """The folded core graph of the subgroup generated by the images."""
        return fold_words(self.rank, self.images)

    def is_injective(self) -> bool:
        """Injective iff the image subgroup has full rank (free groups are Hopfian)."""
        return _injective(self)


@lru_cache(maxsize=4096)
def _injective(phi: "Endomorphism") -> bool:
    if any(im.is_identity for im in phi.images):
        return False
    return phi.folded_image().subgroup_rank() == phi.rank


def matrix_trace(a: list[list[int]]) -> int:
    return sum(a[i][i] for i in range(len(a)))


# ---------------------------------------------------------------------------
# Folded (Stallings) graphs of finitely generated subgroups.


class FoldedGraph:
    """Deterministic and co-deterministic labeled graph with a base state.

    Transitions are stored for both letter signs: delta[(s, x)] = s' means the
    x-labeled edge leaves s and enters s' (and delta[(s', -x)] = s).
    """

    def __init__(self, rank: int, delta: dict[tuple[int, int], int], base: int = 0,
                 n_states: int = 1):
        self.rank = rank
        self.delta = delta
        self.base = base
        self.n_states = n_states

    def step(self, state: int, letter: int) -> Optional[int]:
        return self.delta.get((state, letter))

    def read(self, w: Word) -> Optional[int]:
        s: Optional[int] = self.base
        for x in w.letters:
            s = self.step(s, x)
            if s is None:
                return None
        return s

    def accepts(self, w: Word) -> bool:
        return self.read(w) == self.base

    def edge_count(self) -> int:
        return sum(1 for (_, x) in self.delta if x > 0)

    def subgroup_rank(self) -> int:
        # Folded graphs built from loops at the base are connected cores.
        return self.edge_count() - self.n_states + 1


def fold_words(rank: int, gens: Sequence[Word]) -> FoldedGraph:
    """Stallings folding of the wedge of loops spelling the given words."""
    parent = [0]

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> int:
        rx, ry = find(x), find(y)
        if rx == ry:
            return rx
        if ry < rx:
            rx, ry = ry, rx
        parent[ry] = rx
        return rx

    def new_state() -> int:
        parent.append(len(parent))
        return len(parent) - 1

    parent[0] = 0
    edges: list[tuple[int, int, int]] = []  # (origin, positive letter, terminus)
    for g in gens:
        if g.is_identity:
            continue
        prev = 0
        for i, x in enumerate(g.letters):
            nxt = 0 if i == len(g.letters) - 1 else new_state()
            if x > 0:
                edges.append((prev, x, nxt))
            else:
                edges.append((nxt, -x, prev))
            prev = nxt

    # Fold until the graph is deterministic and co-deterministic.
    changed = True
    while changed:
        changed = False
        out_seen: dict[tuple[int, int], int] = {}
        in_seen: dict[tuple[int, int], int] = {}
        for u, x, v in edges:
            ru, rv = find(u), find(v)
            key_out = (ru, x)
            if key_out in out_seen:
                other = find(out_seen[key_out])
                if other != rv:
                    union(other, rv)
                    changed = True
            else:
                out_seen[key_out] = rv
            key_in = (rv, x)
            if key_in in in_seen:
                other = find(in_seen[key_in])
                if other != ru:
                    union(other, ru)
                    changed = True
            else:
                in_seen[key_in] = ru
        if changed:
            edges = [(find(u), x, find(v)) for u, x, v in edges]

    # Renumber states reachable in the folded graph, base first.
    folded = {(find(u), x, find(v)) for u, x, v in edges}
    names: dict[int, int] = {find(0): 0}
    for u, _, v in sorted(folded):
        for s in (u, v):
            if s not in names:
                names[s] = len(names)
    delta: dict[tuple[int, int], int] = {}
    for u, x, v in folded:
        delta[(names[u], x)] = names[v]
        delta[(names[v], -x)] = names[u]
    return FoldedGraph(rank, delta, base=0, n_states=max(1, len(names)))


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

    Proof.  Let B = phi.cancellation_bound().  At most B letters of phi(u)
    cancel in phi(u).phi(v), so phi(u) without its last B letters, S, is a
    prefix of phi(u.v).  When |S| >= |left|, the free reduction of
    left.phi(u.v) cancels only within the first |left| letters of phi(u.v),
    all of them in S, so L = [left.S] is a prefix of [left.phi(u.v)].  On the
    other side at most |right| letters of u.v cancel against right, so Q = u
    without its last |right| letters is a prefix of [u.v.right], a word of at
    most depth + |right| letters.  A solution u.v therefore needs
    |L| <= depth + |right| and L, Q equal on their first min(|L|, |Q|)
    letters; when either fails the branch is cut.  A non-injective phi has no
    B, and cancellation_bound raises ValueError.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    bound = phi.cancellation_bound()
    table = phi.image_table
    lt, rt = left.letters, right.letters
    cap = depth + len(rt)

    def cut(u: tuple[int, ...], img: tuple[int, ...]) -> bool:
        if len(img) - bound < len(lt):
            return False
        settled = img[:len(img) - bound]
        if lt:
            settled = reduce_letters(lt + settled)
        m = min(len(settled), max(0, len(u) - len(rt)))
        return len(settled) > cap or settled[:m] != u[:m]

    def solves(u: tuple[int, ...], img: tuple[int, ...]) -> bool:
        return ((reduce_letters(lt + img) if lt else img)
                == (reduce_letters(u + rt) if rt else u))

    if cut((), ()):
        return
    if solves((), ()):
        yield IDENTITY
    order = [s * i for i in range(1, phi.rank + 1) for s in (1, -1)]
    level: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), ())]  # (u, phi(u))
    for _ in range(depth):
        grown = []
        for u, img in level:
            for x in order:
                if u and u[-1] == -x:
                    continue
                letters = list(img)
                extend_reduced(letters, table[x])
                v, img_v = u + (x,), tuple(letters)
                if cut(v, img_v):
                    continue
                if solves(v, img_v):
                    yield Word(v)
                grown.append((v, img_v))
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
