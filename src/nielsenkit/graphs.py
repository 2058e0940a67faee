"""Finite graphs with oriented-edge involution and cellular selfmaps.

Oriented edges are (name, sign) pairs ("darts"); the involution flips the
sign.  Paths are computed on dart codes, the way words code letters: edge k
is k+1 forward and -(k+1) reversed (Graph.dart_of), so reversal is `-c`.
Edge images are tight edge paths; interior fixed points are located by
the affine model in which each edge is parametrized uniformly over [0,1] and
its image path is traversed at uniform speed.

The map is cut at its interior fixed points only, and each sub-edge image is
a slice, at integer positions, of the parent edge's image spelled in
sub-darts; a slice of a tight path is tight (see subdivided_fixed_map).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple, Optional

from .words import (IDENTITY, Basis, Endomorphism, Word, extend_reduced, reduce_letters,
                    stallings_fold)


class Dart(NamedTuple):
    name: str
    fwd: bool

    @property
    def rev(self) -> "Dart":
        return Dart(self.name, not self.fwd)

    def __str__(self) -> str:
        return self.name if self.fwd else self.name + "-"


def parse_dart(text: str) -> Dart:
    return Dart(text[:-1], False) if text.endswith("-") else Dart(text, True)


@dataclass(frozen=True)
class EdgePath:
    """A tight edge path, or a trivial path carrying its vertex."""

    darts: tuple[Dart, ...] = ()
    at: Optional[str] = None

    @property
    def is_trivial(self) -> bool:
        return not self.darts

    def __len__(self) -> int:
        return len(self.darts)

    def __iter__(self):
        return iter(self.darts)

    def reverse(self) -> "EdgePath":
        if self.is_trivial:
            return self
        return EdgePath(tuple(d.rev for d in reversed(self.darts)))

    def __str__(self) -> str:
        if self.is_trivial:
            return f"trivial@{self.at}"
        return " ".join(str(d) for d in self.darts)


def trivial_path(vertex: str) -> EdgePath:
    return EdgePath((), vertex)


def reachable(succ: Mapping[Hashable, Iterable[Hashable]], start: Hashable) -> set:
    """Every node reachable from `start` along `succ`, `start` included."""
    seen = {start}
    stack = [start]
    while stack:
        for w in succ[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


@dataclass(frozen=True)
class Graph:
    """Vertices and geometric edges; insertion order of edges is preserved and
    used everywhere determinism matters."""

    vertices: tuple[str, ...]
    edge_ends: dict[str, tuple[str, str]]

    def __post_init__(self):
        vertices = set(self.vertices)
        if len(vertices) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        for e, (u, v) in self.edge_ends.items():
            if u not in vertices or v not in vertices:
                raise ValueError(f"edge {e} has an endpoint outside the vertex set")

    @property
    def edges(self) -> tuple[str, ...]:
        return tuple(self.edge_ends)

    def origin(self, d: Dart) -> str:
        u, v = self.edge_ends[d.name]
        return u if d.fwd else v

    def terminus(self, d: Dart) -> str:
        u, v = self.edge_ends[d.name]
        return v if d.fwd else u

    @cached_property
    def dart_of(self) -> dict[int, Dart]:
        """The dart of each code: edge k is k+1 forward and -(k+1) reversed,
        so the petals of a rose (io.rose_map) are coded by their letters."""
        return {s * k: Dart(e, s > 0)
                for k, e in enumerate(self.edges, start=1) for s in (1, -1)}

    @cached_property
    def code_of(self) -> dict[Dart, int]:
        return {d: c for c, d in self.dart_of.items()}

    def darts(self, names: Optional[Iterable[str]] = None) -> list[Dart]:
        names = self.edges if names is None else names
        return [Dart(e, s) for e in names for s in (True, False)]

    @cached_property
    def _darts_at(self) -> dict[str, tuple[Dart, ...]]:
        at: dict[str, list[Dart]] = {v: [] for v in self.vertices}
        for d in self.darts():
            at[self.origin(d)].append(d)
        return {v: tuple(ds) for v, ds in at.items()}

    def darts_at(self, v: str) -> tuple[Dart, ...]:
        """Darts with origin v, in the order of `darts()`."""
        return self._darts_at[v]

    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edge_ends)

    def path_endpoints(self, p: EdgePath) -> tuple[str, str]:
        if p.is_trivial:
            return p.at, p.at
        return self.origin(p.darts[0]), self.terminus(p.darts[-1])

    def check_path(self, darts: Iterable[Dart]) -> None:
        prev: Optional[Dart] = None
        for d in darts:
            if d.name not in self.edge_ends:
                raise ValueError(f"unknown edge {d.name}")
            if prev is not None and self.terminus(prev) != self.origin(d):
                raise ValueError(f"edges not adjacent: {prev} then {d}")
            prev = d

    def is_connected(self) -> bool:
        succ = {v: [self.terminus(d) for d in ds] for v, ds in self._darts_at.items()}
        return not self.vertices or reachable(succ, self.vertices[0]) == set(self.vertices)


@dataclass(frozen=True, eq=False)
class GraphMap:
    """A cellular selfmap: vertex images plus tight edge-image paths.

    edge_map[e] is the image of the forward dart of e; the image of the
    reversed dart is the reversed path.
    """

    graph: Graph
    vertex_map: dict[str, str]
    edge_map: dict[str, EdgePath]

    @cached_property
    def image_table(self) -> dict[int, tuple[int, ...]]:
        """The tight image of every dart in dart codes (Graph.dart_of),
        reversed darts included, as Endomorphism.image_table keeps letters:
        rose_map(phi).image_table == phi.image_table.  Built on first use, so
        a map can be constructed before it is validated."""
        code = self.graph.code_of
        table: dict[int, tuple[int, ...]] = {}
        for k, e in enumerate(self.graph.edges, start=1):
            img = tuple(code[x] for x in self.edge_map[e].darts)
            table[k] = img
            table[-k] = tuple(-x for x in reversed(img))
        return table

    def cancellation_bound(self) -> int:
        """Bounded cancellation constant C: whenever P and Q are tight paths
        with P.Q tight, at most C darts of [f(P)] cancel against [f(Q)] when
        [f(P)][f(Q)] is tightened.  Defined only when f is pi1-injective;
        ValueError otherwise, as Endomorphism.fold_count.

        C is the number of Stallings folds (Stallings, Invent. Math. 71, 1983)
        of G', the graph obtained by subdividing each edge e into |f(e)|
        edges labelled by the darts of f(e) and contracting e when
        |f(e)| = 0: C = E(G') - E(Gamma), Gamma the folded graph.  Proof: the
        contracted edges form a forest, since a loop among them would be a
        nontrivial loop with a trivial image, so a tight path of G stays
        tight in G'.  f factors as G' -> G, sending each edge of G' to the
        edge of its label, and that map factors as the folds G' -> Gamma
        followed by an immersion Gamma -> G.  Because f is pi1-injective
        every fold is pi1-injective: it identifies two edges with distinct
        far ends, a homotopy equivalence.  So each fold cancels at most one
        edge at a junction of the image of a tight path, and the immersion
        cancels none.  a -> aa folds nothing, so C = 0.  C is at most
        V(G') - 1 = sum_e |f(e)| - rank(pi1 G), as each fold removes a vertex.

        Conversely the same fold decides injectivity (is_injective): f is
        pi1-injective iff rank(Gamma) = E - V + 1 of Gamma equals rank(pi1 G).
        G -> G' and each fold are onto on pi1 and the immersion is injective,
        so pi1(Gamma) is the image of f_*, and f_* maps pi1 G onto a free
        group of rank(Gamma); a free group of finite rank is Hopfian, so f_*
        is injective iff the two ranks agree.  The rank drops exactly where
        a contracted edge closes a loop or a fold identifies two edges whose
        far ends are already one vertex.
        """
        injective, count = self._fold
        if not injective:
            raise ValueError("cancellation is unbounded for non-injective maps")
        return count

    def is_injective(self) -> bool:
        """Whether f is injective on the fundamental group of its connected
        graph, by the fold of cancellation_bound (see its docstring)."""
        return self._fold[0]

    @cached_property
    def _fold(self) -> tuple[bool, int]:
        """(rank(Gamma) == rank(pi1 G), E(G') - E(Gamma)) for
        cancellation_bound and is_injective: G' is each edge's image path
        between its ends, in dart codes, folded by stallings_fold."""
        g = self.graph
        vid = {v: i for i, v in enumerate(g.vertices)}
        imgs = self.image_table
        paths = [(vid[u], imgs[k], vid[v])
                 for k, (u, v) in enumerate(g.edge_ends.values(), start=1)]
        out, states = stallings_fold(len(vid), paths)
        edges = sum(map(len, out)) // 2
        return (edges - states == len(g.edge_ends) - len(vid),
                sum(len(p) for _, p, _ in paths) - edges)

    def validate(self) -> None:
        g = self.graph
        for v in g.vertices:
            if self.vertex_map.get(v) not in g.vertices:
                raise ValueError(f"vertex {v} has no valid image")
        for e, (u, v) in g.edge_ends.items():
            p = self.edge_map.get(e)
            if p is None:
                raise ValueError(f"edge {e} has no image")
            if p.is_trivial:
                if p.at != self.vertex_map[u] or p.at != self.vertex_map[v]:
                    raise ValueError(f"trivial image of {e} sits at the wrong vertex")
                continue
            g.check_path(p.darts)
            for a, b in zip(p.darts, p.darts[1:]):
                if b == a.rev:
                    raise ValueError(f"image of {e} is not tight")
            if g.origin(p.darts[0]) != self.vertex_map[u]:
                raise ValueError(f"image of {e} starts at the wrong vertex")
            if g.terminus(p.darts[-1]) != self.vertex_map[v]:
                raise ValueError(f"image of {e} ends at the wrong vertex")

    def is_identity(self) -> bool:
        return (all(self.vertex_map[v] == v for v in self.graph.vertices)
                and all(self.edge_map[e].darts == (Dart(e, True),)
                        for e in self.graph.edges))

    @cached_property
    def identity_edges(self) -> frozenset[str]:
        """Edges mapped to themselves pointwise; treated as perturbed off the
        edge when counting fixed points and expanding tips."""
        return frozenset(e for e in self.graph.edges
                         if self.edge_map[e].darts == (Dart(e, True),))

    @cached_property
    def derivative_table(self) -> dict[Dart, Optional[Dart]]:
        """The first dart of the tight image of every dart; None for a
        collapsed edge (see derivative)."""
        table: dict[Dart, Optional[Dart]] = {}
        for e in self.graph.edges:
            img = self.edge_map[e].darts
            table[Dart(e, True)] = img[0] if img else None
            table[Dart(e, False)] = img[-1].rev if img else None
        return table

    @cached_property
    def fixed_darts(self) -> dict[str, tuple[Dart, ...]]:
        """Darts fixed by the derivative map, by origin and in the order of
        `Graph.darts()`, the identity-edge convention applied: a
        pointwise-fixed edge counts at its origin tip only."""
        ident, origin = self.identity_edges, self.graph.origin
        at: dict[str, list[Dart]] = {}
        for d, dd in self.derivative_table.items():
            if dd == d and (d.fwd or d.name not in ident):
                at.setdefault(origin(d), []).append(d)
        return {v: tuple(ds) for v, ds in at.items()}


def derivative(f: GraphMap, d: Dart) -> Optional[Dart]:
    """First dart of the tight image; None for a collapsed edge."""
    return f.derivative_table[d]


def classify_turn(f: GraphMap, d1: Dart, d2: Dart) -> str:
    """legal / illegal / degenerate, decided by iterating the derivative map.

    Each pass either returns or records a new unordered pair of darts, so the
    loop ends within D(D-1)/2 + 1 passes for D darts."""
    if d1 == d2:
        return "degenerate"
    seen = set()
    a, b = d1, d2
    while True:
        if a is None and b is None:
            return "degenerate"
        if a is None or b is None:
            return "legal"
        if a == b:
            return "illegal"
        key = (a, b) if a <= b else (b, a)
        if key in seen:
            return "legal"
        seen.add(key)
        a, b = derivative(f, a), derivative(f, b)


def turn_degenerates_in_one_step(f: GraphMap, d1: Dart, d2: Dart) -> bool:
    if d1 == d2:
        return False
    a, b = derivative(f, d1), derivative(f, d2)
    return a is not None and a == b


def fixed_vertices(f: GraphMap) -> list[str]:
    return [v for v in f.graph.vertices if f.vertex_map[v] == v]


def fixed_directions(f: GraphMap, v: str, among: Optional[Iterable[str]] = None) -> list[Dart]:
    """Darts at v fixed by the derivative map, the identity-edge convention
    applied (GraphMap.fixed_darts), in the order of `Graph.darts(among)`."""
    fixed = f.fixed_darts.get(v, ())
    if among is None or not fixed:
        return list(fixed)
    return [d for e in among for d in fixed if d.name == e]


class NonIsolatedFixedSet(ValueError):
    def __init__(self, edge: str):
        super().__init__(f"non-isolated interior fixed set on edge {edge}")
        self.edge = edge


def interior_fixed_points(f: GraphMap) -> list[tuple[str, Fraction]]:
    """Interior solutions of the affine fixed-point equations, per edge.

    The identity map has no isolated model and is rejected; a single
    pointwise-fixed edge inside a nontrivial map is handled by the perturbation
    convention and contributes nothing here.  A candidate t = p / q (q > 0)
    is tested against 0 < t < 1 in integers, and only a kept one becomes a
    Fraction.  It then lies in its dart's bracket j / k <= t <= (j + 1) / k:
    - for t = j/(k-1) that reduces to j <= k - 1;
    - for t = (j+1)/(k+1) it reduces to j <= k.
    """
    if f.is_identity():
        raise NonIsolatedFixedSet(next(iter(f.graph.edges)))
    found: list[tuple[str, Fraction]] = []
    for e in f.graph.edges:
        img = f.edge_map[e]
        if img.is_trivial:
            continue
        k = len(img.darts)
        if k == 1 and img.darts[0] == Dart(e, True):
            continue  # identity edge: perturbed, endpoints only
        spots = set()
        for j, d in enumerate(img.darts):
            if d.name != e:
                continue
            if d.fwd:
                # k t - j = t  (k = 1 aligned is the identity edge, skipped above)
                p, q = j, k - 1
            else:
                # k t - j = 1 - t
                p, q = j + 1, k + 1
            if 0 < p < q:
                spots.add(Fraction(p, q))
        found.extend((e, t) for t in sorted(spots))
    return found


def subdivided_fixed_map(f: GraphMap) -> tuple[GraphMap, list[tuple[str, Fraction]]]:
    """Subdivide at every interior fixed point; afterwards all fixed points are
    vertices (up to the identity-edge perturbation convention).

    A cut point e@t becomes the vertex "e@t" and splits e into the sub-edges
    "e:1", ..., "e:m+1" for m cuts; every cut vertex is fixed.  Let S(e) be
    f(e) with each dart written out as its sub-darts, and k = |f(e)|.  The
    i-th cut t of e (0-based) lands inside dart j = floor(k t) of f(e), and
    that dart is e itself, so the cut sits after start[j] + i + 1 darts of
    S(e) when the dart is e forward and after start[j] + m - i when it is e
    reversed, where start[j] counts the sub-darts of the darts before j.  The
    image of e:i is the slice of S(e) between consecutive cuts.  S(e) is
    tight: the sub-darts of one dart run along it, and a backtrack between
    two darts would be one in f(e).  A slice of a tight path is tight, so the
    integer cut positions are all the arithmetic the images need.
    """
    pts = interior_fixed_points(f)
    if not pts:
        return f, []
    g = f.graph
    cuts: dict[str, list[Fraction]] = {}
    for e, t in pts:
        cuts.setdefault(e, []).append(t)
    vertices = list(g.vertices)
    ends: dict[str, tuple[str, str]] = {}
    sub: dict[Dart, tuple[Dart, ...]] = {}  # each dart of g as its sub-darts
    for e, (u, v) in g.edge_ends.items():
        ts = cuts.get(e, [])
        stops = [u] + [f"{e}@{t}" for t in ts] + [v]
        names = [f"{e}:{i}" for i in range(1, len(stops))] if ts else [e]
        vertices.extend(stops[1:-1])
        for nm, a, b in zip(names, stops, stops[1:]):
            ends[nm] = (a, b)
        sub[Dart(e, True)] = tuple(Dart(nm, True) for nm in names)
        sub[Dart(e, False)] = tuple(Dart(nm, False) for nm in reversed(names))
    vmap = {v: f.vertex_map.get(v, v) for v in vertices}  # cut vertices are fixed
    emap: dict[str, EdgePath] = {}
    for e in g.edges:
        img = f.edge_map[e]
        spelled = tuple(x for d in img.darts for x in sub[d])
        ts = cuts.get(e)
        if not ts:
            emap[e] = EdgePath(spelled, img.at)
            continue
        k, m = len(img.darts), len(ts)
        start = list(accumulate((len(sub[d]) for d in img.darts), initial=0))
        bounds = [0]
        for i, t in enumerate(ts):
            j = int(k * t)
            bounds.append(start[j] + (i + 1 if img.darts[j].fwd else m - i))
        bounds.append(len(spelled))
        for i, (a, b) in enumerate(zip(bounds, bounds[1:]), start=1):
            emap[f"{e}:{i}"] = EdgePath(spelled[a:b])
    out = GraphMap(Graph(tuple(vertices), ends), vmap, emap)
    out.validate()
    left = interior_fixed_points(out)
    if left:
        raise AssertionError(f"subdivision left interior fixed points: {left}")
    return out, pts


# ---------------------------------------------------------------------------
# Fundamental-group bookkeeping.


@dataclass(frozen=True)
class Marking:
    """A marking of pi_1 at `base`: a BFS spanning tree (`parent[v]` is the
    dart at v leading back toward the base) whose non-tree edges index the
    free basis.  `letter_of` gives the signed letter of every dart code, 0 on
    tree darts.  `basis` is None when the graph is a tree."""

    graph: Graph
    base: str
    parent: dict[str, Dart]
    letter_of: dict[int, int]
    basis: Optional[Basis]

    def word(self, codes: Iterable[int]) -> Word:
        """Collapse the tree: one signed letter per non-tree dart code,
        reduced.  Anything but a dart code raises KeyError."""
        letters = (self.letter_of[c] for c in codes)
        return Word(reduce_letters(x for x in letters if x))

    def endo(self, f: GraphMap) -> Endomorphism:
        """The endomorphism f induces on pi_1 at the base, along the tree route
        from the base to its image (a tree route spells the empty word):
        x_e -> [w(f g_u) . w(f e) . w(f g_v)^-1] for each basis edge e = (u, v),
        where g_x is the tree path from the base to x.  The endomorphism along
        a route r, in dart codes, is `endo(f).inner_twist(word(r))`."""
        if self.basis is None:
            raise ValueError("graph is a tree; fundamental group is trivial")
        g, imgs = self.graph, f.image_table
        code = g.code_of
        spell = {self.base: IDENTITY}  # x -> w(f g_x); parents come first
        for v, back in self.parent.items():
            spell[v] = spell[g.terminus(back)] * self.word(imgs[-code[back]])
        images = []
        for e in self.basis.letters:
            u, v = g.edge_ends[e]
            images.append(spell[u] * self.word(imgs[code[Dart(e, True)]]) * spell[v].inverse())
        return Endomorphism(self.basis, tuple(images))


def marking(graph: Graph, base: str) -> Marking:
    if base not in graph.vertices:
        raise ValueError(f"unknown base vertex {base}")
    parent: dict[str, Dart] = {}
    order = [base]  # BFS order; the loop visits vertices as they are appended
    for v in order:
        for d in sorted(graph.darts_at(v), key=lambda d: (d.name, not d.fwd)):
            t = graph.terminus(d)
            if t != base and t not in parent:
                parent[t] = d.rev
                order.append(t)
    if len(order) != len(graph.vertices):
        raise ValueError("graph is not connected")
    tree = {d.name for d in parent.values()}
    names = tuple(e for e in graph.edges if e not in tree)
    letter_of = dict.fromkeys(graph.dart_of, 0)
    for i, e in enumerate(names, start=1):
        k = graph.code_of[Dart(e, True)]
        letter_of[k], letter_of[-k] = i, -i
    return Marking(graph, base, parent, letter_of, Basis(names) if names else None)


def any_route_endo(f: GraphMap, base: Optional[str] = None) -> Endomorphism:
    """Induced endomorphism along the spanning-tree route; injectivity and
    homology data do not depend on the route choice."""
    return marking(f.graph, f.graph.vertices[0] if base is None else base).endo(f)


def ray_images(f: GraphMap, d: Dart) -> Iterator[tuple[int, ...]]:
    """The ray grown from a fixed direction d with Df(d) = d, in dart codes:
    d, [f(d)], [f^2(d)], ..., each extending the one before.  It stops at the
    first image that does not extend its predecessor.

    Only the new darts are mapped: each image is current = [f(prev)] and
    extends prev by some darts S, so [f(current)] = [current . f(S)],
    tightened at the junction."""
    imgs = f.image_table
    current = (f.graph.code_of[d],)
    img: list[int] = []  # [f(current[:done])]
    done = 0
    while True:
        yield current
        for c in current[done:]:
            extend_reduced(img, imgs[c])
        if len(img) <= len(current) or tuple(img[:len(current)]) != current:
            return
        done, current = len(current), tuple(img)
