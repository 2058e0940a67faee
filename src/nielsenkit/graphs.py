"""Finite graphs with oriented-edge involution and cellular selfmaps.

Oriented edges are (name, sign) pairs ("darts"); the involution flips the
sign.  Maps and paths are computed on dart codes, the way words code
letters: the k-th edge (from 1) is k forward and -k reversed
(Graph.dart_of), so reversal is `-c`.  A graph map stores its edge images
as one table of codes (GraphMap.image_table), and fixed directions, rays,
paths and markings are codes too; a code becomes a Dart only where a
message or a report spells it (Graph.dart_of, Graph.path).  Interior fixed
points are located by the affine model in which each edge is parametrized
uniformly over [0,1] and its image path is traversed at uniform speed.

The map is cut at its interior fixed points only, and each sub-edge image is
a slice, at integer positions, of the parent edge's image spelled in
sub-darts; a slice of a tight path is tight (see subdivided_fixed_map).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, islice
from types import MappingProxyType
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple, Optional

from .words import (IDENTITY, Basis, Endomorphism, Word, extend_reduced, reduce_letters,
                    stallings_fold)


class Dart(NamedTuple):
    name: str
    fwd: bool

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

    @cached_property
    def edges(self) -> tuple[str, ...]:
        return tuple(self.edge_ends)

    @cached_property
    def edge_code(self) -> dict[str, int]:
        """The code of the forward dart of each edge."""
        return {e: k for k, e in enumerate(self.edge_ends, start=1)}

    @cached_property
    def code_ends(self) -> dict[int, tuple[str, str]]:
        """(origin, terminus) of the dart of each code."""
        out: dict[int, tuple[str, str]] = {}
        for k, (u, v) in enumerate(self.edge_ends.values(), start=1):
            out[k] = (u, v)
            out[-k] = (v, u)
        return out

    @cached_property
    def dart_of(self) -> dict[int, Dart]:
        """The dart of each code: the k-th edge is k forward and -k reversed,
        so the petals of a rose (io.rose_map) are coded by their letters."""
        return {s * k: Dart(e, s > 0)
                for k, e in enumerate(self.edges, start=1) for s in (1, -1)}

    @cached_property
    def code_of(self) -> dict[Dart, int]:
        return {d: c for c, d in self.dart_of.items()}

    @cached_property
    def dart_rank(self) -> dict[int, int]:
        """Each code's place among all darts in the order of (name, not fwd):
        tuples of ranks sort as the tuples of darts they code."""
        out: dict[int, int] = {}
        for i, e in enumerate(sorted(self.edges)):
            k = self.edge_code[e]
            out[k], out[-k] = 2 * i, 2 * i + 1
        return out

    def path(self, codes: Iterable[int]) -> EdgePath:
        """The edge path of a nonempty sequence of dart codes."""
        return EdgePath(tuple(map(self.dart_of.__getitem__, codes)))

    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edge_ends)

    def check_path(self, darts: Iterable[Dart]) -> None:
        """Raise on the first dart that names an unknown edge or does not
        follow the dart before it."""
        code, ends = self.code_of, self.code_ends
        prev: Optional[Dart] = None
        for d in darts:
            if d.name not in self.edge_ends:
                raise ValueError(f"unknown edge {d.name}")
            if prev is not None and ends[code[prev]][1] != ends[code[d]][0]:
                raise ValueError(f"edges not adjacent: {prev} then {d}")
            prev = d

    def is_connected(self) -> bool:
        succ: dict[str, list[str]] = {v: [] for v in self.vertices}
        for u, v in self.edge_ends.values():
            succ[u].append(v)
            succ[v].append(u)
        return not self.vertices or reachable(succ, self.vertices[0]) == set(self.vertices)


class GraphMap:
    """A cellular selfmap: vertex images plus tight edge images, stored as
    one table of dart codes.

    image_table[c] is the tight image of the dart coded c (Graph.dart_of),
    reversed darts included, as Endomorphism.image_table keeps letters: a
    rose map's table is its endomorphism's (io.rose_map).  edge_map is a
    read-only view of the same images as EdgePaths: edge_map[e] is the image
    of the forward dart of e, and a trivial image carries its vertex.

    GraphMap(graph, vertex_map, edge_map) converts the EdgePaths to codes
    once; from_table takes a table as it is.  A map can be built before it
    is validated: an image that is missing or names an unknown edge is kept
    aside, as is the vertex of each trivial image, for validate to report.
    """

    def __init__(self, graph: Graph, vertex_map: dict[str, str],
                 edge_map: Mapping[str, EdgePath]):
        code = graph.code_of
        table: dict[int, tuple[int, ...]] = {}
        at: dict[str, Optional[str]] = {}
        unread: dict[str, Optional[EdgePath]] = {}
        for k, e in enumerate(graph.edges, start=1):
            p = edge_map.get(e)
            img = None if p is None else tuple(code.get(d, 0) for d in p.darts)
            if img is None or 0 in img:  # missing, or naming an unknown edge
                unread[e] = p
                img = ()
            elif not img:
                at[e] = p.at
            table[k] = img
            table[-k] = tuple(-x for x in reversed(img))
        self._set(graph, vertex_map, table, at, unread)

    @classmethod
    def from_table(cls, graph: Graph, vertex_map: dict[str, str],
                   table: dict[int, tuple[int, ...]]) -> "GraphMap":
        """The map whose image_table is `table`, which holds both signs of
        every code and is kept, not copied.  A trivial image sits at the
        image of its edge's origin."""
        f = cls.__new__(cls)
        f._set(graph, vertex_map, table, {}, {})
        return f

    def _set(self, graph, vertex_map, table, at, unread) -> None:
        self.graph = graph
        self.vertex_map = vertex_map
        self.image_table = table
        self._at = at
        self._unread = unread

    def _trivial_at(self, e: str) -> Optional[str]:
        if e in self._at:
            return self._at[e]
        return self.vertex_map.get(self.graph.edge_ends[e][0])

    @cached_property
    def edge_map(self) -> Mapping[str, EdgePath]:
        """The image of the forward dart of each edge, read-only.  An image
        that was missing is absent, and one that names an unknown edge is
        as it was given."""
        g, table = self.graph, self.image_table
        out: dict[str, EdgePath] = {}
        for e, k in g.edge_code.items():
            if e in self._unread:
                if self._unread[e] is not None:
                    out[e] = self._unread[e]
            elif table[k]:
                out[e] = g.path(table[k])
            else:
                out[e] = trivial_path(self._trivial_at(e))
        return MappingProxyType(out)

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
        g, vmap, table = self.graph, self.vertex_map, self.image_table
        for v in g.vertices:
            if vmap.get(v) not in g.vertices:
                raise ValueError(f"vertex {v} has no valid image")
        ends = g.code_ends
        for k, (e, (u, v)) in enumerate(g.edge_ends.items(), start=1):
            if e in self._unread:
                p = self._unread[e]
                if p is None:
                    raise ValueError(f"edge {e} has no image")
                g.check_path(p.darts)  # raises on the unknown edge or before it
                raise ValueError(f"image of {e} is not an edge path")
            img = table[k]
            if not img:
                at = self._trivial_at(e)
                if at != vmap[u] or at != vmap[v]:
                    raise ValueError(f"trivial image of {e} sits at the wrong vertex")
                continue
            for a, b in zip(img, img[1:]):
                if ends[a][1] != ends[b][0]:
                    raise ValueError(f"edges not adjacent: {g.dart_of[a]} then {g.dart_of[b]}")
            if any(a == -b for a, b in zip(img, img[1:])):
                raise ValueError(f"image of {e} is not tight")
            if ends[img[0]][0] != vmap[u]:
                raise ValueError(f"image of {e} starts at the wrong vertex")
            if ends[img[-1]][1] != vmap[v]:
                raise ValueError(f"image of {e} ends at the wrong vertex")

    def is_identity(self) -> bool:
        vmap, table = self.vertex_map, self.image_table
        return (all(vmap[v] == v for v in self.graph.vertices)
                and all(table[k] == (k,) for k in range(1, len(self.graph.edge_ends) + 1)))

    @cached_property
    def derivative_table(self) -> dict[int, Optional[int]]:
        """The first dart of the tight image of every dart, in codes; None
        for a collapsed edge."""
        return {c: img[0] if img else None for c, img in self.image_table.items()}

    @cached_property
    def crossed_edges(self) -> dict[str, frozenset[str]]:
        """The edges that the image of each edge crosses."""
        edges, table = self.graph.edges, self.image_table
        return {e: frozenset(edges[abs(c) - 1] for c in table[k])
                for k, e in enumerate(edges, start=1)}

    @cached_property
    def fixed_darts(self) -> dict[str, tuple[int, ...]]:
        """The codes of the darts fixed by the derivative map, by origin, in
        edge order and forward before reversed, the identity-edge convention
        applied: a pointwise-fixed edge counts at its origin tip only."""
        table, deriv = self.image_table, self.derivative_table
        at: dict[str, list[int]] = {}
        for k, (u, v) in enumerate(self.graph.edge_ends.values(), start=1):
            if deriv[k] == k:
                at.setdefault(u, []).append(k)
            if deriv[-k] == -k and table[k] != (k,):
                at.setdefault(v, []).append(-k)
        return {v: tuple(cs) for v, cs in at.items()}


def classify_turn(f: GraphMap, c1: int, c2: int) -> str:
    """legal / illegal / degenerate for the turn of the darts coded c1 and
    c2, decided by iterating the derivative map.

    Each pass either returns or records a new unordered pair of darts, so the
    loop ends within D(D-1)/2 + 1 passes for D darts."""
    if c1 == c2:
        return "degenerate"
    deriv = f.derivative_table
    seen = set()
    a, b = c1, c2
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
        a, b = deriv[a], deriv[b]


def turn_degenerates_in_one_step(f: GraphMap, c1: int, c2: int) -> bool:
    """Whether the derivative sends the distinct darts coded c1 and c2 to
    one dart."""
    if c1 == c2:
        return False
    a = f.derivative_table[c1]
    return a is not None and a == f.derivative_table[c2]


def fixed_vertices(f: GraphMap) -> list[str]:
    return [v for v in f.graph.vertices if f.vertex_map[v] == v]


def fixed_directions(f: GraphMap, v: str, among: Optional[Iterable[str]] = None) -> list[int]:
    """The codes of the darts at v fixed by the derivative map, the
    identity-edge convention applied (GraphMap.fixed_darts); with `among`,
    only those of its edges, in its order and forward before reversed."""
    fixed = f.fixed_darts.get(v, ())
    if among is None or not fixed:
        return list(fixed)
    return [c for k in map(f.graph.edge_code.__getitem__, among) for c in fixed if abs(c) == k]


class NonIsolatedFixedSet(ValueError):
    def __init__(self, edge: str):
        super().__init__(f"non-isolated interior fixed set on edge {edge}")
        self.edge = edge


def _interior_cuts(f: GraphMap) -> list[tuple[str, int, list[tuple[int, int, int]]]]:
    """(e, k, cuts) for each edge e, coded k, that holds an interior fixed
    point: one (j, p, q) per fixed point t = p / q, j the dart of f(e) that
    holds it, in increasing j and t (interior_fixed_points).  The identity
    map is rejected."""
    if f.is_identity():
        raise NonIsolatedFixedSet(next(iter(f.graph.edges)))
    table = f.image_table
    found = []
    for k, e in enumerate(f.graph.edges, start=1):
        img = table[k]
        n = len(img)
        cuts = []
        for j, c in enumerate(img):
            if c == k:
                if 0 < j < n - 1:  # n t - j = t
                    cuts.append((j, j, n - 1))
            elif c == -k:  # n t - j = 1 - t
                cuts.append((j, j + 1, n + 1))
        if cuts:
            found.append((e, k, cuts))
    return found


def interior_fixed_points(f: GraphMap) -> list[tuple[str, Fraction]]:
    """Interior solutions of the affine fixed-point equations, per edge, in
    increasing order.

    The identity map has no isolated model and is rejected; a single
    pointwise-fixed edge inside a nontrivial map is handled by the perturbation
    convention and contributes nothing here.  Dart j of f(e), k = |f(e)|,
    covers j / k <= t <= (j + 1) / k, where a fixed point solves k t - j = t
    if the dart is e and k t - j = 1 - t if it is e reversed:
    - t = j / (k - 1) lies in (0, 1) iff 0 < j < k - 1, and then
      j / k <= t < (j + 1) / k; a pointwise-fixed edge (k = 1) has none;
    - t = (j + 1) / (k + 1) lies in (0, 1) and j / k <= t < (j + 1) / k
      for every j < k.
    So the test is on integers, and the fixed points of an edge increase
    with j, each in a half-open bracket of its own; only a kept one becomes
    a Fraction.
    """
    return [(e, Fraction(p, q)) for e, _, cuts in _interior_cuts(f) for _, p, q in cuts]


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
    integer cut positions are all the arithmetic the images need, and the
    image table is built in dart codes, edge by edge in the order of f's.
    """
    found = _interior_cuts(f)
    if not found:
        return f, []
    g, table = f.graph, f.image_table
    pts = [(e, Fraction(p, q)) for e, _, cuts in found for _, p, q in cuts]
    cuts_of = {k: cuts for _, k, cuts in found}
    stops_at = iter(f"{e}@{t}" for e, t in pts)
    vertices = list(g.vertices)
    ends: dict[str, tuple[str, str]] = {}
    sub: dict[int, tuple[int, ...]] = {}  # each dart code of f as its sub-dart codes
    n = 0
    for k, (e, (u, v)) in enumerate(g.edge_ends.items(), start=1):
        m = len(cuts_of.get(k, ()))
        if m:
            stops = [u, *islice(stops_at, m), v]
            vertices.extend(stops[1:-1])
            for i in range(1, m + 2):
                ends[f"{e}:{i}"] = (stops[i - 1], stops[i])
        else:
            ends[e] = (u, v)
        sub[k] = tuple(range(n + 1, n + m + 2))
        sub[-k] = tuple(range(-n - m - 1, -n))
        n += m + 1
    images: dict[int, tuple[int, ...]] = {}
    for k in range(1, len(g.edge_ends) + 1):
        img = table[k]
        spelled = tuple(x for c in img for x in sub[c])
        cuts = cuts_of.get(k)
        if cuts is None:
            pieces = [spelled]
        else:
            m = len(cuts)
            start = list(accumulate((len(sub[c]) for c in img), initial=0))
            bounds = [0]
            for i, (j, _, _) in enumerate(cuts):
                bounds.append(start[j] + (i + 1 if img[j] > 0 else m - i))
            bounds.append(len(spelled))
            pieces = [spelled[a:b] for a, b in zip(bounds, bounds[1:])]
        for x, piece in zip(sub[k], pieces):
            images[x] = piece
            images[-x] = tuple(-y for y in reversed(piece))
    vmap = {v: f.vertex_map.get(v, v) for v in vertices}  # cut vertices are fixed
    out = GraphMap.from_table(Graph(tuple(vertices), ends), vmap, images)
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
    code of the dart at v leading back toward the base) whose non-tree edges
    index the free basis.  `letter_of` gives the signed letter of every dart
    code, 0 on tree darts.  `basis` is None when the graph is a tree."""

    graph: Graph
    base: str
    parent: dict[str, int]
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
        ends = g.code_ends
        spell = {self.base: IDENTITY}  # x -> w(f g_x); parents come first
        for v, back in self.parent.items():
            spell[v] = spell[ends[back][1]] * self.word(imgs[-back])
        images = []
        for e in self.basis.letters:
            u, v = g.edge_ends[e]
            images.append(spell[u] * self.word(imgs[g.edge_code[e]]) * spell[v].inverse())
        return Endomorphism(self.basis, tuple(images))


def marking(graph: Graph, base: str) -> Marking:
    """The marking at `base` whose tree is grown breadth first, each vertex
    trying its darts in the order of Graph.dart_rank."""
    if base not in graph.vertices:
        raise ValueError(f"unknown base vertex {base}")
    ends, rank = graph.code_ends, graph.dart_rank
    out_of: dict[str, list[int]] = {v: [] for v in graph.vertices}
    for c in sorted(ends, key=rank.__getitem__):
        out_of[ends[c][0]].append(c)
    parent: dict[str, int] = {}
    order = [base]  # BFS order; the loop visits vertices as they are appended
    for v in order:
        for c in out_of[v]:
            t = ends[c][1]
            if t != base and t not in parent:
                parent[t] = -c
                order.append(t)
    if len(order) != len(graph.vertices):
        raise ValueError("graph is not connected")
    tree = {abs(c) for c in parent.values()}
    names = tuple(e for e, k in graph.edge_code.items() if k not in tree)
    letter_of = dict.fromkeys(ends, 0)
    for i, e in enumerate(names, start=1):
        k = graph.edge_code[e]
        letter_of[k], letter_of[-k] = i, -i
    return Marking(graph, base, parent, letter_of, Basis(names) if names else None)


def any_route_endo(f: GraphMap, base: Optional[str] = None) -> Endomorphism:
    """Induced endomorphism along the spanning-tree route; injectivity and
    homology data do not depend on the route choice."""
    return marking(f.graph, f.graph.vertices[0] if base is None else base).endo(f)


def ray_images(f: GraphMap, d: int) -> Iterator[tuple[int, ...]]:
    """The ray grown from the fixed direction coded d, Df(d) = d, in dart
    codes: d, [f(d)], [f^2(d)], ..., each extending the one before.  It
    stops at the first image that does not extend its predecessor.

    Only the new darts are mapped: each image is current = [f(prev)] and
    extends prev by some darts S, so [f(current)] = [current . f(S)],
    tightened at the junction."""
    imgs = f.image_table
    current = (d,)
    img: list[int] = []  # [f(current[:done])]
    done = 0
    while True:
        yield current
        for c in current[done:]:
            extend_reduced(img, imgs[c])
        if len(img) <= len(current) or tuple(img[:len(current)]) != current:
            return
        done, current = len(current), tuple(img)
