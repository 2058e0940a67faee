"""Finite graphs with oriented-edge involution and cellular selfmaps.

Oriented edges are (name, sign) pairs ("darts"); the involution flips the
sign.  Edge images are tight edge paths; interior fixed points are located by
the affine model in which each edge is parametrized uniformly over [0,1] and
its image path is traversed at uniform speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Hashable, Iterable, Mapping, NamedTuple, Optional

from .words import Basis, Endomorphism, Word, reduce_letters


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
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        for e, (u, v) in self.edge_ends.items():
            if u not in self.vertices or v not in self.vertices:
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

    def darts(self, names: Optional[Iterable[str]] = None) -> list[Dart]:
        names = self.edges if names is None else names
        return [Dart(e, s) for e in names for s in (True, False)]

    def darts_at(self, v: str, names: Optional[Iterable[str]] = None) -> list[Dart]:
        return [d for d in self.darts(names) if self.origin(d) == v]

    def valence(self, v: str) -> int:
        return len(self.darts_at(v))

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

    def component_of(self, v: str) -> set[str]:
        adj: dict[str, list[str]] = {u: [] for u in self.vertices}
        for a, b in self.edge_ends.values():
            adj[a].append(b)
            adj[b].append(a)
        return reachable(adj, v)

    def is_connected(self) -> bool:
        return not self.vertices or self.component_of(self.vertices[0]) == set(self.vertices)

    def is_circle(self) -> bool:
        return (self.is_connected() and bool(self.edge_ends)
                and all(self.valence(v) == 2 for v in self.vertices))


def tighten(graph: Graph, darts: Iterable[Dart], at: Optional[str] = None) -> EdgePath:
    """Remove all backtracks e.e^-1; the result is tight or trivial."""
    darts = list(darts)
    graph.check_path(darts)
    out: list[Dart] = []
    for d in darts:
        if out and out[-1] == d.rev:
            out.pop()
        else:
            out.append(d)
    if not out:
        if at is None:
            at = graph.origin(darts[0]) if darts else None
        if at is None:
            raise ValueError("cannot tighten an empty sequence without a vertex")
        return trivial_path(at)
    return EdgePath(tuple(out))


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
    def image_table(self) -> dict[Dart, tuple[Dart, ...]]:
        """Image darts of every dart, reversed darts included.  Built on first
        use, so a map can be constructed before it is validated."""
        table: dict[Dart, tuple[Dart, ...]] = {}
        for e in self.graph.edges:
            p = self.edge_map[e]
            table[Dart(e, True)] = p.darts
            table[Dart(e, False)] = p.reverse().darts
        return table

    def cancellation_bound(self) -> int:
        """Bounded cancellation constant C: whenever P and Q are tight paths
        with P.Q tight, at most C darts of [f(P)] cancel against [f(Q)] when
        [f(P)][f(Q)] is tightened.  Valid only when f is pi1-injective.

        C = sum_e |f(e)| - rank(pi1 G) + 1 is the vertex count of the graph G'
        obtained by subdividing each edge e into |f(e)| edges (collapsing it
        when |f(e)| = 0); on a rose it is Endomorphism.cancellation_bound().
        Proof: f factors as G' -> G, sending each edge of G' to one edge of
        G, and that map factors as Stallings folds G' -> Gamma followed by an
        immersion Gamma -> G.  Because f is pi1-injective no fold identifies
        two edges with the same endpoints, so every fold is a homotopy
        equivalence that removes one vertex, and there are at most V(G') - 1
        folds.  Each fold cancels at most one edge at a junction and the
        immersion cancels none.
        """
        g = self.graph
        rank = len(g.edges) - len(g.vertices) + 1
        return max(0, sum(len(p.darts) for p in self.edge_map.values()) - rank + 1)

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

    def identity_edges(self) -> set[str]:
        """Edges mapped to themselves pointwise; treated as perturbed off the
        edge when counting fixed points and expanding tips."""
        return {e for e in self.graph.edges
                if self.edge_map[e].darts == (Dart(e, True),)}


def map_path(f: GraphMap, p: EdgePath) -> EdgePath:
    if p.is_trivial:
        return trivial_path(f.vertex_map[p.at])
    imgs = f.image_table
    out: list[Dart] = []
    for d in p.darts:
        for x in imgs[d]:
            if out and out[-1] == x.rev:
                out.pop()
            else:
                out.append(x)
    if not out:
        return trivial_path(f.vertex_map[f.graph.origin(p.darts[0])])
    return EdgePath(tuple(out))


def derivative(f: GraphMap, d: Dart) -> Optional[Dart]:
    """First dart of the tight image; None for a collapsed edge."""
    img = f.image_table[d]
    return img[0] if img else None


def classify_turn(f: GraphMap, d1: Dart, d2: Dart, max_iter: Optional[int] = None) -> str:
    """legal / illegal / degenerate, decided by iterating the derivative map."""
    if max_iter is None:
        max_iter = (2 * len(f.graph.edges)) ** 2 + 1
    if d1 == d2:
        return "degenerate"
    seen = set()
    a, b = d1, d2
    for _ in range(max_iter):
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
    return "unknown"


def turn_degenerates_in_one_step(f: GraphMap, d1: Dart, d2: Dart) -> bool:
    if d1 == d2:
        return False
    a, b = derivative(f, d1), derivative(f, d2)
    return a is not None and a == b


def fixed_vertices(f: GraphMap) -> list[str]:
    return [v for v in f.graph.vertices if f.vertex_map[v] == v]


def fixed_directions(f: GraphMap, v: str, among: Optional[Iterable[str]] = None) -> list[Dart]:
    """Darts at v fixed by the derivative map, the identity-edge convention
    applied: a pointwise-fixed edge counts at its origin tip only."""
    ident = f.identity_edges()
    out = []
    for d in f.graph.darts_at(v, among):
        if derivative(f, d) != d:
            continue
        if d.name in ident and not d.fwd:
            continue
        out.append(d)
    return out


class NonIsolatedFixedSet(ValueError):
    def __init__(self, edge: str):
        super().__init__(f"non-isolated interior fixed set on edge {edge}")
        self.edge = edge


def interior_fixed_points(f: GraphMap) -> list[tuple[str, Fraction]]:
    """Interior solutions of the affine fixed-point equations, per edge.

    The identity map has no isolated model and is rejected; a single
    pointwise-fixed edge inside a nontrivial map is handled by the perturbation
    convention and contributes nothing here.
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
                t = Fraction(j, k - 1)
            else:
                # k t - j = 1 - t
                t = Fraction(j + 1, k + 1)
            if 0 < t < 1 and Fraction(j, k) <= t <= Fraction(j + 1, k):
                spots.add(t)
        found.extend((e, t) for t in sorted(spots))
    return found


def _point_on_image(f: GraphMap, e: str, t: Fraction) -> tuple[Optional[str], Optional[tuple[str, Fraction]]]:
    """Image of the point e@t: either a vertex name or a point (edge, pos)."""
    img = f.edge_map[e]
    if img.is_trivial:
        return img.at, None
    k = len(img.darts)
    arc = k * t
    j = int(arc)
    if arc == j:  # lands on a junction vertex of the image path
        if j == 0:
            return f.graph.origin(img.darts[0]), None
        return f.graph.terminus(img.darts[j - 1]), None
    local = arc - j
    d = img.darts[j]
    pos = local if d.fwd else 1 - local
    return None, (d.name, pos)


def subdivide_at(f: GraphMap, points: Iterable[tuple[str, Fraction]]) -> GraphMap:
    """Subdivide at interior points (new vertices "e@p/q", sub-edges "e:i") and
    re-express the map; the point set must be closed under f."""
    cuts: dict[str, list[Fraction]] = {}
    for e, t in points:
        if e not in f.graph.edge_ends:
            raise ValueError(f"unknown edge {e}")
        if not 0 < t < 1:
            raise ValueError(f"subdivision point must be interior: {e}@{t}")
        cuts.setdefault(e, [])
        if t not in cuts[e]:
            cuts[e].append(t)
    for e in cuts:
        cuts[e].sort()

    def cut_vertex(e: str, t: Fraction) -> str:
        return f"{e}@{t}"

    g = f.graph
    new_vertices = list(g.vertices)
    new_ends: dict[str, tuple[str, str]] = {}
    sub_names: dict[str, list[str]] = {}
    sub_bounds: dict[str, list[Fraction]] = {}
    for e, (u, v) in g.edge_ends.items():
        ts = cuts.get(e, [])
        if not ts:
            new_ends[e] = (u, v)
            sub_names[e] = [e]
            sub_bounds[e] = [Fraction(0), Fraction(1)]
            continue
        stops = [Fraction(0)] + ts + [Fraction(1)]
        names = [f"{e}:{i}" for i in range(1, len(stops))]
        verts = [u] + [cut_vertex(e, t) for t in ts] + [v]
        new_vertices.extend(verts[1:-1])
        for nm, a, b in zip(names, verts, verts[1:]):
            new_ends[nm] = (a, b)
        sub_names[e] = names
        sub_bounds[e] = stops
    new_graph = Graph(tuple(new_vertices), new_ends)

    def vertex_of_point(e: str, t: Fraction) -> str:
        stops = sub_bounds[e]
        if t == 0:
            return g.edge_ends[e][0]
        if t == 1:
            return g.edge_ends[e][1]
        if t not in stops:
            raise ValueError(f"image point {e}@{t} is not a subdivision point; "
                             "the point set is not closed under the map")
        return cut_vertex(e, t)

    def subpath(e: str, a: Fraction, b: Fraction, forward: bool) -> list[Dart]:
        """Sub-darts of e covering [a,b] (a<b in e's own coordinates)."""
        stops = sub_bounds[e]
        if a not in stops or b not in stops:
            raise ValueError(f"portion [{a},{b}] of {e} does not respect the cuts")
        i, j = stops.index(a), stops.index(b)
        darts = [Dart(sub_names[e][k], True) for k in range(i, j)]
        return darts if forward else [d.rev for d in reversed(darts)]

    def image_portion(e: str, a: Fraction, b: Fraction) -> list[Dart]:
        """Image of e@[a,b] in the subdivided graph, traversed at uniform speed."""
        img = f.edge_map[e]
        k = len(img.darts)
        out: list[Dart] = []
        lo, hi = k * a, k * b
        j = int(lo)
        while Fraction(j) < hi:
            seg_lo, seg_hi = max(lo, Fraction(j)), min(hi, Fraction(j + 1))
            if seg_lo < seg_hi:
                d = img.darts[j]
                u, v = seg_lo - j, seg_hi - j
                if d.fwd:
                    out.extend(subpath(d.name, u, v, True))
                else:
                    out.extend(subpath(d.name, 1 - v, 1 - u, False))
            j += 1
        return out

    new_vmap: dict[str, str] = {}
    for v in g.vertices:
        new_vmap[v] = f.vertex_map[v]
    for e, ts in cuts.items():
        for t in ts:
            vtx, pt = _point_on_image(f, e, t)
            if vtx is None:
                vtx = vertex_of_point(pt[0], pt[1])
            new_vmap[cut_vertex(e, t)] = vtx

    new_emap: dict[str, EdgePath] = {}
    for e in g.edges:
        img = f.edge_map[e]
        stops = sub_bounds[e]
        for nm, a, b in zip(sub_names[e], stops, stops[1:]):
            if img.is_trivial:
                new_emap[nm] = trivial_path(img.at)
                continue
            darts = image_portion(e, a, b)
            origin = new_graph.origin(Dart(nm, True))
            new_emap[nm] = tighten(new_graph, darts, at=new_vmap[origin])
    out = GraphMap(new_graph, new_vmap, new_emap)
    out.validate()
    return out


def subdivided_fixed_map(f: GraphMap) -> tuple[GraphMap, list[tuple[str, Fraction]]]:
    """Subdivide at every interior fixed point; afterwards all fixed points are
    vertices (up to the identity-edge perturbation convention)."""
    pts = interior_fixed_points(f)
    if not pts:
        return f, []
    g = subdivide_at(f, pts)
    left = interior_fixed_points(g)
    if left:
        raise AssertionError(f"subdivision left interior fixed points: {left}")
    return g, pts


# ---------------------------------------------------------------------------
# Fundamental-group bookkeeping.


@dataclass
class SpanningData:
    """A spanning tree rooted at `base`; non-tree edges index the free basis."""

    graph: Graph
    base: str
    tree_darts: set[Dart] = field(default_factory=set)
    parent: dict[str, Dart] = field(default_factory=dict)  # dart leading back toward base
    basis_edges: list[str] = field(default_factory=list)
    letter_of: dict[str, int] = field(default_factory=dict)  # basis edge -> letter
    basis: Basis = None

    def tree_path(self, src: str, dst: str) -> EdgePath:
        """The unique tight tree path between two vertices."""
        def to_base(v: str) -> list[Dart]:
            out = []
            while v != self.base:
                d = self.parent[v]
                out.append(d)
                v = self.graph.terminus(d)
            return out
        up, down = to_base(src), to_base(dst)
        darts = up + [d.rev for d in reversed(down)]
        return tighten(self.graph, darts, at=src)

    def word_of_path(self, p: EdgePath) -> Word:
        """Collapse the spanning tree: emit one signed letter per non-tree dart."""
        letter_of = self.letter_of
        return Word(reduce_letters(
            letter_of[d.name] if d.fwd else -letter_of[d.name]
            for d in p.darts if d.name in letter_of))

    def basis_loop(self, e: str) -> EdgePath:
        d = Dart(e, True)
        a = self.tree_path(self.base, self.graph.origin(d))
        b = self.tree_path(self.graph.terminus(d), self.base)
        return tighten(self.graph, a.darts + (d,) + b.darts, at=self.base)


def spanning_data(graph: Graph, base: str) -> SpanningData:
    if base not in graph.vertices:
        raise ValueError(f"unknown base vertex {base}")
    data = SpanningData(graph, base)
    seen = {base}
    queue = [base]
    while queue:
        v = queue.pop(0)
        for d in sorted(graph.darts_at(v), key=lambda d: (d.name, not d.fwd)):
            t = graph.terminus(d)
            if t not in seen:
                seen.add(t)
                data.tree_darts.add(d)
                data.tree_darts.add(d.rev)
                data.parent[t] = d.rev
                queue.append(t)
    if seen != set(graph.vertices):
        raise ValueError("graph is not connected")
    data.basis_edges = [e for e in graph.edges
                        if Dart(e, True) not in data.tree_darts]
    data.letter_of = {e: i for i, e in enumerate(data.basis_edges, start=1)}
    data.basis = Basis(tuple(data.basis_edges)) if data.basis_edges else None
    return data


def induced_endo(f: GraphMap, base: str, route: EdgePath) -> Endomorphism:
    """The route-induced endomorphism of pi_1: [a] -> [route (f.a) route^-1]."""
    g = f.graph
    r_from, r_to = g.path_endpoints(route)
    if r_from != base or r_to != f.vertex_map[base]:
        raise ValueError("route must run from the base to its image")
    data = spanning_data(g, base)
    if data.basis is None:
        raise ValueError("graph is a tree; fundamental group is trivial")
    rev = route.reverse()
    images = []
    for e in data.basis_edges:
        loop = data.basis_loop(e)
        img = map_path(f, loop)
        total = tighten(g, route.darts + img.darts + rev.darts, at=base)
        images.append(data.word_of_path(total))
    return Endomorphism(data.basis, tuple(images))


def trivial_route_endo(f: GraphMap, base: str) -> Endomorphism:
    return induced_endo(f, base, trivial_path(base))


def any_route_endo(f: GraphMap, base: Optional[str] = None) -> Endomorphism:
    """Induced endomorphism along the spanning-tree route; injectivity and
    homology data do not depend on the route choice."""
    if base is None:
        base = f.graph.vertices[0]
    data = spanning_data(f.graph, base)
    route = data.tree_path(base, f.vertex_map[base])
    return induced_endo(f, base, route)


def circle_degree(f: GraphMap) -> int:
    """Signed winding degree of a selfmap of a circle graph."""
    if not f.graph.is_circle():
        raise ValueError("graph is not a circle")
    phi = any_route_endo(f)
    if phi.rank != 1:
        raise AssertionError("circle has cyclic fundamental group")
    return sum(1 if x > 0 else -1 for x in phi.images[0].letters)
