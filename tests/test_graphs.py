from fractions import Fraction
from typing import Iterable, Optional

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import identity_endo, map_path, rose
from nielsenkit.graphs import (
    Dart,
    EdgePath,
    Graph,
    GraphMap,
    NonIsolatedFixedSet,
    any_route_endo,
    classify_turn,
    derivative,
    fixed_directions,
    fixed_vertices,
    interior_fixed_points,
    marking,
    subdivided_fixed_map,
    trivial_path,
)
from nielsenkit.io import corpus_files, endo_from_json, graph_map_from_json, rose_map
from nielsenkit.sampling import random_injective_endos
from nielsenkit.words import Endomorphism, default_basis

ex1 = rose({"a": ["a", "a"], "b": ["b", "b"]})
ex2 = rose({"a1": ["a1"], "a2": ["a2-", "a1", "a2"]})
ex3 = rose({"a": ["b"], "b": ["a-"]})
ex4 = rose({"a": ["a-"], "b": ["a-", "b", "b"]})
derived = rose({"a": ["a"], "b": ["b", "a"]})


def darts(*tokens):
    from nielsenkit.graphs import parse_dart

    return tuple(parse_dart(t) for t in tokens)


def codes(graph: Graph, darts_: Iterable[Dart]) -> list[int]:
    return [graph.code_of[d] for d in darts_]


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


class TestTighten:
    def test_backtrack(self):
        g = ex1.graph
        p = tighten(g, darts("a", "a-"))
        assert p.is_trivial and p.at == "*"

    def test_already_tight(self):
        g = ex1.graph
        p = tighten(g, darts("a", "b", "a-"))
        assert p.darts == darts("a", "b", "a-")

    def test_idempotent(self):
        g = ex1.graph
        seq = darts("a", "b", "b-", "b", "a-", "a")
        once = tighten(g, seq)
        assert tighten(g, once.darts) == once

    def test_rotation_image(self):
        # image of the loop a.b under a->b, b->a^-1 is already tight
        p = map_path(ex3, EdgePath(darts("a", "b")))
        assert p.darts == darts("b", "a-")


class TestMapPath:
    def test_identity(self):
        ident = rose({"a": ["a"], "b": ["b"]})
        p = EdgePath(darts("a", "b", "a-"))
        assert map_path(ident, p) == p

    def test_nielsen_path_of_derived_map(self):
        p = EdgePath(darts("b", "a", "b-"))
        assert map_path(derived, p) == p

    def test_doubling(self):
        assert map_path(ex1, EdgePath(darts("a"))).darts == darts("a", "a")

    def test_trivial_path(self):
        assert map_path(ex1, trivial_path("*")) == trivial_path("*")

    def test_composition(self):
        p = EdgePath(darts("a", "b", "a-", "b"))
        twice = map_path(ex3, map_path(ex3, p))
        composed = GraphMap(
            ex3.graph, ex3.vertex_map,
            {e: map_path(ex3, ex3.edge_map[e]) for e in ex3.graph.edges})
        assert map_path(composed, p) == twice


class TestImageTable:
    """A graph map keeps one image table, in dart codes, with the shape of
    Endomorphism.image_table."""

    def test_codes(self):
        g = ex4.graph
        assert g.dart_of == {1: Dart("a", True), -1: Dart("a", False),
                             2: Dart("b", True), -2: Dart("b", False)}
        assert all(g.code_of[d] == c and g.code_of[d.rev] == -c for c, d in g.dart_of.items())

    @pytest.mark.parametrize("rank, max_len, seed", [(1, 4, 1), (2, 4, 1), (2, 6, 2), (3, 3, 1)])
    def test_rose_map_keeps_the_endomorphism_table(self, rank, max_len, seed):
        gen = random_injective_endos(rank, max_len, seed)
        for _ in range(100):
            phi = next(gen)
            assert rose_map(phi).image_table == phi.image_table, phi.images

    def test_trivial_image(self):
        b = default_basis(3)
        phi = Endomorphism(b, (b.parse("ab"), b.parse(""), b.parse("Cab")))
        table = rose_map(phi).image_table
        assert table == phi.image_table
        assert table[2] == table[-2] == () and table[-3] == (-2, -1, 3)

    def test_matches_edge_map(self):
        # Off the rose too: each dart's entry codes its image from edge_map.
        for f in marked_maps():
            g = f.graph
            for c, d in g.dart_of.items():
                assert f.image_table[c] == tuple(codes(g, map_path(f, EdgePath((d,))).darts))


class TestDerivative:
    def test_conjugating(self):
        assert derivative(ex2, Dart("a2", False)) == Dart("a2", False)
        assert derivative(ex2, Dart("a2", True)) == Dart("a2", False)

    def test_rotation(self):
        assert derivative(ex3, Dart("a", True)) == Dart("b", True)

    def test_trivial_image(self):
        collapsing = rose({"a": ["a"], "b": []})
        assert derivative(collapsing, Dart("b", True)) is None

    def test_involution_compatibility(self):
        for f in (ex1, ex2, ex3, ex4, derived):
            for e in f.graph.edges:
                img = f.edge_map[e]
                if img.is_trivial:
                    continue
                assert derivative(f, Dart(e, False)) == img.darts[-1].rev


class TestTurns:
    def test_degenerate(self):
        assert classify_turn(ex1, Dart("a", True), Dart("a", True)) == "degenerate"

    def test_illegal_in_derived(self):
        assert classify_turn(derived, Dart("a", False), Dart("b", False)) == "illegal"

    def test_legal_in_doubling(self):
        assert classify_turn(ex1, Dart("a", True), Dart("b", True)) == "legal"

    def test_stable_under_longer_iteration(self):
        # classify_turn stops at the first repeated dart pair; iterating the
        # derivative 4(D^2 + 1) times without that stop gives the same verdict
        def reference(f, a, b, steps):
            if a == b:
                return "degenerate"
            for _ in range(steps):
                if a is None or b is None:
                    return "degenerate" if a is None and b is None else "legal"
                if a == b:
                    return "illegal"
                a, b = derivative(f, a), derivative(f, b)
            return "legal"

        for f in (ex1, ex2, ex3, ex4, derived):
            ds = f.graph.darts()
            steps = 4 * (len(ds) ** 2 + 1)
            for i in range(len(ds)):
                for j in range(i, len(ds)):
                    a, b = ds[i], ds[j]
                    assert classify_turn(f, a, b) == reference(f, a, b, steps)


class TestFixedData:
    def test_fixed_vertices(self):
        assert fixed_vertices(ex1) == ["*"]

    def test_doubling_delta(self):
        assert len(fixed_directions(ex1, "*")) == 4  # 2n for n = 2

    def test_conjugating_delta_on_top_stratum(self):
        assert fixed_directions(ex2, "*", ["a2"]) == [Dart("a2", False)]

    def test_rotation_no_fixed_directions(self):
        assert fixed_directions(ex3, "*") == []

    def test_identity_edge_counts_once(self):
        assert fixed_directions(ex2, "*", ["a1"]) == [Dart("a1", True)]


class TestInteriorFixedPoints:
    def test_jiang(self):
        assert interior_fixed_points(ex4) == [
            ("a", Fraction(1, 2)), ("b", Fraction(1, 2))]

    def test_doubling_has_none(self):
        assert interior_fixed_points(ex1) == []

    def test_identity_rejected(self):
        with pytest.raises(NonIsolatedFixedSet):
            interior_fixed_points(rose({"a": ["a"], "b": ["b"]}))

    def test_flip(self):
        assert interior_fixed_points(rose({"e": ["e-"]})) == [("e", Fraction(1, 2))]

    def test_triple(self):
        assert interior_fixed_points(rose({"e": ["e", "e", "e"]})) == [
            ("e", Fraction(1, 2))]

    def test_identity_edge_skipped(self):
        # a is pointwise fixed but the map is not the identity: perturbed away
        assert interior_fixed_points(ex2) == [("a2", Fraction(1, 4))]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_fraction_reference(self, data):
        f = data.draw(tight_maps())
        assume(not f.is_identity())
        assert interior_fixed_points(f) == reference_interior_fixed_points(f)


def reference_interior_fixed_points(f: GraphMap) -> list[tuple[str, Fraction]]:
    """interior_fixed_points in Fraction arithmetic: the cut of dart j of
    f(e), k = |f(e)|, solves k t - j = t when the dart is e and
    k t - j = 1 - t when it is e reversed, and is kept when it lies in
    (0, 1) and in [j / k, (j + 1) / k]."""
    found = []
    for e in f.graph.edges:
        img = f.edge_map[e].darts
        k = len(img)
        if not img or img == (Dart(e, True),):
            continue
        spots = set()
        for j, d in enumerate(img):
            if d.name == e:
                t = Fraction(j, k - 1) if d.fwd else Fraction(j + 1, k + 1)
                if 0 < t < 1 and Fraction(j, k) <= t <= Fraction(j + 1, k):
                    spots.add(t)
        found.extend((e, t) for t in sorted(spots))
    return found


@st.composite
def tight_maps(draw) -> GraphMap:
    """A map with random tight edge images, on a rose with 1 to 3 petals or
    on the theta graph u =p,q,r= v, where a tight path from f(u) ends at
    f(u) exactly when it has even length."""
    if draw(st.booleans()):
        names = ("a", "b", "c")[:draw(st.integers(1, 3))]
        g = Graph(("*",), {e: ("*", "*") for e in names})
        vmap = {"*": "*"}
        lengths = {e: draw(st.integers(0, 7)) for e in names}
    else:
        g = Graph(("u", "v"), {"p": ("u", "v"), "q": ("u", "v"), "r": ("u", "v")})
        vmap = {"u": draw(st.sampled_from("uv")), "v": draw(st.sampled_from("uv"))}
        odd = vmap["u"] != vmap["v"]
        lengths = {e: 2 * draw(st.integers(0, 3)) + odd for e in g.edges}
    emap = {}
    for e, (u, _) in g.edge_ends.items():
        walk: list[Dart] = []
        at = vmap[u]
        for _ in range(lengths[e]):
            options = [d for d in g.darts_at(at) if not walk or d != walk[-1].rev]
            walk.append(draw(st.sampled_from(options)))
            at = g.terminus(walk[-1])
        emap[e] = EdgePath(tuple(walk)) if walk else trivial_path(vmap[u])
    f = GraphMap(g, vmap, emap)
    f.validate()
    return f


class TestSubdivision:
    def test_jiang_subdivided_map(self):
        g, pts = subdivided_fixed_map(ex4)
        assert pts == [("a", Fraction(1, 2)), ("b", Fraction(1, 2))]
        em = {e: tuple(str(d) for d in g.edge_map[e].darts) for e in g.graph.edges}
        assert em == {
            "a:1": ("a:2-",),
            "a:2": ("a:1-",),
            "b:1": ("a:2-", "a:1-", "b:1"),
            "b:2": ("b:2", "b:1", "b:2"),
        }
        assert g.vertex_map == {"*": "*", "a@1/2": "a@1/2", "b@1/2": "b@1/2"}

    def test_no_points_after(self):
        for f in (ex2, ex4, rose({"e": ["e-", "e-"]})):
            g, _ = subdivided_fixed_map(f)
            assert interior_fixed_points(g) == []

    def test_validates(self):
        g, _ = subdivided_fixed_map(rose({"a": ["b", "a", "a"], "b": ["b"]}))
        g.validate()

    def test_slices_spell_the_image(self):
        # Each sub-edge's image is a slice of f(e) spelled in sub-darts; the
        # slices of e:1, ..., e:m+1 concatenate to the whole of it.
        checked = 0
        for f in subdivision_maps():
            g, pts = subdivided_fixed_map(f)
            g.validate()
            cut = {e for e, _ in pts}
            for e, t in pts:
                assert g.vertex_map[f"{e}@{t}"] == f"{e}@{t}"
            parts = {e: [e] if e not in cut else
                     [x for x in g.graph.edges if x.rsplit(":", 1)[0] == e]
                     for e in f.graph.edges}

            def spell(d):
                sub = [Dart(x, True) for x in parts[d.name]]
                return sub if d.fwd else [x.rev for x in reversed(sub)]

            for e in f.graph.edges:
                whole = [x for d in f.edge_map[e].darts for x in spell(d)]
                pieces = [x for p in parts[e] for x in g.edge_map[p].darts]
                assert pieces == whole
            checked += bool(pts)
        assert checked > 500


def subdivision_maps():
    """Seeded rank-2 (images of length <= 4, seeds 1 and 2) and rank-3
    (length <= 3) roses, the multi-vertex maps of test_multivertex, and a
    theta map that flips every edge, with two cuts on one of them."""
    from test_multivertex import theta_collapse, theta_swap

    maps = []
    for rank, max_len, seed, count in ((2, 4, 1, 300), (2, 4, 2, 300), (3, 3, 1, 150)):
        gen = random_injective_endos(rank, max_len, seed)
        maps.extend(rose_map(next(gen)) for _ in range(count))
    flip = GraphMap(
        Graph(("u", "v"), {"p": ("u", "v"), "q": ("u", "v"), "r": ("u", "v")}),
        {"u": "v", "v": "u"},
        {"p": EdgePath(darts("p-")), "q": EdgePath(darts("q-", "p", "q-")),
         "r": EdgePath(darts("r-"))})
    flip.validate()
    maps += [theta_swap(), theta_collapse(), flip]
    return [f for f in maps if not f.is_identity()]


def tree_path(m, src: str, dst: str) -> list:
    """The tree path of marking m from src to dst (tight after `tighten`)."""
    def to_base(v):
        out = []
        while v != m.base:
            out.append(m.parent[v])
            v = m.graph.terminus(m.parent[v])
        return out
    return to_base(src) + [d.rev for d in reversed(to_base(dst))]


def induced_endo(f: GraphMap, base: str, route: EdgePath) -> Endomorphism:
    """Reference for `Marking.endo`, computed on tight dart paths: the
    route-induced endomorphism [a] -> [route (f.a) route^-1], with each basis
    loop built, mapped and conjugated by the route as an edge path."""
    g = f.graph
    assert g.path_endpoints(route) == (base, f.vertex_map[base])
    m = marking(g, base)
    images = []
    for e in m.basis.letters:
        u, v = g.edge_ends[e]
        loop = tighten(g, tree_path(m, base, u) + [Dart(e, True)] + tree_path(m, v, base),
                       at=base)
        img = map_path(f, loop)
        total = tighten(g, route.darts + img.darts + route.reverse().darts, at=base)
        images.append(m.word(codes(g, total.darts)))
    return Endomorphism(m.basis, tuple(images))


def marked_maps():
    """Seeded rank-2 maps (images of length <= 4, seed 1) and the corpus maps,
    each with its subdivision at interior fixed points when there is one."""
    gen = random_injective_endos(2, 4, 1)
    maps = [rose_map(next(gen)) for _ in range(150)]
    for _, data in sorted(corpus_files().items()):
        maps.append(rose_map(endo_from_json(data)) if "images" in data
                    else graph_map_from_json(data)[0])
    out = []
    for f in maps:
        out.append(f)
        if not f.is_identity():
            g, points = subdivided_fixed_map(f)
            if points:
                out.append(g)
    return out


class TestPi1:
    def test_rotation_route(self):
        m = marking(ex3.graph, "*")
        phi = m.endo(ex3).inner_twist(m.word(codes(ex3.graph, darts("a"))))
        b = phi.basis
        assert [b.format(w) for w in phi.images] == ["abA", "A"]
        assert phi == induced_endo(ex3, "*", EdgePath(darts("a")))

    def test_word_takes_codes(self):
        # A dart is not a code: it raises, rather than read as no letter.
        m = marking(ex3.graph, "*")
        assert m.word([1, 2, -1]) == m.basis.parse("abA")
        with pytest.raises(KeyError):
            m.word(darts("a"))
        with pytest.raises(KeyError):
            m.word([1, 3])

    def test_trivial_route_is_the_endo(self):
        phi = marking(ex2.graph, "*").endo(ex2)
        b = phi.basis
        assert [b.format(w) for w in phi.images] == ["a1", "a2- a1 a2"]

    def test_identity_map(self):
        ident = rose({"a": ["a"], "b": ["b"]})
        phi = marking(ident.graph, "*").endo(ident)
        assert phi == identity_endo(phi.basis)

    def test_spanning_tree_multi_vertex(self):
        g, _ = subdivided_fixed_map(ex4)
        m = marking(g.graph, "*")
        assert sorted(m.basis.letters) == ["a:2", "b:2"]
        assert m.endo(g).rank == 2

    def test_tree_has_no_endo(self):
        g = Graph(("u", "v"), {"a": ("u", "v")})
        f = GraphMap(g, {"u": "u", "v": "v"}, {"a": EdgePath(darts("a"))})
        assert marking(g, "u").basis is None
        with pytest.raises(ValueError):
            marking(g, "u").endo(f)

    def test_matches_dart_level_reference(self):
        # At every base, along the tree route and along a route that first
        # runs once around a basis loop.
        checked = 0
        for f in marked_maps():
            g = f.graph
            for base in g.vertices:
                m = marking(g, base)
                e = m.basis.letters[0]
                u, v = g.edge_ends[e]
                loop = tree_path(m, base, u) + [Dart(e, True)] + tree_path(m, v, base)
                to_image = tree_path(m, base, f.vertex_map[base])
                for darts_ in (to_image, loop + to_image):
                    route = tighten(g, darts_, at=base)
                    expect = induced_endo(f, base, route)
                    assert m.endo(f).inner_twist(m.word(codes(g, route.darts))) == expect
                    checked += 1
        assert checked > 400


def is_circle(g: Graph) -> bool:
    """Connected, with at least one edge and every vertex of valence two."""
    return (g.is_connected() and bool(g.edge_ends)
            and all(len(g.darts_at(v)) == 2 for v in g.vertices))


def circle_degree(f: GraphMap) -> int:
    """Signed winding degree of a selfmap of a circle graph."""
    if not is_circle(f.graph):
        raise ValueError("graph is not a circle")
    phi = any_route_endo(f)
    assert phi.rank == 1
    return sum(1 if x > 0 else -1 for x in phi.images[0].letters)


class TestCircle:
    @pytest.mark.parametrize("k", [-3, -1, 1, 2, 3])
    def test_degree(self, k):
        image = ["e"] * k if k > 0 else ["e-"] * (-k)
        assert circle_degree(rose({"e": image})) == k

    def test_subdivided_flip(self):
        g, _ = subdivided_fixed_map(rose({"e": ["e-"]}))
        assert circle_degree(g) == -1

    def test_invariant_subcircle_of_conjugating_map(self):
        sub = GraphMap(
            Graph(("*",), {"a1": ("*", "*")}),
            {"*": "*"},
            {"a1": EdgePath(darts("a1"))},
        )
        assert circle_degree(sub) == 1

    def test_not_circle_rejected(self):
        with pytest.raises(ValueError):
            circle_degree(ex1)

    def test_euler_characteristic(self):
        assert ex1.graph.euler_characteristic() == -1
        g, _ = subdivided_fixed_map(ex4)
        assert g.graph.euler_characteristic() == -1
