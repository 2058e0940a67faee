from typing import Iterable, Optional

import pytest

from nielsenkit.graphs import (Dart, EdgePath, Graph, GraphMap, classify_turn, parse_dart,
                               trivial_path, turn_degenerates_in_one_step)
from nielsenkit.invariants import ClassData, Report
from nielsenkit.words import Basis, BasisMismatch, Endomorphism, Word, default_basis


# Dart-level views of a graph, for references and tests that spell paths
# in Darts; the program itself reads dart codes (Graph.dart_of).


def rev(d: Dart) -> Dart:
    """The reversed dart."""
    return Dart(d.name, not d.fwd)


def origin(g: Graph, d: Dart) -> str:
    u, v = g.edge_ends[d.name]
    return u if d.fwd else v


def terminus(g: Graph, d: Dart) -> str:
    u, v = g.edge_ends[d.name]
    return v if d.fwd else u


def all_darts(g: Graph, names: Optional[Iterable[str]] = None) -> list[Dart]:
    """The darts of the edges `names` (every edge by default), in that order
    and forward before reversed."""
    names = g.edges if names is None else names
    return [Dart(e, s) for e in names for s in (True, False)]


def darts_at(g: Graph, v: str) -> list[Dart]:
    """The darts with origin v, in the order of all_darts."""
    return [d for d in all_darts(g) if origin(g, d) == v]


def path_endpoints(g: Graph, p: EdgePath) -> tuple[str, str]:
    if p.is_trivial:
        return p.at, p.at
    return origin(g, p.darts[0]), terminus(g, p.darts[-1])


def reverse_codes(p: tuple[int, ...]) -> tuple[int, ...]:
    """The reversal of a path of dart codes."""
    return tuple(-c for c in reversed(p))


def rose(images: dict[str, list[str]]) -> GraphMap:
    """Rose selfmap from dart-string images, e.g. {"a": ["a-", "b"]}."""
    g = Graph(("*",), {e: ("*", "*") for e in images})
    emap = {}
    for e, toks in images.items():
        if not toks:
            emap[e] = trivial_path("*")
        else:
            emap[e] = EdgePath(tuple(parse_dart(t) for t in toks))
    f = GraphMap(g, {"*": "*"}, emap)
    f.validate()
    return f


def map_path(f: GraphMap, p: EdgePath) -> EdgePath:
    """[f(p)], the tight image of an edge path, mapped whole from edge_map
    and tightened at every junction: the reference for the program's
    incremental images, which read GraphMap.image_table."""
    if p.is_trivial:
        return trivial_path(f.vertex_map[p.at])
    out = []
    for d in p.darts:
        img = f.edge_map[d.name]
        for x in (img if d.fwd else reverse(img)).darts:
            if out and out[-1] == rev(x):
                out.pop()
            else:
                out.append(x)
    if not out:
        return trivial_path(f.vertex_map[origin(f.graph, p.darts[0])])
    return EdgePath(tuple(out))


def derivative(f: GraphMap, d: Dart) -> Optional[Dart]:
    """The first dart of the tight image of d, read off the code-keyed
    GraphMap.derivative_table; None for a collapsed edge."""
    c = f.derivative_table[f.graph.code_of[d]]
    return None if c is None else f.graph.dart_of[c]


def turn(f: GraphMap, a: Dart, b: Dart) -> str:
    """graphs.classify_turn of the turn (a, b), given as Darts."""
    return classify_turn(f, f.graph.code_of[a], f.graph.code_of[b])


def degenerates_in_one_step(f: GraphMap, a: Dart, b: Dart) -> bool:
    """graphs.turn_degenerates_in_one_step of the turn (a, b), given as Darts."""
    return turn_degenerates_in_one_step(f, f.graph.code_of[a], f.graph.code_of[b])


def reverse(p: EdgePath) -> EdgePath:
    """The reversed path; a trivial path is its own reversal."""
    if p.is_trivial:
        return p
    return EdgePath(tuple(rev(d) for d in reversed(p.darts)))


def class_of(report: Report, vertex: str) -> Optional[ClassData]:
    """The class of `report` that has `vertex` as a member, if any."""
    return next((c for c in report.classes if vertex in c.members), None)


def endo(rank: int, *images: str) -> Endomorphism:
    b = default_basis(rank)
    return Endomorphism(b, tuple(b.parse(s) for s in images))


def identity_endo(basis: Basis) -> Endomorphism:
    return Endomorphism(basis, tuple(Word((i,)) for i in range(1, basis.rank + 1)))


def compose(phi: Endomorphism, psi: Endomorphism) -> Endomorphism:
    """phi after psi: compose(phi, psi)(g) = phi(psi(g))."""
    if phi.basis != psi.basis:
        raise BasisMismatch("endomorphisms live over different bases")
    return Endomorphism(phi.basis, tuple(phi.apply(im) for im in psi.images))


def abelianization(phi: Endomorphism) -> list[list[int]]:
    """M[j][i] = exponent sum of generator j+1 in the image of generator i+1:
    the action of phi on first homology, the reference for the program's
    cellular trace, invariants.lefschetz_number."""
    n = phi.rank
    mat = [[0] * n for _ in range(n)]
    for i, im in enumerate(phi.images):
        for x in im.letters:
            mat[abs(x) - 1][i] += 1 if x > 0 else -1
    return mat


def h1_trace(phi: Endomorphism) -> int:
    """The trace of phi on first homology."""
    mat = abelianization(phi)
    return sum(mat[i][i] for i in range(len(mat)))


class LetterBudget(Exception):
    pass


def apply_budget(monkeypatch, letters: int) -> list[int]:
    """Count the letters passed to Endomorphism.apply from now on, and raise
    LetterBudget once they exceed `letters` in all, as the benchmark abandons
    an instance; returns the one-element count."""
    seen = [0]
    original = Endomorphism.apply

    def apply(phi, w):
        seen[0] += len(w)
        if seen[0] > letters:
            raise LetterBudget
        return original(phi, w)

    monkeypatch.setattr(Endomorphism, "apply", apply)
    return seen


def endo_to_json(phi: Endomorphism) -> dict:
    """The endomorphism-file form that `io.endo_from_json` reads."""
    return {
        "rank": phi.rank,
        "letters": list(phi.basis.letters),
        "images": {name: phi.basis.format(im)
                   for name, im in zip(phi.basis.letters, phi.images)},
    }


def graph_map_to_json(f: GraphMap) -> dict:
    """The graph-map-file form that `io.graph_map_from_json` reads."""
    g = f.graph
    return {
        "vertices": list(g.vertices),
        "edges": [{"name": e, "from": g.edge_ends[e][0], "to": g.edge_ends[e][1]}
                  for e in g.edges],
        "vertex_map": dict(f.vertex_map),
        "edge_map": {
            e: ({"at": p.at} if p.is_trivial else [str(d) for d in p.darts])
            for e, p in ((e, f.edge_map[e]) for e in g.edges)
        },
    }


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    from nielsenkit.io import emit_corpus

    target = tmp_path_factory.mktemp("corpus")
    emit_corpus(target)
    return target
