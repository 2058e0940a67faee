from typing import Optional

import pytest

from nielsenkit.graphs import EdgePath, Graph, GraphMap, parse_dart, trivial_path
from nielsenkit.invariants import ClassData, Report
from nielsenkit.words import Basis, BasisMismatch, Endomorphism, Word, default_basis


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
    """[f(p)], the tight image of an edge path, mapped whole and tightened at
    every junction: the reference for the program's incremental images."""
    if p.is_trivial:
        return trivial_path(f.vertex_map[p.at])
    out = []
    for d in p.darts:
        for x in f.image_table[d]:
            if out and out[-1] == x.rev:
                out.pop()
            else:
                out.append(x)
    if not out:
        return trivial_path(f.vertex_map[f.graph.origin(p.darts[0])])
    return EdgePath(tuple(out))


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
