"""Non-rose inputs: multiple vertices, nontrivial spanning trees, collapsed
edges.  These exercise the same pipeline as the subdivided maps but arrive
that way from the input file."""

import hashlib
import json

import pytest

from conftest import graph_map_to_json, h1_trace, rose
from nielsenkit.cli import main
from nielsenkit.graphs import (EdgePath, Graph, GraphMap, any_route_endo, parse_dart,
                               subdivided_fixed_map, trivial_path)
from nielsenkit.invariants import AnalysisError, analyze, lefschetz_number


def theta_swap() -> GraphMap:
    """Theta graph u =p,q,r= v; p and q swap, r is pointwise fixed."""
    g = Graph(("u", "v"), {"p": ("u", "v"), "q": ("u", "v"), "r": ("u", "v")})
    f = GraphMap(g, {"u": "u", "v": "v"}, {
        "p": EdgePath((parse_dart("q"),)),
        "q": EdgePath((parse_dart("p"),)),
        "r": EdgePath((parse_dart("r"),)),
    })
    f.validate()
    return f


def theta_collapse() -> GraphMap:
    """Collapse r into u; p and q become loops at u after composing with r."""
    g = Graph(("u", "v"), {"p": ("u", "v"), "q": ("u", "v"), "r": ("u", "v")})
    f = GraphMap(g, {"u": "u", "v": "u"}, {
        "p": EdgePath((parse_dart("p"), parse_dart("r-"))),
        "q": EdgePath((parse_dart("q"), parse_dart("r-"))),
        "r": trivial_path("u"),
    })
    f.validate()
    return f


def theta_fold() -> GraphMap:
    """p -> q p- q has the interior fixed point p@1/2; q -> q r- q, r fixed."""
    g = Graph(("u", "v"), {"p": ("u", "v"), "q": ("u", "v"), "r": ("u", "v")})
    f = GraphMap(g, {"u": "u", "v": "v"}, {
        e: EdgePath(tuple(parse_dart(t) for t in img))
        for e, img in {"p": ["q", "p-", "q"], "q": ["q", "r-", "q"], "r": ["r"]}.items()})
    f.validate()
    return f


def graph_map(vertices, ends, vmap, images) -> GraphMap:
    """A graph map from edge ends (u, v) and dart-string images; an image
    given as a vertex name is the trivial path there."""
    f = GraphMap(Graph(vertices, ends), vmap, {
        e: trivial_path(img) if isinstance(img, str)
        else EdgePath(tuple(parse_dart(t) for t in img))
        for e, img in images.items()})
    f.validate()
    return f


THETA = {"p": ("u", "v"), "q": ("u", "v"), "r": ("u", "v")}


def theta_squash() -> GraphMap:
    """p and q both go to p: the fold identifies them, and their far ends
    are already one vertex, so rank 2 drops to 1."""
    return graph_map(("u", "v"), THETA, {"u": "u", "v": "v"},
                     {"p": ["p"], "q": ["p"], "r": ["r"]})


def trivial_loop() -> GraphMap:
    """p and q from u to v both collapse to u, a loop with a trivial image;
    the loop a at u stays."""
    return graph_map(("u", "v"), {"a": ("u", "u"), "p": ("u", "v"), "q": ("u", "v")},
                     {"u": "u", "v": "u"}, {"a": ["a", "a"], "p": "u", "q": "u"})


# Maps that are not injective on the fundamental group, each for its own
# reason: a fold between two petals, a petal with a trivial image, a fold
# between two edges with the same ends, and collapsed edges closing a loop.
NON_INJECTIVE = {
    "rose_fold": lambda: rose({"a": ["a"], "b": ["a"]}),
    "rose_trivial": lambda: rose({"e": []}),
    "theta_squash": theta_squash,
    "trivial_loop": trivial_loop,
}


def unsorted_names() -> GraphMap:
    """Edges z, b, m, not in sorted name order, every vertex fixed: the
    subdivided map has a type-3 stratum whose crossing path and rays start
    at the cut vertex m@2/3 and at u, off the marking's base."""
    return graph_map(("u", "v"), {"z": ("u", "v"), "b": ("v", "u"), "m": ("u", "u")},
                     {"u": "u", "v": "v"},
                     {"z": ["m-", "m-", "m-", "z"], "b": ["b", "m-", "z", "b"],
                      "m": ["b-", "z-", "m", "m"]})


def doubled_loop() -> GraphMap:
    """The edges z, b, m again, the loop m at u doubled: both of its
    directions are fixed there, forward first, and `attracting` prints
    their rays in that order."""
    return graph_map(("u", "v"), {"z": ("u", "v"), "b": ("v", "u"), "m": ("u", "u")},
                     {"u": "u", "v": "v"},
                     {"z": ["m-", "z"], "b": ["b", "m-"], "m": ["m", "m"]})


def rotation() -> GraphMap:
    """A two-vertex circle u -p-> v -q-> u turned by half a turn: no fixed
    point at all."""
    return graph_map(("u", "v"), {"p": ("u", "v"), "q": ("v", "u")}, {"u": "v", "v": "u"},
                     {"p": ["q"], "q": ["p"]})


def tree_map(identity: bool) -> GraphMap:
    """A two-vertex tree, mapped by the identity or onto one vertex."""
    return graph_map(("u", "v"), {"p": ("u", "v")}, {"u": "u", "v": "v" if identity else "u"},
                     {"p": ["p"] if identity else "u"})


class TestLefschetzOfSubdivision:
    @pytest.mark.parametrize("make", [theta_swap, theta_collapse, theta_fold])
    def test_subdivision_keeps_the_lefschetz_number(self, make):
        # analyze checks the index sum of the subdivided map against L(f),
        # and L(f) is the H1 trace of any endomorphism f induces.
        f = make()
        g, points = subdivided_fixed_map(f)
        assert bool(points) == (make is theta_fold)
        lef, tr = lefschetz_number(f)
        assert lefschetz_number(g) == (lef, tr) == (1 - tr, h1_trace(any_route_endo(f)))
        rep = analyze(f)
        assert (rep.lefschetz, rep.trace) == (lef, tr)
        assert sum(c.index for c in rep.classes) == rep.lefschetz


class TestInjectivityGuards:
    @pytest.mark.parametrize("name", sorted(NON_INJECTIVE))
    def test_non_injective_rejected(self, name):
        f = NON_INJECTIVE[name]()
        assert not f.is_injective() and not any_route_endo(f).is_injective()
        with pytest.raises(AnalysisError, match="not injective on the fundamental group"):
            analyze(f)
        with pytest.raises(ValueError, match="non-injective"):
            f.cancellation_bound()

    @pytest.mark.parametrize("name", sorted(NON_INJECTIVE))
    def test_invariants_exits_2(self, tmp_path, capsys, name):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(graph_map_to_json(NON_INJECTIVE[name]())))
        assert main(["invariants", str(p)]) == 2
        err = capsys.readouterr().err
        assert "not injective" in err and "Traceback" not in err

    @pytest.mark.parametrize("identity", [False, True], ids=["collapse", "identity"])
    def test_tree_rejected(self, identity):
        with pytest.raises(AnalysisError, match="tree"):
            analyze(tree_map(identity))


class TestThetaSwap:
    def test_single_class_through_the_fixed_edge(self):
        rep = analyze(theta_swap())
        assert [c.members for c in rep.classes] == [("u", "v")]
        c = rep.classes[0]
        assert (c.index, c.rank, c.attract, c.improved_char) == (1, 0, 0, 1)
        assert rep.lefschetz == 1
        assert rep.verdicts["index_upper_bound"] == "pass"
        assert rep.verdicts["equality_at_chi_minus_one"] == "pass"

    def test_strata(self):
        rep = analyze(theta_swap())
        types = sorted(i.stype for i in rep.strata)
        assert types == ["type2", "type2"]


class TestThetaCollapse:
    def test_collapsed_edge_accepted(self):
        rep = analyze(theta_collapse())
        assert [c.members for c in rep.classes] == [("u",)]
        c = rep.classes[0]
        assert c.index == -1
        assert (c.rank, c.attract) == (2, 0)
        assert rep.lefschetz == -1

    def test_type1_stratum_present(self):
        rep = analyze(theta_collapse())
        assert any(i.stype == "type1" for i in rep.strata)


class TestFixedPointFree:
    def test_rotation_of_two_vertex_circle(self):
        rep = analyze(rotation())
        assert rep.classes == []
        assert rep.lefschetz == 0
        assert rep.verdicts["lefschetz_sum"] == "pass"


class TestCliOnMultiVertex:
    def test_round_trip_through_json(self, tmp_path, capsys):
        from conftest import graph_map_to_json

        p = tmp_path / "theta.json"
        p.write_text(json.dumps(graph_map_to_json(theta_swap())))
        code = main(["invariants", str(p)])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        assert data["classes"][0]["members"] == ["u", "v"]

    def test_route_rejects_non_injective(self, tmp_path, capsys):
        p = tmp_path / "noninj.json"
        p.write_text(json.dumps({"rank": 2, "letters": ["a", "b"],
                                 "images": {"a": "a", "b": "a"}}))
        code = main(["route", "--word", "a", str(p)])
        capsys.readouterr()
        assert code == 2


# sha256 of the exit code, stdout and stderr of `invariants`, `attracting`
# and `route --word ""` (at the file's default base and, where it is fixed,
# at "v") on each map's graph-map file.  Off the rose, these bytes fix the
# order of fixed directions, the marking's spanning tree and basis and the
# orientation of crossing paths.
OUTPUT_DIGESTS = {
    "doubled_loop": "aa51502174f7a53be9edcb249b008f4fc845f7980e25c2efa990bf80c5abb85b",
    "rotation": "330440d9ec636ecbf9506abfbe6564580deed2fa427c2b7454a64b6ca5743842",
    "theta_collapse": "c84865a8eb276ff9c0d3158cb77448d87142b74820942b860aec29ee20366285",
    "theta_fold": "6ec0d0f12fd895514579d89b375360e991e66ef1cbd4703981a595f2f5be7ece",
    "theta_squash": "38371270d273ac9413f1c42906894d9560a25d3eb14e129190e28c8306fccd6a",
    "theta_swap": "63e77ec2e5e50d76173e14267f385027a6c3ad52cc5793c45507a0552d0f036d",
    "trivial_loop": "be198994c817decb51f10e30ab726f4b66b1e88723f77f429c19197e306170a6",
    "unsorted_names": "fdb1e85dbec46ecc9bd122ac2d7a7158e6a1ad5a6af7aa89adaf255483e5a05b",
}


@pytest.mark.parametrize("name", sorted(OUTPUT_DIGESTS))
def test_outputs_pinned(tmp_path, capsys, name):
    f = globals()[name]()
    runs = [(f"{name}.json", graph_map_to_json(f))]
    if f.vertex_map["v"] == "v":
        runs.append((f"{name}_at_v.json", {**graph_map_to_json(f), "base": "v"}))
    out = []
    for i, (file, data) in enumerate(runs):
        p = tmp_path / file
        p.write_text(json.dumps(data))
        commands = [["route", "--word", ""]] + ([["invariants"], ["attracting"]] if not i else [])
        for argv in commands:
            code = main([*argv, str(p)])
            o, e = capsys.readouterr()
            out.append(f"{file} {argv[0]} {code}\n{o}{e}")
    assert hashlib.sha256("".join(out).encode()).hexdigest() == OUTPUT_DIGESTS[name]
