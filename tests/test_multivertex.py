"""Non-rose inputs: multiple vertices, nontrivial spanning trees, collapsed
edges.  These exercise the same pipeline as the subdivided maps but arrive
that way from the input file."""

import json

import pytest

from nielsenkit.cli import main
from nielsenkit.graphs import EdgePath, Graph, GraphMap, parse_dart, subdivided_fixed_map, trivial_path
from nielsenkit.invariants import analyze, lefschetz_number


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


class TestLefschetzOfSubdivision:
    @pytest.mark.parametrize("make", [theta_swap, theta_collapse, theta_fold])
    def test_subdivision_keeps_the_lefschetz_number(self, make):
        # analyze checks the index sum of the subdivided map against L(f).
        f = make()
        g, points = subdivided_fixed_map(f)
        assert bool(points) == (make is theta_fold)
        assert lefschetz_number(g) == lefschetz_number(f)
        rep = analyze(f)
        assert (rep.lefschetz, rep.trace) == lefschetz_number(f)
        assert sum(c.index for c in rep.classes) == rep.lefschetz


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
        g = Graph(("u", "v"), {"p": ("u", "v"), "q": ("v", "u")})
        f = GraphMap(g, {"u": "v", "v": "u"}, {
            "p": EdgePath((parse_dart("q"),)),
            "q": EdgePath((parse_dart("p"),)),
        })
        f.validate()
        rep = analyze(f)
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
