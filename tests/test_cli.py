import json

import pytest

from nielsenkit.cli import main
from nielsenkit.io import (
    corpus_files,
    emit_corpus,
    endo_from_json,
    endo_to_json,
    graph_map_from_json,
    graph_map_to_json,
    infinite_word_from_json,
    infinite_word_to_json,
    load_instance,
)
from nielsenkit.boundary import MorphicRay, ev_periodic
from nielsenkit.words import default_basis

b2 = default_basis(2)


def _rose_with(**extra) -> dict:
    data = corpus_files()["ex6_1_n2.json"]
    data.update(extra)
    return data


def _two_vertices(edges: list[tuple[str, str, str]], edge_map: dict) -> dict:
    return {"vertices": ["u", "v"],
            "edges": [{"name": n, "from": a, "to": b} for n, a, b in edges],
            "vertex_map": {"u": "u", "v": "v"}, "edge_map": edge_map}


# Inputs that must exit 2 with a message, never a traceback.
MALFORMED = {
    "invalid-json": "{",
    "top-level-number": 5,
    "non-string-image": {"rank": 2, "letters": ["a", "b"],
                         "images": {"a": "ab", "b": 3}},
    "images-not-object": {"rank": 2, "letters": ["a", "b"], "images": ["ab", "b"]},
    "rank-zero": {"rank": 0, "letters": [], "images": {}},
    "non-string-dart": _rose_with(edge_map={"a1": ["a1", 3], "a2": ["a2"]}),
    "edge-map-not-object": _rose_with(edge_map=[["a1"], ["a2"]]),
    "duplicate-edge": _rose_with(edges=[{"name": "a1", "from": "*", "to": "*"}] * 2
                                 + [{"name": "a2", "from": "*", "to": "*"}]),
    "filtration-string": _rose_with(filtration="a1"),
    "disconnected": _two_vertices([("a", "u", "u"), ("b", "v", "v")],
                                  {"a": ["a", "a"], "b": ["b", "b"]}),
    "tree": _two_vertices([("a", "u", "v")], {"a": ["a"]}),
}


def run(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else {})


class TestSchemas:
    def test_endo_round_trip(self):
        phi = endo_from_json({"rank": 2, "letters": ["a", "b"],
                              "images": {"a": "B", "b": "aB"}})
        assert endo_from_json(endo_to_json(phi)) == phi

    def test_graph_map_round_trip(self):
        data = corpus_files()["ex6_4.json"]
        f, _, _ = graph_map_from_json(data)
        again, _, _ = graph_map_from_json(graph_map_to_json(f))
        assert again.edge_map == f.edge_map and again.vertex_map == f.vertex_map

    def test_trivial_image_forms(self):
        data = {
            "vertices": ["v"],
            "edges": [{"name": "a", "from": "v", "to": "v"},
                      {"name": "b", "from": "v", "to": "v"}],
            "vertex_map": {"v": "v"},
            "edge_map": {"a": ["a"], "b": {"at": "v"}},
        }
        f, _, _ = graph_map_from_json(data)
        assert f.edge_map["b"].is_trivial
        data["edge_map"]["b"] = []
        f2, _, _ = graph_map_from_json(data)
        assert f2.edge_map["b"].is_trivial

    def test_infinite_word_round_trip(self):
        w = ev_periodic(b2.parse("b"), b2.parse("ab"))
        assert infinite_word_from_json(infinite_word_to_json(w, b2), b2) == w
        phi = endo_from_json({"rank": 2, "letters": ["a", "b"],
                              "images": {"a": "A", "b": "Abb"}})
        ray = MorphicRay(b2.parse("B"), phi)
        back = infinite_word_from_json(infinite_word_to_json(ray, b2))
        assert back.prefix(12) == ray.prefix(12)

    def test_bad_json_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(Exception) as exc:
            load_instance(p)
        assert "line" in str(exc.value)


class TestCorpus:
    def test_expected_files(self, corpus_dir):
        names = sorted(p.name for p in corpus_dir.glob("*.json"))
        assert "ex6_1_n2.json" in names
        assert "ex6_4.json" in names
        assert "derived_ba.json" in names
        assert "circle_k3.json" in names and "circle_k0.json" not in names
        assert "rank1_k-3.json" in names and "rank1_k0.json" not in names
        assert len(names) == 23

    def test_expected_edge_maps(self):
        files = corpus_files()
        assert files["ex6_1_n2.json"]["edge_map"] == {
            "a1": ["a1", "a1"], "a2": ["a2", "a2"]}
        assert files["ex6_4.json"]["edge_map"] == {
            "a": ["a-"], "b": ["a-", "b", "b"]}
        assert files["circle_k3.json"]["edge_map"] == {"e": ["e", "e", "e"]}

    def test_byte_stable(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        emit_corpus(d1)
        emit_corpus(d2)
        for p in d1.glob("*.json"):
            assert p.read_bytes() == (d2 / p.name).read_bytes()

    def test_round_trip_parse(self, corpus_dir):
        for p in corpus_dir.glob("*.json"):
            load_instance(p)


class TestCommands:
    def test_invariants_conjugating(self, corpus_dir, capsys):
        code, data = run(capsys, "invariants", str(corpus_dir / "ex6_2.json"))
        assert code == 0
        star = next(c for c in data["classes"] if c["members"] == ["*"])
        assert (star["ind"], star["rk"], star["a"], star["ichr"]) == (-1, 1, 1, -1)

    def test_route_rotation(self, corpus_dir, capsys):
        code, data = run(capsys, "route", "--word", "a",
                         str(corpus_dir / "ex6_3.json"), "--depth", "8")
        assert code == 0
        assert data["rk"] == 1 and data["a"] == 0 and data["ichr"] == 0
        assert data["generators"] == ["abAB"]
        assert data["probably_empty_to_depth"] is True

    def test_lefschetz(self, corpus_dir, capsys):
        code, data = run(capsys, "lefschetz", str(corpus_dir / "ex6_4.json"))
        assert code == 0 and data["lefschetz"] == 0 and data["trace"] == 1

    def test_classify(self, corpus_dir, capsys):
        code, data = run(capsys, "classify", str(corpus_dir / "ex6_2.json"))
        assert code == 0
        types = [s["type"] for s in data["strata"]]
        assert types == ["type2", "type3"]
        lam = [s.get("lambda") for s in data["strata"] if "lambda" in s]
        assert lam == ["2.000000000000"]

    def test_validate(self, corpus_dir, capsys):
        code, data = run(capsys, "validate", str(corpus_dir / "derived_ba.json"))
        assert code == 0 and data["pi1_injective"] is True

    def test_attracting(self, corpus_dir, capsys):
        code, data = run(capsys, "attracting", str(corpus_dir / "ex6_1_n2.json"))
        assert code == 0
        rays = data["classes"][0]["rays"]
        assert len(rays) == 4
        assert all(r["status"] == "attracting" for r in rays)

    def test_attracting_negative_prefix_len(self, corpus_dir, capsys):
        code = main(["attracting", "--prefix-len", "-1",
                     str(corpus_dir / "ex6_1_n2.json")])
        out = capsys.readouterr().out
        assert code == 2 and out == ""

    def test_verify_suite_passes(self, corpus_dir, capsys):
        code, data = run(capsys, "verify", "--suite", str(corpus_dir))
        assert code == 0
        assert len(data["results"]) == 23
        assert not any("error" in r for r in data["results"].values())

    def test_exit_code_2_on_bad_input(self, tmp_path, capsys):
        p = tmp_path / "noninjective.json"
        p.write_text(json.dumps({"rank": 2, "letters": ["a", "b"],
                                 "images": {"a": "a", "b": "a"}}))
        code = main(["invariants", str(p)])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("command", ["invariants", "validate", "lefschetz"])
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_exit_code_2_on_malformed(self, tmp_path, capsys, command, name):
        p = tmp_path / "broken.json"
        text = MALFORMED[name]
        p.write_text(text if isinstance(text, str) else json.dumps(text))
        code = main([command, str(p)])  # no exception may escape
        capsys.readouterr()
        assert code == 2

    def test_route_bounds_inconclusive(self, tmp_path, capsys):
        # No constant-route witness, yet the class is not empty: it is b@1/2
        # (ind -1, rk 0, a 2), so 1 - rk - a = -1 proves nothing wrong.
        p = tmp_path / "route.json"
        p.write_text(json.dumps({"rank": 2, "letters": ["a", "b"],
                                 "images": {"a": "Ab", "b": "bbA"}}))
        code, data = run(capsys, "route", "--word", "A", str(p))
        assert code == 0
        assert (data["rk"], data["a"], data["ichr"]) == (0, 2, -1)
        assert data["constant_route_witness"] is None
        assert data["verdicts"]["empty_class_bounds"] == "inconclusive"

    def test_route_unknown_base(self, tmp_path, capsys):
        data = _rose_with(base="v")
        p = tmp_path / "base.json"
        p.write_text(json.dumps(data))
        code = main(["route", "--word", "a1", str(p)])
        capsys.readouterr()
        assert code == 2

    def test_reports_deterministic(self, corpus_dir, capsys):
        outs = []
        for _ in range(2):
            code, _ = run(capsys, "invariants", str(corpus_dir / "ex6_4.json"))
            assert code == 0
        code1 = main(["invariants", str(corpus_dir / "ex6_4.json")])
        one = capsys.readouterr().out
        code2 = main(["invariants", str(corpus_dir / "ex6_4.json")])
        two = capsys.readouterr().out
        assert code1 == code2 == 0 and one == two

    def test_out_file(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["invariants", str(corpus_dir / "ex6_3.json"), "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        assert json.loads(out.read_text())["lefschetz"] == 1

    def test_props_small(self, capsys):
        code, data = run(capsys, "verify", "--props", "--count", "20", "--seed", "7")
        assert code == 0
        props = data["properties"]
        assert props["violations"] == []
        assert props["analyzed"] + props["skipped"] == 20

    def test_filtration_override(self, tmp_path, capsys):
        data = corpus_files()["ex6_2.json"]
        data["filtration"] = [["a1"], ["a2"]]
        p = tmp_path / "with_filtration.json"
        p.write_text(json.dumps(data))
        code, out = run(capsys, "classify", str(p))
        assert code == 0
        assert out["filtration"] == [["a1"], ["a2:1", "a2:2"]] or \
            out["filtration"] == [["a1"], ["a2"]]
        bad = dict(corpus_files()["ex6_2.json"])
        bad["filtration"] = [["a2"], ["a1"]]
        q = tmp_path / "bad_filtration.json"
        q.write_text(json.dumps(bad))
        code = main(["classify", str(q)])
        capsys.readouterr()
        assert code == 2

    def test_metric_emitted_as_rationals_when_exact(self, corpus_dir, capsys):
        code, data = run(capsys, "classify", str(corpus_dir / "ex6_1_n2.json"))
        assert code == 0
        metrics = [s["metric"] for s in data["strata"] if "metric" in s]
        assert metrics and all(v == "1" for m in metrics for v in m.values())

    def test_coarse_filtration_degrades_honestly(self, tmp_path, capsys):
        # merging two expanding strata gives a reducible matrix: the analysis
        # completes with unverified ranks instead of failing
        data = corpus_files()["ex6_1_n2.json"]
        data["filtration"] = [["a1", "a2"]]
        p = tmp_path / "coarse.json"
        p.write_text(json.dumps(data))
        code, out = run(capsys, "invariants", str(p))
        assert code == 0
        assert out["classification_complete"] is False
        assert out["classes"][0]["rk"] == "unverified"
        assert out["classes"][0]["ind"] == -3

    def test_route_with_multichar_letters(self, corpus_dir, capsys):
        code, data = run(capsys, "route", "--word", "a1",
                         str(corpus_dir / "ex6_2.json"))
        assert code == 0
        # the route labeled by the fixed word a1 is an empty class: rank one
        # stabilizer, no attracting words, and no constant-route witness
        assert data["rk"] == 1 and data["a"] == 0 and data["ichr"] == 0
        assert data["constant_route_witness"] is None
        assert data["verdicts"]["empty_class_bounds"] == "pass"
