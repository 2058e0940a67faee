import contextlib
import hashlib
import io
import json
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import endo_to_json, graph_map_to_json
from nielsenkit.cli import main
from nielsenkit.io import (
    corpus_files,
    emit_corpus,
    endo_from_json,
    graph_map_from_json,
    load_instance,
)


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
    "empty-graph": {"vertices": [], "edges": [], "vertex_map": {}, "edge_map": {}},
    "non-string-letters": {"letters": [2, 0, "a"], "images": []},
}

COMMANDS = ("invariants", "validate", "lefschetz", "attracting", "classify", "route")


def argv_for(command: str, path) -> list[str]:
    return [command, str(path)] + (["--word", "a"] if command == "route" else [])


# Arbitrary JSON over the schema's keys, and documents shaped like the two
# schemas with wrong types, names and structure mixed in.
KEYS = ["rank", "letters", "images", "vertices", "edges", "name", "from", "to",
        "vertex_map", "edge_map", "at", "filtration", "base", "a", "b", "u", "v"]
NAMES = st.sampled_from(["a", "b", "", "A", "a-", "ab", "a b", 1, None])
VERTS = st.sampled_from(["u", "v", "*", "", 0])
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text("abAB*uv-@: ", max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.sampled_from(KEYS), kids,
                                                              max_size=4),
    max_leaves=12)
ENDO_LIKE = st.fixed_dictionaries(
    {"letters": st.lists(NAMES, max_size=3),
     "images": st.dictionaries(NAMES, st.text("abAB -", max_size=5) | st.integers(),
                               max_size=3)},
    optional={"rank": st.integers(-1, 3)})
GRAPH_LIKE = st.fixed_dictionaries(
    {"vertices": st.lists(VERTS, max_size=3),
     "edges": st.lists(st.fixed_dictionaries(
         {"name": st.sampled_from(["a", "b", ""]), "from": VERTS, "to": VERTS}), max_size=3),
     "vertex_map": st.dictionaries(VERTS, VERTS, max_size=3),
     "edge_map": st.dictionaries(
         st.sampled_from(["a", "b"]),
         st.lists(st.sampled_from(["a", "a-", "b", "b-", "-", ""]), max_size=4)
         | st.fixed_dictionaries({"at": VERTS}), max_size=2)},
    optional={"filtration": st.lists(st.lists(st.sampled_from(["a", "b", "x"]), max_size=2),
                                      max_size=2),
              "base": VERTS})


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

    def test_invariants_output_pinned(self, corpus_dir, capsys):
        # The byte-identical default report: invariants on every corpus file,
        # in sorted order, concatenated.
        out = []
        for p in sorted(corpus_dir.glob("*.json")):
            assert main(["invariants", str(p)]) == 0
            out.append(capsys.readouterr().out)
        digest = hashlib.sha256("".join(out).encode()).hexdigest()
        assert digest == "880fb3e450c7101e3d99d3a80dbaf883ac3e06f2aee5cc8cf3987b07d7e3655a"

    def test_attracting_output_pinned(self, corpus_dir, capsys):
        # attracting on every corpus file, in sorted order, concatenated.
        out = []
        for p in sorted(corpus_dir.glob("*.json")):
            assert main(["attracting", str(p)]) == 0
            out.append(capsys.readouterr().out)
        digest = hashlib.sha256("".join(out).encode()).hexdigest()
        assert digest == "aa428402d669e815f960b429abe17416986524e3efe7638e0440c99954190fc5"

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

    @pytest.mark.parametrize("command", ["invariants", "validate", "lefschetz", "route"])
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_exit_code_2_on_malformed(self, tmp_path, capsys, command, name):
        p = tmp_path / "broken.json"
        text = MALFORMED[name]
        p.write_text(text if isinstance(text, str) else json.dumps(text))
        code = main(argv_for(command, p))  # no exception may escape
        capsys.readouterr()
        assert code == 2

    @settings(max_examples=300, deadline=None)
    @given(ANY_JSON | ENDO_LIKE | GRAPH_LIKE, st.sampled_from(COMMANDS))
    def test_fuzzed_input_exits_cleanly(self, tmp_path_factory, data, command):
        p = tmp_path_factory.mktemp("fuzz") / "input.json"
        p.write_text(json.dumps(data))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv_for(command, p))  # no exception may escape
        assert code in (0, 1, 2)

    def test_rays_read_at_their_own_start(self, tmp_path, capsys):
        # Class {*, a@1/2} has rays starting at both members; each is read in
        # the marking at its start vertex, so each is a fixed word of the
        # endomorphism printed with it.
        p = tmp_path / "rays.json"
        p.write_text(json.dumps({"rank": 2, "letters": ["a", "b"],
                                 "images": {"a": "aaB", "b": "bb"}}))
        code, data = run(capsys, "attracting", str(p))
        assert code == 0
        rays = [r for c in data["classes"] for r in c["rays"]]
        assert len(rays) == 4
        assert "a:1-" in {r["initial_direction"] for r in rays}
        assert all(r["status"] == "attracting" for r in rays)

    @pytest.mark.parametrize("images", [("aab", "abbb"), ("aBaa", "AbAAbA"),
                                        ("aaaB", "bA"), ("Baaa", "Abb")])
    def test_several_crossing_paths_not_onto(self, tmp_path, capsys, images):
        # These injective maps are not onto, so an expanding stratum may carry
        # several indivisible Nielsen paths: the merges are kept and the
        # classes left unverified, never a structure error.
        p = tmp_path / "several.json"
        p.write_text(json.dumps({"rank": 2, "letters": ["a", "b"],
                                 "images": dict(zip("ab", images))}))
        code, data = run(capsys, "invariants", str(p))
        assert code == 0
        assert "fail" not in data["verdicts"].values()
        assert data["verdicts"]["lefschetz_sum"] == "pass"
        assert any("type3:ambiguous" in c["provenance"] for c in data["classes"])

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

    def test_route_unsettled_ray_returns(self, tmp_path, capsys):
        # The ray of B under a -> BaBA, b -> ab never settles; it is given up
        # as inconclusive instead of growing until memory runs out.
        def too_slow(signum, frame):
            raise TimeoutError("route did not return")

        p = tmp_path / "route.json"
        p.write_text(json.dumps({"rank": 2, "letters": ["a", "b"],
                                 "images": {"a": "BaBA", "b": "ab"}}))
        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.setitimer(signal.ITIMER_REAL, 5)
        try:
            code, data = run(capsys, "route", "--word", "", str(p))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 0
        assert (data["a"], data["attracting_prefixes"]) == (0, [])

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
