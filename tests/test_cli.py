import contextlib
import hashlib
import io
import json
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import apply_budget, endo_to_json, graph_map_to_json
from nielsenkit import boundary, cli, invariants, rtt
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


def _theta_loop(edge_map: dict) -> dict:
    """a from u to v, b back from v to u and a loop c at u, every vertex fixed."""
    return _two_vertices([("a", "u", "v"), ("b", "v", "u"), ("c", "u", "u")], edge_map)


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
    # Subdivision names new edges e:1, e:2, ... and new vertices e@t.
    "reserved-edge-name": {"vertices": ["*"],
                           "edges": [{"name": n, "from": "*", "to": "*"} for n in ("a", "a:1")],
                           "vertex_map": {"*": "*"},
                           "edge_map": {"a": ["a-"], "a:1": ["a:1", "a:1"]}},
    "reserved-vertex-name": {"vertices": ["*", "a@1/2"],
                             "edges": [{"name": "a", "from": "*", "to": "*"},
                                       {"name": "b", "from": "*", "to": "a@1/2"}],
                             "vertex_map": {"*": "*", "a@1/2": "a@1/2"},
                             "edge_map": {"a": ["a-"], "b": ["b"]}},
    "reserved-letter": {"letters": ["a", "a:1"], "images": {"a": "a-", "a:1": "a:1 a:1"}},
    # Names that the dart and word readers cannot read back.
    "dash-edge-name": {"vertices": ["*"],
                       "edges": [{"name": n, "from": "*", "to": "*"} for n in ("a", "x-")],
                       "vertex_map": {"*": "*"},
                       "edge_map": {"a": ["a", "a"], "x-": ["x-"]}},
    "uppercase-letter": {"rank": 2, "letters": ["A", "b"], "images": {"A": "Ab", "b": "b"}},
    "empty-letter": {"rank": 2, "letters": ["", "b"], "images": {"": "", "b": "bb"}},
    "spaced-letter": {"rank": 2, "letters": ["ab", "c d"],
                      "images": {"ab": "ab ab", "c d": "ab"}},
    "dash-letter": {"rank": 2, "letters": ["ab", "cd-"], "images": {"ab": "ab", "cd-": "ab"}},
    # One fault of a graph map that GraphMap.validate finds, each.
    "unknown-dart": _rose_with(edge_map={"a1": ["a1", "x"], "a2": ["a2"]}),
    "non-adjacent": _theta_loop({"a": ["a"], "b": ["b"], "c": ["a", "a"]}),
    "backtrack": _rose_with(edge_map={"a1": ["a1", "a1-"], "a2": ["a2"]}),
    "trivial-elsewhere": _theta_loop({"a": ["a"], "b": ["b"], "c": {"at": "v"}}),
    "missing-image": _rose_with(edge_map={"a1": ["a1"]}),
    "bad-vertex-image": _rose_with(vertex_map={"*": "w"}),
    "starts-elsewhere": _theta_loop({"a": ["a"], "b": ["b"], "c": ["b"]}),
    "ends-elsewhere": _theta_loop({"a": ["a"], "b": ["b"], "c": ["a"]}),
}

# The message each name rule prints, naming the name and the rule, and
# the message of each fault that GraphMap.validate finds.
NAME_ERRORS = {
    "unknown-dart": "unknown edge x",
    "non-adjacent": "edges not adjacent: a then a",
    "backtrack": "image of a1 is not tight",
    "trivial-elsewhere": "trivial image of c sits at the wrong vertex",
    "missing-image": "edge a2 has no image",
    "bad-vertex-image": "vertex * has no valid image",
    "starts-elsewhere": "image of c starts at the wrong vertex",
    "ends-elsewhere": "image of c ends at the wrong vertex",
    "dash-edge-name": "edge name 'x-' ends in '-'; edge names may not",
    "uppercase-letter": "letter name 'A' is not lowercase; single-character letters must be",
    "empty-letter": "letter name '' is empty; letters must be nonempty",
    "spaced-letter": "letter name 'c d' holds whitespace or ends in '-'; "
                     "multi-character letters may not",
    "dash-letter": "letter name 'cd-' holds whitespace or ends in '-'; "
                   "multi-character letters may not",
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
        f, _ = graph_map_from_json(data)
        again, _ = graph_map_from_json(graph_map_to_json(f))
        assert again.edge_map == f.edge_map and again.vertex_map == f.vertex_map

    def test_trivial_image_forms(self):
        data = {
            "vertices": ["v"],
            "edges": [{"name": "a", "from": "v", "to": "v"},
                      {"name": "b", "from": "v", "to": "v"}],
            "vertex_map": {"v": "v"},
            "edge_map": {"a": ["a"], "b": {"at": "v"}},
        }
        f, _ = graph_map_from_json(data)
        assert f.edge_map["b"].is_trivial
        data["edge_map"]["b"] = []
        f2, _ = graph_map_from_json(data)
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
        assert digest == "3529523413d61fc7a37b3d1b36482e83db39cc0ca1a879bb92937bb354f4004a"

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

    def test_route_prints_the_reduced_word(self, corpus_dir, capsys):
        # aA reduces to the empty route, and the report names that route
        path = str(corpus_dir / "ex6_3.json")
        code, data = run(capsys, "route", "--word", "aA", path)
        assert code == 0 and data["route"] == ""
        assert (code, data) == run(capsys, "route", "--word", "", path)
        code, data = run(capsys, "route", "--word", " a b ", path)
        assert code == 0 and data["route"] == "ab"

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
        # f(a2:1) = a2:2- and f(a2:2) = a2:1- a1 a2:1 a2:2: the left eigenvector
        # of the transition matrix, so L(f(e)) = 2 L(e) for both edges.
        top = data["strata"][-1]
        assert top["metric"] == {"a2:1": "1", "a2:2": "2"} and top["residual"] == 0.0

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

    @pytest.mark.parametrize("module, name", [(boundary, "STALL_BLOCKS"),
                                              (invariants, "SEED_IMAGES")],
                             ids=["STALL_BLOCKS", "SEED_IMAGES"])
    def test_attracting_degenerate_ray_exits_2(self, corpus_dir, capsys, monkeypatch,
                                               module, name):
        # With no block allowed to stall, prefix certifies no letter; with no
        # image to try, the seed search finds no seed.  Either is a structure
        # error, not a traceback.
        monkeypatch.setattr(module, name, 0)
        code = main(["attracting", str(corpus_dir / "ex6_2.json")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("structure error: attracting ray of class")

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "/nonexistent"],
        ["verify", "--suite", "{file}"],
        ["verify"],
        ["verify", "--props", "--count", "-1"],
        ["verify", "--props", "--count", "3", "--depth", "-1"],
        ["verify", "--suite", "{dir}", "--depth", "-1"],
        ["verify", "--props", "--count", "3", "--rank", "0"],
        ["verify", "--props", "--count", "3", "--max-image-len", "0"],
    ], ids=["missing-suite", "file-as-suite", "nothing", "negative-count",
            "props-negative-depth", "suite-negative-depth", "props-rank-zero",
            "props-image-len-zero"])
    def test_verify_bad_arguments_exit_2(self, corpus_dir, capsys, argv):
        argv = [a.format(file=corpus_dir / "ex6_2.json", dir=corpus_dir) for a in argv]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("input error:")

    @pytest.mark.parametrize("name", ["missing", "same-name"])
    def test_verify_reads_input_with_suite(self, corpus_dir, tmp_path, capsys, name):
        # The input is verified before the suite, and a suite file of the
        # same name does not hide its result.
        path = "/nonexistent.json"
        if name == "same-name":
            path = tmp_path / "ex6_2.json"
            path.write_text("{")
        code, data = run(capsys, "verify", str(path), "--suite", str(corpus_dir))
        assert code == 2
        assert len(data["results"]) == 24
        assert sum("error" in r for r in data["results"].values()) == 1

    def test_verify_props_at_depth(self, capsys, monkeypatch):
        depths = []
        survey = cli.run_survey

        def recorded(*args, **kwargs):
            depths.append(kwargs["depth"])
            return survey(*args, **kwargs)

        monkeypatch.setattr(cli, "run_survey", recorded)
        code, _ = run(capsys, "verify", "--props", "--count", "2", "--depth", "3")
        assert code == 0 and depths == [3]

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

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_exit_code_2_on_malformed(self, tmp_path, capsys, command, name):
        p = tmp_path / "broken.json"
        text = MALFORMED[name]
        p.write_text(text if isinstance(text, str) else json.dumps(text))
        code = main(argv_for(command, p))  # no exception may escape
        err = capsys.readouterr().err
        assert code == 2
        assert NAME_ERRORS.get(name, "input error") in err, err

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

    def test_identified_stratum_vertices_leave_classes_unverified(self, tmp_path, capsys):
        # f sends v0 and v1 to v1, and the collapsed edge e0 joins them below
        # the expanding stratum, so RTT-ii is not certified: the stratum is
        # unclassifiable and the partition comes from the oracle, which finds
        # the crossing path through e0 that joins e1@2/3 to v1.
        p = tmp_path / "collapse.json"
        p.write_text(json.dumps({
            "vertices": ["v0", "v1"],
            "edges": [{"name": "e0", "from": "v0", "to": "v1"},
                      {"name": "e1", "from": "v1", "to": "v0"},
                      {"name": "e2", "from": "v1", "to": "v0"}],
            "vertex_map": {"v0": "v1", "v1": "v1"},
            "edge_map": {"e0": {"at": "v1"}, "e1": ["e1", "e2-", "e1", "e2-"],
                         "e2": ["e2", "e1-", "e2", "e0"]}}))
        code, data = run(capsys, "invariants", str(p))
        assert code == 0
        assert data["classification_complete"] is False
        assert [(c["members"], c["ind"], c["rk"], c["a"]) for c in data["classes"]] == [
            (["e1@2/3", "e2@2/3", "v1"], -3, "unverified", "unverified")]
        assert data["verdicts"]["lefschetz_sum"] == "pass"
        (top,) = [s for s in data["strata"] if s["type"] == "unclassifiable"]
        assert top["note"].startswith("stratum vertices v0 and v1 lie in one component")

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

    def test_route_runaway_ray_is_given_up(self, tmp_path, capsys, monkeypatch):
        # The ray of B under a -> ACA, b -> Cb, c -> AC certifies a letter
        # every other block while its blocks grow ~2.6 times each; it is
        # given up once a block outgrows its certified letters instead of
        # being grown until memory runs out.
        p = tmp_path / "route.json"
        p.write_text(json.dumps({"rank": 3, "letters": ["a", "b", "c"],
                                 "images": {"a": "ACA", "b": "Cb", "c": "AC"}}))
        apply_budget(monkeypatch, 50_000)
        code, _ = run(capsys, "route", "--word", "", str(p))
        assert code == 0

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

    @pytest.mark.parametrize("argv, analyzed, verified", [
        (["--count", "60", "--seed", "3"], 58, 66),
        (["--count", "30", "--seed", "3", "--rank", "3", "--max-image-len", "3"], 27, 22),
    ], ids=["rank2", "rank3"])
    def test_props_survey_tallies(self, capsys, argv, analyzed, verified):
        code, data = run(capsys, "verify", "--props", *argv)
        assert code == 0
        props = data["properties"]
        assert props["analyzed"] == analyzed and props["violations"] == []
        assert props["index_equals_improved_char"] == [verified, verified]

    def test_props_structure_error_is_a_violation(self, capsys, monkeypatch):
        # A structure error is a state the proofs exclude; forced in every
        # type-3 ray walk, it fails the survey and names each map it hit.
        def walk(*args):
            raise rtt.StructureViolation("forced")

        monkeypatch.setattr(rtt, "_walk_ray", walk)
        code, data = run(capsys, "verify", "--props", "--count", "60", "--seed", "3")
        props = data["properties"]
        assert code == 1
        assert (props["analyzed"], props["skipped"], len(props["violations"])) == (50, 2, 8)
        assert all(v.startswith("structure error on a -> ") and v.endswith(": forced")
                   for v in props["violations"])

    def test_props_cross_check_failure_is_a_violation(self, capsys, monkeypatch):
        # A failed cross-check fails the survey and names the map it hit; it
        # does not abort the survey.
        fold = invariants._fold_stratum

        def corrupted(f, classes, info):
            fold(f, classes, info)
            next(c for c in classes if c.verified).rank += 1

        monkeypatch.setattr(invariants, "_fold_stratum", corrupted)
        code, data = run(capsys, "verify", "--props", "--count", "20", "--seed", "7")
        props = data["properties"]
        assert code == 1
        assert props["violations"]
        assert all(v.startswith("structure error on a -> ") and ": index mismatch on class "
                   in v for v in props["violations"])

    def test_small_depth_is_not_a_structure_error(self, tmp_path, capsys):
        # The partition oracle searches as deep as the longest crossing path,
        # which the type-3 search bounds by the metric, not by --depth.
        p = tmp_path / "long_path.json"
        p.write_text(json.dumps({"rank": 2, "letters": ["a", "b"],
                                 "images": {"a": "aaba", "b": "ba"}}))
        outs = []
        for depth in ("2", "8"):
            code = main(["invariants", str(p), "--depth", depth])
            assert code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert [(c["members"], c["ind"], c["rk"], c["a"])
                for c in json.loads(outs[0])["classes"]] == [(["*", "a@1/3"], -3, 0, 4)]

    @pytest.mark.parametrize("schema", ["graph-map", "endomorphism"])
    @pytest.mark.parametrize("command", COMMANDS + ("verify",))
    def test_filtration_key_rejected(self, tmp_path, capsys, command, schema):
        # The filtration is always derived from the map, so a file that still
        # supplies one is an input error in either schema, never ignored.
        data = (corpus_files()["ex6_2.json"] if schema == "graph-map"
                else {"rank": 2, "letters": ["a", "b"], "images": {"a": "a", "b": "Aba"}})
        data["filtration"] = [["a1"], ["a2"]]
        p = tmp_path / "with_filtration.json"
        p.write_text(json.dumps(data))
        code = main(argv_for(command, p))  # no exception may escape
        captured = capsys.readouterr()
        assert code == 2
        assert "'filtration'" in captured.err + captured.out

    def test_metric_emitted_as_rationals_when_exact(self, corpus_dir, capsys):
        code, data = run(capsys, "classify", str(corpus_dir / "ex6_1_n2.json"))
        assert code == 0
        metrics = [s["metric"] for s in data["strata"] if "metric" in s]
        assert metrics and all(v == "1" for m in metrics for v in m.values())

    def test_route_with_multichar_letters(self, corpus_dir, capsys):
        code, data = run(capsys, "route", "--word", "a1",
                         str(corpus_dir / "ex6_2.json"))
        assert code == 0
        # the route labeled by the fixed word a1 is an empty class: rank one
        # stabilizer, no attracting words, and no constant-route witness
        assert data["rk"] == 1 and data["a"] == 0 and data["ichr"] == 0
        assert data["constant_route_witness"] is None
        assert data["verdicts"]["empty_class_bounds"] == "pass"
