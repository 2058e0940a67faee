"""io.dump_report must write the text of json.dumps(data, indent=2,
sort_keys=True) plus a newline: these tests hold it to the standard library
byte for byte on every kind of document the program writes, and pin the
survey reports it writes."""

import hashlib
import itertools
import json
import math
import runpy
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nielsenkit
from nielsenkit import cli, io
from nielsenkit.cli import main
from nielsenkit.invariants import analyze_endomorphism
from nielsenkit.sampling import random_injective_endos

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def stdlib(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def survey_reports():
    """The reports of the first 300 maps of the rank-2 survey with images of
    length <= 4, seed 1, as `nielsenkit invariants` builds them."""
    return [io.report_to_json(analyze_endomorphism(phi))
            for phi in itertools.islice(random_injective_endos(2, 4, 1), 300)]


def test_corpus_files():
    for name, data in io.corpus_files().items():
        assert io.dump_report(data) == stdlib(data), name


def test_survey_reports(survey_reports):
    for data in survey_reports:
        assert io.dump_report(data) == stdlib(data)


def test_survey_reports_pinned(survey_reports):
    text = "".join(io.dump_report(data) for data in survey_reports)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "4373b914344c8a3425aa7fbfbee6b3201e3425854d7d5d146f10147e4358daa9"


def test_route_documents():
    """The documents of the benchmark's route workload, built by its own
    run_route, from the first 90 of its seed-1 inputs."""
    bench = runpy.run_path(str(WORKLOADS))
    docs = []

    def record(data):
        docs.append(data)
        return io.dump_report(data)

    nk = SimpleNamespace(sampling=nielsenkit.sampling, words=nielsenkit.words,
                         invariants=nielsenkit.invariants,
                         io=SimpleNamespace(dump_report=record))
    for inst in bench["generate"](nk, bench["WORKLOADS"]["routes-r2"], 1, 90):
        bench["run_route"](nk, inst)
    assert len(docs) == 90
    assert any(d["constant_route_witness"] is None for d in docs)
    for data in docs:
        assert io.dump_report(data) == stdlib(data)


def test_cli_documents(monkeypatch, corpus_dir, tmp_path):
    """Every document the command line writes through dump_report."""
    seen = []

    def checked(data):
        text = io.dump_report(data)
        assert text == stdlib(data)
        seen.append(text)
        return text

    monkeypatch.setattr(cli, "dump_report", checked)
    one = str(corpus_dir / "ex6_4.json")
    for argv in (["validate", one], ["classify", one], ["invariants", one],
                 ["attracting", one], ["route", "--word", "a", one], ["lefschetz", one],
                 ["verify", "--suite", str(corpus_dir)],
                 ["verify", "--props", "--count", "40"],
                 ["emit-corpus", str(tmp_path / "corpus")]):
        assert main(argv + ["--out", str(tmp_path / "out.json")]) == 0, argv
        assert (tmp_path / "out.json").read_text() == seen[-1]
    assert len(seen) == 9


EDGE_CASES = [
    {},
    [],
    (),
    {"a": {}, "b": [], "c": [[], {}, ()], "d": [{"e": [[]]}]},
    [True, False, None, 0, 1, -1, True, 10**30, -(10**30)],
    {"t": True, "f": False, "n": None, "i": 1, "z": 0, "m": -7},
    [0.0, -0.0, 1e-16, 1.5, -2.5e300, 0.1, 5e-324, 1e16],
    [math.nan, math.inf, -math.inf, {"x": math.nan}],
    ["", "plain", "é", "snow ☃", "\U0001f600", "\x00\x1f\x7f\t\n\r\"\\/"],
    {"é": 1, "\n": 2, "B": 3, "a": {"b": {"c": ()}}, "": [None]},
    (1, (2, ("x", ()))),
    "top-level string",
    -3,
    None,
]


@pytest.mark.parametrize("data", EDGE_CASES, ids=range(len(EDGE_CASES)))
def test_edge_cases(data):
    assert io.dump_report(data) == stdlib(data)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_matches_stdlib(data):
    assert io.dump_report(data) == stdlib(data)


@pytest.mark.parametrize("data", [{1: "a"}, {"a": {None: 1}}, [{(1, 2): 0}]])
def test_non_string_key_raises(data):
    with pytest.raises(TypeError, match="keys must be str"):
        io.dump_report(data)


@pytest.mark.parametrize("data", [object(), {"a": {1, 2}}, [b"bytes"]])
def test_unencodable_value_raises_like_json(data):
    with pytest.raises(TypeError) as ours:
        io.dump_report(data)
    with pytest.raises(TypeError) as theirs:
        stdlib(data)
    assert str(ours.value) == str(theirs.value)
