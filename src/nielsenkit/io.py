"""JSON schemas for endomorphisms, graph maps, infinite words, and reports,
plus emission of the shipped instance corpus.

Graph-map files:
    {"vertices": ["v"],
     "edges": [{"name": "a", "from": "v", "to": "v"}, ...],
     "vertex_map": {"v": "v"},
     "edge_map": {"a": ["a", "a"], "b": ["a-", "b", "b"], "c": {"at": "v"}}}
with an optional "filtration": [["a"], ["b"]] override and optional "base".

Endomorphism files:
    {"rank": 2, "letters": ["a", "b"], "images": {"a": "B", "b": "aB"}}
(lowercase letter = generator, uppercase = inverse).
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional

from .boundary import EventuallyPeriodic, InfiniteWord, MorphicRay, ev_periodic
from .graphs import Dart, EdgePath, Graph, GraphMap, parse_dart, trivial_path
from .invariants import ClassData, Report
from .words import Basis, Endomorphism, Word


class InputError(ValueError):
    """Malformed input file; the message carries the offending location."""


def load_json(path: str | Path) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Endomorphisms.


def endo_to_json(phi: Endomorphism) -> dict:
    return {
        "rank": phi.rank,
        "letters": list(phi.basis.letters),
        "images": {name: phi.basis.format(im)
                   for name, im in zip(phi.basis.letters, phi.images)},
    }


def endo_from_json(data: dict) -> Endomorphism:
    try:
        letters = tuple(data["letters"])
        basis = Basis(letters)
        if data.get("rank") not in (None, basis.rank):
            raise InputError(f"rank {data['rank']} does not match {basis.rank} letters")
        images = tuple(basis.parse(data["images"][name]) for name in letters)
    except KeyError as exc:
        raise InputError(f"endomorphism JSON is missing {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"endomorphism JSON is malformed: {exc}") from exc
    return Endomorphism(basis, images)


def rose_map(phi: Endomorphism, vertex: str = "*") -> GraphMap:
    """Realize an endomorphism as a selfmap of the rose with one petal per
    generator; petal names are the basis letters."""
    names = phi.basis.letters
    graph = Graph((vertex,), {n: (vertex, vertex) for n in names})
    emap = {}
    for n, im in zip(names, phi.images):
        if im.is_identity:
            emap[n] = trivial_path(vertex)
        else:
            emap[n] = EdgePath(tuple(Dart(names[abs(x) - 1], x > 0) for x in im.letters))
    return GraphMap(graph, {vertex: vertex}, emap)


# ---------------------------------------------------------------------------
# Graph maps.


def graph_map_to_json(f: GraphMap, filtration: Optional[list[list[str]]] = None) -> dict:
    g = f.graph
    data: dict[str, Any] = {
        "vertices": list(g.vertices),
        "edges": [{"name": e, "from": g.edge_ends[e][0], "to": g.edge_ends[e][1]}
                  for e in g.edges],
        "vertex_map": dict(f.vertex_map),
        "edge_map": {
            e: ({"at": p.at} if p.is_trivial else [str(d) for d in p.darts])
            for e, p in ((e, f.edge_map[e]) for e in g.edges)
        },
    }
    if filtration is not None:
        data["filtration"] = filtration
    return data


def graph_map_from_json(data: dict) -> tuple[GraphMap, Optional[list[list[str]]], Optional[str]]:
    try:
        vertices = tuple(data["vertices"])
        ends = {}
        for rec in data["edges"]:
            if rec["name"] in ends:
                raise InputError(f"duplicate edge name {rec['name']!r}")
            ends[rec["name"]] = (rec["from"], rec["to"])
        graph = Graph(vertices, ends)
        vmap = dict(data["vertex_map"])
        emap = {}
        for name, img in data["edge_map"].items():
            if name not in ends:
                raise InputError(f"edge_map names unknown edge {name!r}")
            if isinstance(img, dict):
                emap[name] = trivial_path(img["at"])
            elif img == []:
                emap[name] = trivial_path(vmap[ends[name][0]])
            else:
                darts = tuple(parse_dart(t) for t in img)
                emap[name] = EdgePath(darts)
    except KeyError as exc:
        raise InputError(f"graph-map JSON is missing {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"graph-map JSON is malformed: {exc}") from exc
    f = GraphMap(graph, vmap, emap)
    try:
        f.validate()
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if not graph.is_connected():
        raise InputError("graph is not connected")
    if graph.euler_characteristic() == 1:
        raise InputError("graph is a tree; its fundamental group is trivial")
    filtration, base = data.get("filtration"), data.get("base")
    if filtration is not None and not (
            isinstance(filtration, list)
            and all(isinstance(s, list) and all(isinstance(e, str) for e in s)
                    for s in filtration)):
        raise InputError("filtration must be a list of lists of edge names")
    if base is not None and base not in vertices:
        raise InputError(f"base {base!r} is not a vertex")
    return f, filtration, base


def load_instance(path: str | Path) -> tuple[GraphMap, Optional[list[list[str]]], Optional[str]]:
    """Load either schema; endomorphisms are realized on a rose."""
    data = load_json(path)
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    if "images" in data:
        return rose_map(endo_from_json(data)), None, None
    if "edge_map" in data:
        return graph_map_from_json(data)
    raise InputError(f"{path}: neither an endomorphism nor a graph-map file")


# ---------------------------------------------------------------------------
# Infinite words.


def infinite_word_to_json(w: InfiniteWord, basis: Basis) -> dict:
    if isinstance(w, EventuallyPeriodic):
        return {"type": "evperiodic",
                "prefix": basis.format(Word(w.pre)),
                "period": basis.format(Word(w.period))}
    if isinstance(w, MorphicRay):
        if not w.pre.is_identity or w._skip:
            raise ValueError("only pristine morphic rays serialize")
        return {"type": "morphic", "seed": basis.format(w.seed),
                "endo": endo_to_json(w.endo)}
    raise ValueError(f"cannot serialize {type(w).__name__}")


def infinite_word_from_json(data: dict, basis: Optional[Basis] = None) -> InfiniteWord:
    kind = data.get("type")
    if kind == "evperiodic":
        if basis is None:
            raise InputError("evperiodic words need a basis context")
        return ev_periodic(basis.parse(data["prefix"]), basis.parse(data["period"]))
    if kind == "morphic":
        phi = endo_from_json(data["endo"])
        return MorphicRay(phi.basis.parse(data["seed"]), phi)
    raise InputError(f"unknown infinite-word type {kind!r}")


# ---------------------------------------------------------------------------
# Reports.


def _fraction_str(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    return format(float(x), ".12g")


def class_to_json(c: ClassData) -> dict:
    return {
        "members": list(c.members),
        "ind": c.index,
        "rk": c.rank if c.rank is not None else "unverified",
        "a": c.attract if c.attract is not None else "unverified",
        "ichr": c.improved_char if c.improved_char is not None else "unverified",
        "delta": c.delta,
        "provenance": c.provenance,
    }


def report_to_json(report: Report) -> dict:
    strata = []
    for info in report.strata:
        rec: dict[str, Any] = {
            "edges": list(info.edges),
            "type": info.stype,
            "inp_status": info.inp_status,
        }
        if info.note:
            rec["note"] = info.note
        if info.expansion is not None:
            rec["lambda"] = format(info.expansion.lam, ".12f")
            rec["residual"] = info.expansion.residual
            rec["metric"] = {e: _fraction_str(x)
                             for e, x in zip(info.edges, info.expansion.lengths)}
        if info.inp is not None:
            rec["inp"] = str(info.inp.path)
        strata.append(rec)
    return {
        "classes": [class_to_json(c) for c in report.classes],
        "lefschetz": report.lefschetz,
        "chi": report.chi,
        "trace": report.trace,
        "verdicts": dict(sorted(report.verdicts.items())),
        "verdict_details": dict(sorted(report.verdict_details.items())),
        "strata": strata,
        "filtration": report.filtration.to_json() if report.filtration else None,
        "subdivided_at": [[e, str(t)] for e, t in report.subdivided_at],
        "classification_complete": report.classification_complete,
        "notes": report.notes,
    }


def dump_report(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Corpus.


def _rose_json(images: dict[str, list[str]]) -> dict:
    return {
        "vertices": ["*"],
        "edges": [{"name": e, "from": "*", "to": "*"} for e in images],
        "vertex_map": {"*": "*"},
        "edge_map": images,
    }


def corpus_files() -> dict[str, dict]:
    """The shipped instances; every file passes `verify` by construction."""
    files: dict[str, dict] = {}
    for n in (1, 2, 3):
        images = {f"a{i}": [f"a{i}", f"a{i}"] for i in range(1, n + 1)}
        files[f"ex6_1_n{n}.json"] = _rose_json(images)
    files["ex6_2.json"] = _rose_json({"a1": ["a1"], "a2": ["a2-", "a1", "a2"]})
    files["ex6_3.json"] = _rose_json({"a": ["b"], "b": ["a-"]})
    files["ex6_4.json"] = _rose_json({"a": ["a-"], "b": ["a-", "b", "b"]})
    files["derived_ba.json"] = _rose_json({"a": ["a"], "b": ["b", "a"]})
    for k in range(-5, 6):
        if k == 0:
            continue  # degree 0 is not injective; rejected, not shipped
        image = ["e"] * k if k > 0 else ["e-"] * (-k)
        files[f"circle_k{k}.json"] = _rose_json({"e": image})
    for k in range(-3, 4):
        if k == 0:
            continue
        files[f"rank1_k{k}.json"] = {
            "rank": 1, "letters": ["g"],
            "images": {"g": "g" * k if k > 0 else "G" * (-k)},
        }
    return files


def emit_corpus(target: str | Path) -> list[Path]:
    """Write the corpus; output is byte-stable across runs."""
    target = Path(target)
    target.mkdir(parents=True, exist_ok=True)
    written = []
    for name, data in sorted(corpus_files().items()):
        p = target / name
        p.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        written.append(p)
    return written
