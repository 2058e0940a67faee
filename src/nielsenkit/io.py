"""JSON schemas for endomorphisms, graph maps and reports, plus emission of
the shipped instance corpus.

Graph-map files:
    {"vertices": ["v"],
     "edges": [{"name": "a", "from": "v", "to": "v"}, ...],
     "vertex_map": {"v": "v"},
     "edge_map": {"a": ["a", "a"], "b": ["a-", "b", "b"], "c": {"at": "v"}}}
with an optional "base" vertex.  The filtration is always derived from the
map, so a file in either schema that carries a "filtration" key is rejected.

Endomorphism files:
    {"rank": 2, "letters": ["a", "b"], "images": {"a": "B", "b": "aB"}}
(lowercase letter = generator, uppercase = inverse).

Subdivision names the pieces of an edge e as e:1, e:2, ... and the new
vertices as e@t, so an edge or vertex name or a letter containing ':' or '@'
is rejected.  So are names the readers cannot read back: an edge name ending
in '-' (a reversed dart), an empty letter, a single-character letter that is
not lowercase (uppercase is an inverse) and a longer letter that holds
whitespace or ends in '-' (such bases are read as tokens).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional

from .graphs import Dart, EdgePath, Graph, GraphMap, parse_dart, trivial_path
from .invariants import ClassData, Report
from .words import Basis, Endomorphism


class InputError(ValueError):
    """Malformed input file; the message carries the offending location."""


def _check_names(kind: str, names) -> None:
    """Reject the names that the module docstring rules out."""
    for name in names:
        if not isinstance(name, str):
            continue
        letter = kind == "letter"
        if ":" in name or "@" in name:
            rule = "contains ':' or '@', which subdivision reserves"
        elif kind == "edge" and name.endswith("-"):
            rule = "ends in '-'; edge names may not"
        elif letter and not name:
            rule = "is empty; letters must be nonempty"
        elif letter and len(name) == 1 and not name.islower():
            rule = "is not lowercase; single-character letters must be"
        elif letter and len(name) > 1 and (name.endswith("-")
                                           or any(c.isspace() for c in name)):
            rule = "holds whitespace or ends in '-'; multi-character letters may not"
        else:
            continue
        raise InputError(f"{kind} name {name!r} {rule}")


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


def endo_from_json(data: dict) -> Endomorphism:
    try:
        letters = tuple(data["letters"])
        if not all(isinstance(x, str) for x in letters):
            raise ValueError("letters must be strings")
        _check_names("letter", letters)
        basis = Basis(letters)
        if data.get("rank") not in (None, basis.rank):
            raise InputError(f"rank {data['rank']} does not match {basis.rank} letters")
        images = tuple(basis.parse(data["images"][name]) for name in letters)
    except KeyError as exc:
        raise InputError(f"endomorphism JSON is missing {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"endomorphism JSON is malformed: {exc}") from exc
    return Endomorphism(basis, images)


def rose_map(phi: Endomorphism) -> GraphMap:
    """Realize an endomorphism as a selfmap of the rose at the vertex '*' with
    one petal per generator; petal names are the basis letters."""
    names = phi.basis.letters
    graph = Graph(("*",), {n: ("*", "*") for n in names})
    emap = {}
    for n, im in zip(names, phi.images):
        if im.is_identity:
            emap[n] = trivial_path("*")
        else:
            emap[n] = EdgePath(tuple(Dart(names[abs(x) - 1], x > 0) for x in im.letters))
    return GraphMap(graph, {"*": "*"}, emap)


# ---------------------------------------------------------------------------
# Graph maps.


def graph_map_from_json(data: dict) -> tuple[GraphMap, Optional[str]]:
    try:
        vertices = tuple(data["vertices"])
        ends = {}
        for rec in data["edges"]:
            if rec["name"] in ends:
                raise InputError(f"duplicate edge name {rec['name']!r}")
            ends[rec["name"]] = (rec["from"], rec["to"])
        _check_names("vertex", vertices)
        _check_names("edge", ends)
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
    if not vertices:
        raise InputError("graph has no vertices")
    if not graph.is_connected():
        raise InputError("graph is not connected")
    if graph.euler_characteristic() == 1:
        raise InputError("graph is a tree; its fundamental group is trivial")
    base = data.get("base")
    if base is not None and base not in vertices:
        raise InputError(f"base {base!r} is not a vertex")
    return f, base


def load_instance(path: str | Path) -> tuple[GraphMap, Optional[str]]:
    """Load either schema; endomorphisms are realized on a rose."""
    data = load_json(path)
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    if "filtration" in data:
        raise InputError(f"{path}: the 'filtration' key is not read; the "
                         "filtration is derived from the map")
    if "images" in data:
        return rose_map(endo_from_json(data)), None
    if "edge_map" in data:
        return graph_map_from_json(data)
    raise InputError(f"{path}: neither an endomorphism nor a graph-map file")


# ---------------------------------------------------------------------------
# Reports.


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
            least = min(info.expansion.weights)
            rec["metric"] = {e: format(w / least, ".12g")
                             for e, w in zip(info.edges, info.expansion.weights)}
        if info.inp_status == "found":
            rec["inp"] = str(info.paths[0])
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
    """The text of json.dumps(data, indent=2, sort_keys=True) plus a
    newline, written by one recursive pass into one list: with an indent,
    json encodes through its pure-Python iterator.  Keys must be strings;
    any other key raises TypeError, as do values json cannot encode."""
    out: list[str] = []
    _write_json(data, "\n", out)
    out.append("\n")
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii
_INFINITY = float("inf")


def _write_json(o: Any, newline: str, out: list[str]) -> None:
    """Append the encoding of o; `newline` is a newline and the indent of
    the line o starts on.  The tests follow json's order, bool before int."""
    if isinstance(o, str):
        out.append(_encode_str(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        if o != o:
            out.append("NaN")
        elif o == _INFINITY:
            out.append("Infinity")
        elif o == -_INFINITY:
            out.append("-Infinity")
        else:
            out.append(float.__repr__(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for x in o:
            out.append(sep)
            _write_json(x, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k in sorted(o):
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {k.__class__.__name__}")
            out.append(sep)
            out.append(_encode_str(k))
            out.append(": ")
            _write_json(o[k], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


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
        p.write_text(dump_report(data))
        written.append(p)
    return written
