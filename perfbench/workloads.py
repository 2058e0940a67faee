"""Seeded workloads, the call each instance makes, and the checks on its output.

Every check reads only the JSON text the instance produced, plus the input
itself; free-group arithmetic for the checks is written here, not borrowed
from the program, so a wrong answer cannot vouch for itself.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass

ROUTE_DEPTH = 6        # what `nielsenkit route --depth 6` searches
ROUTE_PREFIX = 24      # prefix length `nielsenkit route` prints per ray
# Output of an instance the program rejects with StructureViolation, which
# `nielsenkit invariants` reports with exit code 2 and `run_survey` skips.
STRUCTURE_ERROR = "StructureViolation: "
# Output of an instance the harness abandoned (run.APPLY_BUDGET).
ABANDONED = "abandoned"


@dataclass(frozen=True)
class Workload:
    kind: str           # survey | routes
    rank: int
    max_image_len: int
    instances: int      # instances per run, sized for one pass in ~45 s


WORKLOADS = {
    # Mixed: PF iteration, the Nielsen-path search and find_inp all weigh.
    "survey-r2": Workload("survey", 2, 4, 2400),
    # Word level only: words and boundary do the work, rtt is bypassed.
    "routes-r2": Workload("routes", 2, 4, 440),
    # The path-search oracle dominates.  Not in BENCHMARK.json: at the ~40
    # instances a run affords, its heavy tail makes every figure swing
    # with the seed; use it with --trace 1 to see where rank-3 time goes.
    "survey-r3": Workload("survey", 3, 3, 40),
}


def generate(nk, wl: Workload, seed: int, count: int) -> list:
    """The workload's inputs; the same seed gives the same list."""
    gen = nk.sampling.random_injective_endos(wl.rank, wl.max_image_len, seed)
    phis = [next(gen) for _ in range(count)]
    if wl.kind == "survey":
        return phis
    # Routes cycle through the identity, a random letter and a random
    # reduced word of length 2, so the mix of route lengths is fixed.
    rng = random.Random(f"routes-{seed}")
    letters = [s * i for i in range(1, wl.rank + 1) for s in (1, -1)]
    out = []
    for k, phi in enumerate(phis):
        route: list[int] = []
        while len(route) < k % 3:
            x = rng.choice(letters)
            if not route or x != -route[-1]:
                route.append(x)
        out.append((phi, nk.words.Word(tuple(route))))
    return out


# ---------------------------------------------------------------------------
# One instance, as the CLI would compute and print it.


def run_survey(nk, phi) -> str:
    """`nielsenkit invariants` on the rose map of phi."""
    report = nk.invariants.analyze_endomorphism(phi)
    return nk.io.dump_report(nk.io.report_to_json(report))


def run_route(nk, inst) -> str:
    """`nielsenkit route --depth 6` on the pair (phi, w)."""
    phi, w = inst
    rep = nk.invariants.analyze_route(phi, w, ROUTE_DEPTH)
    fmt = phi.basis.format
    ichr = rep.improved_char
    bounds_ok = (0 <= ichr <= 1) if rep.probably_empty else None
    data = {
        "route": fmt(w),
        "rk": rep.rank_found,
        "generators": [fmt(g) for g in rep.generators],
        "a": rep.attract_found,
        "ichr": ichr,
        "attracting_prefixes": [fmt(r.prefix(ROUTE_PREFIX)) for r in rep.attracting],
        "constant_route_witness": (
            fmt(rep.constant_witness) if rep.constant_witness is not None else None),
        "probably_empty_to_depth": rep.probably_empty,
        "search_depth": rep.search_depth,
        "verdicts": {
            "empty_class_bounds": (
                "n/a" if bounds_ok is None else ("pass" if bounds_ok else "fail")),
        },
    }
    return nk.io.dump_report(data)


def runner(wl: Workload):
    return run_survey if wl.kind == "survey" else run_route


# ---------------------------------------------------------------------------
# Free-group arithmetic for the checks.


def _reduce(letters) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _inverse(letters) -> tuple[int, ...]:
    return tuple(-x for x in reversed(letters))


def _images(phi) -> list[tuple[int, ...]]:
    return [tuple(im.letters) for im in phi.images]


def _apply(images, letters) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        out.extend(images[x - 1] if x > 0 else _inverse(images[-x - 1]))
    return _reduce(out)


def _parse(text: str) -> tuple[int, ...]:
    """Letters a, b, c, ... are generators 1, 2, 3; capitals their inverses."""
    return tuple(ord(ch) - 96 if ch.islower() else -(ord(ch) - 64) for ch in text)


def homology_trace(phi) -> int:
    """Trace of phi on H_1: the exponent sum of generator i in phi(x_i)."""
    return sum(sum((x == i) - (x == -i) for x in im)
               for i, im in enumerate(_images(phi), start=1))


# ---------------------------------------------------------------------------
# Checks; each returns a list of problems, empty when the output is right.


def _load(text: str):
    """The JSON of an output, or None for a structure error or an abandoned
    instance; anything else that is not JSON raises ValueError."""
    if text.startswith(STRUCTURE_ERROR) or text == ABANDONED:
        return None
    return json.loads(text)


def check_survey(phi, text: str) -> list[str]:
    try:
        data = _load(text)
    except ValueError:
        return [text[:300]]
    if data is None:
        return []
    problems = [f"verdict {k} failed" for k, v in sorted(data["verdicts"].items())
                if v == "fail"]
    lef = 1 - homology_trace(phi)
    total = sum(c["ind"] for c in data["classes"])
    if total != lef:
        problems.append(f"class indices sum to {total}, 1 - trace is {lef}")
    if data["lefschetz"] != lef:
        problems.append(f"reported Lefschetz number {data['lefschetz']} != {lef}")
    return problems


def check_route(inst, text: str) -> list[str]:
    """Everything `route` certifies.  Its empty_class_bounds verdict is only
    tallied: the verdict assumes the class is empty whenever the route is not
    twisted-conjugate to the constant route, but the class can hold an
    interior fixed point instead (a -> Ab, b -> bbA, route A: rk 0, a 2, the
    class of b@1/2), and then a "fail" is not a wrong invariant."""
    phi, w = inst
    try:
        data = _load(text)
    except ValueError:
        return [text[:300]]
    if data is None:
        return []
    problems = []
    images = _images(phi)
    c = tuple(w.letters)
    twisted = [_reduce(c + im + _inverse(c)) for im in images]
    for g in data["generators"]:
        g = _parse(g)
        if not g or _apply(twisted, g) != g:
            problems.append(f"generator {g} is not fixed by the twisted map")
    if data["a"] != len(data["attracting_prefixes"]):
        problems.append("a differs from the number of attracting prefixes")
    for p in data["attracting_prefixes"]:
        p = _parse(p)
        if len(p) != ROUTE_PREFIX or _reduce(p) != p:
            problems.append(f"attracting prefix {p} is not a reduced {ROUTE_PREFIX}-letter word")
        elif _apply(twisted, p[:1])[:1] != p[:1]:
            problems.append(f"attracting prefix {p} does not start at a fixed direction")
    wit = data["constant_route_witness"]
    if wit is not None:
        u = _parse(wit)
        if _reduce(u + c + _inverse(_apply(images, u))) != ():
            problems.append(f"witness {u} does not move the route to the constant route")
    return problems


def checker(wl: Workload):
    return check_survey if wl.kind == "survey" else check_route


# ---------------------------------------------------------------------------
# Fingerprint counts; they repeat exactly for a fixed seed and program.


def fingerprint(wl: Workload, texts: list[str], counts: dict) -> dict:
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    fp: dict = {"instances": len(texts)}
    tally: Counter = Counter()
    for text in texts:
        try:
            data = _load(text)
        except ValueError:
            tally["error"] += 1
            continue
        if text == ABANDONED:
            tally["abandoned"] += 1
        elif data is None:
            tally["structure_error"] += 1
        elif wl.kind == "survey":
            tally["incomplete"] += not data["classification_complete"]
            for c in data["classes"]:
                tally["classes"] += 1
                if c["rk"] != "unverified" and c["a"] != "unverified":
                    tally["verified_classes"] += 1
                    tally["ind_eq_1_rk_a"] += c["ind"] == c["ichr"]
            for s in data["strata"]:
                tally["strata." + s["type"]] += 1
                tally["inp_status." + s["inp_status"]] += 1
        else:
            tally["rank_found"] += data["rk"]
            tally["generators"] += len(data["generators"])
            tally["attracting"] += data["a"]
            tally["constant_witness"] += data["constant_route_witness"] is not None
            tally["route_verdict." + data["verdicts"]["empty_class_bounds"]] += 1
    if wl.kind == "routes":
        tally["attraction_checks"] = counts.get("boundary.attraction_check.calls", 0)
        tally["attraction_decided"] = counts.get("boundary.attraction_check.decided", 0)
    fp.update(sorted(tally.items()))
    fp["sha256"] = digest
    return fp


def certified_frac(wl: Workload, fp: dict) -> float:
    """Survey: classes with rk and a both verified.  Routes: attraction
    verdicts that are not inconclusive.  The share of answers certified."""
    if wl.kind == "survey":
        return fp["verified_classes"] / max(1, fp["classes"])
    return fp["attraction_decided"] / max(1, fp["attraction_checks"])
