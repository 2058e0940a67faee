"""Command-line interface.

Exit codes: 0 = all verdicts pass, 1 = some verdict failed, 2 = malformed
input or a structure error.  Reports are JSON on stdout (or --out) and are
byte-identical across runs for fixed inputs and options.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .boundary import DegenerateRay, attraction_check
from .graphs import any_route_endo
from .invariants import (
    DEPTH,
    AnalysisError,
    analyze,
    analyze_route,
    attracting_rays,
    lefschetz_number,
)
from .io import (
    InputError,
    dump_report,
    emit_corpus,
    load_instance,
    report_to_json,
)
from .rtt import StructureViolation
from .sampling import DEFAULT_SEED, run_survey
from .words import UnknownGenerator

PASS, FAIL, ERROR = 0, 1, 2


def _emit(data: dict, out: str | None) -> None:
    text = dump_report(data)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _depth(args) -> int:
    if args.depth < 0:
        raise InputError("depth must be nonnegative")
    return args.depth


def _verdict_exit(verdicts: dict[str, str]) -> int:
    return FAIL if any(v == "fail" for v in verdicts.values()) else PASS


def cmd_validate(args) -> int:
    f, _ = load_instance(args.input)
    data = {
        "valid": True,
        "connected": f.graph.is_connected(),
        "euler_characteristic": f.graph.euler_characteristic(),
        "pi1_injective": f.is_injective(),
    }
    _emit(data, args.out)
    return PASS if data["pi1_injective"] else ERROR


def cmd_classify(args) -> int:
    f, _ = load_instance(args.input)
    report = analyze(f, _depth(args))
    data = report_to_json(report)
    data = {k: data[k] for k in
            ("strata", "filtration", "subdivided_at", "classification_complete")}
    _emit(data, args.out)
    return PASS


def cmd_invariants(args) -> int:
    f, _ = load_instance(args.input)
    report = analyze(f, _depth(args))
    _emit(report_to_json(report), args.out)
    return _verdict_exit(report.verdicts)


def cmd_attracting(args) -> int:
    f, _ = load_instance(args.input)
    if args.prefix_len < 0:
        raise InputError("prefix length must be nonnegative")
    report = analyze(f, _depth(args))
    dart_of = report.map.graph.dart_of
    classes = []
    for c in report.classes:
        rays = []
        if c.attract is not None:
            try:
                for d, ray in zip(c.ray_seeds, attracting_rays(report.map, c)):
                    verdict = attraction_check(ray, ray.endo)
                    rays.append({
                        "prefix": ray.endo.basis.format(ray.prefix(args.prefix_len)),
                        "initial_direction": str(dart_of[d]),
                        "status": verdict.status,
                    })
            except DegenerateRay as exc:
                raise AnalysisError(
                    f"attracting ray of class {list(c.members)}: {exc}") from exc
        classes.append({
            "members": list(c.members),
            "a": c.attract if c.attract is not None else "unverified",
            "rays": rays,
        })
    _emit({"classes": classes}, args.out)
    return PASS


def cmd_route(args) -> int:
    f, base = load_instance(args.input)
    base = base or f.graph.vertices[0]
    if f.vertex_map[base] != base:
        raise InputError("route analysis needs a fixed base vertex")
    phi = any_route_endo(f, base)
    if not phi.is_injective():
        raise AnalysisError("selfmap is not injective on the fundamental group")
    try:
        w = phi.basis.parse(args.word)
    except UnknownGenerator as exc:
        raise InputError(str(exc)) from exc
    rep = analyze_route(phi, w, _depth(args))
    ichr = rep.improved_char
    # An empty class has 0 <= 1 - rk - a <= 1.  No constant-route witness to
    # depth does not make the class empty (a -> Ab, b -> bbA, route A is the
    # class of b@1/2), so bounds that fail are inconclusive, not a failure.
    if not rep.probably_empty:
        bounds = "n/a"
    else:
        bounds = "pass" if 0 <= ichr <= 1 else "inconclusive"
    data = {
        "route": phi.basis.format(w),
        "rk": rep.rank_found,
        "generators": [phi.basis.format(g) for g in rep.generators],
        "a": rep.attract_found,
        "ichr": ichr,
        "attracting_prefixes": [
            phi.basis.format(r.prefix(24)) for r in rep.attracting],
        "constant_route_witness": (
            phi.basis.format(rep.constant_witness)
            if rep.constant_witness is not None else None),
        "probably_empty_to_depth": rep.probably_empty,
        "search_depth": rep.search_depth,
        "verdicts": {
            "empty_class_bounds": bounds,
        },
    }
    _emit(data, args.out)
    return _verdict_exit(data["verdicts"])


def cmd_lefschetz(args) -> int:
    f, _ = load_instance(args.input)
    lef, tr = lefschetz_number(f)
    _emit({"lefschetz": lef, "trace": tr,
           "chi": f.graph.euler_characteristic()}, args.out)
    return PASS


def cmd_verify(args) -> int:
    depth = _depth(args)
    paths = [Path(args.input)] if args.input else []
    if args.suite:
        suite = sorted(Path(args.suite).glob("*.json"))
        if not suite:
            raise InputError(f"{args.suite}: not a directory of instance files")
        paths.extend(suite)
    if not paths and not args.props:
        raise InputError("nothing to verify: give an input file, --suite or --props")
    if args.props and args.count < 0:
        raise InputError("count must be nonnegative")
    if args.props and min(args.rank, args.max_image_len) < 1:
        raise InputError("rank and max image length must be positive")
    results: dict[str, dict] = {}
    worst = PASS

    def one(path: Path) -> None:
        nonlocal worst
        # The input may share its name with a suite file; keep both results.
        key = str(path) if path.name in results else path.name
        try:
            f, _ = load_instance(path)
            report = analyze(f, depth)
            results[key] = {
                "verdicts": dict(sorted(report.verdicts.items())),
                "classes": len(report.classes),
            }
            worst = max(worst, _verdict_exit(report.verdicts))
        except (InputError, AnalysisError, StructureViolation) as exc:
            results[key] = {"error": str(exc)}
            worst = ERROR

    for path in paths:
        one(path)

    data: dict = {"results": results}
    if args.props:
        stats = run_survey(args.count, rank=args.rank, max_image_len=args.max_image_len,
                           seed=args.seed, depth=depth)
        data["properties"] = {
            "requested": stats.requested,
            "analyzed": stats.analyzed,
            "skipped": stats.skipped_unclassified,
            "skip_rate": round(stats.skip_rate, 4),
            "violations": stats.violations,
            "index_equals_improved_char": [stats.verified_classes] * 2,
        }
        if not stats.ok:
            worst = max(worst, FAIL)
    _emit(data, args.out)
    return worst


def cmd_emit_corpus(args) -> int:
    written = emit_corpus(args.target)
    _emit({"written": [p.name for p in written]}, args.out)
    return PASS


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nielsenkit",
        description="Fixed point classes and attracting boundary words of "
                    "graph selfmaps and free-group endomorphisms.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        return p

    p = add("validate", cmd_validate, help="parse and sanity-check an instance")
    p.add_argument("input")

    p = add("classify", cmd_classify, help="filtration and stratum classification")
    p.add_argument("input")
    p.add_argument("--depth", type=int, default=DEPTH)

    p = add("invariants", cmd_invariants, help="full fixed-point-class report")
    p.add_argument("input")
    p.add_argument("--depth", type=int, default=DEPTH)

    p = add("attracting", cmd_attracting, help="attracting boundary words per class")
    p.add_argument("input")
    p.add_argument("--depth", type=int, default=DEPTH)
    p.add_argument("--prefix-len", type=int, default=24)

    p = add("route", cmd_route, help="bounded analysis of one route word")
    p.add_argument("input")
    p.add_argument("--word", required=True)
    p.add_argument("--depth", type=int, default=DEPTH)

    p = add("lefschetz", cmd_lefschetz, help="Lefschetz number and homology trace")
    p.add_argument("input")

    p = add("verify", cmd_verify, help="run verdicts over a file or a suite")
    p.add_argument("input", nargs="?")
    p.add_argument("--suite", help="directory of instance files")
    p.add_argument("--props", action="store_true",
                   help="also run the randomized property survey")
    p.add_argument("--count", type=int, default=500)
    p.add_argument("--rank", type=int, default=2,
                   help="rank of the surveyed endomorphisms")
    p.add_argument("--max-image-len", type=int, default=4,
                   help="longest image of a generator in the survey")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--depth", type=int, default=DEPTH)

    p = add("emit-corpus", cmd_emit_corpus, help="write the instance corpus")
    p.add_argument("target")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, UnknownGenerator) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return ERROR
    except (AnalysisError, StructureViolation) as exc:
        print(f"structure error: {exc}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
