"""Fixed point classes of a graph selfmap and their invariants.

The pipeline subdivides interior fixed points away, derives and classifies an
invariant filtration, and folds the class data up the strata below the first
unclassifiable one:

* no crossing Nielsen path: every class keeps its members, gains the count of
  expanding fixed stratum directions;
* a crossing path joining two classes merges them (ranks add, one ray pair is
  identified);
* a crossing path looping one class bumps its rank and identifies a ray pair.

A class's a is the number of ray seeds the fold keeps: an expanding stratum
seeds one ray at each fixed stratum direction, and a `found` crossing path
drops the seed at its last dart (reversed), whose ray is equivalent to that of
its first dart.

Each class's index is counted once, at its fixed vertices.  A brute-force
Nielsen-path search runs once per map, as deep as the longest crossing path
the fold found: its partition gives the classes when a stratum is
unclassifiable and cross-checks the fold's otherwise.  Every report, the
identity map's too, is built along one path and checked against the
theorems in one place, _check_theorems: on every verified class the index
must equal 1 - rk - a, the characteristic the recursion folds, and the
indices must sum to the Lefschetz number.  Disagreement is a structure
error, never a warning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, takewhile
from typing import Optional, Sequence

from .boundary import DegenerateRay, MorphicRay, attraction_check, equivalent_under
from .graphs import (
    GraphMap,
    fixed_directions,
    fixed_vertices,
    marking,
    ray_images,
    subdivided_fixed_map,
)
from .rtt import (
    Filtration,
    StratumInfo,
    StructureViolation,
    classify_stratum,
    derive_filtration,
    find_inp,
    nielsen_partition_oracle,
)
from .words import (
    Endomorphism,
    IDENTITY,
    Word,
    fold_words,
    route_equivalent,
    twisted_solutions,
)


class AnalysisError(RuntimeError):
    """Input rejected or an internal cross-check failed."""


# Default path-length cap of the partition oracle and the crossing-path search.
DEPTH = 8


@dataclass
class ClassData:
    """One fixed point class with its invariants and their provenance."""

    members: tuple[str, ...]
    index: int
    delta: int                    # len(members) - index when complete, else 0
    rank: Optional[int]           # None = unverified
    attract: Optional[int]        # len(ray_seeds); None = unverified
    provenance: str
    ray_seeds: list[int] = field(default_factory=list)  # dart codes

    @property
    def improved_char(self) -> Optional[int]:
        if self.rank is None or self.attract is None:
            return None
        return 1 - self.rank - self.attract


@dataclass
class RouteReport:
    """Bounded word-level analysis of one route endomorphism."""

    route: Word
    rank_found: int
    generators: list[Word]
    attracting: list[MorphicRay]
    constant_witness: Optional[Word]   # route move to a constant route, if found
    search_depth: int

    @property
    def attract_found(self) -> int:
        return len(self.attracting)

    @property
    def improved_char(self) -> int:
        return 1 - self.rank_found - self.attract_found

    @property
    def probably_empty(self) -> bool:
        return self.constant_witness is None


@dataclass
class Report:
    chi: int
    trace: int
    lefschetz: int
    classes: list[ClassData]
    strata: list[StratumInfo]
    filtration: Optional[Filtration]
    subdivided_at: list
    classification_complete: bool
    verdicts: dict[str, str] = field(default_factory=dict)
    verdict_details: dict[str, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    map: Optional[GraphMap] = None

    @property
    def literal_classification_complete(self) -> bool:
        """Every stratum at least meets the literal type conditions (transition
        matrix plus the derivative condition), even where the finer
        train-track checks failed and the bookkeeping was left unverified."""
        return all(i.stype != "unclassifiable" or i.expanding_not_train_track
                   for i in self.strata)


# ---------------------------------------------------------------------------
# Index computations.


def local_index(f: GraphMap, members: Sequence[str]) -> int:
    """Sum over the class of 1 minus the number of expanding fixed directions
    (pointwise-fixed edges count at their origin tip only)."""
    return sum(1 - len(fixed_directions(f, v)) for v in members)


def lefschetz_number(f: GraphMap) -> tuple[int, int]:
    """(lefschetz, trace) of a selfmap of a connected graph, by the Hopf trace
    formula over cells (Jiang, Lectures on Nielsen Fixed Point Theory,
    Contemp. Math. 14, 1983): L(f) = tr(f#|C0) - tr(f#|C1), where tr(f#|C0)
    counts the fixed vertices and tr(f#|C1) sums, over the edges e, the signed
    occurrences of e in f(e).  The trace on H0 is 1, so the trace on first
    homology is 1 - L; on a rose it is the trace of the abelianized
    endomorphism.  Both are homotopy invariants, so a subdivision of the map
    has the same ones."""
    table = f.image_table
    tr1 = sum(table[k].count(k) - table[k].count(-k)
              for k in range(1, len(f.graph.edge_ends) + 1))
    lef = len(fixed_vertices(f)) - tr1
    return lef, 1 - lef


# ---------------------------------------------------------------------------
# The stratum recursion.


@dataclass
class _ClassState:
    members: set[str]
    rank: int = 0
    verified: bool = True
    trace: list[str] = field(default_factory=list)
    ray_seeds: list[int] = field(default_factory=list)


def _fold_stratum(f: GraphMap, classes: list[_ClassState], info: StratumInfo) -> None:
    # The fixed directions of this stratum at each fixed vertex.
    delta_dirs = {v: fixed_directions(f, v, info.edges)
                  for c in classes for v in c.members}
    ends = f.graph.code_ends

    def class_of(v: str) -> _ClassState:
        for c in classes:
            if v in c.members:
                return c
        raise AnalysisError(f"fixed vertex {v} missing from the class partition")

    def delta_of(c: _ClassState) -> int:
        return sum(len(delta_dirs[v]) for v in c.members)

    def add_seeds(c: _ClassState) -> None:
        if info.stype != "type3":
            return
        for v in sorted(c.members):
            c.ray_seeds.extend(delta_dirs[v])

    def merge_pair(ca: _ClassState, cb: _ClassState) -> _ClassState:
        ca.members |= cb.members
        ca.rank += cb.rank
        ca.verified = ca.verified and cb.verified
        ca.ray_seeds.extend(cb.ray_seeds)
        ca.trace.extend(cb.trace)
        classes.remove(cb)
        return ca

    merged: Optional[_ClassState] = None
    if info.inp_status == "multiple":
        # Every crossing path merges what it joins, but with several distinct
        # ones the rank/attract bookkeeping is not pinned down.
        for p in info.paths:
            ca, cb = class_of(ends[p[0]][0]), class_of(ends[p[-1]][1])
            if ca is not cb:
                merge_pair(ca, cb)
        for c in classes:
            c.verified = False
            c.trace.append(
                f"stratum{info.index}:{info.stype}:ambiguous(d={delta_of(c)})")
        return
    if info.inp_status == "found":
        (p,) = info.paths
        ca, cb = class_of(ends[p[0]][0]), class_of(ends[p[-1]][1])
        if ca is not cb:
            merged, kind = merge_pair(ca, cb), "merge"
        else:
            merged, kind = ca, "loop"
            merged.rank += 1
        d = delta_of(merged)
        if info.stype == "type2" and d != 1:
            # f(E) crosses the single edge E once, so E has at most one fixed
            # direction (a pointwise-fixed E counts at its origin only).  A
            # permutation stratum adds no ray seeds, so a = len(ray_seeds)
            # holds only if the path meets exactly one.
            raise StructureViolation(
                f"crossing path of permutation stratum {info.index} "
                f"({', '.join(info.edges)}) meets {d} fixed stratum directions, not 1")
        add_seeds(merged)
        if info.stype == "type3":
            # p is A.B^-1 for prefixes A and B of the rays of its two end
            # darts, so those seeds are one ray class.
            merged.ray_seeds.remove(-p[-1])
        merged.trace.append(f"stratum{info.index}:{info.stype}:{kind}(d={d})")

    for c in classes:
        if c is merged:
            continue
        d = delta_of(c)
        if d == 0:
            continue
        if info.stype == "type2":
            # A fixed stratum direction in a permutation stratum belongs with
            # a crossing Nielsen path ending at its vertex; reaching this
            # branch means the bookkeeping cannot be completed soundly.
            c.verified = False
            c.trace.append(f"stratum{info.index}:type2:unresolved(d={d})")
        add_seeds(c)
        c.trace.append(f"stratum{info.index}:{info.stype}:carry(d={d})")

    if info.inp_status == "none-within-bound":
        for c in classes:
            c.verified = False
            c.trace.append(f"stratum{info.index}:inp-search-capped")


# ---------------------------------------------------------------------------
# Attracting representatives.


# Images [f^k(d)] of a ray seed that attracting_rays tries as morphic seeds.
SEED_IMAGES = 8


def attracting_rays(f: GraphMap, cls: ClassData) -> list[MorphicRay]:
    """One MorphicRay per ray seed d: that of phi_v =
    marking(f.graph, v).endo(f) at d's origin v, seeded at the marking word of
    the first image d, [f(d)], ... (of SEED_IMAGES) that MorphicRay accepts."""
    rays = []
    for d in cls.ray_seeds:
        mark = marking(f.graph, f.graph.code_ends[d][0])
        phi = mark.endo(f)
        for codes in islice(ray_images(f, d), SEED_IMAGES):
            try:
                rays.append(MorphicRay(mark.word(codes), phi))
                break
            except DegenerateRay:
                continue
        else:
            raise DegenerateRay(f"no image of direction {f.graph.dart_of[d]} seeds a ray")
    return rays


# ---------------------------------------------------------------------------
# Word-level route analysis.


def fixed_subgroup_basis(phi: Endomorphism, depth: int) -> list[Word]:
    """Greedy independent set of fixed words of length <= depth, taken in the
    order `twisted_solutions` finds them (phi(w) = w: left = right = 1)."""
    gens: list[Word] = []
    graph = fold_words(gens)
    for w in twisted_solutions(phi, IDENTITY, IDENTITY, depth):
        if w.is_identity or (gens and graph.accepts(w)):
            continue
        gens.append(w)
        graph = fold_words(gens)
    return gens


def word_attracting_candidates(phi: Endomorphism) -> list[MorphicRay]:
    """One ray per expanding fixed letter direction: phi(x) = x.u, u nonempty."""
    out = []
    for i in range(1, phi.rank + 1):
        for x in (i, -i):
            img = Word(phi.letter_image(x))
            if len(img) >= 2 and img.letters[0] == x:
                out.append(MorphicRay(Word((x,)), phi))
    return out


def analyze_route(phi: Endomorphism, route: Word, depth: int) -> RouteReport:
    """Bounded invariants of the route endomorphism i_route o phi."""
    f_w = phi.inner_twist(route)
    gens = fixed_subgroup_basis(f_w, depth)
    rank = fold_words(gens).subgroup_rank()
    attracting = []
    for ray in word_attracting_candidates(f_w):
        if attraction_check(ray, f_w).status == "attracting":
            attracting.append(ray)
    kept: list[MorphicRay] = []
    for ray in attracting:
        if any(equivalent_under(ray, other, gens, f_w, depth) is not None for other in kept):
            continue
        kept.append(ray)
    witness = route_equivalent(route, IDENTITY, phi, depth)
    return RouteReport(
        route=route,
        rank_found=rank,
        generators=gens,
        attracting=kept,
        constant_witness=witness.witness if witness.found else None,
        search_depth=depth,
    )


# ---------------------------------------------------------------------------
# The pipeline.


def analyze(f: GraphMap, depth: int = DEPTH) -> Report:
    """Full invariant computation for a pi1-injective graph selfmap; depth caps
    the crossing-path search and the partition oracle."""
    f.validate()
    if not f.graph.is_connected():
        raise AnalysisError("graph must be connected")
    if not f.graph.edges:
        raise AnalysisError("graph must have at least one edge")
    if f.graph.euler_characteristic() == 1:
        raise AnalysisError("graph is a tree; its fundamental group is trivial")
    if f.is_identity():
        # Every point is fixed: one class, with no strata to fold.
        g, points, filt, infos, complete = f, [], None, [], True
        chi = g.graph.euler_characteristic()
        out_classes = [ClassData(members=tuple(sorted(g.graph.vertices)), index=chi,
                                 delta=0, rank=1 - chi, attract=0,
                                 provenance="identity-map")]
        notes = ["identity map handled directly; every point is fixed"]
    else:
        g, points = subdivided_fixed_map(f)
        # g is f up to the subdivision, so it has f's injectivity, and its
        # fold is the one the crossing-path searches bound cancellation by.
        if not g.is_injective():
            raise AnalysisError("selfmap is not injective on the fundamental group")
        filt = derive_filtration(g)
        infos = [classify_stratum(g, filt, i) for i in range(filt.depth)]
        complete = all(i.stype != "unclassifiable" for i in infos)

        fixed = sorted(fixed_vertices(g))
        classes = [_ClassState(members={v}, trace=["base-point"]) for v in fixed]
        for info in takewhile(lambda i: i.stype != "unclassifiable", infos):
            find_inp(g, filt, info, depth,
                     lower_classes=[frozenset(c.members) for c in classes])
            _fold_stratum(g, classes, info)

        # One bounded brute-force partition: the classes of an incomplete
        # classification, whose ranks and attracting counts stay unverified,
        # and the cross-check of a complete one.  The type-3 search is capped
        # by the metric, not by depth, so the oracle searches at least as
        # deep as the longest crossing path the fold found.
        if not complete or len(fixed) > 1:
            reach = max((len(p) for i in infos for p in i.paths), default=0)
            oracle = nielsen_partition_oracle(g, max(depth, reach))
            if not complete:
                classes = [_ClassState(members=set(p), verified=False,
                                       trace=["oracle-partition"]) for p in oracle]
            else:
                ours = sorted((frozenset(c.members) for c in classes), key=sorted)
                if ours != oracle:
                    raise AnalysisError(
                        f"class partition {[sorted(c) for c in ours]} disagrees with "
                        f"the Nielsen-path oracle {[sorted(c) for c in oracle]}")

        out_classes = []
        for c in sorted(classes, key=lambda c: sorted(c.members)):
            members = tuple(sorted(c.members))
            loc = local_index(g, members)
            out_classes.append(ClassData(
                members=members,
                index=loc,
                delta=len(members) - loc if complete else 0,
                rank=c.rank if c.verified else None,
                attract=len(c.ray_seeds) if c.verified else None,
                provenance=";".join(c.trace),
                ray_seeds=list(c.ray_seeds),
            ))

        notes = []
        if points:
            notes.append(
                "input subdivided at interior fixed points; the map is analyzed in "
                "this normalized form")
        if not complete:
            notes.append(
                "filtration has an unclassifiable stratum: partition from bounded "
                "search, ranks and attracting counts unverified")
        if any(i.inp_status == "none-within-bound" for i in infos):
            notes.append(
                "a crossing-path search hit its cap; affected classes are unverified")

    # The Lefschetz number is taken from the unsubdivided map, so
    # _check_theorems also covers the subdivision.
    lef, tr = lefschetz_number(f)
    report = Report(
        chi=g.graph.euler_characteristic(),
        trace=tr,
        lefschetz=lef,
        classes=out_classes,
        strata=infos,
        filtration=filt,
        subdivided_at=points,
        classification_complete=complete,
        notes=notes,
        map=g,
    )
    _check_theorems(report)
    return report


def analyze_endomorphism(phi: Endomorphism, depth: int = DEPTH) -> Report:
    """Realize the endomorphism on a rose and analyze the resulting selfmap."""
    from .io import rose_map  # io imports this module

    return analyze(rose_map(phi), depth)


# ---------------------------------------------------------------------------
# Theorem verdicts.


def _check_theorems(report: Report) -> None:
    """Check a report against the theorems.  A verified class with index
    other than 1 - rk - a, or an index sum other than the Lefschetz number,
    is a structure error; only rank_attract_sum_bound and trace_criterion
    can fail."""
    classes = report.classes
    verified = [c for c in classes if c.improved_char is not None]
    all_verified = len(verified) == len(classes)
    for c in verified:
        if c.index != c.improved_char:
            raise AnalysisError(
                f"index mismatch on class {c.members}: local {c.index}, "
                f"1 - rk - a = {c.improved_char}")
    total = sum(c.index for c in classes)
    if total != report.lefschetz:
        raise AnalysisError(
            f"index sum {total} differs from the Lefschetz number {report.lefschetz}")

    def set_verdict(name: str, ok: Optional[bool], detail: str) -> None:
        report.verdicts[name] = "n/a" if ok is None else ("pass" if ok else "fail")
        report.verdict_details[name] = detail

    if verified:
        set_verdict("index_upper_bound", True,
                    "; ".join(f"{c.members}: ind={c.index} <= 1-rk-a={c.improved_char}"
                              for c in verified))
    else:
        set_verdict("index_upper_bound", None, "no verified classes")

    if report.chi == -1 and verified:
        set_verdict("equality_at_chi_minus_one", True,
                    "; ".join(f"{c.members}: ind={c.index}, 1-rk-a={c.improved_char}"
                              for c in verified))
    else:
        set_verdict("equality_at_chi_minus_one", None,
                    f"chi={report.chi}" if report.chi != -1 else "no verified classes")

    set_verdict("lefschetz_sum", True,
                f"sum ind = {total} == 1 - tr = {report.lefschetz}")

    if all_verified and classes:
        doubled = sum(max(0, 2 * c.rank + c.attract - 2) for c in classes)
        set_verdict("rank_attract_sum_bound", doubled <= -2 * report.chi,
                    f"sum max(0, rk + a/2 - 1) = {doubled}/2 <= -chi = {-report.chi}")
    else:
        set_verdict("rank_attract_sum_bound", None, "unverified classes present")

    if report.trace < 1:
        if all_verified:
            wit = [c for c in classes if c.rank == 0 and c.attract == 0]
            set_verdict("trace_criterion", bool(wit),
                        f"tr={report.trace} < 1: classes with rk=a=0: "
                        f"{[c.members for c in wit]}")
        else:
            set_verdict("trace_criterion", None,
                        f"tr={report.trace} < 1 but some classes are unverified")
    elif report.trace > 1 and report.chi == -1:
        if all_verified:
            wit = [c for c in classes if c.rank + c.attract > 1]
            set_verdict("trace_criterion", bool(wit),
                        f"tr={report.trace} > 1: classes with rk+a>1: "
                        f"{[c.members for c in wit]}")
        else:
            set_verdict("trace_criterion", None,
                        f"tr={report.trace} > 1 but some classes are unverified")
    else:
        set_verdict("trace_criterion", None, f"tr={report.trace}")
