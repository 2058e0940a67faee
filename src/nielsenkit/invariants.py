"""Fixed point classes of a graph selfmap and their invariants.

The pipeline subdivides interior fixed points away, derives and classifies an
invariant filtration, and folds the class data up the strata:

* no crossing Nielsen path: every class keeps its members, gains the count of
  expanding fixed stratum directions;
* a crossing path joining two classes merges them (ranks add, one ray pair is
  identified);
* a crossing path looping one class bumps its rank and identifies a ray pair.

Indices are computed twice, by the local direction count at the fixed
vertices and by the stratum recursion, and the two must agree; the class
partition is cross-checked against a brute-force Nielsen-path search.
Disagreement is a structure error, never a warning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .boundary import MorphicRay, attraction_check, equivalent_under
from .graphs import (
    Dart,
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
    filtration_from_lists,
    find_inp,
    nielsen_partition_oracle,
)
from .words import (
    Endomorphism,
    IDENTITY,
    Word,
    fold_words,
    matrix_trace,
    route_equivalent,
    twisted_solutions,
)


class AnalysisError(RuntimeError):
    """Input rejected or an internal cross-check failed."""


@dataclass
class AnalysisConfig:
    depth: int = 8              # oracle path length and crossing-path search cap
    pf_tol: float = 1e-9


@dataclass
class ClassData:
    """One fixed point class with its invariants and their provenance."""

    members: tuple[str, ...]
    index: int
    delta: int
    rank: Optional[int]           # None = unverified
    attract: Optional[int]        # None = unverified
    provenance: str
    essential: bool = False
    ray_seeds: list[tuple[int, Dart]] = field(default_factory=list)

    @property
    def improved_char(self) -> Optional[int]:
        if self.rank is None or self.attract is None:
            return None
        return 1 - self.rank - self.attract


class ProjectedRay:
    """An expanding fixed direction's ray, read as a boundary word of the
    route endomorphism at its own start vertex: in the marking there, the ray
    spells a word that this endomorphism fixes."""

    def __init__(self, f: GraphMap, start: Dart):
        self.start = start
        self.marking = marking(f.graph, f.graph.origin(start))
        self.endo = self.marking.endo(f)
        self._images = ray_images(f, start)
        self._letters: list[int] = []
        self._emitted = 0

    def prefix(self, m: int) -> Word:
        # A tight path spells a reduced word, so the letters of each new
        # stretch of darts extend the letters so far without cancelling.
        while len(self._letters) < m:
            darts = next(self._images, None)
            if darts is None:
                raise AnalysisError(f"direction {self.start} does not expand along itself")
            self._letters.extend(self.marking.word(darts[self._emitted:]).letters)
            self._emitted = len(darts)
        return Word(tuple(self._letters[:m]))


@dataclass
class RouteReport:
    """Bounded word-level analysis of one route endomorphism."""

    route: Word
    rank_found: int
    generators: list[Word]
    attract_found: int
    attracting: list[MorphicRay]
    improved_char: int
    constant_witness: Optional[Word]   # route move to a constant route, if found
    search_depth: int

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
    # True when every stratum at least meets the literal type conditions
    # (transition matrix plus the derivative condition), even where the finer
    # train-track checks failed and the bookkeeping was left unverified.
    literal_classification_complete: bool = True
    verdicts: dict[str, str] = field(default_factory=dict)
    verdict_details: dict[str, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    map: Optional[GraphMap] = None

    def class_of(self, vertex: str) -> Optional[ClassData]:
        for c in self.classes:
            if vertex in c.members:
                return c
        return None


# ---------------------------------------------------------------------------
# Index computations.


def local_index(f: GraphMap, members: Sequence[str]) -> int:
    """Sum over the class of 1 minus the number of expanding fixed directions
    (pointwise-fixed edges count at their origin tip only)."""
    return sum(1 - len(fixed_directions(f, v)) for v in members)


def lefschetz_number(f: GraphMap, phi: Optional[Endomorphism] = None) -> tuple[int, int]:
    """(lefschetz, trace) from the induced endomorphism on first homology.

    phi is an endomorphism f induces on pi_1 along any route, built here when
    not given; the trace does not depend on the route, and it is a homotopy
    invariant, so a subdivision of f has the same one."""
    if phi is None:
        # Local: perfbench/spans.py hooks any_route_endo on graphs only.
        from .graphs import any_route_endo

        phi = any_route_endo(f)
    tr = matrix_trace(phi.abelianization())
    return 1 - tr, tr


# ---------------------------------------------------------------------------
# The stratum recursion.


@dataclass
class _ClassState:
    members: set[str]
    rank: int = 0
    attract: int = 0
    index: int = 1
    delta: int = 0
    verified: bool = True
    trace: list[str] = field(default_factory=list)
    ray_seeds: list[tuple[int, Dart]] = field(default_factory=list)


def _stratum_delta(f: GraphMap, info: StratumInfo) -> dict[str, list[Dart]]:
    out: dict[str, list[Dart]] = {}
    for v in fixed_vertices(f):
        ds = fixed_directions(f, v, info.edges)
        if ds:
            out[v] = ds
    return out


def _fold_stratum(f: GraphMap, classes: list[_ClassState], info: StratumInfo) -> None:
    delta_dirs = _stratum_delta(f, info)
    # The improved characteristic of every class must drop by exactly its
    # delta across this stratum (classes that merge drop from their sum).
    chars_before = {id(c): 1 - c.rank - c.attract for c in classes}
    parts_before = {id(c): [id(c)] for c in classes}

    def class_of(v: str) -> _ClassState:
        for c in classes:
            if v in c.members:
                return c
        raise AnalysisError(f"fixed vertex {v} missing from the class partition")

    def delta_of(c: _ClassState) -> int:
        return sum(len(delta_dirs.get(v, ())) for v in c.members)

    def add_seeds(c: _ClassState) -> None:
        if info.stype != "type3":
            return
        for v in sorted(c.members):
            for d in delta_dirs.get(v, ()):
                c.ray_seeds.append((info.index, d))

    def merge_pair(ca: _ClassState, cb: _ClassState) -> _ClassState:
        ca.members |= cb.members
        ca.rank += cb.rank
        ca.attract += cb.attract
        ca.index += cb.index
        ca.delta += cb.delta
        ca.verified = ca.verified and cb.verified
        ca.ray_seeds.extend(cb.ray_seeds)
        ca.trace.extend(cb.trace)
        parts_before[id(ca)] = parts_before[id(ca)] + parts_before[id(cb)]
        classes.remove(cb)
        return ca

    inp = info.inp if info.inp_status == "found" else None
    merged: Optional[_ClassState] = None
    if info.inp_status == "multiple":
        # Every crossing path merges what it joins, but with several distinct
        # ones the rank/attract bookkeeping is not pinned down.
        for cand in info.inp_multi:
            a, b = cand.endpoints
            ca, cb = class_of(a), class_of(b)
            if ca is not cb:
                merge_pair(ca, cb)
        for c in classes:
            d = delta_of(c)
            c.index -= d
            c.delta += d
            c.verified = False
            c.trace.append(f"stratum{info.index}:{info.stype}:ambiguous(d={d})")
        return
    if inp is not None:
        a, b = inp.endpoints
        ca, cb = class_of(a), class_of(b)
        if ca is not cb:
            merged, kind = merge_pair(ca, cb), "merge"
        else:
            merged, kind = ca, "loop"
            merged.rank += 1
        d = delta_of(merged)
        add_seeds(merged)
        merged.attract += d - 1
        merged.index -= d
        merged.delta += d
        merged.trace.append(f"stratum{info.index}:{info.stype}:{kind}(d={d})")
        if merged.attract < 0:
            raise StructureViolation("negative attracting count during recursion")
        if info.stype == "type3":
            _merge_leg_seeds(merged, info)

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
        c.attract += d
        c.index -= d
        c.delta += d
        c.trace.append(f"stratum{info.index}:{info.stype}:carry(d={d})")

    if info.inp_status == "none-within-bound":
        for c in classes:
            c.verified = False
            c.trace.append(f"stratum{info.index}:inp-search-capped")

    for c in classes:
        if not c.verified:
            continue
        before = sum(chars_before[p] for p in parts_before[id(c)])
        d = delta_of(c)
        if 1 - c.rank - c.attract != before - d:
            raise AnalysisError(
                f"improved characteristic did not drop by delta={d} across "
                f"stratum {info.index} on class {sorted(c.members)}")


def _merge_leg_seeds(c: _ClassState, info: StratumInfo) -> None:
    """The two leg tips of the crossing path span the same ray class."""
    inp = info.inp
    if inp.leg1 is None or inp.leg2 is None:
        c.verified = False
        c.trace.append(f"stratum{info.index}:legs-undetermined")
        return
    tips = (inp.leg1.darts[0], inp.leg2.darts[0])
    keep, drop = (info.index, tips[0]), (info.index, tips[1])
    if drop == keep:
        c.verified = False
        return
    if drop in c.ray_seeds:
        c.ray_seeds.remove(drop)
    elif keep in c.ray_seeds:
        # identical tips recorded once; nothing to drop
        c.verified = False
        c.trace.append(f"stratum{info.index}:leg-seed-missing")


# ---------------------------------------------------------------------------
# Attracting representatives.


def attracting_rays(f: GraphMap, cls: ClassData) -> list[ProjectedRay]:
    return [ProjectedRay(f, d) for _, d in cls.ray_seeds]


# ---------------------------------------------------------------------------
# Word-level route analysis.


def fixed_subgroup_basis(phi: Endomorphism, depth: int) -> list[Word]:
    """Greedy independent set of fixed words of length <= depth, taken in the
    order `twisted_solutions` finds them (phi(w) = w: left = right = 1)."""
    gens: list[Word] = []
    graph = fold_words(phi.rank, gens)
    for w in twisted_solutions(phi, IDENTITY, IDENTITY, depth):
        if w.is_identity or (gens and graph.accepts(w)):
            continue
        gens.append(w)
        graph = fold_words(phi.rank, gens)
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
    rank = fold_words(f_w.rank, gens).subgroup_rank() if gens else 0
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
        attract_found=len(kept),
        attracting=kept,
        improved_char=1 - rank - len(kept),
        constant_witness=witness.witness if witness.found else None,
        search_depth=depth,
    )


# ---------------------------------------------------------------------------
# The pipeline.


def _identity_report(f: GraphMap) -> Report:
    chi = f.graph.euler_characteristic()
    n = 1 - chi
    members = tuple(sorted(f.graph.vertices))
    cls = ClassData(members=members, index=chi, delta=0, rank=n, attract=0,
                    provenance="identity-map", essential=chi != 0)
    lef, tr = chi, 1 - chi
    report = Report(
        chi=chi, trace=tr, lefschetz=lef,
        classes=[cls], strata=[], filtration=None, subdivided_at=[],
        classification_complete=True, literal_classification_complete=True,
        map=f,
        notes=["identity map handled directly; every point is fixed"],
    )
    _check_theorems(report)
    return report


def analyze(f: GraphMap, config: Optional[AnalysisConfig] = None,
            filtration: Optional[Sequence[Sequence[str]]] = None) -> Report:
    """Full invariant computation for a pi1-injective graph selfmap."""
    # Local: perfbench/spans.py hooks any_route_endo on graphs only.
    from .graphs import any_route_endo

    config = config or AnalysisConfig()
    f.validate()
    if not f.graph.is_connected():
        raise AnalysisError("graph must be connected")
    if not f.graph.edges:
        raise AnalysisError("graph must have at least one edge")
    phi = any_route_endo(f)
    if not phi.is_injective():
        raise AnalysisError("selfmap is not injective on the fundamental group")
    if f.is_identity():
        return _identity_report(f)

    g, points = subdivided_fixed_map(f)
    if filtration is not None:
        # A user filtration names the original edges; translate each through
        # the subdivision into its chain of sub-edges.
        cuts: dict[str, int] = {}
        for e, _ in points:
            cuts[e] = cuts.get(e, 0) + 1
        def subnames(e: str) -> list[str]:
            if e not in f.graph.edge_ends:
                raise AnalysisError(f"filtration names unknown edge {e!r}")
            if e not in cuts:
                return [e]
            return [f"{e}:{i}" for i in range(1, cuts[e] + 2)]
        translated = [[s for e in stratum for s in subnames(e)]
                      for stratum in filtration]
        try:
            filt = filtration_from_lists(g, translated)
        except ValueError as exc:
            raise AnalysisError(f"supplied filtration is invalid: {exc}") from exc
    else:
        filt = derive_filtration(g)

    fixed = sorted(fixed_vertices(g))
    classes = [_ClassState(members={v}, trace=["base-point"]) for v in fixed]
    infos: list[StratumInfo] = []
    complete = True
    for i in range(filt.depth):
        info = classify_stratum(g, filt, i, config.pf_tol)
        if info.stype == "unclassifiable":
            complete = False
            infos.append(info)
            infos.extend(classify_stratum(g, filt, j, config.pf_tol)
                         for j in range(i + 1, filt.depth))
            break
        find_inp(g, filt, info, config.depth,
                 lower_classes=[frozenset(c.members) for c in classes])
        _fold_stratum(g, classes, info)
        infos.append(info)

    if not complete:
        # The recursion broke down; fall back to the brute-force partition and
        # local indices, with ranks and attracting counts left unverified.
        parts = nielsen_partition_oracle(g, config.depth)
        classes = [_ClassState(members=set(p), verified=False,
                               trace=["oracle-partition"]) for p in parts]
        for c in classes:
            c.index = local_index(g, sorted(c.members))

    # Cross-check 1: the two index computations must agree.
    out_classes: list[ClassData] = []
    for c in sorted(classes, key=lambda c: sorted(c.members)):
        members = tuple(sorted(c.members))
        loc = local_index(g, members)
        if complete and loc != c.index:
            raise AnalysisError(
                f"index mismatch on class {members}: local {loc}, recursive {c.index}")
        verified = complete and c.verified
        if verified and c.attract != len(c.ray_seeds):
            raise AnalysisError(
                f"attracting count {c.attract} does not match the {len(c.ray_seeds)} "
                f"ray seeds on class {members}")
        out_classes.append(ClassData(
            members=members,
            index=loc,
            delta=c.delta,
            rank=c.rank if verified else None,
            attract=c.attract if verified else None,
            provenance=";".join(c.trace),
            essential=loc != 0,
            ray_seeds=list(c.ray_seeds),
        ))

    # Cross-check 2: the partition must agree with bounded brute force (an
    # incomplete classification took its partition from the oracle above).
    if complete and len(fixed) > 1:
        oracle = nielsen_partition_oracle(g, config.depth)
        ours = sorted((frozenset(c.members) for c in out_classes), key=sorted)
        if ours != oracle:
            raise AnalysisError(
                f"class partition {ours} disagrees with the Nielsen-path oracle {oracle}")

    # Cross-check 3: indices must sum to the Lefschetz number, taken from the
    # unsubdivided map, so the check also covers the subdivision.
    lef, tr = lefschetz_number(f, phi)
    total = sum(c.index for c in out_classes)
    if total != lef:
        raise AnalysisError(
            f"index sum {total} differs from the Lefschetz number {lef}")

    literal = all(i.stype != "unclassifiable" or i.expanding_not_train_track
                  for i in infos)
    report = Report(
        chi=g.graph.euler_characteristic(),
        trace=tr,
        lefschetz=lef,
        classes=out_classes,
        strata=infos,
        filtration=filt,
        subdivided_at=points,
        classification_complete=complete,
        literal_classification_complete=literal,
        map=g,
    )
    if points:
        report.notes.append(
            "input subdivided at interior fixed points; the map is analyzed in "
            "this normalized form")
    if not complete:
        report.notes.append(
            "filtration has an unclassifiable stratum: partition from bounded "
            "search, ranks and attracting counts unverified")
    if any(i.inp_status == "none-within-bound" for i in infos):
        report.notes.append(
            "a crossing-path search hit its cap; affected classes are unverified")
    _check_theorems(report)
    return report


def analyze_endomorphism(phi: Endomorphism, config: Optional[AnalysisConfig] = None,
                         ) -> Report:
    """Realize the endomorphism on a rose and analyze the resulting selfmap."""
    from .io import rose_map  # io imports this module

    return analyze(rose_map(phi), config)


# ---------------------------------------------------------------------------
# Theorem verdicts.


def _check_theorems(report: Report) -> None:
    classes = report.classes
    verified = [c for c in classes if c.rank is not None and c.attract is not None]
    all_verified = len(verified) == len(classes)

    def set_verdict(name: str, ok: Optional[bool], detail: str) -> None:
        report.verdicts[name] = "n/a" if ok is None else ("pass" if ok else "fail")
        report.verdict_details[name] = detail

    if verified:
        bad = [c for c in verified if c.index > c.improved_char]
        set_verdict(
            "index_upper_bound", not bad,
            "; ".join(f"{c.members}: ind={c.index} <= 1-rk-a={c.improved_char}"
                      for c in verified) or "no classes")
    else:
        set_verdict("index_upper_bound", None, "no verified classes")

    if report.chi == -1 and verified:
        probs = []
        for c in verified:
            if c.essential and c.index != c.improved_char:
                probs.append(c)
            if not c.essential and not (0 <= c.improved_char <= 1):
                probs.append(c)
        set_verdict(
            "equality_at_chi_minus_one", not probs,
            "; ".join(
                f"{c.members}: ind={c.index}, 1-rk-a={c.improved_char}" for c in verified)
            or "no classes")
    else:
        set_verdict("equality_at_chi_minus_one", None,
                    f"chi={report.chi}" if report.chi != -1 else "no verified classes")

    total = sum(c.index for c in classes)
    set_verdict("lefschetz_sum", total == report.lefschetz,
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
