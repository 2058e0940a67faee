"""Invariant filtrations of graph selfmaps, stratum classification, the
Perron-Frobenius bracket of expanding strata, and indivisible Nielsen paths.

A filtration level is the vertex set plus a prefix union of strongly connected
components of the edge-crossing digraph; every level is invariant by
construction and re-verified.  Stratum types:

* type1: every stratum edge maps into the lower level;
* type2: the stratum transition matrix is a cyclic permutation (images may
  wander through lower strata between the single top crossing);
* type3: irreducible transition matrix with expansion > 1 that meets the
  relative train-track conditions (classify_stratum).

An expanding stratum is measured by the left Perron-Frobenius eigenvector L
of its transition matrix M (M^T L = lam L), which pf_metric brackets.

An expanding stratum of a *stable* relative train track of a homotopy
equivalence carries at most one indivisible Nielsen path crossing it
(Bestvina-Handel, Ann. Math. 135, 1992).  The train tracks here are not
stabilized, so an expanding stratum may carry several (a->baa, b->ba carries
two), as may one of an injective endomorphism that is not onto, or a
permutation stratum outside normal form; then only their merges are trusted
and the classes they touch stay unverified.

Four facts carry the Nielsen-path searches; the docstrings below cite them
by name.

Cancellation lemma: if P = A.B is tight and P and A are Nielsen paths, then
[f(B)] = [f(A)^-1 f(P)] = [A^-1 P] = B.  So a Nielsen path is indivisible iff
no proper nonempty prefix of it is Nielsen, and every extension of a Nielsen
path is divisible.  Hence the partition that all Nielsen paths of length
<= max_len give is found by searching indivisible ones from every fixed
vertex but the last: such a path splits at its fixed vertices into
indivisible pieces no longer than itself that join the same vertices, and a
piece starting at the last vertex is a loop, joining nothing, or is found
reversed from its other end.

Tail lemma: for paths A and B from fixed vertices to one vertex v, A.B^-1 is
a Nielsen path iff [A^-1 . f(A)] = [B^-1 . f(B)], because
[f(A) . f(B)^-1] = A.B^-1 says that the two paths from v to f(v) are
homotopic rel endpoints, and a tight path is the only one in its class.

Stretch fact: let H be a type3 stratum, G_r its level and L its metric
(0 below H), lo * L <= M^T L with lo > 1.  A path A in G_r that crosses H
and takes no illegal turn between H darts (A is r-legal) has
L([f(A)]) >= lo * L(A) > L(A), because the H darts of f(A) survive
tightening (RTT-i to RTT-iii, classify_stratum) and lower edges weigh 0.  So
A is not a Nielsen path, and a Nielsen path crossing H takes an illegal turn
between H darts.

Turn equivalence: an invariant level has an illegal turn iff the derivative
D sends two distinct darts of the level at one vertex to one dart, collapsed
darts ignored.  If (d1, d2) is illegal and k is least with D^k d1 = D^k d2,
then D^(k-1) d1 != D^(k-1) d2 are two such darts, D keeping darts in the
level and darts at one vertex at one vertex; the converse is k = 1.

A path crossing H is searched as A.B^-1, A and B prefixes of the rays from
two fixed directions of H (ray_images) that end at one vertex, and matched
by their tails, so no candidate is mapped.  Ray prefixes are r-legal, so
none is Nielsen, and every match is indivisible: a split inside A or at its
end is a Nielsen prefix of A, and one inside B^-1, at A.B2^-1 with
B = B1.B2, is Nielsen exactly when B1 is, by the cancellation lemma.  A
match takes an illegal turn between H darts, at its junction since A and B
take none, and no ray takes one, so a path and its two rays fix the junction.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Iterable, Optional, Sequence

from .graphs import (
    Dart,
    EdgePath,
    GraphMap,
    classify_turn,
    derivative,
    fixed_directions,
    fixed_vertices,
    ray_images,
    reachable,
    turn_degenerates_in_one_step,
)
from .words import extend_reduced


class StructureViolation(RuntimeError):
    pass


@dataclass
class Filtration:
    """Cumulative invariant levels; level 0 is the vertex set, stratum i is
    levels[i] minus levels[i-1]."""

    strata: list[tuple[str, ...]]

    @property
    def depth(self) -> int:
        return len(self.strata)

    def level_edges(self, i: int) -> tuple[str, ...]:
        out: list[str] = []
        for s in self.strata[:i]:
            out.extend(s)
        return tuple(out)

    def to_json(self) -> list[list[str]]:
        return [list(s) for s in self.strata]


def crossed_edges(f: GraphMap, e: str) -> set[str]:
    return {d.name for d in f.edge_map[e].darts}


def derive_filtration(f: GraphMap) -> Filtration:
    """Strata are the strongly connected components of the edge-crossing
    digraph: the stratum of e holds every edge that e reaches and that reaches
    e back.  Strata are placed lowest first, each step taking the
    lexicographically smallest unplaced stratum whose reachable strata are
    all placed, so every level is invariant."""
    succ = {e: crossed_edges(f, e) for e in f.graph.edges}
    reach = {e: reachable(succ, e) for e in succ}
    stratum_of = {e: tuple(sorted(w for w in reach[e] if e in reach[w])) for e in succ}
    below = {s: {stratum_of[w] for w in reach[s[0]]} - {s} for s in stratum_of.values()}
    strata: list[tuple[str, ...]] = []
    while len(strata) < len(below):
        placed = set(strata)
        strata.append(min(s for s, lower in below.items()
                          if s not in placed and lower <= placed))
    filt = Filtration(strata)
    verify_filtration(f, filt)
    return filt


def verify_filtration(f: GraphMap, filt: Filtration) -> None:
    crossed = {e: crossed_edges(f, e) for e in f.graph.edges}
    seen: list[str] = []
    all_edges = set(crossed)
    for s in filt.strata:
        for e in s:
            if e not in all_edges:
                raise ValueError(f"filtration names unknown edge {e}")
        seen.extend(s)
        level = set(seen)
        for e in level:
            if not crossed[e] <= level:
                raise ValueError(f"level through {s} is not invariant: edge {e} escapes")
    if set(seen) != all_edges or len(seen) != len(all_edges):
        raise ValueError("filtration does not partition the edge set")


# ---------------------------------------------------------------------------
# Perron-Frobenius data.


def transition_matrix(f: GraphMap, stratum: Sequence[str]) -> list[list[int]]:
    """M[i][j] = number of times the image of stratum edge j crosses edge i."""
    crossings = [Counter(d.name for d in f.edge_map[e].darts) for e in stratum]
    return [[c[ei] for c in crossings] for ei in stratum]


def _support_irreducible(m: list[list[int]]) -> bool:
    """Whether the digraph with an arc i -> j for m[j][i] > 0 is strongly
    connected: whether node 0 reaches every node and every node reaches 0."""
    n = len(m)
    succ = {i: [j for j in range(n) if m[j][i] > 0] for i in range(n)}
    pred = {i: [j for j, x in enumerate(m[i]) if x > 0] for i in range(n)}
    return n == 0 or len(reachable(succ, 0)) == n == len(reachable(pred, 0))


@dataclass(frozen=True)
class ExpansionData:
    """A bracket lo <= lam <= hi of a stratum's Perron-Frobenius eigenvalue
    and the positive integer vector v = weights with lo * v <= M^T v <= hi * v;
    the stratum metric is L = v / min(v).  lam and residual divide integers,
    which rounds as float(Fraction) does without reducing a Fraction first."""

    lo: Fraction
    hi: Fraction
    weights: tuple[int, ...]

    @property
    def lam(self) -> float:
        lo, hi = self.lo, self.hi
        return ((lo.numerator * hi.denominator + hi.numerator * lo.denominator)
                / (2 * lo.denominator * hi.denominator))

    @property
    def residual(self) -> float:
        lo, hi = self.lo, self.hi
        return ((hi.numerator * lo.denominator - lo.numerator * hi.denominator)
                / (lo.denominator * hi.denominator))

    @property
    def exact(self) -> bool:
        return self.lo == self.hi


# pf_metric accepts a bracket once hi - lo <= hi * PF_WIDTH, within
# PF_SQUARINGS squarings (the survey strata need at most 7).
PF_SQUARINGS = 12
PF_WIDTH = Fraction(1, 10**15)


def pf_metric(m: list[list[int]]) -> ExpansionData:
    """Perron-Frobenius bracket of an irreducible transition matrix M.

    B = M^T + I is primitive and has M^T's Perron vector also when M is
    periodic.  Each v_k = B^(2^k) . 1 is a positive integer vector, so by
    Collatz-Wielandt lo = min (M^T v)_i / v_i <= lam <= max (M^T v)_i / v_i
    = hi.  v_k is computed as P . v_(k-1) with P = B^(2^(k-1)), which takes
    k - 1 squarings of B, not k.  The ratios are compared, and the stopping
    rule tested, by cross-multiplying integers (every v_i >= 1); only the
    returned ends are Fractions.  Raises for an empty or reducible matrix,
    for a bracket that does not narrow and for lo <= 1 (not an expanding
    stratum).
    """
    n = len(m)
    if not n:
        raise ValueError("matrix must be nonempty")
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if any(x < 0 for row in m for x in row):
        raise ValueError("matrix must be nonnegative")
    if not _support_irreducible(m):
        raise ValueError("matrix is reducible")
    mt = [list(col) for col in zip(*m)]
    p = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(mt)]
    v = [sum(row) for row in p]
    width_num, width_den = PF_WIDTH.numerator, PF_WIDTH.denominator
    for k in range(PF_SQUARINGS + 1):
        if k > 1:
            cols = list(zip(*p))
            p = [[sum(map(mul, row, col)) for col in cols] for row in p]
        if k:
            v = [sum(map(mul, row, v)) for row in p]
        w = [sum(map(mul, row, v)) for row in mt]
        # lo = w[i] / v[i] and hi = w[j] / v[j]
        i = j = 0
        for r in range(1, n):
            if w[r] * v[i] < w[i] * v[r]:
                i = r
            if w[r] * v[j] > w[j] * v[r]:
                j = r
        hi_lo = w[j] * v[i]  # hi and lo over the common denominator v[i] * v[j]
        if (hi_lo - w[i] * v[j]) * width_den <= hi_lo * width_num:
            if w[i] <= v[i]:
                raise ValueError(f"spectral radius {float(Fraction(w[j], v[j])):.12g} "
                                 "is not > 1")
            return ExpansionData(Fraction(w[i], v[i]), Fraction(w[j], v[j]), tuple(v))
    raise ValueError(f"Perron-Frobenius bracket [{float(Fraction(w[i], v[i])):.12g}, "
                     f"{float(Fraction(w[j], v[j])):.12g}] "
                     f"did not narrow in {PF_SQUARINGS} squarings")


# ---------------------------------------------------------------------------
# Stratum classification.


@dataclass
class StratumInfo:
    index: int
    edges: tuple[str, ...]
    stype: str  # type1 | type2 | type3 | unclassifiable
    note: str = ""
    expansion: Optional[ExpansionData] = None
    # found | certified-none | none-within-bound | multiple | unsearched
    inp_status: str = "unsearched"
    # The crossing paths: one when found, several when multiple.
    paths: list[EdgePath] = field(default_factory=list)
    # Set when the stratum meets the transition-matrix and derivative
    # conditions for an expanding stratum but fails RTT-iii or the vertex
    # condition for RTT-ii (classify_stratum): the classification "counts",
    # the invariant bookkeeping above it does not.
    expanding_not_train_track: bool = False


def classify_stratum(f: GraphMap, filt: Filtration, i: int) -> StratumInfo:
    """Classify stratum i (types in the module docstring).

    An expanding stratum H is type3 when it meets the relative train-track
    conditions of Bestvina-Handel (Ann. Math. 135, 1992), G_{r-1} being the
    lower level (every vertex, the edges of lower strata).  RTT-i: the
    derivative keeps H darts in H.  RTT-iii: no image of an H edge takes an
    illegal turn between H darts (turns against lower darts cannot
    degenerate).  RTT-ii, that no nontrivial path in G_{r-1} between H
    vertices ever becomes trivial, is decided on vertices: f is injective on
    the H vertices of each component of G_{r-1}.  Proof: a tight loop never
    collapses, f being pi1-injective, and a path between distinct vertices
    is nontrivial while its ends differ.  By RTT-i and the invariance of
    G_{r-1}, its ends map to two H vertices in one component of G_{r-1}
    again, which the condition keeps distinct.  So RTT-ii holds for every
    iterate.  The condition is sufficient, not necessary.
    """
    stratum = filt.strata[i]
    m = transition_matrix(f, stratum)
    info = StratumInfo(index=i, edges=stratum, stype="unclassifiable")
    if all(x == 0 for row in m for x in row):
        info.stype = "type1"
        info.note = "all stratum edges map into the lower level"
        return info
    cols = [sum(m[r][c] for r in range(len(m))) for c in range(len(m))]
    rows = [sum(m[r][c] for c in range(len(m))) for r in range(len(m))]
    if all(c == 1 for c in cols) and all(r == 1 for r in rows):
        # permutation matrix; SCC construction makes it a single cycle
        info.stype = "type2"
        info.note = "images cross the stratum in a single cyclic permutation"
        return info
    try:
        info.expansion = pf_metric(m)
    except ValueError as exc:
        info.note = f"transition matrix not expanding/irreducible: {exc}"
        return info
    for e in stratum:
        for d in (Dart(e, True), Dart(e, False)):
            dd = derivative(f, d)
            if dd is None or dd.name not in stratum:
                info.note = f"derivative of {d} leaves the stratum"
                return info
    in_stratum = set(stratum)
    for e in stratum:  # RTT-iii
        img = f.edge_map[e].darts
        for d1, d2 in zip(img, img[1:]):
            if d1.name in in_stratum and d2.name in in_stratum:
                if classify_turn(f, d1.rev, d2) == "illegal":
                    info.note = (f"image of {e} takes the illegal turn "
                                 f"({d1.rev}, {d2}); not a train track map")
                    info.expanding_not_train_track = True
                    return info
    g = f.graph  # RTT-ii, on vertices
    lower: dict[str, list[str]] = {v: [] for v in g.vertices}
    for e in filt.level_edges(i):
        a, b = g.edge_ends[e]
        lower[a].append(b)
        lower[b].append(a)
    ends = [v for v in g.vertices if any(v in g.edge_ends[e] for e in stratum)]
    for j, v in enumerate(ends):
        for u in ends[:j]:
            if f.vertex_map[u] == f.vertex_map[v] and u in reachable(lower, v):
                info.note = (f"stratum vertices {u} and {v} lie in one component of "
                             f"the lower level and both map to {f.vertex_map[v]}; lower "
                             "paths between them are not certified to stay nontrivial")
                info.expanding_not_train_track = True
                return info
    info.stype = "type3"
    return info


# ---------------------------------------------------------------------------
# Nielsen paths.


def _canonical(p: EdgePath) -> tuple:
    # Reversal-invariant key; forward darts sort first.
    a = tuple((d.name, not d.fwd) for d in p.darts)
    b = tuple((d.name, not d.fwd) for d in p.reverse().darts)
    return min(a, b)


def _indivisible_nielsen_paths(f: GraphMap, max_len: int, starts: Iterable[str],
                               names: Iterable[str],
                               must: Optional[set[str]]) -> list[tuple[Dart, ...]]:
    """Every indivisible Nielsen path of length <= max(max_len, 1) that starts
    at one of `starts`, runs in the edges `names` and crosses an edge of
    `must` (any edge when None), in depth-first preorder, starts taken in
    order.  A dart is pushed before the length is tested, so max_len 0 still
    finds the paths of one dart.

    The search descends tight paths P and stops at the first Nielsen node,
    since every extension of a Nielsen path is divisible (the cancellation
    lemma in the module docstring).  Darts are codes (Graph.dart_of), read
    through f.image_table.  The image [f(P)] is kept tight incrementally:
    pushing a dart appends its image, through extend_reduced when its first
    letter cancels the last of [f(P)], which returns the number n of letters
    that cancelled (n = 0 otherwise), and popping rolls the push back with
    n: it deletes what was appended and restores the cancelled tail.

    Branches are cut by bounded cancellation, exactly for pi1-injective f
    (analyze rejects other maps).  C = f.cancellation_bound() is the number
    of Stallings folds of the subdivided graph, each of which cancels at most
    one dart, so with k = |[f(P)]| - C the first k darts of [f(P)] are a
    prefix of [f(PQ)] for every tight extension PQ, and a Nielsen path has
    [f(PQ)] = PQ.  So a branch is cut when k > max_len, or when the first
    min(k, |P|) darts of [f(P)] and of P differ.  C is 0 on an immersion
    such as a -> aa, which folds nothing."""
    g = f.graph
    darts, imgs, ends = g.dart_of, f.image_table, g.edge_ends
    code = {e: k for k, e in enumerate(g.edges, start=1)}  # of the forward dart
    out_at: dict[str, list[int]] = {v: [] for v in g.vertices}
    for e in names:  # in the order of g.darts(names)
        u, v = ends[e]
        out_at[u].append(code[e])
        out_at[v].append(-code[e])
    # after[c]: the darts that may follow dart c on a tight path.
    after: dict[int, list[int]] = {}
    for e, k in code.items():
        u, v = ends[e]
        after[k] = [d for d in out_at[v] if d != -k]
        after[-k] = [d for d in out_at[u] if d != k]
    marked = {c: must is None or d.name in must for c, d in darts.items()}
    bound = f.cancellation_bound()
    path: list[int] = []
    img: list[int] = []
    found: list[tuple[Dart, ...]] = []

    def visit(nexts: list[int]) -> None:
        m = len(img)
        for d in nexts:
            x = imgs[d]
            if img and x and img[-1] == -x[0]:
                n = extend_reduced(img, x)
            else:
                n = 0
                img.extend(x)
            path.append(d)
            if img == path:
                # A Nielsen path has both ends fixed.
                if any(marked[c] for c in path):
                    found.append(tuple(darts[c] for c in path))
            elif len(path) < max_len:
                k = len(img) - bound
                if k <= 0:
                    visit(after[d])
                elif k <= max_len:
                    j = min(k, len(path))
                    if img[:j] == path[:j]:
                        visit(after[d])
            path.pop()
            del img[m - n:]
            if n:
                img.extend(-y for y in reversed(x[:n]))

    for start in starts:
        visit(out_at[start])
    return found


def nielsen_paths_brute(f: GraphMap, max_len: int, within: Iterable[str],
                        crossing: Iterable[str]) -> list[EdgePath]:
    """Every indivisible Nielsen path of length <= max_len that runs in the
    edges `within` and crosses an edge of `crossing`, deduplicated up to
    reversal, by the depth-first search of _indivisible_nielsen_paths from
    every fixed vertex.  The reversal of an indivisible path is indivisible,
    so each is found from both of its ends.

    The function keeps its historical name because the benchmark's span hooks
    (perfbench/spans.py) time it under that name.
    """
    found: dict[tuple, EdgePath] = {}
    for darts in _indivisible_nielsen_paths(f, max_len, sorted(fixed_vertices(f)),
                                            within, set(crossing)):
        p = EdgePath(darts)
        found.setdefault(_canonical(p), p)
    return sorted(found.values(), key=lambda p: (len(p.darts), _canonical(p)))


def nielsen_partition_oracle(f: GraphMap, max_len: int) -> list[frozenset[str]]:
    """Partition of the fixed vertices by bounded Nielsen-path search: the
    connected components of "joined by a Nielsen path of length <= max_len".
    Only indivisible paths are searched, from every fixed vertex but the last
    in sorted order, which gives the same partition (the cancellation lemma in
    the module docstring)."""
    g = f.graph
    fixed = sorted(fixed_vertices(f))
    adj: dict[str, set[str]] = {v: set() for v in fixed}
    for darts in _indivisible_nielsen_paths(f, max_len, fixed[:-1], g.edges, None):
        a, b = g.origin(darts[0]), g.terminus(darts[-1])
        adj[a].add(b)
        adj[b].add(a)
    return sorted({frozenset(reachable(adj, v)) for v in fixed}, key=sorted)


def _walk_ray(f: GraphMap, d: Dart, weight: dict[str, int], cap: int,
              dart_cap: int) -> tuple[tuple[Dart, ...], list[tuple[str, tuple[int, ...]]], bool]:
    """One walk along the expanding ray from a fixed direction d with
    Df(d) = d (ray_images): its prefixes A of weight <= cap and of at most
    dart_cap darts (edges not in `weight` weigh 0), the key (v, tau) of each,
    shortest first, and whether the walk stopped at the weight cap.  v is the
    terminus of A and tau its Nielsen tail [A^-1 . f(A)] in dart codes
    (Graph.dart_of), so two prefixes have equal keys iff A.B^-1 is a Nielsen
    path (the tail lemma in the module docstring).

    tau is grown one dart e at a time, tau <- [e^-1 . tau . f(e)], in a
    deque: e^-1 cancels against its left end or is prepended, and f(e),
    read from f.image_table, is appended at its right end by extend_reduced.
    The empty prefix has the empty tail, its vertex being fixed.  A ray of a
    type3 stratum has no Nielsen prefix (the stretch fact), so an empty tail
    raises StructureViolation."""
    g = f.graph
    darts, imgs = g.dart_of, f.image_table
    tau: deque[int] = deque()
    ray: list[Dart] = []
    keys = []
    total = 0
    for current in ray_images(f, d):
        for c in current[len(ray):]:
            if len(ray) == dart_cap:
                return tuple(ray), keys, False
            e = darts[c]
            total += weight.get(e.name, 0)
            if total > cap:
                return tuple(ray), keys, True
            if tau and tau[0] == c:
                tau.popleft()
            else:
                tau.appendleft(-c)
            extend_reduced(tau, imgs[c])
            ray.append(e)
            if not tau:
                raise StructureViolation(f"prefix {EdgePath(tuple(ray))} of the ray from {d} "
                                         "is a Nielsen path; the stratum is not a train track")
            keys.append((g.terminus(e), tuple(tau)))
    return tuple(ray), keys, False


def _derivative_identifies_darts(f: GraphMap, edges: Iterable[str]) -> bool:
    """Whether the derivative sends two distinct darts of `edges` at one
    vertex to one dart, collapsed darts ignored: on an invariant level,
    whether the level has an illegal turn (the turn equivalence in the module
    docstring)."""
    g = f.graph
    images = [(g.origin(d), derivative(f, d)) for d in g.darts(edges)]
    images = [x for x in images if x[1] is not None]
    return len(set(images)) < len(images)


def find_inp(f: GraphMap, filt: Filtration, info: StratumInfo, max_len: int,
             lower_classes: Sequence[frozenset]) -> StratumInfo:
    """Locate the indivisible Nielsen paths crossing the stratum.

    type1 and multi-edge type2 strata certify `none`.  Single-edge type2
    strata get a bounded combinatorial search within the level; candidates
    differing only by insertion of lower-level Nielsen loops join the same
    lower classes and collapse to the shortest representative.

    A type3 stratum whose level has no illegal turn certifies `none` (the
    stretch fact), decided by _derivative_identifies_darts (the turn
    equivalence).  Otherwise it looks for crossing paths A.B^-1, A and B
    prefixes up to the metric cap of the rays of two fixed stratum
    directions, that meet at a turn degenerating in one step; `none` is
    certified once every ray passed the cap.  Each ray is walked once
    (_walk_ray), and a running hash join matches its prefix keys against the
    rays walked before it, the earlier ray giving A.  Every matched pair is
    an indivisible Nielsen path, and no two are equal up to reversal (module
    docstring).  They are never collapsed: two paths joining the same lower
    classes may still differ in rank (one merges, one closes a loop).

    Metric-cap lemma.  Let H be the type-3 stratum, G_r its level and L
    the metric of pf_metric (0 below H), lo * L <= M^T L <= hi * L, lo > 1.
    Every indivisible Nielsen path crossing H is A.B^-1 with A and B ray
    prefixes, L(A) and L(B) at most (hi - 1) * sum(L) / (lo - 1).
    1. Legs (Bestvina-Handel, Lemma 5.11): it is A.B^-1 with A and B
       r-legal, starting and ending with H darts, [f(A)] = A.tau and
       [f(B)] = B.tau for one nonempty tau.  [f(A)] starts with Df(d), d the
       first dart of A, so Df(d) = d, and A is a prefix of every [f^k(A)],
       hence of the ray from d once [f^k(d)] outgrows it.  [f(A)] and [f(B)]
       end with the images of the last darts of A and B, so the turn there
       degenerates in one step.
    2. Stretch (lo): L(A) + L(tau) = L([f(A)]) >= lo * L(A) by the stretch
       fact, so L(tau) >= (lo - 1) * L(A).
    3. Bounded cancellation (hi): tightening [f(A)].[f(B)]^-1 to A.B^-1
       cancels tau.  Run the proof of GraphMap.cancellation_bound, where C
       is the number of folds, on the component K of G_r that holds the
       path (f(K) lies in K, and K holds all of H), each edge of the
       subdivided K' weighing the L-length of its image: a fold removes one
       edge and cancels at most one of that weight, and the immersion
       Gamma -> G_r cancels none, so L(tau) <= w(K') - w(Gamma), Gamma the
       folded graph.
       w(K') = sum_e (M^T L)_e <= hi * sum(L), and Gamma covers H (no row
       of M is 0), so w(Gamma) >= sum(L) and L(tau) <= (hi - 1) * sum(L).
    The bound is the search cap, and it is reached on rank-2 survey maps.
    Step 2 needs that no lower path between H vertices collapses (RTT-ii),
    which classify_stratum proves for every iterate.  One step is not proved
    here: Bestvina-Handel prove step 1 for homotopy equivalences, not for
    injective maps that are not onto.
    """
    level = filt.level_edges(info.index + 1)
    class_of = {v: i for i, c in enumerate(lower_classes) for v in c}

    def record(cands: list[EdgePath], status_if_empty: str) -> None:
        kept = sorted(cands, key=lambda p: (len(p.darts), _canonical(p)))
        if info.stype == "type2":
            # Candidates joining the same pair of lower classes are taken to
            # differ by lower-level Nielsen loops and to induce the same
            # merge, so the shortest per pair is kept.  This collapse is not
            # proved: on the 2400 rank-2 maps with images of length <= 4
            # (seed 1), 115 of 542 found type-2 strata carry more than one
            # crossing path up to length 10, and no check has found a wrong
            # rk on them.
            by_pair: dict[frozenset, EdgePath] = {}
            for p in kept:
                a, b = f.graph.path_endpoints(p)
                by_pair.setdefault(frozenset((class_of[a], class_of[b])), p)
            kept = list(by_pair.values())
        info.paths = kept
        if len(kept) > 1:
            # A permutation stratum outside normal form (e.g. a merging path
            # plus an independent loop), or an expanding stratum that is not
            # stable, can carry several; the merges are all real, the rank
            # bookkeeping is not pinned down.
            info.inp_status = "multiple"
        elif kept:
            info.inp_status = "found"
        else:
            info.inp_status = status_if_empty

    if info.stype == "type1" or (info.stype == "type2" and len(info.edges) > 1):
        info.inp_status = "certified-none"
        return info

    if info.stype == "type2":
        record(nielsen_paths_brute(f, max_len, level, info.edges), "none-within-bound")
        return info

    if info.stype != "type3":
        info.inp_status = "unsearched"
        return info

    if not _derivative_identifies_darts(f, level):
        info.inp_status = "certified-none"
        return info

    # The cap (hi - 1) * sum(L) / (lo - 1) in units of v (L = v / min v),
    # rounded down: an integer weight exceeds it iff it exceeds the cap itself.
    exp = info.expansion
    weight = dict(zip(info.edges, exp.weights))
    cap = (exp.hi - 1) * sum(exp.weights) // (exp.lo - 1)
    dart_cap = 16 * (cap // min(exp.weights) + 2)
    walked: dict[tuple, list[tuple[tuple[Dart, ...], int]]] = {}
    cands: list[EdgePath] = []
    exhausted = True
    for v in fixed_vertices(f):
        for d in fixed_directions(f, v, info.edges):
            ray, keys, passed = _walk_ray(f, d, weight, cap, dart_cap)
            # A ray that never reached the metric cap within dart_cap darts
            # leaves part of the search region uncovered.
            exhausted = exhausted and passed
            for n, key in enumerate(keys, start=1):
                for earlier, m in walked.get(key, ()):
                    if turn_degenerates_in_one_step(f, earlier[m - 1].rev, ray[n - 1].rev):
                        cands.append(EdgePath(earlier[:m]
                                              + tuple(e.rev for e in reversed(ray[:n]))))
            for n, key in enumerate(keys, start=1):
                walked.setdefault(key, []).append((ray, n))
    record(cands, "certified-none" if exhausted else "none-within-bound")
    return info
