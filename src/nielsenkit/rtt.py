"""Invariant filtrations of graph selfmaps, stratum classification, the
Perron-Frobenius expansion data, and indivisible Nielsen paths.

A filtration level is the vertex set plus a prefix union of strongly connected
components of the edge-crossing digraph; every level is invariant by
construction and re-verified.  Stratum types:

* type1: every stratum edge maps into the lower level;
* type2: the stratum transition matrix is a cyclic permutation (images may
  wander through lower strata between the single top crossing);
* type3: irreducible transition matrix with expansion > 1 whose derivative
  keeps stratum darts in the stratum.

An expanding stratum of a *stable* relative train track of a homotopy
equivalence carries at most one indivisible Nielsen path crossing it
(Bestvina-Handel, Ann. Math. 135, 1992).  The train tracks here are not
stabilized, so an expanding stratum may carry several (a->baa, b->ba carries
two), as may one of an injective endomorphism that is not onto, or a
permutation stratum outside normal form; then only their merges are trusted
and the classes they touch stay unverified.

Nielsen paths are searched as indivisible ones, by one bounded depth-first
search that stops at the first Nielsen prefix.  Cancellation lemma: if
P = A.B is tight and P and A are Nielsen paths, then
[f(B)] = [f(A)^-1 f(P)] = [A^-1 P] = B.  So a Nielsen path is indivisible iff
no proper nonempty prefix of it is Nielsen, and every extension of a Nielsen
path is divisible.  The partition oracle searches from every fixed vertex but
the last and still finds the partition that all Nielsen paths of length
<= max_len give: such a path splits at its fixed vertices into indivisible
pieces no longer than itself that join the same vertices, and a piece
starting at the last vertex is a loop, joining nothing, or is found reversed
from its other end.

A path crossing an expanding stratum is searched as A.B^-1, with A and B
prefixes of expanding rays from fixed vertices that end at one vertex v.
Tail lemma: A.B^-1 is a Nielsen path iff [A^-1 . f(A)] = [B^-1 . f(B)],
because [f(A) . f(B)^-1] = A.B^-1 says that the two paths from v to f(v) are
homotopic rel endpoints, and a tight path is the only one in its class.  So
the prefixes are matched by their tails, and no candidate is mapped.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .graphs import (
    Dart,
    EdgePath,
    GraphMap,
    classify_turn,
    derivative,
    fixed_directions,
    fixed_vertices,
    map_path,
    ray_images,
    reachable,
    turn_degenerates_in_one_step,
)


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


def crossing_count(f: GraphMap, e: str, target: str) -> int:
    return sum(1 for d in f.edge_map[e].darts if d.name == target)


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
    seen: list[str] = []
    all_edges = set(f.graph.edges)
    for s in filt.strata:
        for e in s:
            if e not in all_edges:
                raise ValueError(f"filtration names unknown edge {e}")
        seen.extend(s)
        level = set(seen)
        for e in level:
            if not crossed_edges(f, e) <= level:
                raise ValueError(f"level through {s} is not invariant: edge {e} escapes")
    if set(seen) != all_edges or len(seen) != len(all_edges):
        raise ValueError("filtration does not partition the edge set")


def filtration_from_lists(f: GraphMap, strata: Sequence[Sequence[str]]) -> Filtration:
    filt = Filtration([tuple(s) for s in strata])
    verify_filtration(f, filt)
    return filt


# ---------------------------------------------------------------------------
# Perron-Frobenius data.


def transition_matrix(f: GraphMap, stratum: Sequence[str]) -> list[list[int]]:
    """M[i][j] = number of times the image of stratum edge j crosses edge i."""
    return [[crossing_count(f, ej, ei) for ej in stratum] for ei in stratum]


def _support_irreducible(m: list[list[int]]) -> bool:
    n = len(m)
    succ = {i: [j for j in range(n) if m[j][i] > 0] for i in range(n)}
    return all(len(reachable(succ, i)) == n for i in range(n))


@dataclass
class ExpansionData:
    lam: float
    lengths: list  # Fractions when exact, floats otherwise
    residual: float
    exact: bool


def pf_metric(m: list[list[int]], tol: float = 1e-9) -> ExpansionData:
    """Perron-Frobenius eigenvalue and positive eigenvector, min entry 1.

    1x1 and rational 2x2 cases are exact; otherwise deterministic power
    iteration with a Rayleigh quotient, whose residual |Av - lam v|_inf must
    reach tol.  Raises for reducible matrices, for spectral radius <= 1 (not
    an expanding stratum) and for an iteration that does not converge.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if any(x < 0 for row in m for x in row):
        raise ValueError("matrix must be nonnegative")
    if not _support_irreducible(m):
        raise ValueError("matrix is reducible")
    if n == 1:
        lam = m[0][0]
        if lam <= 1:
            raise ValueError(f"spectral radius {lam} is not > 1")
        return ExpansionData(float(lam), [Fraction(1)], 0.0, True)
    if n == 2:
        tr = m[0][0] + m[1][1]
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        disc = tr * tr - 4 * det
        root = math.isqrt(disc)
        if root * root == disc and (tr + root) % 2 == 0:
            lam_q = Fraction(tr + root, 2)
            if lam_q <= 1:
                raise ValueError(f"spectral radius {lam_q} is not > 1")
            # Solve (M - lam I) v = 0 exactly.
            if m[0][1] != 0:
                v = [Fraction(m[0][1]), lam_q - m[0][0]]
            else:
                v = [lam_q - m[1][1], Fraction(m[1][0])]
            lo = min(v)
            if lo <= 0:
                raise ValueError("eigenvector is not positive; matrix not irreducible")
            v = [x / lo for x in v]
            return ExpansionData(float(lam_q), v, 0.0, True)
    a = np.array(m, dtype=float)
    # The power steps run on A + I: it is primitive (irreducible with a
    # positive diagonal) and has A's Perron vector, so they converge also when
    # A is periodic, where powers of A itself cycle.  Warm start: repeated
    # squaring of the normalized operator collapses slow spectral gaps; the
    # Rayleigh quotient and the residual are then taken on A.
    s = a + np.eye(n)
    b = s / s.max()
    for _ in range(24):
        b = b @ b
        b /= b.max()
    v = b @ np.ones(n)
    lam = 0.0
    for _ in range(10_000):
        w = s @ v
        w /= np.linalg.norm(w)
        lam = float(w @ a @ w) / float(w @ w)
        v = w
        if v.min() > 0:
            scaled = v / v.min()
            if float(np.max(np.abs(a @ scaled - lam * scaled))) <= tol / 4:
                break
    v = v / v.min()
    residual = float(np.max(np.abs(a @ v - lam * v)))
    if lam <= 1 + tol:
        raise ValueError(f"spectral radius {lam} is not > 1")
    if not residual <= tol:
        raise ValueError(f"power iteration did not converge: residual {residual:.3g} > {tol:g}")
    return ExpansionData(lam, [float(x) for x in v], residual, False)


# ---------------------------------------------------------------------------
# Stratum classification.


@dataclass
class StratumInfo:
    index: int
    edges: tuple[str, ...]
    stype: str  # type1 | type2 | type3 | unclassifiable
    note: str = ""
    expansion: Optional[ExpansionData] = None
    illegal_turns: list[tuple[Dart, Dart]] = field(default_factory=list)
    inp: Optional["NielsenPathData"] = None
    # found | certified-none | none-within-bound | multiple | unsearched
    inp_status: str = "unsearched"
    inp_multi: list["NielsenPathData"] = field(default_factory=list)
    # Set when the stratum meets the transition-matrix and derivative
    # conditions for an expanding stratum but is not a train track (some image
    # takes an illegal turn or loses a connecting piece): the classification
    # "counts", the invariant bookkeeping above it does not.
    expanding_not_train_track: bool = False

    def metric(self, e: str):
        """L-value of an edge: the eigenvector entry on the stratum, 0 below."""
        if self.expansion is None:
            return Fraction(0)
        try:
            return self.expansion.lengths[self.edges.index(e)]
        except ValueError:
            return Fraction(0) if self.expansion.exact else 0.0


def classify_stratum(f: GraphMap, filt: Filtration, i: int, tol: float = 1e-9) -> StratumInfo:
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
        info.expansion = pf_metric(m, tol)
    except ValueError as exc:
        info.note = f"transition matrix not expanding/irreducible: {exc}"
        return info
    for e in stratum:
        for d in (Dart(e, True), Dart(e, False)):
            dd = derivative(f, d)
            if dd is None or dd.name not in stratum:
                info.note = (f"derivative of {d} leaves the stratum; "
                             "refine the filtration")
                return info
    # Expanding strata must also be train tracks: adjacent stratum darts in an
    # image may not form an illegal turn (iterated images would cancel and
    # crossing Nielsen paths would lose their leg structure), and the lower
    # connecting pieces must never collapse entirely.  Turns against lower
    # darts cannot degenerate, so they need no check.
    in_stratum = set(stratum)
    for e in stratum:
        img = f.edge_map[e].darts
        for d1, d2 in zip(img, img[1:]):
            if d1.name in in_stratum and d2.name in in_stratum:
                if classify_turn(f, d1.rev, d2) == "illegal":
                    info.note = (f"image of {e} takes the illegal turn "
                                 f"({d1.rev}, {d2}); not a train track map")
                    info.expanding_not_train_track = True
                    return info
        run: list[Dart] = []
        runs: list[tuple[Dart, ...]] = []
        for d in img:
            if d.name in in_stratum:
                if run:
                    runs.append(tuple(run))
                    run = []
            else:
                run.append(d)
        for tau in runs:
            p = EdgePath(tau)
            for _ in range(20):
                p = map_path(f, p)
                if p.is_trivial:
                    info.note = (f"a lower connecting piece of the image of {e} "
                                 "collapses under iteration")
                    info.expanding_not_train_track = True
                    return info
                if len(p.darts) > 512:
                    break
    info.stype = "type3"
    info.illegal_turns = illegal_turns_in(f, filt.level_edges(i + 1))
    return info


def illegal_turns_in(f: GraphMap, edges: Iterable[str]) -> list[tuple[Dart, Dart]]:
    """All illegal turns among directions of the given subgraph."""
    names = list(edges)
    out = []
    darts = f.graph.darts(names)
    for a_i in range(len(darts)):
        for b_i in range(a_i + 1, len(darts)):
            a, b = darts[a_i], darts[b_i]
            if f.graph.origin(a) != f.graph.origin(b):
                continue
            if classify_turn(f, a, b) == "illegal":
                out.append((a, b))
    return out


# ---------------------------------------------------------------------------
# Nielsen paths.


def _path_is_nielsen(f: GraphMap, darts: tuple[Dart, ...]) -> bool:
    return map_path(f, EdgePath(darts)) == EdgePath(darts)


def is_indivisible(f: GraphMap, p: EdgePath) -> bool:
    """Whether the Nielsen path p (it must be one) has no split at an
    intermediate fixed vertex into two Nielsen subpaths.

    By the cancellation lemma (see the module docstring) the part after a
    Nielsen prefix of a Nielsen path is Nielsen too, so only the prefixes are
    mapped."""
    fixed = set(fixed_vertices(f))
    return not any(f.graph.terminus(p.darts[j - 1]) in fixed
                   and _path_is_nielsen(f, p.darts[:j])
                   for j in range(1, len(p.darts)))


def _canonical(p: EdgePath) -> tuple:
    # Reversal-invariant key; forward darts sort first.
    a = tuple((d.name, not d.fwd) for d in p.darts)
    b = tuple((d.name, not d.fwd) for d in p.reverse().darts)
    return min(a, b)


def _dart_codes(f: GraphMap) -> tuple[list[Dart], dict[Dart, int], list[list[int]]]:
    """The darts of f's graph as integer codes, edge k being 2k forward and
    2k+1 reversed, so reversal is `x ^ 1`, and the image of each code."""
    darts = f.graph.darts()
    code = {d: i for i, d in enumerate(darts)}
    return darts, code, [[code[x] for x in f.image_table[d]] for d in darts]


def _indivisible_nielsen_paths(f: GraphMap, max_len: int, starts: Iterable[str],
                               names: Iterable[str],
                               must: Optional[set[str]]) -> list[tuple[Dart, ...]]:
    """Every indivisible Nielsen path of length <= max_len that starts at one
    of `starts`, runs in the edges `names` and crosses an edge of `must`
    (any edge when None), in depth-first preorder, starts taken in order.

    The search descends tight paths P and stops at the first Nielsen node,
    since every extension of a Nielsen path is divisible (the cancellation
    lemma in the module docstring).  Darts are integer codes (_dart_codes).
    The image [f(P)] is kept tight incrementally: pushing a dart cancels the
    prefix of its image that meets its reversal at the tail of [f(P)] and
    extends by the rest, and popping deletes that rest and restores the
    cancelled tail.

    Branches are cut by bounded cancellation, exactly for pi1-injective f
    (analyze rejects other maps).  With C = f.cancellation_bound() and
    k = |[f(P)]| - C, the first k darts of [f(P)] are a prefix of [f(PQ)] for
    every tight extension PQ, and a Nielsen path has [f(PQ)] = PQ.  So a
    branch is cut when k > max_len, or when the first min(k, |P|) darts of
    [f(P)] and of P differ."""
    g = f.graph
    darts, code, imgs = _dart_codes(f)
    out_at: dict[str, list[int]] = {v: [] for v in g.vertices}
    for d in g.darts(names):
        out_at[g.origin(d)].append(code[d])
    # after[c]: the darts that may follow dart c on a tight path.
    after = [[d for d in out_at[g.terminus(dart)] if d != c ^ 1]
             for c, dart in enumerate(darts)]
    # first_rev[c]: the reversal of the first dart of c's image (-1: none).
    first_rev = [x[0] ^ 1 if x else -1 for x in imgs]
    marked = [must is None or d.name in must for d in darts]
    bound = f.cancellation_bound()
    path: list[int] = []
    img: list[int] = []
    found: list[tuple[Dart, ...]] = []

    def visit(nexts: list[int]) -> None:
        m = len(img)
        for d in nexts:
            x = imgs[d]
            if m and img[-1] == first_rev[d]:
                n = 1
                while n < m and n < len(x) and img[m - 1 - n] == x[n] ^ 1:
                    n += 1
                cut = img[m - n:]
                del img[m - n:]
                img.extend(x[n:])
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
                img.extend(cut)

    for start in starts:
        visit(out_at[start])
    return found


def nielsen_paths_brute(f: GraphMap, max_len: int,
                        within: Optional[Iterable[str]] = None,
                        crossing: Optional[Iterable[str]] = None) -> list[EdgePath]:
    """Every indivisible Nielsen path of length <= max_len, deduplicated up to
    reversal, by a depth-first search from every fixed vertex over the tight
    paths, pruned by bounded cancellation; optionally restricted to a subgraph
    and to paths crossing given edges.

    The search stops descending at the first Nielsen node, which loses no
    indivisible path.  Cancellation lemma: if P = A.B is tight and P and A
    are Nielsen paths, then [f(B)] = [f(A)^-1 f(P)] = [A^-1 P] = B, so B is
    Nielsen too.  Hence a Nielsen path is indivisible iff no proper nonempty
    prefix of it is Nielsen, and every extension of a Nielsen path is
    divisible.  The reversal of an indivisible path is indivisible, so each is
    found from both of its ends.

    nielsen_partition_oracle runs the same search from every fixed vertex but
    the last, and its partition is still the one all Nielsen paths of length
    <= max_len give: such a path splits at its fixed vertices into indivisible
    pieces no longer than itself that join the same vertices, and a piece
    starting at the last vertex is a loop, joining nothing, or is found
    reversed from its other end.

    The function keeps its historical name because the benchmark's span hooks
    (perfbench/spans.py) time it under that name.
    """
    names = f.graph.edges if within is None else within
    must = None if crossing is None else set(crossing)
    found: dict[tuple, EdgePath] = {}
    for darts in _indivisible_nielsen_paths(f, max_len, sorted(fixed_vertices(f)),
                                            names, must):
        p = EdgePath(darts)
        found.setdefault(_canonical(p), p)
    return sorted(found.values(), key=lambda p: (len(p.darts), _canonical(p)))


def nielsen_partition_oracle(f: GraphMap, max_len: int) -> list[frozenset[str]]:
    """Partition of the fixed vertices by bounded Nielsen-path search: the
    connected components of "joined by a Nielsen path of length <= max_len".
    Only indivisible paths are searched, from every fixed vertex but the last
    in sorted order; nielsen_paths_brute says why the partition is the same."""
    g = f.graph
    fixed = sorted(fixed_vertices(f))
    adj: dict[str, set[str]] = {v: set() for v in fixed}
    for darts in _indivisible_nielsen_paths(f, max_len, fixed[:-1], g.edges, None):
        a, b = g.origin(darts[0]), g.terminus(darts[-1])
        adj[a].add(b)
        adj[b].add(a)
    return sorted({frozenset(reachable(adj, v)) for v in fixed}, key=sorted)


@dataclass
class NielsenPathData:
    """An indivisible Nielsen path, with its leg decomposition when one exists
    in the expanding-stratum sense (legs grow off a one-step-degenerate turn)."""

    path: EdgePath
    endpoints: tuple[str, str]
    leg1: Optional[EdgePath] = None
    leg2: Optional[EdgePath] = None


def _leg_decomposition(f: GraphMap, p: EdgePath) -> NielsenPathData:
    g = f.graph
    data = NielsenPathData(p, g.path_endpoints(p))
    for j in range(1, len(p.darts)):
        leg1 = EdgePath(p.darts[:j])
        leg2 = EdgePath(tuple(d.rev for d in reversed(p.darts[j:])))
        t1, t2 = leg1.darts[-1].rev, leg2.darts[-1].rev
        if not turn_degenerates_in_one_step(f, t1, t2):
            continue
        data.leg1, data.leg2 = leg1, leg2
        break
    return data


def _ray(f: GraphMap, d: Dart, info: StratumInfo, metric_cap: float,
         dart_cap: int) -> tuple[tuple[Dart, ...], list[float]]:
    """The expanding ray grown from a fixed direction d with Df(d) = d, and the
    metric length of each of its prefixes as one running sum.  Growth stops at
    the first image whose metric length exceeds metric_cap or whose length
    exceeds dart_cap (or where the ray stops growing); both are cut to
    dart_cap darts.  Images extend each other, so their sums are shared."""
    lens: list[float] = []
    for current in ray_images(f, d):
        total = lens[-1] if lens else 0.0
        for x in current[len(lens):]:
            total += float(info.metric(x.name))
            lens.append(total)
        if len(current) > dart_cap or total > metric_cap:
            break
    return current[:dart_cap], lens[:dart_cap]


def _nielsen_tails(f: GraphMap, ray: Sequence[Dart]) -> list[tuple[str, tuple[int, ...]]]:
    """The key (v, tau) of each nonempty prefix A of a ray from a fixed
    vertex, shortest first: v is the terminus of A and tau its Nielsen tail,
    the tight path [A^-1 . f(A)] from v to f(v), in dart codes (_dart_codes).
    Two prefixes have equal keys iff A.B^-1 is a Nielsen path (the tail
    lemma in the module docstring).

    tau is grown one dart e at a time, tau <- [e^-1 . tau . f(e)], cancelling
    at both ends of a deque; the empty prefix has the empty tail, its vertex
    being fixed."""
    g = f.graph
    _, code, imgs = _dart_codes(f)
    tau: deque[int] = deque()
    keys = []
    for e in ray:
        c = code[e]
        if tau and tau[0] == c:
            tau.popleft()
        else:
            tau.appendleft(c ^ 1)
        for x in imgs[c]:
            if tau and tau[-1] == x ^ 1:
                tau.pop()
            else:
                tau.append(x)
        keys.append((g.terminus(e), tuple(tau)))
    return keys


def find_inp(f: GraphMap, filt: Filtration, info: StratumInfo, max_len: int,
             lower_classes: Sequence[frozenset]) -> StratumInfo:
    """Locate the indivisible Nielsen paths crossing the stratum.

    type1 and multi-edge type2 strata certify `none`.  Single-edge type2
    strata get a bounded combinatorial search within the level; candidates
    differing only by insertion of lower-level Nielsen loops join the same
    lower classes and collapse to the shortest representative.

    type3 strata look for crossing paths A.B^-1 with A and B prefixes, up to
    the metric cap, of two expanding rays grown from fixed stratum directions
    and meeting at an illegal turn; when the metric bound is exhausted, `none`
    is certified.  The pairs are matched by a hash join on the prefixes' keys
    (_nielsen_tails): A.B^-1 is Nielsen exactly when A and B have the same
    terminus v and the same tail [A^-1 . f(A)], so no candidate is mapped, and
    only the indivisibility test maps its prefixes.  Candidates collapse only
    up to reversal: two paths joining the same lower classes may still differ
    in rank (one merges, one closes a loop).
    """
    level = filt.level_edges(info.index + 1)
    stratum = set(info.edges)

    class_of = {v: i for i, c in enumerate(lower_classes) for v in c}

    def record(cands: list[EdgePath], status_if_empty: str) -> None:
        uniq: dict[tuple, EdgePath] = {}
        for p in cands:
            uniq.setdefault(_canonical(p), p)
        kept = sorted(uniq.values(), key=lambda p: (len(p.darts), _canonical(p)))
        if info.stype == "type2":
            # Candidates joining the same pair of lower classes differ by
            # lower-level Nielsen loops and induce the same merge; keep the
            # shortest representative per pair.
            by_pair: dict[frozenset, EdgePath] = {}
            for p in kept:
                a, b = f.graph.path_endpoints(p)
                by_pair.setdefault(frozenset((class_of[a], class_of[b])), p)
            kept = list(by_pair.values())
        if len(kept) > 1:
            # A permutation stratum outside normal form (e.g. a merging path
            # plus an independent loop), or an expanding stratum that is not
            # stable, can carry several; the merges are all real, the rank
            # bookkeeping is not pinned down.
            info.inp_multi = [_leg_decomposition(f, p) for p in kept]
            info.inp_status = "multiple"
        elif kept:
            info.inp = _leg_decomposition(f, kept[0])
            info.inp_status = "found"
        else:
            info.inp_status = status_if_empty

    if info.stype == "type1" or (info.stype == "type2" and len(info.edges) > 1):
        info.inp_status = "certified-none"
        return info

    if info.stype == "type2":
        cands = nielsen_paths_brute(f, max_len, within=level, crossing=stratum)
        record(cands, "none-within-bound")
        return info

    if info.stype != "type3":
        info.inp_status = "unsearched"
        return info

    if not info.illegal_turns:
        info.inp_status = "certified-none"
        return info

    exp = info.expansion
    lam = exp.lam
    metric_cap = (lam * sum(float(x) for x in exp.lengths)) * lam / (lam - 1.0)
    seeds = []
    for v in fixed_vertices(f):
        seeds.extend(fixed_directions(f, v, info.edges))
    dart_cap = max(max_len, 16 * (int(metric_cap) + 2))
    rays, keys, at_key = {}, {}, {}
    exhausted = True
    for d in seeds:
        ray, lens = _ray(f, d, info, metric_cap, dart_cap)
        # A ray that never reached the metric cap within dart_cap darts leaves
        # part of the search region uncovered.
        exhausted = exhausted and lens[-1] > metric_cap
        # Prefix lengths only grow, so the prefixes within the cap come first.
        rays[d] = ray[:bisect_right(lens, metric_cap)]
        keys[d] = _nielsen_tails(f, rays[d])
        at_key[d] = {}
        for n, key in enumerate(keys[d], start=1):
            at_key[d].setdefault(key, []).append(n)

    cands: list[EdgePath] = []
    for ia, d1 in enumerate(seeds):
        for d2 in seeds[ia + 1:]:
            r1, r2 = rays[d1], rays[d2]
            # Prefix pairs in the order n1, then n2, ascending; each pair
            # found here is a Nielsen path.
            for n1, key in enumerate(keys[d1], start=1):
                for n2 in at_key[d2].get(key, ()):
                    e1, e2 = r1[n1 - 1], r2[n2 - 1]
                    if e1 == e2 or not turn_degenerates_in_one_step(f, e1.rev, e2.rev):
                        continue
                    p = EdgePath(r1[:n1] + tuple(d.rev for d in reversed(r2[:n2])))
                    if is_indivisible(f, p):
                        cands.append(p)
    record(cands, "certified-none" if exhausted else "none-within-bound")
    return info
