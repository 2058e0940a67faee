import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (all_darts, darts_at, degenerates_in_one_step, map_path, origin,
                      path_endpoints, rev, reverse, reverse_codes, rose, terminus, turn)
from test_multivertex import theta_collapse, theta_fold, theta_swap
from nielsenkit import graphs, rtt
from nielsenkit.graphs import (EdgePath, Graph, GraphMap, fixed_vertices, parse_dart,
                                subdivided_fixed_map, trivial_path)
from nielsenkit.invariants import analyze
from nielsenkit.io import load_instance, rose_map
from nielsenkit.rtt import (
    Filtration,
    classify_stratum,
    derive_filtration,
    nielsen_partition_oracle,
    nielsen_paths_brute,
    pf_metric,
    transition_matrix,
    verify_filtration,
)
from nielsenkit.sampling import random_injective_endos

ex1 = rose({"a": ["a", "a"], "b": ["b", "b"]})
ex2 = rose({"a1": ["a1"], "a2": ["a2-", "a1", "a2"]})
ex3 = rose({"a": ["b"], "b": ["a-"]})
derived = rose({"a": ["a"], "b": ["b", "a"]})


def path(*tokens):
    return EdgePath(tuple(parse_dart(t) for t in tokens))


def verify_nielsen_path(f: GraphMap, p: EdgePath) -> bool:
    """True iff the tight image of p equals p; endpoints must be fixed."""
    if p.is_trivial:
        raise ValueError("Nielsen paths are nontrivial")
    src, dst = path_endpoints(f.graph, p)
    if f.vertex_map[src] != src or f.vertex_map[dst] != dst:
        raise ValueError("endpoints of a Nielsen-path candidate must be fixed")
    return map_path(f, p) == p


class TestFiltration:
    def test_conjugating_chain(self):
        assert derive_filtration(ex2).strata == [("a1",), ("a2",)]

    def test_doubling_singletons(self):
        assert derive_filtration(ex1).strata == [("a",), ("b",)]

    def test_rotation_single_stratum(self):
        assert derive_filtration(ex3).strata == [("a", "b")]

    def test_lowest_first_ties_by_name(self):
        # b and c are both bottom strata: b is placed first, a above c
        f = rose({"a": ["a", "a", "c"], "b": ["b", "b"], "c": ["c", "c"]})
        assert derive_filtration(f).strata == [("b",), ("c",), ("a",)]
        # a is ready before b, which crosses a; {d, e} is one stratum
        f = rose({"d": ["d", "e"], "e": ["d"], "a": ["a", "a", "d"], "b": ["b", "a"]})
        assert derive_filtration(f).strata == [("d", "e"), ("a",), ("b",)]

    def test_every_level_invariant(self):
        for f in (ex1, ex2, ex3, derived):
            filt = derive_filtration(f)
            for i in range(filt.depth):
                level = set(filt.level_edges(i + 1))
                for e in level:
                    assert {d.name for d in f.edge_map[e].darts} <= level

    def test_verify_filtration(self):
        verify_filtration(ex2, Filtration([("a1",), ("a2",)]))
        with pytest.raises(ValueError):
            verify_filtration(ex2, Filtration([("a2",), ("a1",)]))  # level {a2} not invariant
        with pytest.raises(ValueError):
            verify_filtration(ex2, Filtration([("a1",)]))  # does not cover the edges


class TestClassification:
    def test_rotation_is_permutation(self):
        filt = derive_filtration(ex3)
        info = classify_stratum(ex3, filt, 0)
        assert info.stype == "type2"

    def test_doubling_expands(self):
        filt = derive_filtration(ex1)
        for i in range(2):
            info = classify_stratum(ex1, filt, i)
            assert info.stype == "type3"
            assert info.expansion.lam == 2.0

    def test_conjugating_strata(self):
        filt = derive_filtration(ex2)
        assert classify_stratum(ex2, filt, 0).stype == "type2"
        top = classify_stratum(ex2, filt, 1)
        assert top.stype == "type3" and top.expansion.lam == 2.0

    def test_into_lower_is_type1(self):
        f = rose({"a": ["a", "a"], "b": ["a"]})
        filt = derive_filtration(f)
        assert filt.strata == [("a",), ("b",)]
        assert classify_stratum(f, filt, 1).stype == "type1"

    def test_identified_stratum_vertices_flagged(self):
        # The collapsed edge c joins the stratum vertices u and v in the lower
        # level, and f sends both to u, so RTT-ii is not certified.
        g = Graph(("u", "v"), {"a": ("u", "v"), "b": ("v", "u"), "c": ("u", "v")})
        f = GraphMap(g, {"u": "u", "v": "u"}, {"a": path("a", "b"),
                                               "b": path("a", "c-", "a", "b"),
                                               "c": trivial_path("u")})
        f.validate()
        filt = derive_filtration(f)
        assert filt.strata == [("c",), ("a", "b")]
        info = classify_stratum(f, filt, 1)
        assert info.stype == "unclassifiable" and info.expanding_not_train_track
        assert info.expansion is not None
        assert info.note.startswith("stratum vertices u and v lie in one component "
                                    "of the lower level and both map to u")

    def test_non_train_track_flagged(self):
        # the image of a crosses the illegal turn taken by its own iterates
        f = rose({"a": ["a", "a", "b"], "b": ["a", "a", "b", "b", "a-", "b"]})
        filt = derive_filtration(f)
        infos = [classify_stratum(f, filt, i) for i in range(filt.depth)]
        assert any(i.stype == "unclassifiable" and i.expanding_not_train_track
                   for i in infos) or all(i.stype != "unclassifiable" for i in infos)


# a -> ab, b -> aab: M = [[1, 2], [1, 1]] is not symmetric, so its left and
# right Perron vectors differ; the metric is the left one, L = (1, sqrt 2).
skew = rose({"a": ["a", "b"], "b": ["a", "a", "b"]})


def metric_lengths(data):
    """The stratum metric L = weights / min(weights), exactly."""
    least = min(data.weights)
    return [Fraction(w, least) for w in data.weights]


def assert_bracket(m, data):
    """lo * L <= M^T L <= hi * L componentwise, exactly, with 1 < lo <= hi
    and the bracket as narrow as pf_metric promises."""
    n = len(m)
    lengths = metric_lengths(data)
    assert min(lengths) == 1
    for j in range(n):
        image = sum(m[i][j] * lengths[i] for i in range(n))  # L(f(e_j))
        assert data.lo * lengths[j] <= image <= data.hi * lengths[j], j
    assert 1 < data.lo <= data.hi and data.hi - data.lo <= data.hi * rtt.PF_WIDTH
    assert data.exact == (data.lo == data.hi)
    assert data.lam == float((data.lo + data.hi) / 2)
    assert data.residual == float(data.hi - data.lo)


def assert_brackets_root(m, data):
    """lo <= lam <= hi exactly for a 2x2 m, lam = (tr + sqrt(disc)) / 2."""
    tr = m[0][0] + m[1][1]
    disc = tr * tr - 4 * (m[0][0] * m[1][1] - m[0][1] * m[1][0])
    lo, hi = 2 * data.lo - tr, 2 * data.hi - tr
    assert lo <= 0 or lo * lo <= disc
    assert hi >= 0 and hi * hi >= disc


def reference_irreducible(m):
    """The textbook test of irreducibility, independent of the program's
    reachability walks: every entry of (M + I)^(n-1) is positive."""
    n = len(m)
    a = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(m)]
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n - 1):
        p = [[sum(p[i][t] * a[t][j] for t in range(n)) for j in range(n)]
             for i in range(n)]
    return all(x > 0 for row in p for x in row)


def reference_pf_metric(m, squarings):
    """The bracket of pf_metric in Fraction arithmetic: every ratio
    (M^T v)_i / v_i a Fraction, min and max taken over Fractions, each
    v = B^(2^k) . 1 from B squared k times."""
    n = len(m)
    if not reference_irreducible(m):
        raise ValueError("matrix is reducible")
    mt = [list(col) for col in zip(*m)]
    b = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(mt)]
    for k in range(squarings + 1):
        if k:
            b = [[sum(b[i][t] * b[t][j] for t in range(n)) for j in range(n)]
                 for i in range(n)]
        v = [sum(row) for row in b]
        ratios = [Fraction(sum(x * y for x, y in zip(row, v)), vi)
                  for row, vi in zip(mt, v)]
        lo, hi = min(ratios), max(ratios)
        if hi - lo <= hi * rtt.PF_WIDTH:
            if lo <= 1:
                raise ValueError(f"spectral radius {float(hi):.12g} is not > 1")
            return lo, hi, tuple(v)
    raise ValueError(f"Perron-Frobenius bracket [{float(lo):.12g}, {float(hi):.12g}] "
                     f"did not narrow in {squarings} squarings")


def outcome(fn, m):
    try:
        return fn(m)
    except ValueError as exc:
        return str(exc)


def survey_stratum_matrices(count):
    """The transition matrix of every stratum of the first `count` maps of
    the rank-2 survey with images of length <= 4, seed 1, identities aside."""
    out = []
    for phi in itertools.islice(random_injective_endos(2, 4, seed=1), count):
        f = rose_map(phi)
        if f.is_identity():
            continue
        g, _ = subdivided_fixed_map(f)
        out.extend(transition_matrix(g, s) for s in derive_filtration(g).strata)
    return out


class TestPFMetric:
    def test_matches_fraction_reference_on_survey_strata(self):
        def integer(m):
            data = pf_metric(m)
            return data.lo, data.hi, data.weights

        expanding = 0
        for m in survey_stratum_matrices(300):
            got = outcome(integer, m)
            assert got == outcome(lambda m: reference_pf_metric(m, rtt.PF_SQUARINGS), m), m
            expanding += isinstance(got, tuple)
        assert expanding > 200

    @pytest.mark.parametrize("m, squarings, message", [
        ([[2, 1], [0, 2]], rtt.PF_SQUARINGS, "matrix is reducible"),
        ([[1]], rtt.PF_SQUARINGS, "spectral radius 1 is not > 1"),
        ([[0, 1], [1, 0]], rtt.PF_SQUARINGS, "spectral radius 1 is not > 1"),
        ([[1, 1], [1, 0]], 2,
         "Perron-Frobenius bracket [1.61764705882, 1.61818181818] did not narrow "
         "in 2 squarings"),
    ])
    def test_error_messages(self, monkeypatch, m, squarings, message):
        monkeypatch.setattr(rtt, "PF_SQUARINGS", squarings)
        with pytest.raises(ValueError) as exc:
            pf_metric(m)
        assert str(exc.value) == message
        assert outcome(lambda m: reference_pf_metric(m, squarings), m) == message

    def test_one_by_one(self):
        data = pf_metric([[2]])
        assert data.lam == 2.0 and metric_lengths(data) == [Fraction(1)] and data.exact

    def test_golden_ratio(self):
        data = pf_metric([[1, 1], [1, 0]])
        assert abs(data.lam - (1 + math.sqrt(5)) / 2) <= 1e-9
        assert data.residual <= 1e-9
        assert_bracket([[1, 1], [1, 0]], data)
        assert_brackets_root([[1, 1], [1, 0]], data)

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            pf_metric([[1]])

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            pf_metric([[2, 1], [0, 2]])
        with pytest.raises(ValueError):
            pf_metric([[2, 1, 0], [0, 2, 0], [1, 1, 2]])

    def test_empty_rejected(self):
        assert rtt._support_irreducible([])
        with pytest.raises(ValueError, match="matrix must be nonempty"):
            pf_metric([])

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_support_irreducible_matches_reference(self, m):
        assert rtt._support_irreducible(m) == reference_irreducible(m)

    @pytest.mark.parametrize("m, lam", [
        ([[0, 2], [1, 0]], math.sqrt(2)),
        ([[0, 1], [3, 0]], math.sqrt(3)),
        ([[0, 3], [2, 0]], math.sqrt(6)),
        ([[0, 1, 0], [0, 0, 1], [2, 0, 0]], 2 ** (1 / 3)),
    ])
    def test_periodic(self, m, lam):
        # Irreducible but not primitive: powers of m cycle, so plain power
        # iteration on m never converges.
        data = pf_metric(m)
        assert abs(data.lam - lam) <= 1e-9
        assert data.residual <= 1e-9 and not data.exact
        assert_bracket(m, data)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_converges_on_every_expanding_matrix(self, m):
        # numpy is only the independent reference here; nielsenkit does not
        # import it.
        a = np.array(m, dtype=float)
        n = len(m)
        assume(np.all(np.linalg.matrix_power(a + np.eye(n), n - 1) > 0))  # irreducible
        lam = max(abs(np.linalg.eigvals(a)))
        assume(lam > 1 + 1e-6)
        data = pf_metric(m)
        assert data.residual <= 1e-9
        assert abs(data.lam - lam) <= 1e-6
        assert float(data.lo) - 1e-9 <= lam <= float(data.hi) + 1e-9
        assert_bracket(m, data)

    def test_rational_two_by_two(self):
        data = pf_metric([[0, 2], [1, 1]])
        assert data.lam == 2.0 and data.exact

    def test_eigen_equation(self):
        # The metric is the left eigenvector: sum_i m[i][j] L_i = lam L_j.
        for m in ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], [[1, 2], [1, 1]],
                  [[0, 1, 2], [1, 0, 0], [0, 1, 1]]):
            data = pf_metric(m)
            n = len(m)
            lengths = metric_lengths(data)
            for j in range(n):
                lhs = sum(m[i][j] * lengths[i] for i in range(n))
                assert abs(lhs - data.lam * lengths[j]) <= 1e-9
            assert_bracket(m, data)
        skew_data = pf_metric([[1, 2], [1, 1]])
        assert abs(float(metric_lengths(skew_data)[1]) - math.sqrt(2)) <= 1e-12
        assert_brackets_root([[1, 2], [1, 1]], skew_data)

    def test_expansion_of_legal_paths(self):
        # L(image of a stratum edge) == lam * L(edge)
        for f in (ex2, skew):
            filt = derive_filtration(f)
            info = classify_stratum(f, filt, filt.depth - 1)
            m = transition_matrix(f, info.edges)
            lengths = metric_lengths(info.expansion)
            for j, e in enumerate(info.edges):
                image_len = sum(m[i][j] * lengths[i] for i in range(len(info.edges)))
                assert abs(image_len - info.expansion.lam * lengths[j]) <= 1e-9
            assert_bracket(m, info.expansion)

    def test_expansion_of_random_legal_paths(self):
        # Tight legal paths stretch by lam in the stratum metric:
        # lo * L(p) <= L([f(p)]) <= hi * L(p), exactly.
        import random

        rng = random.Random(11)
        for f in (ex1, ex2, skew):
            filt = derive_filtration(f)
            info = classify_stratum(f, filt, filt.depth - 1)
            assert info.stype == "type3"
            exp = info.expansion
            lengths = dict(zip(info.edges, metric_lengths(exp)))

            def metric(p):
                return sum(lengths.get(d.name, 0) for d in p.darts)

            def is_legal(p):
                return all(turn(f, rev(a), b) != "illegal"
                           for a, b in zip(p.darts, p.darts[1:]))

            checked = 0
            for _ in range(200):
                darts = []
                at = "*"
                for _ in range(rng.randint(1, 6)):
                    options = [d for d in darts_at(f.graph, at)
                               if not darts or d != rev(darts[-1])]
                    d = rng.choice(options)
                    darts.append(d)
                    at = terminus(f.graph, d)
                p = EdgePath(tuple(darts))
                if not is_legal(p) or metric(p) == 0:
                    continue
                checked += 1
                image = metric(map_path(f, p))
                assert exp.lo * metric(p) <= image <= exp.hi * metric(p), (f.edge_map, p)
                assert abs(float(image) - exp.lam * float(metric(p))) <= 1e-9
            assert checked > 50


class TestNielsenPaths:
    def test_verify(self):
        assert verify_nielsen_path(derived, path("b", "a", "b-"))
        assert not verify_nielsen_path(ex2, path("a2"))

    def test_endpoints_must_be_fixed(self):
        g, _ = subdivided_fixed_map(rose({"a": ["a", "a"], "b": ["b", "b", "a"]}))
        moving = [v for v in g.graph.vertices if g.vertex_map[v] != v]
        if moving:
            d = next(d for d in all_darts(g.graph) if origin(g.graph, d) in moving)
            with pytest.raises(ValueError):
                verify_nielsen_path(g, EdgePath((d,)))

    def test_indivisible_filter(self):
        # a . a is a product of two Nielsen loops
        f = rose({"a": ["a"], "b": ["b", "b"]})
        assert not is_indivisible(f, path("a", "a"))
        assert is_indivisible(f, path("a"))

    def test_brute_force_finds_derived_inp(self):
        edges = derived.graph.edges
        found = nielsen_paths_brute(derived, 6, within=edges, crossing=edges)
        assert any(str(derived.graph.path(p)) in ("b a b-", "b a- b-") for p in found)


def leg_split(f, p):
    """(leg1, leg2) with p = leg1 . leg2^-1 at the first split whose turn
    degenerates in one step, or None."""
    for j in range(1, len(p.darts)):
        leg1 = EdgePath(p.darts[:j])
        leg2 = EdgePath(tuple(rev(d) for d in reversed(p.darts[j:])))
        if degenerates_in_one_step(f, rev(leg1.darts[-1]), rev(leg2.darts[-1])):
            return leg1, leg2
    return None


class TestFindInp:
    def test_derived_map(self):
        rep = analyze(derived)
        top = rep.strata[1]
        assert top.inp_status == "found"
        leg1, leg2 = leg_split(rep.map, rep.map.graph.path(top.paths[0]))
        assert {tuple(str(d) for d in leg1.darts),
                tuple(str(d) for d in leg2.darts)} == {("b",), ("b", "a")}
        img1 = map_path(derived, leg1)
        assert tuple(str(d) for d in img1.darts) == tuple(str(d) for d in leg1.darts) + ("a",)

    def test_doubling_certified_none(self):
        for info in analyze(ex1).strata:
            assert info.inp_status == "certified-none"

    def test_conjugating_top_certified_none(self):
        infos = analyze(ex2).strata
        assert infos[0].inp_status == "found"        # the fixed circle itself
        assert infos[1].inp_status == "certified-none"

    def test_agrees_with_brute_force_oracle(self):
        for f in (ex1, ex2, ex3, derived):
            rep = analyze(f)
            for info in rep.strata:
                if info.stype not in ("type2", "type3"):
                    continue
                level = rep.filtration.level_edges(info.index + 1)
                brute = nielsen_paths_brute(rep.map, 6, within=level, crossing=info.edges)
                if info.inp_status.startswith("certified") or info.inp_status == "none-within-bound":
                    assert brute == [], (info.edges, [str(p) for p in brute])
                elif info.inp_status == "found":
                    assert any(p == info.paths[0] or p == reverse_codes(info.paths[0])
                               for p in brute)

    def test_jiang_subdivided_merge_path(self):
        rep = analyze(rose({"a": ["a-"], "b": ["a-", "b", "b"]}))
        by_edges = {i.edges: i for i in rep.strata}
        assert by_edges[("b:1",)].inp_status == "found"
        p = by_edges[("b:1",)].paths[0]
        assert str(rep.map.graph.path(p)) == "a:1- b:1"
        assert by_edges[("b:2",)].inp_status == "certified-none"


class TestPartitionOracle:
    def test_jiang(self):
        g, _ = subdivided_fixed_map(rose({"a": ["a-"], "b": ["a-", "b", "b"]}))
        assert nielsen_partition_oracle(g, 8) == [
            frozenset({"*"}), frozenset({"a@1/2", "b@1/2"})]

    def test_flip_circle(self):
        g, _ = subdivided_fixed_map(rose({"e": ["e-"]}))
        assert nielsen_partition_oracle(g, 8) == [
            frozenset({"*"}), frozenset({"e@1/2"})]

    def test_classes_are_transitive_closure(self):
        # No path of length <= 8 joins * to b@2/5; both reach a@1/2.
        g, _ = subdivided_fixed_map(rose({"a": ["a", "a", "b"],
                                          "b": ["a", "b-", "a-", "a-"]}))
        ends = {frozenset((origin(g.graph, p[0]), terminus(g.graph, p[-1])))
                for p in reference_nielsen_paths(g, 8)}
        assert ends == {frozenset({"*", "a@1/2"}), frozenset({"a@1/2", "b@2/5"})}
        assert nielsen_partition_oracle(g, 8) == [frozenset({"*", "a@1/2", "b@2/5"})]


def reference_nielsen_paths(f, max_len):
    """Every Nielsen path of length <= max_len, once in each direction, as a
    dart tuple: an unpruned level-by-level enumeration of the tight paths that
    start at fixed vertices, sharing no code with nielsen_paths_brute.  Darts
    are coded as integers so that depth 10 stays affordable."""
    g = f.graph
    darts = all_darts(g)
    code = {d: i for i, d in enumerate(darts)}
    rev_of = [code[rev(d)] for d in darts]
    img = [tuple(code[x] for x in map_path(f, EdgePath((d,))).darts) for d in darts]
    term = [terminus(g, d) for d in darts]
    out = {v: [code[d] for d in darts_at(g, v)] for v in g.vertices}
    fixed = set(fixed_vertices(f))

    def times(w, x):  # reduced product of two reduced dart words
        n = 0
        while n < len(x) and n < len(w) and w[-1 - n] == rev_of[x[n]]:
            n += 1
        return w[:len(w) - n] + x[n:]

    found = []
    level = [((), (), v) for v in fixed]
    for _ in range(max_len):
        level = [(p + (d,), times(w, img[d]), term[d])
                 for p, w, at in level for d in out[at] if not p or d != rev_of[p[-1]]]
        found.extend(p for p, w, at in level if w == p and at in fixed)
    return [tuple(darts[i] for i in p) for p in found]


def divisible(ref, p):
    """The two-sided rule: p splits into two Nielsen subpaths (they meet at a
    fixed vertex), read off `ref`, a set holding every Nielsen path shorter
    than p."""
    return any(p[:j] in ref and p[j:] in ref for j in range(1, len(p)))


def assert_search_exact(f, filt, depths):
    """nielsen_paths_brute equals the reference's indivisible paths at every
    depth, unrestricted (every edge as `within` and `crossing`) and with each
    stratum's within / crossing variants."""
    ref = set(reference_nielsen_paths(f, max(depths)))
    indivisible = [p for p in ref if not divisible(ref, p)]
    edges = f.graph.edges
    variants = [(edges, edges)]
    for i, stratum in enumerate(filt.strata):
        level = filt.level_edges(i + 1)
        variants += [(level, edges), (edges, stratum), (level, stratum)]

    def admitted(p, within, crossing):
        return all(d.name in within for d in p) and any(d.name in crossing for d in p)

    def key(darts):
        return frozenset((darts, tuple(rev(d) for d in reversed(darts))))

    for depth in depths:
        for within, crossing in variants:
            got = [key(f.graph.path(p).darts)
                   for p in nielsen_paths_brute(f, depth, within, crossing)]
            want = {key(p) for p in indivisible
                    if len(p) <= depth and admitted(p, within, crossing)}
            assert len(got) == len(set(got)) and set(got) == want, (depth, within, crossing)


def assert_oracle_exact(f, depths):
    """nielsen_partition_oracle equals the classes joined by the reference's
    full path set, searched from every fixed vertex, at every depth.  Returns
    whether the last fixed vertex shares a class at the largest depth."""
    fixed = sorted(fixed_vertices(f))
    # With one fixed vertex nothing can be joined, and the rank-3 rose's
    # reference would visit ~5^10 paths.
    ref = reference_nielsen_paths(f, max(depths)) if len(fixed) > 1 else []
    for depth in depths:
        classes = [{v} for v in fixed]
        for p in ref:
            if len(p) > depth:
                continue
            a, b = origin(f.graph, p[0]), terminus(f.graph, p[-1])
            ca = next(c for c in classes if a in c)
            cb = next(c for c in classes if b in c)
            if ca is not cb:
                ca |= cb
                classes.remove(cb)
        want = sorted((frozenset(c) for c in classes), key=sorted)
        assert nielsen_partition_oracle(f, depth) == want, depth
    return any(fixed[-1] in c and len(c) > 1 for c in classes)


class TestPrunedSearchExact:
    """The bounded-cancellation pruning changes no result."""

    def test_reference_finds_known_paths(self):
        found = reference_nielsen_paths(derived, 6)
        assert path("b", "a", "b-").darts in found and path("b", "a-", "b-").darts in found
        assert reference_nielsen_paths(ex1, 8) == []

    def test_corpus_maps(self, corpus_dir):
        for p in sorted(corpus_dir.glob("*.json")):
            f, _ = load_instance(p)
            rep = analyze(f)
            if rep.filtration is None:
                continue
            g = rep.map.graph
            rank = len(g.edges) - len(g.vertices) + 1
            # The unpruned reference visits ~5^L paths on the rank-3 rose.
            assert_search_exact(rep.map, rep.filtration, (6, 8, 10) if rank <= 2 else (6, 8))

    def test_seeded_rank2_maps(self):
        gen = random_injective_endos(2, 4, seed=1)
        checked = 0
        while checked < 200:
            f = rose_map(next(gen))
            if f.is_identity():
                continue
            g, _ = subdivided_fixed_map(f)
            assert_search_exact(g, derive_filtration(g), (6, 8, 10))
            checked += 1


class TestPartitionOracleExact:
    """Searching only indivisible paths, from every fixed vertex but the last,
    changes no partition."""

    def test_corpus_maps(self, corpus_dir):
        for p in sorted(corpus_dir.glob("*.json")):
            f, _ = load_instance(p)
            assert_oracle_exact(analyze(f).map, (6, 8, 10))

    @pytest.mark.parametrize("rank, max_len, count, min_fixed", [
        (2, 4, 100, 2), (2, 6, 50, 2), (3, 3, 15, 3)])
    def test_seeded_maps(self, rank, max_len, count, min_fixed):
        # Rank-3 maps with fewer fixed vertices keep the rose's ~5^L paths.
        gen = random_injective_endos(rank, max_len, seed=1)
        checked = many_fixed = last_joined = 0
        while checked < count:
            f = rose_map(next(gen))
            if f.is_identity():
                continue
            g, _ = subdivided_fixed_map(f)
            n_fixed = len(fixed_vertices(g))
            if n_fixed < min_fixed:
                continue
            last_joined += assert_oracle_exact(g, (6, 8, 10))
            many_fixed += n_fixed >= 4
            checked += 1
        assert many_fixed > 0 and last_joined > 0, (many_fixed, last_joined)


def metric_cap(info):
    """find_inp's metric cap (hi - 1) * sum(L) / (lo - 1), and the metric L
    of each stratum edge, as Fractions."""
    exp = info.expansion
    lengths = dict(zip(info.edges, metric_lengths(exp)))
    return (exp.hi - 1) * sum(lengths.values()) / (exp.lo - 1), lengths


def reference_type3_pairs(f, info):
    """find_inp's type-3 candidates as first written, sharing none of its
    ray or matching code: each ray is grown by mapping it whole, and every
    prefix pair meeting at a one-step-degenerate turn is mapped in full.
    Returns the prefix pairs (in find_inp's order) and the Nielsen paths among
    them, and whether every ray passed the metric cap."""
    g = f.graph
    cap, lengths = metric_cap(info)
    dart_cap = 16 * (int(cap) + 2)

    def running(darts):  # metric length of each prefix
        out, total = [], Fraction(0)
        for d in darts:
            total += lengths.get(d.name, 0)
            out.append(total)
        return out

    seeds = [g.dart_of[c] for v in fixed_vertices(f)
             for c in graphs.fixed_directions(f, v, info.edges)]
    rays = {}
    for d in seeds:
        ray = (d,)
        while len(ray) <= dart_cap and running(ray)[-1] <= cap:
            img = map_path(f, EdgePath(ray)).darts
            if len(img) <= len(ray) or img[:len(ray)] != ray:
                break
            ray = img
        rays[d] = ray[:dart_cap]
    exhausted = all(running(r)[-1] > cap for r in rays.values())
    pairs, nielsen = [], []
    for ia, d1 in enumerate(seeds):
        for d2 in seeds[ia + 1:]:
            r1, r2 = rays[d1], rays[d2]
            n1_max = sum(x <= cap for x in running(r1))
            n2_max = sum(x <= cap for x in running(r2))
            for n1 in range(1, n1_max + 1):
                for n2 in range(1, n2_max + 1):
                    e1, e2 = r1[n1 - 1], r2[n2 - 1]
                    if (terminus(g, e1) != terminus(g, e2) or e1 == e2
                            or not degenerates_in_one_step(f, rev(e1), rev(e2))):
                        continue
                    p = EdgePath(r1[:n1] + tuple(rev(d) for d in reversed(r2[:n2])))
                    pairs.append(p)
                    if map_path(f, p) == p:
                        nielsen.append(p)
    return pairs, nielsen, exhausted


def path_is_nielsen(f, darts):
    return map_path(f, EdgePath(darts)) == EdgePath(darts)


def is_indivisible(f, p):
    """Whether the Nielsen path p (it must be one) has no split at an
    intermediate fixed vertex into two Nielsen subpaths.  By the cancellation
    lemma the part after a Nielsen prefix of a Nielsen path is Nielsen too,
    so only the prefixes are mapped."""
    fixed = set(fixed_vertices(f))
    return not any(terminus(f.graph, p.darts[j - 1]) in fixed
                   and path_is_nielsen(f, p.darts[:j])
                   for j in range(1, len(p.darts)))


def canonical(p):
    """Reversal-invariant key of an edge path: its darts as (name, not fwd),
    or its reversal's when that is less, so forward darts sort first."""
    a = tuple((d.name, not d.fwd) for d in p.darts)
    b = tuple((d.name, not d.fwd) for d in reverse(p).darts)
    return min(a, b)


def reference_type3(f, nielsen, exhausted):
    """(inp_status, paths) that find_inp should give a type-3 stratum with
    illegal turns, from reference_type3_pairs."""
    uniq = {}
    for p in nielsen:
        if is_indivisible(f, p):
            uniq.setdefault(canonical(p), p)
    kept = sorted(uniq.values(), key=lambda p: (len(p.darts), canonical(p)))
    if kept:
        return ("multiple" if len(kept) > 1 else "found"), kept
    return ("certified-none" if exhausted else "none-within-bound"), []


def has_illegal_turn_in(f, edges):
    """Whether some turn among directions of the given subgraph is illegal,
    by classify_turn on every pair of darts at one vertex: the reference for
    rtt._derivative_identifies_darts."""
    g = f.graph
    darts = all_darts(g, list(edges))
    return any(origin(g, a) == origin(g, b) and turn(f, a, b) == "illegal"
               for i, a in enumerate(darts) for b in darts[i + 1:])


def level_has_illegal_turn(f, filt, info):
    return has_illegal_turn_in(f, filt.level_edges(info.index + 1))


def type3_strata(f):
    """The subdivided map of f and its type-3 strata that have illegal turns."""
    g, _ = subdivided_fixed_map(f)
    filt = derive_filtration(g)
    infos = [classify_stratum(g, filt, i) for i in range(filt.depth)]
    return g, filt, [i for i in infos
                     if i.stype == "type3" and level_has_illegal_turn(g, filt, i)]


def assert_walk_keys(g, d, dart_cap=16):
    """The first dart_cap darts of the ray from the dart coded d that
    rtt._walk_ray walks with no weight: each key is (terminus, tight
    [A^-1 . f(A)]), and every tail is nonempty."""
    darts = g.graph.dart_of
    ray, keys, passed = rtt._walk_ray(g, d, {}, 0, dart_cap)
    for full in graphs.ray_images(g, d):
        if len(full) >= dart_cap:
            break
    assert ray == full[:dart_cap]
    ray = tuple(darts[c] for c in ray)
    assert len(keys) == len(ray) and not passed
    for n, (v, tau) in enumerate(keys, start=1):
        fa = map_path(g, EdgePath(ray[:n])).darts  # A^-1 cancels against it
        k = 0
        while k < min(n, len(fa)) and fa[k] == ray[k]:
            k += 1
        tight = tuple(rev(x) for x in reversed(ray[k:n])) + fa[k:]
        assert v == terminus(g.graph, ray[n - 1])
        assert tuple(darts[c] for c in tau) == tight, (n, ray, g.edge_map)
        assert tau, (n, ray, g.edge_map)


def assert_type3_exact(f, max_len=8):
    """find_inp agrees with reference_type3 on every type-3 stratum of f with
    an illegal turn, and the walk of each ray gives the keys its docstring
    states (assert_walk_keys).  Returns the number of strata with a crossing
    path and of prefix pairs matched."""
    g, filt, infos = type3_strata(f)
    with_path = matched = 0
    for info in infos:
        rtt.find_inp(g, filt, info, max_len, [frozenset({v}) for v in fixed_vertices(g)])
        _, nielsen, exhausted = reference_type3_pairs(g, info)
        want = reference_type3(g, nielsen, exhausted)
        assert (info.inp_status, [g.graph.path(p) for p in info.paths]) == want, f.edge_map
        with_path += info.inp_status in ("found", "multiple")
        matched += len(nielsen)
        for v in fixed_vertices(g):
            for d in graphs.fixed_directions(g, v, info.edges):
                assert_walk_keys(g, d)
    return with_path, matched


SECOND_PATH_MAPS = [
    {"a": ["b", "a", "a"], "b": ["b", "a"]},
    {"a": ["a", "a", "b", "a"], "b": ["a", "b", "a"]},
    {"a": ["b", "a"], "b": ["b", "b", "a"]},
    {"a": ["a", "a", "b-"], "b": ["b", "a-"]},
    {"a": ["a", "b-"], "b": ["b", "b", "a-"]},
]


class TestCrossingPathExact:
    """Matching prefixes by their Nielsen tails finds exactly the crossing
    paths that mapping every prefix pair finds."""

    def test_nielsen_prefix_is_a_structure_violation(self):
        # a -> a b, b -> b- flips b about its midpoint.  The ray from a is
        # a b:1 b:2, and its prefix a b:1 is a Nielsen path to the fixed
        # point b@1/2, which no ray of a type-3 stratum carries (the stretch
        # fact), so the walk raises rather than cut the ray there.
        g, _ = subdivided_fixed_map(rose({"a": ["a", "b"], "b": ["b-"]}))
        assert verify_nielsen_path(g, path("a", "b:1"))
        a = g.graph.edge_code["a"]
        last = list(graphs.ray_images(g, a))[-1]
        assert tuple(g.graph.dart_of[c] for c in last) == path("a", "b:1", "b:2").darts
        with pytest.raises(rtt.StructureViolation, match="prefix a b:1 of the ray from a"):
            rtt._walk_ray(g, a, {"a": 1}, 100, 100)

    @pytest.mark.parametrize("images", SECOND_PATH_MAPS)
    def test_second_crossing_path_maps(self, images):
        assert assert_type3_exact(rose(images))[0] == 1

    @pytest.mark.parametrize("rank, max_len, seed, count", [
        (2, 4, 1, 1200), (2, 4, 2, 1200), (2, 8, 1, 300), (3, 3, 1, 300)])
    def test_seeded_maps(self, rank, max_len, seed, count):
        gen = random_injective_endos(rank, max_len, seed)
        with_path = matched = 0
        for _ in range(count):
            f = rose_map(next(gen))
            if not f.is_identity():
                a, b = assert_type3_exact(f)
                with_path, matched = with_path + a, matched + b
        assert with_path > 0 and matched > 0, (with_path, matched)


def count_paths_mapped(monkeypatch, counting=lambda: True):
    """The images that graphs.extend_reduced appends outside ray_images
    (which maps only each ray's new darts) while counting() holds."""
    mapped = []
    real = graphs.extend_reduced

    def counted(out, letters):
        if counting() and sys._getframe(1).f_code.co_name != "ray_images":
            mapped.append(tuple(letters))
        return real(out, letters)

    monkeypatch.setattr(graphs, "extend_reduced", counted)
    return mapped


class TestSearchWork:
    """The searches do less work, with the same results."""

    def test_type2_search_maps_no_path(self, monkeypatch):
        # Indivisibility is settled inside the search, with no path mapped.
        searches = []
        brute = rtt.nielsen_paths_brute

        def counted_brute(*args, **kw):
            searches.append(kw)
            return brute(*args, **kw)

        monkeypatch.setattr(rtt, "nielsen_paths_brute", counted_brute)
        mapped = count_paths_mapped(monkeypatch, lambda: bool(searches))
        f, _ = subdivided_fixed_map(rose({"a": ["a"], "b": ["a-", "b", "a"]}))
        filt = derive_filtration(f)
        for i in range(filt.depth):
            info = classify_stratum(f, filt, i)
            assert info.stype == "type2"
            searches.clear()
            rtt.find_inp(f, filt, info, 8, [frozenset({v}) for v in fixed_vertices(f)])
            assert len(searches) == 1 and info.inp_status == "found", i
            assert mapped == [], (i, mapped)

    def test_search_never_backtracks(self):
        # The depth-first search of the partition oracle descends tight paths
        # only: no frame may push the reversal of the path's last dart.  A
        # backtracking descent is cut later on, so it changes no result,
        # only the count of frames.
        f, _ = subdivided_fixed_map(rose({"a": ["b", "a", "a"], "b": ["b", "a"]}))
        darts = f.graph.dart_of
        frames = []

        def watch(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_name == "visit" and code.co_filename == rtt.__file__:
                path, nexts = frame.f_locals["path"], frame.f_locals["nexts"]
                frames.append(bool(path) and rev(darts[path[-1]]) in
                              [darts[c] for c in nexts])

        sys.setprofile(watch)
        try:
            nielsen_partition_oracle(f, 10)
        finally:
            sys.setprofile(None)
        assert not any(frames)
        assert len(frames) == 74

    def test_rays_stop_at_metric_cap(self, monkeypatch):
        # Each ray grows to its first image longer than find_inp's metric cap.
        images: dict = {}
        real = rtt.ray_images

        def recorded(f, d):
            for current in real(f, d):
                images.setdefault(d, []).append(current)
                yield current

        monkeypatch.setattr(rtt, "ray_images", recorded)
        f, _ = subdivided_fixed_map(rose({"a": ["b", "a", "a"], "b": ["b", "a"]}))
        filt = derive_filtration(f)
        info = classify_stratum(f, filt, 0)
        assert info.stype == "type3" and level_has_illegal_turn(f, filt, info)
        rtt.find_inp(f, filt, info, 8, [frozenset({v}) for v in fixed_vertices(f)])
        assert info.inp_status == "multiple"  # two crossing paths, see TestSecondCrossingPath
        cap, lengths = metric_cap(info)

        def metric(codes):
            return sum(lengths.get(f.graph.dart_of[c].name, 0) for c in codes)

        assert len(images) == 4
        for ray in images.values():
            assert all(metric(c) <= cap for c in ray[:-1])
            assert metric(ray[-1]) > cap
        # Three rays grow images of 1, 3 and 8 darts, and the ray from a:1-
        # images of 1, 2 and 5: 3 * 12 + 8 = 44 darts.  Each 3-dart image
        # measures sum(L), which is within the cap (hi - 1) * sum(L) / (lo - 1)
        # because hi >= lo, so the 8-dart images are grown.
        assert sum(len(c) for ray in images.values() for c in ray) == 44

    def test_type3_maps_no_path(self, monkeypatch):
        # Candidates are matched by their tails and are indivisible by the
        # cut at the first Nielsen prefix, so the type-3 branch maps no path.
        # This map has 10 candidate pairs within the cap, 2 of them Nielsen.
        f = rose(SECOND_PATH_MAPS[1])
        g, filt, infos = type3_strata(f)
        (info,) = infos
        pairs, nielsen, _ = reference_type3_pairs(g, info)
        mapped = count_paths_mapped(monkeypatch)
        rtt.find_inp(g, filt, info, 8, [frozenset({v}) for v in fixed_vertices(g)])
        assert info.inp_status == "multiple"
        assert mapped == [], mapped
        assert len(nielsen) >= 2 and len(pairs) > 4, (len(pairs), len(nielsen))


class TestMetricCap:
    """find_inp certifies `certified-none` on a type-3 stratum once every ray
    passes the metric cap (the metric-cap lemma in its docstring)."""

    def test_certified_none_has_no_crossing_path(self):
        # No crossing indivisible Nielsen path up to length 12 on any such
        # stratum, whether certified by the turn check or, for the 47 with
        # an illegal turn, by the search, over the first 300 rank-2 maps with
        # images of length <= 4 (seed 1).
        gen = random_injective_endos(2, 4, 1)
        audited = searched = 0
        for _ in range(300):
            rep = analyze(rose_map(next(gen)))
            if not rep.classification_complete:
                continue
            for info in rep.strata:
                if (info.stype, info.inp_status) != ("type3", "certified-none"):
                    continue
                level = rep.filtration.level_edges(info.index + 1)
                brute = nielsen_paths_brute(rep.map, 12, within=level, crossing=info.edges)
                assert brute == [], [str(p) for p in brute]
                audited += 1
                searched += has_illegal_turn_in(rep.map, level)
        assert (audited, searched) == (103, 47)

    def test_import_leaves_numpy_out(self):
        # The bracket is integer arithmetic; numpy is a test-only reference.
        src = str(Path(rtt.__file__).resolve().parents[1])
        code = "import sys, nielsenkit; print('numpy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True).stdout
        assert out.strip() == "False"


class TestTurnCheck:
    """find_inp certifies `none` on a type-3 stratum whose level has no dart
    pair at one vertex with one derivative; by the turn equivalence (rtt
    module docstring) that is a level with no illegal turn, which the
    reference has_illegal_turn_in decides with classify_turn."""

    @staticmethod
    def agreement(f):
        """(levels, levels with an illegal turn, type-3 strata, type-3 strata
        with one) of the subdivided map of f, asserting that the two checks
        agree on every level."""
        g, _ = subdivided_fixed_map(f)
        filt = derive_filtration(g)
        counts = [0, 0, 0, 0]
        for i in range(filt.depth):
            level = filt.level_edges(i + 1)
            want = has_illegal_turn_in(g, level)
            assert rtt._derivative_identifies_darts(g, level) == want, (f.edge_map, i)
            type3 = classify_stratum(g, filt, i).stype == "type3"
            counts = [a + b for a, b in zip(counts, (1, want, type3, type3 and want))]
        return counts

    def test_agrees_with_reference_on_survey(self):
        # Every level of the 2400 rank-2 maps with images of length <= 4
        # (seed 1); 475 of the 1007 type-3 strata have an illegal turn.
        gen = random_injective_endos(2, 4, 1)
        totals = [0, 0, 0, 0]
        for _ in range(2400):
            f = rose_map(next(gen))
            if not f.is_identity():
                totals = [a + b for a, b in zip(totals, self.agreement(f))]
        assert totals == [3203, 2138, 1007, 475]

    def test_agrees_with_reference_on_multivertex_maps(self):
        totals = [0, 0, 0, 0]
        for make in (theta_swap, theta_collapse, theta_fold):
            totals = [a + b for a, b in zip(totals, self.agreement(make()))]
        assert totals == [8, 2, 1, 0]


class TestSecondCrossingPath:
    """An expanding stratum of an unstabilized train track may carry two
    indivisible Nielsen paths joining the same lower classes, one merging and
    one closing a loop.  Both are kept, so the stratum is `multiple` and its
    classes are left unverified instead of taking a wrong (rk, a)."""

    @pytest.mark.parametrize("images", SECOND_PATH_MAPS)
    def test_two_paths_leave_classes_unverified(self, images):
        rep = analyze(rose(images))
        assert [(i.stype, i.inp_status) for i in rep.strata] == [("type3", "multiple")]
        assert len(rep.strata[0].paths) == 2
        assert all(c.rank is None and c.attract is None for c in rep.classes)

    @pytest.mark.parametrize("seed, strata", [(1, 35), (2, 39)])
    def test_found_means_exactly_one_crossing_path(self, seed, strata):
        # Every type-3 stratum reported `found` has exactly one crossing
        # indivisible Nielsen path up to length 10 (2400 rank-2 maps with
        # images of length <= 4).
        gen = random_injective_endos(2, 4, seed)
        checked = 0
        for _ in range(2400):
            f = rose_map(next(gen))
            if f.is_identity():
                continue
            rep = analyze(f)
            for info in rep.strata:
                if info.stype != "type3" or info.inp_status != "found":
                    continue
                level = rep.filtration.level_edges(info.index + 1)
                brute = nielsen_paths_brute(rep.map, 10, within=level, crossing=info.edges)
                assert len(brute) == 1, (f.edge_map, [str(p) for p in brute])
                checked += 1
        assert checked == strata
