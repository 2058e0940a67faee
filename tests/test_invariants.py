import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import apply_budget, class_of, endo, rose
from test_multivertex import theta_collapse, theta_fold, theta_swap
from nielsenkit import invariants
from nielsenkit.boundary import MorphicRay, attraction_check
from nielsenkit.invariants import (
    AnalysisError,
    analyze,
    analyze_endomorphism,
    analyze_route,
    attracting_rays,
    fixed_subgroup_basis,
    lefschetz_number,
    local_index,
    word_attracting_candidates,
)
from nielsenkit.graphs import (fixed_directions, fixed_vertices, marking, ray_images,
                                subdivided_fixed_map)
from nielsenkit.io import rose_map
from nielsenkit.rtt import StructureViolation
from nielsenkit.sampling import random_injective_endos
from nielsenkit.words import (
    Endomorphism,
    IDENTITY,
    Word,
    default_basis,
    fold_words,
    word,
)

b1 = default_basis(1)
b2 = default_basis(2)


def base_point_invariants() -> tuple[int, int, int]:
    """(index, rank, attracting count) of an isolated fixed point."""
    return (1, 0, 0)


def base_circle_invariants(k: int) -> list[tuple[int, int, int]]:
    """Per-class (index, rank, attracting count) of a degree-k circle map."""
    if k == 0:
        raise AnalysisError("degree 0 circle maps are not injective on the fundamental group")
    if k == 1:
        return [(0, 1, 0)]
    sign = 1 if k < 1 else -1
    attract = 2 if k > 1 else 0
    return [(sign, 0, attract)] * abs(1 - k)


def conjugate_by(phi: Endomorphism, c) -> Endomorphism:
    """i_c o phi o i_c^-1, the similarity twist of phi by c."""
    return phi.inner_twist(c * phi.apply(c).inverse())


def table(report):
    return sorted((c.members, c.index, c.rank, c.attract, c.improved_char)
                  for c in report.classes)


class TestBaseInvariants:
    def test_point(self):
        assert base_point_invariants() == (1, 0, 0)

    @pytest.mark.parametrize("k,expect", [
        (1, [(0, 1, 0)]),
        (2, [(-1, 0, 2)]),
        (3, [(-1, 0, 2)] * 2),
        (-1, [(1, 0, 0)] * 2),
        (-3, [(1, 0, 0)] * 4),
    ])
    def test_circle(self, k, expect):
        assert base_circle_invariants(k) == expect

    def test_degree_zero_rejected(self):
        with pytest.raises(AnalysisError):
            base_circle_invariants(0)

    @pytest.mark.parametrize("k", [-3, -2, -1, 1, 2, 3])
    def test_pipeline_matches_base_formula(self, k):
        image = ["e"] * k if k > 0 else ["e-"] * (-k)
        rep = analyze(rose({"e": image}))
        got = sorted((c.index, c.rank, c.attract) for c in rep.classes)
        assert got == sorted(base_circle_invariants(k))


class TestExamples:
    def test_doubling_n2(self):
        rep = analyze_endomorphism(endo(2, "aa", "bb"))
        assert table(rep) == [(("*",), -3, 0, 4, -3)]
        assert rep.classes[0].delta == 4
        assert rep.lefschetz == -3

    def test_conjugating(self):
        rep = analyze_endomorphism(endo(2, "a", "Bab"))
        star = class_of(rep, "*")
        assert (star.index, star.rank, star.attract, star.improved_char) == (-1, 1, 1, -1)
        # the transversal fold-back point is its own class of index +1
        others = [c for c in rep.classes if c is not star]
        assert [(c.index, c.rank, c.attract) for c in others] == [(1, 0, 0)]
        assert rep.lefschetz == 0 == sum(c.index for c in rep.classes)

    def test_rotation(self):
        rep = analyze_endomorphism(endo(2, "b", "A"))
        assert table(rep) == [(("*",), 1, 0, 0, 1)]
        assert rep.lefschetz == 1

    def test_jiang(self):
        rep = analyze_endomorphism(endo(2, "A", "Abb"))
        assert sorted(c.index for c in rep.classes) == [0, 0]
        assert len(rep.classes) == 2
        star = class_of(rep, "*")
        assert (star.rank, star.attract) == (0, 1)
        assert rep.lefschetz == 0

    def test_derived(self):
        rep = analyze_endomorphism(endo(2, "a", "ba"))
        assert table(rep) == [(("*",), -1, 2, 0, -1)]
        # the rank-2 fixed subgroup has verifiable generators
        phi = endo(2, "a", "ba")
        gens = [b2.parse("a"), b2.parse("baB")]
        for g in gens:
            assert phi.apply(g) == g
        assert fold_words(2, gens).subgroup_rank() == 2

    def test_identity_map(self):
        rep = analyze(rose({"a": ["a"], "b": ["b"]}))
        assert table(rep) == [(("*",), -1, 2, 0, -1)]
        assert rep.lefschetz == -1 == rep.chi
        assert rep.classes[0].delta == 0

    def test_doubling_n1_and_n3(self):
        rep1 = analyze_endomorphism(endo(1, "aa"))
        assert table(rep1) == [(("*",), -1, 0, 2, -1)]
        rep3 = analyze_endomorphism(Endomorphism(
            default_basis(3), tuple(word((i, i)) for i in (1, 2, 3))))
        assert table(rep3) == [(("*",), -5, 0, 6, -5)]
        assert rep3.classes[0].delta == 6


class TestKnownAutomorphisms:
    def test_fibonacci(self):
        # a -> b, b -> ab: irreducible with golden expansion, trivial fixed
        # subgroup, one attracting orbit
        rep = analyze_endomorphism(endo(2, "b", "ab"))
        assert table(rep) == [(("*",), 0, 0, 1, 0)]
        assert rep.lefschetz == 0
        top = rep.strata[-1]
        assert top.stype == "type3"
        assert abs(top.expansion.lam - (1 + 5 ** 0.5) / 2) <= 1e-9
        assert top.inp_status == "certified-none"
        star = rep.classes[0]
        rays = attracting_rays(rep.map, star)
        assert len(rays) == 1
        # the ray spells the infinite golden-rotation word on {b^-1, a^-1}
        assert rays[0].prefix(12).letters == (-2, -1, -2, -2, -1, -2, -1, -2,
                                              -2, -1, -2, -2)

    def test_inverse_handedness(self):
        # the inverse automorphism b -> a, a -> b^-1 a has the same shape
        rep = analyze_endomorphism(endo(2, "Ba", "a"))
        assert sum(c.index for c in rep.classes) == rep.lefschetz


class TestIndices:
    def test_local_formula_conjugating(self):
        f = rose_map(endo(2, "a", "Bab"))
        assert local_index(f, ["*"]) == -1

    def test_local_formula_doubling(self):
        f = rose_map(endo(2, "aa", "bb"))
        assert local_index(f, ["*"]) == -3

    def test_lefschetz_values(self):
        assert lefschetz_number(rose_map(endo(2, "A", "Abb")))[0] == 0
        assert lefschetz_number(rose_map(endo(2, "aa", "bb")))[0] == -3
        assert lefschetz_number(rose({"a": ["a"], "b": ["b"]}))[0] == -1

    @pytest.mark.parametrize("rank, max_len, count", [(2, 4, 300), (2, 8, 100), (3, 3, 100)])
    def test_subdivision_keeps_the_lefschetz_number(self, rank, max_len, count):
        # analyze checks the subdivided map's index sum against L(f).
        gen = random_injective_endos(rank, max_len, seed=1)
        subdivided = 0
        for _ in range(count):
            f = rose_map(next(gen))
            if f.is_identity():
                continue
            g, points = subdivided_fixed_map(f)
            assert lefschetz_number(g) == lefschetz_number(f), f.edge_map
            subdivided += bool(points)
        assert subdivided > count // 4

    def test_index_sum_asserted(self):
        for images in [("a", "Bab"), ("A", "Abb"), ("b", "A"), ("a", "ba")]:
            rep = analyze_endomorphism(endo(2, *images))
            assert sum(c.index for c in rep.classes) == rep.lefschetz


class ProjectedRay:
    """Reference: the graph ray [f^k(d)] of a fixed direction d, read in the
    marking at d's origin one new stretch of darts at a time.  A tight path
    spells a reduced word, so each stretch extends the letters so far."""

    def __init__(self, f, start):
        self.marking = marking(f.graph, f.graph.origin(start))
        self.endo = self.marking.endo(f)
        self._images = ray_images(f, start)
        self._letters = []
        self._emitted = 0

    def prefix(self, m):
        while len(self._letters) < m:
            darts = next(self._images)
            self._letters.extend(self.marking.word(darts[self._emitted:]).letters)
            self._emitted = len(darts)
        return Word(tuple(self._letters[:m]))


class TestAttractingReps:
    def test_doubling_rays(self):
        rep = analyze_endomorphism(endo(2, "aa", "bb"))
        star = class_of(rep, "*")
        rays = attracting_rays(rep.map, star)
        assert len(rays) == 4
        prefixes = sorted(tuple(r.prefix(5).letters) for r in rays)
        assert prefixes == sorted([(1,) * 5, (-1,) * 5, (2,) * 5, (-2,) * 5])

    def test_conjugating_ray_prefix(self):
        rep = analyze_endomorphism(endo(2, "a", "Bab"))
        star = class_of(rep, "*")
        rays = attracting_rays(rep.map, star)
        assert len(rays) == 1
        assert rays[0].prefix(7).letters == (-2, -1, 2, -1, -2, 1, 2)

    def test_reps_attract_and_escape(self):
        rep = analyze_endomorphism(endo(2, "a", "Bab"))
        star = class_of(rep, "*")
        for ray in attracting_rays(rep.map, star):
            phi = ray.endo
            graph = fold_words(phi.rank, fixed_subgroup_basis(phi, 6))
            assert attraction_check(ray, phi).status == "attracting"
            assert graph.read(ray.prefix(24)) is None

    @pytest.mark.parametrize("rank, max_len, seed, count", [
        (2, 4, 1, 400), (2, 4, 2, 400), (2, 8, 1, 100), (3, 3, 1, 100), (3, 4, 1, 50)])
    def test_rays_match_the_projected_graph_rays(self, rank, max_len, seed, count):
        # Each ray attracting_rays returns spells the graph ray [f^k(d)] of
        # its seed in the marking at d's origin, and gets the attraction
        # verdict that graph ray gets.
        gen = random_injective_endos(rank, max_len, seed)
        compared = multi_vertex = 0
        for _ in range(count):
            rep = analyze(rose_map(next(gen)))
            for c in rep.classes:
                if c.attract is None:
                    continue
                rays = attracting_rays(rep.map, c)
                assert len(rays) == len(c.ray_seeds)
                for d, ray in zip(c.ray_seeds, rays):
                    ref = ProjectedRay(rep.map, d)
                    assert ray.endo == ref.endo
                    assert ray.prefix(64) == ref.prefix(64), (rep.map.edge_map, d)
                    assert (attraction_check(ray, ray.endo).status
                            == attraction_check(ref, ref.endo).status), (rep.map.edge_map, d)
                    compared += 1
                    multi_vertex += len(rep.map.graph.vertices) > 1
        assert multi_vertex > 0 and compared > multi_vertex, (compared, multi_vertex)

    def test_merged_pair_counts_once(self):
        rep = analyze_endomorphism(endo(2, "A", "Abb"))
        for c in rep.classes:
            assert c.attract == len(c.ray_seeds) == 1


class TestRouteAnalysis:
    def test_rotation_route_a(self):
        phi = endo(2, "b", "A")
        rep = analyze_route(phi, b2.parse("a"), 8)
        assert rep.rank_found == 1
        assert rep.generators == [b2.parse("abAB")]
        assert rep.attract_found == 0
        assert rep.improved_char == 0
        assert rep.probably_empty

    def test_rotation_base_route(self):
        phi = endo(2, "b", "A")
        rep = analyze_route(phi, IDENTITY, 6)
        assert rep.rank_found == 0 and rep.attract_found == 0
        assert rep.constant_witness == IDENTITY

    def test_jiang_base_route(self):
        phi = endo(2, "A", "Abb")
        rep = analyze_route(phi, IDENTITY, 6)
        assert rep.rank_found == 0
        assert rep.attract_found == 1
        assert rep.attracting[0].prefix(11) == b2.parse("BBaBBBBaBBa")

    def test_conjugating_base_route(self):
        phi = endo(2, "a", "Bab")
        rep = analyze_route(phi, IDENTITY, 6)
        assert rep.rank_found == 1 and rep.attract_found == 1
        assert rep.improved_char == -1

    @pytest.mark.parametrize("images,route", [(("a", "bAb"), ""), (("ba", "bb"), "b")])
    def test_equivalence_builds_no_rays(self, monkeypatch, images, route):
        # Two attracting rays compared modulo a nonempty fixed subgroup (both
        # pairs are from the seeded route workload): every shifted ray U.V is
        # read off V's own buffer, so the candidates are the only rays built.
        phi, w = endo(2, *images), b2.parse(route)
        candidates = len(word_attracting_candidates(phi.inner_twist(w)))
        built, compared = [0], [0]
        init, equivalent_under = MorphicRay.__init__, invariants.equivalent_under

        def counting_init(ray, *args, **kwargs):
            built[0] += 1
            init(ray, *args, **kwargs)

        def counting_equivalent_under(*args):
            compared[0] += 1
            return equivalent_under(*args)

        monkeypatch.setattr(MorphicRay, "__init__", counting_init)
        monkeypatch.setattr(invariants, "equivalent_under", counting_equivalent_under)
        rep = analyze_route(phi, w, 6)
        assert rep.generators and rep.attract_found == 2 and compared[0] == 1
        assert built[0] == candidates

    @pytest.mark.parametrize("images, route", [(("b", "aaB"), "BB"), (("BA", "AA"), "a")])
    def test_runaway_rays_are_given_up(self, monkeypatch, images, route):
        # Instances 56 and 439 of the seed-2 routes benchmark workload: rays
        # that certify a letter every other block while their blocks double
        # are given up once a block outgrows their certified letters.
        apply_budget(monkeypatch, 50_000)
        rep = analyze_route(endo(2, *images), b2.parse(route), 6)
        assert rep.attracting == []

    def test_seeded_route_outputs_pinned(self):
        # 440 seeded rank-2 maps (images of length <= 4), each with the
        # identity, a random letter or a random reduced 2-letter route in
        # turn: the rank, generators, attracting 24-letter prefixes and
        # constant-route witness of every depth-6 route analysis.
        maps = random_injective_endos(2, 4, 1)
        rng = random.Random("routes-1")
        lines = []
        for k in range(440):
            phi = next(maps)
            route: list[int] = []
            while len(route) < k % 3:
                x = rng.choice([1, -1, 2, -2])
                if not route or x != -route[-1]:
                    route.append(x)
            rep = analyze_route(phi, word(route), 6)
            fmt = phi.basis.format
            lines.append(" ".join([
                fmt(phi.images[0]), fmt(phi.images[1]), fmt(rep.route),
                str(rep.rank_found), ",".join(fmt(g) for g in rep.generators),
                ",".join(fmt(r.prefix(24)) for r in rep.attracting),
                "-" if rep.constant_witness is None else fmt(rep.constant_witness),
            ]) + "\n")
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == "886c11d0dc1174b4e3a9c7d6d12b9d9fa75315e499fdf6bc8142a90b2a86e271"


class TestTheoremSuite:
    def test_conjugating_verdicts(self):
        rep = analyze_endomorphism(endo(2, "a", "Bab"))
        assert rep.verdicts["index_upper_bound"] == "pass"
        assert rep.verdicts["equality_at_chi_minus_one"] == "pass"
        assert rep.verdicts["lefschetz_sum"] == "pass"
        assert rep.verdicts["rank_attract_sum_bound"] == "pass"
        assert "= 1/2 <=" in rep.verdict_details["rank_attract_sum_bound"]

    def test_trace_criterion_below_one(self):
        rep = analyze_endomorphism(endo(2, "b", "A"))  # trace 0
        assert rep.verdicts["trace_criterion"] == "pass"
        assert any(c.rank == 0 and c.attract == 0 for c in rep.classes)

    def test_trace_criterion_above_one(self):
        rep = analyze_endomorphism(endo(2, "aa", "bb"))  # trace 4
        assert rep.verdicts["trace_criterion"] == "pass"
        assert any(c.rank + c.attract > 1 for c in rep.classes)

    def test_doubled_halves_arithmetic(self):
        # rk + a/2 - 1 = 1/2 for the conjugating example's base class
        rep = analyze_endomorphism(endo(2, "a", "Bab"))
        star = class_of(rep, "*")
        assert 2 * star.rank + star.attract - 2 == 1  # doubled: exactly one half


class TestSimilarityInvariance:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=4))
    def test_conjugation_preserves_class_data(self, raw):
        c = word(raw)
        phi = endo(2, "a", "Bab")
        twisted = conjugate_by(phi, c)
        rep1 = analyze_endomorphism(phi)
        rep2 = analyze_endomorphism(twisted)
        # The index sum is exact on any realization.
        assert sum(c_.index for c_ in rep2.classes) == rep1.lefschetz
        # Beyond that, comparisons are only meaningful between verified
        # analyses: an unverified fallback partition is bounded-search data
        # and may be finer than the truth.  Inessential classes may come and
        # go under homotopy, so essential classes carry the invariants.
        if rep1.classification_complete and rep2.classification_complete and \
                all(c_.rank is not None for c_ in rep1.classes + rep2.classes):
            vals1 = sorted((c_.index, c_.rank, c_.attract)
                           for c_ in rep1.classes if c_.essential)
            vals2 = sorted((c_.index, c_.rank, c_.attract)
                           for c_ in rep2.classes if c_.essential)
            assert vals1 == vals2

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=3))
    def test_word_level_similarity(self, raw):
        c = word(raw)
        phi = endo(2, "A", "Abb")
        twisted = conjugate_by(phi, c)
        assert len(fixed_subgroup_basis(phi, 5)) == len(fixed_subgroup_basis(twisted, 5))


class TestWordLevelCrossValidation:
    def test_recursion_matches_route_analysis(self):
        # Independent machinery: the stratum recursion versus the bounded
        # word-level analysis (folded fixed subgroup + candidate rays) on
        # seeded unsubdivided single-class instances.
        from nielsenkit.rtt import StructureViolation
        from nielsenkit.sampling import random_injective_endos

        gen = random_injective_endos(2, 4, seed=777)
        checked = 0
        for _ in range(150):
            phi = next(gen)
            try:
                rep = analyze_endomorphism(phi)
            except StructureViolation:
                continue
            if not rep.classification_complete or rep.subdivided_at:
                continue
            star = class_of(rep, "*")
            if star is None or star.rank is None or star.members != ("*",):
                continue
            checked += 1
            route = analyze_route(phi, IDENTITY, 8)
            assert route.rank_found == star.rank
            assert route.attract_found == star.attract
        assert checked >= 10  # the seeded stream must keep producing cases


class TestRejections:
    def test_non_injective(self):
        with pytest.raises(AnalysisError):
            analyze_endomorphism(endo(2, "a", "a"))

    def test_degree_zero_circle(self):
        with pytest.raises(AnalysisError):
            analyze(rose({"e": []}))

    def test_disconnected(self):
        from nielsenkit.graphs import EdgePath, Graph, GraphMap, Dart

        g = Graph(("u", "v"), {"a": ("u", "u"), "b": ("v", "v")})
        f = GraphMap(g, {"u": "u", "v": "v"},
                     {"a": EdgePath((Dart("a", True),)),
                      "b": EdgePath((Dart("b", True), Dart("b", True)))})
        with pytest.raises(AnalysisError):
            analyze(f)


class TestReportFields:
    def test_classes_as_partition(self):
        rep = analyze(rose_map(endo(2, "A", "Abb")))
        parts = [frozenset(c.members) for c in rep.classes]
        assert sorted(sorted(p) for p in parts) == [
            ["*"], ["a@1/2", "b@1/2"]]

    def test_verdicts_and_details(self):
        rep = analyze(rose_map(endo(2, "a", "Bab")))
        assert rep.verdicts["equality_at_chi_minus_one"] == "pass"
        assert "ind=-1" in rep.verdict_details["equality_at_chi_minus_one"]


class TestRecursionInternals:
    def test_improved_char_recursion_step(self):
        # Every class here is verified, so cross-check 1 has compared its
        # index, counted at its fixed vertices, with the folded 1 - rk - a.
        for images in [("aa", "bb"), ("a", "Bab"), ("a", "ba")]:
            rep = analyze_endomorphism(endo(2, *images))
            for c in rep.classes:
                assert c.index == c.improved_char

    def test_oracle_cross_check_active(self):
        rep = analyze_endomorphism(endo(2, "A", "Abb"))
        assert len(rep.classes) == 2

    def test_partition_mismatch_message_is_sorted(self, monkeypatch):
        # The message lists each class's members sorted, not in the hash order
        # of a frozenset, so one input always gives one message.
        f = rose({"a": ["b", "a", "a"], "b": ["b", "b", "b"]})
        assert [c.members for c in analyze(f).classes] == [("*",), ("a@1/2", "b@1/2")]
        monkeypatch.setattr(invariants, "nielsen_partition_oracle",
                            lambda g, depth: [frozenset(fixed_vertices(g))])
        with pytest.raises(AnalysisError) as exc:
            analyze(f)
        assert str(exc.value) == (
            "class partition [['*'], ['a@1/2', 'b@1/2']] disagrees with the "
            "Nielsen-path oracle [['*', 'a@1/2', 'b@1/2']]")

    def test_incomplete_runs_oracle_once(self, monkeypatch):
        # The oracle's partition replaces the recursion's; it is not re-run
        # as a cross-check whose result would be ignored.
        import nielsenkit.invariants as inv

        calls = []
        oracle = inv.nielsen_partition_oracle

        def counted(*args):
            calls.append(args)
            return oracle(*args)

        monkeypatch.setattr(inv, "nielsen_partition_oracle", counted)
        rep = analyze_endomorphism(endo(2, "aBAb", "a"))
        assert not rep.classification_complete
        assert len(rep.classes) == 2
        assert len(calls) == 1
        assert [c.delta for c in rep.classes] == [0, 0]

    def test_corrupted_rank_is_a_structure_error(self, monkeypatch):
        # A recursion that miscounts a verified class's rank must fail
        # cross-check 1, not surface as a failed theorem verdict.
        fold = invariants._fold_stratum

        def corrupted(f, classes, info):
            fold(f, classes, info)
            next(c for c in classes if c.verified).rank += 1

        monkeypatch.setattr(invariants, "_fold_stratum", corrupted)
        with pytest.raises(AnalysisError, match="index mismatch"):
            analyze_endomorphism(endo(2, "aa", "bb"))

    def test_type2_path_needs_one_fixed_direction(self, monkeypatch):
        # Stratum 0 of a -> a, b -> Bab is the fixed edge a, whose crossing
        # path a meets its one fixed direction.  Hiding that direction from
        # the fold must raise, not shift a.
        real = invariants.fixed_directions

        def hidden(f, v, edges=None):
            return [] if edges == ("a",) else real(f, v, edges)

        rep = analyze_endomorphism(endo(2, "a", "Bab"))
        assert [(i.edges, i.stype, i.inp_status) for i in rep.strata][0] == (
            ("a",), "type2", "found")
        monkeypatch.setattr(invariants, "fixed_directions", hidden)
        with pytest.raises(StructureViolation, match=r"permutation stratum 0 \(a\) "
                                                     r"meets 0 fixed stratum directions"):
            analyze_endomorphism(endo(2, "a", "Bab"))

    def test_found_type3_path_drops_its_last_seed(self):
        # A found expanding-stratum path runs between two distinct fixed
        # directions of its stratum; its class keeps the seed of the first
        # dart and drops that of the last one (reversed), and a is the number
        # of seeds kept.  Over the 2400 rank-2 maps with images of length
        # <= 4 (seed 1) and the multi-vertex theta maps.
        gen = random_injective_endos(2, 4, 1)
        maps = [rose_map(next(gen)) for _ in range(2400)]
        maps += [theta_swap(), theta_collapse(), theta_fold()]
        found = verified = 0
        for f in maps:
            rep = analyze(f)
            for c in rep.classes:
                if c.attract is not None:
                    assert c.attract == len(c.ray_seeds)
                    verified += 1
            if not rep.classification_complete:
                continue
            g = rep.map.graph
            for info in rep.strata:
                if (info.stype, info.inp_status) != ("type3", "found"):
                    continue
                (p,) = info.paths
                first, last = p.darts[0], p.darts[-1].rev
                assert first != last
                assert first in fixed_directions(rep.map, g.origin(first), info.edges)
                assert last in fixed_directions(rep.map, g.origin(last), info.edges)
                owner = class_of(rep, g.origin(first))
                assert owner is class_of(rep, g.origin(last))
                assert first in owner.ray_seeds and last not in owner.ray_seeds
                found += 1
        # 2750 verified classes of the rank-2 maps and 4 of the theta maps.
        assert (found, verified) == (35, 2754)
