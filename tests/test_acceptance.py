"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Run with `pytest tests/test_acceptance.py -v -s` for one line per criterion.
"""

import math

import pytest

from conftest import class_of, h1_trace, reverse_codes
from nielsenkit.invariants import (
    AnalysisError,
    analyze,
    analyze_endomorphism,
    analyze_route,
    attracting_rays,
)
from nielsenkit.io import load_instance
from nielsenkit.rtt import (
    nielsen_partition_oracle,
    nielsen_paths_brute,
    pf_metric,
)
from nielsenkit.sampling import random_injective_endos, run_survey
from nielsenkit.words import (
    Endomorphism,
    IDENTITY,
    default_basis,
)

SEED = 20240917


def report_of(corpus_dir, name):
    f, _ = load_instance(corpus_dir / name)
    return analyze(f)


def ok(n, msg):
    print(f"criterion {n}: PASS - {msg}")


class TestAcceptance:
    def test_criterion_01_rank_one_table(self, corpus_dir):
        expected = {-3: (0, 0), -2: (0, 0), -1: (0, 0),
                    1: (1, 0), 2: (0, 2), 3: (0, 2)}
        for k, (rk, a) in expected.items():
            rep = report_of(corpus_dir, f"rank1_k{k}.json")
            for c in rep.classes:
                assert (c.rank, c.attract) == (rk, a), (k, c)
        b1 = default_basis(1)
        with pytest.raises(AnalysisError):
            analyze_endomorphism(Endomorphism(b1, (IDENTITY,)))
        ok(1, "rank-1 (rk, a) table exact for k in {-3..3}, k=0 rejected")

    def test_criterion_02_circle_maps(self, corpus_dir):
        for k in range(-5, 6):
            if k == 0:
                continue
            rep = report_of(corpus_dir, f"circle_k{k}.json")
            sign = (1 - k > 0) - (1 - k < 0)
            for c in rep.classes:
                assert c.index == sign, (k, c)
                assert c.index == c.improved_char, (k, c)
        ok(2, "every circle class has ind = sgn(1-k) = 1 - rk - a")

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_criterion_03_doubling_roses(self, corpus_dir, n):
        rep = report_of(corpus_dir, f"ex6_1_n{n}.json")
        assert len(rep.classes) == 1
        c = rep.classes[0]
        assert c.delta == 2 * n
        assert (c.rank, c.attract) == (0, 2 * n)
        assert c.index == c.improved_char == 1 - 2 * n
        rays = attracting_rays(rep.map, c)
        assert len(rays) == 2 * n
        prefixes = sorted(tuple(r.prefix(6).letters) for r in rays)
        assert prefixes == sorted(
            [(i,) * 6 for i in range(1, n + 1)] + [(-i,) * 6 for i in range(1, n + 1)])
        ok(3, f"n={n}: single class, delta=rk+a={2*n}, ind=ichr={1-2*n}, "
              f"{2*n} power rays")

    def test_criterion_04_conjugating_rose(self, corpus_dir):
        rep = report_of(corpus_dir, "ex6_2.json")
        star = class_of(rep, "*")
        assert (star.index, star.rank, star.attract, star.improved_char) == (-1, 1, 1, -1)
        rays = attracting_rays(rep.map, star)
        assert len(rays) == 1
        assert rays[0].prefix(7).letters == (-2, -1, 2, -1, -2, 1, 2)
        assert rep.verdicts["rank_attract_sum_bound"] == "pass"
        assert "= 1/2 <= -chi = 1" in rep.verdict_details["rank_attract_sum_bound"]
        ok(4, "base class (-1, 1, 1, -1); ray starts a2- a1- a2 a1- a2- a1 a2; "
              "sum bound instantiates to 1/2 <= 1")

    def test_criterion_05_rotation_rose(self, corpus_dir):
        rep = report_of(corpus_dir, "ex6_3.json")
        assert [c.members for c in rep.classes] == [("*",)]
        assert rep.classes[0].index == 1
        assert rep.lefschetz == 1 == sum(c.index for c in rep.classes)
        f, _ = load_instance(corpus_dir / "ex6_3.json")
        from nielsenkit.graphs import any_route_endo

        phi = any_route_endo(f, "*")
        route = analyze_route(phi, phi.basis.parse("a"), 8)
        assert route.rank_found == 1
        assert route.generators == [phi.basis.parse("abAB")]
        for g in route.generators:
            assert phi.inner_twist(phi.basis.parse("a")).apply(g) == g
        assert route.attract_found == 0
        assert route.improved_char == 0
        assert route.probably_empty and route.search_depth == 8
        ok(5, "class {*} ind 1 = Lefschetz; route a: rk 1 (gen abAB), a 0, "
              "ichr 0, no constant witness to depth 8")

    def test_criterion_06_jiang_rose(self, corpus_dir):
        rep = report_of(corpus_dir, "ex6_4.json")
        assert len(rep.subdivided_at) == 2  # automatic subdivision happened
        assert sorted(c.index for c in rep.classes) == [0, 0]
        assert len(rep.classes) == 2
        assert rep.lefschetz == 0
        star = class_of(rep, "*")
        assert (star.rank, star.attract) == (0, 1)
        rays = attracting_rays(rep.map, star)
        assert len(rays) == 1
        expected11 = (-2, -2, 1, -2, -2, -2, -2, 1, -2, -2, 1)  # b-2 a b-4 a b-2 a
        assert rays[0].prefix(11).letters == expected11
        assert rays[0].prefix(12).letters[:11] == expected11
        other = next(c for c in rep.classes if c is not star)
        assert other.index == 0
        ok(6, "two classes of index 0 after subdivision; base class rk 0, a 1 "
              "with ray prefix b-2 a b-4 a b-2 a")

    def test_criterion_07_property_survey(self):
        stats = run_survey(500, rank=2, max_image_len=4, seed=SEED)
        assert stats.violations == [], stats.violations[:5]
        assert (stats.analyzed, stats.skipped_unclassified,
                stats.verified_classes) == (471, 29, 542)
        assert stats.skip_rate < 0.5, stats.skip_rate
        ok(7, f"{stats.analyzed}/500 instances analyzed "
              f"(skip rate {stats.skip_rate:.1%}), zero violations; "
              f"ind = 1-rk-a checked on {stats.verified_classes} verified classes")

    def test_criterion_08_oracle_equivalence(self, corpus_dir):
        checked_partitions = checked_inps = 0
        for path in sorted(corpus_dir.glob("*.json")):
            rep = report_of(corpus_dir, path.name)
            g = rep.map
            ours = sorted((frozenset(c.members) for c in rep.classes), key=sorted)
            oracle = nielsen_partition_oracle(g, 8)
            assert ours == oracle, (path.name, ours, oracle)
            checked_partitions += 1
            if rep.filtration is None:
                continue
            for info in rep.strata:
                if info.stype not in ("type2", "type3"):
                    continue
                level = rep.filtration.level_edges(info.index + 1)
                brute = nielsen_paths_brute(g, 6, within=level, crossing=info.edges)
                if info.inp_status == "found":
                    assert any(p == info.paths[0] or p == reverse_codes(info.paths[0])
                               for p in brute), (path.name, info.edges)
                else:
                    assert brute == [], (path.name, info.edges,
                                         [str(p) for p in brute])
                checked_inps += 1
        ok(8, f"partitions match brute force on {checked_partitions} instances; "
              f"crossing-path searches match on {checked_inps} strata")

    def test_criterion_09_trace_criterion(self):
        gen = random_injective_endos(2, 4, seed=SEED + 1)
        below = above = 0
        below_ok = above_ok = 0
        below_unverified = above_unverified = 0
        while below < 100 or above < 100:
            phi = next(gen)
            tr = h1_trace(phi)
            if tr < 1 and below < 100:
                below += 1
                try:
                    rep = analyze_endomorphism(phi)
                except Exception:
                    below_unverified += 1
                    continue
                if any(c.rank is None for c in rep.classes):
                    below_unverified += 1
                elif any(c.rank == 0 and c.attract == 0 for c in rep.classes):
                    below_ok += 1
            elif tr > 1 and above < 100:
                above += 1
                try:
                    rep = analyze_endomorphism(phi)
                except Exception:
                    above_unverified += 1
                    continue
                if any(c.rank is None for c in rep.classes):
                    above_unverified += 1
                elif any(c.rank + c.attract > 1 for c in rep.classes):
                    above_ok += 1
        assert below_ok + below_unverified == 100, (below_ok, below_unverified)
        assert above_ok + above_unverified == 100, (above_ok, above_unverified)
        ok(9, f"trace < 1: {below_ok} witnesses rk=a=0 "
              f"({below_unverified} unverified, reported); trace > 1: "
              f"{above_ok} witnesses rk+a>1 ({above_unverified} unverified)")

    def test_criterion_10_pf_numerics(self, corpus_dir):
        golden = pf_metric([[1, 1], [1, 0]])
        assert abs(golden.lam - (1 + math.sqrt(5)) / 2) <= 1e-9
        strata = 0
        for path in sorted(corpus_dir.glob("*.json")):
            rep = report_of(corpus_dir, path.name)
            for info in rep.strata:
                if info.expansion is not None:
                    assert info.expansion.residual <= 1e-9, (path.name, info.edges)
                    strata += 1
        ok(10, f"residual <= 1e-9 on {strata} expanding corpus strata; "
               f"golden ratio within 1e-9")
