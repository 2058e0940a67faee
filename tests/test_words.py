import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compose, endo, identity_endo, map_path
from test_multivertex import theta_collapse, theta_swap
from nielsenkit.graphs import EdgePath, any_route_endo, subdivided_fixed_map
from nielsenkit.invariants import fixed_subgroup_basis
from nielsenkit.io import corpus_files, endo_from_json, graph_map_from_json, rose_map
from nielsenkit import words
from nielsenkit.sampling import random_injective_endos
from nielsenkit.words import (
    IDENTITY,
    BasisMismatch,
    Endomorphism,
    Word,
    common_prefix,
    default_basis,
    fold_words,
    matrix_trace,
    reduce_letters,
    route_equivalent,
    twisted_solutions,
    word,
)

b1 = default_basis(1)
b2 = default_basis(2)
b3 = default_basis(3)

words2 = st.builds(
    lambda raw: word(raw),
    st.lists(st.sampled_from([1, -1, 2, -2]), max_size=64))

short2 = st.builds(
    lambda raw: word(raw),
    st.lists(st.sampled_from([1, -1, 2, -2]), max_size=4))

endos2 = st.builds(lambda u, v: Endomorphism(b2, (u, v)), short2, short2)


def enumerate_words(rank: int, max_len: int):
    """All reduced words of length <= max_len in length-lexicographic order,
    letters ordered 1 < -1 < 2 < -2 < ...; the reference enumeration."""
    order = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    yield IDENTITY
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        nxt: list[tuple[int, ...]] = []
        for stem in frontier:
            for x in order:
                if stem and stem[-1] == -x:
                    continue
                w = stem + (x,)
                nxt.append(w)
                yield Word(w)
        frontier = nxt


class TestReduce:
    def test_cancellation(self):
        assert b2.parse("aAb") == b2.parse("b")

    def test_empty(self):
        assert b2.parse("") == IDENTITY

    def test_full_collapse(self):
        assert b2.parse("AbbBBa") == IDENTITY

    def test_unknown_generator(self):
        with pytest.raises(Exception):
            b2.parse("xyz")

    @given(words2)
    def test_idempotent_and_inverse(self, w):
        assert word(w.letters) == w
        assert (w * w.inverse()) == IDENTITY
        assert len(w * w.inverse()) == 0


class TestCommonPrefix:
    def test_basic(self):
        assert common_prefix(b2.parse("ab"), b2.parse("ab")) == b2.parse("ab")
        assert common_prefix(b3.parse("abc"), b3.parse("abb")) == b3.parse("ab")

    def test_opposite(self):
        assert common_prefix(b2.parse("a"), b2.parse("A")) == IDENTITY


class TestApply:
    def test_jiang_map(self):
        # a -> a^-1, b -> a^-1 b^2
        phi = endo(2, "A", "Abb")
        assert phi.apply(b2.parse("B")) == b2.parse("BBa")
        assert phi.apply(phi.apply(b2.parse("B"))) == b2.parse("BBaBB")

    def test_identity(self):
        phi = identity_endo(b2)
        w = b2.parse("abAB")
        assert phi.apply(w) == w

    @given(words2, words2)
    def test_functorial(self, u, v):
        phi = endo(2, "ab", "B")
        assert phi.apply(u * v) == phi.apply(u) * phi.apply(v)

    @settings(max_examples=40)
    @given(endos2, endos2, words2)
    def test_respects_composition(self, phi, psi, w):
        assert compose(phi, psi).apply(w) == phi.apply(psi.apply(w))

    @given(endos2, words2, words2)
    def test_table_kernel(self, phi, u, v):
        # the image of a word is the free reduction of its letter images
        images = {}
        for i, im in enumerate(phi.images, start=1):
            images[i], images[-i] = im.letters, im.inverse().letters
        raw = itertools.chain.from_iterable(images[x] for x in u.letters)
        assert phi.apply(u) == Word(reduce_letters(raw))
        assert phi.apply(u * v) == phi.apply(u) * phi.apply(v)

    @given(endos2, words2, st.integers(min_value=0, max_value=64),
           st.sampled_from([0, 3, -3, 7]))
    def test_out_of_basis(self, phi, w, at, bad):
        letters = w.letters[:at] + (bad,) + w.letters[at:]
        with pytest.raises(BasisMismatch):
            phi.apply(Word(letters))
        with pytest.raises(BasisMismatch):
            phi.letter_image(bad)


class TestComposeAndTwist:
    def test_identity_twist(self):
        phi = endo(2, "b", "A")
        assert phi.inner_twist(IDENTITY) == phi

    def test_twist_definition(self):
        tw = identity_endo(b2).inner_twist(b2.parse("a"))
        assert tw.apply(b2.parse("b")) == b2.parse("abA")

    def test_twist_compose_identity(self):
        # (i_a o phi) o i_c == i_{a phi(c)} o phi on generators
        phi = endo(2, "a", "Bab")
        a, c = b2.parse("a"), b2.parse("a")
        lhs = compose(phi.inner_twist(a), identity_endo(b2).inner_twist(c))
        rhs = phi.inner_twist(a * phi.apply(c))
        assert lhs == rhs


def injective_oracle(phi, max_len=5) -> bool:
    """Distinct images of all short words: a no-collision certificate at this
    scale (non-injective maps of this size show collisions early)."""
    seen = {}
    for w in enumerate_words(phi.rank, max_len):
        img = phi.apply(w).letters
        if img in seen:
            return False
        seen[img] = w
    return True


class TestInjectivity:
    @pytest.mark.parametrize("k,expect", [(-2, True), (-1, True), (1, True),
                                          (2, True), (3, True)])
    def test_rank_one_powers(self, k, expect):
        phi = endo(1, "a" * k if k > 0 else "A" * (-k))
        assert phi.is_injective() is expect

    def test_rank_one_trivial(self):
        assert endo(1, "").is_injective() is False

    def test_conjugating_endo(self):
        assert endo(2, "a", "Bab").is_injective() is True

    def test_rank_drop(self):
        assert endo(2, "a", "a").is_injective() is False

    def test_folded_graph_rank(self):
        phi = endo(2, "a", "Bab")
        assert phi.folded_image().subgroup_rank() == 2

    @settings(max_examples=60, deadline=None)
    @given(st.builds(
        lambda u, v: Endomorphism(b2, (u, v)),
        st.builds(lambda raw: word(raw),
                  st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=3)),
        st.builds(lambda raw: word(raw),
                  st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=3))))
    def test_against_brute_oracle(self, phi):
        assert phi.is_injective() == injective_oracle(phi)


class TestAbelianization:
    def test_identity_trace(self):
        assert matrix_trace(identity_endo(b3).abelianization()) == 3

    def test_jiang_trace(self):
        assert matrix_trace(endo(2, "A", "Abb").abelianization()) == 1

    def test_rotation_trace(self):
        assert matrix_trace(endo(2, "b", "A").abelianization()) == 0

    @settings(max_examples=40)
    @given(endos2, endos2)
    def test_multiplicative(self, phi, psi):
        lhs = compose(phi, psi).abelianization()
        rhs = matrix_multiply(phi.abelianization(), psi.abelianization())
        assert lhs == rhs


def matrix_multiply(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def observed_cancellation(phi, max_len: int) -> int:
    """Largest cancellation seen in phi(W)phi(V) over reduced products W.V with
    |W|, |V| <= max_len."""
    worst = 0
    words = list(enumerate_words(phi.rank, max_len))
    for w, v in itertools.product(words, words):
        if w.is_identity or v.is_identity:
            continue
        if w.letters[-1] == -v.letters[0]:
            continue
        fw, fv = phi.apply(w), phi.apply(v)
        c = (len(fw) + len(fv) - len(fw * fv)) // 2
        worst = max(worst, c)
    return worst


def observed_graph_cancellation(f, max_len: int) -> int:
    """Largest cancellation seen between [f(P)] and [f(Q)] over tight paths
    P.Q with |P|, |Q| <= max_len."""
    g = f.graph
    starting: dict[str, list] = {v: [] for v in g.vertices}
    level = [(d,) for d in g.darts()]
    for _ in range(max_len):
        for p in level:
            starting[g.origin(p[0])].append(p)
        level = [p + (d,) for p in level for d in g.darts_at(g.terminus(p[-1]))
                 if d != p[-1].rev]
    worst = 0
    for qs in starting.values():
        images = [map_path(f, EdgePath(q)).darts for q in qs]
        for p, fp in zip(qs, images):
            # p read backwards ends where every q starts; its image is fp reversed
            for q, fq in zip(qs, images):
                if p[0] == q[0]:
                    continue
                n = 0
                while n < len(fp) and n < len(fq) and fp[n] == fq[n]:
                    n += 1
                worst = max(worst, n)
    return worst


def cancellation_holds(phi, bound, max_len) -> bool:
    words = list(enumerate_words(phi.rank, max_len))
    for w, v in itertools.product(words, words):
        if w.is_identity or v.is_identity or w.letters[-1] == -v.letters[0]:
            continue
        fw, fv = phi.apply(w), phi.apply(v)
        if len(fw * fv) < len(fw) + len(fv) - 2 * bound:
            return False
    return True


class TestCancellationBound:
    def test_identity_bound_valid(self):
        phi = identity_endo(b2)
        assert cancellation_holds(phi, 0, 3)
        assert cancellation_holds(phi, phi.cancellation_bound(), 3)

    def test_square_bound_valid(self):
        phi = endo(1, "aa")
        assert cancellation_holds(phi, 0, 4)
        assert cancellation_holds(phi, phi.cancellation_bound(), 4)

    def test_conjugating_endo_value(self):
        phi = endo(2, "a", "Bab")
        assert phi.cancellation_bound() == 3
        assert cancellation_holds(phi, 3, 4)

    def test_exhaustive_rank2(self):
        # exhaustive over all reduced cancellation-free pairs at small length
        for phi in [endo(2, "ab", "B"), endo(2, "A", "Abb"), endo(2, "bab", "a")]:
            if not phi.is_injective():
                continue
            assert cancellation_holds(phi, phi.cancellation_bound(), 3)

    @settings(max_examples=25, deadline=None)
    @given(endos2)
    def test_random(self, phi):
        if not phi.is_injective():
            return
        assert cancellation_holds(phi, phi.cancellation_bound(), 3)

    def test_observed_never_exceeds_bound(self):
        for phi in [endo(2, "ab", "B"), endo(2, "A", "Abb"), endo(2, "a", "Bab")]:
            assert observed_cancellation(phi, 3) <= phi.cancellation_bound()

    @pytest.mark.parametrize("rank, length", [(1, 4), (2, 4), (3, 3)])
    def test_fold_count_is_the_rose_bound(self, rank, length):
        for phi in itertools.islice(random_injective_endos(rank, length, seed=1), 40):
            assert phi.fold_count() == rose_map(phi).cancellation_bound()

    def test_fold_count_values(self):
        # a -> aa is an immersion; a -> a, b -> Bab folds its two b-edges
        # into the base once, and one letter does cancel: a.Bab.
        assert endo(1, "aa").fold_count() == 0
        phi = endo(2, "a", "Bab")
        assert phi.fold_count() == 1
        assert observed_cancellation(phi, 3) == 1

    def test_fold_count_bounds_cancellation(self):
        for phi in [endo(2, "ab", "B"), endo(2, "A", "Abb"), endo(2, "bab", "a"),
                    endo(2, "AAbabaa", "AABa")]:
            assert cancellation_holds(phi, phi.fold_count(), 3)
            assert observed_cancellation(phi, 3) <= phi.fold_count()

    @settings(max_examples=25, deadline=None)
    @given(endos2)
    def test_fold_count_random(self, phi):
        if not phi.is_injective():
            return
        assert cancellation_holds(phi, phi.fold_count(), 3)

    def test_fold_count_rejects_non_injective(self):
        with pytest.raises(ValueError, match="non-injective"):
            endo(2, "a", "a").fold_count()

    def test_images_fold_once(self, monkeypatch):
        # is_injective and fold_count share one fold, also across equal maps.
        folds = [0]
        original = words.fold_words

        def counting(rank, gens):
            folds[0] += 1
            return original(rank, gens)

        monkeypatch.setattr(words, "fold_words", counting)
        words._fold_summary.cache_clear()
        phi = endo(2, "AAbabaa", "AABa")
        assert phi.is_injective() and phi.fold_count() == 9
        assert endo(2, "AAbabaa", "AABa").fold_count() == 9
        assert folds[0] == 1


class TestGraphCancellationBound:
    def test_rose_maps_within_endomorphism_bound(self):
        # The fold count is at most V(G') - 1, one less than the word-level
        # bound sum |phi(x)| - rank + 1.
        for rank, length in ((1, 4), (2, 4), (3, 3)):
            gen = random_injective_endos(rank, length, seed=1)
            for phi in itertools.islice(gen, 40):
                assert rose_map(phi).cancellation_bound() <= phi.cancellation_bound()

    def test_fold_counts(self):
        # a -> aa subdivides into an immersion: nothing folds.
        assert rose_map(endo(1, "aa")).cancellation_bound() == 0
        assert endo(1, "aa").cancellation_bound() == 2
        # theta_collapse folds once, and one dart does cancel (below).
        assert theta_collapse().cancellation_bound() == 1

    @pytest.mark.parametrize("rank, length, max_len, count",
                             [(2, 4, 4, 40), (2, 6, 3, 40), (3, 3, 3, 20)])
    def test_subdivided_seeded_maps(self, rank, length, max_len, count):
        checked = 0
        for phi in random_injective_endos(rank, length, seed=1):
            f = rose_map(phi)
            if f.is_identity():
                continue
            g, points = subdivided_fixed_map(f)
            assert observed_graph_cancellation(g, max_len) <= g.cancellation_bound()
            checked += bool(points)
            if checked == count:
                break

    def test_multivertex_maps(self):
        for f in (theta_swap(), theta_collapse()):
            assert observed_graph_cancellation(f, 4) <= f.cancellation_bound()
        # p.q- maps to (p r-).(r q-): one dart cancels
        assert observed_graph_cancellation(theta_collapse(), 4) == 1


def reference_solutions(phi, left, right, depth):
    """Unpruned: every u with |u| <= depth and left.phi(u) = u.right."""
    return [u for u in enumerate_words(phi.rank, depth)
            if left * phi.apply(u) == u * right]


def reference_route_search(phi, route, depth):
    """One unpruned enumeration for a (map, route) pair: the words fixed by
    i_route o phi, and the u with u.route.phi(u)^-1 = 1 (phi(u) = u.route),
    each in `enumerate_words` order."""
    twisted = phi.inner_twist(route)
    fixed, moves = [], []
    for u in enumerate_words(phi.rank, depth):
        if twisted.apply(u) == u:
            fixed.append(u)
        if phi.apply(u) == u * route:
            moves.append(u)
    return fixed, moves


def greedy_basis(rank, fixed_words):
    """The greedy independent set `fixed_subgroup_basis` takes, over a list
    of fixed words."""
    gens = []
    graph = fold_words(rank, gens)
    for w in fixed_words:
        if w.is_identity or (gens and graph.accepts(w)):
            continue
        gens.append(w)
        graph = fold_words(rank, gens)
    return gens


def route_pairs(seed, count=440):
    """Rank-2 maps with images of length <= 4, each with a route cycling
    through the identity, a letter and a reduced two-letter word."""
    gen = random_injective_endos(2, 4, seed)
    rng = random.Random(f"routes-{seed}")
    pairs = []
    for k in range(count):
        phi = next(gen)
        route = []
        while len(route) < k % 3:
            x = rng.choice([1, -1, 2, -2])
            if not route or x != -route[-1]:
                route.append(x)
        pairs.append((phi, Word(tuple(route))))
    return pairs


def corpus_endos():
    """The endomorphism of every corpus rose, at its one vertex."""
    out = []
    for _, data in sorted(corpus_files().items()):
        if "images" in data:
            out.append(endo_from_json(data))
        else:
            f, _ = graph_map_from_json(data)
            out.append(any_route_endo(f, "*"))
    return out


def assert_search_exact(phi, route, depth):
    fixed, moves = reference_route_search(phi, route, depth)
    twisted = phi.inner_twist(route)
    assert list(twisted_solutions(twisted, IDENTITY, IDENTITY, depth)) == fixed
    assert fixed_subgroup_basis(twisted, depth) == greedy_basis(phi.rank, fixed)
    assert list(twisted_solutions(phi, IDENTITY, route, depth)) == moves
    r = route_equivalent(route, IDENTITY, phi, depth)
    assert (r.found, r.witness) == (bool(moves), moves[0] if moves else None)


class TestTwistedSearchExact:
    """The pruned search against the unpruned reference enumeration."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_route_pairs(self, seed):
        for phi, route in route_pairs(seed):
            assert_search_exact(phi, route, 6)

    def test_corpus_roses(self):
        for phi in corpus_endos():
            letters = [x for i in range(1, phi.rank + 1) for x in (i, -i)]
            routes = [IDENTITY] + [Word((x,)) for x in letters]
            if phi.rank <= 2:
                routes += [Word((x, y)) for x in letters for y in letters if x != -y]
            for route in routes:
                assert_search_exact(phi, route, 6 if phi.rank <= 2 else 5)

    @settings(max_examples=150, deadline=None)
    @given(endos2.filter(Endomorphism.is_injective), short2, short2)
    def test_any_sides(self, phi, left, right):
        assert (list(twisted_solutions(phi, left, right, 4))
                == reference_solutions(phi, left, right, 4))

    def test_non_injective_map_is_rejected(self):
        # a -> a, b -> a has no cancellation bound, which the cuts need.
        with pytest.raises(ValueError, match="non-injective"):
            next(twisted_solutions(endo(2, "a", "a"), IDENTITY, IDENTITY, 4))

    def test_left_and_right_on_injective_maps(self):
        rng = random.Random(7)
        gen = random_injective_endos(2, 4, 3)
        for _ in range(150):
            phi = next(gen)
            left, right = (word(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 3)))
                           for _ in range(2))
            assert (list(twisted_solutions(phi, left, right, 5))
                    == reference_solutions(phi, left, right, 5))

    def test_left_side_shifts_the_settled_prefix(self):
        # a.phi(u) = u for a -> aa, b -> b: u = A.v with v fixed.  Without
        # the left side in the settled prefix, AAbbb would cut u = Abbb.
        phi = endo(2, "aa", "b")
        found = list(twisted_solutions(phi, b2.parse("a"), IDENTITY, 4))
        assert found == [b2.parse(u) for u in ("A", "Ab", "AB", "Abb", "ABB", "Abbb", "ABBB")]
        assert found == reference_solutions(phi, b2.parse("a"), IDENTITY, 4)

    @pytest.mark.parametrize("images,left,right,solutions", [
        # phi(bab) = BA = [bab.BABBA]: right cancels into u, so u's last
        # |right| letters are not settled
        (("Ab", "B"), "", "BABBA", ["bab"]),
        # a.phi(abab) = ababbab = abab.bab is longer than the depth
        (("ba", "b"), "a", "bab", ["abab"]),
    ])
    def test_right_side_widens_the_cut(self, images, left, right, solutions):
        phi = endo(2, *images)
        left, right = b2.parse(left), b2.parse(right)
        found = list(twisted_solutions(phi, left, right, 4))
        assert found == [b2.parse(u) for u in solutions]
        assert found == reference_solutions(phi, left, right, 4)


class TestRouteEquivalent:
    def test_reflexive(self):
        phi = endo(2, "a", "Bab")
        r = route_equivalent(b2.parse("ab"), b2.parse("ab"), phi, 2)
        assert r.found and r.witness == IDENTITY

    def test_plain_conjugacy(self):
        r = route_equivalent(b2.parse("a"), b2.parse("baB"), identity_endo(b2), 3)
        assert r.found and r.witness == b2.parse("b")

    def test_rotation_route_empty(self):
        # route "a" of the quarter rotation never reaches the constant route
        phi = endo(2, "b", "A")
        r = route_equivalent(b2.parse("a"), IDENTITY, phi, 8)
        assert not r.found

    def test_negative_depth(self):
        with pytest.raises(ValueError):
            route_equivalent(IDENTITY, IDENTITY, identity_endo(b2), -1)


class TestFolding:
    def test_membership(self):
        g = fold_words(2, [b2.parse("a"), b2.parse("bab")])
        assert g.accepts(b2.parse("a"))
        assert g.accepts(b2.parse("babbabA"))
        assert not g.accepts(b2.parse("b"))

    def test_empty_subgroup(self):
        g = fold_words(2, [])
        assert g.subgroup_rank() == 0
        assert g.accepts(IDENTITY)
        assert not g.accepts(b2.parse("a"))
