import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import endo
from test_words import route_pairs
from nielsenkit import boundary
from nielsenkit.boundary import (
    AttractionVerdict,
    DegenerateRay,
    MorphicRay,
    attraction_check,
    equivalent_under,
)
from nielsenkit.invariants import word_attracting_candidates
from nielsenkit.sampling import random_injective_endos
from nielsenkit.words import (
    IDENTITY,
    Endomorphism,
    Word,
    default_basis,
    extend_reduced,
    fold_words,
    word,
)

b1 = default_basis(1)
b2 = default_basis(2)

jiang = endo(2, "A", "Abb")          # a -> a^-1, b -> a^-1 b^2
conj2 = endo(2, "a", "Bab")          # a1 -> a1, a2 -> a2^-1 a1 a2
square1 = endo(1, "aa")


class Shifted:
    """The ray u.R, read off R's own buffer."""

    def __init__(self, u: Word, ray: MorphicRay):
        self.u, self.ray = u, ray

    def prefix(self, m: int) -> Word:
        return self.ray.prefix(m, pre=self.u)


def same_word(w, v) -> bool:
    """w and v agree on the letters equivalent_under compares."""
    return equivalent_under(w, v, [], square1, 0) is not None


class TestPrefix:
    def test_periodic(self):
        w = MorphicRay(b1.parse("a"), square1)
        assert w.prefix(3) == b1.parse("aaa")

    def test_jiang_ray(self):
        ray = MorphicRay(b2.parse("B"), jiang)
        assert ray.prefix(9) == b2.parse("BBaBBBBaB")
        assert ray.prefix(11) == b2.parse("BBaBBBBaBBa")

    def test_conjugating_ray(self):
        ray = MorphicRay(b2.parse("B"), conj2)
        assert ray.prefix(7) == b2.parse("BAbABab")

    def test_prefix_coherence(self):
        ray = MorphicRay(b2.parse("B"), jiang)
        for m in range(1, 30):
            assert ray.prefix(m).letters == ray.prefix(m + 7).letters[:m]

    def test_stationary_seed_rejected(self):
        with pytest.raises(DegenerateRay):
            MorphicRay(b2.parse("a"), conj2)  # phi(a) = a

    def test_wrong_seed_rejected(self):
        with pytest.raises(DegenerateRay):
            MorphicRay(b2.parse("b"), jiang)  # phi(b) does not start with b

    def test_empty_seed_rejected(self):
        with pytest.raises(DegenerateRay):
            MorphicRay(IDENTITY, jiang)


class TestAgreeLength:
    def test_same(self):
        w = MorphicRay(b1.parse("a"), square1)
        assert same_word(w, w)

    def test_opposite_rays(self):
        w = MorphicRay(b1.parse("a"), square1)
        v = MorphicRay(b1.parse("A"), square1)
        assert not same_word(w, v)

    def test_morphic_structural(self):
        r1 = MorphicRay(b2.parse("B"), jiang)
        r2 = MorphicRay(b2.parse("B"), jiang)
        assert same_word(r1, r2)

    def test_agreement_to_cap_counts_as_equal(self, monkeypatch):
        # a^inf grown by a -> aa and by a -> aaa: equal words, different rays
        w = MorphicRay(b1.parse("a"), square1)
        v = MorphicRay(b1.parse("a"), endo(1, "aaa"))
        assert same_word(w, v)
        # a b b b ... and a b b a ...: equal to cap 3, told apart at cap 4
        w = MorphicRay(b2.parse("a"), endo(2, "ab", "bb"))
        v = MorphicRay(b2.parse("a"), endo(2, "ab", "ba"))
        monkeypatch.setattr(boundary, "EQUIVALENCE_CAP", 3)
        assert same_word(w, v)
        monkeypatch.setattr(boundary, "EQUIVALENCE_CAP", 4)
        assert not same_word(w, v)

    def test_symmetry(self):
        r = MorphicRay(b2.parse("B"), jiang)
        v = MorphicRay(b2.parse("B"), conj2)
        assert same_word(r, v) == same_word(v, r)


class TestLeftMultiply:
    def test_identity(self):
        ray = MorphicRay(b2.parse("B"), conj2)
        assert ray.prefix(12, pre=IDENTITY) == ray.prefix(12)

    def test_cancellation(self):
        w = MorphicRay(b1.parse("a"), square1)
        assert w.prefix(8, pre=b1.parse("A")) == w.prefix(8)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["jiang", "conj2"]),
           st.lists(st.sampled_from([1, -1, 2, -2]), max_size=5).map(word),
           st.lists(st.integers(0, 40), min_size=1, max_size=4))
    @example("conj2", word([1]), [8])
    @example("conj2", word([1, 2]), [5])
    def test_ray_prefix(self, name, u, ms):
        # u.R read off R's buffer is the reduced word u + R's letters
        phi = {"jiang": jiang, "conj2": conj2}[name]
        ray = MorphicRay(b2.parse("B"), phi)
        for m in ms:
            expected = word(u.letters + ray.prefix(m + len(u)).letters).prefix(m)
            assert ray.prefix(m, pre=u) == expected

    def test_ray_deep_cancellation(self):
        ray = MorphicRay(b2.parse("B"), conj2)   # starts B A b ...
        # ab . BAb... : the b cancels B, then a cancels A
        assert ray.prefix(5, pre=b2.parse("ab")) == word(ray.prefix(7).letters[2:])


class TestMembership:
    # A ray lies in the boundary of a subgroup to depth m when its first m
    # letters read through the folded graph from the base.
    def test_stays(self):
        graph = fold_words(2, [b2.parse("a")])
        w = MorphicRay(b2.parse("a"), endo(2, "aa", "b"))
        assert graph.read(w.prefix(32)) is not None

    def test_escapes(self):
        graph = fold_words(2, [b2.parse("a")])
        w = MorphicRay(b2.parse("a"), endo(2, "ab", "ba"))   # a b b a ...
        assert graph.read(w.prefix(1)) is not None
        assert graph.read(w.prefix(2)) is None

    def test_ray_escapes_immediately(self):
        graph = fold_words(2, [b2.parse("a")])
        ray = MorphicRay(b2.parse("B"), conj2)
        assert graph.read(ray.prefix(1)) is None


class TestAttraction:
    def test_square_attracting(self):
        w = MorphicRay(b1.parse("a"), square1)
        assert attraction_check(w, square1).status == "attracting"

    def test_jiang_ray_attracting(self):
        ray = MorphicRay(b2.parse("B"), jiang)
        assert attraction_check(ray, jiang).status == "attracting"

    def test_conjugating_ray_attracting(self):
        ray = MorphicRay(b2.parse("B"), conj2)
        assert attraction_check(ray, conj2).status == "attracting"

    def test_reversed_power_not_fixed(self):
        w = MorphicRay(b1.parse("a"), square1)
        assert attraction_check(w, endo(1, "AA")).status == "not-fixed"

    def test_shifted_ray_not_fixed(self):
        # b.ray is not fixed by a -> a, b -> Bab: b is not a fixed word
        ray = Shifted(b2.parse("b"), MorphicRay(b2.parse("B"), conj2))
        v = attraction_check(ray, conj2)
        assert v.status == "not-fixed" and "cancellation bound" in v.reason

    def test_fixed_shift_still_attracting(self):
        # a is fixed, so a.ray is again a fixed and attracting word
        ray = Shifted(b2.parse("a"), MorphicRay(b2.parse("B"), conj2))
        assert attraction_check(ray, conj2).status == "attracting"

    def test_parabolic_ray_inconclusive(self):
        # a -> ab, b -> b grows a b^k one letter a step, less than B = 2, so
        # no letter is ever certified
        phi = endo(2, "ab", "b")
        v = attraction_check(MorphicRay(b2.parse("a"), phi), phi)
        assert (v.status, v.reason) == ("inconclusive", "ray generation failed")

    def test_non_injective_rejected(self):
        with pytest.raises(ValueError):
            attraction_check(MorphicRay(b1.parse("a"), square1), endo(1, ""))


def reference_attraction_check(w, phi):
    """The eager attraction check: W is asked for all s.n + 1 letters the
    window could read before any is read.  The reference for the lazy
    reads of `attraction_check`."""
    bound = phi.cancellation_bound()
    s = max(1, phi.max_image_length())
    burn_in = 4 * bound + 8
    n = burn_in + 4 * s
    fixed = isinstance(w, MorphicRay) and w.endo == phi
    try:
        ray = w.prefix(s * n + 1).letters
    except DegenerateRay:
        return AttractionVerdict("inconclusive", "ray generation failed")
    img_letters: list[int] = []
    gaps: list[int] = []
    k = 0
    for i in range(1, n + 1):
        before = len(img_letters)
        cancelled = extend_reduced(img_letters, phi.letter_image(ray[i - 1]))
        k = min(k, before - cancelled)
        while k < len(img_letters) and k < len(ray) and img_letters[k] == ray[k]:
            k += 1
        if not fixed and len(img_letters) - k > bound:
            return AttractionVerdict(
                "not-fixed",
                f"|phi(W_i)| - k(i) exceeds the cancellation bound at i={i}")
        if i > burn_in:
            gaps.append(k - i)
    if all(g > bound for g in gaps) and all(
            gaps[j + s] >= gaps[j] + 1 for j in range(len(gaps) - s)):
        return AttractionVerdict("attracting",
                                 "gap clears the cancellation bound and keeps growing")
    return AttractionVerdict("inconclusive",
                             "window shows neither certified growth nor a certificate")


class Truncated:
    """A ray that raises DegenerateRay when asked for more than `limit`
    letters, and records the most it was asked for."""

    def __init__(self, ray, limit: int):
        self.ray, self.limit, self.asked = ray, limit, 0

    def prefix(self, m: int) -> Word:
        self.asked = max(self.asked, m)
        if m > self.limit:
            raise DegenerateRay("truncated")
        return self.ray.prefix(m)


def assert_checks_agree(phi):
    for ray in word_attracting_candidates(phi):
        lazy = attraction_check(ray, phi)
        eager = reference_attraction_check(MorphicRay(ray.seed, phi), phi)
        assert (lazy.status, lazy.reason) == (eager.status, eager.reason), (phi, ray)


class TestLazyAttraction:
    """The check reads ray letters only as far as its window needs them."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_route_pairs_agree_with_eager_check(self, seed):
        for phi, route in route_pairs(seed):
            assert_checks_agree(phi.inner_twist(route))

    def test_rank3_maps_agree_with_eager_check(self):
        for phi in itertools.islice(random_injective_endos(3, 3, seed=1), 300):
            assert_checks_agree(phi)

    def test_slow_ray_is_read_only_as_far_as_needed(self):
        # Routes-r2 instance 26 of seed 1: the twisted map of a -> bab,
        # b -> BA by the route AA.  Its A-ray certifies 18 letters every 4
        # blocks; the eager check asks for s.n + 1 = 533 letters.
        phi = endo(2, "AAbabaa", "AABa")
        ray = MorphicRay(b2.parse("A"), phi)
        v = attraction_check(ray, phi)
        assert v.status == "inconclusive" and "neither" in v.reason
        assert ray._certified <= 160
        eager = MorphicRay(b2.parse("A"), phi)
        assert (reference_attraction_check(eager, phi) == v
                and eager._certified == 533)

    def test_degenerate_past_the_window(self):
        # b.ray is not fixed by conj2, and that is seen within a few
        # letters; a ray that cannot be certified past them keeps that
        # verdict, where the eager check reports failed generation.
        shifted = Shifted(b2.parse("b"), MorphicRay(b2.parse("B"), conj2))
        whole = Truncated(shifted, 10 ** 6)
        v = attraction_check(whole, conj2)
        assert v.status == "not-fixed"
        short = Truncated(shifted, whole.asked)
        assert attraction_check(short, conj2) == v
        assert reference_attraction_check(short, conj2).reason == "ray generation failed"


class TestEquivalence:
    def test_reflexive(self):
        ray = MorphicRay(b2.parse("B"), conj2)
        assert equivalent_under(ray, ray, [], conj2, 3) == IDENTITY

    def test_shifted_ray(self):
        ray = MorphicRay(b2.parse("B"), conj2)
        shifted = Shifted(b2.parse("a"), ray)
        assert equivalent_under(shifted, ray, [b2.parse("a")], conj2, 4) == b2.parse("a")

    def test_rank_one_poles_distinct(self):
        plus = MorphicRay(b1.parse("a"), square1)
        minus = MorphicRay(b1.parse("A"), square1)
        assert equivalent_under(plus, minus, [], square1, 6) is None

    def test_bad_certificate(self):
        ray = MorphicRay(b2.parse("B"), conj2)
        with pytest.raises(ValueError):
            equivalent_under(ray, ray, [b2.parse("b")], conj2, 2)


class TestPushForward:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=5))
    def test_image_matches_prefixes(self, raw):
        # phi(u.R) = phi(u).R for a fixed ray R: the shifted ray agrees with
        # the image of its long prefixes up to the cancellation bound
        ray = MorphicRay(b2.parse("B"), conj2)
        u = word(raw)
        img = Shifted(conj2.apply(u), ray)
        long = conj2.apply(ray.prefix(64, pre=u))
        m = len(long) - conj2.cancellation_bound()
        assert img.prefix(m).letters == long.letters[:m]

    def test_morphic_fixedness_up_to_bound(self):
        ray = MorphicRay(b2.parse("B"), jiang)
        bound = jiang.cancellation_bound()
        for m in range(4, 40, 7):
            p = ray.prefix(m)
            img = jiang.apply(p)
            agree = 0
            for x, y in zip(p.letters, img.letters):
                if x != y:
                    break
                agree += 1
            assert agree >= m - bound


def _iterates(seed: Word, phi: Endomorphism, max_len: int, max_steps: int) -> list:
    """[phi^k(seed)] for k = 0, 1, ... by applying phi to the whole word."""
    out = [seed.letters]
    while len(out[-1]) <= max_len and len(out) <= max_steps:
        out.append(phi.apply(Word(out[-1])).letters)
    return out


class CountingRay(MorphicRay):
    """A MorphicRay that counts the blocks it has begun, after k of which
    its buffer is a prefix of [phi^k(e)], and the scans it rolled back; after
    each block it checks that the scan holds [phi(X)] for the X scanned."""

    blocks = rollbacks = 0

    def _append_block(self) -> None:
        scanned = len(self._undo)
        self.blocks += 1
        super()._append_block()
        self.rollbacks += scanned > self._kept
        x = Word(tuple(self._buf[:len(self._undo)]))
        assert self._img == list(self.endo.apply(x).letters)


REDUCED2 = st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=4).map(
    word).filter(lambda w: not w.is_identity)


class TestExactness:
    # Letters are returned only once no later iterate can change them.

    @pytest.mark.parametrize("images", [("aB", "BB"), ("aB", "ABAB")])
    def test_oscillating_iterates_raise(self, images):
        # a -> aB, b -> BB: the iterates of a are aB, ab, aBBB, abbbbb, ...;
        # a -> aB, b -> ABAB: aB, aaba, ...  Neither settles past the a.
        ray = MorphicRay(b2.parse("a"), endo(2, *images))
        with pytest.raises(DegenerateRay):
            ray.prefix(24)

    def test_parabolic_ray_raises(self):
        # a b b b ... is the limit, but one letter a step never clears B = 2
        ray = MorphicRay(b2.parse("a"), endo(2, "ab", "b"))
        with pytest.raises(DegenerateRay):
            ray.prefix(2)

    def test_unsettled_seed_raises(self):
        # B -> BA under a -> BaBA, b -> ab: the seed itself cancels away
        ray = MorphicRay(b2.parse("B"), endo(2, "BaBA", "ab"))
        with pytest.raises(DegenerateRay):
            ray.prefix(1)

    def test_absorption_needs_certified_letters(self):
        # A.a... would cancel against the seed letter, but under a -> aB,
        # b -> BB no letter of the ray is ever certified
        ray = MorphicRay(b2.parse("a"), endo(2, "aB", "BB"))
        with pytest.raises(DegenerateRay):
            ray.prefix(1, pre=b2.parse("A"))

    def test_non_injective_rejected(self):
        with pytest.raises(DegenerateRay):
            MorphicRay(b2.parse("a"), endo(2, "ab", "ab"))

    def test_scan_rolls_back_to_kept(self):
        # a -> aBAb, b -> BAb: the iterates of a are aBAb, aBabABAb,
        # aaBAbABaab...; the third block keeps one of the two letters the
        # second let the scan read, so the scan is undone to that one.
        ray = CountingRay(b2.parse("a"), endo(2, "aBAb", "BAb"))
        with pytest.raises(DegenerateRay):
            ray.prefix(1)
        assert ray.rollbacks > 0

    def test_growth_is_lazy(self, monkeypatch):
        # Appending every block in full would apply 340 letters and buffer
        # 683 here: the last block is as long as all the others together.
        seen = [0]
        original = Endomorphism.apply

        def apply(phi, w):
            seen[0] += len(w)
            return original(phi, w)

        monkeypatch.setattr(Endomorphism, "apply", apply)
        ray = MorphicRay(b2.parse("B"), jiang)
        seen[0] = 0
        ray.prefix(200)
        assert seen[0] <= 174
        assert len(ray._buf) <= 346

    @settings(max_examples=200, deadline=None)
    @given(REDUCED2, REDUCED2)
    @example(word([1, -2]), word([-2, 1, -2]))   # the rule less B errs here
    def test_certified_letters_are_final(self, im_a, im_b):
        # Every returned prefix is a prefix of [phi^k(e)] for the last three
        # iterates computed by brute force, all beyond the iterate the ray
        # is building, and the buffer is a prefix of that iterate.
        phi = Endomorphism(b2, (im_a, im_b))
        if not phi.is_injective():
            return
        for x in (1, -1, 2, -2):
            img = phi.letter_image(x)
            if len(img) < 2 or img[0] != x:
                continue
            seed = Word((x,))
            ray = CountingRay(seed, phi)
            reference = _iterates(seed, phi, 6000, 300)
            for m in (1, 6, 24, 60):
                try:
                    letters = ray.prefix(m).letters
                except DegenerateRay:
                    break
                assert len(letters) == m
                if ray.blocks + 3 >= len(reference):
                    break           # the brute force does not reach past it
                assert reference[ray.blocks][:len(ray._buf)] == tuple(ray._buf)
                for late in reference[-3:]:
                    assert late[:m] == letters

    @settings(max_examples=200, deadline=None)
    @given(REDUCED2, REDUCED2)
    def test_requests_in_steps_match_one_request(self, im_a, im_b):
        # How far earlier requests grew a ray changes no later answer.
        phi = Endomorphism(b2, (im_a, im_b))
        if not phi.is_injective():
            return
        for x in (1, -1, 2, -2):
            img = phi.letter_image(x)
            if len(img) < 2 or img[0] != x:
                continue
            seed = Word((x,))
            try:
                whole = MorphicRay(seed, phi).prefix(60).letters
            except DegenerateRay:
                whole = None
            stepped = MorphicRay(seed, phi)
            for m in (1, 6, 24, 60):
                try:
                    letters = stepped.prefix(m).letters
                except DegenerateRay:
                    assert whole is None
                    break
                assert whole is not None and letters == whole[:m]
