import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import endo
from nielsenkit.boundary import (
    DegenerateRay,
    MorphicRay,
    attraction_check,
    equivalent_under,
    left_multiply,
    rays_equal,
)
from nielsenkit.words import IDENTITY, Endomorphism, Word, default_basis, fold_words, word

b1 = default_basis(1)
b2 = default_basis(2)

jiang = endo(2, "A", "Abb")          # a -> a^-1, b -> a^-1 b^2
conj2 = endo(2, "a", "Bab")          # a1 -> a1, a2 -> a2^-1 a1 a2
square1 = endo(1, "aa")


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
        assert rays_equal(w, w, 10)

    def test_opposite_rays(self):
        w = MorphicRay(b1.parse("a"), square1)
        v = MorphicRay(b1.parse("A"), square1)
        assert not rays_equal(w, v, 10)

    def test_exact_decision_beats_cap(self):
        # shifting there and back is structurally the same ray
        ray = MorphicRay(b2.parse("B"), conj2)
        back = left_multiply(b2.parse("A"), left_multiply(b2.parse("a"), ray))
        assert rays_equal(back, ray, 1)
        # structural equality decides without growing a ray that cannot be
        # certified: a -> ab, b -> b never certifies a letter
        parabolic = MorphicRay(b2.parse("a"), endo(2, "ab", "b"))
        assert rays_equal(parabolic, parabolic, 10)

    def test_morphic_structural(self):
        r1 = MorphicRay(b2.parse("B"), jiang)
        r2 = MorphicRay(b2.parse("B"), jiang)
        assert rays_equal(r1, r2, 5)

    def test_agreement_to_cap_counts_as_equal(self):
        # a^inf grown by a -> aa and by a -> aaa: equal words, different rays
        w = MorphicRay(b1.parse("a"), square1)
        v = MorphicRay(b1.parse("a"), endo(1, "aaa"))
        assert rays_equal(w, v, 1) and rays_equal(w, v, 50)
        # a b b b ... and a b b a ...: equal to cap 3, told apart at cap 4
        w = MorphicRay(b2.parse("a"), endo(2, "ab", "bb"))
        v = MorphicRay(b2.parse("a"), endo(2, "ab", "ba"))
        assert rays_equal(w, v, 3)
        assert not rays_equal(w, v, 4)

    def test_symmetry(self):
        r = MorphicRay(b2.parse("B"), jiang)
        v = MorphicRay(b2.parse("B"), conj2)
        assert rays_equal(r, v, 40) == rays_equal(v, r, 40)

    def test_cap_must_be_positive(self):
        w = MorphicRay(b1.parse("a"), square1)
        with pytest.raises(ValueError):
            rays_equal(w, w, 0)


class TestLeftMultiply:
    def test_identity(self):
        ray = MorphicRay(b2.parse("B"), conj2)
        assert left_multiply(IDENTITY, ray).prefix(12) == ray.prefix(12)

    def test_cancellation(self):
        w = MorphicRay(b1.parse("a"), square1)
        assert left_multiply(b1.parse("A"), w).prefix(8) == w.prefix(8)

    def test_ray_prefix(self):
        ray = MorphicRay(b2.parse("B"), conj2)
        shifted = left_multiply(b2.parse("a"), ray)
        assert shifted.prefix(8) == b2.parse("a") * ray.prefix(7)

    def test_ray_deep_cancellation(self):
        ray = MorphicRay(b2.parse("B"), conj2)   # starts B A b ...
        # ab . BAb... : the b cancels B, then a cancels A
        shifted = left_multiply(b2.parse("ab"), ray)
        assert shifted.prefix(5) == word(ray.prefix(7).letters[2:])


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
        ray = left_multiply(b2.parse("b"), MorphicRay(b2.parse("B"), conj2))
        v = attraction_check(ray, conj2)
        assert v.status == "not-fixed" and "cancellation bound" in v.reason

    def test_fixed_shift_still_attracting(self):
        # a is fixed, so a.ray is again a fixed and attracting word
        ray = left_multiply(b2.parse("a"), MorphicRay(b2.parse("B"), conj2))
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


class TestEquivalence:
    def test_reflexive(self):
        ray = MorphicRay(b2.parse("B"), conj2)
        res = equivalent_under(ray, ray, [], conj2, 3)
        assert res.found and res.witness == IDENTITY

    def test_shifted_ray(self):
        ray = MorphicRay(b2.parse("B"), conj2)
        shifted = left_multiply(b2.parse("a"), ray)
        res = equivalent_under(shifted, ray, [b2.parse("a")], conj2, 4)
        assert res.found and res.witness == b2.parse("a")

    def test_rank_one_poles_distinct(self):
        plus = MorphicRay(b1.parse("a"), square1)
        minus = MorphicRay(b1.parse("A"), square1)
        res = equivalent_under(plus, minus, [], square1, 6)
        assert not res.found

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
        img = left_multiply(conj2.apply(u), ray)
        long = conj2.apply(left_multiply(u, ray).prefix(64))
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
            left_multiply(b2.parse("A"), ray)

    def test_non_injective_rejected(self):
        with pytest.raises(DegenerateRay):
            MorphicRay(b2.parse("a"), endo(2, "ab", "ab"))

    def test_growth_is_lazy(self, monkeypatch):
        seen = [0]
        original = Endomorphism.apply

        def apply(phi, w):
            seen[0] += len(w)
            return original(phi, w)

        monkeypatch.setattr(Endomorphism, "apply", apply)
        ray = MorphicRay(b2.parse("B"), jiang)
        seen[0] = 0
        ray.prefix(200)
        assert seen[0] < 2 * 200

    @settings(max_examples=200, deadline=None)
    @given(REDUCED2, REDUCED2)
    @example(word([1, -2]), word([-2, 1, -2]))   # the rule less B errs here
    def test_certified_letters_are_final(self, im_a, im_b):
        # Every returned prefix is a prefix of [phi^k(e)] for the last three
        # iterates computed by brute force, all beyond the ray's own buffer.
        phi = Endomorphism(b2, (im_a, im_b))
        if not phi.is_injective():
            return
        for x in (1, -1, 2, -2):
            img = phi.letter_image(x)
            if len(img) < 2 or img[0] != x:
                continue
            seed = Word((x,))
            ray = MorphicRay(seed, phi)
            reference = _iterates(seed, phi, 6000, 300)
            for m in (1, 6, 24, 60):
                try:
                    letters = ray.ray_letters(m)
                except DegenerateRay:
                    break
                assert len(letters) == m
                buffer = tuple(ray._buf)
                if buffer not in reference[:-3]:
                    break           # the brute force does not reach past it
                for late in reference[-3:]:
                    assert late[:m] == letters
