"""Unit tests for continued fractions and candidate fraction enumeration."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rsacf import expand, keygen_weak, locate_m_prime, rs_bounds, worley_enumerate
from rsacf.attack import approximation_target

rationals = st.fractions(
    min_value=0, max_value=1000, max_denominator=1000
)


def euclid_quotients(num, den):
    """Independent oracle: partial quotients straight from the gcd steps."""
    out = []
    while den:
        out.append(num // den)
        num, den = den, num % den
    return tuple(out)


class TestExpand:
    def test_known_expansion(self):
        cf = expand(Fraction(17, 77))
        assert cf.quotients == (0, 4, 1, 1, 8)
        assert cf.convergents == ((0, 1), (1, 4), (1, 5), (2, 9), (17, 77))

    def test_integer_and_zero(self):
        assert expand(Fraction(5)).quotients == (5,)
        assert expand(Fraction(0)).quotients == (0,)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            expand(Fraction(-1, 2))

    @given(rationals)
    def test_matches_euclid_oracle(self, x):
        cf = expand(x)
        assert cf.quotients == euclid_quotients(x.numerator, x.denominator)

    @given(rationals)
    def test_canonical_form(self, x):
        cf = expand(x)
        if len(cf) > 1:
            assert cf.quotients[-1] >= 2
        assert all(a >= 1 for a in cf.quotients[1:])

    @given(rationals)
    def test_convergent_recurrence_and_value(self, x):
        cf = expand(x)
        assert cf.value() == x
        p1, q1 = 1, 0
        for m, (p, q) in enumerate(cf.convergents):
            expected = (cf.quotients[m] * cf.convergent(m - 1)[0] + p1,
                        cf.quotients[m] * cf.convergent(m - 1)[1] + q1)
            if m > 0:
                assert (p, q) == expected
            p1, q1 = cf.convergent(m - 1)

    @given(rationals)
    def test_convergents_approximate(self, x):
        cf = expand(x)
        # Every non-final convergent is within 1/q^2 of the value.
        for p, q in cf.convergents[:-1]:
            assert abs(x - Fraction(p, q)) < Fraction(1, q * q)

    def test_index_conventions(self):
        cf = expand(Fraction(17, 77))
        assert cf.convergent(-1) == (1, 0)
        assert cf.quotient(2) == 1
        assert cf.quotient(99) == 0
        assert cf.quotient(-3) == 0


class TestWorleyEnumerate:
    def test_toy_key_candidate(self):
        # Secret exponent denominator 5 of the toy key appears as the
        # (m=0, r=1, s=0) combination and satisfies the bound.
        n, e, d = 90581, 17993, 5
        c = Fraction(2122, 1000) * e * d * d / Fraction(n * 301)  # 301 > sqrt(n)
        hits = [cand for cand in worley_enumerate(Fraction(e, n), c)
                if cand.frac == Fraction(1, 5)]
        assert len(hits) == 1
        assert (hits[0].m, hits[0].r, hits[0].s, hits[0].sign) == (0, 1, 0, "+")
        assert hits[0].satisfies

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ValueError):
            worley_enumerate(Fraction(1, 3), 0)

    def test_emitted_pairs_respect_rs_bound(self):
        for c in (0.5, 1, 2, 3):
            for cand in worley_enumerate(Fraction(355, 1130), c):
                assert cand.r * cand.s < 2 * c

    def test_candidates_deduplicated(self):
        cands = worley_enumerate(Fraction(17, 77), 2)
        fracs = [cand.frac for cand in cands]
        assert len(fracs) == len(set(fracs))

    @given(rationals, st.sampled_from((0.5, 1, 2)))
    def test_covers_all_good_approximations(self, x, c):
        # Brute force every p/q with q <= 30 inside the c/q^2 window; each
        # must appear among the satisfying candidates.
        emitted = {cand.frac for cand in worley_enumerate(x, c)
                   if cand.satisfies}
        cf = Fraction(c)
        for q in range(1, 31):
            p_mid = round(x * q)
            for p in range(max(0, p_mid - 2), p_mid + 3):
                frac = Fraction(p, q)
                if abs(x - frac) < cf / frac.denominator**2:
                    assert frac in emitted


class TestLocateMPrime:
    @staticmethod
    def brute_m_prime(ef, bound):
        """Oracle: test the odd convergent indices from the top down, in
        Fraction arithmetic, and return the first that passes."""
        cf = expand(ef)
        top = len(cf) - 1
        if top % 2 == 0:
            top -= 1
        for m in range(top, 0, -2):
            p, q = cf.convergent(m)
            if Fraction(p, q) - ef > bound:
                return m
        return None

    @given(rationals, st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value="1/10000", max_value="1/10"),
        st.fractions(min_value=-10, max_value=10, max_denominator=10**6)))
    def test_matches_bruteforce(self, x, bound):
        cf = expand(x)
        assert locate_m_prime(x, bound, cf) == self.brute_m_prime(x, bound)

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(5), Fraction(7, 2),
                                   Fraction(10, 3), Fraction(1, 3)])
    @pytest.mark.parametrize("bound", [Fraction(-1), Fraction(0), Fraction(1, 100),
                                       Fraction(3, 2)])
    def test_short_expansions(self, x, bound):
        # Expansions of length 1 ([0], [5]) and 2 ([3; 2], [3; 3], [0; 3]).
        assert len(expand(x)) in (1, 2)
        assert locate_m_prime(x, bound) == self.brute_m_prime(x, bound)

    @pytest.mark.parametrize("key_args", [(1024, 4, seed) for seed in range(6)]
                             + [(128, 16, seed) for seed in range(20)])
    def test_matches_bruteforce_on_keys(self, key_args):
        pub, _ = keygen_weak(*key_args)
        for approx in ("plain", "improved"):
            target, bound = approximation_target(pub, approx)
            m_prime = locate_m_prime(target, bound, expand(target))
            assert m_prime == self.brute_m_prime(target, bound)

    def test_none_when_bound_too_large(self):
        assert locate_m_prime(Fraction(17, 77), Fraction(10)) is None


class TestRsBounds:
    def test_rejects_negative_ratio(self):
        with pytest.raises(ValueError):
            rs_bounds(1, 1, 1, -1)

    def test_quotient_mode_scales_with_quotients(self):
        small = rs_bounds(1, 1, 1, 4)
        large = rs_bounds(100, 100, 100, 4)
        assert large[0] > small[0] and large[1] > small[1]
        assert all(v > 0 for v in small)
