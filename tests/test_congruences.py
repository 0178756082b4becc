import random
import sys
import threading
from fractions import Fraction
from itertools import zip_longest
from math import comb, gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eulermod import congruences, special
from eulermod.congruences import (
    QAdicContext,
    adams_thangadurai_valuation,
    alternating_power_sum,
    bernoulli_poly_congruence_route,
    check_bernoulli_poly_congruence,
    check_euler_mod_odd,
    check_euler_mod_two_power,
    check_euler_poly_congruence,
    check_power_sum_divisibility,
    cleared_coefficient_valuation,
    congruent_mod,
    euler_mod_2n,
    is_q_integer,
    kummer_check,
    poly_congruent_mod,
    signed_floor_sum_identity,
    stern_sum,
    stern_table,
    stern_valuation,
)
from eulermod.exactmath import (
    InternalInconsistencyError,
    UnivariatePolynomial,
    mod_inverse,
    v_adic,
)
from eulermod.special import euler_number


class TestQIntegers:
    def test_examples(self):
        assert is_q_integer(Fraction(1, 2), QAdicContext(3))
        assert not is_q_integer(Fraction(1, 2), QAdicContext(4))
        assert is_q_integer(Fraction(-7, 15), QAdicContext(4))
        assert is_q_integer(5, QAdicContext(10))

    def test_context_requires_q_above_one(self):
        for bad in (1, 0, -3):
            with pytest.raises(ValueError):
                QAdicContext(bad)


def q_integers(q: int):
    return st.builds(
        Fraction,
        st.integers(-10**6, 10**6),
        st.integers(1, 400).filter(lambda d: gcd(d, q) == 1),
    )


def fraction_reference(x, y, q: int) -> tuple[bool, Fraction]:
    """The decision by Fraction arithmetic alone: (holds, quotient witness)."""
    witness = (Fraction(x) - Fraction(y)) / q
    return gcd(witness.denominator, q) == 1, witness


def prime_to(d: int, q: int) -> int:
    """d with every prime factor it shares with q divided out."""
    while (g := gcd(d, q)) > 1:
        d //= g
    return d


# one power of two, one odd prime power and one modulus near 10**12
LARGE_MODULI = (2**64, 3**40, 10**12 + 39)


def wide_q_integers(q: int):
    return st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-10**40, 10**40),
                  st.integers(1, 10**40).map(lambda d: prime_to(d, q))),
    )


class TestCongruentMod:
    def test_reflexive(self):
        report = congruent_mod(Fraction(3, 7), Fraction(3, 7), QAdicContext(5))
        assert report.holds and report.quotient_witness == 0

    def test_integer_example(self):
        report = congruent_mod(17, -1, QAdicContext(3))
        assert report.holds
        assert report.lhs - report.rhs == 3 * report.quotient_witness

    def test_rational_example(self):
        report = congruent_mod(Fraction(1, 3), 3, QAdicContext(4))
        assert report.holds
        assert report.quotient_witness == Fraction(-2, 3)

    def test_report_fields_are_fractions(self):
        # an int is wrapped, a Fraction is kept as the same object
        x = Fraction(1, 3)
        report = congruent_mod(x, 3, QAdicContext(4))
        assert report.lhs is x
        assert type(report.rhs) is Fraction and report.rhs == 3

    def test_negative_case(self):
        assert not congruent_mod(1, 2, QAdicContext(4)).holds

    def test_rejects_non_q_integer(self):
        with pytest.raises(ValueError, match="1/2"):
            congruent_mod(Fraction(1, 2), 0, QAdicContext(4))

    @given(st.integers(2, 60).flatmap(
        lambda q: st.tuples(st.just(q), q_integers(q), q_integers(q), q_integers(q))))
    @settings(max_examples=150)
    def test_equivalence_and_ring_compatibility(self, data):
        q, x, y, z = data
        ctx = QAdicContext(q)
        assert congruent_mod(x, x, ctx).holds
        xy = congruent_mod(x, y, ctx)
        assert xy.holds == congruent_mod(y, x, ctx).holds
        if xy.holds:
            # witness reconstructs the difference exactly
            assert x - y == q * xy.quotient_witness
            assert is_q_integer(xy.quotient_witness, ctx)
            assert congruent_mod(x + z, y + z, ctx).holds
            assert congruent_mod(x * z, y * z, ctx).holds
            if congruent_mod(y, z, ctx).holds:
                assert congruent_mod(x, z, ctx).holds

    @given(st.one_of(st.integers(2, 60), st.sampled_from(LARGE_MODULI)).flatmap(
        lambda q: st.tuples(st.just(q), wide_q_integers(q), wide_q_integers(q),
                            wide_q_integers(q))))
    @settings(max_examples=200)
    @example((2**64, Fraction(1, 3), Fraction(1, 3) + 2**64, Fraction(0)))
    @example((3**40, Fraction(-10**40, 7), Fraction(5, 11), Fraction(2, 5)))
    def test_matches_fraction_reference(self, data):
        q, x, y, z = data
        ctx = QAdicContext(q)
        # (x, y) almost never holds for a large q; (x, x - q z) always does
        for rhs in (y, x - q * z):
            report = congruent_mod(x, rhs, ctx)
            assert (report.holds, report.quotient_witness) == fraction_reference(x, rhs, q)

    def test_route_disagreement_raises(self, monkeypatch):
        # route two then finds every pair congruent; route one sees 1 - 2 = -1
        monkeypatch.setattr(congruences, "_inverse", lambda x, modulus: 0)
        ctx = QAdicContext(4)
        with pytest.raises(InternalInconsistencyError, match=r"1 = 2 \(mod 4\)"):
            congruent_mod(1, 2, ctx)
        with pytest.raises(InternalInconsistencyError, match="congruence routes disagree"):
            poly_congruent_mod(UnivariatePolynomial([0, 1]), UnivariatePolynomial([0, 2]), ctx)


class TestPolyCongruentMod:
    def test_reflexive(self):
        p = UnivariatePolynomial([Fraction(1, 3), 2, 1])
        assert poly_congruent_mod(p, p, QAdicContext(7))

    def test_example_mod_four(self):
        p = UnivariatePolynomial([Fraction(1, 3), 0, 1])
        q = UnivariatePolynomial([3, 0, 1])
        assert poly_congruent_mod(p, q, QAdicContext(4))

    def test_constant_mismatch(self):
        x = UnivariatePolynomial([0, 1])
        assert not poly_congruent_mod(x, x + 1, QAdicContext(2))

    def test_padding_with_zero(self):
        p = UnivariatePolynomial([1])
        q = UnivariatePolynomial([1, 5])
        assert poly_congruent_mod(p, q, QAdicContext(5))
        assert not poly_congruent_mod(p, q, QAdicContext(3))

    @given(st.integers(2, 60).flatmap(lambda q: st.tuples(
        st.just(q),
        st.lists(q_integers(q), max_size=13),
        st.lists(q_integers(q), max_size=13),
        st.booleans())))
    @settings(max_examples=150)
    def test_matches_coefficientwise_reference(self, data):
        q, ps, rs, shifted = data
        P, R = UnivariatePolynomial(ps), UnivariatePolynomial(rs)
        # P + q R is congruent to P; R itself seldom is, and the lengths differ freely
        Q = P + R * q if shifted else R
        pairs = zip_longest(P.coefficients, Q.coefficients, fillvalue=0)
        expected = all(fraction_reference(cp, cq, q)[0] for cp, cq in pairs)
        assert poly_congruent_mod(P, Q, QAdicContext(q)) == expected

    def test_bad_coefficient_names_index(self):
        p = UnivariatePolynomial([0, Fraction(1, 2)])
        # the second input's constant pair already fails; coefficient 1 must still be decided
        for lhs, rhs in ((p, p), (p + 1, p)):
            with pytest.raises(ValueError, match="coefficient 1"):
                poly_congruent_mod(lhs, rhs, QAdicContext(4))

    def test_denominator_shared_with_q(self):
        # stored as (2 + 6x + x^2)/2: coefficients 0 and 1 are q-integers though stored over 2
        p = UnivariatePolynomial([1, 3, Fraction(1, 2)])
        with pytest.raises(ValueError, match=r"coefficient 2 = 1/2 fell outside the 2-integers"):
            poly_congruent_mod(p, UnivariatePolynomial(), QAdicContext(2))
        half_x = UnivariatePolynomial([0, Fraction(1, 2)])
        for q in range(2, 40):
            assert poly_congruent_mod((half_x + 1) - half_x, UnivariatePolynomial([1]),
                                      QAdicContext(q))


class TestAlternatingPowerSum:
    def test_examples(self):
        assert alternating_power_sum(3, 2) == 17
        assert alternating_power_sum(5, 4) == 4705
        assert alternating_power_sum(1, 11) == 1

    @given(st.integers(1, 50), st.integers(0, 30), st.integers(2, 500))
    @settings(max_examples=100)
    def test_modular_route_matches_exact(self, q, k, modulus):
        assert alternating_power_sum(q, k, modulus=modulus) == \
            alternating_power_sum(q, k) % modulus

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            alternating_power_sum(0, 2)
        with pytest.raises(ValueError):
            alternating_power_sum(3, -1)

    @pytest.mark.parametrize("modulus", [1, 0, -4])
    def test_rejects_modulus_below_two(self, modulus):
        with pytest.raises(ValueError, match="modulus"):
            alternating_power_sum(3, 2, modulus=modulus)


class TestEulerModOdd:
    @pytest.mark.parametrize("k,q", [(2, 3), (0, 1), (12, 35), (8, 15), (20, 99)])
    def test_holds(self, k, q):
        assert check_euler_mod_odd(k, q).holds

    def test_witness_reconstructs(self):
        report = check_euler_mod_odd(2, 3)
        assert report.lhs == -1 and report.rhs == 17
        assert report.lhs - report.rhs == 3 * report.quotient_witness

    def test_rejects_even_q(self):
        with pytest.raises(ValueError):
            check_euler_mod_odd(2, 4)

    def test_rejects_odd_k(self):
        with pytest.raises(ValueError):
            check_euler_mod_odd(3, 5)


class TestSternSum:
    def test_examples(self):
        assert stern_sum(2, 2, 3) == 82
        assert stern_sum(2, 1, 3) == 18
        assert stern_sum(7, 3, 1) == 0
        assert stern_sum(0, 1, 3) == 2

    def test_rejects_even_m(self):
        with pytest.raises(ValueError):
            stern_sum(2, 2, 4)

    @pytest.mark.parametrize("modulus", [1, 0, -4])
    def test_rejects_modulus_below_two(self, modulus):
        with pytest.raises(ValueError, match="modulus"):
            stern_sum(2, 2, 3, modulus=modulus)

    @given(st.integers(0, 24), st.integers(1, 7),
           st.sampled_from([1, 3, 5, 7, 9, 11, 13, 15]), st.integers(2, 300))
    @settings(max_examples=100)
    def test_modular_route_matches_exact(self, k, n, m, modulus):
        assert stern_sum(k, n, m, modulus=modulus) == stern_sum(k, n, m) % modulus

    @pytest.mark.parametrize("n", range(1, 9))
    def test_parity_for_m3(self, n):
        for k in range(0, 32, 2):
            assert stern_sum(k, n, 3) % 2 == 0


class TestClearedCongruence:
    def test_worked_example(self):
        report = check_euler_mod_two_power(2, 2, 3)
        assert report.holds
        assert report.lhs == -28 and report.rhs == 1476 and report.modulus == 16
        assert (report.lhs - report.rhs) % 16 == 0

    def test_degenerate_m1(self):
        report = check_euler_mod_two_power(0, 1, 1)
        assert report.holds and report.lhs == 0 and report.rhs == 0

    @pytest.mark.parametrize("k,n,m", [(10, 8, 5), (12, 4, 7), (40, 10, 15), (6, 6, 11)])
    def test_holds(self, k, n, m):
        assert check_euler_mod_two_power(k, n, m).holds

    def test_rejects_odd_k(self):
        with pytest.raises(ValueError):
            check_euler_mod_two_power(3, 2, 3)

    def test_coefficient_valuation(self):
        # (3**(k+1) + 1)/4 is odd for even k; the m = 7 coefficient need not be
        assert cleared_coefficient_valuation(2, 3) == 0
        assert cleared_coefficient_valuation(2, 7) > 0
        assert cleared_coefficient_valuation(4, 1) == -1


class TestEulerModTwoPowerEvaluator:
    def test_examples(self):
        assert euler_mod_2n(2, 2) == 3
        assert euler_mod_2n(0, 1) == 1
        assert euler_mod_2n(4, 3) == 5

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_exact_reduction(self, n):
        for k in range(0, 62, 2):
            assert euler_mod_2n(k, n) == euler_number(k) % (1 << n)

    def test_rejects_odd_k(self):
        with pytest.raises(ValueError):
            euler_mod_2n(3, 2)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            euler_mod_2n(2, 0)


def unfolded_euler_mod_2n(k: int, n: int) -> int:
    """E_k mod 2**n from the unfolded cleared congruence with m = 3 and the full k."""
    wide, target = 1 << (n + 2), 1 << n
    s = stern_sum(k, n, 3, modulus=wide)
    assert s % 2 == 0
    c = (pow(3, k + 1, wide) + 1) // 4
    return mod_inverse(c, target) * pow(3, k, target) * (s // 2) % target


even_k = st.integers(0, 5 * 10 ** 11).map(lambda h: 2 * h)


class TestFoldedKernel:
    """The fold and the exponent reduction behind euler_mod_2n, against unfolded routes."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_fold_identity(self, n):
        # S = 2 sum_{j<J} (-1)**j (2j+1)**k (mod 2**(n+2)), J the weight-0 count
        wide = 1 << (n + 2)
        folded_terms = congruences._folded_terms(n)
        assert folded_terms == sum(1 for j in range(1 << n) if (3 * j + 1) >> n == 0)
        for k in (0, 2, 4, 10, 38, 1000, (1 << n) + 2, 3 ** 21 + 1):
            folded = 2 * sum((-1) ** j * pow(2 * j + 1, k, wide)
                             for j in range(folded_terms))
            assert stern_sum(k, n, 3, modulus=wide) == folded % wide

    @pytest.mark.parametrize("n", range(2, 13))
    def test_second_fold_identity(self, n):
        # x_j and x_(2**(n-1)-1-j) = 2**n - x_j cancel mod 2**n, leaving J(n-1) terms
        target = 1 << n
        folded_terms = congruences._folded_terms(n)
        half_terms = congruences._folded_terms(n - 1)
        assert half_terms == (1 << (n - 1)) - folded_terms
        assert congruences._kernel_terms(n) == half_terms
        for k in (0, 2, 4, 38, target, target + 2, 3 ** 21 + 1):
            full, half = (sum((-1) ** j * pow(2 * j + 1, k, target) for j in range(terms))
                          for terms in (folded_terms, half_terms))
            assert full % target == half % target

    @given(even_k, st.integers(1, 12))
    @example(10 ** 12, 12)
    @settings(max_examples=60, deadline=None)
    def test_matches_unfolded_congruence(self, k, n):
        assert euler_mod_2n(k, n) == unfolded_euler_mod_2n(k, n)

    @given(even_k, st.integers(1, 12))
    @example(10 ** 12 - 2, 10)
    @example(10 ** 12 - 2, 12)
    @settings(max_examples=60, deadline=None)
    def test_matches_sterns_law(self, k, n):
        # E_k = E_(k mod 2**n) (mod 2**n), the right side from the exact table
        assert euler_mod_2n(k, n) == euler_number(k % (1 << n)) % (1 << n)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_table_matches_single_evaluations(self, n):
        # two routes to the folded sum: the binomial expansion and powering each x_j**k
        table = stern_table(n)
        assert list(table) == list(range(0, 1 << n, 2))
        ks = list(table) if n <= 11 else random.Random(n).sample(list(table), 64)
        assert {k: table[k] for k in ks} == {k: euler_mod_2n(k, n) for k in ks}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_table_matches_exact_values(self, n):
        assert stern_table(n) == {k: euler_number(k) % (1 << n) for k in range(0, 1 << n, 2)}

    def test_table_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            stern_table(0)

    def test_even_residue_raises(self, monkeypatch):
        # one term too many breaks the fold; E_k is odd, so the kernel must refuse
        folded_terms = congruences._folded_terms
        monkeypatch.setattr(congruences, "_folded_terms", lambda n: folded_terms(n) + 1)
        with pytest.raises(InternalInconsistencyError, match="k=10, n=6"):
            euler_mod_2n(10, 6)
        with pytest.raises(InternalInconsistencyError):
            stern_table(4)


class TestPowerSumDivisibility:
    @pytest.mark.parametrize("k,n", [(2, 2), (0, 1), (40, 10), (18, 12)])
    def test_holds(self, k, n):
        assert check_power_sum_divisibility(k, n)

    def test_worked_instance(self):
        assert alternating_power_sum(4, 2) == -32  # divisible by 2**3

    def test_rejects_odd_k(self):
        with pytest.raises(ValueError):
            check_power_sum_divisibility(3, 2)


class TestSternValuation:
    def test_examples(self):
        r = stern_valuation(4, 2)
        assert (r.v_index, r.v_value) == (1, 1)
        r = stern_valuation(6, 2)
        assert (r.v_index, r.v_value) == (2, 2)

    def test_symmetry(self):
        a, b = stern_valuation(10, 4), stern_valuation(4, 10)
        assert (a.v_index, a.v_value) == (b.v_index, b.v_value)

    def test_rejects_equal_indices(self):
        with pytest.raises(ValueError):
            stern_valuation(4, 4)

    def test_rejects_odd_indices(self):
        with pytest.raises(ValueError):
            stern_valuation(3, 1)


def _linear_power(shift, k):
    """(x + shift)**k expanded exactly via the binomial theorem."""
    return UnivariatePolynomial([comb(k, i) * Fraction(shift) ** (k - i) for i in range(k + 1)])


def _floor_sum_reference(a, m, q, k, alternating):
    """The floor-weighted sum built as q weighted (x + a + j m)**k polynomials."""
    shift = Fraction(1 - m, 2)
    total = UnivariatePolynomial()
    for j in range(q):
        weight = (a + j * m) // q + shift
        if not weight:
            continue
        term = weight * _linear_power(a + j * m, k)
        if alternating and j % 2 == 0:
            term = -term
        total = total + term
    return total


_rng = random.Random(2004)
_FLOOR_SUM_POINTS = [Fraction(_rng.randint(-40, 40), _rng.randint(1, 12)) for _ in range(3)]


class TestFloorSumTerms:
    @given(st.integers(-10, 10), st.integers(1, 15), st.integers(2, 32), st.integers(0, 14),
           st.booleans())
    @example(-10, 14, 31, 14, True)
    @example(10, 15, 32, 14, False)
    @example(3, 1, 2, 0, True)
    @settings(max_examples=150, deadline=None)
    def test_matches_polynomial_route_and_defining_sum(self, a, m, q, k, alternating):
        assume(gcd(m, q) == 1)
        total = congruences._floor_sum_terms(a, m, q, k, alternating)
        assert total == _floor_sum_reference(a, m, q, k, alternating)
        for x in _FLOOR_SUM_POINTS:
            direct = Fraction(0)
            for j in range(q):
                term = ((a + j * m) // q + Fraction(1 - m, 2)) * (x + a + j * m) ** k
                direct += -term if alternating and j % 2 == 0 else term
            assert total(x) == direct


class TestSignedFloorSum:
    def test_examples(self):
        assert signed_floor_sum_identity(0, 1, 2) == (0, 0)
        assert signed_floor_sum_identity(1, 3, 4) == (2, 2)
        computed, closed = signed_floor_sum_identity(-3, 5, 8)
        assert computed == closed

    def test_rejects_odd_q(self):
        with pytest.raises(ValueError):
            signed_floor_sum_identity(1, 3, 5)

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError):
            signed_floor_sum_identity(1, 6, 4)

    @given(st.integers(-30, 30), st.integers(0, 7), st.integers(1, 16))
    @settings(max_examples=120)
    def test_identity_everywhere(self, a, m_half, q_half):
        m, q = 2 * m_half + 1, 2 * q_half
        assume(gcd(m, q) == 1)
        computed, closed = signed_floor_sum_identity(a, m, q)
        assert computed == closed


class TestBernoulliPolyCongruence:
    def test_route_selection(self):
        assert bernoulli_poly_congruence_route(3, 4) == "stated"
        assert bernoulli_poly_congruence_route(2, 4) == "cleared"

    @pytest.mark.parametrize("a,k,m,q", [
        (0, 1, 1, 3),
        (2, 3, 3, 4),
        (-1, 2, 5, 6),
        (5, 7, 2, 9),
        (-4, 4, 3, 16),
    ])
    def test_holds(self, a, k, m, q):
        assert check_bernoulli_poly_congruence(a, k, m, q)

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError):
            check_bernoulli_poly_congruence(0, 2, 3, 6)

    def test_rejects_zero_k(self):
        with pytest.raises(ValueError):
            check_bernoulli_poly_congruence(0, 0, 1, 3)

    def test_coefficient_outside_q_integers_raises(self, monkeypatch):
        real = congruences._floor_sum_terms
        monkeypatch.setattr(congruences, "_floor_sum_terms", lambda *args, **kwargs: (
            UnivariatePolynomial([*real(*args, **kwargs).coefficients, *[0] * 8, Fraction(1, 2)])))
        with pytest.raises(InternalInconsistencyError,
                           match="coefficient 10 = 1/2 fell outside the 4-integers"):
            check_bernoulli_poly_congruence(1, 3, 3, 4)


class TestEulerPolyCongruence:
    def test_degenerate_m1(self):
        for k in range(7):
            assert check_euler_poly_congruence(0, k, 1, 2)

    @pytest.mark.parametrize("a,k,m,q", [
        (1, 2, 3, 4),
        (3, 4, 5, 6),
        (-2, 5, 3, 8),
        (0, 6, 7, 16),
    ])
    def test_holds(self, a, k, m, q):
        assert check_euler_poly_congruence(a, k, m, q)

    def test_rejects_odd_q(self):
        with pytest.raises(ValueError):
            check_euler_poly_congruence(0, 2, 2, 5)

    def test_coefficient_outside_q_integers_raises(self, monkeypatch):
        monkeypatch.setattr(congruences, "_floor_sum_terms",
                            lambda *args, **kwargs: UnivariatePolynomial([0, Fraction(1, 2)]))
        with pytest.raises(InternalInconsistencyError,
                           match="coefficient 1 = 1/2 fell outside the 4-integers"):
            check_euler_poly_congruence(1, 2, 3, 4)

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError):
            check_euler_poly_congruence(0, 2, 3, 6)


class TestLeftSideMemo:
    """The memoized left side of 2.2 and 2.3 follows a changed source polynomial."""

    @pytest.mark.parametrize("check,source,q", [
        (check_bernoulli_poly_congruence, "bernoulli_polynomial", 4),  # stated route
        (check_bernoulli_poly_congruence, "bernoulli_polynomial", 6),  # cleared route
        (check_euler_poly_congruence, "euler_polynomial", 4),
    ])
    def test_skewed_source_not_served_stale(self, check, source, q, monkeypatch):
        # (a, k, m) = (1, 3, 11): the skew by 1/7 falsifies all three instances
        assert check(1, 3, 11, q)
        exact = getattr(special, source)
        monkeypatch.setattr(special, source, lambda n: exact(n) + Fraction(1, 7))
        assert not check(1, 3, 11, q)

    def test_threads_get_their_own_left_side(self):
        e_6 = special.euler_polynomial(6)
        tuples = [(a, 6, 5) for a in range(4)]  # one (a, k, m) per thread, more threads than cores
        expected = {t: congruences._euler_lhs(e_6, *t) for t in tuples}
        start = threading.Barrier(len(tuples))
        wrong = []

        def run(t):
            start.wait()
            for _ in range(300):
                if congruences._euler_lhs(e_6, *t) != expected[t]:
                    wrong.append(t)

        threads = [threading.Thread(target=run, args=(t,)) for t in tuples]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestKummer:
    def test_counterexample_instance(self):
        result = kummer_check(13, 2, 16, 4)
        assert result.report.holds
        assert not result.exponent_congruent
        assert result.report.modulus == 169

    def test_guaranteed_instance(self):
        result = kummer_check(5, 1, 6, 2)
        assert result.report.holds and result.exponent_congruent
        assert result.report.lhs == Fraction(1, 252)
        assert result.report.rhs == Fraction(1, 12)

    def test_equal_indices(self):
        result = kummer_check(7, 2, 10, 10)
        assert result.report.holds and result.exponent_congruent

    def test_rejects_denominator_prime(self):
        with pytest.raises(ValueError, match="divides"):
            kummer_check(5, 1, 8, 2)

    def test_rejects_two_and_composite(self):
        with pytest.raises(ValueError):
            kummer_check(2, 1, 4, 2)
        with pytest.raises(ValueError):
            kummer_check(9, 1, 4, 2)

    @pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (5, 2), (3, 2)])
    def test_guarantee_direction_sweep(self, p, n):
        # the guarantee needs min(k, l) > n; below that the value congruence
        # picks up an Euler-factor correction and can genuinely fail
        phi = p ** (n - 1) * (p - 1)
        start = n + 2 if (n + 2) % 2 == 0 else n + 3
        for l in range(start, start + 2 * phi, 2):
            if l % (p - 1) == 0:
                continue
            result = kummer_check(p, n, l + phi, l)
            assert result.exponent_congruent
            assert result.report.holds

    def test_uncorrected_congruence_fails_at_small_index(self):
        # 22 = 2 mod phi(25), yet B_22/22 - B_2/2 = 19415/69 has 5-valuation
        # exactly 1: the exponent flag does not force the congruence when
        # min(k, l) <= n
        result = kummer_check(5, 2, 22, 2)
        assert result.exponent_congruent
        assert not result.report.holds
        assert v_adic(result.report.lhs - result.report.rhs, 5) == 1


class TestAdamsThangadurai:
    def test_examples(self):
        assert adams_thangadurai_valuation(13, 26) == (1, 1)
        assert adams_thangadurai_valuation(5, 2) == (0, 0)
        assert adams_thangadurai_valuation(7, 14) == (1, 1)

    def test_rejects_denominator_prime(self):
        with pytest.raises(ValueError):
            adams_thangadurai_valuation(5, 8)

    def test_lower_bound_sweep(self):
        for p in (3, 5, 7, 11, 13):
            for k in range(2, 80, 2):
                if k % (p - 1) == 0:
                    continue
                n, w = adams_thangadurai_valuation(p, k)
                assert n == v_adic(k, p)
                assert w >= n
                if n > 0:
                    assert w <= n + 1
