import random
from fractions import Fraction
from itertools import zip_longest
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulermod.exactmath import (
    NotInvertibleError,
    UnivariatePolynomial,
    decompose_odd_residue,
    extended_gcd,
    is_prime,
    mod_inverse,
    multiplicative_order,
    v_adic,
)


class TestFloorDiv:
    """The built-in ``//`` rounds toward minus infinity.

    The floor-weighted sums of claims 2.2-2.4 take ``t // q`` of a negative
    ``t`` when ``a`` is negative.
    """

    @pytest.mark.parametrize("a,b,expected", [
        (10, 4, 2),
        (-1, 4, -1),
        (3 * 3 + 1, 2 ** 2, 2),
        (0, 7, 0),
        (-8, 4, -2),
        (-9, 4, -3),
    ])
    def test_examples(self, a, b, expected):
        assert a // b == expected

    @given(st.integers(-10**12, 10**12), st.integers(1, 10**9))
    def test_floor_bounds(self, a, b):
        q = a // b
        assert q * b <= a < (q + 1) * b


class TestVAdic:
    @pytest.mark.parametrize("x,p,expected", [
        (6, 2, 1),
        (-60, 2, 2),
        (Fraction(1, 6), 2, -1),
        (Fraction(9, 4), 3, 2),
        (7, 7, 1),
        (1, 5, 0),
    ])
    def test_examples(self, x, p, expected):
        assert v_adic(x, p) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            v_adic(0, 2)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            v_adic(8, 4)

    @given(st.integers(0, 40), st.sampled_from([2, 3, 5, 7, 13]),
           st.integers(1, 10**6))
    def test_exact_divisibility(self, e, p, rest):
        # strip p from rest so the valuation is exactly e
        while rest % p == 0:
            rest //= p
        x = p ** e * rest
        assert v_adic(x, p) == e
        assert x % p ** e == 0 and x % p ** (e + 1) != 0


class TestModPow:
    """Modular powering is the built-in three-argument ``pow``, normalized into [0, mod)."""

    @pytest.mark.parametrize("base,exp,mod,expected", [
        (3, 0, 7, 1),
        (5, 8, 32, 1),
        (3, 12, 16, 1),
        (2, 10, 1000, 24),
        (-3, 1, 7, 4),
    ])
    def test_examples(self, base, exp, mod, expected):
        assert pow(base, exp, mod) == expected

    @pytest.mark.parametrize("n", range(1, 13))
    def test_odd_square_tower(self, n):
        # a**(2**n) is 1 mod 2**(n+2) for every odd a: euler_mod_2n reduces
        # its exponent mod 2**n on this fact
        modulus = 1 << (n + 2)
        for a in range(1, modulus, 2):
            assert pow(a, 1 << n, modulus) == 1


class TestExtendedGcdInverse:
    @given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
    def test_bezout(self, a, b):
        g, s, t = extended_gcd(a, b)
        assert g == gcd(a, b)
        assert s * a + t * b == g

    @pytest.mark.parametrize("x,mod,expected", [
        (1, 8, 1),
        (7, 4, 3),
        (3, 10, 7),
    ])
    def test_inverse_examples(self, x, mod, expected):
        assert mod_inverse(x, mod) == expected

    def test_common_factor_rejected(self):
        with pytest.raises(NotInvertibleError, match=r"4 is not invertible mod 8 \(gcd = 4\)"):
            mod_inverse(4, 8)

    def test_matches_extended_gcd_route(self):
        # x ranges over negatives and values >= modulus, moduli up to 2**200
        rng = random.Random(20)
        inverted = 0
        for bits in (4, 16, 64, 200):
            for _ in range(150):
                mod = rng.randrange(2, 1 << bits)
                x = rng.randrange(-4 * mod, 4 * mod)
                g, s, _ = extended_gcd(x % mod, mod)
                if g != 1:
                    with pytest.raises(NotInvertibleError, match=f"gcd = {g}"):
                        mod_inverse(x, mod)
                    continue
                assert mod_inverse(x, mod) == s % mod
                inverted += 1
        assert inverted > 300

    @given(st.integers(2, 10**6), st.integers(-10**6, 10**6))
    def test_inverse_property(self, mod, x):
        if gcd(x, mod) != 1:
            with pytest.raises(NotInvertibleError):
                mod_inverse(x, mod)
        else:
            assert x * mod_inverse(x, mod) % mod == 1


class TestMultiplicativeOrder:
    @pytest.mark.parametrize("x,mod,expected", [
        (1, 16, 1),
        (5, 2 ** 5, 2 ** 3),
        (3, 8, 2),
        (2, 7, 3),
        (3, 7, 6),
    ])
    def test_examples(self, x, mod, expected):
        assert multiplicative_order(x, mod) == expected

    @pytest.mark.parametrize("t", range(3, 21))
    def test_order_of_five_mod_two_powers(self, t):
        assert multiplicative_order(5, 1 << t) == 1 << (t - 2)

    def test_rejects_shared_factor(self):
        with pytest.raises(NotInvertibleError):
            multiplicative_order(6, 8)

    @given(st.integers(2, 3000), st.integers(1, 3000))
    @settings(max_examples=60)
    def test_minimality(self, mod, x):
        x %= mod
        if gcd(x, mod) != 1:
            return
        d = multiplicative_order(x, mod)
        assert pow(x, d, mod) == 1
        assert all(pow(x, e, mod) != 1 for e in range(1, min(d, 64)))


class TestDecomposeOddResidue:
    @pytest.mark.parametrize("x,t,a,b", [
        (1, 4, 0, 0),
        (3, 3, 1, 1),
        (7, 3, 1, 0),
        (5, 4, 0, 1),
    ])
    def test_examples(self, x, t, a, b):
        d = decompose_odd_residue(x, t)
        assert (d.sign_exponent, d.power_exponent, d.modulus_exponent) == (a, b, t)

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            decompose_odd_residue(4, 5)

    def test_rejects_small_exponent(self):
        with pytest.raises(ValueError):
            decompose_odd_residue(3, 2)

    @given(st.integers(3, 16), st.integers())
    @settings(max_examples=120)
    def test_round_trip(self, t, seed):
        x = 2 * (seed % (1 << (t - 1))) + 1  # arbitrary odd residue mod 2**t
        d = decompose_odd_residue(x, t)
        assert 0 <= d.power_exponent < 1 << (t - 2)
        assert d.sign_exponent in (0, 1)
        assert d.residue() == x % (1 << t)

    @pytest.mark.parametrize("t", range(3, 17))
    def test_bijection_onto_odd_residues(self, t):
        # the (a, b) lattice maps onto the odd residues mod 2**t without collision
        mod = 1 << t
        image = set()
        power = 1
        for _ in range(1 << (t - 2)):
            image.add(power)
            image.add(mod - power)
            power = power * 5 % mod
        assert image == set(range(1, mod, 2))

    @pytest.mark.parametrize("t", range(3, 17))
    def test_three_needs_odd_power_of_five(self, t):
        d = decompose_odd_residue(3, t)
        assert d.sign_exponent == 1
        assert d.power_exponent % 2 == 1


class TestRationalExactness:
    big = st.integers(-(1 << 256), 1 << 256)
    big_pos = st.integers(1, 1 << 256)

    @given(big, big_pos, big, big_pos)
    def test_add_sub_cancel(self, a, b, c, d):
        r, s = Fraction(a, b), Fraction(c, d)
        assert (r + s) - s == r

    @given(big, big_pos, big, big_pos)
    def test_mul_div_cancel(self, a, b, c, d):
        r, s = Fraction(a, b), Fraction(c, d)
        if s:
            assert (r * s) / s == r

    @given(big, big_pos)
    def test_reduced_form(self, a, b):
        r = Fraction(a, b)
        assert r.denominator >= 1
        assert gcd(abs(r.numerator), r.denominator) == 1
        if r == 0:
            assert (r.numerator, r.denominator) == (0, 1)


small_fracs = st.fractions(min_value=-50, max_value=50, max_denominator=9)
small_polys = st.lists(small_fracs, max_size=6).map(UnivariatePolynomial)


class TestPolynomial:
    def test_trailing_zeros_trimmed(self):
        p = UnivariatePolynomial([1, 2, 0, 0])
        assert p.degree == 1 and p.coefficients == (Fraction(1), Fraction(2))

    def test_coefficients_are_fractions(self):
        built = [UnivariatePolynomial(c) for c in
                 ([1, 2, 3], [Fraction(1, 2), Fraction(4)], [1, Fraction(1, 3), True])]
        p = built[2]
        derived = [p + built[0], p + 1, p - built[1], 1 - p, -p, p * 3, p * Fraction(1, 2),
                   p.affine(2, Fraction(1, 3)), p.affine(Fraction(1, 2), 0)]
        for poly in built + derived:
            assert poly.coefficients and all(type(c) is Fraction for c in poly.coefficients)

    def test_zero_degree_sentinel(self):
        assert UnivariatePolynomial().degree == -1
        assert UnivariatePolynomial([0, 0]).degree == -1
        assert not UnivariatePolynomial([0])

    def test_hash_is_coefficient_hash(self):
        p = UnivariatePolynomial([1, Fraction(2, 3), 5])
        assert hash(p) == hash(p.coefficients)
        assert hash(p) == hash(p.coefficients)  # the stored hash on a repeated call
        twin = UnivariatePolynomial([Fraction(1), Fraction(4, 6), 5, 0])
        assert twin == p and twin is not p
        assert hash(twin) == hash(p)

    def test_coefficient_beyond_degree(self):
        p = UnivariatePolynomial([1, 2])
        assert p.coefficient(10) == 0
        with pytest.raises(ValueError):
            p.coefficient(-1)

    def test_affine_example(self):
        p = UnivariatePolynomial([1, 0, 1])  # x^2 + 1
        assert p.affine(2, 1) == UnivariatePolynomial([2, 4, 4])  # at 2x + 1

    def test_product_of_polynomials_refused(self):
        p = UnivariatePolynomial([1, 2])
        with pytest.raises(TypeError):
            p * p

    def test_str(self):
        p = UnivariatePolynomial([Fraction(1, 6), -1, 1])
        assert str(p) == "x^2 - x + 1/6"
        assert str(UnivariatePolynomial()) == "0"

    def test_evaluation(self):
        p = UnivariatePolynomial([Fraction(1, 6), -1, 1])
        assert p(0) == Fraction(1, 6)
        assert p(Fraction(1, 2)) == Fraction(-1, 12)

    @given(small_polys, small_polys)
    @settings(max_examples=80)
    def test_ring_laws(self, p, q):
        assert p + q == q + p
        assert (p + q) - q == p
        assert (p * 3) - p == 2 * p

    @given(small_polys, small_polys, small_fracs)
    @settings(max_examples=80)
    def test_operations_commute_with_evaluation(self, p, q, point):
        assert (p + q)(point) == p(point) + q(point)
        assert (p - q)(point) == p(point) - q(point)

    @given(small_polys, small_fracs, small_fracs, small_fracs)
    @settings(max_examples=80)
    @example(UnivariatePolynomial(), Fraction(2), Fraction(1, 3), Fraction(5))
    @example(UnivariatePolynomial([1, 2, 3]), Fraction(0), Fraction(-1, 2), Fraction(7))
    @example(UnivariatePolynomial([Fraction(1, 6), -1, 1]), Fraction(-3, 2), Fraction(5, 4),
             Fraction(2, 3))
    def test_affine_evaluates_pointwise(self, p, scale, shift, point):
        q = p.affine(scale, shift)
        assert q(point) == p(scale * point + shift)
        assert q.degree == (p.degree if scale else (0 if p(shift) else -1))


def _reference(coefficients) -> tuple[Fraction, ...]:
    """A polynomial as one reduced Fraction per coefficient, trailing zeros stripped."""
    out = [Fraction(c) for c in coefficients]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _reference_add(a, b):
    return _reference(x + y for x, y in zip_longest(a, b, fillvalue=0))


def _reference_scale(a, s):
    return _reference(c * s for c in a)


def _reference_affine(a, scale, shift):
    # sum_i a_i (scale x + shift)**i expanded binomially
    return _reference(sum(c * comb(i, j) * scale ** j * shift ** (i - j)
                          for i, c in enumerate(a) if i >= j) for j in range(len(a)))


def _reference_eval(a, point):
    return sum((c * point ** i for i, c in enumerate(a)), Fraction(0))


def _reference_str(a):
    terms = []
    for i in reversed(range(len(a))):
        if a[i]:
            mag = abs(a[i])
            power = "x" if i == 1 else f"x^{i}"
            body = str(mag) if i == 0 else power if mag == 1 else f"{mag}*{power}"
            terms.append(("-" if a[i] < 0 else "+", body))
    if not terms:
        return "0"
    (sign, body), rest = terms[0], terms[1:]
    return " ".join([body if sign == "+" else f"-{body}", *(f"{s} {b}" for s, b in rest)])


def _assert_canonical(p: UnivariatePolynomial) -> None:
    assert p._den > 0 and gcd(p._den, *p._nums) == 1
    assert all(type(c) is int for c in p._nums) and type(p._den) is int
    assert (not p._nums and p._den == 1) or p._nums[-1]


# ints and Fractions with unlike denominators, with trailing zeros appended
mixed_coefficients = st.tuples(
    st.lists(st.one_of(st.integers(-20, 20), small_fracs), max_size=7), st.integers(0, 2),
).map(lambda t: t[0] + [0] * t[1])
scalars = st.one_of(st.integers(-6, 6), small_fracs)


class TestAgainstFractionReference:
    """Every polynomial operation against one reduced Fraction per coefficient."""

    @given(mixed_coefficients, mixed_coefficients, scalars, scalars, scalars)
    @settings(max_examples=150)
    @example([Fraction(1, 2), 1, Fraction(3, 4)], [0, Fraction(-1, 2), 0, 0], 2,
             Fraction(1, 3), Fraction(-5, 2))
    @example([], [0, 0], 0, 0, 1)
    @example([1, 3, Fraction(1, 2)], [Fraction(1, 2)], Fraction(2, 3), 0, Fraction(7, 4))
    def test_every_operation(self, cs, ds, s, t, point):
        p, q = UnivariatePolynomial(cs), UnivariatePolynomial(ds)
        a, b = _reference(cs), _reference(ds)
        cases = [
            (p, a), (q, b),
            (p + q, _reference_add(a, b)),
            (p - q, _reference_add(a, _reference_scale(b, -1))),
            (-p, _reference_scale(a, -1)),
            (p * s, _reference_scale(a, s)), (s * p, _reference_scale(a, s)),
            (p + s, _reference_add(a, (s,))), (s - p, _reference_add((s,), _reference_scale(a, -1))),
            (p.affine(s, t), _reference_affine(a, Fraction(s), Fraction(t))),
        ]
        for poly, ref in cases:
            _assert_canonical(poly)
            assert poly.coefficients == ref
            assert all(type(c) is Fraction for c in poly.coefficients)
            assert poly.degree == len(ref) - 1
            assert [poly.coefficient(i) for i in range(len(ref) + 2)] == [*ref, 0, 0]
            assert poly(point) == _reference_eval(ref, point)
            assert str(poly) == _reference_str(ref)
            assert hash(poly) == hash(ref)
            assert (poly == p) == (ref == a) and (poly == q) == (ref == b)
            assert bool(poly) == bool(ref)

    @given(mixed_coefficients, mixed_coefficients)
    @settings(max_examples=80)
    def test_equal_polynomials_from_different_routes(self, cs, ds):
        p, q = UnivariatePolynomial(cs), UnivariatePolynomial(ds)
        routes = [UnivariatePolynomial([*p.coefficients, 0, 0]), (p + q) - q, q + p - q,
                  -(-p), p * 6 * Fraction(1, 6), p * Fraction(1, 3) + p * Fraction(2, 3),
                  p.affine(1, 0), p + UnivariatePolynomial([Fraction(1, 2)]) - Fraction(1, 2)]
        for twin in routes:
            assert twin == p and hash(twin) == hash(p)
            assert (twin._nums, twin._den) == (p._nums, p._den)


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert is_prime(169) is False
