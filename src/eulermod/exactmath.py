"""Exact integer, rational, and polynomial kernels plus elementary modular arithmetic.

Everything here is pure and deterministic; values are immutable once built, so
they are safe to share across threads.  Rationals are ``fractions.Fraction``
(always in lowest terms, positive denominator).  A polynomial is integer
numerators over one positive denominator, in lowest terms; its arithmetic runs
on plain ints, and its ``coefficients`` are built as ``Fraction``s on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Callable, Iterable, NamedTuple, Union

RationalLike = Union[int, Fraction]

__all__ = [
    "NotInvertibleError",
    "InternalInconsistencyError",
    "is_prime",
    "v_adic",
    "extended_gcd",
    "mod_inverse",
    "multiplicative_order",
    "OddResidueDecomposition",
    "decompose_odd_residue",
    "UnivariatePolynomial",
]


class NotInvertibleError(ValueError):
    """The element shares a factor with the modulus and has no inverse."""


class InternalInconsistencyError(RuntimeError):
    """Two routes that must agree did not: a falsified claim or a bug, never ignorable."""


def is_prime(n: int) -> bool:
    """Trial-division primality test; adequate for the desk-scale primes used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class _Rule(NamedTuple):
    """A hypothesis on one integer argument: how a refusal names it, and its test."""

    description: str
    holds: Callable[[int], bool]


# The parity and range hypotheses of the paper's statements, read both by the
# library's refusals (``_require``) and by the CLI's argparse types.
_NONNEG = _Rule(">= 0", lambda v: v >= 0)
_POS = _Rule(">= 1", lambda v: v >= 1)
_ABOVE_ONE = _Rule("> 1", lambda v: v > 1)
_MODULUS = _Rule(">= 2", lambda v: v >= 2)
_EVEN_NONNEG = _Rule("even and >= 0", lambda v: v >= 0 and v % 2 == 0)
_EVEN_POS = _Rule("even and >= 2", lambda v: v >= 2 and v % 2 == 0)
_ODD_POS = _Rule("odd and >= 1", lambda v: v >= 1 and v % 2 == 1)
_ODD_PRIME = _Rule("an odd prime", lambda v: v > 2 and is_prime(v))


def _require(rule: _Rule, name: str, value: int) -> None:
    """Refuse value unless it obeys rule: ``ValueError("NAME must be RULE, got V")``."""
    if not rule.holds(value):
        raise ValueError(f"{name} must be {rule.description}, got {value}")


def _int_valuation(n: int, p: int) -> int:
    # n > 0; counts the exact power of p dividing n
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    while True:
        q, r = divmod(n, p)
        if r:
            return v
        n = q
        v += 1


def v_adic(x: RationalLike, p: int) -> int:
    """Exponent of the prime p in x: v_p(numerator) - v_p(denominator).

    For a nonzero integer this is the exact n with p^n dividing x but p^(n+1)
    not.  Zero has no finite valuation and is rejected; callers must branch
    on it first.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if x == 0:
        raise ValueError("zero has no finite valuation")
    return _int_valuation(abs(x.numerator), p) - _int_valuation(x.denominator, p)


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) >= 0 and g = s*a + t*b."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def mod_inverse(x: int, modulus: int) -> int:
    """Inverse of x modulo modulus by the built-in ``pow``; requires gcd(x, modulus) = 1."""
    _require(_MODULUS, "modulus", modulus)
    return _inverse(x, modulus)


def _inverse(x: int, modulus: int) -> int:
    """``mod_inverse`` for a modulus the caller has already checked."""
    try:
        return pow(x, -1, modulus)
    except ValueError:
        raise NotInvertibleError(
            f"{x} is not invertible mod {modulus} (gcd = {gcd(x, modulus)})"
        ) from None


def _factorize(n: int) -> dict[int, int]:
    # trial division; desk scale only
    factors: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        while n % f == 0:
            factors[f] = factors.get(f, 0) + 1
            n //= f
        f += 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def _carmichael(modulus: int) -> int:
    # exponent of the unit group (Carmichael function)
    lam = 1
    for p, e in _factorize(modulus).items():
        if p == 2:
            pe_lam = 2 ** max(e - 2, 0) if e >= 3 else 2 ** (e - 1)
        else:
            pe_lam = (p - 1) * p ** (e - 1)
        lam = lam * pe_lam // gcd(lam, pe_lam)
    return lam


def multiplicative_order(x: int, modulus: int) -> int:
    """Least d >= 1 with x**d = 1 mod modulus; requires gcd(x, modulus) = 1.

    Starts from the unit-group exponent and strips prime factors that are
    not needed, so the modulus 2**20 costs a handful of powerings rather
    than a scan.
    """
    _require(_MODULUS, "modulus", modulus)
    x %= modulus
    if gcd(x, modulus) != 1:
        raise NotInvertibleError(f"{x} shares a factor with {modulus}; order undefined")
    order = _carmichael(modulus)
    for p in _factorize(order):
        while order % p == 0 and pow(x, order // p, modulus) == 1:
            order //= p
    return order


@dataclass(frozen=True)
class OddResidueDecomposition:
    """x written as (-1)**a * 5**b modulo 2**t, with a in {0,1} and 0 <= b < 2**(t-2)."""

    sign_exponent: int
    power_exponent: int
    modulus_exponent: int

    def residue(self) -> int:
        """The odd residue this decomposition represents, in [0, 2**t)."""
        mod = 1 << self.modulus_exponent
        r = pow(5, self.power_exponent, mod)
        return (mod - r) % mod if self.sign_exponent else r


def decompose_odd_residue(x: int, t: int) -> OddResidueDecomposition:
    """Unique (a, b) with (-1)**a * 5**b = x mod 2**t, a in {0,1}, 0 <= b < 2**(t-2).

    Direct scan over powers of 5; the scan is fine at desk scale (t up to
    roughly 24).  The map (a, b) -> residue is a bijection onto the odd
    residues mod 2**t, so the scan always succeeds.
    """
    if t < 3:
        raise ValueError(f"modulus exponent must be >= 3, got {t}")
    if x % 2 == 0:
        raise ValueError(f"{x} is even; only odd residues decompose")
    mod = 1 << t
    target = x % mod
    power = 1
    for b in range(1 << (t - 2)):
        if power == target:
            return OddResidueDecomposition(0, b, t)
        if mod - power == target:
            return OddResidueDecomposition(1, b, t)
        power = power * 5 % mod
    raise InternalInconsistencyError(
        f"odd residue {target} mod 2**{t} escaped the (-1)**a 5**b lattice"
    )


class UnivariatePolynomial:
    """Dense univariate polynomial with exact rational coefficients; immutable.

    Coefficient i is the coefficient of x**i.  It is stored as integer
    numerators over one positive denominator, ``_nums[i] / _den``, in one
    canonical form: gcd(_den, *_nums) = 1 and no trailing zero numerator, so
    equal polynomials store equal integers.  The zero polynomial stores no
    numerators over 1 and reports degree -1.  Arithmetic runs on the plain
    integers; ``coefficients`` and ``coefficient`` build ``Fraction``s only
    when asked.
    """

    __slots__ = ("_nums", "_den", "_hash")

    def __init__(self, coefficients: Iterable[RationalLike] = ()) -> None:
        values = [_rational(c) for c in coefficients]
        den = lcm(*(c.denominator for c in values))
        self._nums, self._den = _canonical(
            [c.numerator * (den // c.denominator) for c in values], den)

    @classmethod
    def _over(cls, nums: list[int], den: int) -> "UnivariatePolynomial":
        """sum_i nums[i] x**i / den for a list of ints and an int den > 0; may change nums."""
        poly = object.__new__(cls)
        poly._nums, poly._den = _canonical(nums, den)
        return poly

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple([Fraction(c, den) for c in self._nums])

    @property
    def degree(self) -> int:
        return len(self._nums) - 1

    def coefficient(self, i: int) -> Fraction:
        """Coefficient of x**i (zero beyond the stored degree)."""
        if i < 0:
            raise ValueError(f"negative index {i}")
        return Fraction(self._nums[i], self._den) if i < len(self._nums) else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UnivariatePolynomial):
            return self._den == other._den and self._nums == other._nums
        if isinstance(other, (int, Fraction)):
            return self == UnivariatePolynomial((other,))
        return NotImplemented

    def __hash__(self) -> int:
        # computed on first use: most polynomials are never hashed
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self.coefficients)
            return self._hash

    def __neg__(self) -> "UnivariatePolynomial":
        return UnivariatePolynomial._over([-c for c in self._nums], self._den)

    def __add__(self, other: "UnivariatePolynomial | RationalLike") -> "UnivariatePolynomial":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._nums, other._nums
        den = self._den
        if den != other._den:
            den = lcm(den, other._den)
            fa, fb = den // self._den, den // other._den
            a = [c * fa for c in a]
            b = [c * fb for c in b]
        if len(a) < len(b):
            a, b = b, a
        return UnivariatePolynomial._over([*map(add, a, b), *a[len(b):]], den)

    __radd__ = __add__

    def __sub__(self, other: "UnivariatePolynomial | RationalLike") -> "UnivariatePolynomial":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "UnivariatePolynomial | RationalLike") -> "UnivariatePolynomial":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: RationalLike) -> "UnivariatePolynomial":
        """Multiply by a rational scalar; products of two polynomials are not offered."""
        if isinstance(other, (int, Fraction)):
            s = other.numerator
            return UnivariatePolynomial._over([c * s for c in self._nums],
                                              self._den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __call__(self, point: RationalLike) -> Fraction:
        """Evaluate at a rational point u/v by Horner's rule on the integers, over den v**d."""
        nums = self._nums
        if not nums:
            return Fraction(0)
        point = _rational(point)
        u, v = point.numerator, point.denominator
        acc, power = nums[-1], 1
        for c in reversed(nums[:-1]):
            power *= v
            acc = acc * u + c * power
        return Fraction(acc, self._den * power)

    def affine(self, scale: RationalLike, shift: RationalLike) -> "UnivariatePolynomial":
        """self(scale*x + shift), expanded exactly by an integer Taylor shift.

        With shift = u/v, degree d and the stored numerators a_i over D, the
        integers b_i = a_i v**(d-i) are shifted by u in place, O(d**2)
        integer additions (von zur Gathen and Gerhard, "Fast algorithms for
        Taylor shifts and certain difference equations", ISSAC 1997).  With
        scale * v = s/r in lowest terms, coefficient i of the result is
        b_i s**i r**(d-i) over the one denominator D v**d r**d.
        """
        b = list(self._nums)
        if not b:
            return self
        shift, scale = _rational(shift), _rational(scale)
        u, v = shift.numerator, shift.denominator
        d = len(b) - 1
        if v != 1:
            power = 1
            for i in range(d - 1, -1, -1):
                power *= v
                b[i] *= power
        if u:
            for i in range(d):
                for j in range(d - 1, i - 1, -1):
                    b[j] += u * b[j + 1]
        s, r = scale.numerator * v, scale.denominator
        g = gcd(s, r)
        s, r = s // g, r // g
        if s != 1:
            power = 1
            for i in range(1, d + 1):
                power *= s
                b[i] *= power
        if r != 1:
            power = 1
            for i in range(d - 1, -1, -1):
                power *= r
                b[i] *= power
        return UnivariatePolynomial._over(b, self._den * (v * r) ** d)

    def __str__(self) -> str:
        coeffs = self.coefficients
        if not coeffs:
            return "0"
        parts = []
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
            if not c:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = abs(c)
                head = "" if mag == 1 else f"{mag}*"
                term = f"{head}x" if i == 1 else f"{head}x^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"UnivariatePolynomial({self.coefficients!r})"


def _canonical(nums: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """(nums, den) with trailing zeros stripped and the common factor divided out."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return (), 1
    g = gcd(den, *nums)
    if g != 1:
        # a list first: tuple() of a generator is resized, and resized tuples
        # pile up on the interpreter's tuple free lists, raising peak memory
        return tuple([c // g for c in nums]), den // g
    return tuple(nums), den


def _rational(value: RationalLike) -> RationalLike:
    return value if isinstance(value, (int, Fraction)) else Fraction(value)


def _as_poly(value: "UnivariatePolynomial | RationalLike"):
    if isinstance(value, UnivariatePolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return UnivariatePolynomial((value,))
    return NotImplemented
