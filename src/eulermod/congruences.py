"""Congruence engine over rational q-integers and the concrete claim checkers.

A rational a/b (lowest terms) is a q-integer when gcd(b, q) = 1; two
q-integers are congruent mod q when their difference is q times another
q-integer.  That relation is the trust root here, so one private kernel,
``_decide``, settles it on plain-integer numerators by two independent
routes that must agree; ``congruent_mod`` and ``poly_congruent_mod`` share it.

On top of it sit the checkers: Euler numbers modulo odd integers via
alternating power sums, the denominator-cleared congruence that pins E_k
modulo powers of two through floor-weighted sums, the fast mod-2**n
evaluator built from it, the Stern valuation suite, polynomial congruences
for Bernoulli/Euler polynomials under argument scaling, the signed floor
sum closed form, and the Kummer/Adams/Thangadurai Bernoulli checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat, zip_longest
from math import comb, gcd
from operator import mul, rshift

from . import special
from .exactmath import (InternalInconsistencyError, RationalLike, UnivariatePolynomial,
                        _ABOVE_ONE, _EVEN_NONNEG, _EVEN_POS, _MODULUS, _NONNEG, _ODD_POS,
                        _ODD_PRIME, _POS, _inverse, _require, v_adic)

__all__ = [
    "QAdicContext",
    "CongruenceReport",
    "ValuationRecord",
    "KummerResult",
    "is_q_integer",
    "congruent_mod",
    "poly_congruent_mod",
    "alternating_power_sum",
    "check_euler_mod_odd",
    "stern_sum",
    "check_euler_mod_two_power",
    "cleared_coefficient_valuation",
    "euler_mod_2n",
    "stern_table",
    "check_power_sum_divisibility",
    "stern_valuation",
    "check_bernoulli_poly_congruence",
    "bernoulli_poly_congruence_route",
    "check_euler_poly_congruence",
    "signed_floor_sum_identity",
    "kummer_check",
    "adams_thangadurai_valuation",
]


@dataclass(frozen=True)
class QAdicContext:
    """The ring of rational q-integers for a fixed modulus q > 1 (q need not be prime)."""

    q: int

    def __post_init__(self) -> None:
        _require(_ABOVE_ONE, "q", self.q)


@dataclass(frozen=True)
class CongruenceReport:
    """Outcome of one congruence check, with the quotient witness.

    When ``holds``, lhs - rhs = modulus * quotient_witness exactly and the
    witness is itself a q-integer, so a reported result can be re-checked by
    hand from the record alone.
    """

    lhs: Fraction
    rhs: Fraction
    modulus: int
    holds: bool
    quotient_witness: Fraction


@dataclass(frozen=True)
class ValuationRecord:
    """One Stern-suite row: 2-adic valuations of the index gap and the value gap."""

    k: int
    l: int
    v_index: int
    v_value: int


@dataclass(frozen=True)
class KummerResult:
    """Kummer congruence outcome plus whether the exponents were congruent mod phi(p**n)."""

    report: CongruenceReport
    exponent_congruent: bool


def is_q_integer(x: RationalLike, ctx: QAdicContext) -> bool:
    """True iff the reduced denominator of x is coprime to q."""
    return gcd(x.denominator, ctx.q) == 1


def _decide(a: int, b: int, c: int, d: int, q: int) -> tuple[bool, int, int]:
    """Decide a/b = c/d (mod q), by two routes that must agree.

    The denominators b and d are positive and prime to q, q > 1; the
    fractions need not be in lowest terms.  Then a/b - c/d = num/den for
    num = a*d - c*b and den = b*d, with den prime to q.  Route one asks
    whether the witness num/(den*q) is a q-integer once reduced; route two
    tests num * den**-1 = 0 mod q.  Disagreement would mean the congruence
    layer itself is broken, so it raises instead of returning.
    """
    num = a * d - c * b
    den = b * d
    scaled = den * q
    holds = gcd(scaled // gcd(num, scaled), q) == 1
    if holds != (num * _inverse(den, q) % q == 0):
        raise InternalInconsistencyError(
            f"congruence routes disagree for {Fraction(a, b)} = {Fraction(c, d)} (mod {q})"
        )
    return holds, num, den


def congruent_mod(x: RationalLike, y: RationalLike, ctx: QAdicContext) -> CongruenceReport:
    """Decide x = y (mod q) over the q-integers, with the quotient witness (x - y)/q."""
    x, y = (v if type(v) is Fraction else Fraction(v) for v in (x, y))
    for value in (x, y):
        if not is_q_integer(value, ctx):
            raise ValueError(f"{value} is not a {ctx.q}-integer")
    holds, num, den = _decide(x.numerator, x.denominator, y.numerator, y.denominator, ctx.q)
    return CongruenceReport(lhs=x, rhs=y, modulus=ctx.q, holds=holds,
                            quotient_witness=Fraction(num, den * ctx.q))


def poly_congruent_mod(P: UnivariatePolynomial, Q: UnivariatePolynomial,
                       ctx: QAdicContext) -> bool:
    """True iff every coefficient pair is congruent mod q (shorter side padded with 0).

    Every pair is decided, so any coefficient outside the q-integers raises.
    The pairs are decided on each side's integer numerators over its one
    denominator, which is prime to q unless some coefficient is not a
    q-integer: the denominator is the lcm of the reduced ones.
    """
    q = ctx.q
    b, d = P._den, Q._den
    if gcd(b * d, q) != 1:
        # the refusal names the first such coefficient; one stored as 2/2 is still a q-integer
        pairs = zip_longest(P.coefficients, Q.coefficients, fillvalue=Fraction(0))
        for i, pair in enumerate(pairs):
            for c in pair:
                if gcd(c.denominator, q) != 1:
                    raise ValueError(f"coefficient {i} = {c} fell outside the {q}-integers")
    holds = True
    for a, c in zip_longest(P._nums, Q._nums, fillvalue=0):
        holds &= _decide(a, b, c, d, q)[0]
    return holds


def alternating_power_sum(q: int, k: int, modulus: int | None = None) -> int:
    """sum_{j=0}^{q-1} (-1)**j (2j+1)**k, exact, or reduced mod ``modulus``."""
    _require(_POS, "q", q)
    _require(_NONNEG, "k", k)
    if modulus is not None:
        _require(_MODULUS, "modulus", modulus)
    # 2j+1 runs over 1, 5, 9, ... for even j and 3, 7, 11, ... for odd j;
    # pow(x, k, None) is the exact power
    total = (sum(map(pow, range(1, 2 * q, 4), repeat(k), repeat(modulus)))
             - sum(map(pow, range(3, 2 * q, 4), repeat(k), repeat(modulus))))
    return total % modulus if modulus else total


def check_euler_mod_odd(k: int, q: int) -> CongruenceReport:
    """E_k against the alternating power sum of q odd-number k-th powers, mod odd q."""
    _require(_EVEN_NONNEG, "k", k)
    _require(_ODD_POS, "q", q)
    e_k = special.euler_number(k)
    s = alternating_power_sum(q, k)
    if q == 1:
        # everything is congruent mod 1
        return CongruenceReport(lhs=Fraction(e_k), rhs=Fraction(s), modulus=1,
                                holds=True, quotient_witness=Fraction(e_k - s))
    return congruent_mod(e_k, s, QAdicContext(q))


def stern_sum(k: int, n: int, m: int, modulus: int | None = None) -> int:
    """Floor-weighted alternating power sum over one block of 2**n odd numbers.

    S = sum_{j=0}^{2**n - 1} (-1)**(j-1) (2j+1)**k floor((j m + (m-1)/2) / 2**n),
    exact, or reduced mod ``modulus`` with modular powering per term.
    """
    _require(_NONNEG, "k", k)
    _require(_POS, "n", n)
    _require(_ODD_POS, "m", m)
    if modulus is not None:
        _require(_MODULUS, "modulus", modulus)
    half = (m - 1) // 2
    end, top = 2 << n, half + (m << n)
    # 2j+1 and the floor numerator j m + half, over even j and over odd j
    even = sum(map(mul, map(pow, range(1, end, 4), repeat(k), repeat(modulus)),
                   map(rshift, range(half, top, 2 * m), repeat(n))))
    odd = sum(map(mul, map(pow, range(3, end, 4), repeat(k), repeat(modulus)),
                  map(rshift, range(half + m, top, 2 * m), repeat(n))))
    total = odd - even
    return total % modulus if modulus else total


def check_euler_mod_two_power(k: int, n: int, m: int) -> CongruenceReport:
    """Denominator-cleared congruence pinning E_k mod powers of two.

    Verifies (m**(k+1) - (-1)**((m-1)/2)) E_k = 2 m**k S (mod 2**(n+2)) with
    S the exact floor-weighted sum, using the exact E_k.  This is the
    fractional congruence multiplied through by its exact denominator 4 with
    the modulus raised to match, which keeps the whole check in plain
    integers: halves are not units modulo a power of two, so they must never
    appear.
    """
    _require(_EVEN_NONNEG, "k", k)
    eps = -1 if ((m - 1) // 2) % 2 else 1
    s = stern_sum(k, n, m)
    lhs = (m ** (k + 1) - eps) * special.euler_number(k)
    rhs = 2 * m ** k * s
    return congruent_mod(lhs, rhs, QAdicContext(1 << (n + 2)))


def cleared_coefficient_valuation(k: int, m: int) -> int:
    """2-adic valuation of (m**(k+1) - (-1)**((m-1)/2)) / 4 for even k, odd m.

    The cleared congruence divides by this coefficient only when it is odd;
    sweeps record the valuation so the cases where the coefficient is even
    (e.g. m = 7) are visible in the output.
    """
    _require(_EVEN_NONNEG, "k", k)
    _require(_ODD_POS, "m", m)
    eps = -1 if ((m - 1) // 2) % 2 else 1
    value = m ** (k + 1) - eps
    if value == 0:  # m = 1: coefficient degenerates to zero
        return -1
    return v_adic(Fraction(value, 4), 2)


def _folded_terms(n: int) -> int:
    """J = floor((2**n - 2)/3) + 1: how many j in [0, 2**n) have floor weight 0 for m = 3."""
    return ((1 << n) - 2) // 3 + 1


def _kernel_terms(n: int) -> int:
    """How many x_j ``euler_mod_2n`` powers: J(n - 1) after the second fold, 1 for n = 1."""
    return _folded_terms(n - 1) if n > 1 else 1


def _cleared_residue(k: int, n: int, three: int, half_s: int) -> int:
    """c**-1 * 3**k * (S/2) mod 2**n from three = 3**k mod 2**(n+2); see ``euler_mod_2n``.

    E_k is odd for even k, so an even residue falsifies the congruence and raises.
    """
    target = 1 << n
    c = (3 * three + 1) // 4
    residue = pow(c, -1, target) * three * half_s % target
    if residue % 2 == 0:
        raise InternalInconsistencyError(f"E_k mod 2**n came out even for k={k}, n={n}; E_k "
                                         "is odd for even k, so the cleared congruence fails")
    return residue


def euler_mod_2n(k: int, n: int) -> int:
    """E_k mod 2**n computed without the exact Euler number.

    With x_j = 2j+1 and the floor weights w_j = floor((3j+1)/2**n), the
    cleared congruence with m = 3 reads

        E_k  =  c**-1 * 3**k * (S/2)   (mod 2**n),   c = (3**(k+1) + 1)/4,

    where S = sum_j (-1)**(j-1) w_j x_j**k over j in [0, 2**n), and c is
    odd for even k.  Three exact identities make S cheap:

    - Fold.  For j' = 2**n-1-j, x_j' = 2**(n+1) - x_j, so x_j'**k = x_j**k
      (mod 2**(n+2)) for even k; j and j' have opposite signs and
      w_j + w_j' = 2.  The middle terms (weight 1) cancel in pairs, and
      S = 2 sum_{j<J} (-1)**j x_j**k (mod 2**(n+2)), where J, about 2**n/3,
      counts the weight-0 terms.
    - Second fold.  Only S/2 mod 2**n enters, and for n >= 2 the index
      j' = 2**(n-1)-1-j gives x_j' = 2**n - x_j, the same even power mod
      2**n, with the opposite sign.  The pairs with both j, j' < J cancel,
      which leaves S/2 = sum_{j<J(n-1)} (-1)**j x_j**k (mod 2**n), about
      2**n/6 terms (``_kernel_terms``).
    - Exponent reduction.  The unit group mod 2**(n+2) has exponent 2**n,
      so every power uses k mod 2**n instead of k.

    Cost is at most about (2**n/6) * 2n modular multiplications, whatever the
    size of k.  ``stern_table`` sums all J terms, so it checks the second
    fold; ``stern_sum`` and ``alternating_power_sum`` stay unfolded: they are
    the independent route that certifies these identities.
    """
    _require(_EVEN_NONNEG, "k", k)
    _require(_POS, "n", n)
    target = 1 << n
    r = k % target
    # x_j = 1, 5, 9, ... for even j and 3, 7, 11, ... for odd j
    end = 2 * _kernel_terms(n)
    half_s = (sum(map(pow, range(1, end, 4), repeat(r), repeat(target)))
              - sum(map(pow, range(3, end, 4), repeat(r), repeat(target))))
    return _cleared_residue(k, n, pow(3, r, target << 2), half_s)


def stern_table(n: int) -> dict[int, int]:
    """E_k mod 2**n for every even k in [0, 2**n - 2], keyed by k.

    Stern's law E_k = E_(k mod 2**n) (mod 2**n) makes this the whole
    periodic table.  It sums S/2 over all J folded terms by a second route,
    the binomial expansion, without the second fold of ``euler_mod_2n``, so
    the two routes check each other: with k = 2t,

        x_j**k = (1 + 4j(j+1))**t = sum_i C(t, i) (4j(j+1))**i,

    and 8**i divides (4j(j+1))**i, so the terms with 3i >= n vanish and

        S/2 = sum_{i < ceil(n/3)} C(t, i) A_i   (mod 2**n),
        A_i = sum_{j<J} (-1)**j (4j(j+1))**i.

    The A_i are summed once per n; each row costs ceil(n/3) products and steps 3**k by 9.
    """
    _require(_POS, "n", n)
    target = 1 << n
    ys = [4 * j * (j + 1) for j in range(_folded_terms(n))]
    sums = [sum(map(pow, ys[0::2], repeat(i), repeat(target)))
            - sum(map(pow, ys[1::2], repeat(i), repeat(target))) for i in range((n + 2) // 3)]
    table, three = {}, 1
    for t in range(target >> 1):
        half_s = sum(comb(t, i) * a for i, a in enumerate(sums))
        table[2 * t] = _cleared_residue(2 * t, n, three, half_s)
        three = three * 9 % (target << 2)
    return table


def check_power_sum_divisibility(k: int, n: int) -> bool:
    """Whether 2**(n+1) divides the alternating power sum over a full 2**n block."""
    _require(_EVEN_NONNEG, "k", k)
    _require(_POS, "n", n)
    modulus = 1 << (n + 1)
    return alternating_power_sum(1 << n, k, modulus=modulus) == 0


def stern_valuation(k: int, l: int) -> ValuationRecord:
    """2-adic valuations of k - l and E_k - E_l (exact tables); they should match."""
    _require(_EVEN_NONNEG, "k", k)
    _require(_EVEN_NONNEG, "l", l)
    if k == l:
        raise ValueError("indices must differ")
    e_k, e_l = special.euler_number(k), special.euler_number(l)
    return ValuationRecord(k=k, l=l, v_index=v_adic(k - l, 2), v_value=v_adic(e_k - e_l, 2))


def _floor_sum_terms(a: int, m: int, q: int, k: int, alternating: bool) -> UnivariatePolynomial:
    """sum_j [sign] (floor((a + j m)/q) + (1-m)/2) (x + a + j m)**k for j in [0, q).

    With t_j = a + j m the doubled weight 2 w_j = 2 floor(t_j/q) + 1 - m is
    an integer, so one list of integer sums s_e = sum_j [sign] 2 w_j t_j**e
    carries the whole polynomial: the coefficient of x**i is
    C(k, i) s_(k-i) / 2, a q-integer whenever gcd(m, q) = 1 because q or m
    is odd.
    """
    sums = [0] * (k + 1)
    for j in range(q):
        t = a + j * m
        term = 2 * (t // q) + 1 - m
        if alternating and j % 2 == 0:
            term = -term
        for e in range(k + 1):
            sums[e] += term
            term *= t
    return UnivariatePolynomial._over([comb(k, i) * sums[k - i] for i in range(k + 1)], 2)


@lru_cache(maxsize=1)
def _bernoulli_lhs(b_k: UnivariatePolynomial, a: int, k: int,
                   m: int) -> tuple[UnivariatePolynomial, UnivariatePolynomial]:
    """(m**k B_k((x+a)/m) - B_k(x), and that times 1/k): claim 2.2's cleared and stated sides."""
    difference = m ** k * b_k.affine(Fraction(1, m), Fraction(a, m)) - b_k
    return difference, Fraction(1, k) * difference


@lru_cache(maxsize=1)
def _euler_lhs(e_k: UnivariatePolynomial, a: int, k: int, m: int) -> UnivariatePolynomial:
    """(m**(k+1)/2) E_k((x+a)/m) - ((-1)**a/2) E_k(x): claim 2.3's left side."""
    sign = -1 if a % 2 else 1
    return (m ** (k + 1) * e_k.affine(Fraction(1, m), Fraction(a, m)) - sign * e_k) * Fraction(1, 2)


def _decide_poly_claim(lhs: UnivariatePolynomial, rhs: UnivariatePolynomial,
                       ctx: QAdicContext) -> bool:
    """``poly_congruent_mod``; a coefficient outside the q-integers falsifies the claim."""
    try:
        return poly_congruent_mod(lhs, rhs, ctx)
    except ValueError as exc:
        raise InternalInconsistencyError(str(exc)) from exc


def bernoulli_poly_congruence_route(k: int, q: int) -> str:
    """Which form the Bernoulli polynomial congruence check runs for (k, q).

    "stated" divides by k (1/k is a q-integer); "cleared" multiplies both
    sides by k instead, which is the only form that stays inside the
    q-integers when k shares a factor with q.
    """
    return "stated" if gcd(k, q) == 1 else "cleared"


def check_bernoulli_poly_congruence(a: int, k: int, m: int, q: int) -> bool:
    """Scaling congruence for Bernoulli polynomials against a floor-weighted sum.

    Checks (1/k)(m**k B_k((x+a)/m) - B_k(x)) against
    sum_j (floor((a+jm)/q) + (1-m)/2)(x + a + jm)**(k-1) coefficientwise
    mod q.  When 1/k is not a q-integer the k-cleared form is checked
    instead (see ``bernoulli_poly_congruence_route``).  A coefficient outside
    the q-integers would falsify the claim, so it raises, as in 2.3.

    The left side does not depend on q, so both of its forms are memoized
    for the last (B_k, a, k, m) (``_bernoulli_lhs``): a sweep with q
    innermost builds them once per (a, k, m).  The key holds the source
    polynomial B_k itself, not only k, so a changed B_k (a monkeypatched
    one, say) is never answered with the old left side.  The floor sum and
    the decision still run for every q.
    """
    _require(_POS, "k", k)
    _require(_POS, "m", m)
    _require(_ABOVE_ONE, "q", q)
    if gcd(m, q) != 1:
        raise ValueError(f"m and q must be coprime, got m={m}, q={q}")
    ctx = QAdicContext(q)
    difference, stated = _bernoulli_lhs(special.bernoulli_polynomial(k), a, k, m)
    rhs = _floor_sum_terms(a, m, q, k - 1, alternating=False)
    if bernoulli_poly_congruence_route(k, q) == "stated":
        return _decide_poly_claim(stated, rhs, ctx)
    return _decide_poly_claim(difference, k * rhs, ctx)


def check_euler_poly_congruence(a: int, k: int, m: int, q: int) -> bool:
    """Scaling congruence for Euler polynomials against an alternating floor sum.

    Checks (m**(k+1)/2) E_k((x+a)/m) - ((-1)**a/2) E_k(x) against
    sum_j (-1)**(j-1)(floor((a+jm)/q) + (1-m)/2)(x + a + jm)**k mod even q.
    Every coefficient must land in the q-integers despite the halves; one
    that does not would falsify the claim, so it raises rather than returns.

    The left side does not depend on q, so it is memoized for the last
    (E_k, a, k, m) (``_euler_lhs``): a sweep with q innermost builds it once
    per (a, k, m).  The key holds the source polynomial E_k itself, not only
    k, so a changed E_k (a monkeypatched one, say) is never answered with
    the old left side.  The floor sum and the decision still run for every q.
    """
    _require(_NONNEG, "k", k)
    _require(_POS, "m", m)
    _require(_EVEN_POS, "q", q)
    if gcd(m, q) != 1:
        raise ValueError(f"m and q must be coprime, got m={m}, q={q}")
    ctx = QAdicContext(q)
    lhs = _euler_lhs(special.euler_polynomial(k), a, k, m)
    rhs = _floor_sum_terms(a, m, q, k, alternating=True)
    return _decide_poly_claim(lhs, rhs, ctx)


def signed_floor_sum_identity(a: int, m: int, q: int) -> tuple[Fraction, Fraction]:
    """Computed and closed forms of the signed floor sum; they are exactly equal.

    computed = sum_{j=0}^{q-1} (-1)**(j-1) (floor((a+jm)/q) + (1-m)/2),
    closed   = (m - (-1)**a)/2.  Exact identity, not a congruence.
    """
    _require(_EVEN_POS, "q", q)
    _require(_POS, "m", m)
    if gcd(m, q) != 1:
        raise ValueError(f"m and q must be coprime, got m={m}, q={q}")
    computed = _floor_sum_terms(a, m, q, 0, alternating=True).coefficient(0)
    sign = -1 if a % 2 else 1
    return computed, Fraction(m - sign, 2)


def kummer_check(p: int, n: int, k: int, l: int) -> KummerResult:
    """B_k/k against B_l/l mod p**n, plus whether k = l mod phi(p**n).

    Exponent congruence guarantees the value congruence; the converse can
    fail, which is exactly what makes the (p, n, k, l) = (13, 2, 16, 4)
    instance interesting.  Requires p odd prime with p - 1 dividing neither
    k nor l, so both values are p-integers.
    """
    _require(_ODD_PRIME, "p", p)
    _require(_POS, "n", n)
    for name, index in (("k", k), ("l", l)):
        _require(_EVEN_POS, name, index)
        if index % (p - 1) == 0:
            raise ValueError(
                f"p - 1 = {p - 1} divides {index}; B_{index}/{index} is not a {p}-integer"
            )
    lhs = special.bernoulli_number(k) / k
    rhs = special.bernoulli_number(l) / l
    report = congruent_mod(lhs, rhs, QAdicContext(p ** n))
    totient = p ** (n - 1) * (p - 1)
    return KummerResult(report=report, exponent_congruent=(k - l) % totient == 0)


def adams_thangadurai_valuation(p: int, k: int) -> tuple[int, int]:
    """(v_p(k), v_p of the numerator of B_k) for an odd prime p with p-1 not dividing k.

    The numerator valuation is always >= v_p(k); the conjectured ceiling is
    v_p(k) + 1 when v_p(k) > 0.  Callers assert whichever side they sweep.
    """
    _require(_ODD_PRIME, "p", p)
    _require(_EVEN_POS, "k", k)
    if k % (p - 1) == 0:
        raise ValueError(f"p - 1 = {p - 1} divides {k}; p sits in the denominator of B_{k}")
    n = v_adic(k, p)
    numerator = special.bernoulli_number(k).numerator
    return n, v_adic(numerator, p)
