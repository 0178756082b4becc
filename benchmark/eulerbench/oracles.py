"""Expected values computed by the benchmark alone, sharing no code with eulermod.

Three routes, each independent of the program's recurrences and kernel:

* the Seidel boustrophedon (zigzag) triangle, exact or modulo a power of
  two, giving the Euler zigzag numbers A_n.  Then E_n = (-1)**(n/2) A_n for
  even n, and B_2h = (-1)**(h-1) 2h A_(2h-1) / (4**h (4**h - 1));
* Stern's law E_k = E_(k mod 2**n) (mod 2**n), which lets the triangle
  modulo 2**12 pin the low bits of E_k for any huge k;
* the cleared floor-sum congruence evaluated with m = 5, where the program
  uses m = 3.  It pins all n bits of E_k at any k.
"""

from __future__ import annotations

from fractions import Fraction

LOW_BITS = 12  # bits of E_k the modular triangle pins for every k


def zigzag(n_max: int, modulus: int | None = None) -> list[int]:
    """A_0 .. A_n_max from the Seidel-Entringer triangle, exact or mod ``modulus``.

    Row n is T(n, 0) = 0, T(n, i) = T(n, i-1) + T(n-1, n-i), and A_n = T(n, n).
    """
    out = [1]
    row = [1]
    for n in range(1, n_max + 1):
        new = [0] * (n + 1)
        acc = 0
        for i in range(1, n + 1):
            acc += row[n - i]
            if modulus is not None:
                acc %= modulus
            new[i] = acc
        row = new
        out.append(acc)
    return out


def euler_numbers(a: list[int]) -> list[int]:
    """E_0 .. E_(len(a)-1) from the zigzag numbers (zero at odd indices)."""
    return [0 if n % 2 else (-1) ** (n // 2) * a[n] for n in range(len(a))]


def bernoulli_numbers(a: list[int], n_max: int) -> list[Fraction]:
    """B_0 .. B_n_max (B_1 = -1/2) from the zigzag numbers; needs len(a) >= n_max."""
    out = []
    for n in range(n_max + 1):
        if n == 0:
            out.append(Fraction(1))
        elif n == 1:
            out.append(Fraction(-1, 2))
        elif n % 2:
            out.append(Fraction(0))
        else:
            h = n // 2
            out.append(Fraction((-1) ** (h - 1) * n * a[n - 1], 4 ** h * (4 ** h - 1)))
    return out


class LowBits:
    """E_k mod 2**min(n, LOW_BITS) for any even k, by Stern's law and the modular triangle."""

    def __init__(self) -> None:
        self._mod = 1 << LOW_BITS
        self._values = euler_numbers(zigzag(self._mod - 1, self._mod))

    def residue(self, k: int, n: int) -> tuple[int, int]:
        """(E_k mod 2**b, b) with b = min(n, LOW_BITS)."""
        bits = min(n, LOW_BITS)
        mod = 1 << bits
        return self._values[k % self._mod] % mod, bits


def euler_mod_2n(k: int, n: int) -> int:
    """E_k mod 2**n for even k from the cleared congruence with m = 5.

    (5**(k+1) - 1) E_k = 2 * 5**k * S (mod 2**(n+2)), where
    S = sum_{j < 2**n} (-1)**(j-1) (2j+1)**k floor((5j + 2) / 2**n).
    c = (5**(k+1) - 1)/4 is odd for even k, and S is even, so
    E_k = c**-1 * 5**k * S/2 (mod 2**n).
    """
    if k < 0 or k % 2 or n < 1:
        raise ValueError(f"need even k >= 0 and n >= 1, got k={k}, n={n}")
    wide = 1 << (n + 2)
    target = 1 << n
    s = 0
    for j in range(1 << n):
        term = pow(2 * j + 1, k, wide) * ((5 * j + 2) >> n)
        s += term if j % 2 else -term
    s %= wide
    if s % 2:
        raise ArithmeticError(f"floor-weighted sum is odd for k={k}, n={n}")
    c = (pow(5, k + 1, wide) - 1) // 4 % target
    return pow(c, -1, target) * pow(5, k, target) * (s // 2) % target


def v_p(x: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v
