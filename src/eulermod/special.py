"""Exact Euler and Bernoulli numbers/polynomials, classical identities, table caching.

The two number tables are memoized module singletons: sweeps over thousands of
indices reuse one growing table instead of recomputing quadratically.  Both are
one table class, ``_ColumnTable``, on one kernel, the Brent-Harvey column
recurrence (``_column_step``); ``EulerNumberTable`` and
``BernoulliNumberTable`` set only its gap, seed, fixed entries and row
recurrence, and the cache loader runs the same checks on each.  Tables are
append-only; each extends under its own lock, so concurrent callers never
interleave rows, and readers only ever observe a fully computed prefix.
"""

from __future__ import annotations

import contextlib
import os
import random
import sys
import threading
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, lgamma, log, perm

from .exactmath import InternalInconsistencyError, UnivariatePolynomial, _NONNEG, _POS, _require

__all__ = [
    "EulerNumberTable",
    "BernoulliNumberTable",
    "CacheError",
    "euler_number",
    "bernoulli_number",
    "euler_table",
    "bernoulli_table",
    "euler_polynomial",
    "bernoulli_polynomial",
    "check_raabe",
    "check_euler_bernoulli_relation",
    "check_reflection",
    "secant_series_oracle",
    "save_tables",
    "load_tables",
]


class CacheError(ValueError):
    """A table cache file is malformed or fails validation; the load is refused."""


def _binomial_terms(values, n: int, step: int) -> tuple[list[int], int]:
    """C(n, k) values[k] for k = 0, step, 2 step, ... below len(values), over one denominator.

    Returns the integer numerators and their denominator, the lcm of the
    values' denominators.  Each C(n, k) comes from the previous one by exact
    division, so the walk costs O(len(values) / step) big-integer
    multiplications.  It is the one binomial loop behind the row recurrences
    and the polynomials.
    """
    den = lcm(*(v.denominator for v in values[::step]))
    terms = []
    c = 1  # C(n, k)
    for k in range(0, len(values), step):
        if k:
            c = c * perm(n - k + step, step) // perm(k, step)
        v = values[k]
        terms.append(c * v.numerator * (den // v.denominator))
    return terms, den


def _euler_row(values, m: int) -> int:
    """E_m = -sum over k < m with m - k even of C(m, k) E_k, from the integers below m.

    The table grows by its column, not by this: it is the table's ``_row``,
    which re-derives cached rows in the tamper check, and it serves the tests
    as a second route.
    """
    if m % 2:
        # the sum ranges over odd k < m, whose entries are all zero
        return 0
    return -sum(_binomial_terms(values[:m], m, 2)[0])


def _bernoulli_row(values, m: int) -> Fraction:
    """B_m from the entries below it: sum_{k<=m} C(m+1, k) B_k = 0 solved for B_m.

    Like ``_euler_row``, kept for the tamper check and as a test oracle.
    """
    terms, den = _binomial_terms(values[:m], m + 1, 1)
    return Fraction(-sum(terms), den * (m + 1))


def _column_step(column: list[int], gap: int) -> int:
    """Step a Brent-Harvey column one index in place; return the multiplies spent.

    With a = len(column) the new column is c'[k] = (a-k) c[k] + (a+gap-k) c'[k-1]
    for k < a (c'[-1] = 0), then c'[a] = gap c'[a-1]: every multiplier is a
    small integer.  With gap 1 a column of length a ending in the secant number
    S_(a-1) steps to one ending in S_a; with gap 2 a column ending in the
    tangent number T_a steps to one ending in T_(a+1).  The empty column steps
    to [1], the seed T_1 = 1.  (Brent and Harvey, "Fast computation of
    Bernoulli, tangent and secant numbers", arXiv:1108.0286.)
    """
    a = len(column)
    if not a:
        column.append(1)
        return 0
    prev = 0
    for k in range(a):
        prev = (a - k) * column[k] + (a + gap - k) * prev
        column[k] = prev
    column.append(gap * prev)
    return 2 * a + 1


class _ColumnTable:
    """Growable memoized table on one Brent-Harvey column (``_column_step``).

    A subclass sets what differs between E and B: the column's ``_GAP`` and
    ``_SEED``, its ``_KIND`` letter, ``_entry`` (the column's last entry as an
    (index, value) pair), ``_FIXED`` (the entries at index 0, at index 1 and at
    every odd index past 1), ``_ODD_INTEGERS`` (whether the entries at even
    indices are odd integers) and ``_row``, the binomial recurrence that
    re-derives one entry from those below it for the cache check.  Each new
    even index costs O(index) small-by-big multiplications.  Append-only: an
    index, once filled, never changes.  ``multiplications`` counts the
    kernel's multiplications, for benchmark reports.
    """

    _ODD_INTEGERS = False

    def __init__(self) -> None:
        self._values: list = [self._FIXED[0]]
        self._column: list[int] = list(self._SEED)
        self.multiplications = 0
        self._lock = threading.Lock()

    @classmethod
    def _fixed(cls, m: int):
        """The entry at m when the structure fixes it (m = 0 or m odd), else None."""
        if m < 2:
            return cls._FIXED[m]
        return cls._FIXED[2] if m % 2 else None

    @property
    def computed_up_to(self) -> int:
        return len(self._values) - 1

    def extend_to(self, n: int) -> None:
        if self.computed_up_to >= n:
            return
        with self._lock:
            while self.computed_up_to < n:
                m = self.computed_up_to + 1
                fixed = self._fixed(m)
                self._values.append(self._from_column(m) if fixed is None else fixed)

    def _from_column(self, m: int):
        """The entry at even index m == len(self._values), from the column.

        The column normally ends at index m - 2 and takes one step.  After a
        cache load it ends lower, and stepping it up to m replays every loaded
        entry in between: one that differs from its replay raises, and the
        column restarts from its seed so that every later extension raises
        again.
        """
        while True:
            self.multiplications += _column_step(self._column, self._GAP)
            index, value = self._entry(self._column)
            if index == m:
                return value
            if value != self._values[index]:
                self._column = list(self._SEED)
                raise InternalInconsistencyError(
                    f"replaying the table kernel: {self._KIND} {index} differs from "
                    "the value loaded from the cache"
                )

    def value(self, n: int):
        _require(_NONNEG, "index", n)
        self.extend_to(n)
        return self._values[n]

    def snapshot(self) -> tuple:
        """The fully computed prefix, safe to read concurrently."""
        return tuple(self._values)


class EulerNumberTable(_ColumnTable):
    """Growable memoized table of Euler numbers E_0, E_1, ... (exact integers).

    Built on the secant-number column (gap 1): E_2k = (-1)**k S_k, and odd
    entries are 0.
    """

    _GAP = 1
    _SEED = (1,)  # S_0, the column behind E_0
    _KIND = "E"
    _FIXED = (1, 0, 0)
    _ODD_INTEGERS = True  # E_2k is odd
    _row = staticmethod(_euler_row)

    @staticmethod
    def _entry(column: list[int]) -> tuple[int, int]:
        k = len(column) - 1
        return 2 * k, -column[k] if k % 2 else column[k]


class BernoulliNumberTable(_ColumnTable):
    """Growable memoized table of Bernoulli numbers B_0, B_1, ... (exact rationals).

    Built on the tangent-number column (gap 2):
    B_2k = (-1)**(k-1) 2k T_k / (4**k (4**k - 1)), B_1 = -1/2, and odd entries
    past 1 are 0.
    """

    _GAP = 2
    _SEED = ()  # steps to [T_1], the column behind B_2
    _KIND = "B"
    _FIXED = (Fraction(1), Fraction(-1, 2), Fraction(0))
    _row = staticmethod(_bernoulli_row)

    @staticmethod
    def _entry(column: list[int]) -> tuple[int, Fraction]:
        k = len(column)
        numerator = 2 * k * column[-1]
        four_k = 1 << (2 * k)
        return 2 * k, Fraction(numerator if k % 2 else -numerator, four_k * (four_k - 1))


_EULER = EulerNumberTable()
_BERNOULLI = BernoulliNumberTable()


def euler_table() -> EulerNumberTable:
    """The process-wide memoized Euler table."""
    return _EULER


def bernoulli_table() -> BernoulliNumberTable:
    """The process-wide memoized Bernoulli table."""
    return _BERNOULLI


def euler_number(n: int) -> int:
    """Exact E_n from the memoized table."""
    return _EULER.value(n)


def bernoulli_number(n: int) -> Fraction:
    """Exact B_n (convention B_1 = -1/2) from the memoized table."""
    return _BERNOULLI.value(n)


@lru_cache(maxsize=None)
def euler_polynomial(n: int) -> UnivariatePolynomial:
    """E_n(x) = sum_k C(n, k) E_k / 2**k * (x - 1/2)**(n-k): monic, degree n."""
    _require(_NONNEG, "index", n)
    _EULER.extend_to(n)
    terms, _ = _binomial_terms(_EULER._values[:n + 1], n, 2)
    nums = [0] * (n + 1)  # over 2**n
    nums[n::-2] = [t << (n - k) for k, t in zip(range(0, n + 1, 2), terms)]
    return UnivariatePolynomial._over(nums, 1 << n).affine(1, Fraction(-1, 2))


@lru_cache(maxsize=None)
def bernoulli_polynomial(n: int) -> UnivariatePolynomial:
    """B_n(x) = sum_k C(n, k) B_k x**(n-k): monic, degree n."""
    _require(_NONNEG, "index", n)
    _BERNOULLI.extend_to(n)
    terms, den = _binomial_terms(_BERNOULLI._values[:n + 1], n, 1)
    return UnivariatePolynomial._over(terms[::-1], den)


def check_raabe(n: int, m: int) -> bool:
    """Multiplication formula: m**(n-1) * sum_r B_n((x+r)/m) equals B_n(x) exactly."""
    _require(_NONNEG, "n", n)
    _require(_POS, "m", m)
    b = bernoulli_polynomial(n)
    total = UnivariatePolynomial()
    for r in range(m):
        total = total + b.affine(Fraction(1, m), Fraction(r, m))
    return Fraction(m) ** (n - 1) * total == b


def check_euler_bernoulli_relation(n: int) -> bool:
    """Both exact forms tying (n+1)/2 * E_n(x) to B_{n+1} at x/2 and (x+1)/2."""
    _require(_NONNEG, "index", n)
    lhs = Fraction(n + 1, 2) * euler_polynomial(n)
    b = bernoulli_polynomial(n + 1)
    two = 1 << (n + 1)
    half = Fraction(1, 2)
    return lhs == b - two * b.affine(half, 0) and lhs == two * b.affine(half, half) - b


def check_reflection(n: int) -> bool:
    """E_n(x) + E_n(x+1) = 2 x**n as exact polynomials."""
    _require(_NONNEG, "index", n)
    e = euler_polynomial(n)
    return e + e.affine(1, 1) == UnivariatePolynomial([0] * n + [2])


def secant_series_oracle(count: int) -> list[int]:
    """E_0, E_2, ..., E_{2(count-1)} by exact power-series inversion of cosine.

    Solves cos(x) * s(x) = 1 coefficient by coefficient over the rationals and
    unpacks E_{2n} = (-1)**n (2n)! s_n.  Shares nothing with the
    table, so it serves as an independent cross-check oracle.
    """
    _require(_POS, "count", count)
    s = [Fraction(1)]
    for m in range(1, count):
        acc = Fraction(0)
        for i in range(1, m + 1):
            acc += Fraction((-1) ** i, factorial(2 * i)) * s[m - i]
        s.append(-acc)
    out = []
    for n, sn in enumerate(s):
        value = (-1) ** n * factorial(2 * n) * sn
        if value.denominator != 1:
            raise InternalInconsistencyError(
                f"series inversion produced a non-integer at index {2 * n}: {value}"
            )
        out.append(int(value))
    return out


# ---------------------------------------------------------------------------
# Cache file format: one record per line, "<kind> <index> <numerator>[/<den>]"
# in decimal, kinds E and B.  Each kind's records run in index order from 0,
# so an index is its record's position; the E and B blocks come in either order.
# ---------------------------------------------------------------------------


_INT_STR_LOCK = threading.Lock()
_int_str_users = 0  # callers inside _unlimited_int_str, under _INT_STR_LOCK
_int_str_previous = None  # the limit the first of them found


@contextlib.contextmanager
def _unlimited_int_str():
    # exact Euler numbers overflow the default int<->str conversion limit.  The
    # limit is process-wide: the first caller in lifts it and the last one out
    # restores it, so overlapping callers leave it as the first one found it.
    global _int_str_users, _int_str_previous
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    with _INT_STR_LOCK:
        if not _int_str_users:
            _int_str_previous = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
        _int_str_users += 1
    try:
        yield
    finally:
        with _INT_STR_LOCK:
            _int_str_users -= 1
            if not _int_str_users:
                sys.set_int_max_str_digits(_int_str_previous)


def save_tables(path, euler: EulerNumberTable | None = None,
                bernoulli: BernoulliNumberTable | None = None) -> None:
    """Persist every memoized index of both tables to the cache file at path.

    Each writer fills its own temporary file beside path and renames it over
    path, so concurrent saves never mix records: the last rename wins.
    """
    euler = euler if euler is not None else _EULER
    bernoulli = bernoulli if bernoulli is not None else _BERNOULLI
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with _unlimited_int_str(), open(tmp, "w", encoding="ascii") as fh:
            fh.writelines(f"{table._KIND} {n} {value}\n"
                          for table in (euler, bernoulli) for n, value in enumerate(table.snapshot()))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _max_digits(n: int) -> int:
    """Decimal digits bounding the numerator and denominator of E_n and of B_n.

    |E_n| <= n! and |B_n| <= n!, and the denominator of B_n divides the
    product of the primes up to n + 1, which is below 4**(n+1); so no part of
    a genuine record exceeds n! 4**(n+1).  One digit of slack covers rounding.
    """
    return int((lgamma(n + 1) + (n + 1) * log(4)) / log(10)) + 2


def _parse_cache(path, tables) -> list[list]:
    """Each table's cached values in index order, every record checked on its own line.

    An index must read as its record's position among its kind, and a value
    must obey its class's ``_fixed`` and ``_ODD_INTEGERS`` (then kept as an int).
    """
    found = {table._KIND: (table, []) for table in tables}
    try:
        with _unlimited_int_str(), open(path, "r", encoding="ascii") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 3 or parts[0] not in found:
                    shown = line if len(line) <= 80 else line[:80] + "..."
                    raise CacheError(f"{path}:{lineno}: malformed record {shown!r}")
                kind, index, value_s = parts
                table, values = found[kind]
                n = len(values)
                if index != str(n):
                    shown = index if len(index) <= 20 else index[:20] + "..."
                    raise CacheError(f"{path}:{lineno}: found {kind} {shown} where the "
                                     f"gapless prefix needs {kind} {n}")
                num, _, den = value_s.partition("/")
                # refused before int() runs: converting a huge digit string is quadratic
                limit = _max_digits(n)
                if len(num.lstrip("+-")) > limit or len(den) > limit:
                    raise CacheError(f"{path}:{lineno}: {kind} {n} has more digits than "
                                     f"any genuine value (at most {limit})")
                try:
                    value = Fraction(int(num), int(den) if den else 1)
                except (ValueError, ZeroDivisionError) as exc:
                    raise CacheError(f"{path}:{lineno}: {exc}") from None
                fixed, odd = table._fixed(n), table._ODD_INTEGERS
                if fixed is None and odd and (value.denominator != 1 or value.numerator % 2 == 0):
                    raise CacheError(f"{path}:{lineno}: {kind} {n} must be an odd integer")
                if fixed is not None and value != fixed:
                    raise CacheError(f"{path}:{lineno}: {kind} {n} must be {fixed}")
                values.append(value.numerator if odd else value)
    except UnicodeDecodeError as exc:
        raise CacheError(f"{path}: byte {exc.object[exc.start]:#04x} is not ASCII") from None
    return [values for _, values in found.values()]


def load_tables(path, euler: EulerNumberTable | None = None,
                bernoulli: BernoulliNumberTable | None = None,
                rng: random.Random | None = None) -> tuple[int, int]:
    """Load a cache file into the tables after validation and a tamper check.

    Each kind runs the same checks, from its table class, record by record; a
    refusal names the file and line.  Order: indices run from 0 in steps of 1.
    Structure: index 0 and every odd index must hold the class's fixed entry,
    and every even E entry must be an odd integer.  Probes: one random cached
    index plus the top even cached index are re-derived by the class's row
    recurrence from the cached prefix below them; any mismatch refuses the
    whole load.  The odd entries above it are fixed by the structure check, so
    re-deriving the top even row makes the check deterministic against
    single-value corruption: a corrupted entry either fails the structure
    check, feeds the top row and skews it, or is the top row itself.  Only
    values are merged, not the tables' kernel columns: the first extension
    past a loaded top replays the kernel through every loaded row and raises
    ``InternalInconsistencyError`` at the first one that differs, so each row
    gets a full second check before the table grows past it.  A record with
    more digits than any genuine value is refused before it is converted.  An
    empty file is a valid empty cache.  Without ``rng`` the random probe is
    drawn from a fresh ``random.Random()``, so a load leaves the global
    ``random`` stream as it found it.  Returns the highest loaded index per
    kind (-1 when that kind is absent).
    """
    tables = (euler if euler is not None else _EULER,
              bernoulli if bernoulli is not None else _BERNOULLI)
    chooser = rng if rng is not None else random.Random()

    loaded = _parse_cache(path, tables)
    for table, values in zip(tables, loaded):
        if len(values) > 1:
            top_even = (len(values) - 1) & ~1
            probes = {chooser.randrange(1, len(values)), top_even} - {0}
            for probe in sorted(probes):
                if table._row(values, probe) != values[probe]:
                    raise CacheError(f"{path}: tamper check failed re-deriving "
                                     f"{table._KIND} {probe}")

    for table, values in zip(tables, loaded):
        with table._lock:
            overlap = min(table.computed_up_to, len(values) - 1)
            for n in range(overlap + 1):
                if table._values[n] != values[n]:
                    raise CacheError(f"{path}: cached {table._KIND} {n} disagrees with the "
                                     "computed table")
            table._values.extend(values[table.computed_up_to + 1:])

    return len(loaded[0]) - 1, len(loaded[1]) - 1
