import random
import re
import sys
import threading
import time
from fractions import Fraction
from math import comb

import pytest

from eulermod import cli, congruences, special
from eulermod.exactmath import InternalInconsistencyError, UnivariatePolynomial, is_prime
from eulermod.special import (
    _bernoulli_row,
    _euler_row,
    BernoulliNumberTable,
    CacheError,
    EulerNumberTable,
    bernoulli_number,
    bernoulli_polynomial,
    check_euler_bernoulli_relation,
    check_raabe,
    check_reflection,
    euler_number,
    euler_polynomial,
    load_tables,
    save_tables,
    secant_series_oracle,
)

# frozen against the series-inversion oracle (see TestSecantOracle)
EULER_EVEN = [1, -1, 5, -61, 1385, -50521, 2702765, -199360981]


class TestEulerNumbers:
    def test_base_and_odd(self):
        assert euler_number(0) == 1
        assert euler_number(3) == 0
        assert all(euler_number(2 * i + 1) == 0 for i in range(20))

    def test_frozen_even_values(self):
        assert [euler_number(2 * i) for i in range(8)] == EULER_EVEN

    def test_even_entries_are_odd_integers(self):
        for k in range(0, 80, 2):
            assert euler_number(k) % 2 == 1

    def test_fresh_table_extension(self):
        table = EulerNumberTable()
        assert table.computed_up_to == 0
        assert table.value(6) == -61
        assert table.computed_up_to == 6
        assert table.multiplications > 0
        before = table.snapshot()
        table.extend_to(10)
        assert table.snapshot()[:7] == before

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            euler_number(-1)


def power_sum_bruteforce(upper: int, exponent: int) -> int:
    return sum(i ** exponent for i in range(upper))


class TestBernoulliNumbers:
    def test_examples(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(1) == Fraction(-1, 2)
        assert bernoulli_number(7) == 0
        assert bernoulli_number(12) == Fraction(-691, 2730)

    def test_b4_against_power_sum_oracle(self):
        # sum of fourth powers below N equals (B_5(N) - B_5(0)) / 5
        b5 = bernoulli_polynomial(5)
        for upper in (5, 9, 16):
            assert power_sum_bruteforce(upper, 4) == (b5(upper) - b5(0)) / 5
        assert bernoulli_number(4) == Fraction(-1, 30)

    def test_odd_vanish(self):
        for n in range(3, 60, 2):
            assert bernoulli_number(n) == 0

    def test_von_staudt_clausen_denominator(self):
        for k in range(2, 40, 2):
            expected = 1
            for p in range(2, k + 2):
                if is_prime(p) and k % (p - 1) == 0:
                    expected *= p
            assert bernoulli_number(k).denominator == expected

    def test_fresh_table(self):
        table = BernoulliNumberTable()
        assert table.value(2) == Fraction(1, 6)
        assert table.computed_up_to == 2


class TestPolynomials:
    def test_euler_polynomial_small(self):
        assert euler_polynomial(0) == UnivariatePolynomial([1])
        assert euler_polynomial(1) == UnivariatePolynomial([Fraction(-1, 2), 1])

    def test_bernoulli_polynomial_small(self):
        assert bernoulli_polynomial(0) == UnivariatePolynomial([1])
        assert bernoulli_polynomial(1) == UnivariatePolynomial([Fraction(-1, 2), 1])
        assert bernoulli_polynomial(2) == UnivariatePolynomial([Fraction(1, 6), -1, 1])

    @pytest.mark.parametrize("n", range(0, 31))
    def test_monic_of_degree_n(self, n):
        for poly in (euler_polynomial(n), bernoulli_polynomial(n)):
            assert poly.degree == n
            assert poly.coefficient(n) == 1

    def test_euler_number_from_polynomial_midpoint(self):
        for n in range(0, 40):
            assert 2 ** n * euler_polynomial(n)(Fraction(1, 2)) == euler_number(n)
        assert 2 ** 5 * euler_polynomial(5)(Fraction(1, 2)) == 0

    def test_bernoulli_polynomial_at_zero(self):
        for n in range(0, 30):
            assert bernoulli_polynomial(n)(0) == bernoulli_number(n)

    def test_euler_polynomial_matches_defining_sum(self):
        # second route: the defining sum evaluated pointwise, no polynomial arithmetic
        rng = random.Random(20040)
        for n in range(61):
            for _ in range(3):
                t = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                direct = sum(comb(n, k) * Fraction(euler_number(k), 2 ** k)
                             * (t - Fraction(1, 2)) ** (n - k) for k in range(n + 1))
                assert euler_polynomial(n)(t) == direct, (n, t)

    def test_bernoulli_polynomial_matches_defining_sum(self):
        # second route: the defining sum evaluated pointwise, no polynomial arithmetic
        rng = random.Random(20041)
        for n in range(61):
            for _ in range(3):
                t = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                direct = sum(comb(n, k) * bernoulli_number(k) * t ** (n - k)
                             for k in range(n + 1))
                assert bernoulli_polynomial(n)(t) == direct, (n, t)

    def test_euler_polynomial_at_zero(self):
        for n in range(81):
            expected = -2 * (2 ** (n + 1) - 1) * bernoulli_number(n + 1) / (n + 1)
            assert euler_polynomial(n)(0) == expected, n


class TestIdentities:
    @pytest.mark.parametrize("n,m", [(0, 1), (2, 2), (12, 5), (7, 3), (9, 8)])
    def test_raabe(self, n, m):
        assert check_raabe(n, m)

    def test_raabe_m1_is_identity(self):
        assert all(check_raabe(n, 1) for n in range(0, 12))

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 10])
    def test_euler_bernoulli_relation(self, n):
        assert check_euler_bernoulli_relation(n)

    @pytest.mark.parametrize("n", [0, 1, 2, 9])
    def test_reflection(self, n):
        assert check_reflection(n)


class TestChecksFailClosed:
    """Each identity check must reject a polynomial off by the constant 1/7."""

    @pytest.fixture
    def skewed(self, monkeypatch):
        def skew(name):
            exact = getattr(special, name)
            monkeypatch.setattr(special, name, lambda n: exact(n) + Fraction(1, 7))
        return skew

    def test_raabe(self, skewed):
        skewed("bernoulli_polynomial")
        assert not any(check_raabe(n, m) for n in (1, 4, 9) for m in (2, 3, 8))

    def test_reflection(self, skewed):
        skewed("euler_polynomial")
        assert not any(check_reflection(n) for n in (0, 1, 2, 9))

    @pytest.mark.parametrize("name", ["euler_polynomial", "bernoulli_polynomial"])
    def test_euler_bernoulli_relation(self, skewed, name):
        skewed(name)
        assert not any(check_euler_bernoulli_relation(n) for n in (0, 1, 2, 5, 10))

    @pytest.mark.parametrize("a,k,m,q", [(2, 3, 3, 4), (5, 7, 2, 9), (0, 3, 2, 3)])
    def test_bernoulli_poly_congruence(self, skewed, a, k, m, q):
        assert congruences.check_bernoulli_poly_congruence(a, k, m, q)
        skewed("bernoulli_polynomial")
        assert not congruences.check_bernoulli_poly_congruence(a, k, m, q)

    @pytest.mark.parametrize("a,k,m,q", [(1, 2, 3, 4), (-2, 5, 3, 8)])
    def test_euler_poly_congruence(self, skewed, a, k, m, q):
        assert congruences.check_euler_poly_congruence(a, k, m, q)
        skewed("euler_polynomial")
        assert not congruences.check_euler_poly_congruence(a, k, m, q)

    def test_cli_exits_one(self, skewed, capsys):
        skewed("bernoulli_polynomial")
        assert cli.main(["check", "raabe", "--n", "4", "--m", "3"]) == 1
        capsys.readouterr()


class TestSecantOracle:
    def test_first_terms(self):
        assert secant_series_oracle(1) == [1]
        assert secant_series_oracle(3) == [1, -1, 5]

    def test_matches_recurrence(self):
        values = secant_series_oracle(20)
        assert values == [euler_number(2 * i) for i in range(20)]

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            secant_series_oracle(0)


def row_recurrence_table(row, first, top):
    values = [first]
    for m in range(1, top + 1):
        values.append(row(values, m))
    return values


class TestTableKernel:
    """The column kernel against the row recurrences and the series oracle."""

    def test_euler_matches_both_oracles(self):
        table = EulerNumberTable()
        table.extend_to(400)
        assert list(table.snapshot()) == row_recurrence_table(_euler_row, 1, 400)
        assert list(table.snapshot()[::2]) == secant_series_oracle(201)

    def test_bernoulli_matches_row_recurrence(self):
        table = BernoulliNumberTable()
        table.extend_to(200)
        assert list(table.snapshot()) == row_recurrence_table(_bernoulli_row, Fraction(1), 200)

    def test_multiplications_counted(self):
        # E_6 = -S_3 takes column steps of lengths 1, 2 and 3; B_6 takes T_2 and T_3
        euler, bernoulli = EulerNumberTable(), BernoulliNumberTable()
        euler.value(6)
        bernoulli.value(6)
        assert euler.multiplications == 3 + 5 + 7
        assert bernoulli.multiplications == 3 + 5

    def test_extend_past_loaded_cache_matches_fresh(self, tmp_path):
        path = tmp_path / "tables.cache"
        e, b = EulerNumberTable(), BernoulliNumberTable()
        e.extend_to(12)
        b.extend_to(10)
        save_tables(path, euler=e, bernoulli=b)
        e2, b2 = EulerNumberTable(), BernoulliNumberTable()
        assert load_tables(path, euler=e2, bernoulli=b2, rng=random.Random(3)) == (12, 10)
        e2.extend_to(40)
        b2.extend_to(40)
        fresh_e, fresh_b = EulerNumberTable(), BernoulliNumberTable()
        fresh_e.extend_to(40)
        fresh_b.extend_to(40)
        assert e2.snapshot() == fresh_e.snapshot()
        assert b2.snapshot() == fresh_b.snapshot()

    @pytest.mark.parametrize("kind,row,corrupted,top", [
        ("E", _euler_row, 10, 20),
        ("B", _bernoulli_row, 8, 16),
    ])
    def test_replay_catches_what_the_probes_miss(self, tmp_path, kind, row, corrupted, top):
        # corrupt one row below the top, re-derive the top from the corrupted
        # prefix, and pick a seed whose random probe lands below the corruption
        table = EulerNumberTable() if kind == "E" else BernoulliNumberTable()
        table.extend_to(top)
        values = list(table.snapshot())
        values[corrupted] += 2
        values[top] = row(values, top)
        seed = next(s for s in range(1000) if random.Random(s).randrange(1, top + 1) < corrupted)
        path = tmp_path / "tampered.cache"
        with open(path, "w", encoding="ascii") as fh:
            for n, v in enumerate(values):
                text = str(v) if kind == "E" else f"{v.numerator}/{v.denominator}"
                fh.write(f"{kind} {n} {text}\n")
        e, b = EulerNumberTable(), BernoulliNumberTable()
        load_tables(path, euler=e, bernoulli=b, rng=random.Random(seed))
        loaded = e if kind == "E" else b
        assert loaded.value(corrupted) == values[corrupted]  # inside the loaded prefix
        for _ in range(2):  # the table stays refused, not silently repaired
            with pytest.raises(InternalInconsistencyError, match=f"{kind} {corrupted} differs"):
                loaded.extend_to(top + 2)
        assert loaded.computed_up_to < top + 2


class TestConcurrentExtension:
    @pytest.mark.parametrize("table_class", [EulerNumberTable, BernoulliNumberTable])
    def test_threads_match_serial_build(self, table_class):
        serial = table_class()
        serial.value(600)
        shared = table_class()
        workers = 4  # more threads than cores
        start = threading.Barrier(workers)

        def extend():
            start.wait()
            shared.value(600)

        threads = [threading.Thread(target=extend) for _ in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert shared.snapshot() == serial.snapshot()


class TestCacheFile:
    def _fresh_pair(self, e_to=12, b_to=10):
        e, b = EulerNumberTable(), BernoulliNumberTable()
        e.extend_to(e_to)
        b.extend_to(b_to)
        return e, b

    def test_threads_save_and_load_one_path(self, tmp_path):
        path = tmp_path / "tables.cache"
        pairs = [self._fresh_pair(200, 100), self._fresh_pair(600, 300)]
        saved = [(e.snapshot(), b.snapshot()) for e, b in pairs]
        workers, rounds = 4, 5
        start = threading.Barrier(workers)
        errors = []

        def work(i):
            e, b = pairs[i % 2]
            try:
                for r in range(rounds):
                    start.wait(timeout=60)
                    save_tables(path, euler=e, bernoulli=b)
                    e2, b2 = EulerNumberTable(), BernoulliNumberTable()
                    load_tables(path, euler=e2, bernoulli=b2, rng=random.Random(r))
                    assert (e2.snapshot(), b2.snapshot()) in saved
            except BaseException as exc:
                errors.append(exc)
                start.abort()

        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        has_limit = hasattr(sys, "set_int_max_str_digits")
        previous = sys.get_int_max_str_digits() if has_limit else None
        interval = sys.getswitchinterval()
        if has_limit:
            # E_600 has about 1400 digits: a save or load under this limit fails
            sys.set_int_max_str_digits(640)
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            limit = sys.get_int_max_str_digits() if has_limit else None
        finally:
            sys.setswitchinterval(interval)
            if has_limit:
                sys.set_int_max_str_digits(previous)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert limit == (640 if has_limit else None)
        e, b = EulerNumberTable(), BernoulliNumberTable()
        load_tables(path, euler=e, bernoulli=b)
        assert (e.snapshot(), b.snapshot()) in saved
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int -> str digit limit in this Python")
    def test_overlapping_users_restore_the_digit_limit(self):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            first, second = special._unlimited_int_str(), special._unlimited_int_str()
            first.__enter__()
            second.__enter__()
            first.__exit__(None, None, None)
            inside = sys.get_int_max_str_digits()  # the second user still needs it lifted
            second.__exit__(None, None, None)
            after = sys.get_int_max_str_digits()
        finally:
            sys.set_int_max_str_digits(previous)
        assert (inside, after) == (0, 5000)

    def test_load_leaves_the_global_random_stream(self, tmp_path):
        path = tmp_path / "tables.cache"
        save_tables(path, *self._fresh_pair())
        state = random.getstate()
        try:
            random.seed(1)
            expected = [random.random() for _ in range(3)]
            random.seed(1)
            load_tables(path, euler=EulerNumberTable(), bernoulli=BernoulliNumberTable())
            drawn = [random.random() for _ in range(3)]
        finally:
            random.setstate(state)
        assert drawn == expected

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "tables.cache"
        e, b = self._fresh_pair()
        save_tables(path, euler=e, bernoulli=b)
        e2, b2 = EulerNumberTable(), BernoulliNumberTable()
        loaded = load_tables(path, euler=e2, bernoulli=b2, rng=random.Random(7))
        assert loaded == (12, 10)
        assert e2.snapshot() == e.snapshot()
        assert b2.snapshot() == b.snapshot()

    def test_file_bytes_pinned(self, tmp_path):
        path = tmp_path / "tables.cache"
        save_tables(path, *self._fresh_pair(4, 4))
        assert path.read_bytes() == (b"E 0 1\nE 1 0\nE 2 -1\nE 3 0\nE 4 5\n"
                                     b"B 0 1\nB 1 -1/2\nB 2 1/6\nB 3 0\nB 4 -1/30\n")

    def test_empty_file_is_empty_cache(self, tmp_path):
        path = tmp_path / "empty.cache"
        path.write_text("")
        e, b = EulerNumberTable(), BernoulliNumberTable()
        assert load_tables(path, euler=e, bernoulli=b) == (-1, -1)
        assert e.computed_up_to == 0

    def test_corrupt_digit_refused(self, tmp_path):
        path = tmp_path / "tables.cache"
        e, b = self._fresh_pair()
        save_tables(path, euler=e, bernoulli=b)
        good = path.read_text()
        # flip one digit of E_10 = -50521 without changing parity
        assert "E 10 -50521" in good
        path.write_text(good.replace("E 10 -50521", "E 10 -50581"))
        with pytest.raises(CacheError, match="tamper"):
            load_tables(path, euler=EulerNumberTable(), bernoulli=BernoulliNumberTable(),
                        rng=random.Random(0))

    def test_corrupt_bernoulli_refused(self, tmp_path):
        path = tmp_path / "tables.cache"
        e, b = self._fresh_pair()
        save_tables(path, euler=e, bernoulli=b)
        assert "B 10 5/66" in path.read_text()
        path.write_text(path.read_text().replace("B 10 5/66", "B 10 7/66"))
        with pytest.raises(CacheError, match="tamper"):
            load_tables(path, euler=EulerNumberTable(), bernoulli=BernoulliNumberTable(),
                        rng=random.Random(0))

    @pytest.mark.parametrize("line", [
        "X 0 1",
        "E zero 1",
        "E 0",
        "E 0 1/0",
        "E 0 one",
    ])
    def test_malformed_line_refused(self, tmp_path, line):
        path = tmp_path / "bad.cache"
        path.write_text(line + "\n")
        with pytest.raises(CacheError):
            load_tables(path, euler=EulerNumberTable(), bernoulli=BernoulliNumberTable())

    def test_gap_refused(self, tmp_path):
        path = tmp_path / "gap.cache"
        path.write_text("E 0 1\nE 2 -1\n")
        with pytest.raises(CacheError, match="gapless"):
            load_tables(path, euler=EulerNumberTable(), bernoulli=BernoulliNumberTable())

    def test_duplicate_refused(self, tmp_path):
        path = tmp_path / "dup.cache"
        path.write_text("E 0 1\nE 0 1\n")
        with pytest.raises(CacheError, match="found E 0 where the gapless prefix needs E 1"):
            load_tables(path, euler=EulerNumberTable(), bernoulli=BernoulliNumberTable())

    def test_swapped_pair_refused_naming_line(self, tmp_path):
        path = tmp_path / "swap.cache"
        path.write_text("E 0 1\nE 2 -1\nE 1 0\n")
        with pytest.raises(CacheError, match=r"swap\.cache:2: found E 2 where the gapless "
                                             r"prefix needs E 1$"):
            load_tables(path, euler=EulerNumberTable(), bernoulli=BernoulliNumberTable())

    @pytest.mark.parametrize("index", ["01", "+1"])
    def test_non_canonical_index_refused(self, tmp_path, index):
        # int() reads both as 1, but save_tables never writes them
        path = tmp_path / "index.cache"
        path.write_text(f"E 0 1\nE {index} 0\n")
        with pytest.raises(CacheError, match=rf":2: found E {re.escape(index)} where the "
                                             "gapless prefix needs E 1"):
            load_tables(path, euler=EulerNumberTable(), bernoulli=BernoulliNumberTable())

    def test_bernoulli_block_first_loads(self, tmp_path):
        path = tmp_path / "tables.cache"
        e, b = self._fresh_pair()
        save_tables(path, euler=e, bernoulli=b)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[13:] + lines[:13]))  # E_0..E_12, then B_0..B_10
        e2, b2 = EulerNumberTable(), BernoulliNumberTable()
        assert load_tables(path, euler=e2, bernoulli=b2, rng=random.Random(7)) == (12, 10)
        assert e2.snapshot() == e.snapshot() and b2.snapshot() == b.snapshot()

    def test_wrong_base_value_refused(self, tmp_path):
        path = tmp_path / "base.cache"
        path.write_text("E 0 3\n")
        with pytest.raises(CacheError, match="E 0"):
            load_tables(path, euler=EulerNumberTable(), bernoulli=BernoulliNumberTable())

    @pytest.mark.parametrize("records,kind,index", [
        ("B 0 2", "B", 0),
        ("B 0 1\nB 1 1/2", "B", 1),
        ("B 0 1\nB 1 -1/2\nB 2 1/6\nB 3 1/7", "B", 3),
        ("E 0 1\nE 1 0\nE 2 2", "E", 2),
        ("E 0 1\nE 1 0\nE 2 1/2", "E", 2),
    ], ids=["B0", "B1", "odd-B3", "even-E2", "non-integer-E2"])
    def test_structural_refusal_names_kind_and_index(self, tmp_path, records, kind, index):
        # the offending record is the file's last line
        path = tmp_path / "structure.cache"
        path.write_text(records + "\n")
        e, b = EulerNumberTable(), BernoulliNumberTable()
        line = records.count("\n") + 1
        with pytest.raises(CacheError, match=rf"structure\.cache:{line}: {kind} {index} must be "):
            load_tables(path, euler=e, bernoulli=b)
        assert e.computed_up_to == b.computed_up_to == 0

    def test_nonzero_odd_index_refused(self, tmp_path):
        path = tmp_path / "odd.cache"
        path.write_text("E 0 1\nE 1 2\n")
        with pytest.raises(CacheError):
            load_tables(path, euler=EulerNumberTable(), bernoulli=BernoulliNumberTable())

    def test_oversized_record_refused_before_conversion(self, tmp_path):
        path = tmp_path / "huge.cache"
        path.write_text("E 0 1\nE 1 0\nE 2 " + "7" * 200_001 + "\n")
        start = time.perf_counter()
        with pytest.raises(CacheError, match="E 2 has more digits than any genuine value"):
            load_tables(path, euler=EulerNumberTable(), bernoulli=BernoulliNumberTable())
        assert time.perf_counter() - start < 0.25

    @pytest.mark.parametrize("record,match", [
        ("B 0 1\nB 1 -1/2\nB 2 1/6\nB 3 0\nB 4 1/" + "3" * 5000, "digits"),
        ("E 1" + "0" * 20 + " 0", "needs E 0"),
    ], ids=["denominator", "index"])
    def test_oversized_denominator_or_index_refused(self, tmp_path, record, match):
        path = tmp_path / "huge.cache"
        path.write_text(record + "\n")
        with pytest.raises(CacheError, match=match):
            load_tables(path, euler=EulerNumberTable(), bernoulli=BernoulliNumberTable())

    def test_malformed_long_line_shown_cut(self, tmp_path):
        path = tmp_path / "long.cache"
        path.write_text("E 0 1 " + "9" * 100_000 + "\n")
        with pytest.raises(CacheError, match="malformed") as exc:
            load_tables(path, euler=EulerNumberTable(), bernoulli=BernoulliNumberTable())
        assert len(str(exc.value)) < len(str(path)) + 200

    @pytest.mark.parametrize("kind", ["E", "B"])
    def test_disagreement_names_kind_and_index(self, tmp_path, kind):
        path = tmp_path / "tables.cache"
        save_tables(path, *self._fresh_pair())
        e, b = self._fresh_pair()
        (e if kind == "E" else b)._values[4] += 2
        with pytest.raises(CacheError, match=f"cached {kind} 4 disagrees with the computed table"):
            load_tables(path, euler=e, bernoulli=b, rng=random.Random(0))

    def test_disagreement_with_computed_prefix_refused(self, tmp_path):
        path = tmp_path / "tables.cache"
        # a cache that is self-consistent but from a different sequence: E_0 only
        path.write_text("E 0 1\nB 0 1\nB 1 -1/2\nB 2 1/5\n")
        with pytest.raises(CacheError, match="tamper|disagrees"):
            load_tables(path, euler=EulerNumberTable(), bernoulli=BernoulliNumberTable())
