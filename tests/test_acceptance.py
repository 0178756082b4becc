"""Acceptance suite.

Each test runs one acceptance criterion end to end at its stated tolerance
(exact arithmetic, zero tolerance, except where a wall-clock bound is part of
the criterion) and prints one PASS/FAIL line to the live terminal.  Run with

    pytest tests/test_acceptance.py -v
"""

import time
from fractions import Fraction
from math import gcd

import pytest

from eulermod import cli, congruences, special
from eulermod.exactmath import decompose_odd_residue, is_prime, multiplicative_order


@pytest.fixture
def report(capsys):
    start = time.perf_counter()

    def emit(name: str, ok: bool, note: str = ""):
        elapsed = time.perf_counter() - start
        line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)"
        if note:
            line += f" {note}"
        with capsys.disabled():
            print(line)
        assert ok, line

    return emit


def test_criterion_01_kummer_counterexample(report):
    start = time.perf_counter()
    result = congruences.kummer_check(13, 2, 16, 4)
    elapsed = time.perf_counter() - start
    difference = special.bernoulli_number(16) / 16 - special.bernoulli_number(4) / 4
    ok = (result.report.holds
          and not result.exponent_congruent
          and difference.numerator % 169 == 0
          and gcd(difference.denominator, 13) == 1
          and (16 - 4) % 156 != 0
          and elapsed < 1.0)
    report("01 value congruence without exponent congruence at p^2 = 169", ok,
           note=f"holds={result.report.holds} flag={result.exponent_congruent}")


def test_criterion_02_euler_mod_odd_sweep(report):
    failures = [(k, q)
                for k in range(0, 61, 2)
                for q in range(1, 100, 2)
                if not congruences.check_euler_mod_odd(k, q).holds]
    report("02 Euler numbers mod odd q sweep (k<=60, q<=99)", not failures,
           note=f"failures={failures[:3]}" if failures else "1550 checks")


def test_criterion_03_cleared_congruence_sweep(report):
    failures = [(k, n, m)
                for k in range(0, 41, 2)
                for n in range(1, 11)
                for m in range(1, 16, 2)
                if not congruences.check_euler_mod_two_power(k, n, m).holds]
    report("03 cleared congruence mod 2^(n+2) sweep (k<=40, n<=10, odd m<=15)",
           not failures,
           note=f"failures={failures[:3]}" if failures else "1680 checks")


def test_criterion_04_fast_evaluator_consistency(report):
    special.euler_table().extend_to(200)
    failures = [(k, n)
                for k in range(0, 201, 2)
                for n in range(1, 13)
                if congruences.euler_mod_2n(k, n) != special.euler_number(k) % (1 << n)]
    spot = congruences.euler_mod_2n(2, 2) == 3 and congruences.euler_mod_2n(4, 3) == 5
    report("04 fast evaluator equals exact reduction (k<=200, n<=12)",
           not failures and spot,
           note=f"failures={failures[:3]}" if failures else "1212 comparisons + spot values")


def test_criterion_05_stern_valuation_suite(report):
    start = time.perf_counter()
    special.euler_table().extend_to(256)
    failures = []
    for k in range(2, 257, 2):
        for l in range(0, k, 2):
            record = congruences.stern_valuation(k, l)
            if record.v_value != record.v_index:
                failures.append((k, l))
    biconditional = all(
        ((special.euler_number(k) - special.euler_number(l)) % (1 << n) == 0)
        == ((k - l) % (1 << n) == 0)
        for n in range(1, 9)
        for k in range(0, 257, 2)
        for l in range(0, k, 2)
    )
    elapsed = time.perf_counter() - start
    report("05 2-adic valuation of E_k - E_l matches that of k - l (k,l <= 256)",
           not failures and biconditional and elapsed < 60.0,
           note=f"failures={failures[:3]}" if failures else "8256 pairs, biconditional n<=8")


def test_criterion_06_signed_floor_sum_identity(report):
    failures = []
    for a in range(-10, 11):
        for q in range(2, 33, 2):
            for m in range(1, 16, 2):
                if gcd(m, q) != 1:
                    continue
                computed, closed = congruences.signed_floor_sum_identity(a, m, q)
                if computed != closed:
                    failures.append((a, m, q))
    report("06 signed floor sum equals (m-(-1)^a)/2 exactly (|a|<=10, q<=32, m<=15)",
           not failures,
           note=f"failures={failures[:3]}" if failures else "exact equality, zero tolerance")


def test_criterion_07_polynomial_scaling_congruences(report):
    failures = []
    for a in range(-5, 6):
        for q in (2, 4, 6, 8, 16):
            for m in (1, 3, 5, 7):
                if gcd(m, q) != 1:
                    continue
                for k in range(1, 13):
                    if not congruences.check_bernoulli_poly_congruence(a, k, m, q):
                        failures.append(("bernoulli", a, k, m, q))
                for k in range(0, 13):
                    if not congruences.check_euler_poly_congruence(a, k, m, q):
                        failures.append(("euler", a, k, m, q))
    report("07 polynomial scaling congruences hold coefficientwise (k<=12)",
           not failures,
           note=f"failures={failures[:3]}" if failures else "both families")


def test_criterion_08_classical_identities(report):
    bad_raabe = [(n, m) for n in range(31) for m in range(1, 9)
                 if not special.check_raabe(n, m)]
    bad_relation = [n for n in range(31) if not special.check_euler_bernoulli_relation(n)]
    bad_reflection = [n for n in range(31) if not special.check_reflection(n)]
    bad_midpoint = [n for n in range(201)
                    if 2 ** n * special.euler_polynomial(n)(Fraction(1, 2))
                    != special.euler_number(n)]
    ok = not (bad_raabe or bad_relation or bad_reflection or bad_midpoint)
    report("08 multiplication/relation/reflection/midpoint identities (exact)", ok,
           note="raabe n<=30 m<=8, relation n<=30, reflection n<=30, midpoint n<=200")


def test_criterion_09_block_power_sums_and_unit_group(report):
    bad_sums = [(k, n) for k in range(0, 41, 2) for n in range(1, 15)
                if not congruences.check_power_sum_divisibility(k, n)]
    bad_orders = [t for t in range(3, 21)
                  if multiplicative_order(5, 1 << t) != 1 << (t - 2)]
    bad_decomp = [t for t in range(3, 17)
                  if decompose_odd_residue(3, t).power_exponent % 2 == 0]
    ok = not (bad_sums or bad_orders or bad_decomp)
    report("09 block power-sum divisibility, order of 5, odd power for residue 3", ok,
           note="k<=40 n<=14; t<=20; t<=16")


def test_criterion_10_oracle_independence(report):
    oracle = special.secant_series_oracle(64)
    series_match = oracle == [special.euler_number(2 * i) for i in range(64)]

    def expected_denominator(k: int) -> int:
        out = 1
        for p in range(2, k + 2):
            if is_prime(p) and k % (p - 1) == 0:
                out *= p
        return out

    bad_denominators = [k for k in range(2, 101, 2)
                        if special.bernoulli_number(k).denominator != expected_denominator(k)]
    parity_ok = all(special.euler_number(k) % 2 == 1 for k in range(0, 202, 2)) and \
        all(special.euler_number(k) == 0 for k in range(1, 202, 2))
    ok = series_match and not bad_denominators and parity_ok
    report("10 series-inversion oracle, denominator formula, parity structure", ok,
           note="E_0..E_126 vs oracle; denominators k<=100; parity k<=201")


def test_criterion_11_fast_path_performance(report):
    big = cli.bench_report(10 ** 6, 16, cutoff=0)
    fast_ok = big.fast_seconds < 10.0 and big.fast_multiplications >= 1 << 16
    # 10^6 = 576 (mod 2^14), so Stern's law pins the low 14 bits of the fast
    # residue to E_576; its top 2 bits stay unchecked
    value_ok = big.fast_residue % (1 << 14) == special.euler_number(576) % (1 << 14)
    special.euler_table().extend_to(2000)
    mismatches = [k for k in range(0, 2001, 2)
                  if congruences.euler_mod_2n(k, 10) != special.euler_number(k) % 1024]
    sampled = cli.bench_report(2000, 10)
    ok = fast_ok and value_ok and not mismatches and sampled.agree is True
    report("11 fast path at k=10^6 n=16 under 10s, low 14 bits by Stern's law; "
           "fast-vs-exact equal for k<=2000", ok,
           note=f"fast={big.fast_seconds:.2f}s over 2^16 terms")
