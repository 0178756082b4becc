"""Command-line front end: compute, check, sweep, table, and bench commands.

Every check emits one machine-readable record per parameter tuple with the
stable fields {claim, parameters, holds, modulus, lhs, rhs, witness, detail};
the process exits 0 exactly when every emitted record holds.  Exit codes:
0 all checks hold, 1 some check failed, 2 usage or input error (including a
bad cache file or a flag the command does not take: ``check 2.1 --k 4`` reads
``eulermod check 2.1: error: unrecognized arguments: --k 4``), 3 internal
inconsistency (a checker's cross-validation tripped), 141 stdout was closed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import re
import sys
import time
from dataclasses import dataclass
from itertools import product
from math import gcd, prod
from typing import Callable, Iterable, Iterator, Sequence

from . import congruences, special
from .exactmath import (InternalInconsistencyError, _ABOVE_ONE, _EVEN_NONNEG, _EVEN_POS,
                        _MODULUS, _NONNEG, _ODD_POS, _ODD_PRIME, _POS, _Rule)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_PIPE = 141  # what a shell reports for a writer whose reader left, as in `yes | head`

CACHE_ENV = "EULERMOD_CACHE"

# Largest n the fast-path commands accept.  The kernel streams about 2**n/6
# powers and holds none of them, so euler-mod2 and bench at n = 24 take about
# 4.5 s; stern-table sums about 2**n/3 terms once per binomial order and spends
# ceil(n/3) products on each of its 2**(n-1) rows, so n = 20 takes about 4.5 s.
FAST_N_MAX = 24
TABLE_N_MAX = 20
# Largest --kmax `sweep stern` accepts.  It writes each of its
# (kmax/2)(kmax/2 + 1)/2 records as it is built and holds none, so memory
# stays flat (about 20 MB) and the cap bounds time only, which grows as
# kmax**2: 524800 records at 2048 take about 9 s in JSON, at 1024 about 2 s
# (2-vCPU VM, Python 3.11.7).
SWEEP_K_MAX = 2048
# Largest n claims 1.3 and power-sum accept.  Each tuple sums 2**n unfolded
# powers (stern_sum, alternating_power_sum), so its time doubles with each
# step of n: one tuple at k = 40, n = 22 takes about 4.6 s under 1.3 and
# 2.6 s under power-sum (2-vCPU VM, Python 3.11.7).
CLAIM_N_MAX = 22
# Most values a `check` range may expand to, and most tuples a `check` box may
# span; both are refused before anything is expanded.  `check` holds every
# record until it writes them, so the cap bounds memory: 2**17 tuples of 2.4,
# the cheapest claim per tuple, take about 2.9 s and peak near 105 MB in JSON
# (2-vCPU VM, Python 3.11.7).
CHECK_TUPLES_MAX = 2 ** 17

__all__ = [
    "main",
    "bench_report",
    "BenchReport",
    "parse_range",
    "EXIT_OK",
    "EXIT_CHECK_FAILED",
    "EXIT_USAGE",
    "EXIT_INTERNAL",
    "EXIT_PIPE",
    "CACHE_ENV",
    "FAST_N_MAX",
    "TABLE_N_MAX",
    "SWEEP_K_MAX",
    "CLAIM_N_MAX",
    "CHECK_TUPLES_MAX",
]


# ---------------------------------------------------------------------------
# parameter ranges
# ---------------------------------------------------------------------------

_RANGE_ITEM = re.compile(r"^(-?\d+)(?:\.\.(-?\d+)(odd|even)?)?$")


def parse_range(spec: str) -> list[int]:
    """Expand a range spec: N, LO..HI, LO..HIodd, LO..HIeven, or a comma list.

    Repeated values are dropped; the rest keep their first-occurrence order.
    A spec that would expand to more than CHECK_TUPLES_MAX values is refused
    before the range that crosses it is expanded.
    """
    values: list[int] = []
    for item in spec.split(","):
        item = item.strip()
        match = _RANGE_ITEM.match(item)
        if match is None:
            raise ValueError(
                f"bad range {item!r}; expected N, LO..HI, LO..HIodd or LO..HIeven"
            )
        lo = int(match.group(1))
        if match.group(2) is None:
            values.append(lo)
            continue
        hi = int(match.group(2))
        if hi < lo:
            raise ValueError(f"empty range {item!r}")
        parity = match.group(3)
        if parity is None:
            span = range(lo, hi + 1)
        else:  # from the first value of the wanted parity
            span = range(lo + (lo % 2 != (parity == "odd")), hi + 1, 2)
        if len(values) + len(span) > CHECK_TUPLES_MAX:
            raise ValueError(f"range {item!r} would expand past "
                             f"CHECK_TUPLES_MAX = {CHECK_TUPLES_MAX} values")
        values.extend(span)
    return list(dict.fromkeys(values))


# ---------------------------------------------------------------------------
# record construction
# ---------------------------------------------------------------------------


def _check_record(claim: str, parameters: dict, holds: bool, modulus: int,
                  lhs: str, rhs: str, witness: str | None = None,
                  detail: dict | None = None) -> dict:
    return {
        "claim": claim,
        "parameters": parameters,
        "holds": holds,
        "modulus": modulus,
        "lhs": lhs,
        "rhs": rhs,
        "witness": witness,
        "detail": detail or {},
    }


def _report_fields(report, holds: bool | None = None, detail: dict | None = None) -> tuple:
    """A claim runner's (holds, modulus, lhs, rhs, witness, detail) from a CongruenceReport."""
    return (report.holds if holds is None else holds, report.modulus,
            str(report.lhs), str(report.rhs), str(report.quotient_witness), detail)


# ---------------------------------------------------------------------------
# claim registry for `check`
# ---------------------------------------------------------------------------


def _between(lo: int, hi: int) -> _Rule:
    # the CLI's own caps; every other rule is the library's, from exactmath
    return _Rule(f"between {lo} and {hi}", lambda v: lo <= v <= hi)


def _range_arg(text: str) -> list[int]:
    # parse_range as an argparse type: its message becomes the diagnostic
    try:
        return parse_range(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _checked(rule: _Rule, parse: Callable[[str], int | list[int]] = int) -> Callable:
    """An argparse type: parse the text, then refuse it unless every value obeys the rule.

    A scalar is checked as a one-value list, so every refusal reads
    ``argument NAME: values must be RULE (offending: [...])``.
    """
    def check(text: str):
        value = parse(text)
        bad = [v for v in (value if isinstance(value, list) else [value]) if not rule.holds(v)]
        if bad:
            raise argparse.ArgumentTypeError(
                f"values must be {rule.description} (offending: {bad[:5]})")
        return value

    check.__name__ = parse.__name__  # argparse names it in "invalid int value: ..."
    return check


@dataclass(frozen=True)
class Claim:
    """One checkable statement: its range flags, a per-tuple checker and a domain filter.

    Each param is (flag name, default range spec, rule or None); ``check``
    gives each claim a sub-parser that parses and checks every flag.  A
    tuple is a dict of one value per flag, in param order.  Called with a
    tuple as keywords, ``keep`` drops those outside the claim's domain and
    ``run_one`` returns the record fields (holds, modulus, lhs, rhs[,
    witness[, detail]]).
    """

    summary: str
    params: tuple[tuple[str, str, _Rule | None], ...]
    run_one: Callable[..., tuple]
    keep: Callable[..., bool] | None = None

    def tuples(self, ranges: dict[str, list[int]]) -> list[dict[str, int]]:
        """The box's tuples in the domain; a box of more than CHECK_TUPLES_MAX is refused."""
        names = [name for name, _, _ in self.params]
        size = prod(len(ranges[name]) for name in names)
        if size > CHECK_TUPLES_MAX:
            raise ValueError(f"the ranges span {size} tuples, more than "
                             f"CHECK_TUPLES_MAX = {CHECK_TUPLES_MAX}")
        combos = (dict(zip(names, t)) for t in product(*(ranges[name] for name in names)))
        return [t for t in combos if self.keep is None or self.keep(**t)]


def _run_euler_mod_odd(k: int, q: int) -> tuple:
    return _report_fields(congruences.check_euler_mod_odd(k, q))


def _run_euler_mod_two_power(k: int, n: int, m: int) -> tuple:
    report = congruences.check_euler_mod_two_power(k, n, m)
    detail = {"coefficient_v2": congruences.cleared_coefficient_valuation(k, m)}
    return _report_fields(report, detail=detail)


def _run_euler_bernoulli_relation(n: int) -> tuple:
    return (
        special.check_euler_bernoulli_relation(n), 0,
        "(n+1)/2 * E_n(x)",
        "B_{n+1}(x) - 2^{n+1} B_{n+1}(x/2) and 2^{n+1} B_{n+1}((x+1)/2) - B_{n+1}(x)",
    )


def _run_bernoulli_poly_congruence(a: int, k: int, m: int, q: int) -> tuple:
    return (
        congruences.check_bernoulli_poly_congruence(a, k, m, q), q,
        "1/k (m^k B_k((x+a)/m) - B_k(x))",
        "sum_j (floor((a+jm)/q) + (1-m)/2)(x+a+jm)^(k-1)",
        None, {"route": congruences.bernoulli_poly_congruence_route(k, q)},
    )


def _run_euler_poly_congruence(a: int, k: int, m: int, q: int) -> tuple:
    return (
        congruences.check_euler_poly_congruence(a, k, m, q), q,
        "m^{k+1}/2 E_k((x+a)/m) - (-1)^a/2 E_k(x)",
        "sum_j (-1)^{j-1}(floor((a+jm)/q) + (1-m)/2)(x+a+jm)^k",
    )


def _run_signed_floor_sum(a: int, m: int, q: int) -> tuple:
    computed, closed = congruences.signed_floor_sum_identity(a, m, q)
    return computed == closed, 0, str(computed), str(closed)


def _run_kummer(p: int, n: int, k: int, l: int) -> tuple:
    result = congruences.kummer_check(p, n, k, l)
    report, congruent = result.report, result.exponent_congruent
    return _report_fields(report, holds=not congruent or report.holds,
                          detail={"congruence_holds": report.holds,
                                  "exponent_congruent": congruent})


def _run_thangadurai(p: int, k: int) -> tuple:
    n, w = congruences.adams_thangadurai_valuation(p, k)
    lower, ceiling = w >= n, n == 0 or w <= n + 1
    return (lower and ceiling, p, str(w), str(n), None,
            {"lower_bound": lower, "conjectured_ceiling": ceiling})


def _run_raabe(n: int, m: int) -> tuple:
    return special.check_raabe(n, m), 0, "m^{n-1} sum_r B_n((x+r)/m)", "B_n(x)"


def _run_reflection(n: int) -> tuple:
    return special.check_reflection(n), 0, "E_n(x) + E_n(x+1)", "2 x^n"


def _run_power_sum(k: int, n: int) -> tuple:
    modulus = 1 << (n + 1)
    residue = congruences.alternating_power_sum(1 << n, k, modulus=modulus)
    return residue == 0, modulus, str(residue), "0"


def _coprime(m: int, q: int, **_) -> bool:
    return gcd(m, q) == 1


CLAIMS: dict[str, Claim] = {
    "1.1": Claim(
        summary="Euler number E_k equals the alternating power sum of odd k-th powers mod odd q",
        params=(("k", "0..60even", _EVEN_NONNEG), ("q", "1..99odd", _ODD_POS)),
        run_one=_run_euler_mod_odd,
    ),
    "1.3": Claim(
        summary="cleared congruence (m^{k+1}-(-1)^{(m-1)/2}) E_k = 2 m^k S mod 2^{n+2}",
        params=(("k", "0..40even", _EVEN_NONNEG), ("n", "1..10", _between(1, CLAIM_N_MAX)),
                ("m", "1..15odd", _ODD_POS)),
        run_one=_run_euler_mod_two_power,
    ),
    "2.1": Claim(
        summary="both exact forms tying Euler polynomials to Bernoulli polynomials",
        params=(("n", "0..30", _NONNEG),),
        run_one=_run_euler_bernoulli_relation,
    ),
    "2.2": Claim(
        summary="Bernoulli polynomial scaling congruence vs floor-weighted sum mod q",
        params=(("a", "-5..5", None), ("k", "1..12", _POS), ("m", "1..7odd", _POS),
                ("q", "2,4,6,8,16", _ABOVE_ONE)),
        run_one=_run_bernoulli_poly_congruence,
        keep=_coprime,
    ),
    "2.3": Claim(
        summary="Euler polynomial scaling congruence vs alternating floor-weighted sum mod even q",
        params=(("a", "-5..5", None), ("k", "0..12", _NONNEG), ("m", "1..7odd", _ODD_POS),
                ("q", "2,4,6,8,16", _EVEN_POS)),
        run_one=_run_euler_poly_congruence,
        keep=_coprime,
    ),
    "2.4": Claim(
        summary="signed floor sum equals (m - (-1)^a)/2 exactly",
        params=(("a", "-10..10", None), ("m", "1..15odd", _ODD_POS),
                ("q", "2..32even", _EVEN_POS)),
        run_one=_run_signed_floor_sum,
        keep=_coprime,
    ),
    "kummer": Claim(
        summary="exponent congruence mod phi(p^n) forces B_k/k = B_l/l mod p^n (converse can fail)",
        params=(("p", "13", _ODD_PRIME), ("n", "2", _POS), ("k", "16", _EVEN_POS),
                ("l", "4", _EVEN_POS)),
        run_one=_run_kummer,
        keep=lambda p, k, l, **_: bool(k % (p - 1) and l % (p - 1)),
    ),
    "thangadurai": Claim(
        summary="numerator of B_k carries v_p(k) factors of p, conjecturally at most v_p(k)+1",
        params=(("p", "13", _ODD_PRIME), ("k", "2..60even", _EVEN_POS)),
        run_one=_run_thangadurai,
        keep=lambda p, k: bool(k % (p - 1)),
    ),
    "raabe": Claim(
        summary="multiplication formula m^{n-1} sum_r B_n((x+r)/m) = B_n(x), exact",
        params=(("n", "0..30", _NONNEG), ("m", "1..8", _POS)),
        run_one=_run_raabe,
    ),
    "reflection": Claim(
        summary="E_n(x) + E_n(x+1) = 2 x^n, exact",
        params=(("n", "0..30", _NONNEG),),
        run_one=_run_reflection,
    ),
    "power-sum": Claim(
        summary="2^{n+1} divides the alternating power sum over a full 2^n block",
        params=(("k", "0..40even", _EVEN_NONNEG), ("n", "1..14", _between(1, CLAIM_N_MAX))),
        run_one=_run_power_sum,
    ),
}


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _powering_mult_count(exponent: int) -> int:
    # modular multiplications of a binary square-and-multiply ladder
    if exponent <= 1:
        return 0
    return exponent.bit_length() - 1 + bin(exponent).count("1") - 1


def _fast_path_mult_count(k: int, n: int) -> int:
    # the folded kernel powers its terms and 3 by k mod 2^n, then spends
    # three multiplies on the coefficient and the final product
    ladder = _powering_mult_count(k % (1 << n))
    return (congruences._kernel_terms(n) + 1) * ladder + 3


@dataclass(frozen=True)
class BenchReport:
    """Timing and multiplication counts for the fast vs exact routes to E_k mod 2**n."""

    k: int
    n: int
    cutoff: int
    fast_residue: int
    fast_seconds: float
    fast_multiplications: int
    exact_residue: int | None
    exact_seconds: float | None
    exact_multiplications: int | None
    agree: bool | None


def bench_report(k: int, n: int, cutoff: int = 5000) -> BenchReport:
    """Run both routes to E_k mod 2**n and compare.

    The exact route uses a fresh table (the memoized singleton would fake
    its timing) and is skipped for k beyond the feasibility cutoff, in which
    case no equality claim is made.  ``euler_mod_2n`` refuses an odd or
    negative k and an n below 1 with ``ValueError``.
    """
    start = time.perf_counter()
    fast = congruences.euler_mod_2n(k, n)
    fast_seconds = time.perf_counter() - start
    fast_mults = _fast_path_mult_count(k, n)
    if k > cutoff:
        return BenchReport(k, n, cutoff, fast, fast_seconds, fast_mults,
                           None, None, None, None)
    table = special.EulerNumberTable()
    start = time.perf_counter()
    exact = table.value(k) % (1 << n)
    exact_seconds = time.perf_counter() - start
    return BenchReport(k, n, cutoff, fast, fast_seconds, fast_mults,
                       exact, exact_seconds, table.multiplications, exact == fast)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _fmt_pairs(pairs: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in pairs.items())


def _emit_check_records(records: Iterable[dict], fmt: str, out) -> bool:
    """Write each record as it arrives; return whether every record held.

    Nothing is kept but two counts, so a generator of records streams.
    """
    if fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["claim", "parameters", "holds", "modulus", "lhs", "rhs",
                         "witness", "detail"])
    count = failed = 0
    for r in records:
        count += 1
        failed += not r["holds"]
        if fmt == "json":
            out.write(json.dumps(r) + "\n")
        elif fmt == "csv":
            writer.writerow([r["claim"], _fmt_pairs(r["parameters"]), r["holds"],
                             r["modulus"], r["lhs"], r["rhs"], r["witness"] or "",
                             _fmt_pairs(r["detail"])])
        elif r["holds"]:
            out.write(f"ok   {r['claim']} {_fmt_pairs(r['parameters'])}\n")
        else:
            out.write(
                f"FAIL {r['claim']} {_fmt_pairs(r['parameters'])} "
                f"(mod {r['modulus']}): lhs={r['lhs']} rhs={r['rhs']} "
                f"witness={r['witness']}\n"
            )
    if fmt == "plain":
        out.write(f"checked {count} record(s): "
                  f"{'all hold' if failed == 0 else f'{failed} FAILED'}\n")
    return failed == 0


def _emit_value_records(command: str, keys: Sequence[str], rows: Iterable[tuple],
                        fmt: str, out) -> None:
    """Write each (*parameters, value) row, parameters named by keys, as it arrives."""
    if fmt == "json":
        # the bytes of json.dumps({"command", "parameters", "value": str(value)}),
        # from one template: an int or Fraction value needs no escaping
        template = (f'{{"command": {json.dumps(command)}, "parameters": {{'
                    + ", ".join(f"{json.dumps(k)}: %d" for k in keys) + '}, "value": "%s"}\n')
        out.writelines(template % row for row in rows)
    elif fmt == "csv":
        writer = csv.writer(out)
        writer.writerow([*keys, "value"])
        writer.writerows(rows)
    elif command == "stern-table":
        # stern-table prints each row's parameters, even for one row
        out.writelines(" ".join(map(str, row)) + "\n" for row in rows)
    else:
        out.writelines(f"{row[-1]}\n" for row in rows)


# ---------------------------------------------------------------------------
# command dispatch
# ---------------------------------------------------------------------------


def _records(claim: str, tuples: Iterable[dict], run_one: Callable[..., tuple]) -> Iterator[dict]:
    """Each tuple's check record, built when it is asked for; exit 3 names the tuple."""
    for t in tuples:
        try:
            fields = run_one(**t)
        except InternalInconsistencyError as exc:
            names = ", ".join(f"{name}={v}" for name, v in t.items())
            raise InternalInconsistencyError(f"claim {claim} ({names}): {exc}") from exc
        yield _check_record(claim, t, *fields)


def _cmd_check(args, out) -> int:
    claim = CLAIMS[args.claim]
    try:
        tuples = claim.tuples({name: getattr(args, name) for name, _, _ in claim.params})
    except ValueError as exc:
        args.parser.error(str(exc))
    if not tuples:
        args.parser.error("no parameter tuple in the given ranges lies in the claim's domain; "
                          "nothing to check")
    # every record is built before the first is written, so exit 3 prints no record
    records = list(_records(args.claim, tuples, claim.run_one))
    held = _emit_check_records(records, args.format, out)
    return EXIT_OK if held else EXIT_CHECK_FAILED


def _stern_record(k: int, l: int) -> tuple:
    record = congruences.stern_valuation(k, l)
    return record.v_value == record.v_index, 0, str(record.v_value), str(record.v_index)


def _cmd_sweep(args, out) -> int:
    kmax = args.kmax
    tuples = ({"k": k, "l": l} for k in range(2, kmax + 1, 2) for l in range(0, k, 2))
    # records stream, so on exit 3 those already written stay on stdout
    held = _emit_check_records(_records("stern", tuples, _stern_record), args.format, out)
    return EXIT_OK if held else EXIT_CHECK_FAILED


def _cmd_stern_table(args, out) -> int:
    n = args.n
    rows = ((k, n, value) for k, value in congruences.stern_table(n).items())
    _emit_value_records("stern-table", ("k", "n"), rows, args.format, out)
    return EXIT_OK


def _cmd_bench(args, out) -> int:
    report = bench_report(args.k, args.n, cutoff=args.cutoff)
    skipped = report.agree is None
    record = _check_record(
        "bench", {"k": report.k, "n": report.n, "cutoff": report.cutoff},
        True if skipped else report.agree, 1 << report.n,
        str(report.fast_residue),
        "" if skipped else str(report.exact_residue),
        detail={
            "fast_seconds": round(report.fast_seconds, 6),
            "fast_multiplications": report.fast_multiplications,
            "exact_seconds": None if skipped else round(report.exact_seconds, 6),
            "exact_multiplications": report.exact_multiplications,
            "exact_skipped": skipped,
        },
    )
    if args.format == "plain":
        out.write(f"fast path:  E_{report.k} mod 2^{report.n} = {report.fast_residue} "
                  f"in {report.fast_seconds:.4f}s "
                  f"({report.fast_multiplications} modular multiplications)\n")
        if skipped:
            out.write(f"exact path: skipped (k > cutoff {report.cutoff}); "
                      "no equality claim made\n")
        else:
            out.write(f"exact path: E_{report.k} mod 2^{report.n} = {report.exact_residue} "
                      f"in {report.exact_seconds:.4f}s "
                      f"({report.exact_multiplications} small-by-big multiplications)\n")
            out.write(f"agree: {report.agree}\n")
    else:
        _emit_check_records([record], args.format, out)
    return EXIT_OK if record["holds"] else EXIT_CHECK_FAILED


def _cmd_euler(args, out) -> int:
    value = special.euler_number(args.k)
    keys, row = ("k",), (args.k, value)
    if args.mod is not None:
        keys, row = ("k", "mod"), (args.k, args.mod, value % args.mod)
    _emit_value_records("euler", keys, [row], args.format, out)
    return EXIT_OK


def _cmd_bernoulli(args, out) -> int:
    value = special.bernoulli_number(args.k)
    _emit_value_records("bernoulli", ("k",), [(args.k, value)], args.format, out)
    return EXIT_OK


def _cmd_euler_mod2(args, out) -> int:
    value = congruences.euler_mod_2n(args.k, args.n)
    _emit_value_records("euler-mod2", ("k", "n"), [(args.k, args.n, value)], args.format, out)
    return EXIT_OK


class _AfterClaim(argparse.Action):
    """Refuses a claim's option given before the claim name, naming the option."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"{option_string} goes after the claim name, "
                     f"as in: eulermod check CLAIM {option_string} {values}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulermod",
        description="Exact Euler/Bernoulli numbers and machine checks of their congruences.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("plain", "json", "csv"), default="plain",
                        help="output format (default plain)")
    # for the commands that read the memoized exact tables; bench builds a fresh one
    cached = argparse.ArgumentParser(add_help=False, parents=[common])
    cached.add_argument("--cache", default=None,
                        help=f"table cache file (default from ${CACHE_ENV})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("euler", parents=[cached], help="print E_k exactly (or mod M)")
    p.add_argument("k", type=_checked(_NONNEG))
    p.add_argument("--mod", type=_checked(_MODULUS), default=None,
                   help="reduce modulo this integer >= 2")
    p.set_defaults(handler=_cmd_euler, parser=p)

    p = sub.add_parser("bernoulli", parents=[cached], help="print B_k exactly")
    p.add_argument("k", type=_checked(_NONNEG))
    p.set_defaults(handler=_cmd_bernoulli, parser=p)

    p = sub.add_parser("euler-mod2", parents=[common],
                       help="E_k mod 2^n via the fast path (never computes E_k exactly)")
    p.add_argument("k", type=_checked(_EVEN_NONNEG))
    p.add_argument("n", type=_checked(_between(1, FAST_N_MAX)))
    p.set_defaults(handler=_cmd_euler_mod2, parser=p)

    # options go after the claim: each claim's sub-parser owns them
    p = sub.add_parser("check", help="verify one claim over parameter ranges")
    p.add_argument("--format", "--cache", action=_AfterClaim, default=argparse.SUPPRESS,
                   help=argparse.SUPPRESS)
    claims = p.add_subparsers(dest="claim", required=True, metavar="claim")
    for key, claim in CLAIMS.items():
        c = claims.add_parser(key, parents=[cached], help=claim.summary, description=(
            f"{claim.summary}. Each range is N, LO..HI, LO..HIodd, LO..HIeven or a comma list."))
        for name, default, rule in claim.params:
            values = "any integers" if rule is None else f"values must be {rule.description}"
            c.add_argument(f"--{name}", default=default, metavar="RANGE",
                           type=_range_arg if rule is None else _checked(rule, _range_arg),
                           help=f"{values} (default %(default)s)")
        c.set_defaults(handler=_cmd_check, parser=c)

    p = sub.add_parser("sweep", parents=[cached],
                       help="valuation sweep over all even index pairs")
    p.add_argument("target", choices=("stern",))
    p.add_argument("--kmax", type=_checked(_between(2, SWEEP_K_MAX)), default=256)
    p.set_defaults(handler=_cmd_sweep, parser=p)

    p = sub.add_parser("stern-table", parents=[common],
                       help="table of E_k mod 2^n for even k in [0, 2^n - 2], fast path")
    p.add_argument("--n", type=_checked(_between(1, TABLE_N_MAX)), required=True)
    p.set_defaults(handler=_cmd_stern_table, parser=p)

    p = sub.add_parser("bench", parents=[common],
                       help="time the fast path against the exact table")
    p.add_argument("--k", type=_checked(_EVEN_NONNEG), required=True)
    p.add_argument("--n", type=_checked(_between(1, FAST_N_MAX)), required=True)
    p.add_argument("--cutoff", type=_checked(_NONNEG), default=5000,
                   help="skip the exact path above this k (default 5000)")
    p.set_defaults(handler=_cmd_bench, parser=p)
    return parser


def _merge_negative_ranges(argv: Sequence[str]) -> list[str]:
    # argparse reads "-5..5" as an option: fold "--name -5..5" into "--name=-5..5"
    out: list[str] = []
    for token in argv:
        if out and re.match(r"^--\w[\w-]*$", out[-1]) and re.match(r"^-\d", token):
            out[-1] += f"={token}"
        else:
            out.append(token)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use and kept: in-process callers of main pay for it once
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args, extra = _parser().parse_known_args(_merge_negative_ranges(
        sys.argv[1:] if argv is None else argv))
    if extra:  # refused by the leaf parser, so the usage shown is the command's own
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")

    cache_path = (args.cache or os.environ.get(CACHE_ENV)) if "cache" in args else None
    loaded = None  # the file's top index per table, once read
    if cache_path and os.path.exists(cache_path):
        try:
            loaded = special.load_tables(cache_path)
        except (special.CacheError, OSError) as exc:
            print(f"cache load refused: {exc}", file=sys.stderr)
            return EXIT_USAGE

    try:
        # exact Euler numbers exceed the default int -> str conversion limit
        with special._unlimited_int_str():
            status = args.handler(args, sys.stdout)
            sys.stdout.flush()
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenPipeError:
        # the reader left: the interpreter's exit flush goes to devnull, silently
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE

    # rewritten only when absent or when a table grew past what the file holds
    if cache_path and loaded != (special.euler_table().computed_up_to,
                                 special.bernoulli_table().computed_up_to):
        try:
            special.save_tables(cache_path)
        except OSError as exc:
            print(f"cache save failed: {exc}", file=sys.stderr)
            return EXIT_USAGE
    return status


if __name__ == "__main__":
    raise SystemExit(main())
