import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from eulermod import cli, congruences, exactmath, special
from eulermod.exactmath import InternalInconsistencyError, UnivariatePolynomial

REQUIRED_FIELDS = {"claim", "parameters", "holds", "modulus", "lhs", "rhs"}


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_records(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines() if line]


# one value outside each rule a claim parameter can carry, keyed by its description
_OUT_OF_RULE = {
    ">= 0": "-1",
    "even and >= 0": "3",
    "odd and >= 1": "2",
    ">= 1": "0",
    "even and >= 2": "0",
    "> 1": "1",
    "an odd prime": "9",
    f"between 1 and {cli.CLAIM_N_MAX}": "0",
}


# one single-tuple box per claim and its whole JSON record, field order included
_PINNED_RECORDS = {
    "1.1": ("--k 10 --q 15",
            '{"claim": "1.1", "parameters": {"k": 10, "q": 15}, "holds": true, "modulus": 15, '
            '"lhs": "-50521", "rhs": "280860314945729", "witness": "-18724020999750", '
            '"detail": {}}'),
    "1.3": ("--k 6 --n 4 --m 3",
            '{"claim": "1.3", "parameters": {"k": 6, "n": 4, "m": 3}, "holds": true, '
            '"modulus": 64, "lhs": "-133468", "rhs": "1623438959652", '
            '"witness": "-25366235830", "detail": {"coefficient_v2": 0}}'),
    "2.1": ("--n 5",
            '{"claim": "2.1", "parameters": {"n": 5}, "holds": true, "modulus": 0, '
            '"lhs": "(n+1)/2 * E_n(x)", "rhs": "B_{n+1}(x) - 2^{n+1} B_{n+1}(x/2) and '
            '2^{n+1} B_{n+1}((x+1)/2) - B_{n+1}(x)", "witness": null, "detail": {}}'),
    "2.2": ("--a 1 --k 3 --m 5 --q 6",
            '{"claim": "2.2", "parameters": {"a": 1, "k": 3, "m": 5, "q": 6}, "holds": true, '
            '"modulus": 6, "lhs": "1/k (m^k B_k((x+a)/m) - B_k(x))", '
            '"rhs": "sum_j (floor((a+jm)/q) + (1-m)/2)(x+a+jm)^(k-1)", "witness": null, '
            '"detail": {"route": "cleared"}}'),
    "2.3": ("--a -2 --k 4 --m 5 --q 6",
            '{"claim": "2.3", "parameters": {"a": -2, "k": 4, "m": 5, "q": 6}, "holds": true, '
            '"modulus": 6, "lhs": "m^{k+1}/2 E_k((x+a)/m) - (-1)^a/2 E_k(x)", '
            '"rhs": "sum_j (-1)^{j-1}(floor((a+jm)/q) + (1-m)/2)(x+a+jm)^k", '
            '"witness": null, "detail": {}}'),
    "2.4": ("--a 3 --m 5 --q 8",
            '{"claim": "2.4", "parameters": {"a": 3, "m": 5, "q": 8}, "holds": true, '
            '"modulus": 0, "lhs": "3", "rhs": "3", "witness": null, "detail": {}}'),
    "kummer": ("--n 1",
               '{"claim": "kummer", "parameters": {"p": 13, "n": 1, "k": 16, "l": 4}, '
               '"holds": true, "modulus": 13, "lhs": "-3617/8160", "rhs": "-1/120", '
               '"witness": "-91/2720", '
               '"detail": {"congruence_holds": true, "exponent_congruent": true}}'),
    "thangadurai": ("--k 26",
                    '{"claim": "thangadurai", "parameters": {"p": 13, "k": 26}, "holds": true, '
                    '"modulus": 13, "lhs": "1", "rhs": "1", "witness": null, '
                    '"detail": {"lower_bound": true, "conjectured_ceiling": true}}'),
    "raabe": ("--n 4 --m 3",
              '{"claim": "raabe", "parameters": {"n": 4, "m": 3}, "holds": true, "modulus": 0, '
              '"lhs": "m^{n-1} sum_r B_n((x+r)/m)", "rhs": "B_n(x)", "witness": null, '
              '"detail": {}}'),
    "reflection": ("--n 6",
                   '{"claim": "reflection", "parameters": {"n": 6}, "holds": true, '
                   '"modulus": 0, "lhs": "E_n(x) + E_n(x+1)", "rhs": "2 x^n", '
                   '"witness": null, "detail": {}}'),
    "power-sum": ("--k 6 --n 3",
                  '{"claim": "power-sum", "parameters": {"k": 6, "n": 3}, "holds": true, '
                  '"modulus": 16, "lhs": "0", "rhs": "0", "witness": null, "detail": {}}'),
}

# sha256 of the whole `check <claim> --format json` stdout over the default envelope,
# for the claims whose records carry the congruence decision's route, witness and verdict
_ENVELOPE_SHA256 = {
    "2.2": "7e255b83fa0e1be0cfd50e210f1ef88fd863211da8853a3129b3f49f613ebb9f",
    "2.3": "82918cdead1ad5b70ff98aae91eddb686efcef92ec675004138722f0b4dd2c65",
    "1.1": "fb4147c531636856b645fb6f7a37721e5c5f5f63cfa5e814c15d027d7316b9ab",
    "kummer": "b49726ec15975fdbeaf186adeec2a2167bf8a21364ba3f26a2b01fcf8288dd89",
}


class TestParseRange:
    @pytest.mark.parametrize("spec,expected", [
        ("5", [5]),
        ("-7", [-7]),
        ("1..5", [1, 2, 3, 4, 5]),
        ("1..9odd", [1, 3, 5, 7, 9]),
        ("0..8even", [0, 2, 4, 6, 8]),
        ("-3..3", [-3, -2, -1, 0, 1, 2, 3]),
        ("-4..4even", [-4, -2, 0, 2, 4]),
        ("2,4,6,8,16", [2, 4, 6, 8, 16]),
        ("1..3,10", [1, 2, 3, 10]),
        ("2,2", [2]),
        ("3,1..4,3", [3, 1, 2, 4]),
    ])
    def test_valid(self, spec, expected):
        assert cli.parse_range(spec) == expected

    @pytest.mark.parametrize("spec", ["", "x", "1..", "..5", "5..1", "1..5prime", "1...5"])
    def test_invalid(self, spec):
        with pytest.raises(ValueError):
            cli.parse_range(spec)

    def test_expansion_capped(self):
        cap = cli.CHECK_TUPLES_MAX
        assert len(cli.parse_range(f"1..{cap}")) == cap
        assert len(cli.parse_range(f"0..{2 * cap}odd")) == cap
        for spec in (f"0..{cap}", f"1..{2 * cap + 1}odd", f"5,1..{cap}"):
            with pytest.raises(ValueError, match=f"CHECK_TUPLES_MAX = {cap} values"):
                cli.parse_range(spec)


class TestValueCommands:
    def test_euler_plain(self, capsys):
        code, out, _ = run_cli(["euler", "6"], capsys)
        assert code == 0 and out == "-61\n"

    def test_euler_mod(self, capsys):
        code, out, _ = run_cli(["euler", "12", "--mod", "35"], capsys)
        assert code == 0 and out == "30\n"

    def test_euler_json(self, capsys):
        code, out, _ = run_cli(["euler", "6", "--format", "json"], capsys)
        (record,) = json_records(out)
        assert record == {"command": "euler", "parameters": {"k": 6}, "value": "-61"}

    def test_bernoulli(self, capsys):
        code, out, _ = run_cli(["bernoulli", "4"], capsys)
        assert code == 0 and out == "-1/30\n"

    def test_euler_mod2(self, capsys):
        code, out, _ = run_cli(["euler-mod2", "2", "2"], capsys)
        assert code == 0 and out == "3\n"

    @pytest.mark.parametrize("argv", [
        ["stern-table", "--n", "5"],
        ["euler", "12", "--mod", "35"],
        ["bernoulli", "12"],
    ])
    def test_json_lines_are_json_dumps(self, argv, capsys):
        # value records are written from a template; the bytes must stay json.dumps'
        code, out, _ = run_cli([*argv, "--format", "json"], capsys)
        assert code == 0 and out
        assert out == "".join(json.dumps(r) + "\n" for r in json_records(out))

    def test_usage_error_then_valid_command(self, capsys):
        # main keeps one parser per process: a refused call must leave no trace
        with pytest.raises(SystemExit) as exc:
            cli.main(["euler", "6", "--mod", "1", "--format", "json"])
        assert exc.value.code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert "--mod: values must be >= 2" in captured.err and captured.out == ""
        code, out, err = run_cli(["euler", "6"], capsys)
        assert code == 0 and out == "-61\n" and err == ""

    def test_large_euler_prints_all_digits(self, capsys):
        # E_1800 has ~4700 digits, beyond the default int -> str conversion limit
        code, out, _ = run_cli(["euler", "1800"], capsys)
        assert code == 0
        digits = out.strip().lstrip("-")
        assert len(digits) > 4300 and digits.isdigit()

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int -> str digit limit in this Python")
    def test_digit_limit_restored(self, capsys):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, _ = run_cli(["euler", "600"], capsys)
            limit = sys.get_int_max_str_digits()
        finally:
            sys.set_int_max_str_digits(previous)
        assert limit == 640
        # E_600 has about 1400 digits, beyond the limit the test set
        assert code == 0 and len(out.strip().lstrip("-")) > 640
        assert int(out) == special.euler_number(600)

    @pytest.mark.parametrize("argv,expected", [
        (["bernoulli", "12"], "-691/2730\n"),
        (["bernoulli", "12", "--format", "csv"], "k,value\r\n12,-691/2730\r\n"),
        (["euler", "10", "--mod", "7"], "5\n"),
        (["euler", "10", "--mod", "7", "--format", "csv"], "k,mod,value\r\n10,7,5\r\n"),
        (["euler-mod2", "10", "8"], "167\n"),
        (["euler-mod2", "10", "8", "--format", "csv"], "k,n,value\r\n10,8,167\r\n"),
        (["stern-table", "--n", "2"], "0 2 1\n2 2 3\n"),
        (["stern-table", "--n", "2", "--format", "csv"], "k,n,value\r\n0,2,1\r\n2,2,3\r\n"),
    ])
    def test_value_output_pinned(self, argv, expected, capsys):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and out == expected

    @pytest.mark.parametrize("argv", [
        ["euler", "-4"],
        ["euler", "6", "--mod", "1"],
        ["euler-mod2", "3", "2"],
        ["euler-mod2", "2", "0"],
        ["bernoulli", "-1"],
    ])
    def test_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_USAGE


@pytest.mark.parametrize("argv,name,usage", [
    (["euler", "-4"], "k", "euler"),
    (["euler", "6", "--mod", "1"], "--mod", "euler"),
    (["euler-mod2", "3", "2"], "k", "euler-mod2"),
    (["stern-table", "--n", "21"], "--n", "stern-table"),
    (["sweep", "stern", "--kmax", "1"], "--kmax", "sweep"),
    (["bench", "--k", "3", "--n", "2"], "--k", "bench"),
    (["check", "2.3", "--q", "3"], "--q", "check 2.3"),
    (["bench", "--k", "4", "--n", "3", "--cutoff", "-5"], "--cutoff", "bench"),
    (["bench", "--k", "4", "--n", "3", "--cutoff=-5"], "--cutoff", "bench"),
])
def test_refusal_names_argument_and_command(argv, name, usage, capsys):
    # argparse checks every argument, so the refusal shows the command's own usage
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {name}: values must be" in captured.err
    assert captured.err.startswith(f"usage: eulermod {usage} ")


@pytest.mark.parametrize("argv,usage,extra", [
    (["check", "2.1", "--k", "4"], "check 2.1", "--k 4"),
    (["euler-mod2", "10", "4", "--bogus"], "euler-mod2", "--bogus"),
    # the fast-path commands never read the exact tables, so they take no cache
    (["euler-mod2", "10", "4", "--cache", "F"], "euler-mod2", "--cache F"),
    (["stern-table", "--n", "3", "--cache", "F"], "stern-table", "--cache F"),
    (["bench", "--k", "4", "--n", "3", "--cache", "F"], "bench", "--cache F"),
])
def test_unrecognized_argument_shows_command_usage(argv, usage, extra, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: eulermod {usage} ")
    assert f"eulermod {usage}: error: unrecognized arguments: {extra}\n" in captured.err


@pytest.mark.parametrize("argv,option", [
    (["check", "--format", "json", "2.4"], "--format json"),
    (["check", "--format=json", "2.4"], "--format json"),
    (["check", "--cache", "F", "2.4"], "--cache F"),
])
def test_claim_option_before_claim_refused(argv, option, capsys):
    # argparse would read the option's value as the claim name
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: eulermod check ")
    name = option.split()[0]
    assert (f"eulermod check: error: {name} goes after the claim name, "
            f"as in: eulermod check CLAIM {option}\n") in captured.err


def test_negative_value_reaches_option_type(capsys):
    # "--mod -3..4" is folded into "--mod=-3..4", so --mod's own int type refuses it
    with pytest.raises(SystemExit) as exc:
        cli.main(["euler", "6", "--mod", "-3..4"])
    assert exc.value.code == cli.EXIT_USAGE
    assert "argument --mod: invalid int value: '-3..4'" in capsys.readouterr().err


def test_closed_pipe_exits_quietly(monkeypatch):
    # about 310 KB of records, far past one pipe buffer, so the writer meets the closed end
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", src if not path else src + os.pathsep + path)
    proc = subprocess.Popen([sys.executable, "-m", "eulermod.cli", "check", "2.4",
                             "--format", "json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == cli.EXIT_PIPE
    assert err == b"" and all(json.loads(line)["claim"] == "2.4" for line in lines)


class TestCheckCommand:
    def test_small_sweep_holds(self, capsys):
        code, out, _ = run_cli(
            ["check", "1.1", "--k", "0..8even", "--q", "1..9odd", "--format", "json"],
            capsys)
        assert code == 0
        records = json_records(out)
        assert len(records) == 5 * 5
        assert all(r["holds"] for r in records)

    def test_json_schema_stability(self, capsys):
        for argv in (
            ["check", "2.4", "--a", "0..2", "--m", "1", "--q", "2"],
            ["check", "raabe", "--n", "0..3", "--m", "1..2"],
            ["check", "kummer"],
            ["check", "power-sum", "--k", "0..4even", "--n", "1..3"],
        ):
            code, out, _ = run_cli(argv + ["--format", "json"], capsys)
            assert code == 0
            for record in json_records(out):
                assert REQUIRED_FIELDS <= set(record)

    @pytest.mark.parametrize("claim", list(cli.CLAIMS))
    def test_exact_record_pinned(self, claim, capsys):
        argv, expected = _PINNED_RECORDS[claim]
        code, out, _ = run_cli(["check", claim, *argv.split(), "--format", "json"], capsys)
        assert code == 0
        assert out == expected + "\n"

    @pytest.mark.parametrize("claim", list(_ENVELOPE_SHA256))
    def test_default_envelope_pinned(self, claim, capsys):
        code, out, _ = run_cli(["check", claim, "--format", "json"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == _ENVELOPE_SHA256[claim]

    def test_defaults_applied(self, capsys):
        code, out, _ = run_cli(["check", "kummer", "--format", "json"], capsys)
        (record,) = json_records(out)
        assert record["parameters"] == {"p": 13, "n": 2, "k": 16, "l": 4}
        assert record["holds"]
        assert record["detail"] == {"congruence_holds": True, "exponent_congruent": False}

    def test_negative_range_value(self, capsys):
        code, out, _ = run_cli(
            ["check", "2.4", "--a", "-10..10", "--m", "1..5odd", "--q", "2..8even",
             "--format", "json"], capsys)
        assert code == 0
        records = json_records(out)
        assert {r["parameters"]["a"] for r in records} == set(range(-10, 11))

    def test_short_negative_range_value(self, capsys):
        code, out, _ = run_cli(["check", "2.4", "--a", "-3..3", "--m", "1", "--q", "2"], capsys)
        assert code == 0 and "checked 7 record(s): all hold" in out

    def test_documented_full_sweep(self, capsys):
        code, out, _ = run_cli(
            ["check", "2.4", "--a", "-10..10", "--m", "1..15odd", "--q", "2..32even"],
            capsys)
        assert code == 0
        assert "all hold" in out

    def test_thangadurai_defaults(self, capsys):
        code, out, _ = run_cli(["check", "thangadurai", "--format", "json"], capsys)
        assert code == 0
        records = json_records(out)
        # multiples of p - 1 = 12 fall outside the claim's domain
        assert {r["parameters"]["k"] for r in records} == \
            {k for k in range(2, 61, 2) if k % 12}

    def test_route_detail_recorded(self, capsys):
        code, out, _ = run_cli(
            ["check", "2.2", "--a", "0", "--k", "2..3", "--m", "1", "--q", "4",
             "--format", "json"], capsys)
        assert code == 0
        routes = {r["parameters"]["k"]: r["detail"]["route"] for r in json_records(out)}
        assert routes == {2: "cleared", 3: "stated"}

    def test_coefficient_valuation_recorded(self, capsys):
        code, out, _ = run_cli(
            ["check", "1.3", "--k", "2", "--n", "1..2", "--m", "7", "--format", "json"],
            capsys)
        assert code == 0
        for record in json_records(out):
            assert record["detail"]["coefficient_v2"] >= 1  # m = 7 coefficient is even

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            ["check", "2.4", "--a", "0..2", "--m", "1..3odd", "--q", "2",
             "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["claim", "parameters", "holds", "modulus", "lhs", "rhs",
                           "witness", "detail"]
        assert all(row[2] == "True" for row in rows[1:])

    def test_plain_summary(self, capsys):
        code, out, _ = run_cli(["check", "reflection", "--n", "0..4"], capsys)
        assert code == 0
        assert "checked 5 record(s): all hold" in out

    @pytest.mark.parametrize("argv", [
        ["check", "1.1", "--k", "0..8"],          # parity violated
        ["check", "1.1", "--q", "2..4even"],      # parity violated
        ["check", "1.1", "--k", "nonsense"],      # malformed range
        ["check", "2.1", "--m", "1..3"],          # flag the claim does not take
        ["check", "2.3", "--q", "3..5odd"],       # q must be even
        ["check", "nosuch"],                      # unknown claim
        ["check", "2.4", "--parallel", "2"],      # option removed, not ignored
        ["sweep", "stern", "--parallel", "2"],    # option removed, not ignored
    ])
    def test_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_USAGE

    def test_option_before_claim_refused(self, capsys):
        # --format belongs to the claim's sub-parser; were it also on `check`, the
        # claim's default would silently replace it
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "--format", "json", "2.4", "--a", "0", "--m", "1", "--q", "2"])
        assert exc.value.code == cli.EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_claim_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "2.2", "-h"])
        assert exc.value.code == cli.EXIT_OK
        out = capsys.readouterr().out
        for name, default, _ in cli.CLAIMS["2.2"].params:
            assert f"--{name} RANGE" in out and f"(default {default})" in out

    def test_repeated_values_checked_once(self, capsys):
        code, out, _ = run_cli(["check", "1.1", "--k", "2,2", "--q", "3", "--format", "json"],
                               capsys)
        assert code == 0
        assert [r["parameters"] for r in json_records(out)] == [{"k": 2, "q": 3}]

    @pytest.mark.parametrize("argv", [
        ["check", "kummer", "--p", "3", "--k", "2", "--l", "4"],
        ["check", "thangadurai", "--p", "3", "--k", "2..10even"],
    ])
    def test_empty_domain_refused(self, argv, capsys):
        # every k (or l) is a multiple of p - 1, so the domain filter keeps no tuple
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert "no parameter tuple" in captured.err and captured.out == ""

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.congruences, "signed_floor_sum_identity",
                            lambda a, m, q: (Fraction(0), Fraction(1)))
        code, out, _ = run_cli(
            ["check", "2.4", "--a", "0", "--m", "1", "--q", "2", "--format", "json"],
            capsys)
        assert code == cli.EXIT_CHECK_FAILED
        (record,) = json_records(out)
        assert record["holds"] is False

    def test_internal_inconsistency_exits_three(self, capsys, monkeypatch):
        def boom(k, n):
            raise InternalInconsistencyError("forced")
        monkeypatch.setattr(cli.congruences, "euler_mod_2n", boom)
        code, _, err = run_cli(["euler-mod2", "2", "2"], capsys)
        assert code == cli.EXIT_INTERNAL
        assert "internal inconsistency" in err

    def test_internal_inconsistency_names_claim_and_tuple(self, capsys, monkeypatch):
        def boom(a, k, m, q):
            raise InternalInconsistencyError(f"coefficient 2 = 1/2 fell outside the {q}-integers")
        monkeypatch.setattr(cli.congruences, "check_euler_poly_congruence", boom)
        code, out, err = run_cli(
            ["check", "2.3", "--a", "1", "--k", "4", "--m", "3", "--q", "8"], capsys)
        assert code == cli.EXIT_INTERNAL and out == ""
        assert ("internal inconsistency: claim 2.3 (a=1, k=4, m=3, q=8): "
                "coefficient 2 = 1/2 fell outside the 8-integers") in err

    def test_bernoulli_coefficient_outside_q_integers_exits_three(self, capsys, monkeypatch):
        real = cli.congruences._floor_sum_terms
        monkeypatch.setattr(cli.congruences, "_floor_sum_terms", lambda *args, **kwargs: (
            UnivariatePolynomial([*real(*args, **kwargs).coefficients, *[0] * 8, Fraction(1, 2)])))
        code, out, err = run_cli(
            ["check", "2.2", "--a", "1", "--k", "3", "--m", "3", "--q", "4"], capsys)
        assert code == cli.EXIT_INTERNAL and out == ""
        assert ("internal inconsistency: claim 2.2 (a=1, k=3, m=3, q=4): "
                "coefficient 10 = 1/2 fell outside the 4-integers") in err

    @pytest.mark.parametrize("claim,k,source,routes", [
        ("2.2", 3, "bernoulli_polynomial", ["stated", "stated", "cleared", "stated", "stated"]),
        ("2.3", 4, "euler_polynomial", [None] * 5),
    ])
    def test_left_side_built_once_per_a_k_m(self, claim, k, source, routes, capsys,
                                            monkeypatch):
        check = cli.CLAIMS[claim].run_one
        getattr(special, source)(k)  # the polynomial itself is built by affine once, cached
        check(a=0, k=k, m=5, q=2)  # evict (1, k, 5) from the one-entry memo
        calls = []
        affine = UnivariatePolynomial.affine
        monkeypatch.setattr(UnivariatePolynomial, "affine",
                            lambda self, *args: calls.append(args) or affine(self, *args))
        code, out, _ = run_cli(["check", claim, "--a", "1", "--k", str(k), "--m", "5",
                                "--q", "2,4,6,8,16", "--format", "json"], capsys)
        records = json_records(out)
        assert code == 0 and all(r["holds"] for r in records)
        assert [r["detail"].get("route") for r in records] == routes
        assert len(calls) == 1

    @pytest.mark.parametrize("claim,flag,value", [
        (key, name, _OUT_OF_RULE[rule[0]])
        for key, claim in cli.CLAIMS.items()
        for name, _, rule in claim.params if rule is not None
    ])
    def test_every_rule_rejects(self, claim, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", claim, f"--{flag}", value])
        assert exc.value.code == cli.EXIT_USAGE
        assert f"--{flag}: values must be" in capsys.readouterr().err

    def test_every_rule_is_the_library_rule_or_a_cap(self):
        library = [v for v in vars(exactmath).values() if isinstance(v, exactmath._Rule)]
        for claim in cli.CLAIMS.values():
            for name, _, rule in claim.params:
                if rule is not None:
                    assert (any(rule is known for known in library)
                            or rule.holds.__qualname__.startswith("_between.")), name

    def test_huge_range_refused_at_once(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "2.4", "--a", "0..100000000000", "--m", "1", "--q", "2"])
        assert exc.value.code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert "CHECK_TUPLES_MAX" in captured.err and captured.out == ""

    def test_box_over_cap_refused(self, capsys):
        half = cli.CHECK_TUPLES_MAX // 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "2.4", f"--a=0..{half}", "--m", "1", "--q", "2,4"])
        assert exc.value.code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert (f"the ranges span {2 * half + 2} tuples, more than "
                f"CHECK_TUPLES_MAX = {cli.CHECK_TUPLES_MAX}") in captured.err
        assert captured.out == ""

    def test_box_at_cap_accepted(self):
        half = cli.CHECK_TUPLES_MAX // 2
        box = {"a": list(range(half)), "m": [1], "q": [2, 4]}
        assert len(cli.CLAIMS["2.4"].tuples(box)) == cli.CHECK_TUPLES_MAX


class TestSweepAndTable:
    def test_stern_sweep(self, capsys):
        code, out, _ = run_cli(["sweep", "stern", "--kmax", "20", "--format", "json"],
                               capsys)
        assert code == 0
        records = json_records(out)
        assert len(records) == sum(k // 2 for k in range(2, 21, 2))
        assert all(r["holds"] for r in records)
        assert all(r["lhs"] == r["rhs"] for r in records)

    def test_stern_table_matches_exact(self, capsys):
        code, out, _ = run_cli(["stern-table", "--n", "4", "--format", "json"], capsys)
        assert code == 0
        records = json_records(out)
        assert [r["parameters"]["k"] for r in records] == list(range(0, 15, 2))
        for r in records:
            k = r["parameters"]["k"]
            assert int(r["value"]) == special.euler_number(k) % 16

    @pytest.mark.parametrize("n,expected", [(1, "0 1 1\n"), (2, "0 2 1\n2 2 3\n")])
    def test_stern_table_plain_rows(self, n, expected, capsys):
        code, out, _ = run_cli(["stern-table", "--n", str(n)], capsys)
        assert code == 0 and out == expected

    def test_stern_table_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["stern-table", "--n", "0"])
        assert exc.value.code == cli.EXIT_USAGE

    def test_sweep_kmax_capped(self, capsys):
        # refused before any record is built
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "stern", "--kmax", str(cli.SWEEP_K_MAX + 2)])
        assert exc.value.code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert f"between 2 and {cli.SWEEP_K_MAX}" in captured.err and captured.out == ""

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    def test_sweep_streams_records(self, capsys, monkeypatch, fmt):
        # every earlier record is on stdout before the last one is built
        kmax = 12
        stern_record = cli._stern_record
        before_last = []

        def record(k, l):
            if (k, l) == (kmax, kmax - 2):
                before_last.append(capsys.readouterr().out)
            return stern_record(k, l)

        monkeypatch.setattr(cli, "_stern_record", record)
        code, rest, _ = run_cli(["sweep", "stern", "--kmax", str(kmax), "--format", fmt],
                                capsys)
        assert code == cli.EXIT_OK
        (early,) = before_last
        count = sum(k // 2 for k in range(2, kmax + 1, 2))
        lines = (early + rest).splitlines(keepends=True)
        assert len(lines) == count + (fmt != "json")  # plain's summary, csv's header
        assert early == "".join(lines[:count - 1 + (fmt == "csv")])

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    def test_stern_table_streams_rows(self, capsys, monkeypatch, fmt):
        # every earlier row is on stdout before the last one is read from the table
        table = congruences.stern_table(4)
        before_last = []

        class Table(dict):
            def items(self):
                *head, last = super().items()
                yield from head
                before_last.append(capsys.readouterr().out)
                yield last

        monkeypatch.setattr(congruences, "stern_table", lambda n: Table(table))
        code, rest, _ = run_cli(["stern-table", "--n", "4", "--format", fmt], capsys)
        assert code == cli.EXIT_OK
        (early,) = before_last
        count = len(table)
        lines = (early + rest).splitlines(keepends=True)
        assert len(lines) == count + (fmt == "csv")  # csv's header
        assert early == "".join(lines[:count - 1 + (fmt == "csv")])

    def test_stern_table_inconsistency_prints_no_row(self, capsys, monkeypatch):
        # the whole table is built before the first row is written
        cleared_residue = congruences._cleared_residue

        def residue(k, n, three, half_s):
            if k == 14:
                raise InternalInconsistencyError("injected on the last row")
            return cleared_residue(k, n, three, half_s)

        monkeypatch.setattr(congruences, "_cleared_residue", residue)
        code, out, err = run_cli(["stern-table", "--n", "4"], capsys)
        assert code == cli.EXIT_INTERNAL
        assert out == "" and "injected on the last row" in err


@pytest.mark.parametrize("argv,cap", [
    (["euler-mod2", "2", str(cli.FAST_N_MAX + 1)], cli.FAST_N_MAX),
    (["bench", "--k", "2", "--n", str(cli.FAST_N_MAX + 1)], cli.FAST_N_MAX),
    (["stern-table", "--n", str(cli.TABLE_N_MAX + 1)], cli.TABLE_N_MAX),
    (["check", "1.3", "--n", str(cli.CLAIM_N_MAX + 1)], cli.CLAIM_N_MAX),
    (["check", "power-sum", "--n", str(cli.CLAIM_N_MAX + 1)], cli.CLAIM_N_MAX),
])
def test_oversized_n_refused(argv, cap, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert f"between 1 and {cap}" in captured.err and captured.out == ""


class TestBench:
    def test_agreement(self, capsys):
        code, out, _ = run_cli(["bench", "--k", "100", "--n", "8"], capsys)
        assert code == 0
        assert "agree: True" in out

    def test_cutoff_skips_exact(self, capsys):
        code, out, _ = run_cli(["bench", "--k", "100", "--n", "6", "--cutoff", "10"],
                               capsys)
        assert code == 0
        assert "skipped" in out and "no equality claim" in out

    def test_json_record(self, capsys):
        code, out, _ = run_cli(["bench", "--k", "60", "--n", "5", "--format", "json"],
                               capsys)
        (record,) = json_records(out)
        assert record["holds"] and record["lhs"] == record["rhs"]
        assert record["detail"]["fast_multiplications"] > (1 << 5)
        assert record["detail"]["exact_skipped"] is False

    def test_report_object(self):
        report = cli.bench_report(200, 6)
        assert report.agree is True
        assert report.fast_residue == special.euler_number(200) % 64
        assert report.exact_multiplications > 0
        skipped = cli.bench_report(200, 6, cutoff=100)
        assert skipped.agree is None and skipped.exact_residue is None

    def test_degenerate_instance(self):
        report = cli.bench_report(0, 1)
        assert report.fast_residue == report.exact_residue == 1
        assert report.agree is True

    def test_multiplication_count_matches_kernel(self):
        # 10**6 = 16960 (mod 2**16) costs a 16-multiply ladder, run for the
        # J(15) = 10923 terms of the second fold and for 3**k, plus 3 more
        assert cli.bench_report(10 ** 6, 16, cutoff=0).fast_multiplications == 174787

    @pytest.mark.parametrize("k,n,message", [
        (3, 4, "k must be even and >= 0, got 3"),
        (2, 0, "n must be >= 1, got 0"),
    ])
    def test_report_refuses_bad_input(self, k, n, message):
        with pytest.raises(ValueError, match=message):
            cli.bench_report(k, n)

    def test_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "--k", "3", "--n", "2"])
        assert exc.value.code == cli.EXIT_USAGE


class TestCache:
    def test_flag_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "tables.cache"
        code, _, _ = run_cli(["euler", "30", "--cache", str(path)], capsys)
        assert code == 0 and path.exists()
        text = path.read_text()
        assert "E 30" in text and text.startswith("E 0 1\n")
        code, out, _ = run_cli(["euler", "30", "--cache", str(path)], capsys)
        assert code == 0

    def test_env_var_default(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "env.cache"
        monkeypatch.setenv(cli.CACHE_ENV, str(path))
        code, _, _ = run_cli(["euler", "10"], capsys)
        assert code == 0 and path.exists()

    @pytest.mark.parametrize("argv,reads_tables", [
        (["bernoulli", "6"], True),
        (["check", "2.1", "--n", "0..3"], True),
        (["sweep", "stern", "--kmax", "4"], True),
        (["euler-mod2", "10", "4"], False),
        (["stern-table", "--n", "3"], False),
        (["bench", "--k", "4", "--n", "3"], False),
    ])
    def test_env_var_reaches_table_commands_only(self, argv, reads_tables, tmp_path, capsys,
                                                 monkeypatch):
        path = tmp_path / "env.cache"
        monkeypatch.setenv(cli.CACHE_ENV, str(path))
        code, _, _ = run_cli(argv, capsys)
        assert code == 0 and path.exists() == reads_tables

    def test_fast_path_ignores_unreadable_env_cache(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "non-ascii.cache"
        path.write_bytes(b"E 0 1\n\xc3\xa9\n")
        monkeypatch.setenv(cli.CACHE_ENV, str(path))
        code, out, err = run_cli(["euler-mod2", "10", "4"], capsys)
        assert (code, out, err) == (0, "7\n", "")
        assert path.read_bytes() == b"E 0 1\n\xc3\xa9\n"
        code, out, err = run_cli(["euler", "6"], capsys)
        assert code == cli.EXIT_USAGE and out == "" and err.startswith("cache load refused")

    def test_corrupt_cache_refused(self, tmp_path, capsys):
        path = tmp_path / "tables.cache"
        run_cli(["euler", "30", "--cache", str(path)], capsys)
        text = path.read_text()
        assert "E 6 -61" in text
        path.write_text(text.replace("E 6 -61", "E 6 -69"))
        code, _, err = run_cli(["euler", "30", "--cache", str(path)], capsys)
        assert code == cli.EXIT_USAGE
        assert "cache load refused" in err

    @pytest.mark.parametrize("case", ["non-ascii", "directory", "missing-parent"])
    def test_cache_io_error_exits_two(self, case, tmp_path, capsys):
        path = tmp_path / "tables.cache"
        message = "cache load refused: "
        if case == "non-ascii":
            path.write_bytes(b"E 0 1\nE 1 0\n\xc3\xa9\n")
        elif case == "directory":
            path.mkdir()
        else:
            path = tmp_path / "missing" / "tables.cache"
            message = "cache save failed: "
        code, _, err = run_cli(["euler", "6", "--cache", str(path)], capsys)
        assert code == cli.EXIT_USAGE
        assert err.startswith(message) and err.count("\n") == 1 and path.name in err

    def test_resume_past_cached_top(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "tables.cache"
        expected = special.euler_number(400)
        for top in (300, 400):
            monkeypatch.setattr(special, "_EULER", special.EulerNumberTable())
            code, out, _ = run_cli(["euler", str(top), "--cache", str(path)], capsys)
            assert code == 0
        assert out == f"{expected}\n"
        assert special._EULER.computed_up_to == 400

    def test_read_only_command_keeps_cache(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "tables.cache"
        monkeypatch.setattr(special, "_EULER", special.EulerNumberTable())
        monkeypatch.setattr(special, "_BERNOULLI", special.BernoulliNumberTable())
        assert run_cli(["euler", "20", "--cache", str(path)], capsys)[0] == 0
        before = path.stat()
        assert run_cli(["euler", "10", "--cache", str(path)], capsys)[0] == 0
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert run_cli(["euler", "30", "--cache", str(path)], capsys)[0] == 0
        assert path.stat().st_ino != before.st_ino and "E 30 " in path.read_text()

    def test_tampered_row_below_top_exits_three(self, tmp_path, capsys, monkeypatch):
        # E_6 is corrupted and E_8 re-derived from it, so only the replay sees it
        values = [special.euler_number(n) for n in range(9)]
        values[6] += 2
        values[8] = special._euler_row(values, 8)
        path = tmp_path / "tables.cache"
        path.write_text("".join(f"E {n} {v}\n" for n, v in enumerate(values)))
        monkeypatch.setattr(special, "_EULER", special.EulerNumberTable())
        monkeypatch.setattr(special.random, "randrange", lambda lo, hi: 2)
        code, out, err = run_cli(["euler", "10", "--cache", str(path)], capsys)
        assert code == cli.EXIT_INTERNAL
        assert "E 6 differs" in err and out == ""

    def test_tampered_row_under_sweep_names_pair(self, tmp_path, capsys, monkeypatch):
        # E_10 is the first entry past the cached top, so (10, 0) is the first pair to replay
        values = [special.euler_number(n) for n in range(9)]
        values[6] += 2
        values[8] = special._euler_row(values, 8)
        path = tmp_path / "tables.cache"
        path.write_text("".join(f"E {n} {v}\n" for n, v in enumerate(values)))
        monkeypatch.setattr(special, "_EULER", special.EulerNumberTable())
        monkeypatch.setattr(special.random, "randrange", lambda lo, hi: 2)
        code, out, err = run_cli(["sweep", "stern", "--kmax", "10", "--cache", str(path)],
                                 capsys)
        assert code == cli.EXIT_INTERNAL
        assert "internal inconsistency: claim stern (k=10, l=0): " in err
        assert "E 6 differs" in err
        assert "stern k=8 l=6" in out  # records written before the replay stay on stdout
