"""The three workloads: seeded operation plans, expected outputs, execution, checks.

A plan is one pass of operations.  The runner cycles through it until the
measured time is spent, so every pass has the same mix.  Within a pass each
operation class draws its inputs at evenly spaced quantiles with a seeded
offset (``spaced``), and the classes are interleaved evenly (``interleave``):
a seed changes every input but not the distribution of work, which keeps
the per-seed spread of the end-to-end metrics small.

Every operation's expected output is computed by ``attach_expected`` from
``oracles`` before the timed loop; ``check`` compares after the timer stops.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd

from . import oracles


@dataclass
class Op:
    kind: str
    args: tuple
    spec: dict = field(default_factory=dict)
    expect: object = None


def spaced(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """``count`` values evenly spaced over [lo, hi) with a seeded offset, shuffled."""
    offset = rng.random()
    values = [lo + (hi - lo) * (i + offset) / count for i in range(count)]
    rng.shuffle(values)
    return values


def spaced_ints(rng: random.Random, count: int, lo: int, hi: int, step: int = 1) -> list[int]:
    """Evenly spaced integers from lo, lo+step, ..., hi (inclusive), shuffled."""
    slots = (hi - lo) // step + 1
    return [lo + step * min(int(x), slots - 1) for x in spaced(rng, count, 0, slots)]


def interleave(rng: random.Random, groups: list[list[Op]]) -> list[Op]:
    """Merge groups so every prefix of the pass holds each group in proportion.

    The order inside a group is kept.
    """
    keyed = []
    for group in groups:
        offset = rng.random()
        keyed += [((i + offset) / len(group), rng.random(), op) for i, op in enumerate(group)]
    keyed.sort(key=lambda item: item[:2])
    return [op for _, _, op in keyed]


def run_cli(cli, argv) -> tuple[int, str, str]:
    """One in-process ``eulermod`` command: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_rejected(result) -> str | None:
    """A malformed request must exit 2 with a diagnostic on stderr and print nothing."""
    code, out, err = result
    if code != 2:
        return f"exit code {code}, expected 2"
    if not err.strip():
        return "no diagnostic on stderr"
    if out:
        return "printed output for a rejected request"
    return None


def _expect_code(result, wanted: int) -> str | None:
    code, _, err = result
    if code != wanted:
        return f"exit code {code}, expected {wanted}: {err.strip()[-200:]}"
    return None


class Fastpath:
    """``euler-mod2 K N`` and ``stern-table --n`` through ``cli.main``: the kernel."""

    name = "fastpath"
    # Ops per pass.  Most time goes to n = 16.  About as many requests sort
    # below the n = 14 class as above it, so the median lands inside it, and
    # 30 s hold 200 to 1000 requests at any machine speed, so the tail stays p95.
    MIX = {"euler-mod2.n10": 8, "euler-mod2.n12": 8, "euler-mod2.n14": 16,
           "euler-mod2.n16": 16, "stern-table.n8": 2, "stern-table.n10": 2, "invalid": 4}
    KINDS = tuple(MIX)
    INVALID = (("euler-mod2", "{odd}", "8"), ("euler-mod2", "{even}", "0"),
               ("stern-table", "--n", "0"), ("euler-mod2", "{even}x", "8"),
               ("euler-mod2", "-{even}", "12"))

    def plan(self, rng: random.Random) -> list[Op]:
        groups = []
        for kind, count in self.MIX.items():
            if kind.startswith("euler-mod2"):
                n = int(kind.rsplit("n", 1)[1])
                ks = [2 * round(10 ** x / 2) for x in spaced(rng, count, 3, 12)]
                groups.append([Op(kind, ("euler-mod2", str(k), str(n))) for k in ks])
            elif kind.startswith("stern-table"):
                n = kind.rsplit("n", 1)[1]
                groups.append([Op(kind, ("stern-table", "--n", n)) for _ in range(count)])
            else:
                ops = []
                for _ in range(count):
                    even = 2 * rng.randrange(1, 10 ** 6)
                    template = rng.choice(self.INVALID)
                    args = tuple(a.format(odd=even + 1, even=even) for a in template)
                    ops.append(Op(kind, args))
                groups.append(ops)
        return interleave(rng, groups)

    def attach_expected(self, ops: list[Op]) -> None:
        low = oracles.LowBits()
        full: dict[tuple[int, int], int] = {}
        for op in ops:
            if op.kind.startswith("euler-mod2"):
                k, n = int(op.args[1]), int(op.args[2])
                if (k, n) not in full:
                    full[(k, n)] = oracles.euler_mod_2n(k, n)
                op.expect = (full[(k, n)], *low.residue(k, n))
            elif op.kind.startswith("stern-table"):
                n = int(op.args[2])
                op.expect = {k: low.residue(k, n)[0] for k in range(0, (1 << n) - 1, 2)}

    def setup(self) -> None:
        from eulermod import cli

        self.cli = cli

    def execute(self, op: Op):
        return run_cli(self.cli, op.args)

    def check(self, op: Op, result) -> str | None:
        if op.kind == "invalid":
            return check_rejected(result)
        problem = _expect_code(result, 0)
        if problem:
            return problem
        out = result[1].split()
        if op.kind.startswith("euler-mod2"):
            value, low, bits = op.expect
            if len(out) != 1 or not out[0].lstrip("-").isdigit():
                return f"unparsable output {result[1][:80]!r}"
            got = int(out[0])
            if got % (1 << bits) != low:
                return f"low {bits} bits {got % (1 << bits)} != Stern's law {low}"
            return None if got == value else f"got {got}, m=5 congruence gives {value}"
        rows = {}
        for line in result[1].splitlines():
            k, _, value = line.split()
            rows[int(k)] = int(value)
        return None if rows == op.expect else "stern-table rows differ from the zigzag oracle"

    def cleanup(self) -> None:
        pass


class Tables:
    """Fresh exact tables, sweep-style extends and cache round trips: ``special`` only."""

    name = "tables"
    MIX = {"build.euler": 10, "build.bernoulli": 10, "extend.pair": 40, "cache.roundtrip": 4}
    KINDS = tuple(MIX)
    EULER_RANGE = (300, 1000)
    BERNOULLI_RANGE = (150, 500)
    SAVED = (600, 300)  # the table pair every cache round trip saves and loads
    SWEEP = (480, 240)  # the long-lived pair's E and B tops
    ORACLE_TOP = 1001

    def plan(self, rng: random.Random) -> list[Op]:
        # Building a table to index N costs about N**3, so sizes are spaced
        # evenly in N**3: the spread of request costs is the same for every seed.
        def sizes(count, lo, hi):
            return [round((lo ** 3 + (hi ** 3 - lo ** 3) * t) ** (1 / 3))
                    for t in spaced(rng, count, 0, 1)]

        euler = [Op("build.euler", ("euler", n))
                 for n in sizes(self.MIX["build.euler"], *self.EULER_RANGE)]
        bernoulli = [Op("build.bernoulli", ("bernoulli", n))
                     for n in sizes(self.MIX["build.bernoulli"], *self.BERNOULLI_RANGE)]
        # One sweep per pass, resetting the pair at its first step.  Steps end
        # at (i/steps)**(1/3) of the tops so each costs about the same: large
        # at the bottom, a few indices at a time near the top.
        steps = self.MIX["extend.pair"]
        extend = [Op("extend.pair", (*(round(top * (i / steps) ** (1 / 3)) for top in self.SWEEP),
                                     i == 1)) for i in range(1, steps + 1)]
        roundtrip = [Op("cache.roundtrip", (rng.randrange(1 << 30),))
                     for _ in range(self.MIX["cache.roundtrip"])]
        return interleave(rng, [euler, bernoulli, extend, roundtrip])

    def attach_expected(self, ops: list[Op]) -> None:
        zig = oracles.zigzag(self.ORACLE_TOP)
        self.euler = oracles.euler_numbers(zig)
        # every operation is checked against a prefix of these two tables
        self.bernoulli = oracles.bernoulli_numbers(zig, self.ORACLE_TOP - 1)

    def setup(self) -> None:
        from eulermod import special

        self.special = special
        self.saved = (special.EulerNumberTable(), special.BernoulliNumberTable())
        self.saved[0].extend_to(self.SAVED[0])
        self.saved[1].extend_to(self.SAVED[1])
        self.pair = None
        out = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "out")
        os.makedirs(out, exist_ok=True)
        self.path = os.path.join(out, f"cache-{os.getpid()}.txt")

    def execute(self, op: Op):
        special = self.special
        if op.kind == "build.euler":
            table = special.EulerNumberTable()
            table.value(op.args[1])
            return table
        if op.kind == "build.bernoulli":
            table = special.BernoulliNumberTable()
            table.value(op.args[1])
            return table
        if op.kind == "extend.pair":
            if op.args[2] or self.pair is None:
                self.pair = (special.EulerNumberTable(), special.BernoulliNumberTable())
            self.pair[0].extend_to(op.args[0])
            self.pair[1].extend_to(op.args[1])
            return self.pair
        special.save_tables(self.path, euler=self.saved[0], bernoulli=self.saved[1])
        loaded = (special.EulerNumberTable(), special.BernoulliNumberTable())
        tops = special.load_tables(self.path, euler=loaded[0], bernoulli=loaded[1],
                                   rng=random.Random(op.args[0]))
        return loaded, tops

    def _prefix(self, table, top: int, reference: list) -> str | None:
        values = table.snapshot()
        if len(values) <= top:
            return f"table stops at {len(values) - 1}, expected index {top}"
        if list(values[:top + 1]) != reference[:top + 1]:
            bad = next(i for i in range(top + 1) if values[i] != reference[i])
            return f"index {bad} differs from the zigzag oracle"
        return None

    def check(self, op: Op, result) -> str | None:
        if op.kind == "build.euler":
            return self._prefix(result, op.args[1], self.euler)
        if op.kind == "build.bernoulli":
            return self._prefix(result, op.args[1], self.bernoulli)
        if op.kind == "extend.pair":
            return (self._prefix(result[0], op.args[0], self.euler)
                    or self._prefix(result[1], op.args[1], self.bernoulli))
        (euler, bernoulli), tops = result
        if tuple(tops) != self.SAVED:
            return f"load_tables reported {tops}, expected {self.SAVED}"
        return (self._prefix(euler, self.SAVED[0], self.euler)
                or self._prefix(bernoulli, self.SAVED[1], self.bernoulli))

    def cleanup(self) -> None:
        for path in (self.path, self.path + ".tmp"):
            if os.path.exists(path):
                os.remove(path)


# --- claims ----------------------------------------------------------------

def _window(lo: int, width: int, step: int = 1) -> str:
    suffix = "" if step == 1 else ("even" if lo % 2 == 0 else "odd")
    return f"{lo}..{lo + step * (width - 1)}{suffix}"


def _spec(values) -> str:
    """A CLI range spec for a set of integers: runs of consecutive values as LO..HI."""
    items, run = [], []
    for v in sorted(values):
        if run and v != run[-1] + 1:
            items.append(_run(run))
            run = []
        run.append(v)
    items.append(_run(run))
    return ",".join(items)


def _run(run: list[int]) -> str:
    return str(run[0]) if len(run) == 1 else f"{run[0]}..{run[-1]}"


def _square(shift: int):
    return lambda n: (n + shift) ** 2


def balanced_sets(rng: random.Random, values, weight, count: int) -> list[list[int]]:
    """Deal ``values`` into ``count`` sets of near-equal total ``weight``.

    Each value, roughly heaviest first, joins the set with the least weight so
    far.  The seed jitters the order, which changes the sets' members while
    the last, lightest values keep the totals level.
    """
    order = sorted(values, key=lambda v: weight(v) * rng.uniform(0.7, 1.4), reverse=True)
    sets: list[list[int]] = [[] for _ in range(count)]
    totals = [0] * count
    for v in order:
        i = totals.index(min(totals))
        sets[i].append(v)
        totals[i] += weight(v)
    return sets


def _values(spec: str) -> list[int]:
    out = []
    for item in spec.split(","):
        if ".." not in item:
            out.append(int(item))
            continue
        lo, hi = item.split("..")
        step = 2 if hi.endswith(("even", "odd")) else 1
        out += range(int(lo), int(hi.rstrip("evnod")) + 1, step)
    return out


# parameter order of each claim, as the CLI enumerates its tuples
CLAIM_PARAMS = {
    "1.1": ("k", "q"), "1.3": ("k", "n", "m"), "2.1": ("n",), "2.2": ("a", "k", "m", "q"),
    "2.3": ("a", "k", "m", "q"), "2.4": ("a", "m", "q"), "kummer": ("p", "n", "k", "l"),
    "thangadurai": ("p", "k"), "raabe": ("n", "m"), "reflection": ("n",),
    "power-sum": ("k", "n"),
}


def claim_tuples(claim: str, ranges: dict[str, list[int]]) -> list[tuple]:
    """The parameter tuples the claim's statement covers inside the box."""
    names = CLAIM_PARAMS[claim]
    tuples = list(product(*(ranges[n] for n in names)))
    if claim in ("2.2", "2.3", "2.4"):
        m, q = names.index("m"), names.index("q")
        tuples = [t for t in tuples if gcd(t[m], t[q]) == 1]
    elif claim == "kummer":
        tuples = [t for t in tuples if t[2] % (t[0] - 1) and t[3] % (t[0] - 1)]
    elif claim == "thangadurai":
        tuples = [t for t in tuples if t[1] % (t[0] - 1)]
    return tuples


def _sign(j: int) -> int:
    """(-1)**j as an integer, for any integer j."""
    return -1 if j % 2 else 1


def _v2(x: int) -> int:
    return oracles.v_p(x, 2)


class Claims:
    """``check <claim> --format json`` over seeded sub-boxes, and ``sweep stern``."""

    name = "claims"
    # Ops per pass: as many light requests below the 2.1 and reflection block
    # as heavy ones (2.2, 2.3, raabe) above it, so the median lands mid-block.
    # Five 2.1 sets cost about what three reflection sets do, so the block is
    # one level of cost.
    MIX = {"check.2.1": 5, "check.2.2": 4, "check.2.3": 4, "check.raabe": 6,
           "check.reflection": 3, "check.1.1": 2, "check.1.3": 2, "check.2.4": 2,
           "check.kummer": 2, "check.thangadurai": 1, "check.power-sum": 2,
           "sweep.stern": 2, "invalid": 1}
    KINDS = tuple(MIX)
    INVALID = (("check", "2.3", "--q", "3"), ("check", "1.1", "--k", "1..3"),
               ("check", "raabe", "--m", "0"), ("check", "2.2", "--q", "5..3"),
               ("check", "2.1", "--k", "4"), ("check", "9.9"),
               ("sweep", "stern", "--kmax", "1"))
    ORACLE_TOP = 64
    WARM_TABLES = 64
    WARM_POLYNOMIALS = 32
    Q_VALUES = (2, 4, 6, 8, 16)

    def _boxes(self, rng: random.Random, claim: str, count: int) -> list[dict[str, str]]:
        def ints(lo, hi, step=1):
            return spaced_ints(rng, count, lo, hi, step)

        # The heavy claims' cost grows about as the square of the degree n or
        # k, so their boxes are sets of equal estimated cost: seeded, yet every
        # pass holds the same work and the same spread of request sizes.
        if claim == "2.1":
            return [{"n": _spec(s)} for s in balanced_sets(rng, range(31), _square(4), count)]
        if claim == "reflection":
            return [{"n": _spec(s)} for s in balanced_sets(rng, range(31), _square(2), count)]
        if claim == "raabe":
            # cost is about linear in m - 1/2, so {m, 9 - m} pairs cost alike
            m = rng.randrange(1, 5)
            return [{"n": _spec(s), "m": f"{m},{9 - m}"}
                    for s in balanced_sets(rng, range(31), _square(2), count)]
        if claim in ("2.2", "2.3"):
            # one odd m each (m sets the cost), all k and q, two values of a,
            # which barely matters
            k = "1..12" if claim == "2.2" else "0..12"
            q = ",".join(map(str, self.Q_VALUES))
            return [{"a": f"{a},{a + 5}", "k": k, "m": str(m), "q": q}
                    for a, m in zip(ints(-5, 0), [1 + 2 * (i % 4) for i in range(count)])]
        if claim == "1.1":
            return [{"k": _window(k, 10, 2), "q": _window(q, 25, 2)}
                    for k, q in zip(ints(0, 42, 2), ints(1, 51, 2))]
        if claim == "1.3":
            return [{"k": _window(k, 8, 2), "n": _window(n, 3), "m": _window(m, 3, 2)}
                    for k, n, m in zip(ints(0, 26, 2), ints(1, 8), ints(1, 11, 2))]
        if claim == "2.4":
            return [{"a": _window(a, 11), "m": _window(m, 3, 2), "q": _window(q, 6, 2)}
                    for a, m, q in zip(ints(-10, 0), ints(1, 11, 2), ints(2, 22, 2))]
        if claim == "kummer":
            return [{"p": "13", "n": "2", "k": _window(k, 8, 2), "l": _window(l, 8, 2)}
                    for k, l in zip(ints(2, 26, 2), ints(2, 26, 2))]
        if claim == "thangadurai":
            return [{"p": "13", "k": _window(k, 16, 2)} for k in ints(2, 30, 2)]
        if claim == "power-sum":
            return [{"k": _window(k, 10, 2), "n": _window(n, 2)}
                    for k, n in zip(ints(0, 22, 2), ints(1, 11))]
        raise KeyError(claim)

    def plan(self, rng: random.Random) -> list[Op]:
        groups = []
        for kind, count in self.MIX.items():
            if kind == "invalid":
                groups.append([Op(kind, rng.choice(self.INVALID)) for _ in range(count)])
            elif kind == "sweep.stern":
                groups.append([Op(kind, ("sweep", "stern", "--kmax", str(k), "--format", "json"),
                                  {"kmax": k}) for k in spaced_ints(rng, count, 24, 56, 2)])
            else:
                claim = kind.split(".", 1)[1]
                ops = []
                for box in self._boxes(rng, claim, count):
                    flags = [f"--{name}={spec}" for name, spec in box.items()]
                    ops.append(Op(kind, ("check", claim, *flags, "--format", "json"),
                                  {"claim": claim, "box": box}))
                groups.append(ops)
        return interleave(rng, groups)

    def attach_expected(self, ops: list[Op]) -> None:
        zig = oracles.zigzag(self.ORACLE_TOP + 1)
        self.euler = oracles.euler_numbers(zig)
        self.bernoulli = oracles.bernoulli_numbers(zig, self.ORACLE_TOP)
        for op in ops:
            if op.kind == "invalid":
                continue
            if op.kind == "sweep.stern":
                kmax = op.spec["kmax"]
                records = [self._stern(k, l) for k in range(2, kmax + 1, 2)
                           for l in range(0, k, 2)]
            else:
                claim = op.spec["claim"]
                ranges = {name: _values(spec) for name, spec in op.spec["box"].items()}
                records = [self._expected(claim, t) for t in claim_tuples(claim, ranges)]
            op.expect = ({_key(r["parameters"]): r for r in records},
                         0 if all(r["holds"] for r in records) else 1)

    def _stern(self, k: int, l: int) -> dict:
        return {"claim": "stern", "parameters": {"k": k, "l": l}, "holds": True, "modulus": 0,
                "lhs": str(_v2(self.euler[k] - self.euler[l])), "rhs": str(_v2(k - l))}

    def _expected(self, claim: str, t: tuple) -> dict:
        params = dict(zip(CLAIM_PARAMS[claim], t))
        record = {"claim": claim, "parameters": params, "holds": True, "modulus": 0}
        E, B = self.euler, self.bernoulli

        def report(lhs, rhs, modulus):
            record.update(lhs=str(Fraction(lhs)), rhs=str(Fraction(rhs)), modulus=modulus,
                          witness=str(Fraction(Fraction(lhs) - Fraction(rhs), modulus)))

        if claim == "1.1":
            k, q = t
            report(E[k], sum(_sign(j) * (2 * j + 1) ** k for j in range(q)), q)
        elif claim == "1.3":
            k, n, m = t
            eps = -1 if ((m - 1) // 2) % 2 else 1
            s = sum(_sign(j - 1) * (2 * j + 1) ** k * ((j * m + (m - 1) // 2) >> n)
                    for j in range(1 << n))
            coefficient = m ** (k + 1) - eps
            report(coefficient * E[k], 2 * m ** k * s, 1 << (n + 2))
            record["detail"] = {"coefficient_v2": _v2(coefficient) - 2 if coefficient else -1}
        elif claim in ("2.2", "2.3"):
            record["modulus"] = params["q"]
            if claim == "2.2":
                record["detail"] = {"route": "stated" if gcd(params["k"], params["q"]) == 1
                                    else "cleared"}
        elif claim == "2.4":
            a, m, q = t
            computed = sum(_sign(j - 1) * (Fraction((a + j * m) // q) + Fraction(1 - m, 2))
                           for j in range(q))
            closed = Fraction(m - _sign(a), 2)
            record.update(lhs=str(computed), rhs=str(closed), holds=computed == closed)
        elif claim == "kummer":
            p, n, k, l = t
            lhs, rhs = B[k] / k, B[l] / l
            report(lhs, rhs, p ** n)
            difference = lhs - rhs
            congruent = difference == 0 or oracles.v_p(difference.numerator, p) >= n
            exponent = (k - l) % (p ** (n - 1) * (p - 1)) == 0
            record["holds"] = congruent or not exponent
            record["detail"] = {"congruence_holds": congruent, "exponent_congruent": exponent}
        elif claim == "thangadurai":
            p, k = t
            n, w = oracles.v_p(k, p), oracles.v_p(B[k].numerator, p)
            record.update(lhs=str(w), rhs=str(n), modulus=p,
                          holds=w >= n and (n == 0 or w <= n + 1))
        elif claim == "power-sum":
            k, n = t
            modulus = 1 << (n + 1)
            residue = sum(_sign(j) * pow(2 * j + 1, k, modulus) for j in range(1 << n)) % modulus
            record.update(lhs=str(residue), rhs="0", modulus=modulus, holds=residue == 0)
        return record

    def setup(self) -> None:
        from eulermod import cli, special

        self.cli = cli
        special.euler_table().extend_to(self.WARM_TABLES)
        special.bernoulli_table().extend_to(self.WARM_TABLES)
        for n in range(self.WARM_POLYNOMIALS):
            special.euler_polynomial(n)
            special.bernoulli_polynomial(n)

    def execute(self, op: Op):
        return run_cli(self.cli, op.args)

    def check(self, op: Op, result) -> str | None:
        if op.kind == "invalid":
            return check_rejected(result)
        expected, code = op.expect
        problem = _expect_code(result, code)
        if problem:
            return problem
        got = {}
        for line in result[1].splitlines():
            record = json.loads(line)
            got[_key(record["parameters"])] = record
        if got.keys() != expected.keys():
            return f"{len(got)} records for {len(expected)} expected parameter tuples"
        for key, want in expected.items():
            for name, value in want.items():
                if got[key].get(name) != value:
                    return f"{want['claim']} {dict(key)}: {name}={got[key].get(name)!r}, " \
                           f"expected {value!r}"
        return None

    def cleanup(self) -> None:
        pass


def _key(parameters: dict) -> tuple:
    return tuple(sorted(parameters.items()))


WORKLOADS = {w.name: w for w in (Fastpath, Tables, Claims)}
ALL_KINDS = tuple(dict.fromkeys(k for w in WORKLOADS.values() for k in w.KINDS))

