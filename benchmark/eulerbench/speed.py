"""Machine-speed reference: fixed benchmark-owned work timed next to every operation.

On the machine this benchmark was tuned on (2 vCPUs shared with other
tenants) the same code runs up to 2.4 times slower for minutes at a time.
Timing a fixed reference right before each operation tracks that state.
Each latency is scaled by ``REFERENCE_S`` over the median reference time
around it, so times read as on a machine where ``reference()`` takes
``REFERENCE_S``.  The reference calls nothing in eulermod, so a change to
the program cannot move it.  Raw times are kept in the run record.

The slow state does not slow every kind of work alike: big-integer and
rational arithmetic slow down more than small-integer modular work.  So each
workload's reference is the mix of parts whose slow-down tracked that
workload's own operations best on the tuning machine (``MIXES``).  Each mix
takes about ``REFERENCE_S`` there in the fast state.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.002  # reference() on the tuning machine in its fast state
WINDOW = 10  # references on each side of an operation that set its scale

_BIG = 3 ** 4000


def _loop() -> None:
    acc = 0
    for i in range(4000):
        acc += i * i % 7


def _bigint() -> None:
    acc = 0
    for c in range(1, 1000):
        acc += c * _BIG


def _modpow() -> None:
    for j in range(300):
        pow(2 * j + 1, 123456789012, 1 << 18)


def _fractions() -> None:
    q = Fraction(0)
    for i in range(1, 150):
        q += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)


MIXES = {
    "fastpath": (_loop, _modpow, _loop, _modpow),  # like the kernel's modular sums
    "tables": (_loop, _bigint, _modpow, _fractions),
    "claims": (_loop, _fractions, _loop, _fractions),  # like the rational polynomials
}


def reference(workload: str) -> float:
    """Seconds for the fixed mix of interpreter work that stands for ``workload``."""
    parts = MIXES[workload]
    start = perf_counter()
    for part in parts:
        part()
    return perf_counter() - start


def factors(references: list[float]) -> list[float]:
    """Per operation: REFERENCE_S over the median reference time around it."""
    return [REFERENCE_S / statistics.median(references[max(0, i - WINDOW):i + WINDOW + 1])
            for i in range(len(references))]


def scale(latencies: list[float], references: list[float]) -> list[float]:
    """Latencies at reference speed, each by the factor of its operation."""
    return [latency * f for latency, f in zip(latencies, factors(references))]
