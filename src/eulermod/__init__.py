"""Exact Euler/Bernoulli numbers and polynomials with a 2-adic congruence engine.

The package computes Euler and Bernoulli numbers and polynomials over exact
rationals, evaluates Euler numbers modulo powers of two without computing
them exactly, and machine-checks the congruence, identity, and valuation
claims the fast evaluator rests on.
"""

from . import congruences, exactmath, special
from .congruences import *  # noqa: F403
from .exactmath import *  # noqa: F403
from .special import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*exactmath.__all__, *special.__all__, *congruences.__all__, "__version__"]
