"""Every library refusal that checks one value against one rule reads the same way."""

import re

import pytest

from eulermod import congruences, exactmath, special

# one call per ``_require`` site, with a value that breaks its rule, and the whole message
_REFUSALS = [
    (exactmath.mod_inverse, (3, 1), "modulus must be >= 2, got 1"),
    (exactmath.multiplicative_order, (3, 1), "modulus must be >= 2, got 1"),
    (congruences.QAdicContext, (1,), "q must be > 1, got 1"),
    (congruences.alternating_power_sum, (0, 2), "q must be >= 1, got 0"),
    (congruences.alternating_power_sum, (3, -1), "k must be >= 0, got -1"),
    (congruences.alternating_power_sum, (3, 2, 1), "modulus must be >= 2, got 1"),
    (congruences.check_euler_mod_odd, (3, 5), "k must be even and >= 0, got 3"),
    (congruences.check_euler_mod_odd, (2, 4), "q must be odd and >= 1, got 4"),
    (congruences.stern_sum, (-1, 2, 3), "k must be >= 0, got -1"),
    (congruences.stern_sum, (2, 0, 3), "n must be >= 1, got 0"),
    (congruences.stern_sum, (2, 2, 4), "m must be odd and >= 1, got 4"),
    (congruences.stern_sum, (2, 2, 3, 0), "modulus must be >= 2, got 0"),
    (congruences.check_euler_mod_two_power, (-2, 2, 3), "k must be even and >= 0, got -2"),
    (congruences.cleared_coefficient_valuation, (1, 3), "k must be even and >= 0, got 1"),
    (congruences.cleared_coefficient_valuation, (2, -1), "m must be odd and >= 1, got -1"),
    (congruences.euler_mod_2n, (5, 4), "k must be even and >= 0, got 5"),
    (congruences.euler_mod_2n, (4, 0), "n must be >= 1, got 0"),
    (congruences.stern_table, (0,), "n must be >= 1, got 0"),
    (congruences.check_power_sum_divisibility, (1, 3), "k must be even and >= 0, got 1"),
    (congruences.check_power_sum_divisibility, (2, 0), "n must be >= 1, got 0"),
    (congruences.stern_valuation, (3, 0), "k must be even and >= 0, got 3"),
    (congruences.stern_valuation, (2, -2), "l must be even and >= 0, got -2"),
    (congruences.check_bernoulli_poly_congruence, (0, 0, 1, 2), "k must be >= 1, got 0"),
    (congruences.check_bernoulli_poly_congruence, (0, 2, 0, 2), "m must be >= 1, got 0"),
    (congruences.check_bernoulli_poly_congruence, (0, 2, 1, 1), "q must be > 1, got 1"),
    (congruences.check_euler_poly_congruence, (0, -1, 1, 2), "k must be >= 0, got -1"),
    (congruences.check_euler_poly_congruence, (0, 2, 1, 3), "q must be even and >= 2, got 3"),
    (congruences.check_euler_poly_congruence, (0, 2, -1, 2), "m must be >= 1, got -1"),
    (congruences.check_euler_poly_congruence, (0, 2, 0, 2), "m must be >= 1, got 0"),
    (congruences.signed_floor_sum_identity, (0, 1, 3), "q must be even and >= 2, got 3"),
    (congruences.signed_floor_sum_identity, (0, -1, 2), "m must be >= 1, got -1"),
    (congruences.kummer_check, (9, 1, 4, 6), "p must be an odd prime, got 9"),
    (congruences.kummer_check, (13, 0, 4, 6), "n must be >= 1, got 0"),
    (congruences.kummer_check, (13, 1, 3, 4), "k must be even and >= 2, got 3"),
    (congruences.kummer_check, (13, 1, 4, 0), "l must be even and >= 2, got 0"),
    (congruences.adams_thangadurai_valuation, (2, 4), "p must be an odd prime, got 2"),
    (congruences.adams_thangadurai_valuation, (13, 0), "k must be even and >= 2, got 0"),
    (special.euler_number, (-1,), "index must be >= 0, got -1"),
    (special.bernoulli_number, (-2,), "index must be >= 0, got -2"),
    (special.euler_polynomial, (-1,), "index must be >= 0, got -1"),
    (special.bernoulli_polynomial, (-1,), "index must be >= 0, got -1"),
    (special.check_raabe, (-1, 1), "n must be >= 0, got -1"),
    (special.check_raabe, (2, 0), "m must be >= 1, got 0"),
    (special.check_euler_bernoulli_relation, (-1,), "index must be >= 0, got -1"),
    (special.check_reflection, (-1,), "index must be >= 0, got -1"),
    (special.secant_series_oracle, (0,), "count must be >= 1, got 0"),
]


@pytest.mark.parametrize("function,args,message", _REFUSALS,
                         ids=[f"{f.__name__}{args}" for f, args, _ in _REFUSALS])
def test_refusal_reads_name_rule_value(function, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        function(*args)
