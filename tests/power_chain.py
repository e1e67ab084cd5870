"""log(1 - g) and 1/(1 - g) by powers of g: the test oracle.

The package computes ``symfunc.log_one_minus`` and ``symfunc.geometric``
one degree at a time from the homogeneous parts of g.  This module is the
independent reference the tests compare them against: it builds g, g^2,
... as full truncated products and sums -g^m/m or g^m, which costs N full
products at truncation N.  It works on a ``SymSeries``, an ``AltSeries``
and the oracle ``fraction_series.FractionSeries`` alike and returns the
type of g.
"""

from __future__ import annotations

from fractions import Fraction


def _powers_accumulate(g, weight):
    """sum_{m >= 1} weight(m) * g^m, truncated; g must start in degree >= 1."""
    if not g.constant_term().is_zero():
        raise ValueError("series function requires zero constant term")
    total = type(g)(g.max_degree)
    power, m = g, 1
    while not power.is_zero():
        total = total + power.scaled(weight(m))
        power, m = power * g, m + 1
    return total


def log_one_minus(g):
    """log(1 - g) = -sum_{m>=1} g^m / m."""
    return _powers_accumulate(g, lambda m: Fraction(-1, m))


def geometric(g):
    """1/(1 - g) = sum_{m>=0} g^m."""
    unit = type(g)(g.max_degree, {g._UNIT_KEY: 1})
    return unit + _powers_accumulate(g, lambda m: Fraction(1))
