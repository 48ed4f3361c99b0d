"""Fixtures shared by the test modules."""

from fractions import Fraction

import pytest

from eventbounds import bounds_l3, dispatch, engine
from eventbounds.certificates import TARGET_AT_LEAST
from eventbounds.engine import Row
from eventbounds.numerics import over_common_denominator


@pytest.fixture
def fresh_plans():
    """An empty closed-form plan cache before and after the test.  A plan
    keeps the rows its sources fetched, so a test that patches a row
    builder must neither read rows planned before it nor leave its own
    behind for later tests."""
    dispatch._plan.cache_clear()
    yield
    dispatch._plan.cache_clear()


@pytest.fixture
def skewed_ub2_row(monkeypatch, fresh_plans):
    """A deliberately wrong ub2 at-least row (second coefficient minus 1),
    which the verification suites must catch.  Every three-moment family
    reads its row from ``bounds_l3.solved_row``, so named and best-of
    requests both see the skew."""
    original = bounds_l3.solved_row

    def skewed(n, r, d, target, index_set, m):
        row = original(n, r, d, target, index_set, m)
        if target != TARGET_AT_LEAST or index_set != (1, r - d + 1, n - d + 1):
            return row
        c1, c2, c3 = row.coefficients
        numerators, den = over_common_denominator((c1, c2 - 1, c3))
        return Row(index_set, m, numerators, den)

    monkeypatch.setattr(bounds_l3, "solved_row", skewed)


@pytest.fixture
def inflated_exact_solve(monkeypatch):
    """A stand-in solver defect: every exact witness solve comes back with 1/7
    added to its first entry, so a sharpness witness can carry more than all
    the mass and ``witness_system`` raises."""
    original = engine._witness_exact

    def inflated(columns, values):
        first, *rest = original(columns, values)
        return (first + Fraction(1, 7), *rest)

    monkeypatch.setattr(engine, "_witness_exact", inflated)
