"""Fixtures shared by the test modules."""

import dataclasses
from fractions import Fraction

import pytest

from eventbounds import bounds_l3, dispatch, engine, verification
from eventbounds.certificates import TARGET_AT_LEAST
from eventbounds.engine import Row
from eventbounds.numerics import all_exact, over_common_denominator


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
def inflated_exact_witness(monkeypatch):
    """A stand-in solver defect: every exact sharpness witness that the
    verify suites build comes back with 1/7 added to its entry at the first
    position of its index set, so it can carry more than all the mass and
    ``witness_system`` raises."""
    original = engine.sharpness_witness

    def inflated(fmat, index_set, values):
        witness = original(fmat, index_set, values)
        if not all_exact(values):
            return witness
        z = list(witness.z)
        z[index_set[0] - 1] += Fraction(1, 7)
        solution = [z[position - 1] for position in index_set]
        return dataclasses.replace(
            witness, z=tuple(z), nonnegative=all(entry >= 0 for entry in solution)
        )

    monkeypatch.setattr(verification, "sharpness_witness", inflated)
