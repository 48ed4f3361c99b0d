"""Fixtures shared by the test modules."""

import pytest

from eventbounds import bounds_l3
from eventbounds.families import Row


@pytest.fixture
def skewed_ub2_row(monkeypatch):
    """A deliberately wrong ub2 at-least row (second coefficient minus 1),
    which the verification suites must catch."""
    original = bounds_l3._ub2_row

    def skewed(n, r, d, at_least):
        row = original(n, r, d, at_least)
        if not at_least:
            return row
        c1, c2, c3 = row.coefficients
        return Row.of((c1, c2 - 1, c3), row.index_set, row.m)

    monkeypatch.setattr(bounds_l3, "_ub2_row", skewed)
