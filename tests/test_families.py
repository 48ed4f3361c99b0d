"""Every row of the family table against the generic dual engine.

For each family, every n <= 7 and every applicable (d, r, target), and every
window in range for windowed targets, the row's coefficients must solve the
dual system at the row's index set and be feasible for the family's side.
"""

import pytest

from eventbounds.certificates import SIDE_UPPER, TARGETS
from eventbounds.dispatch import FAMILY_TABLE
from eventbounds.engine import check_feasibility, solve_coefficients, target_vector
from eventbounds.moments import moment_matrix


def row_cases(family):
    for n in range(1, 8):
        for d in range(0, n + 1):
            for r in range(d, n + 1):
                for target in TARGETS:
                    if not family.applies(n, r, d, target):
                        continue
                    windows = (None,)
                    if target in family.windows:
                        lo, hi = family.windows[target](n, r, d)
                        windows = range(lo, hi + 1)
                    for m in windows:
                        yield n, r, d, target, m


@pytest.mark.parametrize("name", sorted(FAMILY_TABLE))
def test_rows_are_the_engine_solution_and_feasible_for_their_side(name):
    family = FAMILY_TABLE[name]
    cases = list(row_cases(family))
    assert cases
    for n, r, d, target, m in cases:
        coefficients, index_set, _ = family.row(n, r, d, target, m)
        fmat = moment_matrix(n, d, family.ell)
        v = target_vector(n, d, r, target)
        case = (name, n, r, d, target, m)
        assert tuple(coefficients) == solve_coefficients(fmat, index_set, v), case
        feasibility = check_feasibility(fmat, coefficients, v)
        allowed = feasibility.allows_upper if family.side == SIDE_UPPER else feasibility.allows_lower
        assert allowed, case


def test_row_count_pins_where_the_families_apply():
    counts = {name: len(list(row_cases(family))) for name, family in FAMILY_TABLE.items()}
    assert all(counts.values())
    assert sum(counts.values()) == 1477
