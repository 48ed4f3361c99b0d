"""Three-moment bound families: coefficients, windows, and combined bounds.

Each family is reached by a request naming it, as every caller reaches it,
and its rows through ``Family.row``.
"""

from fractions import Fraction

import pytest

from eventbounds.certificates import BoundRequest
from eventbounds.core import EventSystem, exact_occurrence
from eventbounds.dispatch import FAMILY_TABLE, evaluate_request
from eventbounds.errors import DegenerateConfigurationError, NotApplicableError
from eventbounds.families import solved_row
from eventbounds.moments import MomentSet, MomentVector, moment_set


def fair(n):
    return EventSystem(n=n, weights={m: Fraction(1, 1 << n) for m in range(1 << n)})


def family(moments, formula, r, target="at-least", m=None):
    """The named family's certificate, window pinned to ``m`` if given."""
    side = FAMILY_TABLE[formula].side
    request = BoundRequest(r=r, d=moments.d, ell=3, side=side, target=target, m=m, formula=formula)
    return evaluate_request(moments, request)


def best(moments, r, target, side):
    """The best applicable three-moment bound, picked per index tuple."""
    return evaluate_request(moments, BoundRequest(r=r, d=moments.d, ell=3, side=side, target=target))


def coefficients(formula, n, r, d, target="at-least", m=None):
    return FAMILY_TABLE[formula].row(n, r, d, target, m).coefficients


@pytest.fixture(scope="module")
def fair3_d0():
    return moment_set(fair(3), 0, 3)


@pytest.fixture(scope="module")
def fair3_d1():
    return moment_set(fair(3), 1, 3)


class TestCoefficientSigns:
    def test_gamma_is_first_moment_only_at_d0(self):
        for n in range(3, 9):
            for r in range(1, n - 1):
                for m in range(r + 2, n + 1):
                    assert coefficients("ub3", n, r, 0, m=m) == (1, 0, 0)

    def test_gamma_alternates_plus_minus_plus_for_positive_d(self):
        for n in range(3, 9):
            for d in range(1, n):
                for r in range(d, n - 1):
                    for m in range(r - d + 2, n - d + 1):
                        g1, g2, g3 = coefficients("ub3", n, r, d, m=m)
                        assert g1 > 0 and g2 < 0 and g3 > 0

    def test_lower_beta_alternates_minus_plus_minus(self):
        for n in range(4, 9):
            for d in range(0, n):
                for r in range(d + 2, n):
                    for m in range(r - d + 1, n - d + 1):
                        b1, b2, b3 = coefficients("lb2", n, r, d, m=m)
                        assert b1 < 0 and b2 > 0 and b3 < 0

    def test_alpha_rejects_pivot_windows(self):
        # ub1's index set (m, m+1, r-d+1) at n=3, r=2, d=0 when a window repeats r-d+1 = 3
        with pytest.raises(DegenerateConfigurationError):
            solved_row(3, 2, 0, "at-least", (2, 3, 3), 2)
        with pytest.raises(DegenerateConfigurationError):
            solved_row(3, 2, 0, "at-least", (3, 4, 3), 3)

    def test_fair_three_coefficient_fixtures(self):
        assert coefficients("ub1", 3, 2, 0, m=1) == (0, 0, 1)
        assert coefficients("ub2", 3, 2, 1) == (0, 1, -2)
        assert coefficients("ub2", 3, 2, 1, "exactly") == (0, 1, -3)
        assert coefficients("lb2", 3, 2, 1, "exactly") == (0, 1, -3)
        assert coefficients("lb3", 3, 1, 1, "exactly") == (1, -2, 3)

    def test_fixed_windows_are_recorded(self):
        lb2 = FAMILY_TABLE["lb2"].row(6, 4, 1, "exactly", None)
        assert (lb2.index_set, lb2.m) == ((3, 4, 5), 4)
        lb3 = FAMILY_TABLE["lb3"].row(6, 1, 1, "exactly", None)
        assert (lb3.index_set, lb3.m) == ((1, 2, 6), 1)


class TestOptimalM:
    def test_low_window_rule_brackets_the_ratio(self):
        s = (Fraction(1), Fraction(3, 2), Fraction(3, 4))
        vector = MomentVector(j=(), n=3, d=0, ell=3, values=s)
        moments = MomentSet(n=3, d=0, ell=3, vectors=(vector,))
        assert family(moments, "ub1", 2).terms[0].m == 1

    def test_empty_range_is_not_applicable(self, fair3_d0):
        with pytest.raises(NotApplicableError):
            family(fair3_d0, "ub1", 1)


class TestUpperFamilies:
    def test_ub1_fair_three(self, fair3_d0):
        certificate = family(fair3_d0, "ub1", 2, m=1)
        assert certificate.value == Fraction(3, 4)
        assert certificate.coefficients == (0, 0, 1)
        assert certificate.index_set == (1, 2, 3)

    def test_ub1_needs_room_below_the_pivot(self, fair3_d1):
        with pytest.raises(NotApplicableError):
            family(fair3_d1, "ub1", 2)

    def test_ub2_fair_three_is_sharp(self, fair3_d1):
        at_least = family(fair3_d1, "ub2", 2)
        exactly = family(fair3_d1, "ub2", 2, "exactly")
        occurrence = exact_occurrence(fair(3))
        assert at_least.value == occurrence.at_least(2) == Fraction(1, 2)
        assert exactly.value == occurrence.p[2] == Fraction(3, 8)
        assert at_least.coefficients == (0, 1, -2)
        assert exactly.coefficients == (0, 1, -3)
        assert at_least.index_set == (1, 2, 3)

    def test_ub2_needs_both_sides(self, fair3_d0):
        for target in ("at-least", "exactly"):
            with pytest.raises(NotApplicableError):
                family(fair3_d0, "ub2", 3, target)

    def test_ub3_needs_room_above_r(self, fair3_d0):
        at_least = family(fair3_d0, "ub3", 1)
        exactly = family(fair3_d0, "ub3", 1, "exactly")
        truth = exact_occurrence(fair(3))
        assert truth.at_least(1) <= at_least.clamped
        assert truth.p[1] <= exactly.clamped
        with pytest.raises(NotApplicableError):
            family(fair3_d0, "ub3", 2)

    def test_best_upper_takes_the_minimum_per_tuple(self, fair3_d1):
        chosen = best(fair3_d1, 2, "at-least", "upper")
        assert chosen.value == Fraction(1, 2)
        assert chosen.formula_id == "ub2"


class TestLowerFamilies:
    def test_lb1_fair_three(self, fair3_d0):
        at_least = family(fair3_d0, "lb1", 2)
        exactly = family(fair3_d0, "lb1", 3, "exactly")
        assert at_least.value == Fraction(1, 4)
        assert at_least.coefficients == (0, 0, Fraction(1, 3))
        assert exactly.r == 3
        assert exactly.target == "exactly"

    def test_lb1_needs_room_below_the_pivot(self, fair3_d0):
        with pytest.raises(NotApplicableError):
            family(fair3_d0, "lb1", 1)
        with pytest.raises(NotApplicableError):
            family(fair3_d0, "lb1", 2, "exactly")

    def test_lb2_fair_three_is_sharp(self, fair3_d1):
        at_least = family(fair3_d1, "lb2", 2, m=2)
        exactly = family(fair3_d1, "lb2", 2, "exactly")
        assert at_least.value == Fraction(1, 2)
        assert at_least.coefficients == (0, 1, -2)
        assert exactly.value == Fraction(3, 8)
        assert exactly.coefficients == (0, 1, -3)
        assert exactly.m == 2

    def test_lb3_fair_three_exactly_uses_the_fixed_vector(self, fair3_d1):
        at_least = family(fair3_d1, "lb3", 1)
        exactly = family(fair3_d1, "lb3", 1, "exactly")
        assert exactly.value == Fraction(3, 8)
        assert exactly.coefficients == (1, -2, 3)
        assert exactly.index_set == (1, 2, 3)
        assert exactly.m == 1
        occurrence = exact_occurrence(fair(3))
        assert at_least.clamped <= occurrence.at_least(1)

    def test_lb3_needs_two_windows(self):
        moments = moment_set(fair(3), 2, 2)
        with pytest.raises(ValueError):
            family(moments, "lb3", 2)

    def test_best_lower_takes_the_maximum_per_tuple(self, fair3_d1):
        assert best(fair3_d1, 2, "at-least", "lower").value == Fraction(1, 2)


class TestWindowSweeps:
    def test_automatic_windows_attain_the_sweep_extrema(self):
        system = EventSystem(
            n=5,
            weights={
                1: Fraction(1, 6),
                7: Fraction(1, 3),
                21: Fraction(1, 6),
                31: Fraction(1, 3),
            },
        )
        moments = moment_set(system, 0, 3)
        auto = family(moments, "ub1", 4)
        for position, term in enumerate(auto.terms):
            sweep = [
                family(moments, "ub1", 4, m=m).terms[position].value
                for m in range(1, 4)
            ]
            assert term.value == min(sweep)
        auto = family(moments, "lb2", 2)
        for position, term in enumerate(auto.terms):
            sweep = [
                family(moments, "lb2", 2, m=m).terms[position].value
                for m in range(3, 6)
            ]
            assert term.value == max(sweep)
