"""Two-moment bound families: values, preconditions, and window choice.

Each family is reached by a request naming it, as every caller reaches it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eventbounds.certificates import BoundRequest
from eventbounds.core import EventSystem, exact_occurrence, normalize
from eventbounds.dispatch import FAMILY_TABLE, evaluate_request
from eventbounds.errors import NotApplicableError
from eventbounds.moments import moment_set


def fair(n):
    return EventSystem(n=n, weights={m: Fraction(1, 1 << n) for m in range(1 << n)})


def family(moments, formula, r, target="at-least", m=None):
    """The named family's certificate, window pinned to ``m`` if given."""
    side = FAMILY_TABLE[formula].side
    request = BoundRequest(r=r, d=moments.d, ell=2, side=side, target=target, m=m, formula=formula)
    return evaluate_request(moments, request)


def best(moments, r, target, side):
    """The best applicable two-moment bound, comparing whole certificates."""
    return evaluate_request(moments, BoundRequest(r=r, d=moments.d, ell=2, side=side, target=target))


@pytest.fixture(scope="module")
def fair3_d0():
    return moment_set(fair(3), 0, 2)


@pytest.fixture(scope="module")
def fair3_d1():
    return moment_set(fair(3), 1, 2)


class TestUpperU1:
    def test_fair_three_at_d0_r1_is_the_union_bound(self, fair3_d0):
        certificate = family(fair3_d0, "u1", 1)
        assert certificate.value == Fraction(3, 2)
        assert certificate.clamped == 1
        assert certificate.index_set == (1, 2)
        assert certificate.coefficients == (0, 1)

    def test_fair_three_at_d1_r2(self, fair3_d1):
        certificate = family(fair3_d1, "u1", 2)
        assert certificate.value == Fraction(3, 4)
        assert certificate.index_set == (1, 2)

    def test_same_value_for_both_targets(self, fair3_d1):
        at_least = family(fair3_d1, "u1", 2, "at-least")
        exactly = family(fair3_d1, "u1", 2, "exactly")
        assert at_least.value == exactly.value
        assert exactly.target == "exactly"

    def test_requires_r_above_d(self, fair3_d1):
        with pytest.raises(NotApplicableError):
            family(fair3_d1, "u1", 1)


class TestUpperU2:
    def test_fair_three_at_d0_r1(self, fair3_d0):
        at_least = family(fair3_d0, "u2", 1)
        exactly = family(fair3_d0, "u2", 1, "exactly")
        assert at_least.value == 1
        assert at_least.index_set == (2, 4)
        assert exactly.target == "exactly"
        assert exactly.value >= exact_occurrence(fair(3)).p[1]

    def test_requires_r_below_n(self, fair3_d0):
        for target in ("at-least", "exactly"):
            with pytest.raises(NotApplicableError):
                family(fair3_d0, "u2", 3, target)


class TestLowerL1:
    def test_fair_three_at_d0_r1_is_the_mean_over_n(self, fair3_d0):
        certificate = family(fair3_d0, "l1", 1)
        assert certificate.value == Fraction(1, 2)
        assert certificate.index_set == (1, 4)

    def test_fair_three_at_d1_r2(self, fair3_d1):
        certificate = family(fair3_d1, "l1", 2)
        assert certificate.value == Fraction(1, 4)

    def test_exactly_target_only_at_r_equal_n(self, fair3_d0):
        certificate = family(fair3_d0, "l1", 3, "exactly")
        assert certificate.target == "exactly"
        assert certificate.value <= exact_occurrence(fair(3)).p[3]
        with pytest.raises(NotApplicableError):
            family(fair3_d0, "l1", 2, "exactly")

    def test_requires_r_above_d(self, fair3_d1):
        with pytest.raises(NotApplicableError):
            family(fair3_d1, "l1", 1)


class TestLowerL2:
    def test_fair_three_window_one(self, fair3_d1):
        at_least = family(fair3_d1, "l2", 1, m=1)
        exactly = family(fair3_d1, "l2", 1, "exactly")
        assert at_least.value == Fraction(3, 4)
        assert at_least.m == 1
        assert at_least.index_set == (1, 2)
        assert exactly.value == 0
        assert exactly.coefficients == (1, -2)

    def test_needs_positive_d(self, fair3_d0):
        for target in ("at-least", "exactly"):
            with pytest.raises(NotApplicableError):
                family(fair3_d0, "l2", 0, target)

    def test_rejects_window_out_of_range(self, fair3_d1):
        with pytest.raises(ValueError):
            family(fair3_d1, "l2", 1, m=4)

    def test_automatic_window_sweeps_to_the_best(self):
        system = EventSystem(
            n=4,
            weights={
                1: Fraction(2, 7),
                7: Fraction(1, 7),
                15: Fraction(4, 7),
            },
        )
        moments = moment_set(system, 1, 2)
        auto = family(moments, "l2", 1)
        for position, term in enumerate(auto.terms):
            sweep = [
                family(moments, "l2", 1, m=m).terms[position].value
                for m in range(1, 4)
            ]
            assert term.value == max(sweep)


class TestBestL2:
    def test_picks_the_tighter_upper_family(self, fair3_d0):
        chosen = best(fair3_d0, 1, "at-least", "upper")
        u1 = family(fair3_d0, "u1", 1)
        u2 = family(fair3_d0, "u2", 1)
        assert chosen.value == min(u1.value, u2.value)
        assert chosen.formula_id == "u2"

    def test_single_applicable_family_passes_through(self, fair3_d0):
        assert best(fair3_d0, 3, "at-least", "upper").formula_id == "u1"

    def test_lower_side_includes_the_window_family_at_r_equal_d(self, fair3_d1):
        chosen = best(fair3_d1, 1, "at-least", "lower")
        assert chosen.value == Fraction(3, 4)
        assert chosen.formula_id == "l2"

    def test_no_applicable_family_raises(self, fair3_d0):
        with pytest.raises(NotApplicableError):
            best(fair3_d0, 2, "exactly", "lower")


@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.integers(min_value=0, max_value=9),
                min_size=1 << n,
                max_size=1 << n,
            ).filter(lambda ws: any(ws)),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_sandwich_property(params):
    n, raw = params
    system = normalize(n, {m: w for m, w in enumerate(raw) if w})
    occurrence = exact_occurrence(system)
    for d in range(0, n):
        moments = moment_set(system, d, 2)
        for r in range(max(d, 1), n + 1):
            for target in ("at-least", "exactly"):
                truth = occurrence.at_least(r) if target == "at-least" else occurrence.p[r]
                for side in ("upper", "lower"):
                    try:
                        certificate = best(moments, r, target, side)
                    except NotApplicableError:
                        continue
                    if side == "upper":
                        assert truth <= certificate.clamped
                    else:
                        assert certificate.clamped <= truth
