"""Moment matrices, moment vectors, and the decomposition identities."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eventbounds.core import EventSystem, IndexTuple, binomial, enumerate_index_tuples, normalize
from eventbounds.errors import InfeasibleMomentsError, InputFormatError
from eventbounds.numerics import all_exact
from eventbounds.moments import (
    MomentSet,
    MomentVector,
    moment_matrix,
    moment_set,
    moments_from_system,
    moments_via_factorial,
    moments_via_subsets,
    verify_decomposition,
    z_vector,
)


def fair(n):
    return EventSystem(n=n, weights={m: Fraction(1, 1 << n) for m in range(1 << n)})


small_systems = st.builds(
    lambda n, raw: normalize(
        n, {mask: w for mask, w in zip(range(1 << n), raw) if w}
    ),
    st.integers(min_value=2, max_value=5),
    st.lists(st.integers(min_value=0, max_value=9), min_size=32, max_size=32).filter(
        lambda ws: any(ws)
    ),
)


class TestMomentMatrix:
    def test_entries_are_binomials(self):
        fmat = moment_matrix(5, 2, 3)
        assert fmat.positions == 4
        for k in range(1, 4):
            for i in range(1, 5):
                assert fmat.entry(k, i) == binomial(i + 1, k + 1)

    def test_leading_block_is_unitriangular(self):
        fmat = moment_matrix(6, 1, 4)
        for k in range(1, 5):
            assert fmat.entry(k, k) == 1
            for i in range(1, k):
                assert fmat.entry(k, i) == 0

    def test_first_row_all_ones_at_d0(self):
        fmat = moment_matrix(4, 0, 2)
        assert fmat.rows[0] == (1, 1, 1, 1, 1)

    def test_rejects_out_of_range_ell(self):
        with pytest.raises(ValueError):
            moment_matrix(4, 3, 3)
        with pytest.raises(ValueError):
            moment_matrix(4, 0, 1)


class TestZVector:
    def test_fair_three_singleton(self):
        z = z_vector(fair(3), (1,))
        assert z.entries == (Fraction(1, 8), Fraction(1, 8), Fraction(1, 24))

    def test_order_zero_equals_occurrence_scaled(self):
        z = z_vector(fair(2), ())
        assert z.entries == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))

    def test_moment_matrix_maps_z_to_s(self):
        system = fair(3)
        for d in range(0, 3):
            fmat = moment_matrix(3, d, 3 - d + 1 if d else 3)
            for j in itertools.combinations(range(1, 4), d):
                z = z_vector(system, j)
                s = moments_via_factorial(system, j, fmat.ell)
                for k in range(1, fmat.ell + 1):
                    assert sum(
                        fmat.entry(k, i + 1) * z.entries[i]
                        for i in range(fmat.positions)
                    ) == s.values[k - 1]


class TestMomentRoutes:
    def test_fair_three_fixtures(self):
        system = fair(3)
        s0 = moments_via_factorial(system, (), 3)
        assert s0.values == (Fraction(1), Fraction(3, 2), Fraction(3, 4))
        s1 = moments_via_factorial(system, (1,), 3)
        assert s1.values == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 24))

    @given(small_systems)
    @settings(max_examples=40, deadline=None)
    def test_three_routes_agree(self, system):
        for d in range(0, system.n):
            ell = min(3, system.n - d + 1)
            for j in [(), (1,), (1, 2), (2, 3)]:
                if len(j) != d or (j and max(j) > system.n):
                    continue
                a = moments_from_system(system, j, ell)
                b = moments_via_factorial(system, j, ell)
                c = moments_via_subsets(system, j, ell)
                assert a.values == b.values == c.values

    @given(small_systems)
    @settings(max_examples=40, deadline=None)
    def test_batched_set_matches_per_tuple_route(self, system):
        for d in range(0, system.n):
            ell = min(3, system.n - d + 1)
            batched = moment_set(system, d, ell)
            for vector in batched:
                direct = moments_via_factorial(system, vector.j, ell)
                assert vector.values == direct.values

    def test_batched_set_matches_per_tuple_route_at_high_orders(self):
        # Wider than the hypothesis test above: d up to 4 and ell up to 5,
        # so every falling factorial of order 3 and 4 is exercised.
        rng = random.Random(20201)
        for n in (8, 9, 10):
            masks = rng.sample(range(1 << n), 200)
            system = normalize(n, {m: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for m in masks})
            for d in range(0, 5):
                top = min(5, n - d + 1)
                direct = [
                    moments_via_factorial(system, j, top).values
                    for j in enumerate_index_tuples(n, d)
                ]
                for ell in range(2, top + 1):
                    batched = moment_set(system, d, ell)
                    assert [v.values for v in batched] == [values[:ell] for values in direct]

    def test_first_moment_is_the_pinned_probability(self):
        system = EventSystem(
            n=3, weights={3: Fraction(1, 2), 7: Fraction(1, 2)}
        )
        moments = moment_set(system, 2, 2)
        assert moments.vector((1, 2)).values[0] == 1
        assert moments.vector((1, 3)).values[0] == Fraction(1, 2)
        assert moments.vector((2, 3)).values[0] == Fraction(1, 2)


class TestMomentVectorValidation:
    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            MomentVector(
                j=IndexTuple(()), n=2, d=0, ell=2, values=(Fraction(1), Fraction(-1))
            )

    def test_rejects_s1_above_one(self):
        with pytest.raises(ValueError):
            MomentVector(
                j=IndexTuple(()), n=2, d=0, ell=2, values=(Fraction(3, 2), Fraction(1))
            )

    def test_truncated_keeps_leading_orders(self):
        vector = MomentVector(
            j=IndexTuple(()), n=3, d=0, ell=3,
            values=(Fraction(1), Fraction(3, 2), Fraction(3, 4)),
        )
        assert vector.truncated(2).values == (Fraction(1), Fraction(3, 2))
        with pytest.raises(ValueError):
            vector.truncated(4)


class TestMomentSetPayload:
    def test_round_trip(self):
        moments = moment_set(fair(3), 1, 3)
        again = MomentSet.from_payload(moments.to_payload())
        assert again.n == 3 and again.d == 1 and again.ell == 3
        for v, w in zip(moments, again):
            assert v.j == w.j and v.values == w.values

    def test_restricted_drops_trailing_orders(self):
        moments = moment_set(fair(4), 0, 3)
        pair = moments.restricted(2)
        assert pair.ell == 2
        assert pair.vector(()).values == moments.vector(()).values[:2]

    def test_missing_tuple_is_rejected(self):
        payload = moment_set(fair(3), 1, 2).to_payload()
        payload["s"] = payload["s"][:-1]
        with pytest.raises(InputFormatError):
            MomentSet.from_payload(payload)

    def test_malformed_record_is_rejected(self):
        payload = moment_set(fair(3), 1, 2).to_payload()
        del payload["s"][0]["values"]
        with pytest.raises(InputFormatError, match="malformed"):
            MomentSet.from_payload(payload)

    def test_unsorted_records_are_accepted(self):
        payload = moment_set(fair(3), 1, 2).to_payload()
        payload["s"].reverse()
        moments = MomentSet.from_payload(payload)
        assert [v.j.indices for v in moments] == [(1,), (2,), (3,)]

    def test_moments_no_distribution_has_are_rejected(self):
        payload = {"n": 3, "d": 0, "ell": 3, "s": [{"j": [], "values": ["1", "1/10", "9/10"]}]}
        with pytest.raises(InfeasibleMomentsError, match="j=\\[\\]"):
            MomentSet.from_payload(payload)
        payload["s"][0]["values"] = [1.0, 0.1, 0.9]
        with pytest.raises(InputFormatError, match="no distribution"):
            MomentSet.from_payload(payload)

    def test_each_tuple_is_checked(self):
        payload = moment_set(fair(4), 1, 3).to_payload()
        assert len(MomentSet.from_payload(payload)) == 4
        # tuple (3,): s_2 = 3/4 asks E[(count - 1); event 3 occurs] = 3/2,
        # but s_3 = 0 allows at most one other event with event 3, so that
        # expectation is at most P(event 3) = 1/2
        payload["s"][2]["values"] = ["1/2", "3/4", "0"]
        with pytest.raises(InfeasibleMomentsError, match="j=\\[3\\]"):
            MomentSet.from_payload(payload)


class TestDecomposition:
    def test_fair_two_fixture(self):
        report = verify_decomposition(fair(2), 1, 1)
        assert report.matched
        assert report.at_least_direct == Fraction(3, 4)
        assert report.at_least_decomposed == Fraction(3, 4)
        assert report.exactly_decomposed == Fraction(1, 2)

    @given(small_systems)
    @settings(max_examples=30, deadline=None)
    def test_identity_holds_for_all_orders(self, system):
        for d in range(0, system.n + 1):
            for r in range(d, system.n + 1):
                assert verify_decomposition(system, r, d).matched

    def test_rejects_d_above_r(self):
        with pytest.raises(ValueError):
            verify_decomposition(fair(3), 1, 2)


class TestIntegerForm:
    """One integer form per exact set: rows of numerators over one denominator."""

    @staticmethod
    def assert_form_matches(moments):
        rows, denominator = moments.integerized()
        assert isinstance(denominator, int) and denominator > 0
        assert len(rows) == len(moments)
        for row, vector in zip(rows, moments):
            assert all(type(x) is int for x in row)
            assert tuple(Fraction(x, denominator) for x in row) == vector.values[: moments.ell]

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_moment_set_restricted_and_payload_forms_equal_the_values(self, d):
        system = normalize(4, {0: 1, 3: 2, 5: 3, 14: 5, 15: 7})
        moments = moment_set(system, d, 3)
        self.assert_form_matches(moments)
        self.assert_form_matches(moments.restricted(2))
        self.assert_form_matches(moment_set(system, d, 3).restricted(2))  # no form built yet
        parsed = MomentSet.from_payload(moments.to_payload())
        self.assert_form_matches(parsed)
        self.assert_form_matches(parsed.restricted(2))

    def test_float_sets_have_no_integer_form(self):
        moments = moment_set(normalize(3, {0: 0.25, 7: 0.75}), 1, 2)
        assert not moments.exact
        with pytest.raises(ValueError, match="exact"):
            moments.integerized()

    def test_exact_agrees_with_all_exact_on_mixed_inputs(self):
        j = IndexTuple(())
        cases = [
            (Fraction(1), Fraction(1, 2), Fraction(1, 4)),
            (1, Fraction(1, 2), 0),
            (1.0, Fraction(1, 2), Fraction(1, 4)),
            (Fraction(1), 0.5, Fraction(1, 4)),
            (Fraction(1), Fraction(1, 2), 0.25),
            (1.0, 0.5, 0.25),
        ]
        for values in cases:
            vector = MomentVector(j=j, n=3, d=0, ell=3, values=values)
            assert vector.exact == all_exact(values)
            assert vector.truncated(2).exact == all_exact(values[:2])
        d1 = [IndexTuple((k,)) for k in (1, 2, 3)]
        for first in cases:
            vectors = [MomentVector(j=t, n=3, d=1, ell=2, values=first[:2]) for t in d1[:1]] + [
                MomentVector(j=t, n=3, d=1, ell=2, values=(Fraction(1, 2), Fraction(1, 4)))
                for t in d1[1:]
            ]
            moments = MomentSet(n=3, d=1, ell=2, vectors=vectors)
            assert moments.exact == all_exact(v for vector in vectors for v in vector.values)
