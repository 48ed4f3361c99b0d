"""Moment matrices, moment vectors, and the decomposition identities."""

import dataclasses
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from eventbounds.certificates import SIDES, BoundRequest, TermTuple
from eventbounds.checker import check_certificate
from eventbounds.cli import EXIT_INPUT, main as cli_main
from eventbounds.core import EventSystem, binomial, index_tuple_indices, normalize
from eventbounds.dispatch import evaluate_request
from eventbounds.errors import InfeasibleMomentsError, InputFormatError
from eventbounds.numerics import all_exact
from eventbounds.moments import (
    MomentSet,
    MomentVector,
    _level_sums,
    moment_matrix,
    moment_set,
    verify_decomposition,
)
from eventbounds.verification import floatize, random_system
from oracles import level_sums_by_tuple, moments_via_factorial, moments_via_subsets, z_via_joint


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
        z = z_via_joint(fair(3), (1,))
        assert z == (Fraction(1, 8), Fraction(1, 8), Fraction(1, 24))

    def test_order_zero_equals_occurrence_scaled(self):
        z = z_via_joint(fair(2), ())
        assert z == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))

    def test_moment_matrix_maps_z_to_s(self):
        system = fair(3)
        for d in range(0, 3):
            fmat = moment_matrix(3, d, 3 - d + 1 if d else 3)
            for j in itertools.combinations(range(1, 4), d):
                z = z_via_joint(system, j)
                s = moments_via_factorial(system, j, fmat.ell)
                for k in range(1, fmat.ell + 1):
                    assert sum(
                        fmat.entry(k, i + 1) * z[i]
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
                a = moment_set(system, d, ell).vector(j)
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
        # so every falling factorial of order 3 and 4 is exercised; at
        # n = 20 the events of one atom fall in both halves of its mask.
        rng = random.Random(20201)
        for n, atoms, top_d in ((8, 200, 4), (9, 200, 4), (10, 200, 4), (20, 300, 3)):
            masks = rng.sample(range(1 << n), atoms)
            system = normalize(n, {m: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for m in masks})
            for d in range(0, top_d + 1):
                top = min(5, n - d + 1)
                direct = [
                    moments_via_factorial(system, j, top).values
                    for j in index_tuple_indices(n, d)
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

    def test_moment_set_times_script_runs(self):
        """``scripts/moment_set_times.py`` times ingest once, ``moment_set`` once per d
        and ``conditional_bound`` once per block count."""
        root = Path(__file__).resolve().parent.parent
        path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        result = subprocess.run(
            [
                sys.executable, str(root / "scripts" / "moment_set_times.py"),
                "--n", "8", "--atoms", "40", "--repeat", "1",
            ],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
            capture_output=True, text=True, check=True, timeout=120,
        )
        lines = result.stdout.splitlines()
        assert [line.split(":")[0] for line in lines] == ["n=8 atoms=40 ingest"] + [
            f"n=8 atoms=40 d={d} ell=3" for d in (0, 1, 2)
        ] + [f"n=8 atoms=40 blocks={blocks} d=1 ell=3" for blocks in (2, 16, 256)], result.stdout


class TestMomentVectorValidation:
    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            MomentVector(
                j=(), n=2, d=0, ell=2, values=(Fraction(1), Fraction(-1))
            )

    def test_rejects_s1_above_one(self):
        with pytest.raises(ValueError):
            MomentVector(
                j=(), n=2, d=0, ell=2, values=(Fraction(3, 2), Fraction(1))
            )

    def test_truncated_keeps_leading_orders(self):
        vector = MomentVector(
            j=(), n=3, d=0, ell=3,
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

    @pytest.mark.parametrize(
        "d, place, j, message",
        [
            (1, 0, [True], 's[0]: "j" must be a list of integers, got [True]'),
            (1, 0, [1.0], 's[0]: "j" must be a list of integers, got [1.0]'),
            (1, 0, "1", 's[0]: "j" must be a list of integers, got \'1\''),
            (1, 2, [4], "place 3 has j=[4], expected j=[3]"),
            (1, 0, [0], "place 1 has j=[0], expected j=[1]"),
            (1, 0, [1, 2], "place 1 has j=[1, 2], expected j=[1]"),
            (1, 1, [1], "place 2 has j=[1], expected j=[2]"),
            (2, 1, [2, 1], "place 2 has j=[2, 1], expected j=[1, 3]"),
        ],
        ids=["bool", "float", "string", "beyond-n", "zero", "order-2", "twice", "decreasing"],
    )
    def test_malformed_j_is_rejected(self, capsys, tmp_path, d, place, j, message):
        """A record's j is checked where the file is read, and the error names
        the record; the CLI exits 2 with that message."""
        payload = moment_set(fair(3), d, 2).to_payload()
        payload["s"][place]["j"] = j
        with pytest.raises(InputFormatError) as raised:
            MomentSet.from_payload(payload)
        assert message in str(raised.value)
        path = tmp_path / "moments.json"
        path.write_text(json.dumps(payload))
        argv = ["bound", "--moments", str(path), "--d", str(d), "--r", "2", "--ell", "2"]
        flags = [[], ["--exact-arithmetic"]] if j == [1.0] else [[]]
        for extra in flags:
            assert cli_main([*argv, *extra]) == EXIT_INPUT
            out, err = capsys.readouterr()
            assert out == ""
            expected = message.replace("1.0", "Fraction(1, 1)") if extra else message
            assert expected in err

    def test_every_j_is_a_plain_tuple_of_ints(self):
        for n, d in ((1, 0), (3, 1), (4, 2), (5, 3)):
            for system in (fair(n), floatize(fair(n))):
                built = moment_set(system, d, 2)
                read = MomentSet.from_payload(built.to_payload())
                for moments in (built, read, built.restricted(2)):
                    js = [v.j for v in moments]
                    assert js == list(index_tuple_indices(n, d))
                    assert all(type(j) is tuple for j in js)
                    assert all(type(k) is int for j in js for k in j)

    def test_terms_share_their_vectors_j(self):
        moments = moment_set(fair(4), 1, 3)
        certificate = evaluate_request(moments, BoundRequest(r=2, d=1, ell=3))
        for term, vector in zip(certificate.terms, moments):
            assert term.j is vector.term_j and term.j == vector.j
            assert type(term.j) is TermTuple

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_non_finite_values_are_rejected(self, capsys, tmp_path, value, order):
        """A NaN or infinite moment is rejected before the sign check; an
        infinite s_4 once printed bounds of -Infinity and Infinity with exit 0."""
        values = [1.0, 0.5, 0.2, 0.05]
        values[order - 1] = value
        payload = {"n": 5, "d": 0, "ell": 4, "s": [{"j": [], "values": values}]}
        with pytest.raises(InputFormatError, match=f"moment {value!r} is not finite"):
            MomentSet.from_payload(payload)
        path = tmp_path / "moments.json"
        path.write_text(json.dumps(payload))
        for side in SIDES:
            argv = ["bound", "--moments", str(path), "--r", "2", "--ell", "4", "--side", side]
            assert cli_main(argv) == EXIT_INPUT
            out, err = capsys.readouterr()
            assert out == "" and "is not finite" in err

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
        assert [v.j for v in moments] == [(1,), (2,), (3,)]

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


class TestLevelSums:
    """Packed integer sums and the float loop, against the per-tuple oracle."""

    @staticmethod
    def assert_matches(weights, n, ds):
        floats = {mask: float(weight) for mask, weight in weights.items()}
        for d in ds:
            assert _level_sums(weights, n, d) == level_sums_by_tuple(weights, n, d), (n, d)
            assert _level_sums(floats, n, d) == level_sums_by_tuple(floats, n, d), (n, d)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_order_with_zero_and_large_weights(self, n):
        rng = random.Random(f"level-sums:{n}")
        masks = rng.sample(range(1 << n), min(1 << n, 120))
        weights = {m: rng.choice((0, rng.randint(1, 9), rng.randint(0, 10**30))) for m in masks}
        self.assert_matches(weights, n, range(n + 1))
        self.assert_matches(dict.fromkeys(masks, 0), n, range(n + 1))

    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_one_atom_with_all_the_mass_fills_its_slots(self, n):
        for k in (1, 8, 64, 100):
            for total in (2**k, 2**k - 1):
                self.assert_matches({(1 << n) - 1: total}, n, range(n + 1))

    def test_twenty_events_span_both_half_tables(self):
        rng = random.Random("level-sums:20")
        masks = rng.sample(range(1 << 20), 2000)
        weights = {m: rng.choice((0, rng.randint(1, 9), rng.randint(0, 10**30))) for m in masks}
        self.assert_matches(weights, 20, (1, 2, 3))


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

    def test_identity_holds_on_float_systems(self):
        """The float branch: sums of float joint masses, within the tolerance."""
        cases = 0
        for k in range(20):
            rng = random.Random(f"decomposition:float:{k}")
            system = floatize(random_system(rng, rng.randint(2, 6)))
            for d in range(0, system.n + 1):
                for r in range(d, system.n + 1):
                    report = verify_decomposition(system, r, d)
                    assert report.matched, (k, r, d)
                    assert isinstance(report.exactly_decomposed, float)
                    assert isinstance(report.at_least_decomposed, float)
                    cases += 1
        assert cases == 272


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

    def test_forms_are_built_once_per_set_and_order(self):
        system = normalize(4, {0: 1, 3: 2, 5: 3, 14: 5, 15: 7})
        for moments in (moment_set(system, 1, 3), moment_set(normalize(3, {0: 0.25, 7: 0.75}), 1, 3)):
            for ell in (2, 3):
                forms, exact = moments.forms(ell)
                assert moments.forms(ell) is moments.forms(ell)
                assert exact == moments.exact and len(forms) == len(moments)
                assert moments.restricted(ell).forms(ell) == (forms, exact)
                for (picks, dots, denominator), vector in zip(forms, moments):
                    if exact:
                        assert picks is dots
                        assert tuple(Fraction(x, denominator) for x in dots) == vector.values[:ell]
                    else:
                        assert picks == vector.values[:ell] and denominator is None
                        assert dots == tuple(float(x) for x in picks)

    def test_a_set_mixing_exact_and_float_tuples(self):
        """Exact tuples of a mixed set keep integer forms and exact terms;
        the float tuple gives a float term, and the total is a float."""
        vectors = list(moment_set(fair(3), 1, 3))
        vectors[1] = dataclasses.replace(vectors[1], values=tuple(map(float, vectors[1].values)))
        mixed = MomentSet(n=3, d=1, ell=3, vectors=vectors)
        forms, exact = mixed.forms(3)
        assert not exact
        assert [denominator for _, _, denominator in forms] == [24, None, 24]
        for side in SIDES:
            certificate = evaluate_request(mixed, BoundRequest(r=2, d=1, ell=3, side=side))
            first, middle, last = (term.value for term in certificate.terms)
            assert first == last == Fraction(1, 6) and type(first) is Fraction
            assert type(middle) is float
            assert type(certificate.value) is float and certificate.value == 0.5
            assert check_certificate(certificate, mixed) == []

    def test_float_sets_have_no_integer_form(self):
        moments = moment_set(normalize(3, {0: 0.25, 7: 0.75}), 1, 2)
        assert not moments.exact
        with pytest.raises(ValueError, match="exact"):
            moments.integerized()

    def test_exact_agrees_with_all_exact_on_mixed_inputs(self):
        j = ()
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
        d1 = [(k,) for k in (1, 2, 3)]
        for first in cases:
            vectors = [MomentVector(j=t, n=3, d=1, ell=2, values=first[:2]) for t in d1[:1]] + [
                MomentVector(j=t, n=3, d=1, ell=2, values=(Fraction(1, 2), Fraction(1, 4)))
                for t in d1[1:]
            ]
            moments = MomentSet(n=3, d=1, ell=2, vectors=vectors)
            assert moments.exact == all_exact(v for vector in vectors for v in vector.values)
