"""Event systems, index tuples, and the enumeration oracle."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from eventbounds.core import (
    EventSystem,
    binomial,
    event_mask,
    exact_joint,
    exact_occurrence,
    falling_factorial,
    index_tuple_indices,
    normalize,
    _plain_ratios,
)
from eventbounds.errors import DegenerateMeasureError, InputFormatError
from oracles import permute_events


def fair(n):
    """n independent fair coins: every atom gets mass 1/2^n."""
    return EventSystem(n=n, weights={m: Fraction(1, 1 << n) for m in range(1 << n)})


class TestCombinatorics:
    def test_binomial_matches_comb(self):
        for u in range(0, 12):
            for v in range(0, 12):
                assert binomial(u, v) == math.comb(u, v)

    def test_binomial_rejects_negatives_and_nonints(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)
        with pytest.raises(ValueError):
            binomial(3, 1.0)

    def test_falling_factorial_matches_perm(self):
        for u in range(0, 10):
            for v in range(0, 10):
                assert falling_factorial(u, v) == math.perm(u, v)


class TestTuplesOfEventIndices:
    """An index tuple is a plain tuple of ints; functions that take one take
    any iterable of ints and mask its events."""

    def test_any_iterable_of_ints_is_a_j(self):
        assert event_mask([1, 3, 4], 4) == 0b1101
        system = fair(4)
        for i in range(5):
            assert exact_joint(system, i, [1, 3]) == exact_joint(system, i, (1, 3))
            assert exact_joint(system, i, iter((1, 3))) == exact_joint(system, i, (1, 3))

    def test_the_empty_tuple_pins_no_event(self):
        assert event_mask((), 3) == 0
        system = EventSystem(n=3, weights={0: Fraction(1, 4), 5: Fraction(1, 4), 7: Fraction(1, 2)})
        occurrence = exact_occurrence(system)
        assert [exact_joint(system, i, ()) for i in range(4)] == list(occurrence.p)

    def test_entries_outside_1_to_n_are_rejected(self):
        assert event_mask((1, 4), 4) == 0b1001
        for j in ((1, 5), (0, 1)):
            with pytest.raises(ValueError, match="outside events 1..4"):
                event_mask(j, 4)
            with pytest.raises(ValueError, match="outside events 1..4"):
                exact_joint(fair(4), 2, j)

    def test_enumeration_is_lexicographic_and_complete(self):
        tuples = list(index_tuple_indices(4, 2))
        assert len(tuples) == binomial(4, 2)
        assert tuples == sorted(tuples)
        assert tuples[0] == (1, 2)
        assert tuples[-1] == (3, 4)
        assert all(type(j) is tuple and all(type(k) is int for k in j) for j in tuples)

    def test_enumeration_order_zero(self):
        assert list(index_tuple_indices(5, 0)) == [()]


class TestEventSystem:
    def test_drops_zero_weights_and_normalizes_types(self):
        system = EventSystem(
            n=2, weights={0: Fraction(1, 2), 1: 0, 3: Fraction(1, 2)}
        )
        assert set(system.weights) == {0, 3}
        assert system.exact

    def test_rejects_mass_not_one(self):
        with pytest.raises(ValueError):
            EventSystem(n=2, weights={0: Fraction(1, 2)})

    def test_rejects_out_of_range_mask(self):
        with pytest.raises(ValueError):
            EventSystem(n=2, weights={4: Fraction(1, 1)})

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            EventSystem(n=1, weights={0: Fraction(3, 2), 1: Fraction(-1, 2)})

    def test_all_zero_mass_is_degenerate(self):
        with pytest.raises(DegenerateMeasureError):
            EventSystem(n=2, weights={0: 0, 1: 0})

    def test_float_weights_make_float_mode(self):
        system = EventSystem(n=1, weights={0: 0.25, 1: 0.75})
        assert not system.exact
        assert isinstance(system.weights[1], float)

    def test_integerized_shares_a_common_denominator(self):
        system = EventSystem(n=2, weights={0: Fraction(1, 3), 3: Fraction(2, 3)})
        numerators, denominator = system.integerized()
        assert denominator == 3
        assert numerators == {0: 1, 3: 2}
        assert sum(numerators.values()) == denominator

    def test_normalize_records_the_original_total(self):
        system = normalize(2, {0: 3, 3: 1})
        assert system.total == 4
        assert system.weights[0] == Fraction(3, 4)
        assert system.denormalize(system.weights[0]) == 3

    def test_normalize_rejects_negative_and_empty(self):
        with pytest.raises(ValueError):
            normalize(2, {0: -1, 1: 2})
        with pytest.raises(DegenerateMeasureError):
            normalize(2, {0: 0})

    def test_normalize_names_the_first_weight_below_the_tolerance(self):
        """A float weight within the tolerance below zero passes; normalize and
        a file with "normalize" name the one that fails, as the constructor does."""
        weights = {0: -1e-12, 1: -0.5, 2: 1.5}
        payload = {"n": 2, "weights": {str(m): w for m, w in weights.items()}, "normalize": True}
        message = r"^negative weight -0\.5 at atom 1$"
        for error, build in (
            (ValueError, lambda: normalize(2, weights)),
            (ValueError, lambda: EventSystem(n=2, weights=weights)),
            (InputFormatError, lambda: EventSystem.from_payload(payload)),
        ):
            with pytest.raises(error, match=message):
                build()

    def test_payload_round_trip(self):
        system = EventSystem(n=3, weights={0: Fraction(1, 8), 7: Fraction(7, 8)})
        again = EventSystem.from_payload(system.to_payload())
        assert again.n == system.n
        assert dict(again.weights) == dict(system.weights)

    def test_from_payload_diagnoses_missing_keys(self):
        with pytest.raises(InputFormatError, match="missing key"):
            EventSystem.from_payload({"n": 2})
        with pytest.raises(InputFormatError, match="mask"):
            EventSystem.from_payload({"n": 2, "weights": {"x": 1}})
        with pytest.raises(InputFormatError):
            EventSystem.from_payload([1, 2])

    def test_from_payload_normalize_flag(self):
        payload = {"n": 2, "weights": {"0": "3", "3": "1"}, "normalize": True}
        system = EventSystem.from_payload(payload)
        assert system.weights[3] == Fraction(1, 4)
        assert system.total == 4


class TestIntegerRepresentation:
    """Exact systems keep integer numerators over one common denominator."""

    WEIGHTS = {0: Fraction(1, 6), 3: Fraction(1, 3), 5: Fraction(1, 2)}

    def test_integerized_is_gcd_reduced_after_normalize(self):
        assert normalize(2, {0: 2, 3: 2}).integerized() == ({0: 1, 3: 1}, 2)
        assert normalize(2, {0: Fraction(4, 6), 3: Fraction(2, 6)}).integerized() == (
            {0: 2, 3: 1},
            3,
        )

    def test_integerized_is_read_only(self):
        numerators, _ = fair(2).integerized()
        with pytest.raises(TypeError):
            numerators[0] = 2

    def test_direct_normalized_and_block_systems_agree(self):
        from eventbounds.conditional import PartitionField, block_systems

        direct = EventSystem(n=3, weights=self.WEIGHTS)
        scaled = normalize(3, {mask: 2 * w for mask, w in self.WEIGHTS.items()})
        halved = {mask: w / 2 for mask, w in self.WEIGHTS.items()}
        parent = EventSystem(n=3, weights={**halved, 6: Fraction(1, 2)})
        others = tuple(a for a in range(8) if a != 6)
        block = dict(block_systems(parent, PartitionField(n=3, blocks=(others, (6,)))))[0]
        assert (direct.total, scaled.total, block.total) == (1, 2, Fraction(1, 2))
        for system in (scaled, block):
            assert system.exact
            assert system.weights == direct.weights
            assert dict(system.weights) == dict(direct.weights) == self.WEIGHTS
            assert system.integerized() == direct.integerized() == ({0: 1, 3: 2, 5: 3}, 6)
        assert normalize(3, halved) == block
        for normalized, system in ((False, direct), (True, scaled)):
            text = {str(mask): str(system.total * w) for mask, w in self.WEIGHTS.items()}
            parsed = EventSystem.from_payload({"n": 3, "normalize": normalized, "weights": text})
            assert (parsed.integerized(), parsed.total) == (system.integerized(), system.total)

    @pytest.mark.parametrize(
        "n, weights, error, normalizable",
        [
            (2, {0: Fraction(1, 2), 4: Fraction(1, 2)}, ValueError, True),
            (1, {0: Fraction(3, 2), 1: Fraction(-1, 2)}, ValueError, True),
            (2, {0: 0, 1: Fraction(0)}, DegenerateMeasureError, True),
            # Weights summing to 1/2 are bad only when they are not normalized.
            (2, {0: Fraction(1, 2)}, ValueError, False),
        ],
        ids=["mask-out-of-range", "negative-weight", "zero-mass", "sum-not-one"],
    )
    def test_every_route_rejects_bad_weights_alike(self, n, weights, error, normalizable):
        """The constructor and normalize raise one class and message, which
        from_payload, with "normalize" false and true, raises as InputFormatError."""
        text = {str(mask): str(w) for mask, w in weights.items()}
        routes = [(False, lambda: EventSystem(n=n, weights=weights))]
        if normalizable:
            routes.append((True, lambda: normalize(n, weights)))
        for normalized, build in routes:
            with pytest.raises(error) as built:
                build()
            with pytest.raises(InputFormatError) as parsed:
                EventSystem.from_payload({"n": n, "normalize": normalized, "weights": text})
            assert str(parsed.value) == str(built.value)

    def test_a_view_is_trusted_only_where_its_masks_fit(self):
        system = normalize(3, {0: 1, 7: 1})
        assert EventSystem(n=3, weights=system.weights).integerized() == ({0: 1, 7: 1}, 2)
        with pytest.raises(ValueError, match="atom mask 7 out of range for n=1"):
            EventSystem(n=1, weights=system.weights)

    def test_messages_of_the_one_check(self):
        for build in (
            lambda: normalize(1, {0: -1, 1: 2}),
            lambda: EventSystem(n=1, weights={0: -1, 1: 2}),
        ):
            with pytest.raises(ValueError, match=r"^negative weight Fraction\(-1, 1\) at atom 0$"):
                build()
        with pytest.raises(DegenerateMeasureError, match="^measure has zero total mass$"):
            normalize(2, {0: 0})

    def test_weights_keep_the_mapping_contract(self):
        system = normalize(3, {5: 3, 0: 1, 3: 2})
        weights = system.weights
        assert len(weights) == 3
        assert 3 in weights and 1 not in weights and "3" not in weights
        assert list(weights) == [0, 3, 5]
        assert list(weights.items()) == [
            (0, Fraction(1, 6)),
            (3, Fraction(1, 3)),
            (5, Fraction(1, 2)),
        ]
        assert dict(weights) == {0: Fraction(1, 6), 3: Fraction(1, 3), 5: Fraction(1, 2)}
        assert weights == {0: Fraction(1, 6), 3: Fraction(1, 3), 5: Fraction(1, 2)}
        assert all(type(w) is Fraction for w in weights.values())
        assert weights.get(1) is None
        with pytest.raises(KeyError):
            weights[1]

    @pytest.mark.parametrize(
        "text, value",
        [
            ("3", Fraction(3)),
            ("0.375", Fraction(3, 8)),
            ("1/3", Fraction(1, 3)),
            ("+1/2", Fraction(1, 2)),
            (" 1/2 ", Fraction(1, 2)),
            ("1e-3", Fraction(1, 1000)),
            ("1_0/3", Fraction(10, 3)),
            ("007/3", Fraction(7, 3)),
            ("\u0663/\u0664", Fraction(3, 4)),  # Arabic-Indic digits, as Fraction reads them
        ],
    )
    def test_weight_strings_parse_as_before(self, text, value):
        payload = {"n": 2, "normalize": True, "weights": {"0": text, "3": "1"}}
        system = EventSystem.from_payload(payload)
        assert system.total == value + 1
        assert dict(system.weights) == {0: value / (value + 1), 3: 1 / (value + 1)}

    @pytest.mark.parametrize(
        "text", ["1/0", "1/-2", "1 / 2", "", "0x10", True, None, "\u00b2", "3/", "/3", "0/0"]
    )
    def test_bad_weight_strings_are_input_errors(self, text):
        for normalized in (True, False):
            payload = {"n": 1, "normalize": normalized, "weights": {"0": text, "1": "1"}}
            with pytest.raises(InputFormatError, match="bad weight for mask '0'"):
                EventSystem.from_payload(payload)

    @pytest.mark.parametrize("text", ["0/5", "0", "00"])
    def test_zero_weight_strings_drop_their_atom(self, text):
        for normalized in (True, False):
            payload = {"n": 2, "normalize": normalized, "weights": {"0": text, "3": "1"}}
            system = EventSystem.from_payload(payload)
            assert system.total == 1
            assert dict(system.weights) == {3: Fraction(1)}

    @given(st.lists(st.text(alphabet="0123456789/ +-._e,\u0663\u00b2", max_size=8), max_size=4))
    def test_plain_ratio_agrees_with_fraction(self, texts):
        """The bulk parse takes every file of plain ratios, reads each as
        ``Fraction`` does, and takes no other file."""
        raw = {str(mask): text for mask, text in enumerate(texts)}
        plain = all(re.fullmatch(r"[0-9]+(/[0-9]*[1-9][0-9]*)?", t) for t in texts)
        parsed = _plain_ratios(raw)
        assert (parsed is not None) == (plain and bool(texts))
        if parsed is not None:
            numerators, denominator = parsed
            assert list(numerators) == list(range(len(texts)))
            for mask, text in enumerate(texts):
                assert Fraction(numerators[mask], denominator) == Fraction(text)

    HALVES = ({0: Fraction(1, 2), 3: Fraction(1, 2)}, 1, True)

    @pytest.mark.parametrize(
        "n, weights, normalized, outcome",
        [
            (2, {"0": "1/4", "3": "3/4"}, False, ({0: Fraction(1, 4), 3: Fraction(3, 4)}, 1, True)),
            (2, {"0": "1", "3": "3"}, True, ({0: Fraction(1, 4), 3: Fraction(3, 4)}, 4, True)),
            (2, {"0": "2", "3": "3/1"}, True, ({0: Fraction(2, 5), 3: Fraction(3, 5)}, 5, True)),
            (2, {"0": "0/5", "3": "1"}, False, ({3: Fraction(1)}, 1, True)),
            (2, {"0": "1/0", "3": "1"}, True,
             "bad weight for mask '0': cannot parse '1/0' as a rational number"),
            (2, {"0": "+1/2", "3": "1/2"}, False, HALVES),
            (2, {"0": "\u0663/6", "3": "1/2"}, False, HALVES),
            (2, {"0": "1 /2", "3": "1/2"}, False,
             "bad weight for mask '0': cannot parse '1 /2' as a rational number"),
            (2, {" 2": "1/2", "1": "1/2"}, False,
             ({1: Fraction(1, 2), 2: Fraction(1, 2)}, 1, True)),
            (4, {"1_0": "1/2", "1": "1/2"}, False,
             ({1: Fraction(1, 2), 10: Fraction(1, 2)}, 1, True)),
            (2, {"1": "1/2", "01": "1/2"}, False, "keys '1' and '01' both name atom 1"),
            (2, {"0": "2/4", "3": "1/2"}, True, HALVES),
            (2, {"0": "1/4", "3": "3/4", "7": "0"}, False, "atom mask 7 out of range for n=2"),
            (2, {"0": "1/4", "3": "1/4"}, False, "normalized weights must sum to 1, got 1/2"),
            (2, {"0": "0", "3": "0/2"}, True, "measure has zero total mass"),
            (2, {"0": 0.25, "3": "3/4"}, False, ({0: 0.25, 3: 0.75}, 1.0, False)),
            (2, {"0": True, "3": "1"}, False,
             "bad weight for mask '0': boolean True is not a number"),
            (2, {"0": None, "3": "1"}, False,
             "bad weight for mask '0': unsupported numeric value None"),
            (2, {"0": "1/2", "3": "1/2"}, 1, '"normalize" must be true or false, got 1'),
            (2, {"1": math.nan, "2": 0.5, "3": 0.5}, False, "weight nan at atom 1 is not finite"),
            (2, {"1": math.inf, "2": 0.5}, True, "weight inf at atom 1 is not finite"),
            (2, {"1": 1e308, "2": 1e308, "3": 1e308}, True,
             "the weights' total mass overflows a float"),
        ],
        ids=[
            "a/b", "a", "mixed", "0/5", "1/0", "+1/2", "arabic-indic", "1 /2", "key-space",
            "key-underscore", "two-spellings", "unreduced", "mask-out-of-range", "sum-not-one",
            "zero-mass", "float-and-string", "true", "null", "normalize-not-bool", "nan",
            "infinity-normalized", "total-overflows",
        ],
    )
    def test_ingest_boundary(self, n, weights, normalized, outcome):
        """Each file's system, or its exact error, on either side of the bulk parse."""
        payload = {"n": n, "normalize": normalized, "weights": weights}
        if isinstance(outcome, str):
            with pytest.raises(InputFormatError) as error:
                EventSystem.from_payload(payload)
            assert str(error.value) == outcome
        else:
            system = EventSystem.from_payload(payload)
            assert (dict(system.weights), system.total, system.exact) == outcome
            kind = Fraction if system.exact else float
            assert all(type(w) is kind for w in system.weights.values())


class TestOracle:
    def test_fair_three_distribution(self):
        occurrence = exact_occurrence(fair(3))
        assert occurrence.p == (
            Fraction(1, 8),
            Fraction(3, 8),
            Fraction(3, 8),
            Fraction(1, 8),
        )
        assert occurrence.at_least(2) == Fraction(1, 2)
        assert occurrence.n == 3

    def test_at_least_agrees_with_direct_sum(self):
        system = fair(4)
        occurrence = exact_occurrence(system)
        for r in range(0, 5):
            direct = sum(w for mask, w in system.weights.items() if mask.bit_count() >= r)
            assert occurrence.at_least(r) == direct

    def test_at_least_rejects_out_of_range(self):
        occurrence = exact_occurrence(fair(2))
        with pytest.raises(ValueError):
            occurrence.at_least(3)
        with pytest.raises(ValueError):
            occurrence.at_least(-1)
        assert occurrence.at_least(0) == 1

    def test_joint_decomposes_the_level_probability(self):
        system = fair(3)
        occurrence = exact_occurrence(system)
        for i in range(0, 4):
            # summing over all singletons counts each level-i atom i times
            total = sum(exact_joint(system, i, (k,)) for k in range(1, 4))
            assert total == i * occurrence.p[i]

    def test_joint_is_zero_below_the_tuple_order(self):
        assert exact_joint(fair(3), 1, (1, 2)) == 0

    def test_permutation_preserves_occurrence_counts(self):
        system = EventSystem(
            n=3,
            weights={1: Fraction(1, 4), 6: Fraction(1, 4), 7: Fraction(1, 2)},
        )
        permuted = permute_events(system, [3, 1, 2])
        assert exact_occurrence(permuted).p == exact_occurrence(system).p

    @given(
        st.lists(st.integers(min_value=0, max_value=100), min_size=2, max_size=16).filter(
            lambda ws: sum(ws) > 0
        )
    )
    def test_occurrence_sums_to_one(self, raw):
        n = max((len(raw) - 1).bit_length(), 1)
        system = normalize(n, {m: w for m, w in enumerate(raw) if w})
        occurrence = exact_occurrence(system)
        assert sum(occurrence.p) == 1
        assert all(p >= 0 for p in occurrence.p)
