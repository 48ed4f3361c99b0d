"""Event systems, index tuples, and the enumeration oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from eventbounds.core import (
    EventSystem,
    IndexTuple,
    binomial,
    enumerate_index_tuples,
    exact_at_least,
    exact_joint,
    exact_occurrence,
    falling_factorial,
    normalize,
    _plain_ratio,
    permute_events,
)
from eventbounds.errors import DegenerateMeasureError, InputFormatError


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


class TestIndexTuple:
    def test_coerce_and_properties(self):
        j = IndexTuple.coerce([1, 3, 4])
        assert j.d == 3
        assert j.mask == 0b1101
        assert list(j) == [1, 3, 4]

    def test_empty_tuple_is_order_zero(self):
        j = IndexTuple(())
        assert j.d == 0
        assert j.mask == 0

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            IndexTuple((2, 2))
        with pytest.raises(ValueError):
            IndexTuple((3, 1))

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            IndexTuple((0, 1))
        with pytest.raises(ValueError):
            IndexTuple((True, 2))

    def test_validate_for_bounds_the_largest_index(self):
        IndexTuple((1, 4)).validate_for(4)
        with pytest.raises(ValueError):
            IndexTuple((1, 5)).validate_for(4)

    def test_enumeration_is_lexicographic_and_complete(self):
        tuples = enumerate_index_tuples(4, 2)
        assert len(tuples) == binomial(4, 2)
        assert tuples == sorted(tuples)
        assert tuples[0] == IndexTuple((1, 2))
        assert tuples[-1] == IndexTuple((3, 4))

    def test_enumeration_order_zero(self):
        assert enumerate_index_tuples(5, 0) == [IndexTuple(())]


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

    def test_from_payload_force_exact(self):
        payload = {"n": 1, "weights": {"0": 0.375, "1": 0.625}}
        system = EventSystem.from_payload(payload, force_exact=True)
        assert system.exact
        assert system.weights[0] == Fraction(3, 8)

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
        from eventbounds.conditional import PartitionField, block_system

        direct = EventSystem(n=3, weights=self.WEIGHTS)
        scaled = normalize(3, {mask: 2 * w for mask, w in self.WEIGHTS.items()})
        halved = {mask: w / 2 for mask, w in self.WEIGHTS.items()}
        parent = EventSystem(n=3, weights={**halved, 6: Fraction(1, 2)})
        others = tuple(a for a in range(8) if a != 6)
        block = block_system(parent, PartitionField(n=3, blocks=(others, (6,))), 0)
        assert (direct.total, scaled.total, block.total) == (1, 2, Fraction(1, 2))
        for system in (scaled, block):
            assert system.exact
            assert system.weights == direct.weights
            assert dict(system.weights) == dict(direct.weights) == self.WEIGHTS
            assert system.integerized() == direct.integerized() == ({0: 1, 3: 2, 5: 3}, 6)
        assert normalize(3, halved) == block

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

    @given(st.text(alphabet="0123456789/ +-._e\u0663\u00b2", max_size=8))
    def test_plain_ratio_agrees_with_fraction(self, text):
        pair = _plain_ratio(text)
        if pair is not None:
            assert Fraction(*pair) == Fraction(text)


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
        for r in range(1, 5):
            assert occurrence.at_least(r) == exact_at_least(system, r)

    def test_at_least_rejects_out_of_range(self):
        occurrence = exact_occurrence(fair(2))
        with pytest.raises(ValueError):
            occurrence.at_least(3)
        with pytest.raises(ValueError):
            exact_at_least(fair(2), 0)

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
