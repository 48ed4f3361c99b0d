"""Partition handling, blockwise bounds, and expectation aggregation."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from eventbounds.certificates import BoundRequest
from eventbounds.conditional import (
    ConditionalMomentSet,
    PartitionField,
    block_system,
    conditional_bound,
    conditional_moments,
    expectation_aggregate,
)
from eventbounds.core import EventSystem, exact_occurrence, normalize
from eventbounds.dispatch import bound_for_system
from eventbounds.errors import DegenerateMeasureError, InputFormatError
from eventbounds.verification import floatize, random_partition, random_system

FIXTURES = Path(__file__).parent / "fixtures"


def fair(n):
    return EventSystem(n=n, weights={m: Fraction(1, 1 << n) for m in range(1 << n)})


@pytest.fixture(scope="module")
def fair3():
    return fair(3)


@pytest.fixture(scope="module")
def by_third_event():
    return PartitionField.from_event(3, 3)


class TestPartitionField:
    def test_trivial_partition(self):
        partition = PartitionField.trivial(2)
        assert partition.blocks == ((0, 1, 2, 3),)

    def test_from_event_splits_on_the_bit(self):
        partition = PartitionField.from_event(3, 3)
        assert partition.blocks == ((4, 5, 6, 7), (0, 1, 2, 3))
        assert partition.block_of(5) == 0
        assert partition.block_of(2) == 1

    def test_blocks_are_sorted_on_construction(self):
        partition = PartitionField(n=2, blocks=((3, 0), (2, 1)))
        assert partition.blocks == ((0, 3), (1, 2))

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="more than one block"):
            PartitionField(n=2, blocks=((0, 1), (1, 2, 3)))

    def test_rejects_gaps(self):
        with pytest.raises(ValueError, match="missing"):
            PartitionField(n=2, blocks=((0, 1), (2,)))

    def test_rejects_empty_blocks(self):
        with pytest.raises(ValueError, match="empty"):
            PartitionField(n=1, blocks=((0, 1), ()))

    def test_rejects_foreign_atoms(self):
        with pytest.raises(ValueError, match="out of range"):
            PartitionField(n=1, blocks=((0, 1, 2),))

    @pytest.mark.parametrize(
        "n, blocks, message",
        [
            (1, ((0, 1.0),), "atom mask 1.0 out of range for n=1"),
            (1, ((0, -1, 1),), "atom mask -1 out of range for n=1"),
            (2, ((0, 1), (3, 1, 2)), "atom 1 appears in more than one block"),
            (2, ((0, 0, 1, 2, 3),), "atom 0 appears in more than one block"),
            (2, ((3, 0), (1,)), "blocks do not cover all atoms; atom 2 is missing"),
            (2, ((0, 1, 2, 3), ()), "block 1 is empty"),
        ],
    )
    def test_each_check_keeps_its_message(self, n, blocks, message):
        with pytest.raises(ValueError) as caught:
            PartitionField(n=n, blocks=blocks)
        assert str(caught.value) == message

    def test_payload_round_trip(self, by_third_event):
        rebuilt = PartitionField.from_payload(by_third_event.to_payload())
        assert rebuilt == by_third_event

    def test_payload_infers_n_from_the_atom_count(self):
        partition = PartitionField.from_payload({"blocks": [[0, 1, 2, 3]]})
        assert partition.n == 2

    def test_payload_rejects_non_power_of_two(self):
        with pytest.raises(InputFormatError, match="atom space"):
            PartitionField.from_payload({"blocks": [[0, 1, 2, 3, 4, 5]]})

    def test_payload_rejects_bad_shapes(self):
        with pytest.raises(InputFormatError):
            PartitionField.from_payload([[0, 1]])
        with pytest.raises(InputFormatError):
            PartitionField.from_payload({"blocks": "everything"})


class TestBlockSystem:
    def test_renormalizes_and_records_the_weight(self, fair3, by_third_event):
        conditioned = block_system(fair3, by_third_event, 0)
        assert conditioned.total == Fraction(1, 2)
        assert sum(conditioned.weights.values()) == 1
        assert set(conditioned.weights) == {4, 5, 6, 7}

    def test_massless_block_is_none(self):
        system = EventSystem(n=2, weights={0: Fraction(1)})
        partition = PartitionField.from_event(2, 1)
        assert block_system(system, partition, 0) is None
        assert block_system(system, partition, 1) is not None

    def test_partition_must_match_the_system(self, fair3):
        with pytest.raises(ValueError, match="n="):
            block_system(fair3, PartitionField.trivial(2), 0)

    def test_blocks_match_a_scan_of_the_partition(self):
        rng = random.Random("conditional:blocks")
        for n in (2, 4, 6):
            for _ in range(3):
                exact = random_system(rng, n)
                partition = random_partition(rng, n, max_blocks=5)
                for atom in range(1 << n):
                    owner = [k for k, block in enumerate(partition.blocks) if atom in block]
                    assert [partition.block_of(atom)] == owner
                for system in (exact, floatize(exact)):
                    for index, block in enumerate(partition.blocks):
                        scanned = {a: system.weights[a] for a in block if a in system.weights}
                        conditioned = block_system(system, partition, index)
                        if not scanned:
                            assert conditioned is None
                            continue
                        reference = normalize(n, scanned)
                        assert conditioned.total == reference.total
                        assert list(conditioned.weights.items()) == list(reference.weights.items())

    def test_many_blocks(self):
        singletons = PartitionField(n=9, blocks=[(atom,) for atom in range(512)])
        assert [singletons.block_of(atom) for atom in range(512)] == list(range(512))
        with pytest.raises(ValueError, match="atom 300 is missing"):
            PartitionField(n=9, blocks=[(atom,) for atom in range(512) if atom != 300])
        with pytest.raises(ValueError, match="atom 7 appears in more than one block"):
            PartitionField(n=9, blocks=[(atom,) for atom in range(512)] + [(7,)])

    def test_block_of_rejects_atoms_outside_the_space(self, by_third_event):
        for atom in (-1, 8, "3"):
            with pytest.raises(ValueError, match="not in the partition"):
                by_third_event.block_of(atom)


class TestConditionalMoments:
    def test_per_block_first_moments(self, fair3, by_third_event):
        conditioned = conditional_moments(fair3, by_third_event, 0, 2)
        values = {block.index: block.moments.vector(()).values for block in conditioned}
        assert values[0] == (1, 2)
        assert values[1] == (1, 1)

    def test_zero_weight_blocks_are_dropped(self):
        system = EventSystem(n=2, weights={0: Fraction(1)})
        partition = PartitionField.from_event(2, 1)
        conditioned = conditional_moments(system, partition, 0, 2)
        assert [block.index for block in conditioned] == [1]

    def test_no_blocks_is_degenerate(self):
        with pytest.raises(DegenerateMeasureError):
            ConditionalMomentSet(
                n=2, d=0, ell=2, partition=PartitionField.trivial(2), blocks=()
            )


class TestConditionalBound:
    def test_blockwise_certificates(self, fair3, by_third_event):
        request = BoundRequest(r=2, d=0, ell=2, side="upper", formula="u1")
        blocks = conditional_bound(fair3, by_third_event, request)
        assert [block.certificate.value for block in blocks] == [1, Fraction(1, 2)]
        assert all(block.weight == Fraction(1, 2) for block in blocks)

    def test_each_block_bounds_its_conditional_truth(self, fair3, by_third_event):
        request = BoundRequest(r=2, d=0, ell=2, side="upper", formula="u1")
        for block in conditional_bound(fair3, by_third_event, request):
            conditioned = block_system(fair3, by_third_event, block.index)
            truth = exact_occurrence(conditioned).at_least(2)
            assert block.certificate.clamped >= truth


class TestAggregation:
    def test_weighted_average_of_clamped_values(self, fair3, by_third_event):
        request = BoundRequest(r=2, d=0, ell=2, side="upper", formula="u1")
        blocks = conditional_bound(fair3, by_third_event, request)
        unconditional = bound_for_system(fair3, request)
        aggregate = expectation_aggregate(blocks, unconditional)
        assert aggregate.value == Fraction(3, 4)
        assert aggregate.formula_id == "u1"
        assert aggregate.margin == 0
        assert aggregate.clamped >= exact_occurrence(fair3).at_least(2)

    def test_mixed_formulas_are_labeled_mixed(self, fair3, by_third_event):
        request = BoundRequest(r=2, d=0, ell=3, side="upper")
        blocks = conditional_bound(fair3, by_third_event, request)
        aggregate = expectation_aggregate(blocks)
        if len({b.certificate.formula_id for b in blocks}) > 1:
            assert aggregate.formula_id == "mixed"
        assert aggregate.clamped >= exact_occurrence(fair3).at_least(2)

    def test_rejects_mixed_parameters(self, fair3, by_third_event):
        upper = conditional_bound(
            fair3, by_third_event, BoundRequest(r=2, d=0, ell=2, side="upper")
        )
        lower = conditional_bound(
            fair3, by_third_event, BoundRequest(r=2, d=0, ell=2, side="lower")
        )
        with pytest.raises(ValueError, match="mixed block certificates"):
            expectation_aggregate((upper[0], lower[1]))

    def test_rejects_a_mismatched_unconditional(self, fair3, by_third_event):
        request = BoundRequest(r=2, d=0, ell=2, side="upper")
        blocks = conditional_bound(fair3, by_third_event, request)
        other = bound_for_system(fair3, BoundRequest(r=1, d=0, ell=2, side="upper"))
        with pytest.raises(ValueError, match="same side, target"):
            expectation_aggregate(blocks, other)

    def test_rejects_an_empty_block_list(self):
        with pytest.raises(ValueError, match="nothing to aggregate"):
            expectation_aggregate(())

    def test_payload_carries_the_story(self, fair3, by_third_event):
        request = BoundRequest(r=2, d=0, ell=2, side="upper", formula="u1")
        blocks = conditional_bound(fair3, by_third_event, request)
        unconditional = bound_for_system(fair3, request)
        payload = expectation_aggregate(blocks, unconditional).to_payload()
        assert payload["value"] == "3/4"
        assert payload["formula"] == "u1"
        assert payload["margin"] == "0"
        assert len(payload["blocks"]) == 2
        assert payload["unconditional"]["formula"] == "u1"


class TestStrictImprovementFixture:
    def test_aggregation_beats_the_unconditional_bound(self):
        fixture = json.loads((FIXTURES / "conditional_improvement.json").read_text())
        system = EventSystem.from_payload(fixture["system"])
        partition = PartitionField.from_payload(
            fixture["partition"], n=system.n
        )
        request = BoundRequest(**fixture["request"])
        expected = fixture["expected"]

        blocks = conditional_bound(system, partition, request)
        unconditional = bound_for_system(system, request)
        aggregate = expectation_aggregate(blocks, unconditional)

        assert unconditional.clamped == Fraction(expected["unconditional"])
        assert aggregate.value == Fraction(expected["aggregate"])
        assert aggregate.margin == Fraction(expected["margin"])
        assert aggregate.margin > 0
        assert {b.certificate.formula_id for b in blocks} == {expected["formula"]}

        truth = exact_occurrence(system).p[request.r]
        assert truth == Fraction(expected["exact"])
        assert aggregate.clamped <= truth
