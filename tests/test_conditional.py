"""Partition handling, blockwise bounds, and expectation aggregation."""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from eventbounds.certificates import SIDES, TARGETS, BoundRequest
from eventbounds.conditional import (
    PartitionField,
    block_systems,
    conditional_bound,
    expectation_aggregate,
)
from eventbounds.core import EventSystem, exact_occurrence, normalize
from eventbounds.dispatch import bound_for_system
from eventbounds.moments import moment_set
from eventbounds.errors import InputFormatError, NotApplicableError
from eventbounds.verification import floatize, random_partition, random_system
from oracles import partition_fault

FIXTURES = Path(__file__).parent / "fixtures"


def fair(n):
    return EventSystem(n=n, weights={m: Fraction(1, 1 << n) for m in range(1 << n)})


@pytest.fixture(scope="module")
def fair3():
    return fair(3)


@pytest.fixture(scope="module")
def by_third_event():
    """σ(A_3): the atoms that contain event 3, then those that do not."""
    return PartitionField(n=3, blocks=((4, 5, 6, 7), (0, 1, 2, 3)))


#: σ(A_1) over two events, in the same order.
BY_FIRST_OF_TWO = PartitionField(n=2, blocks=((1, 3), (0, 2)))


class TestPartitionField:
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
            (2, ((0, "x"), (1, 2, 3)), "atom mask 'x' out of range for n=2"),
            (2, ((0, None), (1, 2, 3)), "atom mask None out of range for n=2"),
            (2, ((0, 1), (2, 3.5, None)), "atom mask 3.5 out of range for n=2"),
            # A bool standing in for atom 1: the block counts still cover all four.
            (2, ((0, True), (2, 3)), "atom mask True out of range for n=2"),
        ],
    )
    def test_each_check_keeps_its_message(self, n, blocks, message):
        with pytest.raises(ValueError) as caught:
            PartitionField(n=n, blocks=blocks)
        assert str(caught.value) == message

    FAULTS = {
        "bool": "atom mask ",
        "float": "atom mask ",
        "negative": "atom mask ",
        "too-large": "atom mask ",
        "duplicate-within": "appears in more than one block",
        "duplicate-across": "appears in more than one block",
        # An atom overwritten by another block's: the block sizes still sum to 2^n.
        "duplicate-for-missing": "appears in more than one block",
        "missing": "is missing",
        "empty": "is empty",
    }

    @staticmethod
    def _with_fault(rng, n, blocks, fault):
        """The blocks, shuffled within, with one fault of the named kind."""
        blocks = [rng.sample(block, len(block)) for block in blocks]
        block = rng.choice([b for b in blocks if len(b) > 1] if fault == "missing" else blocks)
        place = rng.randrange(len(block))
        if fault == "bool":
            block[place] = rng.choice([True, False])
        elif fault == "float":
            block[place] = float(block[place])
        elif fault == "negative":
            block[place] = -rng.randint(1, 1 << n)
        elif fault == "too-large":
            block[place] = rng.randint(1 << n, 2 << n)
        elif fault == "duplicate-within":
            block.insert(place, block[rng.randrange(len(block))])
        elif fault == "duplicate-across":
            other = rng.choice([b for b in blocks if b is not block])
            block.insert(place, rng.choice(other))
        elif fault == "duplicate-for-missing":
            block[place] = rng.choice(rng.choice([b for b in blocks if b is not block]))
        elif fault == "missing":
            del block[place]
        else:
            blocks.insert(rng.randrange(len(blocks) + 1), [])
        return blocks

    @pytest.mark.parametrize("wide", [False, True], ids=["byte-owners", "word-owners"])
    @pytest.mark.parametrize("fault", list(FAULTS))
    def test_a_fault_gets_the_reference_scans_message(self, fault, wide):
        """On seeded random partitions with one fault each, at both owner-table
        widths (under 256 blocks, and 256 or more), the whole-block checks
        raise what an atom-by-atom scan names."""
        rng = random.Random(f"conditional:faults:{fault}:{wide}")
        for _ in range(25):
            n = rng.randint(9, 10) if wide else rng.randint(2, 8)
            count = rng.randint(256, 300) if wide else rng.randint(2, min(1 << n, 255) - 1)
            labels = [rng.randrange(count) for _ in range(1 << n)]
            labels[:count] = range(count)  # every block gets an atom
            rng.shuffle(labels)
            blocks = [[] for _ in range(count)]
            for atom, label in enumerate(labels):
                blocks[label].append(atom)
            assert partition_fault(n, blocks) is None
            assert PartitionField(n=n, blocks=blocks).blocks == tuple(map(tuple, blocks))
            faulty = self._with_fault(rng, n, blocks, fault)
            expected = partition_fault(n, faulty)
            assert expected is not None and self.FAULTS[fault] in expected
            with pytest.raises(ValueError) as caught:
                PartitionField(n=n, blocks=faulty)
            assert str(caught.value) == expected

    def test_payload_round_trip(self, by_third_event):
        rebuilt = PartitionField.from_payload(by_third_event.to_payload(), n=3)
        assert rebuilt == by_third_event

    @pytest.mark.parametrize("atom", ["x", None])
    def test_payload_names_an_atom_that_is_not_a_number(self, atom):
        with pytest.raises(InputFormatError, match=f"^atom mask {atom!r} out of range for n=2$"):
            PartitionField.from_payload({"blocks": [[0, atom], [1, 2, 3]]}, n=2)

    def test_payload_rejects_bad_shapes(self):
        with pytest.raises(InputFormatError):
            PartitionField.from_payload([[0, 1]], n=1)
        with pytest.raises(InputFormatError):
            PartitionField.from_payload({"blocks": "everything"}, n=1)


def _scanned_blocks(system, partition):
    """The reference for ``block_systems``: each block's atoms found by a
    scan of its own masks, renormalized, for the blocks that carry mass."""
    blocks = []
    for index, block in enumerate(partition.blocks):
        scanned = {a: system.weights[a] for a in block if a in system.weights}
        if scanned:
            blocks.append((index, normalize(system.n, scanned)))
    return blocks


def _assert_same_blocks(got, expected):
    assert [index for index, _ in got] == [index for index, _ in expected]
    for (_, conditioned), (_, reference) in zip(got, expected):
        assert conditioned.exact == reference.exact
        assert conditioned.total == reference.total
        assert list(conditioned.weights.items()) == list(reference.weights.items())


class TestBlockSystem:
    def test_renormalizes_and_records_the_weight(self, fair3, by_third_event):
        conditioned = dict(block_systems(fair3, by_third_event))[0]
        assert conditioned.total == Fraction(1, 2)
        assert sum(conditioned.weights.values()) == 1
        assert set(conditioned.weights) == {4, 5, 6, 7}

    def test_massless_block_is_none(self):
        system = EventSystem(n=2, weights={0: Fraction(1)})
        blocks = list(block_systems(system, BY_FIRST_OF_TWO))
        assert [index for index, _ in blocks] == [1]

    def test_partition_must_match_the_system(self, fair3):
        with pytest.raises(ValueError, match="^partition is over n=2, system has n=3$"):
            list(block_systems(fair3, PartitionField(n=2, blocks=((0, 1, 2, 3),))))

    def test_blocks_match_a_scan_of_the_partition(self):
        rng = random.Random("conditional:blocks")
        for n in (2, 4, 6):
            for _ in range(3):
                exact = random_system(rng, n)
                partition = random_partition(rng, n, max_blocks=5)
                for system in (exact, floatize(exact)):
                    got = list(block_systems(system, partition))
                    _assert_same_blocks(got, _scanned_blocks(system, partition))

    def test_many_blocks(self):
        # 512 blocks: the owner table holds 4-byte block numbers.
        singletons = PartitionField(n=9, blocks=[(atom,) for atom in range(512)])
        exact = random_system(random.Random("conditional:many"), 9, max_support=200)
        for system in (exact, floatize(exact)):
            got = list(block_systems(system, singletons))
            _assert_same_blocks(got, _scanned_blocks(system, singletons))
        with pytest.raises(ValueError, match="atom 300 is missing"):
            PartitionField(n=9, blocks=[(atom,) for atom in range(512) if atom != 300])
        with pytest.raises(ValueError, match="atom 7 appears in more than one block"):
            PartitionField(n=9, blocks=[(atom,) for atom in range(512)] + [(7,)])


class TestConditionalMoments:
    def test_per_block_first_moments(self, fair3, by_third_event):
        values = {
            index: moment_set(conditioned, 0, 2).vector(()).values
            for index, conditioned in block_systems(fair3, by_third_event)
        }
        assert values[0] == (1, 2)
        assert values[1] == (1, 1)

    def test_zero_weight_blocks_are_dropped(self):
        system = EventSystem(n=2, weights={0: Fraction(1)})
        blocks = conditional_bound(system, BY_FIRST_OF_TWO, BoundRequest(r=1, d=0, ell=2))
        assert [block.index for block in blocks] == [1]
        assert blocks[0].weight == 1


class TestConditionalBound:
    def test_blockwise_certificates(self, fair3, by_third_event):
        request = BoundRequest(r=2, d=0, ell=2, side="upper", formula="u1")
        blocks = conditional_bound(fair3, by_third_event, request)
        assert [block.certificate.value for block in blocks] == [1, Fraction(1, 2)]
        assert all(block.weight == Fraction(1, 2) for block in blocks)

    def test_each_block_bounds_its_conditional_truth(self, fair3, by_third_event):
        request = BoundRequest(r=2, d=0, ell=2, side="upper", formula="u1")
        conditioned = dict(block_systems(fair3, by_third_event))
        for block in conditional_bound(fair3, by_third_event, request):
            truth = exact_occurrence(conditioned[block.index]).at_least(2)
            assert block.certificate.clamped >= truth

    def test_too_many_orders_is_not_applicable(self, fair3, by_third_event):
        # n - d + 1 = 4 moment positions at n = 3, d = 0.
        request = BoundRequest(r=1, d=0, ell=5)
        with pytest.raises(NotApplicableError, match="exceeds the 4 moment positions"):
            conditional_bound(fair3, by_third_event, request)
        with pytest.raises(NotApplicableError, match="exceeds the 4 moment positions"):
            bound_for_system(fair3, request)


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
        aggregate = expectation_aggregate(blocks, bound_for_system(fair3, request))
        if len({b.certificate.formula_id for b in blocks}) > 1:
            assert aggregate.formula_id == "mixed"
        assert aggregate.clamped >= exact_occurrence(fair3).at_least(2)

    def test_rejects_mixed_parameters(self, fair3, by_third_event):
        request = BoundRequest(r=2, d=0, ell=2, side="upper")
        upper = conditional_bound(fair3, by_third_event, request)
        lower = conditional_bound(
            fair3, by_third_event, BoundRequest(r=2, d=0, ell=2, side="lower")
        )
        with pytest.raises(ValueError, match="mixed block certificates"):
            expectation_aggregate((upper[0], lower[1]), bound_for_system(fair3, request))

    def test_rejects_a_mismatched_unconditional(self, fair3, by_third_event):
        request = BoundRequest(r=2, d=0, ell=2, side="upper")
        blocks = conditional_bound(fair3, by_third_event, request)
        other = bound_for_system(fair3, BoundRequest(r=1, d=0, ell=2, side="upper"))
        with pytest.raises(ValueError, match="same side, target"):
            expectation_aggregate(blocks, other)

    def test_rejects_an_empty_block_list(self, fair3):
        request = BoundRequest(r=2, d=0, ell=2, side="upper")
        with pytest.raises(ValueError, match="nothing to aggregate"):
            expectation_aggregate((), bound_for_system(fair3, request))

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


class TestSharpAggregation:
    def test_search_margin_is_never_negative(self):
        """The sharp bound is concave (upper) or convex (lower) in the
        moments, and the unconditional moments are the block-weighted mean
        of the block moments, so aggregating the sharp block bounds never
        loosens the sharp unconditional bound.  Exact, zero tolerance."""
        rng = random.Random("conditional:margin")
        margins = []
        for n in (n for n in range(2, 8) for _ in range(2)):
            system, partition = random_system(rng, n), random_partition(rng, n)
            for d, ell, side, target in itertools.product(range(n), (2, 3, 4), SIDES, TARGETS):
                if ell > n - d + 1:
                    continue
                for r in range(max(d, 1), n + 1):
                    request = BoundRequest(r, d, ell, side, target, formula="search")
                    blocks = conditional_bound(system, partition, request)
                    unconditional = bound_for_system(system, request)
                    margin = expectation_aggregate(blocks, unconditional).margin
                    assert margin >= 0, (n, request)
                    margins.append(margin)
        # Every request ran, and aggregation sometimes strictly sharpens.
        assert len(margins) == 2168 and any(margin > 0 for margin in margins)


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
