"""Bounds conditioned on a finite partition of the atom space.

On a finite probability space every sub-sigma-field is generated by a
partition of the atoms, so conditioning is blockwise renormalization:
each positive-weight block becomes its own event system, every bound
holds per block, and averaging the per-block clamped bounds by block
weight yields a bound on the unconditional probability that is sometimes
strictly sharper than the same formula applied unconditionally.  Blocks
of weight zero are skipped; validity "almost surely" becomes validity on
every positive-weight block.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .certificates import BoundCertificate, BoundRequest, header_payload
from .core import EventSystem, _atom_count, _exact_weights, atom_masses, normalize
from .dispatch import evaluate_request
from .errors import InputFormatError
from .moments import moment_set
from .numerics import Number, clamp01, dot_product, encode_number


def _first_fault(n: int, blocks: tuple[tuple[int, ...], ...]) -> str:
    """The first fault of sorted blocks over n events, found atom by atom in
    block order: an empty block, an atom that is not an int mask below 2^n,
    an atom already seen, or else the least atom no block holds."""
    seen = bytearray(1 << n)
    for index, block in enumerate(blocks):
        if not block:
            return f"block {index} is empty"
        for atom in block:
            if type(atom) is not int or atom < 0 or atom >= len(seen):
                return f"atom mask {atom!r} out of range for n={n}"
            if seen[atom]:
                return f"atom {atom} appears in more than one block"
            seen[atom] = 1
    return f"blocks do not cover all atoms; atom {seen.index(0)} is missing"


@dataclass(frozen=True)
class PartitionField:
    """A partition of the 2^n atoms, one block per tuple of atom masks."""

    n: int
    blocks: tuple[tuple[int, ...], ...]
    #: Per atom mask, one plus the index of its block.
    _owner: bytearray | memoryview = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        size = _atom_count(self.n)
        try:
            blocks = tuple(tuple(sorted(block)) for block in self.blocks)
        except TypeError:  # an atom that does not compare with the others' ints
            atom = next(a for block in self.blocks for a in block if type(a) is not int)
            raise ValueError(f"atom mask {atom!r} out of range for n={self.n}") from None
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise ValueError("a partition needs at least one block")
        # Whole-block passes in C: int atoms, in range by each sorted block's ends.
        if not all(
            block
            and operator.countOf(map(type, block), int) == len(block)
            and block[0] >= 0
            and block[-1] < size
            for block in blocks
        ):
            raise ValueError(_first_fault(self.n, blocks))
        owner = bytearray(size) if len(blocks) < 256 else memoryview(bytearray(4 * size)).cast("I")
        for index, block in enumerate(blocks, 1):
            for atom in block:
                owner[atom] = index
        # In-range atoms that number 2^n and leave no mask unowned are distinct and cover all.
        if sum(map(len, blocks)) != size or 0 in owner:
            raise ValueError(_first_fault(self.n, blocks))
        object.__setattr__(self, "_owner", owner)

    def to_payload(self) -> dict:
        return {"blocks": [list(block) for block in self.blocks]}

    @classmethod
    def from_payload(cls, payload: object, n: int) -> "PartitionField":
        """Parse ``{"blocks": [[atom masks], ...]}`` over n events."""
        if not isinstance(payload, dict):
            raise InputFormatError("partition payload must be a JSON object")
        raw = payload.get("blocks")
        if not isinstance(raw, list) or not all(isinstance(b, list) for b in raw):
            raise InputFormatError('"blocks" must be a list of lists of atom masks')
        try:
            return cls(n=n, blocks=tuple(raw))
        except ValueError as exc:
            raise InputFormatError(str(exc)) from None


def block_systems(
    sys: EventSystem, partition: PartitionField
) -> Iterator[tuple[int, EventSystem]]:
    """Each positive-weight block's index and renormalized system, in block order.

    One pass over the system's atoms groups them by block, through the
    partition's owner table and in mask order; the block systems are then
    built one at a time.  A block system's ``total`` is the block's
    weight.  An exact system is restricted on its integer numerators: the
    block's numerators over their sum.
    """
    if partition.n != sys.n:
        raise ValueError(f"partition is over n={partition.n}, system has n={sys.n}")
    masses, denominator = atom_masses(sys)
    owner, groups = partition._owner, {}
    for atom, mass in masses.items():
        groups.setdefault(owner[atom], {})[atom] = mass
    for label in sorted(groups):
        group = groups.pop(label)
        if sys.exact:
            weights = _exact_weights(sys.n, group, denominator, normalize=True)
            yield label - 1, EventSystem(sys.n, *weights)
        else:
            yield label - 1, normalize(sys.n, group)


@dataclass(frozen=True)
class BlockBound:
    """A certificate valid for one block's conditional probability."""

    index: int
    weight: Number
    certificate: BoundCertificate

    def to_payload(self) -> dict:
        return {
            "block": self.index,
            "weight": encode_number(self.weight),
            "certificate": self.certificate.to_payload(),
        }


def conditional_bound(
    sys: EventSystem, partition: PartitionField, request: BoundRequest
) -> tuple[BlockBound, ...]:
    """Evaluate one request on every positive-weight block.

    Window positions are chosen per block and per index tuple, so they
    vary with the conditioning.  Applicability depends only on (n, r, d),
    hence is uniform across blocks.
    """
    request.check(sys.n)
    blocks = []
    for index, conditioned in block_systems(sys, partition):
        moments = moment_set(conditioned, request.d, request.ell)
        blocks.append(BlockBound(index, conditioned.total, evaluate_request(moments, request)))
    return tuple(blocks)


@dataclass(frozen=True)
class AggregatedBound:
    """Weight-averaged per-block bounds, valid unconditionally.

    Taking expectations preserves each block inequality, so the average
    of the clamped block values bounds the unconditional probability from
    the same side.  When the unconditional certificate is attached,
    ``margin`` is how much the aggregation sharpened it (nonnegative
    means at least as tight).  On exact moments it is never negative.
    Every bound is the least (upper) or greatest (lower) of functions
    linear in the moments, one per choice of a dual-feasible basis per
    index tuple, and which bases are dual feasible depends on the shape
    alone (the closed forms' families and windows, the search's index
    sets).  So an upper bound is concave in the moments, a lower one
    convex, clamping a valid bound keeps that, and the unconditional
    moments are the block-weighted mean of the block moments.
    """

    value: Number
    clamped: Number
    side: str
    target: str
    r: int
    d: int
    ell: int
    formula_id: str
    blocks: tuple[BlockBound, ...]
    unconditional: Optional[BoundCertificate] = None
    margin: Optional[Number] = None

    def to_payload(self) -> dict:
        payload = header_payload(self)
        payload["blocks"] = [block.to_payload() for block in self.blocks]
        if self.unconditional is not None:
            payload["unconditional"] = self.unconditional.to_payload()
        if self.margin is not None:
            payload["margin"] = encode_number(self.margin)
        return payload


def expectation_aggregate(
    block_bounds: tuple[BlockBound, ...] | list[BlockBound],
    unconditional: Optional[BoundCertificate] = None,
) -> AggregatedBound:
    """Average per-block clamped bounds by block weight.

    All blocks must carry the same side, target and parameters.  The
    positive-weight blocks carry the whole mass, so the weights sum to
    one and the average is a convex combination.
    """
    blocks = tuple(block_bounds)
    if not blocks:
        raise ValueError("nothing to aggregate: no block bounds given")
    first = blocks[0].certificate
    request = operator.attrgetter("side", "target", "r", "d", "ell")
    if any(request(block.certificate) != request(first) for block in blocks[1:]):
        raise ValueError("mixed block certificates: aggregation needs one side, target, r, d, ell")
    weights = [block.weight for block in blocks]
    values = [block.certificate.clamped for block in blocks]
    value = dot_product(weights, values)
    formula_ids = {block.certificate.formula_id for block in blocks}
    formula_id = formula_ids.pop() if len(formula_ids) == 1 else "mixed"
    margin = None
    if unconditional is not None:
        if request(unconditional)[:4] != request(first)[:4]:
            raise ValueError("the unconditional certificate must answer the same side, target, r, d")
        if first.side == "upper":
            margin = unconditional.clamped - value
        else:
            margin = value - unconditional.clamped
    return AggregatedBound(
        value=value,
        clamped=clamp01(value),
        side=first.side,
        target=first.target,
        r=first.r,
        d=first.d,
        ell=first.ell,
        formula_id=formula_id,
        blocks=blocks,
        unconditional=unconditional,
        margin=margin,
    )
