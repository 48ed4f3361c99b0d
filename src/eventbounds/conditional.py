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

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .certificates import BoundCertificate, BoundRequest
from .core import EventSystem, ExactWeights, normalize
from .dispatch import evaluate_request
from .errors import DegenerateMeasureError, InputFormatError
from .moments import MomentSet, moment_set
from .numerics import (
    DEFAULT_TOLERANCE,
    Number,
    clamp01,
    difference,
    dot_product,
    encode_number,
    rational,
)


@dataclass(frozen=True)
class PartitionField:
    """A partition of the 2^n atoms, one block per tuple of atom masks."""

    n: int
    blocks: tuple[tuple[int, ...], ...]
    #: Per atom mask, one plus the index of its block.
    _owner: bytearray | memoryview = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"event count must be a positive integer, got {self.n!r}")
        blocks = tuple(tuple(sorted(block)) for block in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise ValueError("a partition needs at least one block")
        size = 1 << self.n
        owner = bytearray(size) if len(blocks) < 256 else memoryview(bytearray(4 * size)).cast("I")
        for index, block in enumerate(blocks, 1):
            if not block:
                raise ValueError(f"block {index - 1} is empty")
            for atom in block:
                if not isinstance(atom, int) or atom < 0 or atom >= size:
                    raise ValueError(f"atom mask {atom!r} out of range for n={self.n}")
                if owner[atom]:
                    raise ValueError(f"atom {atom} appears in more than one block")
                owner[atom] = index
        # The atoms are distinct and in range, so they cover all when they are 2^n.
        if sum(map(len, blocks)) < size:
            missing = next(atom for atom in range(size) if not owner[atom])
            raise ValueError(f"blocks do not cover all atoms; atom {missing} is missing")
        object.__setattr__(self, "_owner", owner)

    @classmethod
    def trivial(cls, n: int) -> "PartitionField":
        return cls(n=n, blocks=(tuple(range(1 << n)),))

    @classmethod
    def from_event(cls, n: int, k: int) -> "PartitionField":
        """The two-block partition generated by event k (1-based)."""
        if not (1 <= k <= n):
            raise ValueError(f"event index must be in 1..{n}, got {k}")
        bit = 1 << (k - 1)
        inside = tuple(a for a in range(1 << n) if a & bit)
        outside = tuple(a for a in range(1 << n) if not a & bit)
        return cls(n=n, blocks=(inside, outside))

    def block_of(self, atom: int) -> int:
        if isinstance(atom, int) and 0 <= atom < len(self._owner):
            return self._owner[atom] - 1
        raise ValueError(f"atom {atom!r} is not in the partition")

    def restrict(self, masses: Mapping[int, Number], index: int) -> dict[int, Number]:
        """The entries of ``masses`` whose atoms lie in block ``index``, in order."""
        owner, label = self._owner, range(len(self.blocks))[index] + 1
        return {atom: mass for atom, mass in masses.items() if owner[atom] == label}

    def to_payload(self) -> dict:
        return {"blocks": [list(block) for block in self.blocks]}

    @classmethod
    def from_payload(cls, payload: object, n: Optional[int] = None) -> "PartitionField":
        """Parse ``{"blocks": [[atom masks], ...]}``.

        The event count is inferred from the atom count (which must be a
        power of two) unless given.
        """
        if not isinstance(payload, dict):
            raise InputFormatError("partition payload must be a JSON object")
        raw = payload.get("blocks")
        if not isinstance(raw, list) or not all(isinstance(b, list) for b in raw):
            raise InputFormatError('"blocks" must be a list of lists of atom masks')
        atoms = sum(len(b) for b in raw)
        if n is None:
            if atoms < 2 or atoms & (atoms - 1):
                raise InputFormatError(
                    f"{atoms} atoms do not form a full atom space of any n"
                )
            n = atoms.bit_length() - 1
        try:
            return cls(n=n, blocks=tuple(raw))
        except ValueError as exc:
            raise InputFormatError(str(exc)) from None


def block_system(sys: EventSystem, partition: PartitionField, index: int) -> Optional[EventSystem]:
    """The renormalized restriction of the system to one block.

    Its ``total`` is the block's weight.  An exact system is restricted on
    its integer numerators: the block's numerators over their sum.
    Returns None when the block carries no mass.
    """
    if partition.n != sys.n:
        raise ValueError(f"partition is over n={partition.n}, system has n={sys.n}")
    if not sys.exact:
        restricted = partition.restrict(sys.weights, index)
        return normalize(sys.n, restricted) if restricted else None
    numerators, denominator = sys.integerized()
    restricted = partition.restrict(numerators, index)
    if not restricted:
        return None
    mass = sum(restricted.values())
    return EventSystem(
        n=sys.n, weights=ExactWeights(restricted, mass), total=rational(mass, denominator)
    )


@dataclass(frozen=True)
class BlockMoments:
    """One positive-weight block: its weight, conditional system, moments."""

    index: int
    weight: Number
    system: EventSystem
    moments: MomentSet


@dataclass(frozen=True)
class ConditionalMomentSet:
    """Per-block conditional moment sets for one pair (d, ell)."""

    n: int
    d: int
    ell: int
    partition: PartitionField
    blocks: tuple[BlockMoments, ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise DegenerateMeasureError("no block carries positive mass")

    def __iter__(self):
        return iter(self.blocks)


def conditional_moments(
    sys: EventSystem, partition: PartitionField, d: int, ell: int
) -> ConditionalMomentSet:
    """Binomial moments of each block-conditional measure.

    A block's conditional measure is its restriction divided by its
    weight; zero-weight blocks are excluded.
    """
    if partition.n != sys.n:
        raise ValueError(f"partition is over n={partition.n}, system has n={sys.n}")
    blocks = []
    for index in range(len(partition.blocks)):
        conditioned = block_system(sys, partition, index)
        if conditioned is None:
            continue
        weight = conditioned.total
        blocks.append(
            BlockMoments(
                index=index,
                weight=weight,
                system=conditioned,
                moments=moment_set(conditioned, d, ell),
            )
        )
    return ConditionalMomentSet(
        n=sys.n, d=d, ell=ell, partition=partition, blocks=tuple(blocks)
    )


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
    sys: EventSystem,
    partition: PartitionField,
    request: BoundRequest,
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[BlockBound, ...]:
    """Evaluate one request on every positive-weight block.

    Window positions are chosen per block and per index tuple, so they
    vary with the conditioning.  Applicability depends only on (n, r, d),
    hence is uniform across blocks.
    """
    conditioned = conditional_moments(sys, partition, request.d, request.ell)
    return tuple(
        BlockBound(
            index=block.index,
            weight=block.weight,
            certificate=evaluate_request(block.moments, request, tolerance),
        )
        for block in conditioned
    )


@dataclass(frozen=True)
class AggregatedBound:
    """Weight-averaged per-block bounds, valid unconditionally.

    Taking expectations preserves each block inequality, so the average
    of the clamped block values bounds the unconditional probability from
    the same side.  When the unconditional certificate is attached,
    ``margin`` is how much the aggregation sharpened it (nonnegative
    means at least as tight); the sharpening is possible, not guaranteed.
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
        payload = {
            "value": encode_number(self.value),
            "clamped": encode_number(self.clamped),
            "side": self.side,
            "target": self.target,
            "r": self.r,
            "d": self.d,
            "ell": self.ell,
            "formula": self.formula_id,
            "blocks": [block.to_payload() for block in self.blocks],
        }
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
    for block in blocks[1:]:
        cert = block.certificate
        if (cert.side, cert.target, cert.r, cert.d, cert.ell) != (
            first.side,
            first.target,
            first.r,
            first.d,
            first.ell,
        ):
            raise ValueError(
                "mixed block certificates: aggregation needs one side, target, r, d, ell"
            )
    weights = [block.weight for block in blocks]
    values = [block.certificate.clamped for block in blocks]
    value = dot_product(weights, values)
    formula_ids = {block.certificate.formula_id for block in blocks}
    formula_id = formula_ids.pop() if len(formula_ids) == 1 else "mixed"
    margin = None
    if unconditional is not None:
        if (unconditional.side, unconditional.target, unconditional.r, unconditional.d) != (
            first.side,
            first.target,
            first.r,
            first.d,
        ):
            raise ValueError(
                "the unconditional certificate must answer the same side, target, r, d"
            )
        if first.side == "upper":
            margin = difference(unconditional.clamped, value)
        else:
            margin = difference(value, unconditional.clamped)
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
