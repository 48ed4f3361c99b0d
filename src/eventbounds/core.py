"""Finite event systems and the exact enumeration oracle.

An event system is a nonnegative measure over the ``2**n`` atoms of ``n``
events ``A_1..A_n``.  Atoms are keyed by little-endian bitmask: bit ``k-1``
of the mask is set exactly when ``A_k`` occurs on that atom.  The number of
events occurring on an atom is therefore ``popcount(mask)``.

Everything downstream (moments, bounds, certificates) is checked against
the oracle functions here, which work by direct enumeration:

* :func:`exact_occurrence` -- the distribution of the occurrence count;
* :func:`exact_at_least`   -- probability that at least ``r`` events occur;
* :func:`exact_joint`      -- probability that exactly ``i`` events occur
  and all events of a given index tuple are among them.

All values are immutable after construction and all functions are pure, so
everything here is safe to evaluate concurrently without coordination.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import DegenerateMeasureError, InputFormatError
from .numerics import (
    DEFAULT_TOLERANCE,
    Number,
    all_exact,
    close,
    exactify,
    encode_number,
    over_common_denominator,
    rational,
    to_number,
    zero,
)

#: Hard cap on the number of events for explicit-atom systems (2**20 atoms).
#: Moment-only input (module ``moments``) is not subject to this cap.
MAX_EVENTS = 20


def binomial(u: int, v: int) -> int:
    """Binomial coefficient C(u, v); zero when v > u, one when v = 0."""
    if not isinstance(u, int) or not isinstance(v, int):
        raise ValueError(f"binomial arguments must be integers, got {u!r}, {v!r}")
    if u < 0 or v < 0:
        raise ValueError(f"binomial arguments must be nonnegative, got {u}, {v}")
    return math.comb(u, v)


def falling_factorial(u: int, v: int) -> int:
    """Falling factorial u(u-1)...(u-v+1); zero when v > u, one when v = 0."""
    if not isinstance(u, int) or not isinstance(v, int):
        raise ValueError(f"falling_factorial arguments must be integers, got {u!r}, {v!r}")
    if u < 0 or v < 0:
        raise ValueError(f"falling_factorial arguments must be nonnegative, got {u}, {v}")
    return math.perm(u, v)


@dataclass(frozen=True, order=True)
class IndexTuple:
    """A strictly increasing tuple of event indices (1-based).

    The empty tuple is allowed and denotes "no events pinned"; its order
    ``d`` is zero.  Index tuples are ordered lexicographically.
    """

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        indices = tuple(self.indices)
        object.__setattr__(self, "indices", indices)
        for value in indices:
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"index tuple entries must be integers >= 1, got {value!r}")
        if any(a >= b for a, b in zip(indices, indices[1:])):
            raise ValueError(f"index tuple must be strictly increasing, got {indices}")

    @classmethod
    def coerce(cls, value: "IndexTuple | Iterable[int]") -> "IndexTuple":
        if isinstance(value, IndexTuple):
            return value
        return cls(tuple(value))

    @property
    def d(self) -> int:
        return len(self.indices)

    @property
    def mask(self) -> int:
        """Bitmask with bit k-1 set for each member index k."""
        m = 0
        for k in self.indices:
            m |= 1 << (k - 1)
        return m

    def validate_for(self, n: int) -> None:
        if self.indices and self.indices[-1] > n:
            raise ValueError(f"index tuple {self.indices} exceeds event count n={n}")

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __repr__(self) -> str:
        return f"IndexTuple{self.indices}"


def enumerate_index_tuples(n: int, d: int) -> list[IndexTuple]:
    """All strictly increasing d-tuples over 1..n, in lexicographic order.

    There are C(n, d) of them; d=0 yields the single empty tuple.
    """
    if not isinstance(n, int) or not isinstance(d, int):
        raise ValueError("n and d must be integers")
    if n < 0 or d < 0 or d > n:
        raise ValueError(f"need 0 <= d <= n, got n={n}, d={d}")
    return [IndexTuple(combo) for combo in itertools.combinations(range(1, n + 1), d)]


class ExactWeights(Mapping):
    """Read-only view of exact atom weights: integer numerators over one denominator.

    Maps atom masks, in increasing order, to ``numerator / denominator`` as
    exact rationals.  The rationals are built on access and never stored,
    so a system of many atoms keeps only its integers.
    """

    __slots__ = ("_numerators", "_denominator")

    def __init__(self, numerators: Mapping[int, int], denominator: int) -> None:
        self._numerators = numerators
        self._denominator = denominator

    def __getitem__(self, mask: int) -> Number:
        return rational(self._numerators[mask], self._denominator)

    def __iter__(self) -> Iterator[int]:
        return iter(self._numerators)

    def __len__(self) -> int:
        return len(self._numerators)

    def __contains__(self, mask: object) -> bool:
        return mask in self._numerators

    def __repr__(self) -> str:
        return f"ExactWeights({len(self)} atoms over {self._denominator})"


def _exact_weights(n: int, numerators: Mapping[int, int], denominator: int) -> ExactWeights:
    """Checked, gcd-reduced, mask-ordered exact weights summing to one."""
    limit = 1 << n
    kept: dict[int, int] = {}
    for mask, numerator in numerators.items():
        if not isinstance(mask, int) or mask < 0 or mask >= limit:
            raise ValueError(f"atom mask {mask!r} out of range for n={n}")
        if numerator < 0:
            raise ValueError(f"negative weight {rational(numerator, denominator)!r} at atom {mask}")
        if numerator:
            kept[mask] = numerator
    if not kept:
        raise DegenerateMeasureError("measure has zero total mass")
    mass = sum(kept.values())
    if mass != denominator:
        raise ValueError(f"normalized weights must sum to 1, got {rational(mass, denominator)}")
    divisor = math.gcd(denominator, *kept.values())
    if divisor > 1:
        kept = {mask: numerator // divisor for mask, numerator in kept.items()}
        denominator //= divisor
    return ExactWeights(dict(sorted(kept.items())), denominator)


def _common_denominator(weights: Mapping[int, Number]) -> tuple[dict[int, int], int]:
    """Exact weights as integer numerators over the lcm of their denominators."""
    numerators, denominator = over_common_denominator(tuple(weights.values()))
    return dict(zip(weights, numerators)), denominator


@dataclass(frozen=True, repr=False)
class EventSystem:
    """A normalized measure over the atoms of n events.

    ``weights`` maps atom bitmasks to strictly positive normalized weights
    (atoms of weight zero are omitted); the weights sum to one.  ``total``
    records the mass the measure had before normalization, so bounds on the
    normalized system can be scaled back to the measure.

    An exact system stores its weights once, as integer numerators over one
    common denominator (:meth:`integerized`); ``weights`` is then a read-only
    :class:`ExactWeights` view that yields the rationals in mask order.
    Passing such a view in (as :func:`normalize` and block conditioning do)
    builds the system on integers alone.
    """

    n: int
    weights: Mapping[int, Number]
    total: Number = 1
    exact: bool = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"event count must be a positive integer, got {self.n!r}")
        if self.n > MAX_EVENTS:
            raise ValueError(
                f"n={self.n} exceeds the explicit-atom cap of {MAX_EVENTS} events; "
                "supply moments directly for larger systems"
            )
        exact_total = not isinstance(self.total, float)
        if isinstance(self.weights, ExactWeights) and exact_total:
            weights = _exact_weights(self.n, self.weights._numerators, self.weights._denominator)
        else:
            cleaned: dict[int, Number] = {}
            for mask, weight in self.weights.items():
                if not isinstance(mask, int) or mask < 0 or mask >= (1 << self.n):
                    raise ValueError(f"atom mask {mask!r} out of range for n={self.n}")
                if isinstance(weight, float):
                    if weight < -DEFAULT_TOLERANCE:
                        raise ValueError(f"negative weight {weight!r} at atom {mask}")
                    weight = max(weight, 0.0)
                elif weight < 0:
                    raise ValueError(f"negative weight {weight!r} at atom {mask}")
                if weight != 0:
                    cleaned[mask] = weight
            if not cleaned:
                raise DegenerateMeasureError("measure has zero total mass")
            if all_exact(cleaned.values()) and exact_total:
                weights = _exact_weights(self.n, *_common_denominator(cleaned))
            else:
                weights = MappingProxyType({mask: float(w) for mask, w in sorted(cleaned.items())})
                mass = sum(weights.values())
                if not close(mass, 1, DEFAULT_TOLERANCE):
                    raise ValueError(f"normalized weights must sum to 1, got {mass}")
        exact = isinstance(weights, ExactWeights)
        if (self.total <= 0) if exact else (float(self.total) <= 0.0):
            raise DegenerateMeasureError(f"total mass must be positive, got {self.total}")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "total", rational(self.total) if exact else float(self.total))
        object.__setattr__(self, "exact", exact)

    def __repr__(self) -> str:
        mode = "exact" if self.exact else "float"
        return f"EventSystem(n={self.n}, atoms={len(self.weights)}, {mode})"

    def denormalize(self, value: Number) -> Number:
        """Scale a probability of the normalized system back to the measure."""
        if isinstance(value, float) or not self.exact:
            return float(value) * float(self.total)
        return value * self.total

    def integerized(self) -> tuple[Mapping[int, int], int]:
        """Weights as integer numerators over their lowest common denominator.

        Only valid in exact mode.  Returns the stored integers, read-only
        and in mask order; their gcd with the denominator is one.
        """
        if not self.exact:
            raise ValueError("integerized() requires an exact-mode system")
        return MappingProxyType(self.weights._numerators), self.weights._denominator

    def to_payload(self) -> dict:
        return {
            "n": self.n,
            "weights": {str(mask): encode_number(w) for mask, w in self.weights.items()},
        }

    @classmethod
    def from_payload(cls, payload: object, force_exact: bool = False) -> "EventSystem":
        """Parse the event-system file format.

        ``{"n": int, "weights": {"<decimal mask>": number, ...}}`` with
        omitted masks meaning weight zero; an optional ``"normalize": true``
        requests division by the total mass.  ``force_exact`` converts float
        weights to the exact rationals their decimal text denotes.
        """
        if not isinstance(payload, dict):
            raise InputFormatError("event system payload must be a JSON object")
        try:
            n = payload["n"]
            raw = payload["weights"]
        except KeyError as exc:
            raise InputFormatError(f"event system payload missing key {exc}") from None
        if not isinstance(n, int) or isinstance(n, bool):
            raise InputFormatError(f'"n" must be an integer, got {n!r}')
        if not isinstance(raw, dict):
            raise InputFormatError('"weights" must be an object of mask -> weight')
        # Exact weights are kept as (numerator, denominator) pairs, float
        # weights as floats.
        weights: dict[int, object] = {}
        exact = True
        for key, value in raw.items():
            try:
                mask = int(key, 10) if isinstance(key, str) else int(key)
            except (TypeError, ValueError):
                raise InputFormatError(f"malformed mask key {key!r}") from None
            pair = _plain_ratio(value) if isinstance(value, str) else None
            if pair is None:
                try:
                    weight = to_number(value)
                except ValueError as exc:
                    raise InputFormatError(f"bad weight for mask {key!r}: {exc}") from None
                if force_exact:
                    weight = exactify(weight)
                if isinstance(weight, float):
                    exact = False
                    weights[mask] = weight
                    continue
                pair = int(weight.numerator), int(weight.denominator)
            weights[mask] = pair
        normalized = payload.get("normalize", False)
        try:
            if exact:
                denominator = math.lcm(*{b for _, b in weights.values()})
                numerators = {mask: a * (denominator // b) for mask, (a, b) in weights.items()}
                if normalized:
                    return _normalize_integers(n, numerators, denominator)
                return cls(n=n, weights=ExactWeights(numerators, denominator))
            numbers = {
                mask: w if isinstance(w, float) else rational(*w) for mask, w in weights.items()
            }
            if normalized:
                return _normalize_numbers(n, numbers)
            return cls(n=n, weights=numbers)
        except (ValueError, DegenerateMeasureError) as exc:
            raise InputFormatError(str(exc)) from None


def _plain_ratio(text: str) -> Optional[tuple[int, int]]:
    """(a, b) for a weight string "a" or "a/b" of ASCII digits with b != 0.

    Every other string returns None and is left to :func:`to_number`, which
    accepts or rejects it as ``Fraction`` does.
    """
    numerator, slash, denominator = text.partition("/")
    if not (numerator.isascii() and numerator.isdigit()):
        return None
    if not slash:
        return int(numerator), 1
    if not (denominator.isascii() and denominator.isdigit()):
        return None
    b = int(denominator)
    return (int(numerator), b) if b else None


def normalize(n: int, weights: Mapping[int, object]) -> EventSystem:
    """Build an :class:`EventSystem` by dividing weights by their total.

    The original total is recorded on the result, so bounds computed for
    the normalized system can be scaled back to the measure via
    :meth:`EventSystem.denormalize`.
    """
    return _normalize_numbers(n, {mask: to_number(w) for mask, w in weights.items()})


def _normalize_numbers(n: int, coerced: Mapping[int, Number]) -> EventSystem:
    """:func:`normalize` for weights already in package arithmetic.

    Exact weights are divided on integers: the numerators over the lcm of
    the denominators become the numerators of the normalized system, over
    their sum.
    """
    if all_exact(coerced.values()):
        return _normalize_integers(n, *_common_denominator(coerced))
    positive = {m: w for m, w in coerced.items() if float(w) > 0}
    if any(float(w) < -DEFAULT_TOLERANCE for w in coerced.values()):
        bad = [m for m, w in coerced.items() if float(w) < 0]
        raise ValueError(f"negative weight at atom {bad[0]}")
    if not positive:
        raise DegenerateMeasureError("cannot normalize a measure with zero total mass")
    ftotal = float(sum(positive.values()))
    scaled = {m: float(w) / ftotal for m, w in positive.items()}
    return EventSystem(n=n, weights=scaled, total=ftotal)


def _normalize_integers(n: int, numerators: Mapping[int, int], denominator: int) -> EventSystem:
    """Exact weights numerators/denominator divided by their total, on integers."""
    bad = next((m for m, w in numerators.items() if w < 0), None)
    if bad is not None:
        raise ValueError(f"negative weight at atom {bad}")
    positive = {m: w for m, w in numerators.items() if w}
    if not positive:
        raise DegenerateMeasureError("cannot normalize a measure with zero total mass")
    mass = sum(positive.values())
    return EventSystem(
        n=n, weights=ExactWeights(positive, mass), total=rational(mass, denominator)
    )


@dataclass(frozen=True)
class OccurrenceDistribution:
    """Distribution of the occurrence count: p[i] = P(exactly i events occur)."""

    p: tuple[Number, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", tuple(self.p))
        if not self.p:
            raise ValueError("occurrence distribution must have at least one entry")
        for value in self.p:
            if isinstance(value, float):
                if value < -DEFAULT_TOLERANCE:
                    raise ValueError(f"negative probability {value}")
            elif value < 0:
                raise ValueError(f"negative probability {value}")
        if not close(sum(self.p), 1, DEFAULT_TOLERANCE):
            raise ValueError(f"occurrence probabilities must sum to 1, got {sum(self.p)}")

    @property
    def n(self) -> int:
        return len(self.p) - 1

    def at_least(self, r: int) -> Number:
        """P(at least r events occur), for 0 <= r <= n."""
        if not isinstance(r, int) or r < 0 or r > self.n:
            raise ValueError(f"need 0 <= r <= {self.n}, got r={r!r}")
        return sum(self.p[r:])


def atom_masses(sys: EventSystem) -> tuple[Mapping[int, Number], int]:
    """Atom weights to sum over, and what to divide the sums by.

    The integer numerators and their common denominator in exact mode, so
    that sums over atoms are int sums; the float weights and 1 in float mode.
    """
    if sys.exact:
        return sys.integerized()
    return sys.weights, 1


def _probability(sys: EventSystem, total: Number, denominator: int) -> Number:
    """A sum over :func:`atom_masses` as a probability of the system."""
    return rational(total, denominator) if sys.exact else float(total)


def exact_occurrence(sys: EventSystem) -> OccurrenceDistribution:
    """Exact distribution of the occurrence count, by enumeration."""
    masses, denominator = atom_masses(sys)
    buckets: list[Number] = [0] * (sys.n + 1)
    for mask, mass in masses.items():
        buckets[mask.bit_count()] += mass
    return OccurrenceDistribution(tuple(_probability(sys, b, denominator) for b in buckets))


def exact_at_least(sys: EventSystem, r: int) -> Number:
    """Exact P(at least r of the n events occur), for 1 <= r <= n."""
    if not isinstance(r, int) or r < 1 or r > sys.n:
        raise ValueError(f"need 1 <= r <= {sys.n}, got r={r!r}")
    masses, denominator = atom_masses(sys)
    total: Number = 0
    for mask, mass in masses.items():
        if mask.bit_count() >= r:
            total += mass
    return _probability(sys, total, denominator)


def exact_joint(sys: EventSystem, i: int, j: "IndexTuple | Iterable[int]") -> Number:
    """Exact P(exactly i events occur, all events of j among them).

    Zero whenever i < d, since fewer events occur than j pins.
    """
    if not isinstance(i, int) or i < 0 or i > sys.n:
        raise ValueError(f"need 0 <= i <= {sys.n}, got i={i!r}")
    j = IndexTuple.coerce(j)
    j.validate_for(sys.n)
    jmask = j.mask
    masses, denominator = atom_masses(sys)
    total: Number = 0
    for mask, mass in masses.items():
        if mask.bit_count() == i and (mask & jmask) == jmask:
            total += mass
    return _probability(sys, total, denominator)


def permute_events(sys: EventSystem, permutation: Sequence[int]) -> EventSystem:
    """Relabel events: old index k becomes permutation[k-1].

    The occurrence distribution and every label-symmetric quantity are
    invariant under this operation.
    """
    if sorted(permutation) != list(range(1, sys.n + 1)):
        raise ValueError(f"not a permutation of 1..{sys.n}: {permutation!r}")
    remapped: dict[int, Number] = {}
    for mask, weight in sys.weights.items():
        new_mask = 0
        for k in range(1, sys.n + 1):
            if mask >> (k - 1) & 1:
                new_mask |= 1 << (permutation[k - 1] - 1)
        remapped[new_mask] = remapped.get(new_mask, zero(sys.exact)) + weight
    return EventSystem(n=sys.n, weights=remapped, total=sys.total)
