"""Finite event systems and the exact enumeration oracle.

An event system is a nonnegative measure over the ``2**n`` atoms of ``n``
events ``A_1..A_n``.  Atoms are keyed by little-endian bitmask: bit ``k-1``
of the mask is set exactly when ``A_k`` occurs on that atom.  The number of
events occurring on an atom is therefore ``popcount(mask)``.

Everything downstream (moments, bounds, certificates) is checked against
the oracle functions here, which work by direct enumeration:

* :func:`exact_occurrence` -- the distribution of the occurrence count, whose
  ``at_least(r)`` is the probability that at least ``r`` events occur;
* :func:`exact_joint`      -- probability that exactly ``i`` events occur
  and all events of a given index tuple are among them.

All values are immutable after construction and all functions are pure, so
everything here is safe to evaluate concurrently without coordination.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional

from .certificates import TARGET_AT_LEAST
from .errors import DegenerateMeasureError, InputFormatError
from .numerics import (
    Number,
    all_exact,
    close,
    encode_number,
    leq,
    over_common_denominator,
    rational,
    to_number,
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


def index_tuple_indices(n: int, d: int) -> Iterator[tuple[int, ...]]:
    """All index tuples of order d over events 1..n: the C(n, d) strictly
    increasing tuples of ints, in lexicographic order; d = 0 yields ``()``."""
    if not isinstance(n, int) or not isinstance(d, int):
        raise ValueError("n and d must be integers")
    if n < 0 or d < 0 or d > n:
        raise ValueError(f"need 0 <= d <= n, got n={n}, d={d}")
    return itertools.combinations(range(1, n + 1), d)


class ExactWeights(Mapping):
    """Read-only view of exact atom weights: integer numerators over one denominator.

    Maps atom masks, in increasing order, to ``numerator / denominator`` as
    exact rationals.  The rationals are built on access and never stored,
    so a system of many atoms keeps only its integers.  Only ``_exact_weights``
    builds one, after every check, so a view is trusted by its type.
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


def _exact_weights(
    n: int, numerators: Mapping[int, int], denominator: int, normalize: bool = False
) -> tuple[ExactWeights, Number]:
    """Checked, gcd-reduced, mask-ordered exact weights and their total mass: the
    numerators over ``denominator`` sum to one, or ``normalize`` divides by their sum."""
    limit = _atom_count(n)
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
    total = rational(mass, denominator)
    if mass != denominator and not normalize:
        raise ValueError(f"normalized weights must sum to 1, got {total}")
    divisor = math.gcd(mass, *kept.values())
    reduced = {mask: kept[mask] // divisor for mask in sorted(kept)}
    return ExactWeights(reduced, mass // divisor), total


def _atom_count(n: int) -> int:
    """2**n, for an event count n within the explicit-atom cap."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"event count must be a positive integer, got {n!r}")
    if n > MAX_EVENTS:
        raise ValueError(
            f"n={n} exceeds the explicit-atom cap of {MAX_EVENTS} events; "
            "supply moments directly for larger systems"
        )
    return 1 << n


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
    :class:`ExactWeights` view that yields the rationals in mask order.  A
    view passed in with an exact ``total`` whose masks fit n is trusted, as
    only ``_exact_weights`` builds one; other exact weights are built by it.
    """

    n: int
    weights: Mapping[int, Number]
    total: Number = 1
    exact: bool = field(init=False)

    def __post_init__(self) -> None:
        atoms, weights = _atom_count(self.n), self.weights
        exact_total = not isinstance(self.total, float)
        trusted = exact_total and isinstance(weights, ExactWeights) and max(weights) < atoms
        if exact_total and not trusted and all_exact(weights.values()):
            weights = _exact_weights(self.n, *_common_denominator(weights))[0]
        elif not trusted:
            cleaned: dict[int, Number] = {}
            for mask, weight in self.weights.items():
                if not isinstance(mask, int) or mask < 0 or mask >= atoms:
                    raise ValueError(f"atom mask {mask!r} out of range for n={self.n}")
                _check_weight(mask, weight)
                if weight > 0:
                    cleaned[mask] = weight
            if not cleaned:
                raise DegenerateMeasureError("measure has zero total mass")
            weights = MappingProxyType({mask: float(w) for mask, w in sorted(cleaned.items())})
            mass = sum(weights.values())
            if not close(mass, 1):
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
    def from_payload(cls, payload: object) -> "EventSystem":
        """Parse the event-system file format.

        ``{"n": int, "weights": {"<decimal mask>": number, ...}}`` with
        omitted masks meaning weight zero; an optional ``"normalize": true``
        requests division by the total mass.

        A file whose weights are all strings ``"a"`` or ``"a/b"`` of ASCII
        digits with b != 0, whose keys read with ``int`` as distinct masks
        and whose ``"normalize"`` is a bool is parsed in bulk by
        :func:`_plain_ratios`.  Every other file takes the per-weight loop,
        which reads each weight with :func:`to_number` and alone raises the
        format errors.  Both routes end in :func:`_exact_weights` (or the
        float checks), so they give the same system and the same errors.
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
        normalized = payload.get("normalize", False)
        plain = _plain_ratios(raw) if isinstance(normalized, bool) else None
        if plain is None:
            weights: dict[int, Number] = {}
            for key, value in raw.items():
                try:
                    mask = int(key, 10) if isinstance(key, str) else int(key)
                except (TypeError, ValueError):
                    raise InputFormatError(f"malformed mask key {key!r}") from None
                try:
                    weights[mask] = to_number(value)
                except ValueError as exc:
                    raise InputFormatError(f"bad weight for mask {key!r}: {exc}") from None
            if len(weights) < len(raw):  # two spellings of one mask, such as "1" and "01"
                first: dict[int, object] = {}
                for key in raw:
                    mask = int(key, 10) if isinstance(key, str) else int(key)
                    if first.setdefault(mask, key) != key:
                        raise InputFormatError(
                            f"keys {first[mask]!r} and {key!r} both name atom {mask}"
                        )
            if not isinstance(normalized, bool):
                raise InputFormatError(f'"normalize" must be true or false, got {normalized!r}')
        try:
            if plain is not None:
                return cls(n, *_exact_weights(n, *plain, normalized))
            return normalize(n, weights) if normalized else cls(n=n, weights=weights)
        except (ValueError, DegenerateMeasureError) as exc:
            raise InputFormatError(str(exc)) from None


#: Comma-joined weight strings "a" or "a/b" of ASCII digits.
_PLAIN_RATIOS = re.compile(r"[0-9]+(?:/[0-9]+)?(?:,[0-9]+(?:/[0-9]+)?)*")


def _plain_ratios(raw: Mapping[object, object]) -> Optional[tuple[dict[int, int], int]]:
    """Integer numerators per mask over the lcm of the denominators, when every
    value is a string "a" or "a/b" of ASCII digits with b != 0 and every key
    reads with ``int`` as a distinct mask; None for any other file.

    The passes run in C: one join, one regex match, one split read by
    ``map(int, ...)``.  Only the per-weight loop of ``from_payload`` raises.
    """
    try:
        text = ",".join(raw.values())
        masks = list(map(int, raw))
    except (TypeError, ValueError, OverflowError):
        return None
    if text.count(",") != len(raw) - 1 or not _PLAIN_RATIOS.fullmatch(text):
        return None  # a value holding a comma, or one that is not a plain ratio
    if len(set(masks)) < len(masks):
        return None
    if text.count("/") < len(raw):
        text = ",".join(v if "/" in v else v + "/1" for v in raw.values())
    try:
        numbers = list(map(int, text.replace("/", ",").split(",")))
    except ValueError:  # more digits than int() reads
        return None
    numerators, denominators = numbers[::2], numbers[1::2]
    if 0 in denominators:
        return None
    denominator = math.lcm(*set(denominators))
    scales = map(operator.floordiv, itertools.repeat(denominator), denominators)
    return dict(zip(masks, map(operator.mul, numerators, scales))), denominator


def _check_weight(mask: int, weight: Number) -> None:
    """Reject a non-finite float weight, then a negative weight."""
    if isinstance(weight, float) and not math.isfinite(weight):
        raise ValueError(f"weight {weight!r} at atom {mask} is not finite")
    if not leq(0, weight):
        raise ValueError(f"negative weight {weight!r} at atom {mask}")


def normalize(n: int, weights: Mapping[int, object]) -> EventSystem:
    """Build an :class:`EventSystem` by dividing weights by their total.

    The original total is recorded on the result, so bounds computed for
    the normalized system can be scaled back to the measure via
    :meth:`EventSystem.denormalize`.
    """
    coerced = {mask: to_number(w) for mask, w in weights.items()}
    if all_exact(coerced.values()):
        return EventSystem(n, *_exact_weights(n, *_common_denominator(coerced), normalize=True))
    for mask, weight in coerced.items():
        _check_weight(mask, weight)
    positive = {m: w for m, w in coerced.items() if float(w) > 0}
    if not positive:
        raise DegenerateMeasureError("cannot normalize a measure with zero total mass")
    ftotal = float(sum(positive.values()))
    if math.isinf(ftotal):
        raise ValueError("the weights' total mass overflows a float")
    scaled = {m: float(w) / ftotal for m, w in positive.items()}
    return EventSystem(n=n, weights=scaled, total=ftotal)


@dataclass(frozen=True)
class OccurrenceDistribution:
    """Distribution of the occurrence count: p[i] = P(exactly i events occur)."""

    p: tuple[Number, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", tuple(self.p))
        if not self.p:
            raise ValueError("occurrence distribution must have at least one entry")
        for value in self.p:
            if not leq(0, value):
                raise ValueError(f"negative probability {value}")
        if not close(sum(self.p), 1):
            raise ValueError(f"occurrence probabilities must sum to 1, got {sum(self.p)}")

    @property
    def n(self) -> int:
        return len(self.p) - 1

    def at_least(self, r: int) -> Number:
        """P(at least r events occur), for 0 <= r <= n."""
        if not isinstance(r, int) or r < 0 or r > self.n:
            raise ValueError(f"need 0 <= r <= {self.n}, got r={r!r}")
        return sum(self.p[r:])

    def probability(self, r: int, target: str) -> Number:
        """P(at least r events occur), or P(exactly r) for the exactly target."""
        return self.at_least(r) if target == TARGET_AT_LEAST else self.p[r]


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


def exact_joint(sys: EventSystem, i: int, j: Iterable[int]) -> Number:
    """Exact P(exactly i events occur, all events of j among them).

    Zero whenever i < d, since fewer events occur than j pins.
    """
    if not isinstance(i, int) or i < 0 or i > sys.n:
        raise ValueError(f"need 0 <= i <= {sys.n}, got i={i!r}")
    jmask = event_mask(j, sys.n)
    masses, denominator = atom_masses(sys)
    total: Number = 0
    for mask, mass in masses.items():
        if mask.bit_count() == i and (mask & jmask) == jmask:
            total += mass
    return _probability(sys, total, denominator)


def event_mask(j: Iterable[int], n: int) -> int:
    """The atom mask with bit k-1 set for each event k of index tuple j, all in 1..n."""
    mask = 0
    for k in j:
        if not 1 <= k <= n:
            raise ValueError(f"index tuple entry {k!r} is outside events 1..{n}")
        mask |= 1 << (k - 1)
    return mask
