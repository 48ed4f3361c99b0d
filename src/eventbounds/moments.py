"""Binomial moments of the occurrence count, pinned on index tuples.

For an index tuple j of order d, the vector z(j) collects the occurrence
probabilities restricted to "all events of j occur", scaled so that the
moment matrix F with entries

    f[k, i] = C(i+d-1, k+d-1),   k = 1..ell,  i = 1..n-d+1

maps z(j) to the normalized binomial moments s(j):

    s_k(j) = (d! / (k+d-1)!) * E[ (count - d) falling (k-1) ; all of j occur ].

Three independent routes to s(j) are provided and tested for exact
agreement: through F and z(j) (:func:`moments_from_system`), through the
falling-factorial expectation above (:func:`moments_via_factorial`), and
through sums of plain intersection probabilities over unordered index
subsets (:func:`moments_via_subsets`).  :func:`moment_set` batches the
factorial route over all j with integer accumulators and is the fast path
used by the bound modules.

s_1(j) is the probability that all events of j occur; for d=0 it is 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .core import (
    EventSystem,
    IndexTuple,
    atom_masses,
    binomial,
    enumerate_index_tuples,
    exact_joint,
    exact_occurrence,
    falling_factorial,
)
from .errors import InputFormatError
from .numerics import (
    DEFAULT_TOLERANCE,
    Number,
    all_exact,
    close,
    dot_product,
    encode_number,
    over_common_denominator,
    rational,
    to_number,
)


@dataclass(frozen=True)
class MomentMatrix:
    """The binomial moment matrix F for parameters (n, d, ell).

    Rows are indexed by moment order k = 1..ell, columns by position
    i = 1..n-d+1.  The leading square block is unitriangular: entries vanish
    for k > i and the diagonal is all ones, so any leading subsystem is
    solvable.
    """

    n: int
    d: int
    ell: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        positions = self.n - self.d + 1
        if self.d < 0 or self.d > self.n:
            raise ValueError(f"need 0 <= d <= n, got n={self.n}, d={self.d}")
        if self.ell < 2 or self.ell > positions:
            raise ValueError(
                f"need 2 <= ell <= n-d+1 = {positions}, got ell={self.ell}"
            )
        object.__setattr__(self, "rows", tuple(tuple(row) for row in self.rows))
        if len(self.rows) != self.ell or any(len(row) != positions for row in self.rows):
            raise ValueError("moment matrix shape does not match (ell, n-d+1)")

    @property
    def positions(self) -> int:
        """Number of columns, n - d + 1."""
        return self.n - self.d + 1

    def entry(self, k: int, i: int) -> int:
        """Entry at row k, column i (both 1-based)."""
        return self.rows[k - 1][i - 1]

    def column(self, i: int) -> tuple[int, ...]:
        return tuple(row[i - 1] for row in self.rows)


def moment_matrix(n: int, d: int, ell: int) -> MomentMatrix:
    """Build the moment matrix with entries C(i+d-1, k+d-1)."""
    if d < 0 or d > n:
        raise ValueError(f"need 0 <= d <= n, got n={n}, d={d}")
    positions = n - d + 1
    if ell < 2 or ell > positions:
        raise ValueError(f"need 2 <= ell <= n-d+1 = {positions}, got ell={ell}")
    rows = tuple(
        tuple(binomial(i + d - 1, k + d - 1) for i in range(1, positions + 1))
        for k in range(1, ell + 1)
    )
    return MomentMatrix(n=n, d=d, ell=ell, rows=rows)


@dataclass(frozen=True)
class ZVector:
    """Occurrence probabilities pinned on j, scaled by 1/C(i+d-1, d).

    Entry i (1-based, i = 1..n-d+1) is P(exactly i+d-1 events occur and all
    of j occur) divided by C(i+d-1, d).  All entries are nonnegative, and
    for d >= 1 the occurrence levels below d carry no mass by definition.
    """

    j: IndexTuple
    n: int
    d: int
    entries: tuple[Number, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        if self.j.d != self.d:
            raise ValueError(f"index tuple order {self.j.d} does not match d={self.d}")
        if len(self.entries) != self.n - self.d + 1:
            raise ValueError("z vector length must be n-d+1")
        for value in self.entries:
            if isinstance(value, float):
                if value < -DEFAULT_TOLERANCE:
                    raise ValueError(f"negative z entry {value}")
            elif value < 0:
                raise ValueError(f"negative z entry {value}")


def z_vector(sys: EventSystem, j: IndexTuple | Iterable[int]) -> ZVector:
    """The z(j) vector of the system, by direct enumeration."""
    j = IndexTuple.coerce(j)
    j.validate_for(sys.n)
    d = j.d
    entries = tuple(
        exact_joint(sys, i + d - 1, j) / binomial(i + d - 1, d)
        for i in range(1, sys.n - d + 2)
    )
    return ZVector(j=j, n=sys.n, d=d, entries=entries)


def _level_sums(weights: Mapping[int, Number], n: int, d: int) -> dict[tuple[int, ...], list]:
    """Per index tuple of order d, the weight of its atoms at each occurrence level.

    ``table[j][i]`` sums the weights of the atoms with exactly i events
    that contain every event of j, for i = 0..n: one add per atom and
    d-subset of its events, atoms in the order of ``weights``.
    """
    table: dict[tuple[int, ...], list] = {
        t.indices: [0] * (n + 1) for t in enumerate_index_tuples(n, d)
    }
    if d == 0:
        levels = table[()]
        for mask, weight in weights.items():
            levels[mask.bit_count()] += weight
        return table
    for mask, weight in weights.items():
        count = mask.bit_count()
        if count < d:
            continue
        bits = [k for k, bit in enumerate(reversed(bin(mask)), 1) if bit == "1"]
        for combo in itertools.combinations(bits, d):
            table[combo][count] += weight
    return table


@dataclass(frozen=True)
class MomentVector:
    """The moments s_1(j)..s_ell(j) attached to one index tuple j."""

    j: IndexTuple
    n: int
    d: int
    ell: int
    values: tuple[Number, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if self.j.d != self.d:
            raise ValueError(f"index tuple order {self.j.d} does not match d={self.d}")
        self.j.validate_for(self.n)
        if self.ell != len(self.values):
            raise ValueError(f"expected {self.ell} moment values, got {len(self.values)}")
        for value in self.values:
            if isinstance(value, float):
                if value < -DEFAULT_TOLERANCE:
                    raise ValueError(f"negative moment {value}")
            elif value < 0:
                raise ValueError(f"negative moment {value}")
        s1 = self.values[0]
        if isinstance(s1, float):
            if s1 > 1.0 + DEFAULT_TOLERANCE:
                raise ValueError(f"s_1 = {s1} exceeds 1")
        elif s1 > 1:
            raise ValueError(f"s_1 = {s1} exceeds 1")

    @cached_property
    def exact(self) -> bool:
        """True when every value is an int or exact rational; found once."""
        return all_exact(self.values)

    def truncated(self, ell: int) -> "MomentVector":
        """The same moments cut down to the first ell orders."""
        if ell < 1 or ell > self.ell:
            raise ValueError(f"need 1 <= ell <= {self.ell}, got {ell}")
        return MomentVector(j=self.j, n=self.n, d=self.d, ell=ell, values=self.values[:ell])


def moments_from_system(sys: EventSystem, j: IndexTuple | Iterable[int], ell: int) -> MomentVector:
    """Moments of j computed as the moment matrix applied to z(j)."""
    j = IndexTuple.coerce(j)
    fmat = moment_matrix(sys.n, j.d, ell)
    z = z_vector(sys, j)
    values = tuple(dot_product(row, z.entries) for row in fmat.rows)
    return MomentVector(j=j, n=sys.n, d=j.d, ell=ell, values=values)


def moments_via_factorial(sys: EventSystem, j: IndexTuple | Iterable[int], ell: int) -> MomentVector:
    """Moments of j computed from falling-factorial expectations.

    s_k(j) = (d!/(k+d-1)!) * sum over atoms containing j of
    weight * (count - d) falling (k-1).
    """
    j = IndexTuple.coerce(j)
    j.validate_for(sys.n)
    d = j.d
    if ell < 2 or ell > sys.n - d + 1:
        raise ValueError(f"need 2 <= ell <= n-d+1 = {sys.n - d + 1}, got ell={ell}")
    jmask = j.mask
    weights, denominator = atom_masses(sys)
    sums = [0] * ell
    for mask, weight in weights.items():
        if (mask & jmask) != jmask:
            continue
        count = mask.bit_count()
        for k in range(ell):
            factor = falling_factorial(count - d, k)
            if factor:
                sums[k] += weight * factor
    dfact = math.factorial(d)
    if sys.exact:
        values = tuple(
            rational(sums[k] * dfact, math.factorial(k + d) * denominator) for k in range(ell)
        )
    else:
        values = tuple(float(sums[k]) * dfact / math.factorial(k + d) for k in range(ell))
    return MomentVector(j=j, n=sys.n, d=d, ell=ell, values=values)


def moments_via_subsets(sys: EventSystem, j: IndexTuple | Iterable[int], ell: int) -> MomentVector:
    """Moments of j as sums of intersection probabilities.

    The order-k moment is (k-1)! * d!/(k+d-1)! times the sum, over all
    unordered (k-1)-subsets U of indices outside j, of P(all events of
    U and of j occur).  Using unordered subsets with the (k-1)! factor
    avoids enumerating ordered tuples.
    """
    j = IndexTuple.coerce(j)
    j.validate_for(sys.n)
    d = j.d
    if ell < 2 or ell > sys.n - d + 1:
        raise ValueError(f"need 2 <= ell <= n-d+1 = {sys.n - d + 1}, got ell={ell}")
    jmask = j.mask
    others = [k for k in range(1, sys.n + 1) if not (jmask >> (k - 1) & 1)]
    weights, denominator = atom_masses(sys)
    values = []
    dfact = math.factorial(d)
    for k in range(1, ell + 1):
        total = 0
        for subset in itertools.combinations(others, k - 1):
            smask = jmask
            for index in subset:
                smask |= 1 << (index - 1)
            for mask, weight in weights.items():
                if (mask & smask) == smask:
                    total += weight
        if sys.exact:
            values.append(
                rational(
                    total * math.factorial(k - 1) * dfact,
                    math.factorial(k + d - 1) * denominator,
                )
            )
        else:
            scale = math.factorial(k - 1) * dfact / math.factorial(k + d - 1)
            values.append(float(total) * scale)
    return MomentVector(j=j, n=sys.n, d=d, ell=ell, values=tuple(values))


@dataclass(frozen=True)
class MomentSet:
    """The complete family of moment vectors over all index tuples of order d.

    This is what the bound modules consume.  It can come from an event
    system (:func:`moment_set`) or straight from a file
    (:meth:`MomentSet.from_payload`) when only intersection probabilities
    are known; in the latter case the event count is not capped.
    """

    n: int
    d: int
    ell: int
    vectors: tuple[MomentVector, ...]
    _integers: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vectors", tuple(self.vectors))
        expected = [t.indices for t in enumerate_index_tuples(self.n, self.d)]
        got = [v.j.indices for v in self.vectors]
        if got != expected:
            raise ValueError(
                "moment set must contain every index tuple of order d exactly once, "
                "in lexicographic order"
            )
        for vector in self.vectors:
            if (vector.n, vector.d) != (self.n, self.d) or vector.ell < self.ell:
                raise ValueError("moment vector parameters disagree with the set")

    @cached_property
    def exact(self) -> bool:
        """True when every vector is exact; found once, or known from the source."""
        return all(v.exact for v in self.vectors)

    def integerized(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """Exact moments as integer numerators over one common denominator.

        Only valid for an exact set.  Returns one row of ``ell`` numerators
        per index tuple, in the order of ``vectors``, and the positive
        denominator D they share: s_k(j) = rows[j][k-1] / D.  D need not be
        the least common denominator.  Built once: :func:`moment_set` hands
        over the integers it summed; other sets find D on first use.
        """
        if not self.exact:
            raise ValueError("integerized() requires an exact moment set")
        if self._integers is None:
            ell = self.ell
            flat, denominator = over_common_denominator(
                [x for v in self.vectors for x in v.values[:ell]]
            )
            rows = tuple(flat[k : k + ell] for k in range(0, len(flat), ell))
            object.__setattr__(self, "_integers", (rows, denominator))
        return self._integers

    def vector(self, j: IndexTuple | Iterable[int]) -> MomentVector:
        j = IndexTuple.coerce(j)
        for vector in self.vectors:
            if vector.j == j:
                return vector
        raise KeyError(f"no moment vector for {j!r}")

    def __iter__(self) -> Iterator[MomentVector]:
        return iter(self.vectors)

    def __len__(self) -> int:
        return len(self.vectors)

    def restricted(self, ell: int) -> "MomentSet":
        """The same set truncated to the first ell moment orders.

        An integer form already built is truncated along, over the same
        denominator.
        """
        restricted = MomentSet(
            n=self.n, d=self.d, ell=ell, vectors=tuple(v.truncated(ell) for v in self.vectors)
        )
        if self._integers is not None:
            rows, denominator = self._integers
            integers = (tuple(row[:ell] for row in rows), denominator)
            object.__setattr__(restricted, "_integers", integers)
            object.__setattr__(restricted, "exact", True)
        return restricted

    def to_payload(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "ell": self.ell,
            "s": [
                {"j": list(v.j.indices), "values": [encode_number(x) for x in v.values]}
                for v in self.vectors
            ],
        }

    @classmethod
    def from_payload(cls, payload: object) -> "MomentSet":
        """Parse the moment file format.

        ``{"n": int, "d": int, "ell": int, "s": [{"j": [ints],
        "values": [numbers]}, ...]}``.  Every index tuple of order d must
        appear exactly once; values must be nonnegative with s_1 <= 1, and
        each tuple's first min(ell, 3) orders must be those of some
        distribution (:func:`eventbounds.engine.check_realizable`; a
        necessary condition only at ell >= 4, and per tuple).
        """
        from .engine import check_realizable  # the engine imports this module
        if not isinstance(payload, dict):
            raise InputFormatError("moment payload must be a JSON object")
        try:
            n, d, ell, entries = payload["n"], payload["d"], payload["ell"], payload["s"]
        except KeyError as exc:
            raise InputFormatError(f"moment payload missing key {exc}") from None
        for name, value in (("n", n), ("d", d), ("ell", ell)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise InputFormatError(f'"{name}" must be an integer, got {value!r}')
        if not isinstance(entries, list):
            raise InputFormatError('"s" must be a list of moment records')
        vectors = []
        try:
            for record in entries:
                j = IndexTuple.coerce(record["j"])
                values = tuple(to_number(x) for x in record["values"])
                vectors.append(MomentVector(j=j, n=n, d=d, ell=ell, values=values))
            ordered = sorted(vectors, key=lambda v: v.j.indices)
            moments = cls(n=n, d=d, ell=ell, vectors=tuple(ordered))
        except (KeyError, TypeError) as exc:
            raise InputFormatError(f"malformed moment record: {exc}") from None
        except ValueError as exc:
            raise InputFormatError(str(exc)) from None
        check_realizable(moments)
        return moments


def moment_set(sys: EventSystem, d: int, ell: int) -> MomentSet:
    """All moment vectors of order d for the system, batched.

    Exact mode sums the integer numerators per index tuple and occurrence
    level (:func:`_level_sums`), then applies the falling factorials once
    per tuple and level; only the final values become rationals, and the
    set keeps the integers as its :meth:`MomentSet.integerized` form.  Float
    mode accumulates per atom and order.  Values agree exactly with
    :func:`moments_via_factorial` applied per index tuple.
    """
    if d < 0 or d > sys.n:
        raise ValueError(f"need 0 <= d <= n, got n={sys.n}, d={d}")
    if ell < 2 or ell > sys.n - d + 1:
        raise ValueError(f"need 2 <= ell <= n-d+1 = {sys.n - d + 1}, got ell={ell}")
    n = sys.n
    tuples = enumerate_index_tuples(n, d)
    dfact = math.factorial(d)
    if sys.exact:
        numerators, denominator = sys.integerized()
        table = _level_sums(numerators, n, d)
        # s_k = d! sum_i f_k(i) levels[i] / ((k+d)! den), over D = (ell-1+d)! den.
        top = math.factorial(ell - 1 + d)
        factors = [
            [(i, falling_factorial(i - d, k) * dfact * (top // math.factorial(k + d)))
             for i in range(d + k, n + 1)]
            for k in range(ell)
        ]
        common = top * denominator
        vectors, rows = [], []
        for t in tuples:
            levels = table[t.indices]
            row = tuple(sum(f * levels[i] for i, f in factors[k]) for k in range(ell))
            rows.append(row)
            values = tuple(rational(x, common) for x in row)
            vectors.append(MomentVector(j=t, n=n, d=d, ell=ell, values=values))
        moments = MomentSet(n=n, d=d, ell=ell, vectors=tuple(vectors))
        object.__setattr__(moments, "_integers", (tuple(rows), common))
        object.__setattr__(moments, "exact", True)
        return moments
    accumulators: dict[tuple[int, ...], list] = {t.indices: [0] * ell for t in tuples}
    factor_cache: dict[int, tuple[int, ...]] = {}
    for mask, weight in sys.weights.items():
        count = mask.bit_count()
        if count < d:
            continue
        factors = factor_cache.get(count)
        if factors is None:
            factors = tuple(falling_factorial(count - d, k) for k in range(ell))
            factor_cache[count] = factors
        bits = tuple(k for k in range(1, n + 1) if mask >> (k - 1) & 1)
        for combo in itertools.combinations(bits, d):
            row = accumulators[combo]
            for k in range(ell):
                if factors[k]:
                    row[k] += weight * factors[k]
    vectors = []
    for t in tuples:
        row = accumulators[t.indices]
        values = tuple(float(row[k]) * dfact / math.factorial(k + d) for k in range(ell))
        vectors.append(MomentVector(j=t, n=n, d=d, ell=ell, values=values))
    moments = MomentSet(n=n, d=d, ell=ell, vectors=tuple(vectors))
    object.__setattr__(moments, "exact", False)
    return moments


@dataclass(frozen=True)
class DecompositionReport:
    """Both sides of the order-d decomposition identities at level r.

    The "exactly" identity splits P(exactly r occur) into joint
    probabilities over index tuples, each divided by C(r, d); the
    "at least" identity does the same for every level i >= r with C(i, d).
    """

    r: int
    d: int
    exactly_direct: Number
    exactly_decomposed: Number
    at_least_direct: Number
    at_least_decomposed: Number
    matched: bool
    tolerance: float


def verify_decomposition(sys: EventSystem, r: int, d: int, tolerance: float = DEFAULT_TOLERANCE) -> DecompositionReport:
    """Check the order-d decomposition identities at level r against the oracle.

    Requires 0 <= d <= r <= n.  In exact mode the comparison is exact; in
    float mode it uses the given absolute tolerance.
    """
    if not (0 <= d <= r <= sys.n):
        raise ValueError(f"need 0 <= d <= r <= n, got d={d}, r={r}, n={sys.n}")
    occurrence = exact_occurrence(sys)
    exactly_direct = occurrence.p[r]
    at_least_direct = occurrence.at_least(r)
    # One pass over atoms accumulates p_{i,j} for every index tuple j of
    # order d and every occurrence level i, then the decomposed sides sum
    # over j.  The per-j accumulation is deliberate: summing per atom with
    # a combinatorial factor would assume the identity under test.
    weights, denominator = atom_masses(sys)
    joint = _level_sums(weights, sys.n, d)
    if sys.exact:
        exactly_decomposed = sum(
            (rational(levels[r], binomial(r, d) * denominator) for levels in joint.values()),
            rational(0),
        )
        at_least_decomposed = sum(
            (
                rational(levels[i], binomial(i, d) * denominator)
                for levels in joint.values()
                for i in range(r, sys.n + 1)
            ),
            rational(0),
        )
    else:
        exactly_decomposed = sum(
            float(levels[r]) / binomial(r, d) for levels in joint.values()
        )
        at_least_decomposed = sum(
            float(levels[i]) / binomial(i, d)
            for levels in joint.values()
            for i in range(r, sys.n + 1)
        )
    matched = close(exactly_direct, exactly_decomposed, tolerance) and close(
        at_least_direct, at_least_decomposed, tolerance
    )
    return DecompositionReport(
        r=r,
        d=d,
        exactly_direct=exactly_direct,
        exactly_decomposed=exactly_decomposed,
        at_least_direct=at_least_direct,
        at_least_decomposed=at_least_decomposed,
        matched=matched,
        tolerance=tolerance,
    )
