"""Binomial moments of the occurrence count, pinned on index tuples.

For an index tuple j of order d, the vector z(j) collects the occurrence
probabilities restricted to "all events of j occur", scaled so that the
moment matrix F with entries

    f[k, i] = C(i+d-1, k+d-1),   k = 1..ell,  i = 1..n-d+1

maps z(j) to the normalized binomial moments s(j):

    s_k(j) = (d! / (k+d-1)!) * E[ (count - d) falling (k-1) ; all of j occur ].

:func:`moment_set` is the one route from a system to its moments: it
batches the falling-factorial expectation above over all j with integer
accumulators.  The tests hold it to three independent oracles, the
factorial expectation per tuple, sums of plain intersection probabilities
over unordered index subsets, and F applied to z(j) built from
:func:`eventbounds.core.exact_joint` (``tests/oracles.py``).

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
    exact_occurrence,
    falling_factorial,
    index_tuple_indices,
)
from .errors import InputFormatError
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
    rows = moment_rows(d, ell, range(1, positions + 1))
    return MomentMatrix(n=n, d=d, ell=ell, rows=rows)


def moment_rows(d: int, ell: int, positions: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Rows k = 1..ell of the moment matrix at the given positions i:
    the entries C(i+d-1, k+d-1)."""
    return tuple(
        tuple(binomial(i + d - 1, k + d - 1) for i in positions) for k in range(1, ell + 1)
    )


def _level_sums(weights: Mapping[int, Number], n: int, d: int) -> dict[tuple[int, ...], list]:
    """Per index tuple of order d, the weight of its atoms at each occurrence level.

    ``table[j][i]`` sums the weights of the atoms with exactly i events
    that contain every event of j, for i = 0..n.

    Integer weights (nonnegative, as every system's numerators are) are
    summed packed: one int per level c and (d-1)-prefix p holds the sums
    of all n events side by side, event k in the w-bit slot starting at
    bit w(k-1), where w is the bit length of the total weight.  No slot
    sum exceeds that total, so it fits in w bits and no slot carries into
    the next.  An atom at level c adds weight * spread(mask), with
    spread(mask) the sum of 2**(w(k-1)) over its events k (read from two
    half-mask tables), once for each (d-1)-subset p of its events other
    than the last: once per atom at d = 1.  Slot k > max(p) of that sum is
    ``table[p + (k,)][c]``.  At d = 2 the atoms are grouped first: each
    adds weight * spread(mask) once to the group of its low-half mask and
    level c and once to that of its high-half mask and level c, and each
    nonzero group's sum is then added to prefix (a,) at level c once per
    event a of its half mask.  Every atom containing a lies in exactly
    one group of a's half that has a, so prefix (a,) gets the same sum.
    Float weights take one add per atom and d-subset of its events; d = 0
    one add per atom.
    """
    table: dict[tuple[int, ...], list] = {
        indices: [0] * (n + 1) for indices in index_tuple_indices(n, d)
    }
    if d == 0:
        levels = table[()]
        for mask, weight in weights.items():
            levels[mask.bit_count()] += weight
        return table
    half = (n + 1) // 2
    low_mask = (1 << half) - 1
    low_events = [()] * (1 << half)
    for m in range(1, 1 << half):
        low_events[m] = ((m & -m).bit_length(),) + low_events[m & (m - 1)]
    high_events = [()] * (1 << (n - half))
    for m in range(1, 1 << (n - half)):
        high_events[m] = ((m & -m).bit_length() + half,) + high_events[m & (m - 1)]
    total = sum(weights.values())
    if not isinstance(total, int):
        for mask, weight in weights.items():
            count = mask.bit_count()
            if count < d:
                continue
            events = low_events[mask & low_mask] + high_events[mask >> half]
            for combo in itertools.combinations(events, d):
                table[combo][count] += weight
        return table
    width = max(total.bit_length(), 1)
    low = [0] * (1 << half)
    for m in range(1, 1 << half):
        low[m] = low[m & (m - 1)] + (1 << width * (low_events[m][0] - 1))
    high = [spread << width * half for spread in low[: 1 << (n - half)]]
    sums = {prefix: [0] * (n + 1) for prefix in index_tuple_indices(n, d - 1)}
    if d == 2:
        stride = n + 1
        low_groups, high_groups = [0] * (stride << half), [0] * (stride << (n - half))
        for mask, weight in weights.items():
            count = mask.bit_count()
            if count < 2:
                continue
            lo, hi = mask & low_mask, mask >> half
            packed = weight * (low[lo] + high[hi])
            low_groups[lo * stride + count] += packed
            high_groups[hi * stride + count] += packed
        by_event = [None, *sums.values()]
        for groups, events_of in ((low_groups, low_events), (high_groups, high_events)):
            for index, packed in enumerate(groups):
                if packed:
                    group, count = divmod(index, stride)
                    for a in events_of[group]:
                        by_event[a][count] += packed
    else:
        for mask, weight in weights.items():
            count = mask.bit_count()
            if count < d:
                continue
            packed = weight * (low[mask & low_mask] + high[mask >> half])
            if d == 1:
                sums[()][count] += packed
                continue
            events = low_events[mask & low_mask] + high_events[mask >> half]
            for prefix in itertools.combinations(events[:-1], d - 1):
                sums[prefix][count] += packed
    slot = (1 << width) - 1
    for prefix, levels in sums.items():
        last = prefix[-1] if prefix else 0
        for count, packed in enumerate(levels):
            packed >>= width * last
            k = last
            while packed:
                k += 1
                if packed & slot:
                    table[prefix + (k,)][count] = packed & slot
                packed >>= width
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
        if self.ell < 1:
            raise ValueError(f"need ell >= 1, got ell={self.ell}")
        if self.ell != len(self.values):
            raise ValueError(f"expected {self.ell} moment values, got {len(self.values)}")
        for value in self.values:
            if not leq(0, value):
                raise ValueError(f"negative moment {value}")
        if not leq(self.values[0], 1):
            raise ValueError(f"s_1 = {self.values[0]} exceeds 1")

    @cached_property
    def exact(self) -> bool:
        """True when every value is an int or exact rational; found once."""
        return all_exact(self.values)

    def truncated(self, ell: int) -> "MomentVector":
        """The same moments cut down to the first ell orders."""
        if ell < 1 or ell > self.ell:
            raise ValueError(f"need 1 <= ell <= {self.ell}, got {ell}")
        return MomentVector(j=self.j, n=self.n, d=self.d, ell=ell, values=self.values[:ell])


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
    _forms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vectors", tuple(self.vectors))
        pairs = zip(self.vectors, index_tuple_indices(self.n, self.d))  # no list of C(n, d)
        misplaced = any(v.j.indices != indices for v, indices in pairs)
        if misplaced or len(self.vectors) != math.comb(self.n, self.d):
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

    def forms(self, ell: int) -> tuple[tuple[tuple, ...], bool]:
        """Per index tuple, (values for window picks, values for dot products, D),
        and whether every tuple is exact; built once per ell.

        Exact tuples give their integer numerators twice over the positive
        moment denominator D, which cancels from every window bracket and
        every comparison of one tuple; an exact set shares one D
        (:meth:`integerized`).  Float tuples give their values as they are
        for the picks, their floats for the dot products, and D = None.
        """
        cached = self._forms.get(ell)
        if cached is not None:
            return cached
        if self.exact:
            rows, denominator = self.integerized()
            if len(rows[0]) != ell:
                rows = [row[:ell] for row in rows]
            forms = tuple((row, row, denominator) for row in rows)
        else:
            built = []
            for vector in self.vectors:
                values = vector.values[:ell]
                exact = vector.exact if len(vector.values) == ell else all_exact(values)
                if exact:
                    row, denominator = over_common_denominator(values)
                    built.append((row, row, denominator))
                else:
                    built.append((values, tuple(map(float, values)), None))
            forms = tuple(built)
        cached = self._forms[ell] = (forms, all(form[2] for form in forms))
        return cached

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
                j, values = IndexTuple.coerce(record["j"]), record["values"]
                if not isinstance(values, list):
                    raise InputFormatError(f'"values" must be a list of numbers, got {values!r}')
                values = tuple(to_number(x) for x in values)
                vectors.append(MomentVector(j=j, n=n, d=d, ell=ell, values=values))
            moments = cls(n=n, d=d, ell=ell, vectors=sorted(vectors, key=lambda v: v.j.indices))
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
    set keeps the integers as its :meth:`MomentSet.integerized` form.  For
    d >= 1 those sums are packed: one int per level and (d-1)-prefix holds
    every event's sum in its own slot of w bits, w the bit length of the
    total numerator, and since no slot sum exceeds that total, no slot
    carries into the next; each atom adds once per (d-1)-subset of its
    events, except at d = 2, where it adds once to each of two groups,
    by low- and high-half mask and level, and each group's sum is added
    once per event of its half mask.  Float mode accumulates per atom and
    order (and float weights reach :func:`_level_sums` only through
    :func:`verify_decomposition`, which takes its plain per-subset loop).
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


def verify_decomposition(sys: EventSystem, r: int, d: int) -> DecompositionReport:
    """Check the order-d decomposition identities at level r against the oracle.

    Requires 0 <= d <= r <= n.  In exact mode the comparison is exact; in
    float mode it allows ``DEFAULT_TOLERANCE``.
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
    matched = close(exactly_direct, exactly_decomposed) and close(
        at_least_direct, at_least_decomposed
    )
    return DecompositionReport(
        r=r,
        d=d,
        exactly_direct=exactly_direct,
        exactly_decomposed=exactly_decomposed,
        at_least_direct=at_least_direct,
        at_least_decomposed=at_least_decomposed,
        matched=matched,
    )
