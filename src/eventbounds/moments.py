"""Binomial moments of the occurrence count, pinned on index tuples.

For an index tuple j of order d, the vector z(j) collects the occurrence
probabilities restricted to "all events of j occur", scaled so that the
moment matrix F with entries

    f[k, i] = C(i+d-1, k+d-1),   k = 1..ell,  i = 1..n-d+1

maps z(j) to the normalized binomial moments s(j):

    s_k(j) = (d! / (k+d-1)!) * E[ (count - d) falling (k-1) ; all of j occur ].

:func:`moment_set` is the one route from a system to its moments: it
batches the falling-factorial expectation above over all j with integer
accumulators, held by the tests to three oracles (``tests/oracles.py``).
Moment values are checked once, where they enter from outside, in
:meth:`MomentSet.from_payload`; :class:`MomentVector` is a plain record.

s_1(j) is the probability that all events of j occur; for d=0 it is 1.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .core import (
    EventSystem,
    _plain_parts,
    _probability,
    atom_masses,
    binomial,
    exact_occurrence,
    falling_factorial,
    index_tuple_indices,
)
from .certificates import TermTuple
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
    zero,
)


@dataclass(frozen=True)
class MomentMatrix:
    """The binomial moment matrix F for parameters (n, d, ell), built by
    :func:`moment_matrix`, which checks them.

    Rows are indexed by moment order k = 1..ell, columns by position
    i = 1..n-d+1.  The leading square block is unitriangular: entries vanish
    for k > i and the diagonal is all ones, so any leading subsystem is
    solvable.
    """

    n: int
    d: int
    ell: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def positions(self) -> int:
        """Number of columns, n - d + 1."""
        return self.n - self.d + 1

    def column(self, i: int) -> tuple[int, ...]:
        return tuple(row[i - 1] for row in self.rows)


def moment_matrix(n: int, d: int, ell: int) -> MomentMatrix:
    """Build the moment matrix with entries C(i+d-1, k+d-1)."""
    _check_shape(n, d, ell)
    return MomentMatrix(n=n, d=d, ell=ell, rows=moment_rows(d, ell, range(1, n - d + 2)))


def _check_shape(n: int, d: int, ell: int) -> None:
    """Reject an order d or a moment count ell that n events do not have."""
    if d < 0 or d > n:
        raise ValueError(f"need 0 <= d <= n, got n={n}, d={d}")
    if ell < 2 or ell > n - d + 1:
        raise ValueError(f"need 2 <= ell <= n-d+1 = {n - d + 1}, got ell={ell}")


def moment_rows(d: int, ell: int, positions: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Rows k = 1..ell of the moment matrix at the given positions i:
    the entries C(i+d-1, k+d-1)."""
    return tuple(
        tuple(binomial(i + d - 1, k + d - 1) for i in positions) for k in range(1, ell + 1)
    )


# Only n picks the tables, and a conditioned system's blocks share it.
@lru_cache(maxsize=8)
def _half_events(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The events of each low-half and each high-half mask of n events.

    The low half is events 1..h, h = ceil(n/2), and entry m of each table
    lists the events of mask m in increasing order, the high half's
    shifted by h; each entry extends the entry of m without its lowest
    bit.
    """
    half = (n + 1) // 2
    tables = []
    for offset, size in ((0, half), (half, n - half)):
        events = [()] * (1 << size)
        for m in range(1, 1 << size):
            events[m] = ((m & -m).bit_length() + offset,) + events[m & (m - 1)]
        tables.append(tuple(events))
    return tables[0], tables[1]


def _level_sums(weights: Mapping[int, Number], n: int, d: int) -> dict[tuple[int, ...], list]:
    """Per index tuple of order d, the weight of its atoms at each occurrence level.

    ``table[j][i]`` sums the weights of the atoms with exactly i events
    that contain every event of j, for i = 0..n; the keys are in the
    lexicographic order of :func:`index_tuple_indices`.

    Integer weights (nonnegative, as every system's numerators are) are
    summed packed: one int per level c and (d-1)-prefix p holds the sums
    of all n events side by side, event k in the w-bit slot starting at
    bit w(k-1), where w is the bit length of the total weight.  No slot
    sum exceeds that total, so it fits in w bits and no slot carries into
    the next.  An atom at level c adds weight * spread(mask), with
    spread(mask) the sum of 2**(w(k-1)) over its events k (read from two
    half-mask tables built per call, since they depend on w; each half
    mask's events come from the per-n tables of :func:`_half_events`),
    once for each (d-1)-subset p of its events other
    than the last: once per atom at d = 1.  Slot k > max(p) of that sum is
    ``table[p + (k,)][c]``.  At d = 2 the atoms are grouped first: each
    adds weight * spread(mask) once to the group of its low-half mask and
    level c and once to that of its high-half mask and level c, and each
    nonzero group's sum is then added to prefix (a,) at level c once per
    event a of its half mask.  Every atom containing a lies in exactly
    one group of a's half that has a, so prefix (a,) gets the same sum.
    Float weights, which come only from :func:`verify_decomposition`, take
    one add per atom and d-subset of its events; d = 0 one add per atom.
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
    low_events, high_events = _half_events(n)
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
    low = [0]  # doubled once per low event: the masks with bit k come after those without
    for k in range(half):
        step = 1 << width * k
        low += [spread + step for spread in low]
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
    """The moments s_1(j)..s_ell(j) attached to one index tuple j, a plain
    tuple of ints: a record that nothing checks on construction.  The
    :class:`MomentSet` holding it checks j, and a file's values are checked
    where it is read (:meth:`MomentSet.from_payload`).
    """

    j: tuple[int, ...]
    values: tuple[Number, ...]

    @cached_property
    def term_j(self) -> TermTuple:
        """j as the terms of every certificate on this vector hold it, built once."""
        return TermTuple(self.j)


@dataclass(frozen=True)
class MomentSet:
    """The complete family of moment vectors over all index tuples of order d.

    This is what the bound modules consume.  It can come from an event
    system (:func:`moment_set`) or straight from a file
    (:meth:`MomentSet.from_payload`) when only intersection probabilities
    are known; in the latter case the event count is not capped.  The
    vectors may come in any order, and the set holds them in the
    lexicographic order of j.
    """

    n: int
    d: int
    ell: int
    vectors: tuple[MomentVector, ...]
    _forms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, d, vectors = self.n, self.d, tuple(self.vectors)
        order = sorted(range(len(vectors)), key=lambda i: vectors[i].j)
        # The C(n, d) tuples are walked lazily up to the first mismatch, so
        # a file that lacks tuples fails at once even for a large n.  A
        # vector is named s[i] by its place in ``vectors``, a file's order.
        pairs = itertools.zip_longest(order, index_tuple_indices(n, d))
        for place, (i, expected) in enumerate(pairs):
            if i is not None and vectors[i].j == expected:
                continue
            k = next((k for k, v in enumerate(vectors) if not _is_index_tuple(v.j, n, d)), None)
            if k is not None:
                found = f"s[{k}] has j={list(vectors[k].j)}, not {d} increasing indices in 1..{n}"
            elif place and i is not None and vectors[i].j == vectors[order[place - 1]].j:
                found = f"s[{i}] repeats the j={list(vectors[i].j)} of s[{order[place - 1]}]"
            else:
                found = f"no record has j={list(expected)}"
            raise ValueError(
                f"moment set must contain every index tuple of order d exactly once: {found}"
            )
        object.__setattr__(self, "vectors", tuple(vectors[i] for i in order))

    def forms(self, ell: int) -> tuple[tuple[tuple, ...], bool]:
        """Per index tuple, (values for window picks, values for dot products, D),
        and whether every tuple is exact; built once per ell.

        Each tuple's form is built from its first ell values (:func:`_form`):
        exact tuples give their integer numerators twice over a positive
        denominator D, which cancels from every window bracket and every
        comparison of one tuple; float tuples give their values as they are
        for the picks, their floats for the dot products, and D = None.
        When the forms at the set's full order are all exact (:func:`moment_set`
        and a file's bulk read hand over their integers as those), they are sliced.
        """
        cached = self._forms.get(ell)
        if cached is None:
            full = self._forms.get(self.ell)
            if full is not None and full[1]:
                forms = tuple((row := form[0][:ell], row, form[2]) for form in full[0])
            else:
                forms = tuple(_form(vector.values[:ell]) for vector in self.vectors)
            cached = self._forms[ell] = (forms, all(form[2] for form in forms))
        return cached

    def vector(self, j: Iterable[int]) -> MomentVector:
        j = tuple(j)
        for vector in self.vectors:
            if vector.j == j:
                return vector
        raise KeyError(f"no moment vector for {j!r}")

    def __iter__(self) -> Iterator[MomentVector]:
        return iter(self.vectors)

    def __len__(self) -> int:
        return len(self.vectors)

    def restricted(self, ell: int) -> "MomentSet":
        """The same set truncated to the first ell moment orders, sharing
        this set's forms at ell."""
        if ell < 1 or ell > self.ell:
            raise ValueError(f"need 1 <= ell <= {self.ell}, got {ell}")
        vectors = tuple(MomentVector(v.j, v.values[:ell]) for v in self.vectors)
        restricted = MomentSet(n=self.n, d=self.d, ell=ell, vectors=vectors)
        restricted._forms[ell] = self.forms(ell)
        return restricted

    def to_payload(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "ell": self.ell,
            "s": [
                {"j": list(v.j), "values": [encode_number(x) for x in v.values]}
                for v in self.vectors
            ],
        }

    @classmethod
    def from_payload(cls, payload: object) -> "MomentSet":
        """Parse the moment file format.

        ``{"n": int, "d": int, "ell": int, "s": [{"j": [ints],
        "values": [numbers]}, ...]}``.  Each record's j is checked here, and
        only here, to be a list of JSON integers (not booleans, floats or
        rationals); the set then requires the js to be every index tuple of
        order d exactly once, naming a record by its place s[i] in the file
        or the first index tuple that has none.  This is the one place that
        checks moment values: each record must hold ell values, finite and
        nonnegative with s_1 <= 1, within float range when the file holds a
        float, and each tuple's first min(ell, 3) orders must pass the moment
        cone's facets (:func:`eventbounds.engine.check_realizable`).  A set
        built in code, such as :func:`moment_set`'s, is not value-checked.
        A file of plain ratios is read in bulk (:func:`_plain_vectors`); the
        per-value loop reads any other file and alone raises, so both routes
        give the same set and the same messages.
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
        plain = _plain_vectors(entries, ell)
        vectors = [] if plain is None else plain[0]
        try:
            for index, record in enumerate(entries if plain is None else ()):
                j, values = record["j"], record["values"]
                if not isinstance(j, list) or any(type(k) is not int for k in j):
                    raise InputFormatError(
                        f'moment record s[{index}]: "j" must be a list of integers, got {j!r}'
                    )
                if not isinstance(values, list):
                    raise InputFormatError(f'"values" must be a list of numbers, got {values!r}')
                values = tuple(to_number(x) for x in values)
                if ell < 1:
                    raise ValueError(f"need ell >= 1, got ell={ell}")
                if len(values) != ell:
                    raise ValueError(f"expected {ell} moment values, got {len(values)}")
                for value in values:
                    if isinstance(value, float) and not math.isfinite(value):
                        raise ValueError(f"moment {value!r} is not finite")
                    if not leq(0, value):
                        raise ValueError(f"negative moment {value}")
                if not leq(values[0], 1):
                    raise ValueError(f"s_1 = {values[0]} exceeds 1")
                vectors.append(MomentVector(tuple(j), values))
            moments = cls(n=n, d=d, ell=ell, vectors=vectors)
            if plain is not None:  # each form in the set's order of j
                moments._forms[ell] = (tuple(plain[1][vector.j] for vector in moments), True)
            elif not all(all_exact(vector.values) for vector in vectors):  # summed in floats
                for index, vector in enumerate(vectors):
                    try:
                        list(map(float, vector.values))
                    except OverflowError:
                        raise ValueError(
                            f"moment record s[{index}] holds a value too large for a float, "
                            "in a file that holds floats"
                        ) from None
        except (KeyError, TypeError) as exc:
            raise InputFormatError(f"malformed moment record: {exc}") from None
        except ValueError as exc:
            raise InputFormatError(str(exc)) from None
        check_realizable(moments)
        return moments


def moment_set(sys: EventSystem, d: int, ell: int) -> MomentSet:
    """All moment vectors of order d for the system, batched.

    Exact mode sums the integer numerators per index tuple and occurrence
    level (:func:`_level_sums`, packed), then applies the falling factorials
    once per tuple and level; only the final values become rationals, and
    the set keeps the integers as its :meth:`MomentSet.forms` at ell.
    Float mode accumulates per atom and order.
    """
    n = sys.n
    _check_shape(n, d, ell)
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
        vectors, forms = [], []
        for j, levels in table.items():
            row = tuple(sum(f * levels[i] for i, f in factors[k]) for k in range(ell))
            forms.append((row, row, common))
            values = tuple(rational(x, common) for x in row)
            vectors.append(MomentVector(j, values))
        moments = MomentSet(n=n, d=d, ell=ell, vectors=tuple(vectors))
        moments._forms[ell] = (tuple(forms), True)
        return moments
    accumulators = {j: [0] * ell for j in index_tuple_indices(n, d)}
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
    for j, row in accumulators.items():
        values = tuple(float(row[k]) * dfact / math.factorial(k + d) for k in range(ell))
        vectors.append(MomentVector(j, values))
    return MomentSet(n=n, d=d, ell=ell, vectors=tuple(vectors))


def _plain_vectors(entries: list, ell: int) -> Optional[tuple[list, dict]]:
    """The vectors of a file whose records are dicts of a "j" list of ints and
    ell plain ratios (``core._plain_parts``) with s_1 <= 1, and each j's exact
    form as :func:`_form` gives it; None for any other file."""
    try:
        js, rows = [record["j"] for record in entries], [record["values"] for record in entries]
    except (KeyError, TypeError):
        return None
    if ell < 1 or not all(isinstance(row, list) and len(row) == ell for row in rows):
        return None
    if not all(isinstance(j, list) for j in js) or any(type(k) is not int for j in js for k in j):
        return None
    parts = _plain_parts(list(itertools.chain.from_iterable(rows)))
    if parts is None or any(map(operator.gt, parts[0][::ell], parts[1][::ell])):  # s_1 > 1
        return None
    divisors = list(map(math.gcd, *parts))
    numerators, denominators = (list(map(operator.floordiv, x, divisors)) for x in parts)
    values, vectors, forms = list(map(rational, numerators, denominators)), [], {}
    for start, j in zip(range(0, len(values), ell), map(tuple, js)):
        stop = start + ell
        common = math.lcm(*denominators[start:stop])
        scales = map(operator.floordiv, itertools.repeat(common), denominators[start:stop])
        row = tuple(map(operator.mul, numerators[start:stop], scales))
        vectors.append(MomentVector(j, tuple(values[start:stop])))
        forms[j] = (row, row, common)
    return vectors, forms


def _is_index_tuple(j: tuple[int, ...], n: int, d: int) -> bool:
    """Whether j is d increasing indices in 1..n."""
    return len(j) == d and all(0 < a < b for a, b in zip(j, j[1:] + (n + 1,)))


def _form(values: tuple[Number, ...]) -> tuple:
    """One tuple's form: its integer numerators twice over their denominator
    when its values are exact, else the values, their floats and None."""
    if all_exact(values):
        row, denominator = over_common_denominator(values)
        return row, row, denominator
    return values, tuple(map(float, values)), None


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
    exactly_decomposed, at_least_decomposed = (
        sum(
            (
                _probability(sys, levels[i], denominator) / binomial(i, d)
                for levels in joint.values()
                for i in levels_range
            ),
            zero(sys.exact),
        )
        for levels_range in (range(r, r + 1), range(r, sys.n + 1))
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
