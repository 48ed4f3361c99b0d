"""Generic dual machinery behind every bound.

Write the quantity of interest as Z = z . v, where z is the (unknown)
nonnegative occurrence vector pinned on an index tuple and v is a 0/1
target vector.  Given the moments s = F z, any coefficient vector a with
b = F^T a >= v componentwise certifies Z <= s . a, and b <= v certifies
Z >= s . a.  Solving F_i^T a = v_i on an index set i of ell positions
makes ell components of b match v exactly; the remaining components decide
feasibility.  The vector z* supported on i with F_i z*_i = s has the same
moments, and when z* is nonnegative it is an occurrence vector attaining
the bound, which is the sharpness witness.

This module solves those small dense systems exactly (fraction-free, on
integers), tabulates the dual-feasible index sets once per shape (n, d,
ell, target vector, side) as rows (:class:`Row`, the one dual row type),
checking feasibility only there, and tests moments for a nonnegative
occurrence vector.  It evaluates no bound: ``families`` applies rows to
moments, for the closed forms, the index-set search and the full-order
(Jordan) case alike; ``checker`` re-checks certificates on its own.

The table is not built from all C(n-d+1, ell) index sets.  Read b = F^T a
as a function of the position x > 0: b(x) = C(x+d-1, d) q(x) with q a
polynomial of degree at most ell-1, so b has at most ell-1 roots, and
b - 1 at most ell-1 at d = 0 and at most ell at d >= 1 (Rolle: the ell-th
derivative of q - 1/C(x+d-1, d) never vanishes).  Feasibility pins the
sign of b and of b - 1 at every position, and a left-to-right scan counts
the roots those signs force.  Only the index sets whose counts fit both
budgets are solved, and each is still checked (:func:`dual_bases`).  The
enumeration cap limits the number of those candidates.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from .certificates import SIDE_UPPER, SIDES, TARGET_AT_LEAST, TARGETS
from .core import EventSystem, binomial, event_mask
from .errors import (
    DegenerateConfigurationError,
    DegenerateMeasureError,
    InfeasibleMomentsError,
    ResourceLimitError,
)
from .moments import MomentMatrix, MomentSet, MomentVector, moment_matrix
from .numerics import Number, all_exact, encode_number, leq, over_common_denominator, rational

#: The enumeration cap: the most candidate index sets one table may solve.
MAX_CANDIDATES = 1_000_000


def target_vector(n: int, d: int, r: int, target: str = TARGET_AT_LEAST) -> tuple[int, ...]:
    """The 0/1 target vector v selecting the occurrence levels that count
    toward Z: position u (1-based, u = 1..n-d+1) is level u+d-1."""
    if not (0 <= d <= r <= n):
        raise ValueError(f"need 0 <= d <= r <= n, got d={d}, r={r}, n={n}")
    return target_entries(d, r, target, range(1, n - d + 2))


def target_entries(d: int, r: int, target: str, positions: Iterable[int]) -> tuple[int, ...]:
    """The target vector's entries at the given positions: at-least-r is one
    from position r-d+1 on, exactly-r only there."""
    pivot = r - d + 1
    if target == TARGET_AT_LEAST:
        return tuple(1 if u >= pivot else 0 for u in positions)
    if target in TARGETS:
        return tuple(1 if u == pivot else 0 for u in positions)
    raise ValueError(f"target must be one of {TARGETS}, got {target!r}")


def _solve_float(rows: Sequence[Sequence[Number]], rhs: Sequence[Number]) -> tuple[float, ...]:
    """Solve a small dense linear system in floats by Gauss-Jordan elimination
    with partial pivoting.  Raises on a singular matrix."""
    size = len(rows)
    mat = [[float(x) for x in row] + [float(b)] for row, b in zip(rows, rhs)]
    for col in range(size):
        pivot = max(range(col, size), key=lambda r: abs(mat[r][col]))
        if abs(mat[pivot][col]) < 1e-300:
            raise DegenerateConfigurationError("singular linear system")
        mat[col], mat[pivot] = mat[pivot], mat[col]
        head = mat[col][col]
        mat[col] = [x / head for x in mat[col]]
        for r in range(size):
            if r != col and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[col])]
    return tuple(mat[r][size] for r in range(size))


def solve_integer(
    rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> tuple[tuple[int, ...], int]:
    """Solve an integer system by fraction-free (Bareiss) elimination.

    Returns (N, den) with den = |det| > 0 and solution x_k = N_k / den.
    Forward elimination divides each update exactly by the previous pivot
    and leaves +-det as the last pivot; back substitution then yields
    det * x_k, again by exact division.  No rational is ever built.
    Raises on a singular matrix.
    """
    size = len(rows)
    if any(len(row) != size for row in rows) or len(rhs) != size:
        raise ValueError("linear system must be square with matching right-hand side")
    mat = [[*row, b] for row, b in zip(rows, rhs)]
    previous = 1
    for col in range(size):
        pivot = col
        while not mat[pivot][col]:
            pivot += 1
            if pivot == size:
                raise DegenerateConfigurationError("singular linear system")
        mat[col], mat[pivot] = mat[pivot], mat[col]
        head = mat[col]
        h = head[col]
        for r in range(col + 1, size):
            row = mat[r]
            factor = row[col]
            mat[r] = [0] * (col + 1) + [
                (h * x - factor * y) // previous for x, y in zip(row[col + 1:], head[col + 1:])
            ]
        previous = h
    numerators = [0] * size
    for k in range(size - 1, -1, -1):
        row = mat[k]
        total = previous * row[size]
        for j in range(k + 1, size):
            total -= row[j] * numerators[j]
        numerators[k] = total // row[k]
    if previous < 0:
        return tuple(-x for x in numerators), -previous
    return tuple(numerators), previous


def _solve_exact(rows: Sequence[Sequence[int]], rhs: Sequence[Number]) -> tuple:
    """Exact rational solution of an integer system with a rational right-hand side."""
    scaled, scale = over_common_denominator(rhs)
    numerators, den = solve_integer(rows, scaled)
    return tuple(rational(x, den * scale) for x in numerators)


def _check_index_set(fmat: MomentMatrix, index_set: Sequence[int]) -> tuple[int, ...]:
    index_set = tuple(index_set)
    if len(index_set) != fmat.ell:
        raise ValueError(
            f"index set must have {fmat.ell} positions, got {len(index_set)}"
        )
    if any(not (1 <= i <= fmat.positions) for i in index_set):
        raise ValueError(f"index set {index_set} out of range 1..{fmat.positions}")
    if any(a >= b for a, b in zip(index_set, index_set[1:])):
        raise ValueError(f"index set must be strictly increasing, got {index_set}")
    return index_set


@dataclass(frozen=True)
class SharpnessWitness:
    """A candidate occurrence vector with the observed moments.

    ``z`` is supported on ``index_set`` and solves F_i z_i = s.  When every
    entry is nonnegative it is an actual occurrence vector, so the bound
    computed at this index set holds with equality for it.
    """

    z: tuple[Number, ...]
    index_set: tuple[int, ...]
    nonnegative: bool

    def to_payload(self) -> dict:
        return {
            "z": [encode_number(x) for x in self.z],
            "index_set": list(self.index_set),
            "nonnegative": self.nonnegative,
        }


def sharpness_witness(
    fmat: MomentMatrix,
    index_set: Sequence[int],
    s: "MomentVector | Sequence[Number]",
) -> SharpnessWitness:
    """Solve F_i z*_i = s and embed the solution in the full position range.

    Entries count as nonnegative by :func:`leq`: floats down to the tolerance."""
    index_set = _check_index_set(fmat, index_set)
    values = s.values if isinstance(s, MomentVector) else tuple(s)
    if len(values) != fmat.ell:
        raise ValueError(f"moment vector must have {fmat.ell} entries, got {len(values)}")
    exact = all_exact(values)
    system_rows = [[fmat.rows[k][i - 1] for i in index_set] for k in range(fmat.ell)]
    solution = _solve_exact(system_rows, values) if exact else _solve_float(system_rows, values)
    z = [rational(0) if exact else 0.0] * fmat.positions
    for position, entry in zip(index_set, solution):
        z[position - 1] = entry
    nonnegative = all(leq(0, entry) for entry in solution)
    return SharpnessWitness(z=tuple(z), index_set=index_set, nonnegative=nonnegative)


def has_nonnegative_solution(fmat: MomentMatrix, s: "MomentVector | Sequence[Number]") -> bool:
    """True when some z >= 0 has F z = s.

    A basic solution of {F z = s, z >= 0} is supported on ell positions,
    and any ell columns of F are independent, so such a z exists exactly
    when some index set gives a nonnegative sharpness witness.  Index sets
    are tried in lexicographic order up to the first nonnegative one.
    Float moments go through :func:`sharpness_witness`.  Exact moments
    only need the signs of the integer numerators, so they skip building
    the witness's rationals, which halves the check's cost.
    """
    values = s.values if isinstance(s, MomentVector) else tuple(s)
    if len(values) != fmat.ell:
        raise ValueError(f"moment vector must have {fmat.ell} entries, got {len(values)}")
    index_sets = itertools.combinations(range(1, fmat.positions + 1), fmat.ell)
    if not all_exact(values):
        return any(
            sharpness_witness(fmat, index_set, values).nonnegative
            for index_set in index_sets
        )
    moments, _ = over_common_denominator(values)
    for index_set in index_sets:
        rows = [[row[i - 1] for i in index_set] for row in fmat.rows]
        numerators, _ = solve_integer(rows, moments)
        if all(x >= 0 for x in numerators):
            return True
    return False


def check_realizable(moments: MomentSet) -> None:
    """Reject moments that no distribution can have, tuple by tuple.

    Each tuple's first min(ell, 3) orders must admit a nonnegative
    occurrence vector (:func:`has_nonnegative_solution`).  The test is
    complete for those orders, so at ell <= 3 and d >= 1 it accepts
    exactly the moment vectors some distribution has; at ell >= 4 it is
    only a necessary condition.  At d = 0, s_1 = P(Omega) must be 1, which
    is not enforced: moments with s_1 < 1 there pass.  Consistency across
    tuples is not checked.
    """
    orders = min(moments.ell, 3, moments.n - moments.d + 1)
    if orders < 2:
        return
    fmat = moment_matrix(moments.n, moments.d, orders)
    for vector in moments:
        values = vector.values[:orders]
        if not has_nonnegative_solution(fmat, values):
            raise InfeasibleMomentsError(
                f"no distribution has the moments {[encode_number(x) for x in values]} "
                f"at j={list(vector.j)}: no occurrence vector z >= 0 gives them"
            )


class Row:
    """One dual row a, with F_I^T a = v_I at ``index_set`` I, in the three
    forms evaluation needs.

    ``numerators`` are the row as integers over the positive ``den``;
    ``coefficients`` are the exact rationals a certificate records;
    ``floats`` holds ``float(c)`` per coefficient, for float moments.  The
    last two are built on first read, since a search table stores many rows
    and reads few; as properties over private slots, they leave reads of
    the other slots plain (a ``__getattr__`` hook would slow every read).
    ``m`` is the window a closed-form family records, None elsewhere.  A
    row unpacks as ``(coefficients, index_set, m)``.
    """

    __slots__ = ("index_set", "m", "numerators", "den", "_coefficients", "_floats")

    def __init__(
        self, index_set: tuple[int, ...], m: Optional[int], numerators: tuple[int, ...], den: int
    ) -> None:
        self.index_set = index_set
        self.m = m
        self.numerators = numerators
        self.den = den
        self._coefficients = self._floats = None

    @property
    def coefficients(self) -> tuple:
        if self._coefficients is None:
            self._coefficients = tuple(rational(x, self.den) for x in self.numerators)
        return self._coefficients

    @property
    def floats(self) -> tuple[float, ...]:
        if self._floats is None:
            self._floats = tuple(map(float, self.coefficients))
        return self._floats

    def __iter__(self):
        return iter((self.coefficients, self.index_set, self.m))


@dataclass(frozen=True)
class BasisTable:
    """The side-feasible index sets of one shape (F, v, side).

    Two kinds of set share one coefficient vector and are not stored one
    by one.  A set whose targets are all zero solves to a = 0, which is
    always lower-feasible and upper-feasible only when v = 0: every
    ell-subset of ``zero_positions`` is feasible with value 0, where
    ``zero_positions`` lists the positions with v_i = 0 when a = 0 is
    feasible for the side and is empty otherwise.  At d = 0 the first row
    of F is all ones, so a set whose targets are all one solves to
    a = e_1, which is always upper-feasible and lower-feasible only when
    v is all ones: ``one_positions`` likewise lists the positions with
    v_i = 1 when that holds, and is empty otherwise (and at d >= 1).
    ``bases`` holds the other feasible sets in lexicographic order, plus
    the first set of each range, which stands for all of its range in a
    search: they share a value, and ties go to the first.  ``solved``
    counts the candidate sets that were solved and checked to build the
    table (see :func:`dual_bases`).
    """

    ell: int
    bases: tuple[Row, ...]
    zero_positions: tuple[int, ...]
    one_positions: tuple[int, ...]
    solved: int

    @property
    def stored(self) -> int:
        """The number of bases stored, range representatives included."""
        return len(self.bases)

    def __iter__(self) -> Iterator[Row]:
        """Every feasible set in lexicographic order, range sets made on demand."""
        zero = (0,) * self.ell
        return heapq.merge(
            self.bases,
            self._rest(self.zero_positions, zero),
            self._rest(self.one_positions, (1,) + zero[1:]),
            key=operator.attrgetter("index_set"),
        )

    def _rest(self, positions: tuple[int, ...], a: tuple[int, ...]) -> Iterator[Row]:
        """The sets of one range after its first, which ``bases`` stores."""
        rest = itertools.islice(itertools.combinations(positions, self.ell), 1, None)
        return (Row(index_set, None, a, 1) for index_set in rest)


# The sign that feasibility forces on P_c = b - c at one position.
_FREE, _ZERO, _POSITIVE, _NEGATIVE, _NONNEGATIVE, _NONPOSITIVE = range(6)


def _constraint(v_x: int, c: int, member: bool, upper: bool) -> int:
    """The sign of P_c at a position with target v_x, in or out of the set."""
    if member:  # b = v_x there
        return _ZERO if v_x == c else (_POSITIVE if v_x > c else _NEGATIVE)
    if v_x == c:
        return _NONNEGATIVE if upper else _NONPOSITIVE
    if upper and c == 0:  # b >= v_x = 1
        return _POSITIVE
    if not upper and c == 1:  # b <= v_x = 0
        return _NEGATIVE
    return _FREE


# A step depends only on its three arguments, and every shape meets the
# same few states, so one bounded cache serves all tables.
@lru_cache(maxsize=1024)
def _scan(state: tuple[int, ...], constraint: int, cap: int) -> Optional[tuple[int, ...]]:
    """One position of the root-count scan of one function.

    ``state`` holds the fewest roots counted so far, capped at ``cap``,
    for each way the scan can stand: no strict sign yet, or last strict
    sign + or - with an even or odd number of zeros since.  Each zero is
    one root.  Between two strict signs the zeros must number an odd
    count exactly when the sign changes, else one more root lies there.
    Returns None once every count reaches ``cap``, one over the budget.
    """
    if constraint == _FREE:
        return state
    none, pos_even, pos_odd, neg_even, neg_odd = state
    if constraint in (_POSITIVE, _NEGATIVE):
        best = [cap] * 5
    else:
        best = [none + 1, pos_odd + 1, pos_even + 1, neg_odd + 1, neg_even + 1]
    if constraint in (_POSITIVE, _NONNEGATIVE):
        best[1] = min(best[1], none, pos_even, pos_odd + 1, neg_even + 1, neg_odd)
    if constraint in (_NEGATIVE, _NONPOSITIVE):
        best[3] = min(best[3], none, neg_even, neg_odd + 1, pos_even + 1, pos_odd)
    return tuple(min(x, cap) for x in best) if min(best) < cap else None


class _Candidates:
    """The index sets of one shape that the root-count bound allows.

    Scans positions 1..N left to right, each in or out of the set, with
    both functions' scan states (:func:`_scan`).  A prefix dies as soon
    as either count exceeds its budget, since the counts only grow.  A
    node is (members left, states) before a position; equal nodes share
    their completions, so a forward pass finds every reachable node and
    a backward pass counts each node's allowed completions.  ``count`` is
    thus known before any set is listed, and iteration lists the allowed
    sets in lexicographic order along live nodes only.
    """

    def __init__(self, v: tuple[int, ...], ell: int, d: int, upper: bool) -> None:
        caps = (ell, ell if d == 0 else ell + 1)

        def step(left: int, state: tuple, constraints: tuple[int, int]) -> Optional[tuple]:
            p0 = _scan(state[0], constraints[0], caps[0])
            p1 = _scan(state[1], constraints[1], caps[1])
            return None if p0 is None or p1 is None else (left, (p0, p1))

        positions = len(v)
        self.start = (ell, tuple((0,) + (cap,) * 4 for cap in caps))
        self.edges: list[dict] = []
        nodes = {self.start}
        for x, v_x in enumerate(v):
            room = positions - x - 1
            out, member = (tuple(_constraint(v_x, c, m, upper) for c in (0, 1)) for m in (False, True))
            edges = {}
            for node in nodes:
                left, state = node
                skip = step(left, state, out) if left <= room else None
                take = step(left - 1, state, member) if 0 < left <= room + 1 else None
                edges[node] = (skip, take)
            self.edges.append(edges)
            nodes = {child for pair in edges.values() for child in pair if child}
        counts = dict.fromkeys(nodes, 1)
        for x in range(positions - 1, -1, -1):
            later, counts, live = counts, {}, {}
            for node, (skip, take) in self.edges[x].items():
                total = later.get(skip, 0) + later.get(take, 0)
                if total:
                    counts[node] = total
                    live[node] = (skip if skip in later else None, take if take in later else None)
            self.edges[x] = live
        self.count: int = counts.get(self.start, 0)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        if not self.count:
            return
        stack = [(0, self.start, ())]
        while stack:
            x, node, members = stack.pop()
            if not node[0]:  # no members left: one completion
                yield members
                continue
            skip, take = self.edges[x][node]
            if skip:
                stack.append((x + 1, skip, members))
            if take:
                stack.append((x + 1, take, members + (x + 1,)))


def dual_bases(
    fmat: MomentMatrix,
    v: Sequence[int],
    side: str,
) -> BasisTable:
    """The table of index sets whose dual solution is feasible for the side.

    Feasibility depends only on the shape (F, v, side), never on the
    moments, so the table is built once per shape and cached.  Only the
    index sets that a root-count bound allows are solved, each on
    integers (:func:`solve_integer`), and b = F^T a is compared with v
    through the sign of N . F_i - v_i den, so every stored set is checked.

    The bound.  Let I have targets not all 0 and, at d = 0, not all 1
    (those sets are the table's ranges).  Write b(x) = sum_k a_k
    C(x+d-1, k+d-1) = C(x+d-1, d) q(x) with deg q <= ell-1, so P0 = b has
    at most ell-1 roots in x > 0, counted with multiplicity.  P1 = b - 1
    has at most ell-1 there at d = 0, and at most ell at d >= 1, by Rolle
    on q - 1/C(x+d-1, d), whose ell-th derivative never vanishes because
    1/C(x+d-1, d) is completely monotone.  If I is feasible, P_c is 0 on I where v = c and
    has the sign of v - c on the rest of I; sigma P_c >= 0 at the other
    positions with v = c (sigma = +1 on the upper side, -1 on the lower);
    and P0 >= 1 (upper) or P1 <= -1 (lower) at the other positions with
    v != c.  A scan counts the roots those signs force (:func:`_scan`),
    and a set is a candidate only when both counts fit their budgets.

    At most :data:`MAX_CANDIDATES` candidates are solved; their count is
    checked before any solve.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    components = tuple(v)
    if len(components) != fmat.positions or not all(
        isinstance(x, int) and x in (0, 1) for x in components
    ):
        raise ValueError(f"target vector must be {fmat.positions} integers 0 or 1, got {components}")
    return _basis_table(fmat, components, side)


@lru_cache(maxsize=32)
def _basis_table(fmat: MomentMatrix, v: tuple[int, ...], side: str) -> BasisTable:
    ell = fmat.ell
    upper = side == SIDE_UPPER
    candidates = _Candidates(v, ell, fmat.d, upper)
    if candidates.count > MAX_CANDIDATES:
        raise ResourceLimitError(
            f"{candidates.count} candidate index sets exceed the enumeration cap "
            f"of {MAX_CANDIDATES}"
        )
    zero = (0,) * ell
    one = (1,) + zero[1:]
    zero_positions = one_positions = ()
    if not upper or not any(v):
        zero_positions = tuple(i for i, x in enumerate(v, 1) if not x)
    if fmat.d == 0 and (upper or all(v)):
        one_positions = tuple(i for i, x in enumerate(v, 1) if x)
    bases = [
        Row(positions[:ell], None, a, 1)
        for positions, a in ((zero_positions, zero), (one_positions, one))
        if len(positions) >= ell
    ]
    columns = [fmat.column(i) for i in range(1, fmat.positions + 1)]
    checks = list(zip(columns, v))
    for index_set in candidates:
        rhs = [v[i - 1] for i in index_set]
        numerators, den = solve_integer([columns[i - 1] for i in index_set], rhs)
        for column, target in checks:
            gap = sum(map(operator.mul, numerators, column)) - target * den
            if gap < 0 if upper else gap > 0:
                break
        else:
            bases.append(Row(index_set, None, numerators, den))
    bases.sort(key=operator.attrgetter("index_set"))
    return BasisTable(ell, tuple(bases), zero_positions, one_positions, candidates.count)


def witness_system(
    witness: SharpnessWitness, j: Iterable[int], n: int, d: int
) -> EventSystem:
    """Realize a nonnegative witness as an event system with the same moments.

    Position u of the witness corresponds to occurrence level u+d-1; its
    mass z_u scales to z_u * C(u+d-1, d) on a single atom of that level
    containing all of j's events.  The first moment row forces those
    masses to sum to s_1 <= 1, and the leftover goes on the empty atom,
    which no moment on j sees (at d = 0 the empty atom is itself level 0,
    and the leftover there is exactly zero).  The resulting system has
    moment vector s at j, so the bound value is attained by an actual
    distribution.
    """
    if not witness.nonnegative:
        raise ValueError("only a nonnegative witness describes a distribution")
    j = tuple(j)
    if len(j) != d:
        raise ValueError(f"index tuple has {len(j)} entries, expected d={d}")
    exact = all_exact(witness.z)
    base = event_mask(j, n)
    other_bits = [b for b in range(n) if not (base >> b) & 1]
    weights: dict[int, Number] = {}
    total: Number = rational(0) if exact else 0.0
    for position, z_u in enumerate(witness.z, start=1):
        if z_u == 0:
            continue
        extra = position - 1
        mask = base
        for bit in other_bits[:extra]:
            mask |= 1 << bit
        scaled = z_u * binomial(position + d - 1, d)
        weights[mask] = weights.get(mask, rational(0) if exact else 0.0) + scaled
        total = total + scaled
    leftover = (1 - total) if exact else 1.0 - float(total)
    if not leq(0, leftover):
        raise DegenerateMeasureError(
            f"witness mass exceeds one ({total}); the moments are not from a probability measure"
        )
    if leftover > 0:
        weights[0] = weights.get(0, rational(0) if exact else 0.0) + leftover
    return EventSystem(n=n, weights=weights)
