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

This module has the one exact solver (:func:`_prefix_solves`), the table
of dual-feasible index sets per shape (:func:`dual_bases`) as rows
(:class:`Row`, the one dual row type), and the moment cone's facets
(:func:`check_realizable`).  It evaluates no bound: ``families`` applies
rows to moments; ``checker`` re-checks certificates on its own.
"""

from __future__ import annotations

import heapq
import itertools
import math
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
from .moments import MomentMatrix, MomentSet
from .numerics import (
    DEFAULT_TOLERANCE,
    Number,
    all_exact,
    encode_number,
    leq,
    over_common_denominator,
    rational,
    zero,
)

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


def _solve_float(rows: Sequence[Sequence[int]], values: Sequence[Number]) -> tuple[float, ...]:
    """The z with F_I z = s in floats, F_I's rows given, by Gauss-Jordan
    elimination with partial pivoting.  Raises on a singular matrix."""
    size = len(rows)
    mat = [[float(x) for x in row] + [float(b)] for row, b in zip(rows, values)]
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
    values: Sequence[Number],
) -> SharpnessWitness:
    """Solve F_i z*_i = s, for the moment values s, and embed the solution in
    the full position range.

    Entries count as nonnegative by :func:`leq`: floats down to the tolerance."""
    index_set = _check_index_set(fmat, index_set)
    values = tuple(values)
    if len(values) != fmat.ell:
        raise ValueError(f"moment vector must have {fmat.ell} entries, got {len(values)}")
    rows = [[row[i - 1] for i in index_set] for row in fmat.rows]  # F_I
    exact = all_exact(values)
    if exact:
        # Given F_I's rows as its columns, the solver of F_I^T a = v solves
        # F_I z = s; its pivots, F_I's leading minors, are F_I^T's.
        targets, scale = over_common_denominator(values)
        ((_, numerators, den),) = _prefix_solves(rows, targets, (tuple(range(1, fmat.ell + 1)),))
        solution = tuple(rational(a, den * scale) for a in numerators)
    else:
        solution = _solve_float(rows, values)
    z = [zero(exact)] * fmat.positions
    for position, entry in zip(index_set, solution):
        z[position - 1] = entry
    nonnegative = all(leq(0, entry) for entry in solution)
    return SharpnessWitness(z=tuple(z), index_set=index_set, nonnegative=nonnegative)


def _facets(positions: int, d: int, orders: int) -> list[tuple[tuple[int, ...], int]]:
    """The facet normals a of cone(F) at 2 or 3 orders, each with its scale.

    Column x of F over C(x+d-1, d) > 0 is (1, y/(d+1), y(y-1)/((d+1)(d+2)))
    with y = x-1: points on a line, or on a parabola, in convex position.
    So cone(F) has two facets at 2 orders, where F_x . a is C(x+d-1, d)
    times x-1 or N-x (N = ``positions``), and N at 3 orders, the polygon's
    edges {i, i+1} and {1, N}, where it is C(x+d-1, d) times (x-i)(x-i-1)
    or (x-1)(N-x).  Each is >= 0 at every position and zero on its facet.
    The scale is the largest |F_x . a| / C(x+d-1, d) over the positions.
    """
    e, f = d + 1, (d + 1) * (d + 2)
    if orders == 2:
        return [((0, e), positions - 1), ((positions - 1, -e), positions - 1)]
    return [
        ((i * (i - 1), -2 * (i - 1) * e, f), max(i * (i - 1), (positions - i) * (positions - i - 1)))
        for i in range(1, positions)
    ] + [((0, (positions - 2) * e, -f), (positions - 1) ** 2 // 4)]


def check_realizable(moments: MomentSet) -> None:
    """Reject moments that no distribution can have, tuple by tuple.

    Each tuple's first min(ell, 3) orders s must be F z for some z >= 0,
    that is a . s >= 0 for every facet normal a of cone(F)
    (:func:`_facets`), on the integer numerators of :meth:`MomentSet.forms`
    when exact.  A float tuple may fall short of 0 by ``DEFAULT_TOLERANCE``
    times the normal's scale, so it meets every facet.  An exact tuple at 3
    orders meets five: on the edges {i, i+1}, a_i . s = s_1 i^2 - (s_1 +
    2(d+1) s_2) i + const is least at an end, or next to its vertex when
    s_1 > 0.  The test is complete for those orders (at ell <= 3 and d >= 1
    it accepts exactly the moments some distribution has), only necessary at
    ell >= 4, and per tuple; s_1 = 1 at d = 0 is not enforced.
    """
    positions, d = moments.n - moments.d + 1, moments.d
    orders = min(moments.ell, 3, positions)
    if orders < 2:
        return
    facets = _facets(positions, d, orders)
    for vector, (_, s, den) in zip(moments, moments.forms(orders)[0]):
        near = facets
        if den and orders == 3:
            vertex = (s[0] + 2 * (d + 1) * s[1]) // (2 * s[0]) if s[0] > 0 else 1
            edges = {1, positions - 1, *(min(max(i, 1), positions - 1) for i in (vertex, vertex + 1))}
            near = [facets[i - 1] for i in edges] + facets[-1:]  # and {1, N}
        slack = 0 if den else DEFAULT_TOLERANCE
        if any(sum(map(operator.mul, a, s)) < -slack * scale for a, scale in near):
            values = vector.values[:orders]
            raise InfeasibleMomentsError(
                f"no distribution has the moments {[encode_number(x) for x in values]} "
                f"at j={list(vector.j)}: no occurrence vector z >= 0 gives them"
            )


class Row:
    """One dual row a, with F_I^T a = v_I at ``index_set`` I, in the three
    forms evaluation needs.

    ``numerators`` are the row as integers over the positive ``den``;
    ``coefficients`` are the exact rationals a certificate records;
    ``floats`` holds ``float(c)`` per coefficient, for float moments: both
    built on first read, since a search table stores many rows and reads
    few.  ``m`` is the window a closed-form family records, None elsewhere.
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
    counts the candidate sets solved and checked (:func:`dual_bases`).
    """

    ell: int
    bases: tuple[Row, ...]
    zero_positions: tuple[int, ...]
    one_positions: tuple[int, ...]
    solved: int

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


# The sign that feasibility forces on a scanned function at one position.
_FREE, _ZERO, _POSITIVE, _NEGATIVE, _NONNEGATIVE, _NONPOSITIVE = range(6)


def _interval(v_x: int, member: bool, upper: bool) -> tuple[float, float]:
    """The interval b takes at a position with target v_x if the set is
    feasible: v_x on the set, else at least (upper) or at most (lower) v_x."""
    if member:
        return v_x, v_x
    return (v_x, math.inf) if upper else (-math.inf, v_x)


def _sign(lo: float, hi: float) -> int:
    """The sign forced on a value known to lie in [lo, hi]."""
    if lo > 0:
        return _POSITIVE
    if hi < 0:
        return _NEGATIVE
    if lo == 0:
        return _ZERO if hi == 0 else _NONNEGATIVE
    return _NONPOSITIVE if hi == 0 else _FREE


@lru_cache(maxsize=64)
def _forced(v_x: int, v_before: Optional[int], upper: bool) -> tuple:
    """The signs feasibility forces on b(x) - b(x-1) at a position with
    target v_x, as ``signs[member][previous member]``, where the previous
    position's target is ``v_before`` (None at the first position, which
    has no difference)."""
    if v_before is None:
        return ((_FREE,) * 2,) * 2
    here = [_interval(v_x, member, upper) for member in (False, True)]
    before = [_interval(v_before, member, upper) for member in (False, True)]
    return tuple(tuple(_sign(lo - hi0, hi - lo0) for lo0, hi0 in before) for lo, hi in here)


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
    return tuple([x if x < cap else cap for x in best]) if min(best) < cap else None


class _Candidates:
    """The index sets of one shape that the rule of :func:`dual_bases` allows.

    Scans its d = 0 shape, first d positions pinned, left to right, each
    position in or out of the set, with the scan state of b's first
    differences (:func:`_scan`).  A prefix dies once it leaves out a pinned
    position, once the count exceeds the budget, since it only grows, or
    once the positions left cannot give its members both targets 0 and 1.
    A node is (scan state, members left, whether the previous position is
    a member, the targets seen among the members as bits 1 << v) before a
    position, packed in one int (the state by its number in order of first
    reach), so the passes' dicts hold ints, which the collector does not
    track.  Equal nodes share their completions, so a forward pass finds
    every reachable node and a backward pass counts each node's allowed
    completions.  ``count`` is thus known before any set is listed, and
    iteration lists the allowed sets in lexicographic order along live
    nodes only, each member shifted back by d."""

    def __init__(self, v: tuple[int, ...], ell: int, d: int, upper: bool) -> None:
        self.d = d
        v = (0,) * d + v
        ell += d
        cap = ell - 1
        positions = len(v)
        bits = [0] * (positions + 1)  # bits[x]: the target bits of v[x:]
        for x in range(positions - 1, -1, -1):
            bits[x] = bits[x + 1] | 1 << v[x]

        signs = [_forced(v_x, v[x - 1] if x else None, upper) for x, v_x in enumerate(v)]
        shift, self.left_mask = ell.bit_length() + 3, (1 << ell.bit_length()) - 1
        states, numbers, moves = [(0,) + (cap,) * 4], {(0,) + (cap,) * 4: 0}, {}

        def step(node: int, member: bool, x: int) -> Optional[int]:
            """The node after position x, or None if no completion is allowed."""
            left = (node >> 3 & self.left_mask) - member
            if (x < d and not member) or not 0 <= left <= positions - x - 1:
                return None
            seen = node & 3 | member << v[x]  # the members' targets must come to hold both 0 and 1
            missing = 3 & ~seen
            if missing & ~bits[x + 1] or missing.bit_count() > left:
                return None
            move = (node >> shift) * 6 + signs[x][member][node >> 2 & 1]  # state number, sign
            if move not in moves:
                scanned = _scan(states[node >> shift], move % 6, cap)
                moves[move] = -1 if scanned is None else numbers.setdefault(scanned, len(numbers))
                if len(numbers) > len(states):
                    states.append(scanned)
            state = moves[move]
            return None if state < 0 else state << shift | left << 3 | member << 2 | seen

        self.start, self.skips, self.takes, nodes = ell << 3, [], [], {ell << 3}
        for x in range(positions):
            self.skips.append({node: step(node, False, x) for node in nodes})
            self.takes.append({node: step(node, True, x) for node in nodes})
            nodes = {*self.skips[x].values(), *self.takes[x].values()} - {None}
        self.counts = [dict.fromkeys(nodes, 1)]
        for x in range(positions - 1, -1, -1):
            later, counts = self.counts[0], {}
            for node, skip in self.skips[x].items():
                total = later.get(skip, 0) + later.get(self.takes[x][node], 0)
                if total:
                    counts[node] = total
            self.counts.insert(0, counts)
        self.count: int = self.counts[0].get(self.start, 0)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        if not self.count:
            return
        stack = [(0, self.start, ())]
        while stack:
            x, node, members = stack.pop()
            if not node >> 3 & self.left_mask:  # no members left: one completion
                yield members[self.d:]
                continue
            later = self.counts[x + 1]
            skip, take = self.skips[x][node], self.takes[x][node]
            if skip in later:
                stack.append((x + 1, skip, members))
            if take in later:
                stack.append((x + 1, take, members + (x + 1 - self.d,)))


def dual_bases(
    fmat: MomentMatrix,
    v: Sequence[int],
    side: str,
) -> BasisTable:
    """The table of index sets whose dual solution is feasible for the side.

    Feasibility depends only on the shape (F, v, side), never on the
    moments, so the table is built once per shape and cached.  Only the
    index sets that a root-count bound allows are solved, on integers,
    sharing the elimination along common prefixes (:func:`_prefix_solves`),
    and b = F^T a is compared with v at every position, so every stored set
    is checked; b is B(L) below, whose j-th forward difference at L = 0 is
    c_j, so ell+d-1 running sums give it at every level.

    The bound at d = 0.  Let I have targets holding both 0 and 1 (the
    other sets are the table's ranges).  Then b(x) = sum_k a_k C(x-1, k-1)
    is a nonconstant polynomial of degree at most ell-1, so b' is a nonzero
    polynomial of degree at most ell-2.  If I is feasible, b(x) = v_x on I,
    and b(x) >= v_x (upper) or <= v_x (lower) elsewhere: an interval at
    every position, which forces a sign on Db(x) = b(x+1) - b(x) at
    x = 1..N-1 (:func:`_forced`).  By the mean value theorem
    Db(x) = b'(xi_x) for some xi_x in (x, x+1), and the xi_x increase
    strictly with x: a zero of Db is a root of b' (Rolle), and a sign
    change of Db puts one between.  So the roots the signs force, counted
    by a scan (:func:`_scan`), number at most ell-2, the budget.

    At d >= 1, write position u as its level L = u+d-1.  Row k of F is
    C(L, k+d-1) at levels d..n: the rows of orders d+1..d+ell of the
    d = 0 shape of the same n with ell+d orders, whose positions are the
    levels 0..n.  A row c of that shape has B(L) = sum_j c_{j+1} C(L, j),
    triangular in c_1..c_d with a unit diagonal at L = 0..d-1.  So B
    vanishes at levels 0..d-1 exactly when c_1..c_d = 0, and then B at
    levels d..n is the b of a = (c_{d+1}, ..., c_{d+ell}): I is
    side-feasible for (n, d, ell, v) exactly when {1..d} with I + d is for
    (n, 0, ell+d, (0,)*d + v).  That set holds target 0, so it is never an
    all-ones range, and its targets are all 0 exactly when I's are.  So
    the candidates at d >= 1 are the d = 0 ones of that shape with the
    first d positions pinned (:class:`_Candidates`).

    On every shape with n <= 12 the candidates are exactly the feasible
    sets outside the ranges, so no solve is rejected.  This is measured at
    d = 0, not proved, and exactness at d >= 1 follows from it at ell+d
    orders; every candidate is still checked.

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
    d, feasible = fmat.d, operator.ge if upper else operator.le
    for index_set, numerators, den in _prefix_solves(columns, v, candidates):
        # b at levels 0..n from its forward differences at 0, c = (0,)*d + a
        levels = itertools.repeat(numerators[-1], fmat.n + 2 - ell - d)
        for c_j in itertools.chain(reversed(numerators[:-1]), itertools.repeat(0, d)):
            levels = itertools.accumulate(levels, initial=c_j)
        targets = map(operator.mul, v, itertools.repeat(den))
        if all(map(feasible, itertools.islice(levels, d, None), targets)):
            bases.append(Row(index_set, None, numerators, den))
    bases.sort(key=operator.attrgetter("index_set"))
    return BasisTable(ell, tuple(bases), zero_positions, one_positions, candidates.count)


def _prefix_solves(
    columns: Sequence[Sequence[int]], v: Sequence[int], index_sets: Iterable[tuple[int, ...]]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Solve F_I^T a = v_I for each index set I, sharing the elimination
    along consecutive sets' common prefixes; yields (I, numerators, den)
    with a = numerators / den.  The tables, the family rows
    (``families.solved_row``) and exact witnesses all solve through it.

    Row k of the system is position I_k's column of F, with target v at
    I_k.  Fraction-free (Bareiss) elimination without row swaps reduces
    row k with rows 0..k-1 alone, so the reduced rows of the prefix, the
    first ell-1 positions, serve every later set that shares them, and
    only the rows from the first changed position on are reduced again.
    Back substitution then solves the prefix's leading block for two
    right-hand sides, the order-ell column and the targets, as integer
    numerators R0 and R1 over its determinant D.  The last position, with
    column c and target t, leaves one unknown: den = D c_ell - c . R0 (D
    times the Schur complement, which is det F_I), the last numerator is
    N = D t - c . R1, and the others are (R1 den - R0 N) / D, an exact
    division.  In lexicographic order most sets change only their last
    position and cost two dot products.

    Pivot k is the leading minor of order k+1 of F_I^T: orders 1..k+1 at
    I_0 < ... < I_k.  Divided by C(x+d-1, d) > 0 per row, those entries
    are polynomials in x of degrees 0..k with positive leading
    coefficients, a Vandermonde determinant times a positive constant.
    So every pivot is positive, ``den`` is det F_I, and the numerators are
    det F_I times the solution.  A pivot that is not positive (a repeated
    position, say) raises, naming the index set.
    """
    rows: list[list[int]] = []  # prefix row k's entries k..ell, reduced
    last: tuple[int, ...] = (0,)  # no position is 0, so the first set shares nothing
    for index_set in index_sets:
        size = len(index_set) - 1
        start = 0
        while start < size and index_set[start] == last[start]:
            start += 1
        if start < size:
            del rows[start:]
            for k in range(start, size):
                x = index_set[k] - 1
                row = [*columns[x], v[x]]
                previous = 1
                for head in rows:
                    h, factor = head[0], row[0]
                    row = [(h * a - factor * b) // previous for a, b in zip(row[1:], head[1:])]
                    previous = h
                if row[0] <= 0:
                    raise DegenerateConfigurationError(
                        f"index set {index_set}: pivot {k + 1} is {row[0]}, not positive"
                    )
                rows.append(row)
            prefix_den = rows[-1][0]
            r0: list[int] = []
            r1: list[int] = []
            for row in reversed(rows):
                tail = row[1:]
                r0.insert(0, (prefix_den * row[-2] - sum(map(operator.mul, tail, r0))) // row[0])
                r1.insert(0, (prefix_den * row[-1] - sum(map(operator.mul, tail, r1))) // row[0])
        last = index_set
        x = index_set[size] - 1
        column = columns[x]
        den = prefix_den * column[size] - sum(map(operator.mul, column, r0))
        if den <= 0:
            raise DegenerateConfigurationError(
                f"index set {index_set}: determinant {den}, not positive"
            )
        final = prefix_den * v[x] - sum(map(operator.mul, column, r1))
        numerators = [(b * den - a * final) // prefix_den for a, b in zip(r0, r1)]
        numerators.append(final)
        yield index_set, tuple(numerators), den


def witness_system(
    witness: SharpnessWitness, j: Iterable[int], n: int, d: int
) -> EventSystem:
    """Realize a nonnegative witness as an event system with the same moments.

    Position u of the witness is occurrence level u+d-1; its mass z_u
    scales to z_u * C(u+d-1, d) on one atom of that level holding all of
    j's events.  Those masses sum to s_1 <= 1, and the leftover goes on the
    empty atom, which no moment on j sees (at d = 0 it is level 0, and the
    leftover is zero).  The system has moment vector s at j, so an actual
    distribution attains the bound value.
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
    total = zero(exact)
    for position, z_u in enumerate(witness.z, start=1):
        if z_u == 0:
            continue
        mask = base
        for bit in other_bits[: position - 1]:
            mask |= 1 << bit
        scaled = z_u * binomial(position + d - 1, d)
        weights[mask] = weights.get(mask, zero(exact)) + scaled
        total += scaled
    leftover = 1 - total
    if not leq(0, leftover):
        raise DegenerateMeasureError(
            f"witness mass exceeds one ({total}); the moments are not from a probability measure"
        )
    if leftover > 0:
        weights[0] = weights.get(0, zero(exact)) + leftover
    return EventSystem(n=n, weights=weights)
