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
integers), checks feasibility, tabulates the dual-feasible index sets once
per shape (n, d, ell, target vector, side) for the index-set search,
tests moments for a nonnegative occurrence vector, and handles the
full-order case ell = n-d+1 where the bound collapses to an exact identity
(the Jordan-formula case).
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from .certificates import (
    SIDE_UPPER,
    SIDES,
    TARGET_AT_LEAST,
    TARGETS,
    BoundCertificate,
)
from .core import EventSystem, IndexTuple, binomial
from .errors import (
    DegenerateConfigurationError,
    DegenerateMeasureError,
    InfeasibleMomentsError,
    NotApplicableError,
    ResourceLimitError,
)
from .moments import MomentMatrix, MomentSet, MomentVector, moment_matrix
from .numerics import (
    DEFAULT_TOLERANCE,
    Number,
    all_exact,
    clamp01,
    dot_product,
    encode_number,
    over_common_denominator,
    rational,
)


@dataclass(frozen=True)
class TargetVector:
    """The 0/1 vector selecting which occurrence levels count toward Z.

    Position u (1-based, u = 1..n-d+1) refers to occurrence level u+d-1.
    The at-least-r target is zeros followed by ones starting at position
    r-d+1; the exactly-r target is a single one at that position.
    """

    n: int
    d: int
    r: int
    target: str
    v: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.target not in TARGETS:
            raise ValueError(f"target must be one of {TARGETS}, got {self.target!r}")
        if not (0 <= self.d <= self.r <= self.n):
            raise ValueError(
                f"need 0 <= d <= r <= n, got d={self.d}, r={self.r}, n={self.n}"
            )
        v = tuple(self.v)
        if len(v) != self.n - self.d + 1 or any(x not in (0, 1) for x in v):
            raise ValueError("target vector must be 0/1 of length n-d+1")
        object.__setattr__(self, "v", tuple(int(x) for x in v))


def target_vector(n: int, d: int, r: int, target: str = TARGET_AT_LEAST) -> TargetVector:
    """Build the target vector for at-least-r or exactly-r."""
    if not (0 <= d <= r <= n):
        raise ValueError(f"need 0 <= d <= r <= n, got d={d}, r={r}, n={n}")
    positions = n - d + 1
    pivot = r - d + 1
    if target == TARGET_AT_LEAST:
        v = tuple(1 if u >= pivot else 0 for u in range(1, positions + 1))
    elif target in TARGETS:
        v = tuple(1 if u == pivot else 0 for u in range(1, positions + 1))
    else:
        raise ValueError(f"target must be one of {TARGETS}, got {target!r}")
    return TargetVector(n=n, d=d, r=r, target=target, v=v)


class Feasibility(enum.Enum):
    """Outcome of comparing b = F^T a against the target vector v."""

    LOWER_FEASIBLE = "lower-feasible"
    UPPER_FEASIBLE = "upper-feasible"
    EQUALITY = "equality"
    INFEASIBLE = "infeasible"

    @property
    def allows_lower(self) -> bool:
        """True when s . a is a valid lower bound (b <= v)."""
        return self in (Feasibility.LOWER_FEASIBLE, Feasibility.EQUALITY)

    @property
    def allows_upper(self) -> bool:
        """True when s . a is a valid upper bound (b >= v)."""
        return self in (Feasibility.UPPER_FEASIBLE, Feasibility.EQUALITY)


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


def _target_components(v: "TargetVector | Sequence[int]") -> tuple:
    return tuple(v.v) if isinstance(v, TargetVector) else tuple(v)


def solve_coefficients(
    fmat: MomentMatrix, index_set: Sequence[int], v: "TargetVector | Sequence[int]"
) -> tuple[Number, ...]:
    """Solve the dual system: the coefficient vector a with (F^T a)_i = v_i.

    The moment matrix is integer and its square subsystems on strictly
    increasing index sets are invertible, so the solve is always exact.
    """
    index_set = _check_index_set(fmat, index_set)
    components = _target_components(v)
    if len(components) != fmat.positions:
        raise ValueError(
            f"target vector must have {fmat.positions} components, got {len(components)}"
        )
    rhs = tuple(components[i - 1] for i in index_set)
    system_rows = [fmat.column(i) for i in index_set]
    if all_exact(rhs):
        return _solve_exact(system_rows, rhs)
    return _solve_float(system_rows, rhs)


def check_feasibility(
    fmat: MomentMatrix,
    a: Sequence[Number],
    v: "TargetVector | Sequence[int]",
    tolerance: float = DEFAULT_TOLERANCE,
) -> Feasibility:
    """Compare b = F^T a with v componentwise.

    b >= v makes s . a an upper bound on Z, b <= v a lower bound, equality
    both.  Exact values compare exactly; if a carries floats, each
    component check allows the given absolute slack.
    """
    if len(a) != fmat.ell:
        raise ValueError(f"coefficient vector must have {fmat.ell} entries, got {len(a)}")
    components = _target_components(v)
    exact = all_exact(a)
    slack = 0 if exact else tolerance
    lower = upper = True
    for i in range(1, fmat.positions + 1):
        column = fmat.column(i)
        b_i = dot_product(a, column)
        target = components[i - 1]
        if not exact:
            b_i, target = float(b_i), float(target)
        if b_i > target + slack:
            lower = False
        if b_i < target - slack:
            upper = False
        if not lower and not upper:
            return Feasibility.INFEASIBLE
    if lower and upper:
        return Feasibility.EQUALITY
    return Feasibility.LOWER_FEASIBLE if lower else Feasibility.UPPER_FEASIBLE


def bound_value(s: "MomentVector | Sequence[Number]", a: Sequence[Number]) -> Number:
    """The bound value: scalar product of the moments with the coefficients."""
    values = s.values if isinstance(s, MomentVector) else tuple(s)
    return dot_product(a, values)


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
    tolerance: float = DEFAULT_TOLERANCE,
) -> SharpnessWitness:
    """Solve F_i z*_i = s and embed the solution in the full position range."""
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
    if exact:
        nonnegative = all(entry >= 0 for entry in solution)
    else:
        nonnegative = all(float(entry) >= -tolerance for entry in solution)
    return SharpnessWitness(z=tuple(z), index_set=index_set, nonnegative=nonnegative)


def has_nonnegative_solution(
    fmat: MomentMatrix,
    s: "MomentVector | Sequence[Number]",
    tolerance: float = DEFAULT_TOLERANCE,
) -> bool:
    """True when some z >= 0 has F z = s.

    A basic solution of {F z = s, z >= 0} is supported on ell positions,
    and any ell columns of F are independent, so such a z exists exactly
    when some index set gives a nonnegative sharpness witness.  Index sets
    are tried in lexicographic order up to the first nonnegative one.
    Float moments go through :func:`sharpness_witness` with the given
    tolerance.  Exact moments only need the signs of the integer
    numerators, so they skip building the witness's rationals, which
    halves the check's cost.
    """
    values = s.values if isinstance(s, MomentVector) else tuple(s)
    if len(values) != fmat.ell:
        raise ValueError(f"moment vector must have {fmat.ell} entries, got {len(values)}")
    index_sets = itertools.combinations(range(1, fmat.positions + 1), fmat.ell)
    if not all_exact(values):
        return any(
            sharpness_witness(fmat, index_set, values, tolerance).nonnegative
            for index_set in index_sets
        )
    moments, _ = over_common_denominator(values)
    for index_set in index_sets:
        rows = [[row[i - 1] for i in index_set] for row in fmat.rows]
        numerators, _ = solve_integer(rows, moments)
        if all(x >= 0 for x in numerators):
            return True
    return False


def check_realizable(moments: MomentSet, tolerance: float = DEFAULT_TOLERANCE) -> None:
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
        if not has_nonnegative_solution(fmat, values, tolerance):
            raise InfeasibleMomentsError(
                f"no distribution has the moments {[encode_number(x) for x in values]} "
                f"at j={list(vector.j)}: no occurrence vector z >= 0 gives them"
            )


@dataclass(frozen=True, slots=True)
class DualBasis:
    """A side-feasible index set with its coefficients a = numerators / den."""

    index_set: tuple[int, ...]
    numerators: tuple[int, ...]
    den: int


@dataclass(frozen=True)
class BasisTable:
    """The side-feasible index sets of one shape (F, v, side).

    A set whose targets are all zero solves to a = 0, which is always
    lower-feasible and upper-feasible only when v = 0.  On the lower side
    such sets are nearly all sets, so they are not stored one by one: every
    ell-subset of ``zero_positions`` is feasible with value 0, where
    ``zero_positions`` lists the positions with v_i = 0 when a = 0 is
    feasible for the side and is empty otherwise.  ``bases`` holds the
    other feasible sets in lexicographic order, plus the first zero set,
    which stands for all of them in a search: they share the value 0 and
    ties go to the first.
    """

    ell: int
    bases: tuple[DualBasis, ...]
    zero_positions: tuple[int, ...]

    def __iter__(self) -> Iterator[DualBasis]:
        """Every feasible set in lexicographic order, zero sets made on demand."""
        zeros = (0,) * self.ell
        rest = itertools.islice(itertools.combinations(self.zero_positions, self.ell), 1, None)
        return heapq.merge(
            self.bases,
            (DualBasis(index_set, zeros, 1) for index_set in rest),
            key=operator.attrgetter("index_set"),
        )


@dataclass(frozen=True)
class SearchResult:
    """Outcome of enumerating index sets for one side.

    ``best`` is None when no index set was feasible for the requested side,
    which callers should treat as "no bound of this shape exists here".
    ``feasible`` lists every index set whose coefficient vector was
    feasible for the side, in lexicographic order.
    """

    side: str
    best: Optional[BoundCertificate]
    table: BasisTable = field(repr=False)

    @property
    def feasible(self) -> tuple[tuple[int, ...], ...]:
        return tuple(basis.index_set for basis in self.table)


def dual_bases(
    fmat: MomentMatrix,
    v: "TargetVector | Sequence[int]",
    side: str,
    max_combinations: int = 1_000_000,
) -> BasisTable:
    """The table of index sets whose dual solution is feasible for the side.

    Feasibility depends only on the shape (F, v, side), never on the
    moments, so the table is built once per shape and cached.  Each set is
    solved on integers (:func:`solve_integer`) and b = F^T a is compared
    with v through the sign of N . F_i - v_i den.  The enumeration is
    guarded by ``max_combinations``, checked before any solve.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    total = math.comb(fmat.positions, fmat.ell)
    if total > max_combinations:
        raise ResourceLimitError(
            f"{total} index sets exceed the enumeration cap of {max_combinations}"
        )
    components = _target_components(v)
    if len(components) != fmat.positions or not all(
        isinstance(x, int) and x in (0, 1) for x in components
    ):
        raise ValueError(f"target vector must be {fmat.positions} integers 0 or 1, got {components}")
    return _basis_table(fmat, components, side)


@lru_cache(maxsize=32)
def _basis_table(fmat: MomentMatrix, v: tuple[int, ...], side: str) -> BasisTable:
    columns = [fmat.column(i) for i in range(1, fmat.positions + 1)]
    checks = list(zip(columns, v))
    upper = side == SIDE_UPPER
    zero_positions = ()
    if not upper or not any(v):
        zero_positions = tuple(i for i in range(1, fmat.positions + 1) if not v[i - 1])
    first_zero = next(itertools.combinations(zero_positions, fmat.ell), None)
    bases = []
    for index_set in itertools.combinations(range(1, fmat.positions + 1), fmat.ell):
        rhs = [v[i - 1] for i in index_set]
        if not any(rhs):
            if index_set == first_zero:
                bases.append(DualBasis(index_set, (0,) * fmat.ell, 1))
            continue
        numerators, den = solve_integer([columns[i - 1] for i in index_set], rhs)
        for column, target in checks:
            gap = sum(map(operator.mul, numerators, column)) - target * den
            if gap < 0 if upper else gap > 0:
                break
        else:
            bases.append(DualBasis(index_set, numerators, den))
    return BasisTable(fmat.ell, tuple(bases), zero_positions)


def search_index_sets(
    fmat: MomentMatrix,
    v: TargetVector,
    s: "MomentVector | Sequence[Number]",
    side: str,
    max_combinations: int = 1_000_000,
    tolerance: float = DEFAULT_TOLERANCE,
) -> SearchResult:
    """Keep the best bound over the side-feasible index sets.

    Upper side keeps the smallest s . a over upper-feasible sets, lower
    side the largest over lower-feasible ones; ties go to the
    lexicographically first index set.  The feasible sets come from the
    shape's :func:`dual_bases` table, whose stored bases are all a search
    needs.  Exact moments are compared on
    integers, N . S over a common moment denominator cross-multiplied by
    den; float moments by the float dot product.  Only the winner becomes
    rational coefficients, a value and a sharpness witness.
    """
    table = dual_bases(fmat, v, side, max_combinations)
    values = s.values if isinstance(s, MomentVector) else tuple(s)
    if len(values) != fmat.ell:
        raise ValueError(f"moment vector must have {fmat.ell} entries, got {len(values)}")
    upper = side == SIDE_UPPER
    best: Optional[DualBasis] = None
    if all_exact(values):
        moments, _ = over_common_denominator(values)
        best_key = best_den = 0
        for basis in table.bases:
            key = sum(map(operator.mul, basis.numerators, moments))
            if best is None or (
                key * best_den < best_key * basis.den
                if upper
                else key * best_den > best_key * basis.den
            ):
                best, best_key, best_den = basis, key, basis.den
    else:
        # N_k / den rounds to the same float as a_k does, so each key equals
        # the float dot product of a and s that bound_value computes.
        moments = [float(x) for x in values]
        best_float = 0.0
        for basis in table.bases:
            key = sum(map(operator.mul, [x / basis.den for x in basis.numerators], moments))
            if best is None or (key < best_float if upper else key > best_float):
                best, best_float = basis, key
    certificate = None
    if best is not None:
        coefficients = tuple(rational(x, best.den) for x in best.numerators)
        value = bound_value(values, coefficients)
        certificate = BoundCertificate(
            value=value,
            clamped=clamp01(value),
            side=side,
            target=v.target,
            r=v.r,
            d=fmat.d,
            ell=fmat.ell,
            formula_id="search",
            coefficients=coefficients,
            index_set=best.index_set,
            witness=sharpness_witness(fmat, best.index_set, values, tolerance),
        )
    return SearchResult(side=side, best=certificate, table=table)


def witness_system(
    witness: SharpnessWitness, j: "IndexTuple | Iterable[int]", n: int, d: int
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
    j = IndexTuple.coerce(j)
    j.validate_for(n)
    if j.d != d:
        raise ValueError(f"index tuple has {j.d} entries, expected d={d}")
    exact = all_exact(witness.z)
    base = j.mask
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
    if (leftover < 0) if exact else (float(leftover) < -DEFAULT_TOLERANCE):
        raise DegenerateMeasureError(
            f"witness mass exceeds one ({total}); the moments are not from a probability measure"
        )
    if leftover > 0:
        weights[0] = weights.get(0, rational(0) if exact else 0.0) + leftover
    return EventSystem(n=n, weights=weights)


def jordan_coefficients(fmat: MomentMatrix, v: TargetVector) -> tuple[Number, ...]:
    """The coefficients a with s . a = Z for every moment vector s.

    Requires ell = n-d+1 so the moment matrix is square.  The matrix is
    unitriangular in its leading block, hence invertible, and both
    feasibility directions hold at the solution, so s . a is Z itself, not
    merely a bound.
    """
    if fmat.ell != fmat.positions:
        raise NotApplicableError(
            f"exact evaluation needs ell = n-d+1 = {fmat.positions}, got ell={fmat.ell}"
        )
    return solve_coefficients(fmat, tuple(range(1, fmat.positions + 1)), v)


def jordan_exact(fmat: MomentMatrix, v: TargetVector, s: "MomentVector | Sequence[Number]") -> Number:
    """Exact value of Z from the full-order moment system (:func:`jordan_coefficients`)."""
    return bound_value(s, jordan_coefficients(fmat, v))
