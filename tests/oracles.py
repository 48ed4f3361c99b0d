"""Test-only oracles: independent routes to quantities the package computes.

``moments_via_factorial`` and ``moments_via_subsets`` compute one tuple's
moments from falling-factorial expectations and from sums of intersection
probabilities, and ``z_via_joint`` the occurrence vector z(j) that the
moment matrix maps to them, from :func:`eventbounds.core.exact_joint`; the
tests hold :func:`eventbounds.moments.moment_set` to them.  ``permute_events``
relabels the events of a system, for symmetry checks.  ``level_sums_by_tuple``
sums atom weights per index tuple and level, one tuple at a time; the tests
hold :func:`eventbounds.moments._level_sums` to it.  ``reference_solve``
solves a small system on ``Fraction``s, ``integer_solve`` gives its
solution as integer numerators over |det|, ``realizable`` asks whether
some z >= 0 has the moments, and ``dual_gaps`` and ``feasible_sides``
compare b = F^T a with a target vector v on ``Fraction``s: the dual
engine's and the checker's tests hold them to these.
``check_realizable_by_scan`` tests every tuple against every facet of
``engine._facets``, and ``moments_by_values`` reads a moment file by its
per-value loop alone, value by value with ``to_number``; the tests hold
:func:`eventbounds.engine.check_realizable` and
:meth:`eventbounds.moments.MomentSet.from_payload` to them.  ``partition_fault``
scans a partition's atoms one by one for the message
:class:`eventbounds.conditional.PartitionField` must raise.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from eventbounds import engine

from eventbounds.core import (
    EventSystem,
    atom_masses,
    binomial,
    event_mask,
    exact_joint,
    falling_factorial,
)
from eventbounds.errors import InfeasibleMomentsError, InputFormatError
from eventbounds.moments import MomentMatrix, MomentSet, MomentVector
from eventbounds.numerics import (
    DEFAULT_TOLERANCE,
    Number,
    all_exact,
    encode_number,
    leq,
    rational,
    to_number,
    zero,
)


def moments_via_factorial(sys: EventSystem, j: Iterable[int], ell: int) -> MomentVector:
    """Moments of j computed from falling-factorial expectations.

    s_k(j) = (d!/(k+d-1)!) * sum over atoms containing j of
    weight * (count - d) falling (k-1).
    """
    j = tuple(j)
    d = len(j)
    if ell < 2 or ell > sys.n - d + 1:
        raise ValueError(f"need 2 <= ell <= n-d+1 = {sys.n - d + 1}, got ell={ell}")
    jmask = event_mask(j, sys.n)
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
    return MomentVector(j, values)


def moments_via_subsets(sys: EventSystem, j: Iterable[int], ell: int) -> MomentVector:
    """Moments of j as sums of intersection probabilities.

    The order-k moment is (k-1)! * d!/(k+d-1)! times the sum, over all
    unordered (k-1)-subsets U of indices outside j, of P(all events of
    U and of j occur).  Using unordered subsets with the (k-1)! factor
    avoids enumerating ordered tuples.
    """
    j = tuple(j)
    d = len(j)
    if ell < 2 or ell > sys.n - d + 1:
        raise ValueError(f"need 2 <= ell <= n-d+1 = {sys.n - d + 1}, got ell={ell}")
    jmask = event_mask(j, sys.n)
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
    return MomentVector(j, tuple(values))


def z_via_joint(sys: EventSystem, j: Iterable[int]) -> tuple[Number, ...]:
    """z(j) by direct enumeration: entry u (u = 1..n-d+1) is P(exactly u+d-1
    events occur and all of j occur) divided by C(u+d-1, d)."""
    j = tuple(j)
    d = len(j)
    return tuple(
        exact_joint(sys, u + d - 1, j) / binomial(u + d - 1, d) for u in range(1, sys.n - d + 2)
    )


def level_sums_by_tuple(weights: Mapping[int, Number], n: int, d: int) -> dict[tuple[int, ...], list]:
    """For each index tuple j of order d and level i, the sum of the weights
    of the atoms with i events whose mask contains j, atoms in the order of
    ``weights``."""
    table = {}
    for j in itertools.combinations(range(1, n + 1), d):
        jmask = sum(1 << (k - 1) for k in j)
        levels = [0] * (n + 1)
        for mask, weight in weights.items():
            if (mask & jmask) == jmask:
                levels[mask.bit_count()] += weight
        table[j] = levels
    return table


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


def reference_solve(rows: Sequence[Sequence[Number]], rhs: Sequence[Number]) -> tuple[Fraction, ...]:
    """Gauss-Jordan on Fractions, pivoting on the first nonzero entry."""
    size = len(rows)
    mat = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if mat[r][col] != 0)
        mat[col], mat[pivot] = mat[pivot], mat[col]
        mat[col] = [x / mat[col][col] for x in mat[col]]
        for r in range(size):
            if r != col and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[col])]
    return tuple(mat[r][size] for r in range(size))


def determinant(rows: Sequence[Sequence[Number]]) -> Fraction:
    """Gaussian elimination on Fractions, pivoting on the first nonzero entry."""
    mat = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(len(mat)):
        pivot = next((r for r in range(col, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        for r in range(col + 1, len(mat)):
            factor = mat[r][col] / mat[col][col]
            mat[r] = [x - factor * y for x, y in zip(mat[r], mat[col])]
    return det


def integer_solve(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """A nonsingular integer system's solution as integer numerators over
    den = |det| (by Cramer's rule, det times each entry is an integer):
    Gaussian elimination on Fractions, pivoting on the first nonzero entry,
    then back substitution.  A singular system raises ValueError."""
    size = len(rows)
    mat = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if mat[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular linear system")
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        head = mat[col]
        det *= head[col]
        for r in range(col + 1, size):
            factor = mat[r][col] / head[col]
            mat[r] = [x - factor * y for x, y in zip(mat[r], head)]
    x = [Fraction(0)] * size
    for k in range(size - 1, -1, -1):
        row = mat[k]
        x[k] = (row[size] - sum(row[j] * x[j] for j in range(k + 1, size))) / row[k]
    numerators = [entry * abs(det) for entry in x]
    assert all(entry.denominator == 1 for entry in numerators)
    return tuple(int(entry) for entry in numerators), int(abs(det))


def realizable(fmat: MomentMatrix, s: Sequence[Number]) -> bool:
    """True when some z >= 0 has F z = s, on Fractions.  A basic solution of
    {F z = s, z >= 0} is supported on ell positions, and any ell columns of
    F are independent, so such a z exists exactly when some index set
    solves to a nonnegative z."""
    return any(
        min(reference_solve([[row[i - 1] for i in index_set] for row in fmat.rows], s)) >= 0
        for index_set in itertools.combinations(range(1, fmat.positions + 1), fmat.ell)
    )


def dual_gaps(fmat: MomentMatrix, a: Sequence[Number], v: Sequence[int]) -> tuple[Fraction, ...]:
    """b - v at every position, where b = F^T a, on Fractions."""
    return tuple(
        sum((Fraction(c) * Fraction(x) for c, x in zip(column, a)), Fraction(0)) - target
        for column, target in zip(zip(*fmat.rows), v)
    )


def feasible_sides(fmat: MomentMatrix, a: Sequence[Number], v: Sequence[int]) -> set[str]:
    """The sides s . a bounds Z on: upper when b >= v everywhere, lower when
    b <= v; both at equality, neither when b crosses v."""
    gaps = dual_gaps(fmat, a, v)
    return {side for side, holds in (("upper", min(gaps) >= 0), ("lower", max(gaps) <= 0)) if holds}


def partition_fault(n: int, blocks: Sequence[Sequence[object]]) -> str | None:
    """The message a partition of the 2^n atoms into ``blocks`` must raise, or
    None for a partition: one scan of every atom, block by block and in
    sorted order within a block, names the first empty block, the first atom
    that is not an int (bools included) in 0..2^n-1, or the first atom seen
    before; after the scan, the least atom that no block holds."""
    size = 1 << n
    seen: set[int] = set()
    for index, block in enumerate(blocks):
        if not block:
            return f"block {index} is empty"
        for atom in sorted(block):
            if isinstance(atom, bool) or not isinstance(atom, int) or not 0 <= atom < size:
                return f"atom mask {atom!r} out of range for n={n}"
            if atom in seen:
                return f"atom {atom} appears in more than one block"
            seen.add(atom)
    missing = [atom for atom in range(size) if atom not in seen]
    return f"blocks do not cover all atoms; atom {missing[0]} is missing" if missing else None


def check_realizable_by_scan(moments: MomentSet) -> None:
    """Reject moments off the cone at their first min(ell, 3) orders, testing
    every tuple against every facet normal of ``engine._facets``, exact or
    float, with the message of :func:`eventbounds.engine.check_realizable`."""
    positions = moments.n - moments.d + 1
    orders = min(moments.ell, 3, positions)
    if orders < 2:
        return
    facets = engine._facets(positions, moments.d, orders)
    for vector, (_, s, den) in zip(moments, moments.forms(orders)[0]):
        slack = 0 if den else DEFAULT_TOLERANCE
        if any(sum(map(operator.mul, a, s)) < -slack * scale for a, scale in facets):
            values = vector.values[:orders]
            raise InfeasibleMomentsError(
                f"no distribution has the moments {[encode_number(x) for x in values]} "
                f"at j={list(vector.j)}: no occurrence vector z >= 0 gives them"
            )


def moments_by_values(payload: object) -> MomentSet:
    """A moment file read record by record and value by value with
    ``to_number``, with the checks and messages of ``MomentSet.from_payload``
    in its order, and the facets scanned (:func:`check_realizable_by_scan`)."""
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
        for index, record in enumerate(entries):
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
        moments = MomentSet(n=n, d=d, ell=ell, vectors=vectors)
        if not all(all_exact(vector.values) for vector in vectors):
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
    check_realizable_by_scan(moments)
    return moments
