"""Test-only oracles: independent routes to quantities the package computes.

``moments_via_factorial`` and ``moments_via_subsets`` compute one tuple's
moments from falling-factorial expectations and from sums of intersection
probabilities, and ``z_via_joint`` the occurrence vector z(j) that the
moment matrix maps to them, from :func:`eventbounds.core.exact_joint`; the
tests hold :func:`eventbounds.moments.moment_set` to them.  ``permute_events``
relabels the events of a system, for symmetry checks.  ``level_sums_by_tuple``
sums atom weights per index tuple and level, one tuple at a time; the tests
hold :func:`eventbounds.moments._level_sums` to it.  ``reference_solve``
solves a small system on ``Fraction``s, and ``dual_gaps`` and
``feasible_sides`` compare b = F^T a with a target vector v on
``Fraction``s: the dual engine's and the checker's tests hold them to these.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from eventbounds.core import (
    EventSystem,
    atom_masses,
    binomial,
    event_mask,
    exact_joint,
    falling_factorial,
)
from eventbounds.moments import MomentMatrix, MomentVector
from eventbounds.numerics import Number, rational, zero


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
    return MomentVector(j=j, n=sys.n, d=d, ell=ell, values=values)


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
    return MomentVector(j=j, n=sys.n, d=d, ell=ell, values=tuple(values))


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
