"""Closed-form bounds from the first two moment orders.

Each family fixes a two-position index set of the dual system and has an
explicit coefficient vector, so no linear solve is needed at evaluation
time; the engine module reproduces every vector here from its index set,
which the test suite checks.

Families and applicability (writing N = n - d + 1 for the position count):

* ``u1`` (upper, r > d): positions (1, r-d+1); uses only the second
  moment.  The same value bounds both the at-least-r and exactly-r
  probabilities; at d=0, r=1 it is the classical union bound.
* ``u2`` (upper, r < n): positions (r-d+1, N); separate coefficient
  vectors for the two targets.
* ``l1`` (lower, r > d): positions (r-d, N); for the exactly target it
  applies only at r = n.
* ``l2`` (lower, r = d >= 1): positions (m, m+1) with a window position
  m in 1..n-d chosen per index tuple; the exactly target uses the fixed
  window m = 1.

Every bound is a sum over the index tuples of order d.  The families are
evaluated through :mod:`eventbounds.families`; requests reach them
through :func:`eventbounds.dispatch.evaluate_request`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .certificates import SIDE_LOWER, SIDE_UPPER, TARGET_AT_LEAST
from .core import binomial
from .errors import DegenerateConfigurationError
from .families import Family, Row, window_candidates
from .numerics import rational


def two_moment_minor(n: int, r: int, d: int) -> int:
    """C(n, d+1) C(r, d) - C(n, d) C(r, d+1), the denominator of the bases
    anchored at occurrence levels r and n; the three-moment families use it
    at d + 1.  Raises when it vanishes."""
    minor = binomial(n, d + 1) * binomial(r, d) - binomial(n, d) * binomial(r, d + 1)
    if minor == 0:
        raise DegenerateConfigurationError(
            f"degenerate two-moment configuration at n={n}, r={r}, d={d}"
        )
    return minor


# Each row is cached under the arguments it depends on, so its integer and
# float forms are built once.
_ROW_CACHE = 1024


@lru_cache(maxsize=_ROW_CACHE)
def _u1_row(r: int, d: int) -> Row:
    return Row.of((rational(0), rational(1, binomial(r, d + 1))), (1, r - d + 1))


@lru_cache(maxsize=_ROW_CACHE)
def _u2_row(n: int, r: int, d: int, at_least: bool) -> Row:
    denominator = two_moment_minor(n, r, d)
    if at_least:
        coefficients = (
            rational(binomial(n, d + 1) - binomial(r, d + 1), denominator),
            rational(binomial(r, d) - binomial(n, d), denominator),
        )
    else:
        coefficients = (
            rational(binomial(n, d + 1), denominator),
            rational(-binomial(n, d), denominator),
        )
    return Row.of(coefficients, (r - d + 1, n - d + 1))


@lru_cache(maxsize=_ROW_CACHE)
def _l1_row(n: int, r: int, d: int) -> Row:
    denominator = two_moment_minor(n, r - 1, d)
    coefficients = (
        rational(-binomial(r - 1, d + 1), denominator),
        rational(binomial(r - 1, d), denominator),
    )
    return Row.of(coefficients, (r - d, n - d + 1))


@lru_cache(maxsize=_ROW_CACHE)
def _l2_row(d: int, m: Optional[int]) -> Row:
    """The window (m, m+1) row of the at-least target, or the exactly row for m = None."""
    if m is not None:
        scale = rational(d + 1, (m + d) * binomial(m + d - 1, d))
        return Row.of((scale * m, -scale * d), (m, m + 1), m)
    return Row.of((rational(1), rational(-(d + 1))), (1, 2))


def _l2_windows(values, n: int, r: int, d: int, lo: int, hi: int) -> tuple[int, ...]:
    """The bracket m-1 <= (d+1) s_2/s_1 <= m when s_1 > 0, else the endpoints."""
    s1, s2 = values
    return window_candidates((d + 1) * s2, s1, lo, hi)


FAMILY_ROWS = (
    Family(
        "u1", SIDE_UPPER, 2,
        applies=lambda n, r, d, target: r - d >= 1,
        row=lambda n, r, d, target, m: _u1_row(r, d),
    ),
    Family(
        "u2", SIDE_UPPER, 2,
        applies=lambda n, r, d, target: n - r >= 1,
        row=lambda n, r, d, target, m: _u2_row(n, r, d, target == TARGET_AT_LEAST),
    ),
    Family(
        "l1", SIDE_LOWER, 2,
        applies=lambda n, r, d, target: r - d >= 1 and (target == TARGET_AT_LEAST or r == n),
        row=lambda n, r, d, target, m: _l1_row(n, r, d),
    ),
    Family(
        "l2", SIDE_LOWER, 2,
        applies=lambda n, r, d, target: r == d >= 1 and n - d >= 1,
        row=lambda n, r, d, target, m: _l2_row(d, m if target == TARGET_AT_LEAST else None),
        windows={TARGET_AT_LEAST: lambda n, r, d: (1, n - d)},
        pick=_l2_windows,
    ),
)
