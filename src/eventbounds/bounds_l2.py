"""Closed-form bounds from the first two moment orders.

Each family fixes a two-position index set of the dual system, and its
coefficient row is the solution there (:func:`eventbounds.families.solved_row`).

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

from typing import Callable

from .certificates import SIDE_LOWER, SIDE_UPPER, TARGET_AT_LEAST
from .families import Family, solved_row, window_candidates


def _l2_windows(n: int, r: int, d: int, lo: int, hi: int) -> Callable:
    """Per moment vector, the bracket m-1 <= (d+1) s_2/s_1 <= m when s_1 > 0,
    else the endpoints."""
    scale = d + 1
    return lambda values: window_candidates(scale * values[1], values[0], lo, hi)


FAMILY_ROWS = (
    Family(
        "u1", SIDE_UPPER, 2,
        applies=lambda n, r, d, target: r - d >= 1,
        row=lambda n, r, d, target, m: solved_row(n, r, d, target, (1, r - d + 1), None),
    ),
    Family(
        "u2", SIDE_UPPER, 2,
        applies=lambda n, r, d, target: n - r >= 1,
        row=lambda n, r, d, target, m: solved_row(n, r, d, target, (r - d + 1, n - d + 1), None),
    ),
    Family(
        "l1", SIDE_LOWER, 2,
        applies=lambda n, r, d, target: r - d >= 1 and (target == TARGET_AT_LEAST or r == n),
        row=lambda n, r, d, target, m: solved_row(n, r, d, target, (r - d, n - d + 1), None),
    ),
    Family(
        "l2", SIDE_LOWER, 2,
        applies=lambda n, r, d, target: r == d >= 1 and n - d >= 1,
        row=lambda n, r, d, target, m: (
            solved_row(n, r, d, target, (1, 2), None) if m is None
            else solved_row(n, r, d, target, (m, m + 1), m)
        ),
        windows={TARGET_AT_LEAST: lambda n, r, d: (1, n - d)},
        pick=_l2_windows,
    ),
)
