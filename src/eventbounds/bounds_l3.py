"""Closed-form bounds from the first three moment orders.

Six families cover the three-position index sets that admit closed forms;
each row is the solution of the dual system at the family's index set
(:func:`eventbounds.families.solved_row`).  Writing N = n - d + 1 for the
position count, and m for a sliding window position chosen per index
tuple:

upper bounds
  * ``ub1`` (r - d >= 2): positions (m, m+1, r-d+1), m in 1..r-d-1; the
    same row bounds both targets.
  * ``ub2`` (r - d >= 1, n - r >= 1): positions (1, r-d+1, N), one row per
    target.
  * ``ub3`` (n - r >= 2): positions (r-d+1, m, m+1), m in r-d+2..n-d; the
    exactly target reuses the ``ub1`` row on this high window range.

lower bounds
  * ``lb1`` (r - d >= 2): positions (1, r-d, N); the exactly target exists
    only at r = n.
  * ``lb2`` (r - d >= 1, n - r >= 1): positions (r-d, m, m+1), m in
    r-d+1..n-d; the exactly target uses the fixed window m = r-d+1.
  * ``lb3`` (r = d, n - d >= 2): positions (m, m+1, N), m in 1..n-d-1;
    the exactly target uses the fixed window m = 1.

Windows are picked per index tuple by the family's bracket rule
(``_bracket``): the integer bracket when its sign condition holds (it
comes from requiring the sharpness witness at the window to be
nonnegative, so the bracketed window attains the bound), the range
endpoints otherwise.  The families are evaluated through
:mod:`eventbounds.families`; requests reach them through
:func:`eventbounds.dispatch.evaluate_request`.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from .certificates import SIDE_LOWER, SIDE_UPPER, TARGET_AT_LEAST, TARGETS
from .families import Family, solved_row, window_candidates
from .numerics import Number


def _bracket(
    rule: str, values: Sequence[Number], n: int, r: int, d: int, lo: int, hi: int
) -> tuple[int, ...]:
    """Candidate windows of one rule: the integer bracket when its sign
    condition holds, the range endpoints otherwise."""
    s1, s2, s3 = values
    if rule == "mop":
        den = (r - d) * s1 - (d + 1) * s2
        num = (d + 1) * ((r - d - 1) * s2 - (d + 2) * s3)
        if lo >= r - d + 2:
            # High-range windows invert the quotient's sign condition.
            den, num = -den, -num
    elif rule == "mop1":
        den = (d + 1) * s2 - (r - d - 1) * s1
        num = (d + 1) * ((d + 2) * s3 - (r - d - 2) * s2)
    else:
        den = (n - d) * s1 - (d + 1) * s2
        num = (d + 1) * ((n - d - 1) * s2 - (d + 2) * s3)
    return window_candidates(num, den, lo, hi)


FAMILY_ROWS = (
    Family(
        "ub1", SIDE_UPPER, 3,
        applies=lambda n, r, d, target: r - d >= 2,
        row=lambda n, r, d, target, m: solved_row(n, r, d, target, (m, m + 1, r - d + 1), m),
        windows=dict.fromkeys(TARGETS, lambda n, r, d: (1, r - d - 1)),
        pick=partial(_bracket, "mop"),
    ),
    Family(
        "ub2", SIDE_UPPER, 3,
        applies=lambda n, r, d, target: r - d >= 1 and n - r >= 1,
        row=lambda n, r, d, target, m: solved_row(n, r, d, target, (1, r - d + 1, n - d + 1), None),
    ),
    Family(
        "ub3", SIDE_UPPER, 3,
        applies=lambda n, r, d, target: n - r >= 2,
        row=lambda n, r, d, target, m: solved_row(n, r, d, target, (r - d + 1, m, m + 1), m),
        windows=dict.fromkeys(TARGETS, lambda n, r, d: (r - d + 2, n - d)),
        pick=partial(_bracket, "mop"),
    ),
    Family(
        "lb1", SIDE_LOWER, 3,
        applies=lambda n, r, d, target: r - d >= 2 and (target == TARGET_AT_LEAST or r == n),
        row=lambda n, r, d, target, m: solved_row(n, r, d, target, (1, r - d, n - d + 1), None),
    ),
    Family(
        "lb2", SIDE_LOWER, 3,
        applies=lambda n, r, d, target: r - d >= 1 and n - r >= 1,
        row=lambda n, r, d, target, m: (
            solved_row(n, r, d, target, (r - d, r - d + 1, r - d + 2), r - d + 1) if m is None
            else solved_row(n, r, d, target, (r - d, m, m + 1), m)
        ),
        windows={TARGET_AT_LEAST: lambda n, r, d: (r - d + 1, n - d)},
        pick=partial(_bracket, "mop1"),
    ),
    Family(
        "lb3", SIDE_LOWER, 3,
        applies=lambda n, r, d, target: r == d and n - d >= 2,
        row=lambda n, r, d, target, m: (
            solved_row(n, r, d, target, (1, 2, n - d + 1), 1) if m is None
            else solved_row(n, r, d, target, (m, m + 1, n - d + 1), m)
        ),
        windows={TARGET_AT_LEAST: lambda n, r, d: (1, n - d - 1)},
        pick=partial(_bracket, "mop2"),
    ),
)
