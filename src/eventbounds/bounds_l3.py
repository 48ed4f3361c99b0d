"""Closed-form bounds from the first three moment orders.

Six families cover the three-position index sets that admit closed forms;
each is reproduced by the engine module from its index set (writing
N = n - d + 1 for the position count, and m for a sliding window position
chosen per index tuple):

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

from functools import lru_cache, partial
from typing import Optional, Sequence

from .bounds_l2 import _ROW_CACHE, two_moment_minor
from .certificates import SIDE_LOWER, SIDE_UPPER, TARGET_AT_LEAST, TARGETS
from .core import binomial
from .errors import DegenerateConfigurationError
from .families import Family, Row, window_candidates
from .numerics import Number, rational


def _alpha_row(top: int, d: int, m: int) -> tuple[Number, Number, Number]:
    """(m(m-1), -2(d+1)(m-1), (d+1)(d+2)) / (C(top, d) D), D = (top-d-m)(top-d-m+1)."""
    delta = (top - d - m) * (top - d - m + 1)
    if delta == 0:
        raise DegenerateConfigurationError(f"window m={m} collides with the pivot {top - d}")
    den = delta * binomial(top, d)
    return (
        rational(m * (m - 1), den),
        rational(-2 * (d + 1) * (m - 1), den),
        rational((d + 1) * (d + 2), den),
    )


def _window_row(top: int, d: int, m: int) -> tuple[Number, Number, Number]:
    """The window (m, m+1) share of a row anchored at position top-d+1.

    It is the whole high-window lower row (top = r-1); adding the alpha row
    of the same top gives the gamma rows (top = r for ub3, n for lb3).
    """
    delta = (top - d - m) * (top - d - m + 1)
    if delta == 0:
        raise DegenerateConfigurationError(f"window m={m} collides with the pivot {top - d}")
    c1 = binomial(m + d - 1, d) * delta
    c2 = binomial(m + d, d) * delta
    return (
        rational(m * (top - d) * (top - d - m), c1)
        - rational((m - 1) * (top - d) * (top - d - m + 1), c2),
        (d + 1) * (
            rational((top - d - m + 1) * (top - d + m - 2), c2)
            - rational((top - d - m) * (top - d + m - 1), c1)
        ),
        (d + 1) * (d + 2) * (rational(top - d - m, c1) - rational(top - d - m + 1, c2)),
    )


def _gamma_row(top: int, d: int, m: int) -> tuple[Number, Number, Number]:
    return tuple(w + a for w, a in zip(_window_row(top, d, m), _alpha_row(top, d, m)))


@lru_cache(maxsize=_ROW_CACHE)
def _ub1_row(r: int, d: int, m: int) -> Row:
    return Row.of(_alpha_row(r, d, m), (m, m + 1, r - d + 1), m)


@lru_cache(maxsize=_ROW_CACHE)
def _ub2_row(n: int, r: int, d: int, at_least: bool) -> Row:
    denominator = two_moment_minor(n, r, d + 1)
    if at_least:
        coefficients = (
            rational(0),
            rational(binomial(n, d + 2) - binomial(r, d + 2), denominator),
            rational(binomial(r, d + 1) - binomial(n, d + 1), denominator),
        )
    else:
        coefficients = (
            rational(0),
            rational(binomial(n, d + 2), denominator),
            rational(-binomial(n, d + 1), denominator),
        )
    return Row.of(coefficients, (1, r - d + 1, n - d + 1))


@lru_cache(maxsize=_ROW_CACHE)
def _ub3_row(r: int, d: int, m: int, at_least: bool) -> Row:
    """The gamma row for the at-least target, the alpha row for the exactly one.

    At d = 0 the gamma row is (1, 0, 0), the first-moment bound; for d > 0
    its signs are (+, -, +).
    """
    coefficients = _gamma_row(r, d, m) if at_least else _alpha_row(r, d, m)
    return Row.of(coefficients, (r - d + 1, m, m + 1), m)


@lru_cache(maxsize=_ROW_CACHE)
def _lb1_row(n: int, r: int, d: int) -> Row:
    denominator = two_moment_minor(n, r - 1, d + 1)
    coefficients = (
        rational(0),
        rational(-binomial(r - 1, d + 2), denominator),
        rational(binomial(r - 1, d + 1), denominator),
    )
    return Row.of(coefficients, (1, r - d, n - d + 1))


@lru_cache(maxsize=_ROW_CACHE)
def _lb2_row(r: int, d: int, m: Optional[int]) -> Row:
    """The window (m, m+1) row of the at-least target, signs (-, +, -) for
    r - d >= 2, or the exactly row (window r-d+1) for m = None."""
    if m is not None:
        return Row.of(_window_row(r - 1, d, m), (r - d, m, m + 1), m)
    c = binomial(r, d)
    coefficients = (
        rational(-(r - d + 1) * (r - d - 1), c),
        rational((d + 1) * (2 * (r - d) - 1), c),
        rational(-(d + 1) * (d + 2), c),
    )
    return Row.of(coefficients, (r - d, r - d + 1, r - d + 2), r - d + 1)


@lru_cache(maxsize=_ROW_CACHE)
def _lb3_row(n: int, d: int, m: Optional[int]) -> Row:
    """The window (m, m+1) row of the at-least target, (1, 0, 0) at d = 0
    and signs (+, -, +) for d > 0, or the exactly row (window 1) for m = None."""
    if m is not None:
        return Row.of(_gamma_row(n, d, m), (m, m + 1, n - d + 1), m)
    coefficients = (rational(1), rational(-(d + 1)), rational((d + 1) * (d + 2), n - d))
    return Row.of(coefficients, (1, 2, n - d + 1), 1)


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
        row=lambda n, r, d, target, m: _ub1_row(r, d, m),
        windows=dict.fromkeys(TARGETS, lambda n, r, d: (1, r - d - 1)),
        pick=partial(_bracket, "mop"),
    ),
    Family(
        "ub2", SIDE_UPPER, 3,
        applies=lambda n, r, d, target: r - d >= 1 and n - r >= 1,
        row=lambda n, r, d, target, m: _ub2_row(n, r, d, target == TARGET_AT_LEAST),
    ),
    Family(
        "ub3", SIDE_UPPER, 3,
        applies=lambda n, r, d, target: n - r >= 2,
        row=lambda n, r, d, target, m: _ub3_row(r, d, m, target == TARGET_AT_LEAST),
        windows=dict.fromkeys(TARGETS, lambda n, r, d: (r - d + 2, n - d)),
        pick=partial(_bracket, "mop"),
    ),
    Family(
        "lb1", SIDE_LOWER, 3,
        applies=lambda n, r, d, target: r - d >= 2 and (target == TARGET_AT_LEAST or r == n),
        row=lambda n, r, d, target, m: _lb1_row(n, r, d),
    ),
    Family(
        "lb2", SIDE_LOWER, 3,
        applies=lambda n, r, d, target: r - d >= 1 and n - r >= 1,
        row=lambda n, r, d, target, m: _lb2_row(r, d, m if target == TARGET_AT_LEAST else None),
        windows={TARGET_AT_LEAST: lambda n, r, d: (r - d + 1, n - d)},
        pick=partial(_bracket, "mop1"),
    ),
    Family(
        "lb3", SIDE_LOWER, 3,
        applies=lambda n, r, d, target: r == d and n - d >= 2,
        row=lambda n, r, d, target, m: _lb3_row(n, d, m if target == TARGET_AT_LEAST else None),
        windows={TARGET_AT_LEAST: lambda n, r, d: (1, n - d - 1)},
        pick=partial(_bracket, "mop2"),
    ),
)
