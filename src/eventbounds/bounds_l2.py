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

All bounds are sums over the index tuples of order d, so the ``moments``
argument is the full moment set of that order.
"""

from __future__ import annotations

from typing import Optional

from .certificates import (
    SIDE_LOWER,
    SIDE_UPPER,
    TARGET_AT_LEAST,
    BoundCertificate,
)
from .core import binomial
from .errors import DegenerateConfigurationError
from .families import Family, best_certificate, family_certificate, family_pair, window_candidates
from .moments import MomentSet
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


def _u2_row(n: int, r: int, d: int, target: str, m: Optional[int]):
    denominator = two_moment_minor(n, r, d)
    if target == TARGET_AT_LEAST:
        coefficients = (
            rational(binomial(n, d + 1) - binomial(r, d + 1), denominator),
            rational(binomial(r, d) - binomial(n, d), denominator),
        )
    else:
        coefficients = (
            rational(binomial(n, d + 1), denominator),
            rational(-binomial(n, d), denominator),
        )
    return coefficients, (r - d + 1, n - d + 1), None


def _l1_row(n: int, r: int, d: int, target: str, m: Optional[int]):
    denominator = two_moment_minor(n, r - 1, d)
    coefficients = (
        rational(-binomial(r - 1, d + 1), denominator),
        rational(binomial(r - 1, d), denominator),
    )
    return coefficients, (r - d, n - d + 1), None


def _l2_row(n: int, r: int, d: int, target: str, m: Optional[int]):
    if target == TARGET_AT_LEAST:
        scale = rational(d + 1, (m + d) * binomial(m + d - 1, d))
        return (scale * m, -scale * d), (m, m + 1), m
    return (rational(1), rational(-(d + 1))), (1, 2), None


def _l2_windows(values, n: int, r: int, d: int, lo: int, hi: int) -> tuple[int, ...]:
    """The bracket m-1 <= (d+1) s_2/s_1 <= m when s_1 > 0, else the endpoints."""
    s1, s2 = values
    return window_candidates((d + 1) * s2, s1, lo, hi)


FAMILY_ROWS = (
    Family(
        "u1", SIDE_UPPER, 2,
        applies=lambda n, r, d, target: r - d >= 1,
        row=lambda n, r, d, target, m: (
            (rational(0), rational(1, binomial(r, d + 1))), (1, r - d + 1), None
        ),
    ),
    Family("u2", SIDE_UPPER, 2, applies=lambda n, r, d, target: n - r >= 1, row=_u2_row),
    Family(
        "l1", SIDE_LOWER, 2,
        applies=lambda n, r, d, target: r - d >= 1 and (target == TARGET_AT_LEAST or r == n),
        row=_l1_row,
    ),
    Family(
        "l2", SIDE_LOWER, 2,
        applies=lambda n, r, d, target: r == d >= 1 and n - d >= 1,
        row=_l2_row,
        windows={TARGET_AT_LEAST: lambda n, r, d: (1, n - d)},
        pick=_l2_windows,
    ),
)
_U1, _U2, _L1, _L2 = FAMILY_ROWS


def upper_u1(moments: MomentSet, n: int, r: int, d: int, target: str = TARGET_AT_LEAST) -> BoundCertificate:
    """Upper bound from the second moment alone; needs r > d.

    The value simultaneously bounds the at-least-r and the exactly-r
    probability; ``target`` only labels the certificate.
    """
    return family_certificate(_U1, moments, n, r, d, target)


def upper_u2(moments: MomentSet, n: int, r: int, d: int) -> tuple[BoundCertificate, BoundCertificate]:
    """Upper bounds anchored at the top position; needs r < n.

    Returns one certificate per target (at-least-r, exactly-r).
    """
    return family_pair(_U2, moments, n, r, d)


def lower_l1(moments: MomentSet, n: int, r: int, d: int, target: str = TARGET_AT_LEAST) -> BoundCertificate:
    """Lower bound anchored at the top position; needs r > d.

    For the exactly target this family only exists at r = n, where the
    at-least and exactly probabilities coincide.
    """
    return family_certificate(_L1, moments, n, r, d, target)


def lower_l2(
    moments: MomentSet, n: int, d: int, m: Optional[int] = None
) -> tuple[BoundCertificate, BoundCertificate]:
    """Lower bounds for the threshold r = d >= 1 from a sliding window.

    Returns certificates for the at-least-d and exactly-d probabilities.
    For the at-least target, the window position m is chosen per index
    tuple by the bracket m-1 <= (d+1) s_2(j)/s_1(j) <= m when s_1(j) > 0
    and by evaluating the endpoint windows otherwise; pass ``m`` to force
    one window everywhere.  The exactly target has no window choice.
    """
    return family_pair(_L2, moments, n, d, d, m)


def best_l2(
    moments: MomentSet, n: int, r: int, d: int, target: str, side: str, m: Optional[int] = None
) -> BoundCertificate:
    """The extremal applicable two-moment bound for the request.

    Upper side takes the minimum over {u1, u2}, lower side the maximum
    over {l1, l2}, comparing whole certificates; ties keep the earlier
    family in that order.  Raises when no family applies.
    """
    return best_certificate(FAMILY_ROWS, moments, n, r, d, target, side, m)
