"""Closed-form bounds from the first three moment orders.

Six coefficient families cover the three-position index sets that admit
closed forms; each is reproduced by the engine module from its index set
(writing N = n - d + 1 for the position count, and m for a sliding window
position chosen per index tuple):

upper bounds
  * ``ub1`` (r - d >= 2): positions (m, m+1, r-d+1), m in 1..r-d-1, family
    tag ``alpha``; the same value bounds both targets.
  * ``ub2`` (r - d >= 1, n - r >= 1): positions (1, r-d+1, N), tag
    ``beta`` for the at-least target and ``delta`` for the exactly target.
  * ``ub3`` (n - r >= 2): positions (r-d+1, m, m+1), m in r-d+2..n-d, tag
    ``gamma`` for the at-least target; the exactly target reuses ``alpha``
    on this upper window range.

lower bounds
  * ``lb1`` (r - d >= 2): positions (1, r-d, N), tag ``alpha``; the
    exactly target exists only at r = n (tag ``delta``, alpha at r = n).
  * ``lb2`` (r - d >= 1, n - r >= 1): positions (r-d, m, m+1), m in
    r-d+1..n-d, tag ``beta``; the exactly target uses the fixed window
    m = r-d+1 (tag ``theta``).
  * ``lb3`` (r = d, n - d >= 2): positions (m, m+1, N), m in 1..n-d-1,
    tag ``gamma``; the exactly target uses the fixed window m = 1 (tag
    ``phi``).

Window positions are picked by :func:`optimal_m`: an integer bracket rule
when its sign condition holds (it comes from requiring the sharpness
witness at the window to be nonnegative, so the bracketed window attains
the bound), endpoint evaluation otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Optional, Sequence

from .bounds_l2 import two_moment_minor
from .certificates import (
    SIDE_LOWER,
    SIDE_UPPER,
    TARGET_AT_LEAST,
    TARGET_EXACTLY,
    TARGETS,
    BoundCertificate,
)
from .core import binomial
from .errors import DegenerateConfigurationError, NotApplicableError
from .families import (
    Family,
    Row,
    best_certificate,
    best_window,
    family_certificate,
    family_pair,
    vector_form,
    window_candidates,
)
from .moments import MomentSet, MomentVector
from .numerics import Number, all_exact, over_common_denominator, rational

FAMILIES = ("alpha", "beta", "gamma", "delta", "theta", "phi")

M_RULES = ("mop", "mop1", "mop2")


@dataclass(frozen=True, slots=True)
class CoefficientVector:
    """Three rational coefficients applied to (s_1, s_2, s_3), with provenance.

    ``numerators`` over ``den`` and ``floats`` are the same coefficients as
    integers over one positive denominator and as floats, built once here
    for the family rows.
    """

    values: tuple[Number, Number, Number]
    family: str
    n: int
    r: int
    d: int
    m: Optional[int] = None
    numerators: tuple[int, int, int] = field(init=False, repr=False, compare=False)
    den: int = field(init=False, repr=False, compare=False)
    floats: tuple[float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != 3:
            raise ValueError(f"expected three coefficients, got {len(self.values)}")
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if not all_exact(self.values):
            raise ValueError(f"coefficients must be exact rationals, got {self.values}")
        numerators, den = over_common_denominator(self.values)
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "floats", tuple(map(float, self.values)))


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


@lru_cache(maxsize=None)
def upper_alpha(n: int, r: int, d: int, m: int) -> CoefficientVector:
    """Window coefficients for upper bounds; valid off the pivot positions.

    Defined for windows with m not in {r-d, r-d+1}; used on the low range
    m in 1..r-d-1 (family ub1) and, for the exactly target, on the high
    range m in r-d+2..n-d (family ub3).
    """
    if not (0 <= d <= r <= n):
        raise ValueError(f"need 0 <= d <= r <= n, got d={d}, r={r}, n={n}")
    return CoefficientVector(values=_alpha_row(r, d, m), family="alpha", n=n, r=r, d=d, m=m)


@lru_cache(maxsize=None)
def upper_beta(n: int, r: int, d: int) -> CoefficientVector:
    """Coefficients of the top-anchored upper bound for the at-least target."""
    if r - d < 1 or n - r < 1:
        raise ValueError(f"need r-d >= 1 and n-r >= 1, got r={r}, d={d}, n={n}")
    d1 = two_moment_minor(n, r, d + 1)
    values = (
        rational(0),
        rational(binomial(n, d + 2) - binomial(r, d + 2), d1),
        rational(binomial(r, d + 1) - binomial(n, d + 1), d1),
    )
    return CoefficientVector(values=values, family="beta", n=n, r=r, d=d)


@lru_cache(maxsize=None)
def upper_delta(n: int, r: int, d: int) -> CoefficientVector:
    """Coefficients of the top-anchored upper bound for the exactly target."""
    if r - d < 1 or n - r < 1:
        raise ValueError(f"need r-d >= 1 and n-r >= 1, got r={r}, d={d}, n={n}")
    d1 = two_moment_minor(n, r, d + 1)
    values = (rational(0), rational(binomial(n, d + 2), d1), rational(-binomial(n, d + 1), d1))
    return CoefficientVector(values=values, family="delta", n=n, r=r, d=d)


@lru_cache(maxsize=None)
def upper_gamma(n: int, r: int, d: int, m: int) -> CoefficientVector:
    """High-window upper coefficients for the at-least target, m in r-d+2..n-d.

    At d = 0 this reduces to (1, 0, 0), bounding by the first moment; for
    d > 0 the signs are (+, -, +).
    """
    if not (0 <= d <= r <= n):
        raise ValueError(f"need 0 <= d <= r <= n, got d={d}, r={r}, n={n}")
    if m < r - d + 2 or m > n - d:
        raise ValueError(f"need r-d+2 <= m <= n-d, got m={m}, r={r}, d={d}, n={n}")
    return CoefficientVector(values=_gamma_row(r, d, m), family="gamma", n=n, r=r, d=d, m=m)


@lru_cache(maxsize=None)
def lower_alpha(n: int, r: int, d: int) -> CoefficientVector:
    """Top-anchored lower coefficients; the exactly target uses r = n."""
    if r - d < 2:
        raise ValueError(f"need r-d >= 2, got r={r}, d={d}")
    d2 = two_moment_minor(n, r - 1, d + 1)
    values = (
        rational(0),
        rational(-binomial(r - 1, d + 2), d2),
        rational(binomial(r - 1, d + 1), d2),
    )
    return CoefficientVector(values=values, family="alpha", n=n, r=r, d=d)


@lru_cache(maxsize=None)
def lower_beta(n: int, r: int, d: int, m: int) -> CoefficientVector:
    """High-window lower coefficients, m in r-d+1..n-d.

    For r - d >= 2 the signs are (-, +, -).
    """
    if m < r - d + 1 or m > n - d:
        raise ValueError(f"need r-d+1 <= m <= n-d, got m={m}, r={r}, d={d}, n={n}")
    return CoefficientVector(values=_window_row(r - 1, d, m), family="beta", n=n, r=r, d=d, m=m)


@lru_cache(maxsize=None)
def lower_theta(n: int, r: int, d: int) -> CoefficientVector:
    """Fixed-window lower coefficients for the exactly target (window r-d+1)."""
    if r - d < 1:
        raise ValueError(f"need r-d >= 1, got r={r}, d={d}")
    c = binomial(r, d)
    values = (
        rational(-(r - d + 1) * (r - d - 1), c),
        rational((d + 1) * (2 * (r - d) - 1), c),
        rational(-(d + 1) * (d + 2), c),
    )
    return CoefficientVector(values=values, family="theta", n=n, r=r, d=d, m=r - d + 1)


@lru_cache(maxsize=None)
def lower_gamma(n: int, d: int, m: int) -> CoefficientVector:
    """Window lower coefficients for the threshold r = d, m in 1..n-d-1.

    At d = 0 this reduces to (1, 0, 0); for d > 0 the signs are (+, -, +).
    """
    if n - d < 2:
        raise ValueError(f"need n-d >= 2, got n={n}, d={d}")
    if m < 1 or m > n - d - 1:
        raise ValueError(f"need 1 <= m <= n-d-1, got m={m}, n={n}, d={d}")
    return CoefficientVector(values=_gamma_row(n, d, m), family="gamma", n=n, r=d, d=d, m=m)


@lru_cache(maxsize=None)
def lower_phi(n: int, d: int) -> CoefficientVector:
    """Fixed-window lower coefficients for the exactly target at r = d."""
    if n - d < 2:
        raise ValueError(f"need n-d >= 2, got n={n}, d={d}")
    values = (rational(1), rational(-(d + 1)), rational((d + 1) * (d + 2), n - d))
    return CoefficientVector(values=values, family="phi", n=n, r=d, d=d, m=1)


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


def optimal_m(
    rule: str,
    s: "MomentVector | Sequence[Number]",
    n: int,
    r: int,
    d: int,
    lo: Optional[int] = None,
    hi: Optional[int] = None,
    summand: Optional[Callable[[int], Number]] = None,
) -> int:
    """Pick the window position m for a three-moment bound family.

    ``rule`` selects the bracket: "mop" for the upper families (window
    ranges 1..r-d-1 by default, or an explicit high range for the
    top-window family), "mop1" for the high-window lower family
    (r-d+1..n-d), "mop2" for the threshold lower family (1..n-d-1).

    When the rule's sign condition holds, the bracketed integers are
    candidates (the bracket places the window where the sharpness witness
    stays nonnegative); otherwise the range endpoints are.  Candidates are
    compared through ``summand``, the per-window bound contribution, which
    defaults to the family's own coefficient row against ``s``; upper
    rules minimize, lower rules maximize; ties keep the smallest window.
    """
    if rule not in M_RULES:
        raise ValueError(f"rule must be one of {M_RULES}, got {rule!r}")
    values = s.values[:3] if isinstance(s, MomentVector) else tuple(s)[:3]
    if len(values) != 3:
        raise ValueError("three moment orders are required to place a window")
    family = {"mop": _UB1, "mop1": _LB2, "mop2": _LB3}[rule]
    default_lo, default_hi = family.windows[TARGET_AT_LEAST](n, r, d)
    lo = default_lo if lo is None else lo
    hi = default_hi if hi is None else hi
    if lo > hi or lo < 1:
        raise NotApplicableError(f"empty window range [{lo}, {hi}] for rule {rule!r}")
    form = vector_form(values)
    if summand is None:
        return best_window(family, form, n, r, d, TARGET_AT_LEAST, lo, hi, {})[1].m
    minimize = family.side == SIDE_UPPER
    best_m = best_value = None
    for candidate in _bracket(rule, form[0], n, r, d, lo, hi):
        value = summand(candidate)
        if best_value is None or (value < best_value if minimize else value > best_value):
            best_m, best_value = candidate, value
    return best_m


def _row(coefficients: CoefficientVector, *index_set: int) -> Row:
    c = coefficients
    return Row(c.values, index_set, c.m, c.numerators, c.den, c.floats)


FAMILY_ROWS = (
    Family(
        "ub1", SIDE_UPPER, 3,
        applies=lambda n, r, d, target: r - d >= 2,
        row=lambda n, r, d, target, m: _row(upper_alpha(n, r, d, m), m, m + 1, r - d + 1),
        windows=dict.fromkeys(TARGETS, lambda n, r, d: (1, r - d - 1)),
        pick=partial(_bracket, "mop"),
    ),
    Family(
        "ub2", SIDE_UPPER, 3,
        applies=lambda n, r, d, target: r - d >= 1 and n - r >= 1,
        row=lambda n, r, d, target, m: _row(
            (upper_beta if target == TARGET_AT_LEAST else upper_delta)(n, r, d),
            1, r - d + 1, n - d + 1,
        ),
    ),
    Family(
        "ub3", SIDE_UPPER, 3,
        applies=lambda n, r, d, target: n - r >= 2,
        row=lambda n, r, d, target, m: _row(
            (upper_gamma if target == TARGET_AT_LEAST else upper_alpha)(n, r, d, m),
            r - d + 1, m, m + 1,
        ),
        windows=dict.fromkeys(TARGETS, lambda n, r, d: (r - d + 2, n - d)),
        pick=partial(_bracket, "mop"),
    ),
    Family(
        "lb1", SIDE_LOWER, 3,
        applies=lambda n, r, d, target: r - d >= 2 and (target == TARGET_AT_LEAST or r == n),
        row=lambda n, r, d, target, m: _row(lower_alpha(n, r, d), 1, r - d, n - d + 1),
    ),
    Family(
        "lb2", SIDE_LOWER, 3,
        applies=lambda n, r, d, target: r - d >= 1 and n - r >= 1,
        row=lambda n, r, d, target, m: (
            _row(lower_beta(n, r, d, m), r - d, m, m + 1)
            if target == TARGET_AT_LEAST
            else _row(lower_theta(n, r, d), r - d, r - d + 1, r - d + 2)
        ),
        windows={TARGET_AT_LEAST: lambda n, r, d: (r - d + 1, n - d)},
        pick=partial(_bracket, "mop1"),
    ),
    Family(
        "lb3", SIDE_LOWER, 3,
        applies=lambda n, r, d, target: r == d and n - d >= 2,
        row=lambda n, r, d, target, m: (
            _row(lower_gamma(n, d, m), m, m + 1, n - d + 1)
            if target == TARGET_AT_LEAST
            else _row(lower_phi(n, d), 1, 2, n - d + 1)
        ),
        windows={TARGET_AT_LEAST: lambda n, r, d: (1, n - d - 1)},
        pick=partial(_bracket, "mop2"),
    ),
)
_UB1, _UB2, _UB3, _LB1, _LB2, _LB3 = FAMILY_ROWS


def upper_ub1(
    moments: MomentSet, n: int, r: int, d: int, m: Optional[int] = None, target: str = TARGET_AT_LEAST
) -> BoundCertificate:
    """Low-window upper bound; needs r - d >= 2.

    The value simultaneously bounds the at-least-r and exactly-r
    probabilities; ``target`` only labels the certificate.  The window is
    chosen per index tuple unless ``m`` pins it.
    """
    return family_certificate(_UB1, moments, n, r, d, target, m)


def upper_ub2(moments: MomentSet, n: int, r: int, d: int) -> tuple[BoundCertificate, BoundCertificate]:
    """Top-anchored upper bounds; needs r - d >= 1 and n - r >= 1.

    Returns one certificate per target (at-least-r, exactly-r).
    """
    return family_pair(_UB2, moments, n, r, d)


def upper_ub3(
    moments: MomentSet, n: int, r: int, d: int, m: Optional[int] = None
) -> tuple[BoundCertificate, BoundCertificate]:
    """High-window upper bounds; needs n - r >= 2.

    Returns one certificate per target.  The window may differ between the
    two targets when chosen automatically, since each target evaluates its
    own coefficient family.
    """
    return tuple(family_certificate(_UB3, moments, n, r, d, target, m) for target in TARGETS)


def lower_lb1(moments: MomentSet, n: int, r: int, d: int) -> tuple[BoundCertificate, BoundCertificate]:
    """Top-anchored lower bounds; needs r - d >= 2.

    Returns the at-least-r certificate and the exactly-n certificate (the
    only exactly target this family reaches; its certificate carries
    r = n regardless of the requested r).
    """
    return (
        family_certificate(_LB1, moments, n, r, d, TARGET_AT_LEAST),
        family_certificate(_LB1, moments, n, n, d, TARGET_EXACTLY),
    )


def lower_lb2(
    moments: MomentSet, n: int, r: int, d: int, m: Optional[int] = None
) -> tuple[BoundCertificate, BoundCertificate]:
    """High-window lower bounds; needs r - d >= 1 and n - r >= 1.

    Returns one certificate per target.  Only the at-least target has a
    window choice; the exactly target uses the fixed window next to the
    pivot.
    """
    return family_pair(_LB2, moments, n, r, d, m)


def lower_lb3(
    moments: MomentSet, n: int, d: int, m: Optional[int] = None
) -> tuple[BoundCertificate, BoundCertificate]:
    """Window lower bounds for the threshold r = d; needs n - d >= 2.

    Returns one certificate per target.  Only the at-least target has a
    window choice; the exactly target uses the fixed window 1.
    """
    return family_pair(_LB3, moments, n, d, d, m)


def upper_best_l3(
    moments: MomentSet, n: int, r: int, d: int, target: str = TARGET_AT_LEAST
) -> BoundCertificate:
    """Combined three-moment upper bound: per index tuple, the smallest
    applicable family contribution.

    The combination can beat every single family because the winning
    family may differ between index tuples.  Raises when no family
    applies.
    """
    return best_certificate(FAMILY_ROWS, moments, n, r, d, target, SIDE_UPPER, per_tuple=True)


def lower_best_l3(
    moments: MomentSet, n: int, r: int, d: int, target: str = TARGET_AT_LEAST
) -> BoundCertificate:
    """Combined three-moment lower bound: per index tuple, the largest
    applicable family contribution.

    Families enter only where their own preconditions hold.  Raises when
    no family applies.
    """
    return best_certificate(FAMILY_ROWS, moments, n, r, d, target, SIDE_LOWER, per_tuple=True)
