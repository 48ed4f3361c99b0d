"""The closed-form bound families as rows of one table, and their evaluator.

Each family is one dual-feasible basis of the binomial-moment LP: for a
request (n, r, d, target) it names an index set and gives the coefficient
row that solves the dual system there.  A :class:`Family` states its side,
its moment order, where it applies, and, for windowed families, the window
range per target and the rule that proposes window candidates.  The rows
themselves live next to their coefficient functions in ``bounds_l2`` and
``bounds_l3``; everything that evaluates, combines, sweeps or verifies a
closed form reads them through this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .certificates import (
    SIDE_UPPER,
    SIDES,
    TARGET_AT_LEAST,
    TARGET_EXACTLY,
    TARGETS,
    BoundCertificate,
    BoundTerm,
    certificate_from_terms,
)
from .errors import NotApplicableError
from .moments import MomentSet
from .numerics import Number, dot_product, integer_bracket

#: Labels of the per-tuple combinations that mix more than one family.
MIXED_LABELS = {"upper": "ub-min", "lower": "lb-max"}


@dataclass(frozen=True)
class Family:
    """One closed-form bound family.

    ``applies(n, r, d, target)`` says where the family exists, and
    ``row(n, r, d, target, m)`` returns its coefficients, index set and the
    window recorded on the term.  ``windows`` maps each target that has a
    window choice to its range ``(n, r, d) -> (lo, hi)``; a target missing
    from it uses a fixed row, and a family with no windows at all takes no
    ``m``.  ``pick(values, n, r, d, lo, hi)`` proposes the candidate windows
    for one moment vector, in increasing order.
    """

    name: str
    side: str
    ell: int
    applies: Callable
    row: Callable
    windows: dict = field(default_factory=dict)
    pick: Optional[Callable] = None


def window_candidates(numerator: Number, denominator: Number, lo: int, hi: int) -> tuple[int, ...]:
    """The bracketed windows when the denominator is positive, else the endpoints."""
    if denominator > 0:
        return integer_bracket(numerator, denominator, lo, hi)
    return (lo, hi) if lo != hi else (lo,)


def _validate(moments: MomentSet, n: int, r: int, d: int, ell: int, target: str) -> None:
    if (moments.n, moments.d) != (n, d):
        raise ValueError(
            f"moment set is for (n={moments.n}, d={moments.d}), request says (n={n}, d={d})"
        )
    if moments.ell < ell:
        raise ValueError(f"{ell} moment orders required, moment set has ell={moments.ell}")
    if not (0 <= d <= r <= n):
        raise ValueError(f"need 0 <= d <= r <= n, got d={d}, r={r}, n={n}")
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}, got {target!r}")


def _check(family: Family, n: int, r: int, d: int, target: str, m: Optional[int]) -> None:
    """Applicability first (NotApplicableError), then the window (ValueError)."""
    if m is not None and not family.windows:
        raise ValueError(f"formula {family.name!r} has no window parameter m")
    if not family.applies(n, r, d, target):
        raise NotApplicableError(
            f"formula {family.name!r} does not apply to target={target!r} at r={r}, d={d}, n={n}"
        )
    if m is not None:
        window = family.windows.get(target)
        if window is None:
            raise ValueError(f"the {target} target of {family.name!r} has a fixed window")
        lo, hi = window(n, r, d)
        if not (lo <= m <= hi):
            raise ValueError(f"need {lo} <= m <= {hi}, got m={m}")


def _terms(
    family: Family, moments: MomentSet, n: int, r: int, d: int, target: str, m: Optional[int]
) -> list[BoundTerm]:
    """One term per index tuple; windows are chosen per tuple unless pinned."""
    ell, name = family.ell, family.name
    window = family.windows.get(target) if m is None else None
    if window is None:
        coefficients, index_set, recorded = family.row(n, r, d, target, m)
        return [
            BoundTerm(
                vector.j,
                coefficients,
                index_set,
                dot_product(coefficients, vector.values[:ell]),
                name,
                recorded,
            )
            for vector in moments
        ]
    lo, hi = window(n, r, d)
    minimize = family.side == SIDE_UPPER
    terms = []
    for vector in moments:
        values = vector.values[:ell]
        best = None
        for candidate in family.pick(values, n, r, d, lo, hi):
            coefficients, index_set, recorded = family.row(n, r, d, target, candidate)
            value = dot_product(coefficients, values)
            if best is None or (value < best[0] if minimize else value > best[0]):
                best = (value, coefficients, index_set, recorded)
        value, coefficients, index_set, recorded = best
        terms.append(BoundTerm(vector.j, coefficients, index_set, value, name, recorded))
    return terms


def family_certificate(
    family: Family, moments: MomentSet, n: int, r: int, d: int, target: str, m: Optional[int] = None
) -> BoundCertificate:
    """The family's certificate for one target, window pinned to ``m`` if given."""
    _validate(moments, n, r, d, family.ell, target)
    _check(family, n, r, d, target, m)
    terms = _terms(family, moments, n, r, d, target, m)
    return certificate_from_terms(family.side, target, r, d, family.ell, family.name, terms)


def family_pair(
    family: Family, moments: MomentSet, n: int, r: int, d: int, m: Optional[int] = None
) -> tuple[BoundCertificate, BoundCertificate]:
    """The at-least certificate, window pinned to ``m`` if given, and the exactly one."""
    return (
        family_certificate(family, moments, n, r, d, TARGET_AT_LEAST, m),
        family_certificate(family, moments, n, r, d, TARGET_EXACTLY),
    )


def best_certificate(
    families: Sequence[Family],
    moments: MomentSet,
    n: int,
    r: int,
    d: int,
    target: str,
    side: str,
    m: Optional[int] = None,
    per_tuple: bool = False,
) -> BoundCertificate:
    """The extremal bound over the applicable families of one side.

    Upper takes the minimum, lower the maximum; ties keep the earlier
    family in table order.  By default whole certificates are compared and
    the winner keeps its own label.  With ``per_tuple`` each index tuple
    takes its own best family, labelled ``ub-min``/``lb-max`` when more
    than one family applies.  ``m`` pins the window of the applicable
    windowed families; it is an error when none has a window for the
    target.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    ell = families[0].ell
    _validate(moments, n, r, d, ell, target)
    applicable = [f for f in families if f.side == side and f.applies(n, r, d, target)]
    if not applicable:
        raise NotApplicableError(
            f"no {ell}-moment {side} bound applies to target={target!r}, r={r}, d={d}, n={n}"
        )
    if m is not None and not any(target in family.windows for family in applicable):
        raise ValueError("m applies only to the closed-form windowed families")
    pins = [m if target in family.windows else None for family in applicable]
    for family, pin in zip(applicable, pins):
        _check(family, n, r, d, target, pin)
    columns = [
        _terms(family, moments, n, r, d, target, pin) for family, pin in zip(applicable, pins)
    ]
    minimize = side == SIDE_UPPER
    if not per_tuple:
        return _extremum(
            [
                certificate_from_terms(side, target, r, d, ell, family.name, terms)
                for family, terms in zip(applicable, columns)
            ],
            minimize,
        )
    chosen = [_extremum(candidates, minimize) for candidates in zip(*columns)]
    label = applicable[0].name if len(applicable) == 1 else MIXED_LABELS[side]
    return certificate_from_terms(side, target, r, d, ell, label, chosen)


def _extremum(candidates, minimize: bool):
    """The first candidate with the smallest (or largest) value."""
    best = candidates[0]
    for candidate in candidates[1:]:
        if candidate.value < best.value if minimize else candidate.value > best.value:
            best = candidate
    return best
