"""The closed-form bound families as rows of one table, and the evaluator of
every dual row.

Each family is one dual-feasible basis of the binomial-moment LP: for a
request (n, r, d, target) it names an index set I, and its coefficient row
a solves the dual system F_I^T a = v_I there.  A :class:`Family` states its
side, its moment order, where it applies, its index set, and, for windowed
families, the window range per target and the rule that proposes window
candidates.  ``bounds_l2`` and ``bounds_l3`` state the families;
:func:`solved_row` solves each index set once, and everything that
evaluates, combines, sweeps or verifies a closed form reads the rows
through this module.  The index-set search and the full-order (Jordan)
case evaluate their rows here too (:func:`rows_certificate`), so every
certificate comes from one path.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

from .certificates import (
    SIDE_UPPER,
    BoundCertificate,
    BoundRequest,
    BoundTerm,
    Terms,
    certificate_from_terms,
)
from .engine import Row, solve_integer, target_entries
from .errors import NotApplicableError
from .moments import MomentSet, moment_rows
from .numerics import Number, integer_bracket, rational

#: Labels of the per-tuple combinations that mix more than one family.
MIXED_LABELS = {"upper": "ub-min", "lower": "lb-max"}


@dataclass(frozen=True)
class Family:
    """One closed-form bound family.

    ``applies(n, r, d, target)`` says where the family exists, and
    ``row(n, r, d, target, m)`` returns its :class:`Row`: coefficients,
    index set and the window recorded on the term.  Each ``row`` names its
    index set to :func:`solved_row`, which caches the rows, so equal
    arguments give the same :class:`Row`, whose forms are built once.
    ``windows`` maps each target that has a window choice to its range
    ``(n, r, d) -> (lo, hi)``; a target missing from it uses a fixed row,
    and a family with no windows at all takes no ``m``.
    ``pick(values, n, r, d, lo, hi)`` proposes the candidate windows for
    one moment vector, in increasing order; it gets integer numerators
    for exact moments, which leave every bracket unchanged.
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


@lru_cache(maxsize=10240)
def solved_row(
    n: int, r: int, d: int, target: str, index_set: tuple[int, ...], m: Optional[int]
) -> Row:
    """The row a with F_I^T a = v_I at the index set I, window ``m`` recorded.

    F_I holds the moment matrix of order len(I) at the positions I, and v_I
    the request's target entries there; the solve runs on integers, and a
    singular subsystem (a repeated position) raises
    DegenerateConfigurationError.  The cache holds every family row of one
    n <= 20 (8,914 at n = 20).
    """
    columns = list(zip(*moment_rows(d, len(index_set), index_set)))
    numerators, den = solve_integer(columns, target_entries(d, r, target, index_set))
    return Row(index_set, m, numerators, den)


def _key(row: Row, form: tuple):
    """The term's comparison key: for an exact tuple the integer numerator of
    its value over row.den * D, for a float one the float value, in
    dot_product's order of operations."""
    a = row.numerators if form[2] else row.floats
    b = form[1]
    if len(b) == 2:
        return a[0] * b[0] + a[1] * b[1]
    if len(b) == 3:
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    return sum(map(operator.mul, a, b))


def _beats(key, row: Row, best_key, best_row: Row, exact, minimize: bool) -> bool:
    """Strictly better: smaller when minimizing, larger otherwise."""
    if exact:
        key, best_key = key * best_row.den, best_key * row.den
    return key < best_key if minimize else key > best_key


def _value(key, row: Row, form: tuple) -> Number:
    return rational(key, row.den * form[2]) if form[2] else key


def _choices(
    family: Family, forms: Sequence, n: int, r: int, d: int, target: str, m: Optional[int]
) -> list[tuple]:
    """Per index tuple, (key, row) of the family; windows chosen per tuple unless pinned.

    Candidate windows are compared on their keys, and ties keep the
    smallest window.
    """
    window = family.windows.get(target) if m is None else None
    if window is None:
        row = family.row(n, r, d, target, m)
        return [(_key(row, form), row) for form in forms]
    lo, hi = window(n, r, d)
    rows: dict[int, Row] = {}
    return [best_window(family, form, n, r, d, target, lo, hi, rows) for form in forms]


def best_window(
    family: Family, form: tuple, n: int, r: int, d: int, target: str, lo: int, hi: int, rows: dict
) -> tuple:
    """(key, row) of the best window in [lo, hi] for one tuple's form.

    The family's pick proposes the candidates; upper families keep the
    smallest key, lower ones the largest, and ties keep the smallest
    window.  ``rows`` memoizes the candidate rows by window, across the
    tuples of one request.
    """
    minimize = family.side == SIDE_UPPER
    best_key = best_row = None
    for candidate in family.pick(form[0], n, r, d, lo, hi):
        row = rows.get(candidate)
        if row is None:
            row = rows[candidate] = family.row(n, r, d, target, candidate)
        key = _key(row, form)
        if best_row is None or _beats(key, row, best_key, best_row, form[2], minimize):
            best_key, best_row = key, row
    return best_key, best_row


def _total(choices: list[tuple], forms: Sequence, exact: bool) -> Number:
    """The sum of the term values: on integers when every tuple is exact,
    else in float, term by term, as certificate_from_terms sums."""
    if exact:
        dens = [row.den * form[2] for (_, row), form in zip(choices, forms)]
        common = math.lcm(*set(dens))
        numerator = sum(key * (common // den) for (key, _), den in zip(choices, dens))
        return rational(numerator, common)
    total = 0.0
    for (key, row), form in zip(choices, forms):
        total = total + float(_value(key, row, form))
    return total


def _certificate(
    side: str, target: str, r: int, d: int, ell: int, label: str,
    moments: MomentSet, forms: Sequence, choices: list[tuple], names: Iterable[str], total: Number,
) -> BoundCertificate:
    """The certificate of one (key, row) choice per index tuple, by family
    name, with the :func:`_total` of the choices; its terms are built on
    first read."""
    def build() -> list[BoundTerm]:
        return [
            BoundTerm(vector.j, row.coefficients, row.index_set, _value(key, row, form), name, row.m)
            for vector, form, (key, row), name in zip(moments, forms, choices, names)
        ]

    terms = Terms(len(choices), build, dict.fromkeys(row for _, row in choices))
    return certificate_from_terms(side, target, r, d, ell, label, terms, value=total)


def family_certificate(
    family: Family, moments: MomentSet, request: BoundRequest
) -> BoundCertificate:
    """The family's certificate for a checked request of its side and order,
    window pinned to ``request.m`` if given."""
    n, r, d, target, m = moments.n, request.r, moments.d, request.target, request.m
    _check(family, n, r, d, target, m)
    forms, exact = moments.forms(family.ell)
    choices = _choices(family, forms, n, r, d, target, m)
    return _certificate(
        family.side, target, r, d, family.ell, family.name, moments, forms,
        choices, itertools.repeat(family.name), _total(choices, forms, exact),
    )


def best_certificate(
    families: Sequence[Family], moments: MomentSet, request: BoundRequest, per_tuple: bool = False
) -> BoundCertificate:
    """The extremal bound over the applicable families of the request's side,
    for a checked request of their moment order.

    Upper takes the minimum, lower the maximum; ties keep the earlier
    family in table order.  By default whole certificates are compared and
    the winner keeps its own label.  With ``per_tuple`` each index tuple
    takes its own best family, labelled ``ub-min``/``lb-max`` when more
    than one family applies.  ``request.m`` pins the window of the
    applicable windowed families; it is an error when none has a window
    for the target.
    """
    n, r, d, target, side = moments.n, request.r, moments.d, request.target, request.side
    m = request.m
    ell = families[0].ell
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
    forms, exact = moments.forms(ell)
    columns = [
        _choices(family, forms, n, r, d, target, pin) for family, pin in zip(applicable, pins)
    ]
    minimize = side == SIDE_UPPER
    if not per_tuple:
        totals = [(_total(choices, forms, exact), None) for choices in columns]
        best = _extremum(totals, minimize)
        name = applicable[best].name
        return _certificate(
            side, target, r, d, ell, name, moments, forms,
            columns[best], itertools.repeat(name), totals[best][0],
        )
    chosen, names = [], []
    for form, candidates in zip(forms, zip(*columns)):
        best = _extremum(candidates, minimize, form[2])
        chosen.append(candidates[best])
        names.append(applicable[best].name)
    label = applicable[0].name if len(applicable) == 1 else MIXED_LABELS[side]
    return _certificate(
        side, target, r, d, ell, label, moments, forms, chosen, names, _total(chosen, forms, exact)
    )


def rows_certificate(
    rows: Sequence[Row], moments: MomentSet, request: BoundRequest, label: str
) -> BoundCertificate:
    """The certificate that takes, per index tuple, the extremal row among
    ``rows`` for a checked request of their moment order, labelled ``label``.

    Upper takes the minimum, lower the maximum; ties go to the first row.
    The index-set search evaluates a shape's table this way, and the
    full-order (Jordan) case its one row.
    """
    forms, exact = moments.forms(request.ell)
    minimize = request.side == SIDE_UPPER
    choices = []
    for form in forms:
        candidates = [(_key(row, form), row) for row in rows]
        choices.append(candidates[_extremum(candidates, minimize, form[2])])
    return _certificate(
        request.side, request.target, request.r, moments.d, request.ell, label, moments, forms,
        choices, itertools.repeat(label), _total(choices, forms, exact),
    )


def _extremum(candidates: Sequence[tuple], minimize: bool, exact=None) -> int:
    """The position of the first smallest (or largest) (key, row) candidate.

    With ``exact`` set the keys are integer numerators over their rows'
    denominators, compared by cross-multiplication; otherwise the keys are
    compared as they are.
    """
    best = 0
    for position in range(1, len(candidates)):
        if _beats(*candidates[position], *candidates[best], exact, minimize):
            best = position
    return best
