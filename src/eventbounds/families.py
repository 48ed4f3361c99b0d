"""The closed-form bound families as rows of one table, and the one evaluator
of every dual row.

Each family is one dual-feasible basis of the binomial-moment LP: for a
request (n, r, d, target) it names an index set I, and its coefficient row
a solves the dual system F_I^T a = v_I there.  A :class:`Family` states its
side, its moment order, where it applies, its index set, and, for windowed
families, the window range per target and the rule that proposes window
candidates.  ``bounds_l2`` and ``bounds_l3`` state the families;
:func:`solved_row` solves each index set once, and everything that
evaluates, combines, sweeps or verifies a closed form reads the rows
through this module.

A *source* maps one index tuple's moment form to its (key, row) choice:
a family's fixed or pinned row, the best of the windows its ``pick``
proposes (:func:`family_source`), or the best row of a row set, which is
how the index-set search and the full-order (Jordan) row are read
(:func:`row_source`).  :func:`evaluate` combines the sources of one
request into its certificate, so every certificate comes from one path.
Nothing here checks a request: which families serve it, and every check
(applicability before the window, but ``m`` on a named family with no
window first), is made once, in :func:`eventbounds.dispatch.evaluate_request`.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .certificates import (
    SIDE_UPPER,
    BoundCertificate,
    BoundRequest,
    BoundTerm,
    Terms,
    certificate_from_terms,
)
from .engine import Row, solve_integer, target_entries
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


def row_source(rows: Sequence[Row], side: str) -> Callable:
    """The source that takes per form the (key, row) of the extremal row in
    ``rows``, ties the first: the index-set search's table, or one fixed row
    (a family's, or the full-order Jordan row), read with no comparison."""
    if len(rows) == 1:
        (row,) = rows
        return lambda form: (_key(row, form), row)
    minimize = side == SIDE_UPPER

    def choose(form: tuple) -> tuple:
        candidates = [(_key(row, form), row) for row in rows]
        return candidates[_extremum(candidates, minimize, form[2])]

    return choose


def family_source(
    family: Family, n: int, r: int, d: int, target: str, m: Optional[int]
) -> Callable:
    """The family's source: its row at the pinned window ``m``, its fixed row,
    or, for a free window range, per form the (key, row) of the best window
    ``pick`` proposes; ties keep the smallest, and each row is solved once."""
    window = family.windows.get(target) if m is None else None
    if window is None:
        return row_source((family.row(n, r, d, target, m),), family.side)
    lo, hi = window(n, r, d)
    minimize, pick, rows = family.side == SIDE_UPPER, family.pick, {}

    def choose(form: tuple) -> tuple:
        best_key = best_row = None
        for candidate in pick(form[0], n, r, d, lo, hi):
            row = rows.get(candidate)
            if row is None:
                row = rows[candidate] = family.row(n, r, d, target, candidate)
            key = _key(row, form)
            if best_row is None or _beats(key, row, best_key, best_row, form[2], minimize):
                best_key, best_row = key, row
        return best_key, best_row

    return choose


def evaluate(
    sources: Sequence[Callable], labels: Sequence[str], moments: MomentSet,
    request: BoundRequest, per_tuple: bool,
) -> BoundCertificate:
    """The certificate of a checked request from its sources, one label each.

    Upper takes the minimum, lower the maximum, and ties keep the earlier
    source.  With ``per_tuple`` each index tuple takes its own best source,
    and more than one source is labelled ``ub-min``/``lb-max``; otherwise
    whole certificates are compared and the winner keeps its label.  The
    terms are built on first read.
    """
    forms, exact = moments.forms(request.ell)
    columns = [list(map(source, forms)) for source in sources]
    minimize = request.side == SIDE_UPPER
    if per_tuple and len(columns) > 1:
        choices, names = [], []
        for form, candidates in zip(forms, zip(*columns)):
            best = _extremum(candidates, minimize, form[2])
            choices.append(candidates[best])
            names.append(labels[best])
        label, total = MIXED_LABELS[request.side], _total(choices, forms, exact)
    else:
        totals = [(_total(choices, forms, exact), None) for choices in columns]
        best = _extremum(totals, minimize)
        label, choices, total = labels[best], columns[best], totals[best][0]
        names = itertools.repeat(label)

    def build() -> list[BoundTerm]:
        return [
            BoundTerm(vector.term_j, row.coefficients, row.index_set, _value(key, row, form), name, row.m)
            for vector, form, (key, row), name in zip(moments, forms, choices, names)
        ]

    terms = Terms(len(choices), build, dict.fromkeys(row for _, row in choices))
    return certificate_from_terms(
        request.side, request.target, request.r, moments.d, request.ell, label, terms, value=total
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
