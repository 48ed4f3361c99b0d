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
a family's fixed row, the best of the windows its ``pick`` proposes
(:func:`family_source`), or the best row of a row set, which is how the
index-set search, full order (Jordan) included, and one window's row are
read (:func:`row_source`).  :func:`evaluate` combines the sources of one
request into its certificate, so every certificate comes from one path.
Nothing here checks a request: which families serve it, and every check,
is decided once, in :func:`eventbounds.dispatch.evaluate_request`.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Optional, Sequence

from .certificates import (
    SIDE_UPPER,
    BoundCertificate,
    BoundRequest,
    BoundTerm,
    Terms,
    certificate_from_terms,
)
from .engine import Row, _prefix_solves, target_entries
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
    ``(n, r, d) -> (lo, hi)``, and the family picks its window there per
    index tuple; a target missing from it uses a fixed row (``m`` None).
    ``pick(n, r, d, lo, hi)`` fixes the family's bracket rule at one
    request shape, once per plan, and returns the function that proposes
    the candidate windows of one moment vector, in increasing order; it
    gets integer numerators for exact moments, which leave every bracket
    unchanged.
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
    the request's target entries there; the solve is the search tables'
    integer elimination, and a repeated position raises
    DegenerateConfigurationError.  The cache holds every family row of one
    n <= 20 (8,914 at n = 20).
    """
    columns = list(zip(*moment_rows(d, len(index_set), index_set)))
    v = target_entries(d, r, target, index_set)
    ((_, numerators, den),) = _prefix_solves(columns, v, (tuple(range(1, len(index_set) + 1)),))
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


def _value(key, row: Row, form: tuple) -> Number:
    return rational(key, row.den * form[2]) if form[2] else key


def _total(keys: Sequence, rows: Sequence[Row], forms: Sequence, exact: bool) -> Number:
    """The sum of the term values: on integers when every tuple is exact,
    else in float, term by term, as certificate_from_terms sums."""
    if exact:
        dens = [row.den * form[2] for row, form in zip(rows, forms)]
        common = math.lcm(*set(dens))
        return rational(sum(key * (common // den) for key, den in zip(keys, dens)), common)
    total = 0.0
    for key, row, form in zip(keys, rows, forms):
        total = total + float(_value(key, row, form))
    return total


def row_source(rows: Sequence[Row], side: str) -> Callable:
    """The source that takes per form the (key, row) of the extremal row in
    ``rows``, ties the first: the index-set search's table (one row at full
    order), or a family's fixed row, read with no comparison."""
    if len(rows) == 1:
        (row,) = rows
        return lambda form: (_key(row, form), row)
    better, first, rest = operator.lt if side == SIDE_UPPER else operator.gt, rows[0], rows[1:]

    def choose(form: tuple) -> tuple:
        best_key, best_row = _key(first, form), first
        for row in rest:
            key = _key(row, form)
            if better(key * best_row.den, best_key * row.den) if form[2] else better(key, best_key):
                best_key, best_row = key, row
        return best_key, best_row

    return choose


def family_source(family: Family, n: int, r: int, d: int, target: str) -> Callable:
    """The family's source: its fixed row, or, for a window range, per form
    the (key, row) of the best window its window function proposes; ties
    keep the smallest, and each row is solved once."""
    window = family.windows.get(target)
    if window is None:
        return row_source((family.row(n, r, d, target, None),), family.side)
    windows, rows = family.pick(n, r, d, *window(n, r, d)), {}
    better = operator.lt if family.side == SIDE_UPPER else operator.gt

    def choose(form: tuple) -> tuple:
        best_key = best_row = None
        for candidate in windows(form[0]):
            row = rows.get(candidate)
            if row is None:
                row = rows[candidate] = family.row(n, r, d, target, candidate)
            key = _key(row, form)
            if best_row is None or (
                better(key * best_row.den, best_key * row.den) if form[2] else better(key, best_key)
            ):
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
    in one pass over the forms, and more than one source is labelled
    ``ub-min``/``lb-max``; otherwise whole certificates are compared and
    the winner keeps its label.  The certificate keeps each tuple's key,
    row and label in flat sequences, and builds its terms on first read.
    """
    forms, exact = moments.forms(request.ell)
    better = operator.lt if request.side == SIDE_UPPER else operator.gt
    if per_tuple and len(sources) > 1:
        keys, rows, names = [], [], []
        first, rest = sources[0], tuple(zip(sources[1:], labels[1:]))
        for form in forms:
            best_key, best_row = first(form)
            name = labels[0]
            for source, label in rest:
                key, row = source(form)
                if better(key * best_row.den, best_key * row.den) if form[2] else better(key, best_key):
                    best_key, best_row, name = key, row, label
            keys.append(best_key)
            rows.append(best_row)
            names.append(name)
        label = MIXED_LABELS[request.side]
        total = _total(keys, rows, forms, exact)
    else:
        total = None
        for source, name in zip(sources, labels):
            column_keys, column_rows = zip(*map(source, forms))
            column_total = _total(column_keys, column_rows, forms, exact)
            if total is None or better(column_total, total):
                keys, rows, label, total = column_keys, column_rows, name, column_total
        names = itertools.repeat(label)
    terms = Terms(rows, partial(_terms, moments, forms, keys, rows, names))
    return certificate_from_terms(
        request.side, request.target, request.r, moments.d, request.ell, label, terms, value=total
    )


def _terms(moments: MomentSet, forms: Sequence, keys: Sequence, rows: Sequence[Row], names) -> list:
    """The certificate's terms from its flat per-tuple keys, rows and labels."""
    return [
        BoundTerm(vector.term_j, row.coefficients, row.index_set, _value(key, row, form), name, row.m)
        for vector, form, key, row, name in zip(moments, forms, keys, rows, names)
    ]
