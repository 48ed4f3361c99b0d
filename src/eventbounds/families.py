"""The closed-form bound families as rows of one table, and their evaluator.

Each family is one dual-feasible basis of the binomial-moment LP: for a
request (n, r, d, target) it names an index set and gives the coefficient
row that solves the dual system there.  A :class:`Family` states its side,
its moment order, where it applies, and, for windowed families, the window
range per target and the rule that proposes window candidates.  The rows
themselves are built by cached builders in ``bounds_l2`` and ``bounds_l3``;
everything that evaluates, combines, sweeps or verifies a closed form
reads them through this module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .certificates import (
    SIDE_UPPER,
    SIDES,
    TARGETS,
    BoundCertificate,
    BoundTerm,
    certificate_from_terms,
)
from .errors import NotApplicableError
from .moments import MomentSet
from .numerics import Number, all_exact, integer_bracket, over_common_denominator, rational

#: Labels of the per-tuple combinations that mix more than one family.
MIXED_LABELS = {"upper": "ub-min", "lower": "lb-max"}


@dataclass(frozen=True)
class Family:
    """One closed-form bound family.

    ``applies(n, r, d, target)`` says where the family exists, and
    ``row(n, r, d, target, m)`` returns its :class:`Row`: coefficients,
    index set and the window recorded on the term.  The builders behind
    the rows cache them, so equal arguments give the same :class:`Row`,
    whose forms are built once.  ``windows`` maps each target that has a
    window choice to its range ``(n, r, d) -> (lo, hi)``; a target missing
    from it uses a fixed row, and a family with no windows at all takes no
    ``m``.
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


class Row:
    """One family row, in the three forms evaluation needs.

    ``coefficients`` are the exact rationals the certificate records;
    ``numerators`` are the same row as integers over the positive ``den``;
    ``floats`` holds ``float(c)`` per coefficient, for float moments.  A
    row unpacks as ``(coefficients, index_set, m)``.
    """

    __slots__ = ("coefficients", "index_set", "m", "numerators", "den", "floats")

    def __init__(
        self,
        coefficients: tuple,
        index_set: tuple[int, ...],
        m: Optional[int],
        numerators: tuple[int, ...],
        den: int,
        floats: tuple[float, ...],
    ) -> None:
        self.coefficients = coefficients
        self.index_set = index_set
        self.m = m
        self.numerators = numerators
        self.den = den
        self.floats = floats

    def __iter__(self):
        return iter((self.coefficients, self.index_set, self.m))

    @classmethod
    def of(
        cls, coefficients: Sequence[Number], index_set: Sequence[int], m: Optional[int] = None
    ) -> "Row":
        """The row of exact ``coefficients``, its other two forms computed here."""
        coefficients = tuple(coefficients)
        numerators, den = over_common_denominator(coefficients)
        floats = tuple(map(float, coefficients))
        return cls(coefficients, tuple(index_set), m, numerators, den, floats)


def _moment_forms(moments: MomentSet, ell: int) -> tuple[list[tuple], bool]:
    """Per index tuple, (values for window picks, values for dot products, D),
    and whether every tuple is exact.

    Exact tuples give their integer numerators twice over the positive
    moment denominator D, which cancels from every window bracket and every
    comparison of one tuple; an exact set shares one D.  Float tuples give
    their values as they are for the picks, their floats for the dot
    products, and D = None.
    """
    if moments.exact:
        rows, denominator = moments.integerized()
        if len(rows[0]) != ell:
            rows = [row[:ell] for row in rows]
        return [(row, row, denominator) for row in rows], True
    forms = []
    for vector in moments:
        values = vector.values[:ell]
        exact = vector.exact if len(vector.values) == ell else all_exact(values)
        if exact:
            row, denominator = over_common_denominator(values)
            forms.append((row, row, denominator))
        else:
            forms.append((values, tuple(map(float, values)), None))
    return forms, all(form[2] for form in forms)


def _key(row: Row, form: tuple):
    """The term's comparison key: for an exact tuple the integer numerator of
    its value over row.den * D, for a float one the float value, in
    dot_product's order of operations."""
    a = row.numerators if form[2] else row.floats
    b = form[1]
    if len(b) == 2:
        return a[0] * b[0] + a[1] * b[1]
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _beats(key, row: Row, best_key, best_row: Row, exact, minimize: bool) -> bool:
    """Strictly better: smaller when minimizing, larger otherwise."""
    if exact:
        key, best_key = key * best_row.den, best_key * row.den
    return key < best_key if minimize else key > best_key


def _value(key, row: Row, form: tuple) -> Number:
    return rational(key, row.den * form[2]) if form[2] else key


def _choices(
    family: Family, forms: list, n: int, r: int, d: int, target: str, m: Optional[int]
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


def _total(choices: list[tuple], forms: list, exact: bool) -> Number:
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
    moments: MomentSet, forms: list, choices: list[tuple], names: Iterable[str], total: Number,
) -> BoundCertificate:
    """The certificate of one (key, row) choice per index tuple, by family
    name, with the :func:`_total` of the choices."""
    terms = [
        BoundTerm(vector.j, row.coefficients, row.index_set, _value(key, row, form), name, row.m)
        for vector, form, (key, row), name in zip(moments, forms, choices, names)
    ]
    return certificate_from_terms(side, target, r, d, ell, label, terms, value=total)


def family_certificate(
    family: Family, moments: MomentSet, n: int, r: int, d: int, target: str, m: Optional[int] = None
) -> BoundCertificate:
    """The family's certificate for one target, window pinned to ``m`` if given."""
    _validate(moments, n, r, d, family.ell, target)
    _check(family, n, r, d, target, m)
    forms, exact = _moment_forms(moments, family.ell)
    choices = _choices(family, forms, n, r, d, target, m)
    return _certificate(
        family.side, target, r, d, family.ell, family.name, moments, forms,
        choices, itertools.repeat(family.name), _total(choices, forms, exact),
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
    forms, exact = _moment_forms(moments, ell)
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
