"""An independent check of a bound certificate against its moments.

A row a bounds Z = z . v on the upper (lower) side when b = F^T a >= v
(b <= v) at every position, since s . a = z . b for every occurrence
vector z >= 0 with F z = s.  This module shares no code with the solver:
it imports none of ``engine``, ``families``, ``bounds_l2``, ``bounds_l3``
and ``dispatch``, and it states the target rule itself.
"""

from __future__ import annotations

import operator

from .certificates import SIDE_UPPER, TARGET_AT_LEAST, BoundCertificate
from .moments import MomentSet, moment_matrix
from .numerics import all_exact, clamp01, close, dot_product, over_common_denominator


def check_certificate(certificate: BoundCertificate, moments: MomentSet) -> list[str]:
    """The problems found in the certificate for these moments, or [] when it holds.

    A top-level coefficient row, index set or m, when given, is every
    term's.  Per term: b = F^T a meets the side at every position and
    equals v on the term's index set of ell positions, so a is the row
    solved there; the term's j is its moment vector's; a . s is its
    value.  The values sum to ``value``, and ``clamped`` is ``value``
    clipped to [0, 1].  Rows must be exact and are checked once each, on
    integers; values compare exactly, or within ``DEFAULT_TOLERANCE``
    where a float takes part.
    """
    d, ell, terms = certificate.d, certificate.ell, certificate.terms
    if (d, len(terms)) != (moments.d, len(moments)) or ell > moments.ell:
        return ["the certificate's d, ell or term count does not fit the moments"]
    columns = list(zip(*moment_matrix(moments.n, d, ell).rows))
    pivot = certificate.r - d + 1
    if certificate.target == TARGET_AT_LEAST:
        v = [int(u >= pivot) for u in range(1, len(columns) + 1)]
    else:
        v = [int(u == pivot) for u in range(1, len(columns) + 1)]
    upper = certificate.side == SIDE_UPPER
    problems = [
        f"the top-level field {name!r} is not every term's"
        for name in ("coefficients", "index_set", "m")
        if getattr(certificate, name) is not None
        and any(getattr(term, name) != getattr(certificate, name) for term in terms)
    ]
    rows = {}
    for term, vector in zip(terms, moments):
        # The terms of one row share its coefficient tuple, and the
        # certificate keeps every term alive, so the tuple's id names the row.
        key = (id(term.coefficients), term.index_set)
        if key not in rows:
            rows[key] = _check_row(term.coefficients, term.index_set, columns, v, upper)
        problem, integers = rows[key]
        where = f"term j={list(term.j)}"
        if problem:
            problems.append(f"{where}: {problem}")
        if term.j != vector.j:
            problems.append(f"{where}: its moment vector is j={list(vector.j)}")
        values, value = vector.values[:ell], term.value
        if integers is None or isinstance(value, float) or not all_exact(values):
            agrees = close(dot_product(term.coefficients, values), value)
        else:
            agrees = _exact_dot(integers, values, value)
        if not agrees:
            problems.append(f"{where}: a . s is not its value {value}")
    values = [term.value for term in terms]
    if isinstance(certificate.value, float) or not all_exact(values):
        summed = close(sum(map(float, values)), certificate.value)
    else:
        summed = _exact_dot(((1,) * len(values), 1), values, certificate.value)
    if not summed:
        problems.append(f"the term values do not sum to the value {certificate.value}")
    if not close(certificate.clamped, clamp01(certificate.value)):
        problems.append(f"clamped {certificate.clamped} is not the value clipped to [0, 1]")
    return problems


def _check_row(a, index_set, columns: list, v: list, upper: bool) -> tuple:
    """(problem or None, a as (numerators, den) on integers, or None) for one row."""
    ell, positions = len(columns[0]), len(columns)
    if len(a) != ell or not all_exact(a):
        return f"the row is not {ell} exact coefficients", None
    if len(set(index_set)) != ell or not all(1 <= i <= positions for i in index_set):
        return f"index set {list(index_set)} is not {ell} positions in 1..{positions}", None
    numerators, den = integers = over_common_denominator(a)
    gaps = [sum(map(operator.mul, numerators, c)) - t * den for c, t in zip(columns, v)]
    wrong = [x for x, gap in enumerate(gaps, 1) if (gap < 0 if upper else gap > 0)]
    if wrong:
        return f"F^T a is {'below' if upper else 'above'} the target at {wrong}", integers
    if any(gaps[i - 1] for i in index_set):
        return f"F^T a is not the target on the index set {list(index_set)}", integers
    return None, integers


def _exact_dot(integers: tuple, values, value) -> bool:
    """Whether a . values equals value, with a = numerators / den given as
    ``integers``, on integers."""
    (numerators, den), (scaled, scale) = integers, over_common_denominator(values)
    product = sum(map(operator.mul, numerators, scaled))
    return product * value.denominator == value.numerator * den * scale
