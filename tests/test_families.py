"""Every row of the family table against the generic dual engine.

For each family, every n <= 7 and every applicable (d, r, target), and every
window in range for windowed targets, the row's coefficients must solve the
dual system at the row's index set and be feasible for the family's side.
The integer and float forms evaluation uses must be the same row, and the
certificates must equal those of a test-local evaluator on ``Fraction``s.
"""

import math
import random
from fractions import Fraction

import pytest

from eventbounds.certificates import SIDE_UPPER, SIDES, TARGET_AT_LEAST, TARGETS
from eventbounds.core import EventSystem
from eventbounds.dispatch import FAMILY_TABLE
from eventbounds.engine import check_feasibility, solve_coefficients, target_vector
from eventbounds import bounds_l2, bounds_l3, families
from eventbounds.families import best_certificate, family_certificate
from eventbounds.numerics import integer_bracket
from eventbounds.moments import moment_matrix, moment_set
from eventbounds.verification import floatize, random_system


def row_cases(family):
    for n in range(1, 8):
        for d in range(0, n + 1):
            for r in range(d, n + 1):
                for target in TARGETS:
                    if not family.applies(n, r, d, target):
                        continue
                    windows = (None,)
                    if target in family.windows:
                        lo, hi = family.windows[target](n, r, d)
                        windows = range(lo, hi + 1)
                    for m in windows:
                        yield n, r, d, target, m


@pytest.mark.parametrize("name", sorted(FAMILY_TABLE))
def test_rows_are_the_engine_solution_and_feasible_for_their_side(name):
    family = FAMILY_TABLE[name]
    cases = list(row_cases(family))
    assert cases
    for n, r, d, target, m in cases:
        coefficients, index_set, _ = family.row(n, r, d, target, m)
        fmat = moment_matrix(n, d, family.ell)
        v = target_vector(n, d, r, target)
        case = (name, n, r, d, target, m)
        assert tuple(coefficients) == solve_coefficients(fmat, index_set, v), case
        feasibility = check_feasibility(fmat, coefficients, v)
        allowed = feasibility.allows_upper if family.side == SIDE_UPPER else feasibility.allows_lower
        assert allowed, case


def test_row_count_pins_where_the_families_apply():
    counts = {name: len(list(row_cases(family))) for name, family in FAMILY_TABLE.items()}
    assert all(counts.values())
    assert sum(counts.values()) == 1477


@pytest.mark.parametrize("name", sorted(FAMILY_TABLE))
def test_integer_and_float_forms_equal_the_rational_row(name):
    family = FAMILY_TABLE[name]
    for n, r, d, target, m in row_cases(family):
        row = family.row(n, r, d, target, m)
        case = (name, n, r, d, target, m)
        assert row.den > 0, case
        assert tuple(Fraction(x, row.den) for x in row.numerators) == row.coefficients, case
        assert all(type(x) is int for x in row.numerators), case
        assert row.floats == tuple(float(c) for c in row.coefficients), case
        assert family.row(n, r, d, target, m).numerators is row.numerators, case


@pytest.mark.parametrize("name", sorted(FAMILY_TABLE))
def test_rows_are_cached(name):
    family = FAMILY_TABLE[name]
    for case in row_cases(family):
        assert family.row(*case) is family.row(*case), (name, *case)


def test_row_caches_are_bounded():
    builders = {
        name: value
        for module in (bounds_l2, bounds_l3)
        for name, value in vars(module).items()
        if hasattr(value, "cache_info")
    }
    assert len(builders) == 10, sorted(builders)
    for name, builder in builders.items():
        assert builder.cache_info().maxsize is not None, name


# ---------------------------------------------------------------------------
# The integer evaluation against a Fraction reference evaluator.


def _reference_dot(coefficients, values):
    """Exact on rationals; on floats in the order the Fraction-era dot product used."""
    if any(isinstance(x, float) for x in values):
        c, v = [float(x) for x in coefficients], [float(x) for x in values]
        total = c[0] * v[0] + c[1] * v[1]
        return total + c[2] * v[2] if len(v) == 3 else total
    return sum((c * v for c, v in zip(coefficients, values)), Fraction(0))


def _reference_total(values):
    if any(isinstance(v, float) for v in values):
        total = 0.0
        for v in values:
            total = total + float(v)
        return total
    return sum(values, Fraction(0))


def _first_best(values, minimize):
    """The position of the first smallest (or largest) value."""
    best = 0
    for k in range(1, len(values)):
        if values[k] < values[best] if minimize else values[k] > values[best]:
            best = k
    return best


def _reference_bracket(numerator, denominator, lo, hi):
    """The bracketed windows through the quotient itself, rational or float."""
    if isinstance(numerator, float) or isinstance(denominator, float):
        quotient = float(numerator) / float(denominator)
    else:
        quotient = Fraction(numerator) / Fraction(denominator)
    floor = math.floor(quotient)
    candidates = (floor, floor + 1) if quotient == floor else (floor + 1,)
    return tuple(sorted({min(hi, max(lo, c)) for c in candidates}))


def test_integer_bracket_matches_the_quotient_rule():
    rng = random.Random("families:bracket")
    cases = [(6, 3, 1, 5), (7, 3, 1, 5), (-4, 2, 1, 5), (40, 4, 1, 5), (0, 5, 2, 4), (9, 3, 3, 3)]
    for _ in range(400):
        den = rng.randint(1, 12)
        lo = rng.randint(0, 6)
        cases.append((rng.randint(-10, 80), den, lo, lo + rng.randint(0, 6)))
    for num, den, lo, hi in cases:
        expected = _reference_bracket(num, den, lo, hi)
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert integer_bracket(num, den, lo, hi) == expected
        assert integer_bracket(num * scale, den * scale, lo, hi) == expected
        assert integer_bracket(float(num), float(den), lo, hi) == expected


class Reference:
    """The closed forms evaluated on ``Fraction``s (floats for float moments),
    windows picked by the quotient itself."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch

    def terms(self, family, moments, n, r, d, target, m):
        """One (value, coefficients, index_set, m) per tuple."""
        with self.monkeypatch.context() as patch:
            # window_candidates reads integer_bracket from the families module
            patch.setattr(families, "integer_bracket", _reference_bracket)
            window = family.windows.get(target) if m is None else None
            terms = []
            for vector in moments:
                values = vector.values[: family.ell]
                candidates = (m,) if window is None else family.pick(values, n, r, d, *window(n, r, d))
                rows = [family.row(n, r, d, target, c) for c in candidates]
                scored = [(_reference_dot(c, values), tuple(c), tuple(i), w) for c, i, w in rows]
                best = _first_best([t[0] for t in scored], family.side == SIDE_UPPER)
                terms.append(scored[best])
            return terms

    def best(self, rows, moments, n, r, d, target, side, per_tuple):
        """The best-of terms and their family labels, or None when none applies."""
        applicable = [f for f in rows if f.side == side and f.applies(n, r, d, target)]
        if not applicable:
            return None
        columns = [self.terms(f, moments, n, r, d, target, None) for f in applicable]
        minimize = side == SIDE_UPPER
        if not per_tuple:
            totals = [_reference_total([t[0] for t in column]) for column in columns]
            best = _first_best(totals, minimize)
            return columns[best], [applicable[best].name] * len(moments)
        picks = [_first_best([t[0] for t in row], minimize) for row in zip(*columns)]
        terms = [row[k] for row, k in zip(zip(*columns), picks)]
        return terms, [applicable[k].name for k in picks]


def _same_number(a, b):
    """Equal, with floats compared bit for bit (the sign of zero included)."""
    return type(a) is type(b) and (repr(a) == repr(b) if isinstance(a, float) else a == b)


def _assert_matches(certificate, terms, labels):
    total = _reference_total([t[0] for t in terms])
    assert _same_number(certificate.value, total), (certificate.value, total)
    assert len(certificate.terms) == len(terms)
    for term, (value, coefficients, index_set, m), label in zip(certificate.terms, terms, labels):
        assert _same_number(term.value, value), (term, value)
        assert (term.coefficients, term.index_set, term.m) == (coefficients, index_set, m)
        assert term.formula_id == label


def _tied_system(n):
    """One atom: every tuple's occurrence vector is a point mass, whose
    bracket quotients are integers, so two windows tie."""
    return EventSystem(n=n, weights={(1 << n) - 2: Fraction(1)})


def _systems():
    rng = random.Random("families:reference")
    for n in (3, 4, 5, 6):
        for system in (_tied_system(n), random_system(rng, n, max_support=2), random_system(rng, n)):
            yield system
            yield floatize(system)


def _requests(moments, n, d):
    """Every applicable (family, r, target, m), m None or pinned in range."""
    for family in FAMILY_TABLE.values():
        if family.ell > moments.ell:
            continue
        for r in range(d, n + 1):
            for target in TARGETS:
                if not family.applies(n, r, d, target):
                    continue
                yield family, r, target, None
                if target in family.windows:
                    lo, hi = family.windows[target](n, r, d)
                    for m in range(lo, hi + 1):
                        yield family, r, target, m


def _ties(moments, n, d):
    """How many tuples of exact moments have two bracketed windows."""
    count = 0
    for family, r, target, m in _requests(moments, n, d):
        if m is None and target == TARGET_AT_LEAST and target in family.windows:
            window = family.windows[target](n, r, d)
            for vector in moments:
                values = vector.values[: family.ell]
                count += vector.exact and len(family.pick(values, n, r, d, *window)) == 2
    return count


def test_evaluation_matches_the_fraction_reference(monkeypatch):
    reference = Reference(monkeypatch)
    ties = checked = 0
    for system in _systems():
        n = system.n
        for d in range(n):
            moments = moment_set(system, d, min(3, n - d + 1))
            ties += _ties(moments, n, d)
            for family, r, target, m in _requests(moments, n, d):
                expected = reference.terms(family, moments, n, r, d, target, m)
                certificate = family_certificate(family, moments, n, r, d, target, m)
                _assert_matches(certificate, expected, [family.name] * len(expected))
                checked += 1
            for ell, per_tuple in ((2, False), (3, True)):
                if ell > moments.ell:
                    continue
                rows = [f for f in FAMILY_TABLE.values() if f.ell == ell]
                for r in range(d, n + 1):
                    for target in TARGETS:
                        for side in SIDES:
                            args = (rows, moments, n, r, d, target, side)
                            expected = reference.best(*args, per_tuple)
                            if expected is None:
                                continue
                            certificate = best_certificate(*args, per_tuple=per_tuple)
                            _assert_matches(certificate, *expected)
                            checked += 1
    assert ties > 0
    assert checked > 1000
