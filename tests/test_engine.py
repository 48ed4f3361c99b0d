"""Dual solves, the basis tables, index-set search, and sharpness witnesses.

Solves and feasibility are held to the Fraction oracles in ``oracles``."""

import collections
import itertools
import math
import operator
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import (
    check_realizable_by_scan,
    determinant,
    dual_gaps,
    feasible_sides,
    integer_solve,
    realizable,
    reference_solve,
    z_via_joint,
)

from eventbounds import engine
from eventbounds.certificates import SIDE_UPPER, SIDES, TARGETS, BoundRequest
from eventbounds.core import EventSystem, exact_occurrence, index_tuple_indices
from eventbounds.dispatch import evaluate_request
from eventbounds.engine import (
    check_realizable,
    dual_bases,
    sharpness_witness,
    target_vector,
    witness_system,
)
from eventbounds.errors import (
    DegenerateConfigurationError,
    InfeasibleMomentsError,
    NotApplicableError,
    ResourceLimitError,
)
from eventbounds.moments import MomentSet, MomentVector, moment_matrix, moment_set
from eventbounds.numerics import dot_product
from eventbounds.verification import floatize, random_system


def fair(n):
    return EventSystem(n=n, weights={m: Fraction(1, 1 << n) for m in range(1 << n)})


# Binomial(60, 1/2) moments at d = 0: s_k = C(60, k-1) / 2^(k-1).
BINOMIAL_60 = tuple(Fraction(math.comb(60, k), 2**k) for k in range(7))
# Their d = 1 moments, at every j = (i,): s_k = C(60, k) / (60 2^k).
BINOMIAL_60_D1 = tuple(Fraction(math.comb(60, k), 60 * 2**k) for k in range(1, 12))

F32 = moment_matrix(3, 0, 2)  # rows (1,1,1,1) and (0,1,2,3)
V1 = target_vector(3, 0, 1)  # at-least one event: v = (0,1,1,1)
S = (Fraction(1), Fraction(3, 2))  # fair-3 moments at d=0, ell=2


def single_tuple(n, values):
    """The d = 0 moment set of n events with the given moments, unchecked."""
    vector = MomentVector((), values)
    return MomentSet(n=n, d=0, ell=len(values), vectors=(vector,))


def search(moments, r, side):
    request = BoundRequest(r=r, d=moments.d, ell=moments.ell, side=side, formula="search")
    return evaluate_request(moments, request)


def binomial_60_d1():
    """The d = 1, ell = 11 moment set of 60 independent fair events."""
    vectors = tuple(MomentVector(j, BINOMIAL_60_D1) for j in index_tuple_indices(60, 1))
    return MomentSet(n=60, d=1, ell=11, vectors=vectors)


def feasible(fmat, v, side):
    return tuple(row.index_set for row in dual_bases(fmat, v, side))


def solve(fmat, index_set, v):
    """The reference dual solve: F_I^T a = v_I on Fractions."""
    return reference_solve([fmat.column(i) for i in index_set], [v[i - 1] for i in index_set])


class TestTargetVector:
    def test_at_least_is_a_step(self):
        assert target_vector(3, 0, 2) == (0, 0, 1, 1)
        assert target_vector(3, 1, 2) == (0, 1, 1)
        assert type(target_vector(3, 0, 2)) is tuple

    def test_exactly_is_an_indicator(self):
        assert target_vector(3, 0, 2, "exactly") == (0, 0, 1, 0)

    def test_at_least_d_is_all_ones(self):
        assert target_vector(4, 2, 2) == (1, 1, 1)

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            target_vector(3, 2, 1)


class TestSolveAndFeasibility:
    """The reference solves and b = F^T a checks, and the engine's integer
    elimination and index-set validation against them."""

    def test_known_solves(self):
        assert solve(F32, (1, 2), V1) == (0, 1)
        assert solve(F32, (2, 4), V1) == (1, 0)
        columns = [F32.column(i) for i in range(1, 5)]
        for index_set, a in (((1, 2), (0, 1)), ((2, 4), (1, 0))):
            ((_, numerators, den),) = engine._prefix_solves(columns, V1, [index_set])
            rhs = [V1[i - 1] for i in index_set]
            assert (numerators, den) == integer_solve([columns[i - 1] for i in index_set], rhs)
            assert tuple(Fraction(x, den) for x in numerators) == a

    def test_both_solves_are_upper_feasible(self):
        for index_set in ((1, 2), (2, 4)):
            assert "upper" in feasible_sides(F32, solve(F32, index_set, V1), V1)
        assert feasible(F32, V1, "upper")[:1] == ((1, 2),)
        assert (2, 4) in feasible(F32, V1, "upper")

    def test_bound_values(self):
        assert dot_product(solve(F32, (1, 2), V1), S) == Fraction(3, 2)
        assert dot_product(solve(F32, (2, 4), V1), S) == 1

    def test_full_index_set_reaches_equality(self):
        fmat = moment_matrix(3, 0, 4)
        a = solve(fmat, (1, 2, 3, 4), target_vector(3, 0, 1))
        assert dual_gaps(fmat, a, target_vector(3, 0, 1)) == (0, 0, 0, 0)
        assert feasible_sides(fmat, a, target_vector(3, 0, 1)) == {"upper", "lower"}

    def test_infeasible_set_is_reported(self):
        # positions (1, 3) put b below v at position 2 and above at 4
        a = solve(F32, (1, 3), V1)
        gaps = dual_gaps(F32, a, V1)
        assert gaps[1] < 0 < gaps[3]
        assert feasible_sides(F32, a, V1) == set()
        assert (1, 3) not in feasible(F32, V1, "upper") + feasible(F32, V1, "lower")

    def test_index_set_validation(self):
        for index_set in ((2, 1), (1, 5), (1, 2, 3)):
            with pytest.raises(ValueError):
                sharpness_witness(F32, index_set, S)


class TestSearch:
    def test_search_picks_the_tightest_upper(self):
        certificate = search(single_tuple(3, S), 1, "upper")
        assert certificate.value == 1
        # (2,3), (2,4) and (3,4) all reach 1; ties go to the lex-first set
        assert certificate.index_set == (2, 3)
        assert feasible(F32, V1, "upper") == ((1, 2), (2, 3), (2, 4), (3, 4))

    def test_search_lower_side(self):
        certificate = search(single_tuple(3, S), 1, "lower")
        assert certificate.index_set == (1, 4)
        assert certificate.value == Fraction(1, 2)
        assert certificate.value <= exact_occurrence(fair(3)).at_least(1)

    def test_enumeration_cap(self):
        # The cap limits candidate sets: 3,162,510 at n=60, d=1, ell=11, r=30.
        with pytest.raises(ResourceLimitError):
            search(binomial_60_d1(), 30, "upper")

    def test_float_moments_pick_the_same_set(self):
        certificate = search(single_tuple(3, (1.0, 1.5)), 1, "upper")
        assert certificate.index_set == (2, 3)
        assert certificate.value == 1.0
        assert isinstance(certificate.value, float)
        assert feasible(F32, V1, "upper") == ((1, 2), (2, 3), (2, 4), (3, 4))

    def test_cap_is_checked_before_any_solve(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solved an index set above the cap")

        monkeypatch.setattr(engine, "_prefix_solves", no_solve)
        fmat = moment_matrix(60, 1, 11)
        v = target_vector(60, 1, 30)
        message = "{} candidate index sets exceed the enumeration cap of 1000000"
        with pytest.raises(ResourceLimitError, match=message.format(3162510)):
            dual_bases(fmat, v, "upper")
        with pytest.raises(ResourceLimitError, match=message.format(3128861)):
            search(binomial_60_d1(), 30, "lower")


def _exhaustive_table(fmat, v, side):
    """The table of every index set, each solved and checked, with the
    all-zero sets (and at d = 0 the all-one sets) kept as ranges."""
    ell, upper = fmat.ell, side == SIDE_UPPER
    columns = [fmat.column(i) for i in range(1, fmat.positions + 1)]
    zero = (0,) * ell
    one = (1,) + zero[1:]
    zero_positions = one_positions = ()
    if not upper or not any(v):
        zero_positions = tuple(i for i, x in enumerate(v, 1) if not x)
    if fmat.d == 0 and (upper or all(v)):
        one_positions = tuple(i for i, x in enumerate(v, 1) if x)
    firsts = {
        next(itertools.combinations(positions, ell), None): a
        for positions, a in ((zero_positions, zero), (one_positions, one))
    }
    bases, solved = [], []
    for index_set in itertools.combinations(range(1, fmat.positions + 1), ell):
        rhs = [v[i - 1] for i in index_set]
        if not any(rhs) or (fmat.d == 0 and all(rhs)):
            if index_set in firsts:
                bases.append((index_set, firsts[index_set], 1))
        else:
            solved.append(index_set)
    for index_set, numerators, den in engine._prefix_solves(columns, v, solved):
        gaps = [sum(map(operator.mul, numerators, c)) - t * den for c, t in zip(columns, v)]
        if all(gap >= 0 if upper else gap <= 0 for gap in gaps):
            bases.append((index_set, numerators, den))
    return tuple(sorted(bases)), zero_positions, one_positions


class TestBasisTable:
    def test_integer_solve_matches_fractions(self):
        """The elimination on a system with positive leading minors (2, 9,
        27) gives det times the Fraction solution over det."""
        rows = [[2, -1, 0], [1, 4, 1], [0, 0, 3]]
        ((_, numerators, den),) = engine._prefix_solves(rows, [1, 2, 0], [(1, 2, 3)])
        assert (numerators, den) == integer_solve(rows, [1, 2, 0])
        assert den == 27
        assert tuple(Fraction(x, den) for x in numerators) == reference_solve(rows, [1, 2, 0])
        with pytest.raises(ValueError, match="singular"):
            integer_solve([[1, 2], [2, 4]], [1, 1])

    def test_table_equals_per_set_solve_and_feasibility(self):
        """Every shape with n <= 6: the table lists exactly the side-feasible
        sets, in lexicographic order, with the per-set coefficients."""
        shapes = 0
        for n in range(1, 7):
            for d in range(n):
                for ell in range(2, n - d + 2):
                    fmat = moment_matrix(n, d, ell)
                    sets = list(itertools.combinations(range(1, n - d + 2), ell))
                    for r in range(d, n + 1):
                        for target in TARGETS:
                            v = target_vector(n, d, r, target)
                            solved = {index_set: solve(fmat, index_set, v) for index_set in sets}
                            sides = {
                                index_set: feasible_sides(fmat, a, v)
                                for index_set, a in solved.items()
                            }
                            for side in SIDES:
                                shapes += 1
                                expected = [
                                    (index_set, solved[index_set])
                                    for index_set in sets
                                    if side in sides[index_set]
                                ]
                                got = [
                                    (
                                        basis.index_set,
                                        tuple(Fraction(x, basis.den) for x in basis.numerators),
                                    )
                                    for basis in dual_bases(fmat, v, side)
                                ]
                                assert got == expected, (n, d, ell, r, target, side)
        assert shapes == 1008

    def test_table_equals_the_exhaustive_build(self):
        """Every shape with n <= 10: the candidates of the root-count bound
        give the table that solving every index set gives, ranges included."""
        shapes = 0
        for n in range(1, 11):
            for d in range(n):
                for ell in range(2, n - d + 2):
                    fmat = moment_matrix(n, d, ell)
                    for r in range(d, n + 1):
                        for target in TARGETS:
                            v = target_vector(n, d, r, target)
                            for side in SIDES:
                                shapes += 1
                                table = dual_bases(fmat, v, side)
                                bases = tuple(
                                    (row.index_set, row.numerators, row.den)
                                    for row in table.bases
                                )
                                got = (bases, table.zero_positions, table.one_positions)
                                assert got == _exhaustive_table(fmat, v, side), (
                                    n, d, ell, r, target, side
                                )
        assert shapes == 5720

    def test_the_check_rejects_what_the_candidates_let_through(self, monkeypatch):
        """Every shape with n <= 7, with the candidates widened to every set
        outside the ranges: the check at every position alone keeps the
        table equal to the exhaustive build, rejecting thousands of solves."""

        class EveryCandidate:
            def __init__(self, v, ell, d, upper):
                self.sets = [
                    index_set
                    for index_set in itertools.combinations(range(1, len(v) + 1), ell)
                    if any(v[i - 1] for i in index_set)
                    and (d or not all(v[i - 1] for i in index_set))
                ]
                self.count = len(self.sets)

            def __iter__(self):
                return iter(self.sets)

        shapes = rejected = 0
        engine._basis_table.cache_clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(engine, "_Candidates", EveryCandidate)
                for n in range(1, 8):
                    for d in range(n):
                        for ell in range(2, n - d + 2):
                            fmat = moment_matrix(n, d, ell)
                            for r in range(d, n + 1):
                                for target in TARGETS:
                                    v = target_vector(n, d, r, target)
                                    for side in SIDES:
                                        shapes += 1
                                        table = dual_bases(fmat, v, side)
                                        bases = tuple(
                                            (row.index_set, row.numerators, row.den)
                                            for row in table.bases
                                        )
                                        got = (bases, table.zero_positions, table.one_positions)
                                        expected = _exhaustive_table(fmat, v, side)
                                        assert got == expected, (n, d, ell, r, target, side)
                                        ranges = sum(
                                            len(positions) >= ell
                                            for positions in expected[1:]
                                        )
                                        rejected += table.solved - (len(bases) - ranges)
        finally:
            engine._basis_table.cache_clear()
        assert shapes == 1680
        assert rejected == 10283

    def test_wide_shapes_solve_few_candidates(self):
        """The four n=60, d=0, ell=4 shapes that took seconds to tens of
        seconds to build from all 521,855 index sets."""
        fmat = moment_matrix(60, 0, 4)
        counts = {}
        for side, target, r in (
            ("upper", "at-least", 6),
            ("upper", "at-least", 30),
            ("lower", "at-least", 30),
            ("upper", "exactly", 30),
        ):
            table = dual_bases(fmat, target_vector(60, 0, r, target), side)
            counts[side, target, r] = (table.solved, len(table.bases))
        assert counts == {
            ("upper", "at-least", 6): (62, 63),
            ("upper", "at-least", 30): (86, 87),
            ("lower", "at-least", 30): (87, 88),
            ("upper", "exactly", 30): (114, 114),
        }

    def test_prefix_solves_equal_the_per_set_solve(self):
        """Every root-count candidate of every shape with n <= 8, and at
        n <= 6 every index set in lexicographic order, rejected ones
        included: the shared elimination yields the numerators and the
        denominator that solving the set alone on Fractions gives (each
        distinct system solved once)."""
        solves, reference = 0, {}
        for n in range(1, 9):
            for d in range(n):
                for ell in range(2, n - d + 2):
                    fmat = moment_matrix(n, d, ell)
                    columns = [fmat.column(i) for i in range(1, fmat.positions + 1)]
                    every = list(itertools.combinations(range(1, fmat.positions + 1), ell))
                    for r in range(d, n + 1):
                        for target in TARGETS:
                            v = target_vector(n, d, r, target)
                            runs = [
                                list(engine._Candidates(v, ell, d, side == SIDE_UPPER))
                                for side in SIDES
                            ] + ([every] if n <= 6 else [])
                            for index_sets in runs:
                                expected = []
                                for index_set in index_sets:
                                    system = (
                                        tuple(columns[i - 1] for i in index_set),
                                        tuple(v[i - 1] for i in index_set),
                                    )
                                    if system not in reference:
                                        reference[system] = integer_solve(*system)
                                    expected.append((index_set, *reference[system]))
                                got = list(engine._prefix_solves(columns, v, index_sets))
                                assert got == expected, (n, d, ell, r, target, index_sets[:1])
                                solves += len(index_sets)
        assert solves == 11711
        assert len(reference) == 4732

    def test_candidates_are_the_feasible_sets(self):
        """Every shape with n <= 9: the candidates, the difference count on
        the d = 0 shape with ell+d orders and the first d positions pinned,
        are exactly the feasible sets that are not in a range, so no solve
        is rejected."""
        shapes = 0
        for n in range(1, 10):
            for d in range(n):
                for ell in range(2, n - d + 2):
                    fmat = moment_matrix(n, d, ell)
                    for r in range(d, n + 1):
                        for target in TARGETS:
                            v = target_vector(n, d, r, target)
                            for side in SIDES:
                                shapes += 1
                                bases, _, _ = _exhaustive_table(fmat, v, side)
                                solved = [
                                    index_set
                                    for index_set, _, _ in bases
                                    if any(v[i - 1] for i in index_set)
                                    and (d or not all(v[i - 1] for i in index_set))
                                ]
                                upper = side == SIDE_UPPER
                                candidates = list(engine._Candidates(v, ell, d, upper))
                                assert candidates == solved, (n, d, ell, r, target, side)
                                assert dual_bases(fmat, v, side).solved == len(solved)
        assert shapes == 3960

    def test_a_d_shape_is_the_d0_shape_with_its_first_d_levels_pinned(self):
        """Every shape with n <= 7 and d >= 1, every index set I: the row of
        {1..d} with I + d for (n, 0, ell+d, (0,)*d + v) is d zeros and then
        I's row a for (n, d, ell, v), feasible for the same sides, so the
        d-table is the pinned part of the d = 0 table.  Both come from the
        per-set Fraction solve alone."""
        shapes = 0
        for n in range(2, 8):
            for d in range(1, n):
                for ell in range(2, n - d + 2):
                    fmat, wide = moment_matrix(n, d, ell), moment_matrix(n, 0, ell + d)
                    sets = list(itertools.combinations(range(1, n - d + 2), ell))
                    for r in range(d, n + 1):
                        for target in TARGETS:
                            v = target_vector(n, d, r, target)
                            pinned_v = (0,) * d + v
                            shapes += 1
                            for index_set in sets:
                                a = solve(fmat, index_set, v)
                                pinned = tuple(range(1, d + 1)) + tuple(i + d for i in index_set)
                                c = solve(wide, pinned, pinned_v)
                                where = (n, d, ell, r, target, index_set)
                                assert c == (0,) * d + a, where
                                sides = feasible_sides(fmat, a, v)
                                assert feasible_sides(wide, c, pinned_v) == sides, where
        assert shapes == 504

    def test_every_leading_minor_is_positive(self):
        """The no-swap claim: at n <= 8, orders 1..k at any k increasing
        positions have a positive determinant, so every pivot of the
        shared elimination, and its final denominator, is positive."""
        minors = 0
        for n in range(1, 9):
            for d in range(n):
                fmat = moment_matrix(n, d, n - d + 1)
                for k in range(1, fmat.positions + 1):
                    for positions in itertools.combinations(range(1, fmat.positions + 1), k):
                        assert determinant([fmat.column(i)[:k] for i in positions]) > 0
                        minors += 1
        assert minors == 1972

    def test_a_repeated_position_raises(self):
        """A singular system, a position repeated at the end or inside the
        prefix, raises naming the set instead of dividing by zero."""
        fmat = moment_matrix(4, 0, 3)
        columns = [fmat.column(i) for i in range(1, fmat.positions + 1)]
        v = target_vector(4, 0, 2)
        for run, bad in ((((1, 2, 3), (1, 2, 2)), (1, 2, 2)), (((1, 2, 3), (2, 2, 3)), (2, 2, 3))):
            with pytest.raises(DegenerateConfigurationError, match=re.escape(str(bad))):
                list(engine._prefix_solves(columns, v, run))

    def test_one_sets_are_listed_not_stored(self):
        """At d = 0 every set whose targets are all one solves to a = e_1;
        on the upper side the table stores only the first of them."""
        table = dual_bases(moment_matrix(30, 0, 3), target_vector(30, 0, 2), "upper")
        assert table.one_positions == tuple(range(3, 32))
        ones = [basis for basis in table if basis.index_set[0] >= 3]
        assert len(ones) == math.comb(29, 3)
        assert {(basis.numerators, basis.den) for basis in ones} == {((1, 0, 0), 1)}
        assert [basis for basis in table.bases if basis.index_set[0] >= 3] == ones[:1]

    def test_zero_sets_are_listed_not_stored(self):
        """On the lower side nearly every set has all targets zero; the
        table stores only the first of them and lists the rest on demand."""
        table = dual_bases(moment_matrix(30, 0, 3), target_vector(30, 0, 30), "lower")
        assert len(table.bases) == 2
        assert table.bases[0].index_set == (1, 2, 3)
        assert len(list(table)) == 4061


    def test_a_cold_table_builds_no_fraction(self, monkeypatch):
        """A table's rows leave their exact and float forms unset until read,
        and a form read later equals the one built from the numerators."""
        def no_fraction(*args):
            raise AssertionError("built a Fraction for a row nobody read")

        fmat, v = moment_matrix(12, 0, 4), target_vector(12, 0, 6)
        engine._basis_table.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(engine, "rational", no_fraction)
            table = dual_bases(fmat, v, "upper")
        assert len(table.bases) > 2
        assert all(row._coefficients is row._floats is None for row in table.bases)
        for row in table:
            coefficients = tuple(Fraction(x, row.den) for x in row.numerators)
            assert row.floats == tuple(float(c) for c in coefficients)
            assert row.coefficients == coefficients
            assert row.coefficients is row.coefficients

    def test_table_build_times_script_runs(self):
        """``scripts/table_build_times.py`` times every table of one shape
        family; at d = 0 and at d = 1 no candidate is rejected."""
        root = Path(__file__).resolve().parent.parent
        path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        for d, tables, solved in (("0", 36, 142), ("1", 32, 137)):
            result = subprocess.run(
                [
                    sys.executable, str(root / "scripts" / "table_build_times.py"),
                    "--n", "8", "--d", d, "--ell", "3", "--quiet",
                ],
                env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
                capture_output=True, text=True, check=True, timeout=120,
            )
            summary = result.stdout
            assert summary.startswith(f"n=8 d={d} ell=3: {tables} tables in "), summary
            pattern = rf"; solved={solved} rejected=0 at \d+\.\d us/candidate; slowest "
            assert re.search(pattern, summary), summary

    def test_search_request_times_script_runs(self):
        """``scripts/search_request_times.py`` splits each search-moments-shaped
        request, each in a fresh interpreter, into its timed pieces, with
        their net tracked allocations."""
        root = Path(__file__).resolve().parent.parent
        path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        result = subprocess.run(
            [
                sys.executable, str(root / "scripts" / "search_request_times.py"),
                "--tuple-n", "5", "--single-n", "6", "--repeat", "1",
            ],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
            capture_output=True, text=True, check=True, timeout=120,
        )
        lines = result.stdout.splitlines()
        assert lines[0].split() == [
            "request", "parse", "realize", "candidates", "solves", "checks", "evaluate",
            "payload", "json", "total",
        ]
        names = [
            "n5-d1-ell4-upper-at-least", "n5-d1-ell5-lower-exactly",
            "n6-d0-ell4-upper-at-least", "n6-d0-ell4-lower-exactly",
        ]
        for line, name in zip(lines[2:6], names):
            assert re.fullmatch(rf"{name}(\s+-?\d+/-?\d+){{9}}\s*", line), line
        assert re.fullmatch(r"pass \(us\)(\s+-?\d+){9}", lines[6]), lines[6]

    def test_a_payload_encodes_each_row_once(self):
        """The terms on one row share its coefficients tuple, which the payload
        encodes once; each term still gets a list of its own."""
        moments = moment_set(EventSystem(n=6, weights={m: Fraction(1, 64) for m in range(64)}), 1, 4)
        certificate = evaluate_request(moments, BoundRequest(r=3, d=1, ell=4))
        terms = certificate.to_payload()["terms"]
        assert terms == [term.to_payload() for term in certificate.terms]
        assert len({id(term.coefficients) for term in certificate.terms}) < len(terms)
        assert len({id(term["coefficients"]) for term in terms}) == len(terms)

    def test_closed_form_times_script_runs(self):
        """``scripts/closed_form_times.py`` prints the planned and unplanned
        closed-form cost and the allocations a request keeps per (ell,
        tuples), the fits, and the plan cache."""
        root = Path(__file__).resolve().parent.parent
        path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        result = subprocess.run(
            [
                sys.executable, str(root / "scripts" / "closed_form_times.py"),
                "--systems", "1", "--repeat", "1",
            ],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
            capture_output=True, text=True, check=True, timeout=120,
        )
        lines = result.stdout.splitlines()
        assert lines[0].split() == [
            "ell", "tuples", "requests", "planned_us", "unplanned_us", "allocs"
        ]
        assert re.fullmatch(r"\s+2\s+1\s+\d+\s+\d+\.\d\s+\d+\.\d\s+\d+\.\d", lines[1]), lines[1]
        for ell in (2, 3):
            for name in ("planned", "unplanned"):
                pattern = rf"ell={ell} {name}: fixed -?\d+\.\d us \+ -?\d+\.\d\d us/tuple"
                assert any(re.fullmatch(pattern, line) for line in lines), lines
        assert re.fullmatch(
            r"plans: CacheInfo\(hits=\d+, misses=(\d+), maxsize=4096, currsize=\1\)", lines[-1]
        ), lines[-1]


class TestWitness:
    def test_attaining_witness_on_fair_three(self):
        witness = sharpness_witness(F32, (2, 4), S)
        assert witness.nonnegative
        assert witness.z == (0, Fraction(3, 4), 0, Fraction(1, 4))
        assert sum(x * y for x, y in zip(witness.z, V1)) == 1

    def test_negative_witness_is_flagged(self):
        witness = sharpness_witness(F32, (1, 2), S)
        assert not witness.nonnegative
        assert witness.z == (Fraction(-1, 2), Fraction(3, 2), 0, 0)

    def test_an_exact_witness_is_one_elimination(self, monkeypatch):
        """Every index set with n <= 7, on random exact moments: the witness
        is the reference solve of F_I z = s, from one exact elimination."""
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        original = engine._prefix_solves
        monkeypatch.setattr(engine, "_prefix_solves", counted)
        rng = random.Random("witness")
        for n in range(2, 8):
            for d in range(n):
                for ell in range(2, n - d + 2):
                    fmat = moment_matrix(n, d, ell)
                    for index_set in itertools.combinations(range(1, fmat.positions + 1), ell):
                        s = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(ell)]
                        witness = sharpness_witness(fmat, index_set, s)
                        rows = [[row[i - 1] for i in index_set] for row in fmat.rows]
                        z = tuple(witness.z[i - 1] for i in index_set)
                        assert z == reference_solve(rows, s)
                        assert len(calls) == 1
                        calls.clear()

    def test_witness_system_reproduces_the_moments(self):
        witness = sharpness_witness(F32, (2, 4), S)
        induced = witness_system(witness, (), 3, 0)
        assert moment_set(induced, 0, 2).vector(()).values == S
        occurrence = exact_occurrence(induced)
        assert occurrence.at_least(1) == 1

    def test_witness_system_rejects_negative_witnesses(self):
        witness = sharpness_witness(F32, (1, 2), S)
        with pytest.raises(ValueError):
            witness_system(witness, (), 3, 0)

    def test_witness_system_pins_the_tuple_events(self):
        system = fair(3)
        fmat = moment_matrix(3, 1, 2)
        moments = moment_set(system, 1, 2)
        v = target_vector(3, 1, 2)
        certificate = evaluate_request(moments, BoundRequest(r=2, d=1, ell=2, formula="search"))
        term = certificate.terms[1]
        assert term.j == (2,)
        witness = sharpness_witness(fmat, term.index_set, moments.vector((2,)).values)
        assert witness.nonnegative
        induced = witness_system(witness, (2,), 3, 1)
        reproduced = moment_set(induced, 1, 2).vector((2,))
        assert reproduced.values == moments.vector((2,)).values
        attained = sum(x * y for x, y in zip(z_via_joint(induced, (2,)), v))
        assert attained == term.value
        assert witness_system(witness, [2], 3, 1) == induced
        for j, message in (((4,), "outside events 1..3"), ((1, 2), "expected d=1")):
            with pytest.raises(ValueError, match=message):
                witness_system(witness, j, 3, 1)


def _verdict(moments):
    try:
        check_realizable(moments)
    except InfeasibleMomentsError:
        return False
    return True


class TestNonnegativeSolution:
    """``check_realizable``: the closed-form facets of the moment cone."""

    def test_fair_three_holds_on_every_index_set(self):
        fmat = moment_matrix(3, 0, 3)
        moments = moment_set(fair(3), 0, 3)
        s = moments.vector(()).values
        for index_set in itertools.combinations(range(1, 5), 3):
            assert sharpness_witness(fmat, index_set, s).nonnegative
        assert realizable(fmat, s)
        check_realizable(moments)
        check_realizable(single_tuple(3, tuple(float(x) for x in s)))

    def test_moments_no_distribution_has(self):
        bad = (Fraction(1), Fraction(1, 10), Fraction(9, 10))
        assert not realizable(moment_matrix(3, 0, 3), bad)
        message = r"no distribution has the moments \['1', '1/10', '9/10'\] at j=\[\]: no occurrence"
        with pytest.raises(InfeasibleMomentsError, match=message):
            check_realizable(single_tuple(3, bad))
        with pytest.raises(InfeasibleMomentsError, match=r"moments \[1.0, 0.1, 0.9\] at j=\[\]"):
            check_realizable(single_tuple(3, tuple(float(x) for x in bad)))

    def test_facet_normals(self):
        """Every N <= 40, d <= 4, at 2 and 3 orders: the normals' zero sets
        are the polygon's edges (the two end points at 2 orders), each
        F^T a is >= 0 at every position and zero at exactly orders-1 of
        them, and each scale is max_x F_x . a / C(x+d-1, d)."""
        normals = 0
        for positions in range(2, 41):
            for d in range(5):
                fmat = moment_matrix(positions + d - 1, d, min(3, positions))
                for orders in range(2, fmat.ell + 1):
                    zero_sets = set()
                    for a, scale in engine._facets(positions, d, orders):
                        b = [sum(map(operator.mul, a, fmat.column(x))) for x in range(1, positions + 1)]
                        assert min(b) >= 0
                        zeros = tuple(x for x, b_x in enumerate(b, 1) if not b_x)
                        assert len(zeros) == orders - 1
                        zero_sets.add(zeros)
                        heights = (Fraction(b_x, math.comb(x + d - 1, d)) for x, b_x in enumerate(b, 1))
                        assert scale == max(heights)
                        normals += 1
                    edges = {(1,), (positions,)} if orders == 2 else {
                        *((i, i + 1) for i in range(1, positions)), (1, positions)
                    }
                    assert zero_sets == edges, (positions, d, orders)
        assert normals == 4475

    def test_five_facets_decide_as_the_full_scan(self):
        """An exact tuple at 3 orders meets both end edges, the two edges
        around the vertex and {1, N}; the verdict and message equal those of
        every facet (``oracles.check_realizable_by_scan``), exact and as
        floats.  The tuples lie on an edge {i, i+1} with s_3 moved by up to
        +-3/97, or anywhere in [-1, 1]^3, s_1 <= 0 included."""
        rng = random.Random(34)
        verdicts = collections.Counter()
        for _ in range(4000):
            d = rng.choice((0, 0, 1, 2))
            n = rng.randint(d + 2, {0: 60, 1: 30, 2: 8}[d])
            positions = n - d + 1
            if rng.random() < 0.75:
                i = rng.randint(1, positions - 1)
                z = [rng.randint(1, 9) if x in (i, i + 1) else 0 for x in range(1, positions + 1)]
                rows = moment_matrix(n, d, 3).rows
                total = 2 * sum(map(operator.mul, rows[0], z))
                s = [Fraction(sum(map(operator.mul, row, z)), total) for row in rows]
                s[2] += Fraction(rng.randint(-3, 3), 97)
            else:
                s = [Fraction(rng.randint(-20, 20), 20) for _ in range(3)]
            for values in (tuple(s), tuple(map(float, s))):
                vectors = [MomentVector(j, values) for j in index_tuple_indices(n, d)]
                moments = MomentSet(n=n, d=d, ell=3, vectors=vectors)
                outcomes = []
                for check in (check_realizable, check_realizable_by_scan):
                    try:
                        check(moments)
                        outcomes.append(None)
                    except InfeasibleMomentsError as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1], (n, d, values)
                verdicts[type(values[0]).__name__, outcomes[0] is None] += 1
        assert min(verdicts.values()) > 500, verdicts

    def test_verdict_equals_the_index_set_oracle(self):
        """Every shape with n <= 8: a tuple passes exactly when some index set
        gives z >= 0 for its first min(ell, 3) orders (``oracles.realizable``).
        The tuples are F z, at every ell, for z >= 0 on all positions, on the
        end points, on one position and on two neighbours, scaled to
        s_1 = 1/2; and the same with one of those orders moved by +-1/97 or
        to -1/97; exact and as floats.  ``MomentSet.from_payload`` rejects a
        negative moment before the check, so there the facets are read
        directly."""
        rng = random.Random(25)
        step = Fraction(1, 97)
        shifts = (lambda x: x + step, lambda x: x - step, lambda x: -step)
        oracle, verdicts = {}, collections.Counter()
        for n in range(1, 9):
            for d in range(n):
                positions = n - d + 1
                i = rng.randint(1, positions - 1)
                supports = (
                    range(1, positions + 1), (1, positions), (rng.randint(1, positions),), (i, i + 1)
                )
                scaled = []
                for support in supports:
                    z = [rng.randint(1, 9) if x in support else 0 for x in range(1, positions + 1)]
                    full = [sum(map(operator.mul, row, z)) for row in moment_matrix(n, d, positions).rows]
                    scaled.append([Fraction(x, 2 * full[0]) for x in full])
                for ell, full in itertools.product(range(2, positions + 1), scaled):
                    s, orders = full[:ell], min(ell, 3)
                    moved = [s[:k] + [shift(s[k])] + s[k + 1:] for k in range(orders) for shift in shifts]
                    facets = engine._facets(positions, d, orders)
                    for values in [s] + moved:
                        if min(values) < 0:
                            assert any(sum(map(operator.mul, a, values)) < 0 for a, _ in facets)
                            verdicts["negative"] += 1
                            continue
                        key = (n, d, tuple(values[:orders]))
                        if key not in oracle:
                            oracle[key] = realizable(moment_matrix(n, d, orders), key[2])
                        for form in (values, [float(x) for x in values]):
                            vectors = [MomentVector(j, form) for j in index_tuple_indices(n, d)]
                            moments = MomentSet(n=n, d=d, ell=ell, vectors=vectors)
                            assert _verdict(moments) == oracle[key], (n, d, ell, form)
                            verdicts[oracle[key]] += 1
        assert verdicts == {True: 4586, False: 1388, "negative": 1381}


class TestJordan:
    def test_reproduces_the_oracle_exactly(self):
        system = fair(3)
        occurrence = exact_occurrence(system)
        moments = moment_set(system, 0, 4)
        at_least = BoundRequest(r=1, d=0, ell=4, formula="jordan")
        exactly = BoundRequest(r=2, d=0, ell=4, target="exactly", formula="jordan")
        assert evaluate_request(moments, at_least).value == Fraction(7, 8)
        assert evaluate_request(moments, exactly).value == occurrence.p[2]

    def test_requires_the_full_order(self):
        message = "exact evaluation needs ell = n-d+1 = 4, got ell=2"
        with pytest.raises(NotApplicableError, match=re.escape(message)):
            evaluate_request(single_tuple(3, S), BoundRequest(r=1, d=0, ell=2, formula="jordan"))

    def test_is_the_search_at_full_order(self):
        """At ell = n-d+1 the search's one feasible set is every position, so
        a "jordan" request and a "search" one give the same payload but for
        every formula label, exact and float, at every d < n, r, side and
        target."""

        def labels(payload):
            found = [payload.pop("formula")]
            for term in payload["terms"]:
                found.append(term.pop("formula"))
            return set(found)

        rng, requests = random.Random(9), 0
        for _ in range(40):
            exact = random_system(rng, rng.randint(2, 6))
            for system in (exact, floatize(exact)):
                n = system.n
                for d in range(n):
                    moments = moment_set(system, d, n - d + 1)
                    grid = itertools.product(range(d, n + 1), SIDES, TARGETS)
                    for r, side, target in grid:
                        request = dict(r=r, d=d, ell=moments.ell, side=side, target=target)
                        jordan = BoundRequest(**request, formula="jordan")
                        jordan = evaluate_request(moments, jordan).to_payload()
                        search = BoundRequest(**request, formula="search")
                        search = evaluate_request(moments, search).to_payload()
                        assert (labels(jordan), labels(search)) == ({"jordan"}, {"search"})
                        assert jordan == search, (n, d, r, side, target)
                        requests += 1
        assert requests == 4880


class TestLinearSolveEdgeCases:
    def test_singular_system_is_reported(self):
        fmat = moment_matrix(4, 0, 2)
        # duplicate positions cannot arise through the public API; the
        # validation layer rejects them before the solver sees a singular
        # system
        with pytest.raises(ValueError):
            sharpness_witness(fmat, (2, 2), S)
        with pytest.raises(DegenerateConfigurationError, match=re.escape("(1, 2)")):
            list(engine._prefix_solves([fmat.column(2), fmat.column(2)], [1, 1], [(1, 2)]))
        with pytest.raises(ValueError, match="singular"):
            integer_solve([fmat.column(2), fmat.column(2)], [1, 1])

    def test_float_target_uses_float_path(self):
        witness = sharpness_witness(F32, (1, 2), (1.0, 1.5))
        assert witness.z == (-0.5, 1.5, 0.0, 0.0)
        assert all(isinstance(x, float) for x in witness.z)
        assert not witness.nonnegative
