"""Dual solves, the basis tables, index-set search, and sharpness witnesses.

Solves and feasibility are held to the Fraction oracles in ``oracles``."""

import itertools
import math
import operator
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import dual_gaps, feasible_sides, reference_solve, z_via_joint

from eventbounds import engine
from eventbounds.certificates import SIDE_UPPER, SIDES, TARGETS, BoundRequest
from eventbounds.core import EventSystem, exact_occurrence
from eventbounds.dispatch import evaluate_request
from eventbounds.engine import (
    dual_bases,
    has_nonnegative_solution,
    sharpness_witness,
    solve_integer,
    target_vector,
    witness_system,
)
from eventbounds.errors import (
    DegenerateConfigurationError,
    NotApplicableError,
    ResourceLimitError,
)
from eventbounds.moments import MomentSet, MomentVector, moment_matrix, moment_set
from eventbounds.numerics import dot_product


def fair(n):
    return EventSystem(n=n, weights={m: Fraction(1, 1 << n) for m in range(1 << n)})


# Binomial(60, 1/2) moments at d = 0: s_k = C(60, k-1) / 2^(k-1).
BINOMIAL_60 = tuple(Fraction(math.comb(60, k), 2**k) for k in range(7))

F32 = moment_matrix(3, 0, 2)  # rows (1,1,1,1) and (0,1,2,3)
V1 = target_vector(3, 0, 1)  # at-least one event: v = (0,1,1,1)
S = (Fraction(1), Fraction(3, 2))  # fair-3 moments at d=0, ell=2


def single_tuple(n, values):
    """The d = 0 moment set of n events with the given moments, unchecked."""
    vector = MomentVector(j=(), n=n, d=0, ell=len(values), values=values)
    return MomentSet(n=n, d=0, ell=len(values), vectors=(vector,))


def search(moments, r, side):
    request = BoundRequest(r=r, d=0, ell=moments.ell, side=side, formula="search")
    return evaluate_request(moments, request)


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
    solve and index-set validation against them."""

    def test_known_solves(self):
        assert solve(F32, (1, 2), V1) == (0, 1)
        assert solve(F32, (2, 4), V1) == (1, 0)
        for index_set, a in (((1, 2), (0, 1)), ((2, 4), (1, 0))):
            rhs = [V1[i - 1] for i in index_set]
            numerators, den = solve_integer([F32.column(i) for i in index_set], rhs)
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
        # The cap limits candidate sets: 2,413,456 at n=60, d=0, ell=6, r=30.
        with pytest.raises(ResourceLimitError):
            search(single_tuple(60, BINOMIAL_60[:6]), 30, "upper")

    def test_float_moments_pick_the_same_set(self):
        certificate = search(single_tuple(3, (1.0, 1.5)), 1, "upper")
        assert certificate.index_set == (2, 3)
        assert certificate.value == 1.0
        assert isinstance(certificate.value, float)
        assert feasible(F32, V1, "upper") == ((1, 2), (2, 3), (2, 4), (3, 4))

    def test_cap_is_checked_before_any_solve(self, monkeypatch):
        def no_solve(rows, rhs):
            raise AssertionError("solved an index set above the cap")

        monkeypatch.setattr(engine, "solve_integer", no_solve)
        fmat = moment_matrix(60, 0, 6)
        v = target_vector(60, 0, 30)
        message = "2413456 candidate index sets exceed the enumeration cap of 1000000"
        with pytest.raises(ResourceLimitError, match=message):
            dual_bases(fmat, v, "upper")
        with pytest.raises(ResourceLimitError, match=message):
            search(single_tuple(60, BINOMIAL_60[:6]), 30, "lower")


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
    bases = []
    for index_set in itertools.combinations(range(1, fmat.positions + 1), ell):
        rhs = [v[i - 1] for i in index_set]
        if not any(rhs) or (fmat.d == 0 and all(rhs)):
            if index_set in firsts:
                bases.append((index_set, firsts[index_set], 1))
            continue
        numerators, den = solve_integer([columns[i - 1] for i in index_set], rhs)
        gaps = [sum(map(operator.mul, numerators, c)) - t * den for c, t in zip(columns, v)]
        if all(gap >= 0 if upper else gap <= 0 for gap in gaps):
            bases.append((index_set, numerators, den))
    return tuple(bases), zero_positions, one_positions


class TestBasisTable:
    def test_integer_solve_matches_fractions(self):
        rows = [[2, -1, 0], [0, 0, 3], [1, 4, 1]]
        numerators, den = solve_integer(rows, [1, 0, 2])
        assert den > 0
        assert tuple(Fraction(x, den) for x in numerators) == reference_solve(rows, [1, 0, 2])
        with pytest.raises(DegenerateConfigurationError):
            solve_integer([[1, 2], [2, 4]], [1, 1])

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
            counts[side, target, r] = (table.solved, table.stored)
        assert counts == {
            ("upper", "at-least", 6): (1501, 63),
            ("upper", "at-least", 30): (5101, 87),
            ("lower", "at-least", 30): (5101, 88),
            ("upper", "exactly", 30): (114, 114),
        }

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
        assert table.stored > 2
        assert all(row._coefficients is row._floats is None for row in table.bases)
        for row in table:
            coefficients = tuple(Fraction(x, row.den) for x in row.numerators)
            assert row.floats == tuple(float(c) for c in coefficients)
            assert row.coefficients == coefficients
            assert row.coefficients is row.coefficients

    def test_table_build_times_script_runs(self):
        """``scripts/table_build_times.py`` times every table of one shape family."""
        root = Path(__file__).resolve().parent.parent
        path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        result = subprocess.run(
            [
                sys.executable, str(root / "scripts" / "table_build_times.py"),
                "--n", "8", "--d", "0", "--ell", "3", "--quiet",
            ],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
            capture_output=True, text=True, check=True, timeout=120,
        )
        assert result.stdout.startswith("n=8 d=0 ell=3: 36 tables in "), result.stdout


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
        witness = sharpness_witness(fmat, term.index_set, moments.vector((2,)))
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


class TestNonnegativeSolution:
    def test_fair_three_holds_on_every_index_set(self):
        fmat = moment_matrix(3, 0, 3)
        s = moment_set(fair(3), 0, 3).vector(()).values
        for index_set in itertools.combinations(range(1, 5), 3):
            assert sharpness_witness(fmat, index_set, s).nonnegative
        assert has_nonnegative_solution(fmat, s)

    def test_moments_no_distribution_has(self):
        fmat = moment_matrix(3, 0, 3)
        bad = (Fraction(1), Fraction(1, 10), Fraction(9, 10))
        assert not has_nonnegative_solution(fmat, bad)
        assert not has_nonnegative_solution(fmat, tuple(float(x) for x in bad))


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


class TestLinearSolveEdgeCases:
    def test_singular_system_is_reported(self):
        fmat = moment_matrix(4, 0, 2)
        # duplicate positions cannot arise through the public API; the
        # validation layer rejects them before the solver sees a singular
        # system
        with pytest.raises(ValueError):
            sharpness_witness(fmat, (2, 2), S)
        with pytest.raises(DegenerateConfigurationError):
            solve_integer([fmat.column(2), fmat.column(2)], [1, 1])

    def test_float_target_uses_float_path(self):
        witness = sharpness_witness(F32, (1, 2), (1.0, 1.5))
        assert witness.z == (-0.5, 1.5, 0.0, 0.0)
        assert all(isinstance(x, float) for x in witness.z)
        assert not witness.nonnegative
