"""The randomized property suites: determinism, coverage, and teeth."""

import dataclasses
import json
import random
from fractions import Fraction

import pytest

from eventbounds import bounds_l2, bounds_l3, dispatch
from eventbounds.certificates import BoundCertificate, BoundRequest
from eventbounds.checker import check_certificate
from eventbounds.conditional import expectation_aggregate
from eventbounds.core import EventSystem, exact_occurrence
from eventbounds.dispatch import evaluate_request
from eventbounds.engine import Row
from eventbounds.moments import _level_sums, moment_set
from eventbounds.numerics import clamp01
from eventbounds.verification import (
    SuiteReport,
    floatize,
    random_partition,
    random_system,
    run_all,
    suite_classical,
    suite_conditional,
    suite_decomposition,
    suite_engine_agreement,
    suite_jordan,
    suite_optimal_m,
    suite_sandwich,
    suite_witness_closure,
)


class TestGenerators:
    def test_random_system_is_normalized_and_exact(self):
        system = random_system(random.Random("gen"), 4)
        assert system.exact
        assert sum(system.weights.values()) == 1

    def test_random_system_is_deterministic(self):
        first = random_system(random.Random("gen"), 4)
        second = random_system(random.Random("gen"), 4)
        assert first.weights == second.weights

    def test_floatize(self):
        system = floatize(random_system(random.Random("gen"), 3))
        assert not system.exact
        assert all(isinstance(w, float) for w in system.weights.values())
        assert abs(sum(system.weights.values()) - 1.0) < 1e-12

    def test_random_partition_is_valid_and_deterministic(self):
        first = random_partition(random.Random("part"), 3)
        second = random_partition(random.Random("part"), 3)
        assert first == second
        assert sum(len(block) for block in first.blocks) == 8


class TestVerifyCounts:
    def test_run_all_counts_are_pinned(self):
        # The suites, trial counts and check counts of `verify --trials 50
        # --n-max 6 --seed 42`; a change to any of them changes what verify checks.
        reports = run_all(50, 6, 42)
        assert [(r.name, r.passed, r.trials, r.checks) for r in reports] == [
            ("sandwich", True, 50, 9912),
            ("classical", True, 5, 10),
            ("decomposition", True, 5, 94),
            ("optimal-m", True, 10, 3682),
            ("engine-agreement", True, 10, 448),
            ("witness-closure", True, 10, 41),
            ("jordan", True, 5, 108),
            ("conditional", True, 10, 108),
        ]


class TestRunArguments:
    @pytest.mark.parametrize(
        "trials, n_max, message",
        [
            (0, 6, "trials must be at least 1, got 0"),
            (-3, 4, "trials must be at least 1, got -3"),
            (5, 1, "n_max must be in 2..20, got 1"),
            (5, 21, "n_max must be in 2..20, got 21"),
        ],
    )
    def test_rejects_a_run_it_cannot_make(self, monkeypatch, trials, n_max, message):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("eventbounds.verification.random_system", no_trial)
        with pytest.raises(ValueError) as caught:
            run_all(trials, n_max, 42)
        assert str(caught.value) == message

    def test_accepts_the_ends_of_the_range(self):
        assert suite_classical(trials=1, n_max=2, seed=3).trials == 1
        assert suite_classical(trials=1, n_max=20, seed=3).passed


class TestSuiteReport:
    def test_pass_line(self):
        report = SuiteReport(
            name="sandwich", passed=True, trials=5, checks=10, failures=(), elapsed=0.1
        )
        assert report.line() == "PASS sandwich: 5 trials, 10 checks"

    def test_fail_line_mentions_the_failures(self):
        report = SuiteReport(
            name="jordan", passed=False, trials=5, checks=10, failures=("boom",), elapsed=0.1
        )
        assert report.line().startswith("FAIL jordan")
        assert "failing" in report.line()


class TestSuitesPass:
    def test_sandwich(self):
        report = suite_sandwich(trials=15, n_max=6, seed=11)
        assert report.passed and report.checks > 0

    def test_classical(self):
        report = suite_classical(trials=25, n_max=6, seed=11)
        assert report.passed and report.checks == 50

    def test_decomposition(self):
        report = suite_decomposition(trials=10, n_max=6, seed=11)
        assert report.passed and report.checks > 0

    def test_optimal_m(self):
        report = suite_optimal_m(trials=10, n_max=6, seed=11)
        assert report.passed and report.checks > 0

    def test_engine_agreement(self):
        report = suite_engine_agreement(trials=10, n_max=6, seed=11)
        assert report.passed and report.checks > 0

    def test_witness_closure(self):
        report = suite_witness_closure(trials=15, n_max=6, seed=11)
        assert report.passed and report.checks > 0

    def test_jordan(self):
        report = suite_jordan(trials=8, n_max=6, seed=11)
        assert report.passed and report.checks > 0

    def test_conditional(self):
        report = suite_conditional(trials=10, n_max=6, seed=11)
        assert report.passed and report.checks > 0

    def test_suites_are_deterministic_given_the_seed(self):
        first = suite_sandwich(trials=5, n_max=5, seed=3)
        second = suite_sandwich(trials=5, n_max=5, seed=3)
        assert (first.passed, first.trials, first.checks) == (
            second.passed,
            second.trials,
            second.checks,
        )


class TestRunAll:
    def test_covers_every_suite_and_scales_trials(self):
        reports = run_all(trials=20, n_max=4, seed=3)
        assert [r.name for r in reports] == [
            "sandwich",
            "classical",
            "decomposition",
            "optimal-m",
            "engine-agreement",
            "witness-closure",
            "jordan",
            "conditional",
        ]
        assert all(r.passed for r in reports)
        by_name = {r.name: r for r in reports}
        assert by_name["sandwich"].trials == 20
        assert by_name["classical"].trials == 2
        assert by_name["optimal-m"].trials == 4


def _assert_caught(report, name):
    """The suite failed, and its first reproducer names it and carries a
    system that rebuilds."""
    assert not report.passed
    line = report.failures[0]
    assert line.startswith(f"suite={name} ")
    rebuilt = EventSystem.from_payload(json.loads(line.split(" system=", 1)[1]))
    assert sum(rebuilt.weights.values()) == 1


def _skewed(solved_row, index_set_at):
    """``solved_row`` with the second coefficient of the row at the index
    set ``index_set_at(n, r, d)`` lowered by one."""

    def skewed(n, r, d, target, index_set, m):
        row = solved_row(n, r, d, target, index_set, m)
        if index_set != index_set_at(n, r, d):
            return row
        a, b, *rest = row.numerators
        return Row(index_set, m, (a, b - row.den, *rest), row.den)

    return skewed


class TestMutationSensitivity:
    """A deliberately broken piece of the package must trip its suite."""

    def test_sandwich_catches_it_with_a_reproducer(self, skewed_ub2_row):
        _assert_caught(suite_sandwich(trials=30, n_max=6, seed=7), "sandwich")

    def test_engine_agreement_catches_it(self, skewed_ub2_row):
        _assert_caught(suite_engine_agreement(trials=30, n_max=6, seed=7), "engine-agreement")

    def test_classical_catches_a_skewed_u1_row(self, monkeypatch, fresh_plans):
        skewed = _skewed(bounds_l2.solved_row, lambda n, r, d: (1, r - d + 1))
        monkeypatch.setattr(bounds_l2, "solved_row", skewed)
        _assert_caught(suite_classical(trials=20, n_max=6, seed=7), "classical")

    def test_optimal_m_catches_a_window_rule_that_keeps_the_low_end(self, monkeypatch):
        for module in (bounds_l2, bounds_l3):
            monkeypatch.setattr(module, "window_candidates", lambda num, den, lo, hi: (lo,))
        _assert_caught(suite_optimal_m(trials=10, n_max=6, seed=7), "optimal-m")

    def test_jordan_catches_a_skewed_full_order_row(self, monkeypatch):
        """The one row the search stores at full order, every position,
        skewed after the table's own check: both the value and the checker
        comparison see it, and the suite fails."""
        original = dispatch.dual_bases

        def skewed(fmat, v, side):
            table = original(fmat, v, side)
            if fmat.ell != fmat.positions:
                return table
            (row,) = table.bases
            a, b, *rest = row.numerators
            row = Row(row.index_set, row.m, (a, b - row.den, *rest), row.den)
            return dataclasses.replace(table, bases=(row,))

        monkeypatch.setattr(dispatch, "dual_bases", skewed)
        system = random_system(random.Random("jordan"), 4)
        moments = moment_set(system, 0, 5)
        certificate = evaluate_request(moments, BoundRequest(r=2, d=0, ell=5, formula="jordan"))
        assert certificate.value != exact_occurrence(system).at_least(2)
        assert check_certificate(certificate, moments)
        _assert_caught(suite_jordan(trials=5, n_max=6, seed=7), "jordan")

    def test_witness_closure_reports_a_check_that_raises(self, inflated_exact_witness):
        report = suite_witness_closure(trials=15, n_max=6, seed=7)
        _assert_caught(report, "witness-closure")
        assert any(" error=DegenerateMeasureError " in line for line in report.failures)

    def test_decomposition_catches_an_extra_top_level_mass(self, monkeypatch):
        def inflated(weights, n, d):
            table = _level_sums(weights, n, d)
            for levels in table.values():
                levels[-1] += 1
            return table

        monkeypatch.setattr("eventbounds.moments._level_sums", inflated)
        _assert_caught(suite_decomposition(trials=10, n_max=6, seed=7), "decomposition")

    def test_conditional_catches_it(self, skewed_ub2_row):
        _assert_caught(suite_conditional(trials=30, n_max=6, seed=7), "conditional")

    def test_conditional_catches_a_negative_margin(self, monkeypatch):
        # The first aggregate comes back a trillionth looser than its
        # unconditional bound; the exact margin check has no slack for it.
        aggregates = []

        def loosened(blocks, unconditional):
            aggregated = expectation_aggregate(blocks, unconditional)
            aggregates.append(aggregated)
            if len(aggregates) > 1:
                return aggregated
            return dataclasses.replace(aggregated, margin=Fraction(-1, 10**12))

        monkeypatch.setattr("eventbounds.verification.expectation_aggregate", loosened)
        report = suite_conditional(trials=10, n_max=6, seed=11)
        _assert_caught(report, "conditional")
        assert len(report.failures) == 1
        assert " kind=margin margin=-1/1000000000000 " in report.failures[0]

    def test_clean_run_recovers(self):
        assert suite_sandwich(trials=5, n_max=5, seed=7).passed


@pytest.fixture
def ub2_case():
    """An exact ub2 certificate at r=3, d=1, ell=3 on a seeded n=5 system:
    five terms, value 107567/152552 inside (0, 1), and b = F^T a above v
    off its index set; and the moments it was made from."""
    moments = moment_set(random_system(random.Random("checker"), 5), 1, 3)
    certificate = evaluate_request(moments, BoundRequest(r=3, d=1, ell=3, formula="ub2"))
    assert 0 < certificate.value < 1 and len(certificate.terms) == 5
    assert check_certificate(certificate, moments) == []
    return certificate, moments


def _with_term_value(certificate, delta):
    """The certificate with its first term's value moved by delta, and the
    total and clamped moved along, so only that term is wrong."""
    terms = list(certificate.terms)
    terms[0] = dataclasses.replace(terms[0], value=terms[0].value + delta)
    value = certificate.value + delta
    return dataclasses.replace(certificate, terms=tuple(terms), value=value, clamped=clamp01(value))


class TestCertificateChecker:
    """check_certificate flags each defect by the check that owns it."""

    def test_flags_a_skewed_row(self, skewed_ub2_row):
        moments = moment_set(random_system(random.Random("checker"), 5), 1, 3)
        for request in (
            BoundRequest(r=3, d=1, ell=3, formula="ub2"),
            BoundRequest(r=3, d=1, ell=3),
        ):
            certificate = evaluate_request(moments, request)
            problems = check_certificate(certificate, moments)
            assert len(problems) == 5, (request, problems)
            assert all(": F^T a is below the target at" in p for p in problems), problems

    def test_flags_a_swapped_side(self, ub2_case):
        certificate, moments = ub2_case
        problems = check_certificate(dataclasses.replace(certificate, side="lower"), moments)
        assert len(problems) == 5
        assert all(": F^T a is above the target at [2, 4]" in p for p in problems), problems

    def test_flags_an_altered_term_value(self, ub2_case):
        certificate, moments = ub2_case
        altered = _with_term_value(certificate, Fraction(1, 7))
        assert check_certificate(altered, moments) == [
            f"term j=[1]: a . s is not its value {altered.terms[0].value}"
        ]

    def test_flags_an_altered_total(self, ub2_case):
        certificate, moments = ub2_case
        value = certificate.value + Fraction(1, 1000)
        altered = dataclasses.replace(certificate, value=value, clamped=clamp01(value))
        assert check_certificate(altered, moments) == [
            f"the term values do not sum to the value {value}"
        ]

    def test_flags_an_altered_clamped(self, ub2_case):
        certificate, moments = ub2_case
        altered = dataclasses.replace(certificate, clamped=certificate.value / 2)
        assert check_certificate(altered, moments) == [
            f"clamped {certificate.value / 2} is not the value clipped to [0, 1]"
        ]

    def test_flags_an_exact_value_off_by_one_in_a_trillion(self, ub2_case):
        certificate, moments = ub2_case
        delta = Fraction(1, 10**12)
        problems = check_certificate(_with_term_value(certificate, delta), moments)
        assert problems and all("a . s is not its value" in p for p in problems)
        # the same slip on float moments is within the float tolerance
        floats = moment_set(floatize(random_system(random.Random("checker"), 5)), 1, 3)
        certificate = evaluate_request(floats, BoundRequest(r=3, d=1, ell=3, formula="ub2"))
        assert check_certificate(_with_term_value(certificate, 1e-12), floats) == []

    def test_flags_a_moved_index_set_and_a_wrong_tuple(self, ub2_case):
        certificate, moments = ub2_case
        terms = list(certificate.terms)
        terms[1] = dataclasses.replace(terms[1], index_set=(1, 2, 5))
        terms[2] = dataclasses.replace(terms[2], j=terms[3].j)
        problems = check_certificate(dataclasses.replace(certificate, terms=tuple(terms)), moments)
        assert problems == [
            "the top-level field 'index_set' is not every term's",
            "term j=[2]: F^T a is not the target on the index set [1, 2, 5]",
            "term j=[4]: its moment vector is j=[3]",
        ]

    def test_flags_top_level_fields_that_are_not_every_terms(self):
        """A certificate read from a file is checked on its top-level
        coefficients, index set and m as well as on its terms."""
        fair3 = EventSystem(n=3, weights={mask: Fraction(1, 8) for mask in range(8)})
        u2 = BoundRequest(r=1, d=0, ell=2, formula="u2")
        l2 = BoundRequest(r=1, d=1, ell=2, side="lower", formula="l2")
        cases = ((u2, {"coefficients": ["7", "7"], "index_set": [2, 3]}), (l2, {"m": 99}))
        for request, altered in cases:
            moments = moment_set(fair3, request.d, request.ell)
            payload = evaluate_request(moments, request).to_payload()
            assert check_certificate(BoundCertificate.from_payload(payload), moments) == []
            payload.update(altered)
            assert check_certificate(BoundCertificate.from_payload(payload), moments) == [
                f"the top-level field {name!r} is not every term's" for name in altered
            ]
