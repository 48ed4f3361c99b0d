"""The randomized property suites: determinism, coverage, and teeth."""

import json
import random

from eventbounds.core import EventSystem
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


class TestMutationSensitivity:
    """A deliberately skewed coefficient must trip the suites."""

    def test_sandwich_catches_it_with_a_reproducer(self, skewed_ub2_row):
        report = suite_sandwich(trials=30, n_max=6, seed=7)
        assert not report.passed
        assert report.failures
        line = report.failures[0]
        assert "suite=sandwich" in line
        payload = json.loads(line.split("system=", 1)[1])
        rebuilt = EventSystem.from_payload(payload)
        assert sum(rebuilt.weights.values()) == 1

    def test_engine_agreement_catches_it(self, skewed_ub2_row):
        report = suite_engine_agreement(trials=30, n_max=6, seed=7)
        assert not report.passed

    def test_clean_run_recovers(self):
        assert suite_sandwich(trials=5, n_max=5, seed=7).passed
