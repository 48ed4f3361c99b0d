"""Acceptance criteria, one test per criterion.

Every criterion prints one PASS/FAIL line (visible with ``pytest -s`` or
when the checks run); rational-mode comparisons are exact with zero
tolerance, float-mode comparisons allow 1e-9.  Randomized criteria use
fixed seeds, so the whole file is deterministic.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from eventbounds.certificates import BoundRequest
from eventbounds.conditional import (
    PartitionField,
    conditional_bound,
    expectation_aggregate,
)
from eventbounds.core import EventSystem, exact_occurrence
from eventbounds.dispatch import bound_for_system, evaluate_request
from eventbounds.moments import moment_set
from eventbounds.verification import (
    suite_classical,
    suite_conditional,
    suite_decomposition,
    suite_engine_agreement,
    suite_jordan,
    suite_optimal_m,
    suite_sandwich,
    suite_witness_closure,
)

FIXTURES = Path(__file__).parent / "fixtures"
SEED = 42
N_MAX = 8


def _report(index: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"{status} criterion {index}: {name} ({detail})", flush=True)


def _suite_criterion(index: int, name: str, report) -> None:
    detail = f"{report.trials} trials, {report.checks} checks"
    if report.failures:
        detail += f", first failure: {report.failures[0]}"
    _report(index, name, report.passed, detail)
    assert report.passed, report.failures[:1]


def test_criterion_1_sandwich():
    report = suite_sandwich(trials=1000, n_max=N_MAX, seed=SEED)
    _suite_criterion(
        1, "clamped lower <= exact <= clamped upper, rational and float modes", report
    )


def test_criterion_2_sharpness_fixture():
    system = EventSystem(n=3, weights={m: Fraction(1, 8) for m in range(8)})
    occurrence = exact_occurrence(system)
    moments = moment_set(system, 1, 3)

    def bound(side, target, formula):
        request = BoundRequest(r=2, d=1, ell=3, side=side, target=target, formula=formula)
        return evaluate_request(moments, request)

    upper_pair = (bound("upper", "at-least", "ub2"), bound("upper", "exactly", "ub2"))
    lower_pair = (bound("lower", "at-least", "lb2"), bound("lower", "exactly", "lb2"))
    values = (
        upper_pair[0].value,
        lower_pair[0].value,
        upper_pair[1].value,
        lower_pair[1].value,
    )
    expected = (
        occurrence.at_least(2),
        occurrence.at_least(2),
        occurrence.p[2],
        occurrence.p[2],
    )
    passed = values == expected == (
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(3, 8),
        Fraction(3, 8),
    ) and all(cert.exact for cert in upper_pair + lower_pair)
    _report(
        2,
        "three fair independent events, d=1, ell=3, r=2: both sides sharp",
        passed,
        f"at-least {values[0]} and {values[1]}, exactly {values[2]} and {values[3]}",
    )
    assert passed


def test_criterion_3_classical_recovery():
    report = suite_classical(trials=100, n_max=N_MAX, seed=SEED)
    _suite_criterion(
        3, "first-moment bounds at r=1, d=0 recover the classical forms", report
    )


def test_criterion_4_decomposition_identity():
    report = suite_decomposition(trials=100, n_max=N_MAX, seed=SEED)
    _suite_criterion(
        4, "joint-mass decomposition matches the oracle for all d <= r <= n", report
    )


def test_criterion_5_optimal_m():
    report = suite_optimal_m(trials=200, n_max=N_MAX, seed=SEED)
    _suite_criterion(
        5, "automatic windows attain the full-sweep extremum per index tuple", report
    )


def test_criterion_6_engine_agreement():
    report = suite_engine_agreement(trials=200, n_max=N_MAX, seed=SEED)
    _suite_criterion(
        6, "closed-form coefficients equal engine solves; search at least as tight", report
    )


def test_criterion_7_witness_closure():
    report = suite_witness_closure(trials=200, n_max=N_MAX, seed=SEED)
    _suite_criterion(
        7, "nonnegative witnesses induce distributions attaining the bound", report
    )


def test_criterion_8_jordan_exactness():
    report = suite_jordan(trials=100, n_max=N_MAX, seed=SEED)
    _suite_criterion(
        8, "full-order evaluation reproduces the oracle for all r, d", report
    )


def test_criterion_9_conditional_validity():
    report = suite_conditional(trials=200, n_max=N_MAX, seed=SEED)

    fixture = json.loads((FIXTURES / "conditional_improvement.json").read_text())
    system = EventSystem.from_payload(fixture["system"])
    partition = PartitionField.from_payload(fixture["partition"], n=system.n)
    request = BoundRequest(**fixture["request"])
    expected = fixture["expected"]
    blocks = conditional_bound(system, partition, request)
    unconditional = bound_for_system(system, request)
    aggregated = expectation_aggregate(blocks, unconditional)
    truth = exact_occurrence(system).p[request.r]
    fixture_ok = (
        aggregated.margin == Fraction(expected["margin"])
        and aggregated.margin > 0
        and aggregated.clamped == Fraction(expected["aggregate"])
        and unconditional.clamped == Fraction(expected["unconditional"])
        and truth == Fraction(expected["exact"])
        and aggregated.clamped <= truth
    )

    passed = report.passed and fixture_ok
    detail = (
        f"{report.trials} trials, {report.checks} checks; stored fixture margin "
        f"{aggregated.margin} over the unconditional {unconditional.clamped}"
    )
    if report.failures:
        detail += f", first failure: {report.failures[0]}"
    _report(9, "blockwise and aggregated bounds bracket their oracles", passed, detail)
    assert passed, report.failures[:1]
