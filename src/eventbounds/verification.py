"""Randomized property suites behind the verify command and acceptance tests.

Each suite draws reproducible random systems (per-trial RNGs derived from
the seed and trial index, so trials are order-independent and could run
concurrently), exercises one invariant against the exact enumeration
oracle, and reports pass/fail with a minimal reproducer per failure.
Random systems use rational weights with small numerators and
denominators so exact-mode checks carry zero tolerance.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from typing import Optional

from .certificates import (
    SIDE_UPPER,
    SIDES,
    TARGET_AT_LEAST,
    TARGET_EXACTLY,
    TARGETS,
    BoundRequest,
)
from .conditional import (
    PartitionField,
    block_system,
    conditional_bound,
    expectation_aggregate,
)
from .core import EventSystem, exact_occurrence, normalize
from .dispatch import FAMILY_TABLE, evaluate_request, request_grid
from .checker import check_certificate
from .engine import sharpness_witness, target_vector, witness_system
from .errors import NotApplicableError
from .moments import moment_matrix, moment_set, verify_decomposition, z_vector
from .numerics import dot_product, encode_number, leq, rational

MAX_REPORTED_FAILURES = 5
#: The largest numerator and denominator of a random system's weights.
MAX_VALUE = 9
#: Requests drawn per trial of the conditional suite.
CONDITIONAL_REQUESTS = 3


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of one property suite."""

    name: str
    passed: bool
    trials: int
    checks: int
    failures: tuple[str, ...]
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f", {len(self.failures)} failing (first shown below)" if self.failures else ""
        return f"{status} {self.name}: {self.trials} trials, {self.checks} checks{extra}"


def _rng(seed: int, suite: str, trial: int) -> random.Random:
    return random.Random(f"{seed}:{suite}:{trial}")


def _trials(suite: str, trials: int, n_max: int, seed: int):
    """Each trial's RNG and its random exact system of 2..n_max events."""
    for trial in range(trials):
        rng = _rng(seed, suite, trial)
        yield rng, random_system(rng, rng.randint(2, n_max))


def random_system(rng: random.Random, n: int, max_support: int = 24) -> EventSystem:
    """A random normalized system with small-denominator rational weights."""
    atoms = 1 << n
    size = rng.randint(1, min(atoms, max_support))
    weights = {}
    for atom in rng.sample(range(atoms), size):
        numerator = rng.randint(0, MAX_VALUE)
        if numerator:
            weights[atom] = rational(numerator, rng.randint(1, MAX_VALUE))
    if not weights:
        weights[rng.randrange(atoms)] = rational(1)
    return normalize(n, weights)


def floatize(system: EventSystem) -> EventSystem:
    """The same system with every weight converted to float."""
    return normalize(system.n, {a: float(w) for a, w in system.weights.items()})


def random_partition(rng: random.Random, n: int, max_blocks: int = 4) -> PartitionField:
    """A random partition of the atom space into at most max_blocks blocks."""
    count = rng.randint(1, max_blocks)
    groups: list[list[int]] = [[] for _ in range(count)]
    for atom in range(1 << n):
        groups[rng.randrange(count)].append(atom)
    return PartitionField(n=n, blocks=tuple(tuple(g) for g in groups if g))


def _describe(system: EventSystem, **fields: object) -> str:
    parts = " ".join(f"{key}={value}" for key, value in fields.items())
    return f"{parts} system={json.dumps(system.to_payload(), sort_keys=True)}"


def _finish(
    name: str, trials: int, checks: int, failures: list[str], start: float
) -> SuiteReport:
    return SuiteReport(
        name=name,
        passed=not failures,
        trials=trials,
        checks=checks,
        failures=tuple(failures[:MAX_REPORTED_FAILURES]),
        elapsed=time.perf_counter() - start,
    )


def suite_sandwich(trials: int = 1000, n_max: int = 8, seed: int = 42) -> SuiteReport:
    """Clamped lower <= exact <= clamped upper for every applicable request.

    Exact systems are compared with zero tolerance, and the float copy of
    each system within ``DEFAULT_TOLERANCE`` (:func:`leq`).
    """
    start = time.perf_counter()
    checks, failures = 0, []
    for _, base in _trials("sandwich", trials, n_max, seed):
        for system in (base, floatize(base)):
            occurrence = exact_occurrence(system)
            for window, request in request_grid(system):
                try:
                    certificate = evaluate_request(window, request)
                except NotApplicableError:
                    continue
                checks += 1
                r, target = request.r, request.target
                truth = occurrence.at_least(r) if target == TARGET_AT_LEAST else occurrence.p[r]
                if request.side == SIDE_UPPER:
                    ok = leq(truth, certificate.clamped)
                else:
                    ok = leq(certificate.clamped, truth)
                if not ok:
                    failures.append(
                        _describe(
                            system,
                            suite="sandwich",
                            r=r,
                            d=request.d,
                            ell=request.ell,
                            side=request.side,
                            target=target,
                            bound=encode_number(certificate.clamped),
                            exact=encode_number(truth),
                        )
                    )
    return _finish("sandwich", trials, checks, failures, start)


def suite_decomposition(
    trials: int = 100, n_max: int = 8, seed: int = 42
) -> SuiteReport:
    """The at-least and exactly probabilities match their sums of joint
    masses over d-tuples, for every 0 <= d <= r <= n."""
    start = time.perf_counter()
    checks, failures = 0, []
    for _, system in _trials("decomposition", trials, n_max, seed):
        n = system.n
        for d in range(0, n + 1):
            for r in range(d, n + 1):
                report = verify_decomposition(system, r, d)
                checks += 1
                if not report.matched:
                    failures.append(_describe(system, suite="decomposition", r=r, d=d))
    return _finish("decomposition", trials, checks, failures, start)


def _window_sweep(auto_terms, fixed_certs, minimize: bool) -> list[int]:
    """Indices of terms whose automatic window misses the sweep extremum."""
    bad = []
    for position, term in enumerate(auto_terms):
        sweep = [cert.terms[position].value for cert in fixed_certs]
        extremum = min(sweep) if minimize else max(sweep)
        if term.value != extremum:
            bad.append(position)
    return bad


def suite_optimal_m(trials: int = 200, n_max: int = 8, seed: int = 42) -> SuiteReport:
    """Automatic window choices attain the extremum of a full window sweep,
    per index tuple, for every windowed family."""
    start = time.perf_counter()
    checks, failures = 0, []
    windowed = [family for family in FAMILY_TABLE.values() if family.windows]
    for _, system in _trials("optimal-m", trials, n_max, seed):
        n = system.n
        for d in range(0, n):
            full = moment_set(system, d, min(3, n - d + 1))
            by_ell = {2: full.restricted(2), full.ell: full}
            for family in windowed:
                moments = by_ell.get(family.ell)
                if moments is None:
                    continue
                for r in range(d, n + 1):
                    for target, window in family.windows.items():
                        if not family.applies(n, r, d, target):
                            continue
                        auto = _family_bound(family, moments, r, target)
                        lo, hi = window(n, r, d)
                        fixed = [
                            _family_bound(family, moments, r, target, m)
                            for m in range(lo, hi + 1)
                        ]
                        minimize = family.side == SIDE_UPPER
                        checks += len(auto.terms)
                        for position in _window_sweep(auto.terms, fixed, minimize):
                            failures.append(
                                _describe(
                                    system, suite="optimal-m", family=family.name,
                                    r=r, d=d, j=position,
                                )
                            )
    return _finish("optimal-m", trials, checks, failures, start)


def _family_bound(family, moments, r: int, target: str, m: Optional[int] = None):
    """The family's certificate at r for the target, window pinned to m if given."""
    request = BoundRequest(
        r=r, d=moments.d, ell=family.ell, side=family.side, target=target, m=m,
        formula=family.name,
    )
    return evaluate_request(moments, request)


def _closed_form_certificates(moments, n: int, r: int, d: int) -> list:
    """Every family's certificate at (r, d) for each target it applies to."""
    return [
        _family_bound(family, moments, r, target)
        for family in FAMILY_TABLE.values()
        if family.ell <= moments.ell
        for target in TARGETS
        if family.applies(n, r, d, target)
    ]


def suite_engine_agreement(
    trials: int = 200, n_max: int = 8, seed: int = 42
) -> SuiteReport:
    """Every closed-form certificate passes :func:`check_certificate`, so each
    row is side-feasible and solves F_I^T a = v_I at its index set I, which
    makes it the engine's solve there; and the index-set search is at least
    as tight as the closed forms."""
    start = time.perf_counter()
    checks, failures = 0, []
    for rng, system in _trials("engine-agreement", trials, n_max, seed):
        n = system.n
        d = rng.randint(0, n - 1)
        r = rng.randint(max(d, 1), n)
        moments = moment_set(system, d, min(3, n - d + 1))
        for certificate in _closed_form_certificates(moments, n, r, d):
            checks += len(certificate.terms)
            problems = check_certificate(certificate, moments)
            if problems:
                failures.append(
                    _describe(
                        system,
                        suite="engine-agreement",
                        formula=certificate.formula_id,
                        r=certificate.r,
                        d=d,
                        problem=json.dumps(problems[0]),
                    )
                )
        for ell in (2, 3):
            if ell > n - d + 1:
                continue
            target = rng.choice(TARGETS)
            for side in SIDES:
                request = BoundRequest(r=r, d=d, ell=ell, side=side, target=target)
                try:
                    closed = evaluate_request(moments, request)
                except NotApplicableError:
                    continue
                searched = evaluate_request(
                    moments,
                    BoundRequest(r=r, d=d, ell=ell, side=side, target=target, formula="search"),
                )
                checks += 1
                tight = (
                    searched.value <= closed.value
                    if side == SIDE_UPPER
                    else searched.value >= closed.value
                )
                if not tight:
                    failures.append(
                        _describe(
                            system,
                            suite="engine-agreement",
                            r=r,
                            d=d,
                            ell=ell,
                            side=side,
                            target=target,
                            search=encode_number(searched.value),
                            closed=encode_number(closed.value),
                        )
                    )
    return _finish("engine-agreement", trials, checks, failures, start)


def suite_witness_closure(
    trials: int = 200, n_max: int = 8, seed: int = 42
) -> SuiteReport:
    """Witness identities: z* . v always equals the bound value; every
    nonnegative witness induces a distribution that reproduces the moments
    and attains the bound exactly."""
    start = time.perf_counter()
    checks, failures = 0, []
    for rng, system in _trials("witness-closure", trials, n_max, seed):
        n = system.n
        d = rng.randint(0, n - 1)
        ell = rng.choice((2, 3))
        if ell > n - d + 1:
            ell = 2
        r = rng.randint(max(d, 1), n)
        target = rng.choice(TARGETS)
        side = rng.choice(SIDES)
        moments = moment_set(system, d, ell)
        request = BoundRequest(r=r, d=d, ell=ell, side=side, target=target, formula="search")
        try:
            certificate = evaluate_request(moments, request)
        except NotApplicableError:  # no feasible index set for this shape
            continue
        fmat = moment_matrix(n, d, ell)
        v = target_vector(n, d, r, target)
        for term, vector in zip(certificate.terms, moments):
            witness = sharpness_witness(fmat, term.index_set, vector)
            checks += 1
            context = dict(r=r, d=d, ell=ell, side=side, target=target, j=tuple(vector.j))
            if dot_product(witness.z, v) != term.value:
                failures.append(
                    _describe(system, suite="witness-closure", kind="identity", **context)
                )
                continue
            if not witness.nonnegative:
                continue
            induced = witness_system(witness, vector.j, n, d)
            reproduced = moment_set(induced, d, ell).vector(vector.j)
            if tuple(reproduced.values) != tuple(vector.values):
                failures.append(
                    _describe(system, suite="witness-closure", kind="moments", **context)
                )
                continue
            attained = dot_product(z_vector(induced, vector.j).entries, v)
            if attained != term.value:
                failures.append(
                    _describe(system, suite="witness-closure", kind="attained", **context)
                )
    return _finish("witness-closure", trials, checks, failures, start)


def suite_jordan(trials: int = 100, n_max: int = 8, seed: int = 42) -> SuiteReport:
    """At full moment order the engine reproduces the oracle exactly for
    all r and all d with at least two moment positions, and each
    certificate passes :func:`check_certificate`: its index set is every
    position, so b = F^T a equals v throughout."""
    start = time.perf_counter()
    checks, failures = 0, []
    for _, system in _trials("jordan", trials, n_max, seed):
        n = system.n
        occurrence = exact_occurrence(system)
        for d in range(0, n):
            positions = n - d + 1
            moments = moment_set(system, d, positions)
            for r in range(max(d, 1), n + 1):
                truths = {
                    TARGET_AT_LEAST: occurrence.at_least(r),
                    TARGET_EXACTLY: occurrence.p[r],
                }
                for target, truth in truths.items():
                    request = BoundRequest(
                        r=r, d=d, ell=positions, side=SIDE_UPPER, target=target, formula="jordan"
                    )
                    certificate = evaluate_request(moments, request)
                    checks += 1
                    if certificate.value != truth or check_certificate(certificate, moments):
                        failures.append(
                            _describe(
                                system,
                                suite="jordan",
                                r=r,
                                d=d,
                                target=target,
                                got=encode_number(certificate.value),
                                exact=encode_number(truth),
                            )
                        )
    return _finish("jordan", trials, checks, failures, start)


def suite_conditional(trials: int = 200, n_max: int = 8, seed: int = 42) -> SuiteReport:
    """Per-block certificates bracket the block-conditional oracle and the
    weight-averaged bound brackets the unconditional oracle."""
    start = time.perf_counter()
    checks, failures = 0, []
    for rng, system in _trials("conditional", trials, n_max, seed):
        n = system.n
        partition = random_partition(rng, n)
        occurrence = exact_occurrence(system)
        for _ in range(CONDITIONAL_REQUESTS):
            d = rng.randint(0, n - 1)
            r = rng.randint(max(d, 1), n)
            ell = rng.choice((2, 3))
            if ell > n - d + 1:
                ell = 2
            side = rng.choice(SIDES)
            target = rng.choice(TARGETS)
            request = BoundRequest(r=r, d=d, ell=ell, side=side, target=target)
            try:
                blocks = conditional_bound(system, partition, request)
                unconditional = evaluate_request(moment_set(system, d, ell), request)
            except NotApplicableError:
                continue
            context = dict(r=r, d=d, ell=ell, side=side, target=target)
            for block in blocks:
                conditioned = block_system(system, partition, block.index)
                block_occurrence = exact_occurrence(conditioned)
                truth = (
                    block_occurrence.at_least(r)
                    if target == TARGET_AT_LEAST
                    else block_occurrence.p[r]
                )
                checks += 1
                ok = (
                    leq(truth, block.certificate.clamped)
                    if side == SIDE_UPPER
                    else leq(block.certificate.clamped, truth)
                )
                if not ok:
                    failures.append(
                        _describe(
                            system, suite="conditional", kind="block", block=block.index, **context
                        )
                    )
            aggregated = expectation_aggregate(blocks, unconditional)
            truth = occurrence.at_least(r) if target == TARGET_AT_LEAST else occurrence.p[r]
            checks += 1
            ok = (
                leq(truth, aggregated.clamped)
                if side == SIDE_UPPER
                else leq(aggregated.clamped, truth)
            )
            if not ok:
                failures.append(
                    _describe(system, suite="conditional", kind="aggregate", **context)
                )
    return _finish("conditional", trials, checks, failures, start)


def suite_classical(trials: int = 100, n_max: int = 8, seed: int = 42) -> SuiteReport:
    """The first-moment upper bound at r=1, d=0 is the sum of the event
    probabilities, and the matching lower bound is that sum over n."""
    start = time.perf_counter()
    checks, failures = 0, []
    for _, system in _trials("classical", trials, n_max, seed):
        n = system.n
        mean = sum(
            weight * bin(mask).count("1") for mask, weight in system.weights.items()
        )
        moments = moment_set(system, 0, 2)
        upper = _family_bound(FAMILY_TABLE["u1"], moments, 1, TARGET_AT_LEAST)
        lower = _family_bound(FAMILY_TABLE["l1"], moments, 1, TARGET_AT_LEAST)
        checks += 2
        if upper.value != mean:
            failures.append(
                _describe(system, suite="classical", kind="union", got=encode_number(upper.value))
            )
        if lower.value * n != mean:
            failures.append(
                _describe(system, suite="classical", kind="mean", got=encode_number(lower.value))
            )
    return _finish("classical", trials, checks, failures, start)


def run_all(trials: int = 1000, n_max: int = 8, seed: int = 42) -> list[SuiteReport]:
    """Run every suite, scaling the heavier ones down from ``trials``.

    At the default 1000 trials the per-suite counts are: sandwich 1000,
    classical 100, decomposition 100, optimal-m 200, engine-agreement 200,
    witness-closure 200, jordan 100, conditional 200.
    """
    tenth = max(1, trials // 10)
    fifth = max(1, trials // 5)
    return [
        suite_sandwich(trials, n_max, seed),
        suite_classical(tenth, n_max, seed),
        suite_decomposition(tenth, n_max, seed),
        suite_optimal_m(fifth, n_max, seed),
        suite_engine_agreement(fifth, n_max, seed),
        suite_witness_closure(fifth, n_max, seed),
        suite_jordan(tenth, n_max, seed),
        suite_conditional(fifth, n_max, seed),
    ]
