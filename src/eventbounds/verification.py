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
from dataclasses import dataclass, replace
from typing import Callable, Optional

from .certificates import (
    SIDE_UPPER,
    SIDES,
    TARGET_AT_LEAST,
    TARGETS,
    BoundRequest,
)
from .conditional import (
    PartitionField,
    block_systems,
    conditional_bound,
    expectation_aggregate,
)
from .core import (
    MAX_EVENTS,
    EventSystem,
    binomial,
    exact_joint,
    exact_occurrence,
    normalize,
)
from .dispatch import FAMILY_TABLE, evaluate_request, request_grid
from .checker import check_certificate
from .engine import sharpness_witness, target_vector, witness_system
from .errors import NotApplicableError
from .moments import moment_matrix, moment_set, verify_decomposition
from .numerics import Number, dot_product, encode_number, leq, rational

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


def _run(name: str, trials: int, n_max: int, seed: int, check: Callable) -> SuiteReport:
    """Run ``check(rng, system)`` on each trial's RNG, ``Random(f"{seed}:{name}:{trial}")``,
    and random exact system of 2..n_max events.  Fewer than one trial, or an
    ``n_max`` outside 2..``MAX_EVENTS``, is a ValueError before any trial.

    The check yields ``(checks made, failure fields or None)``.  A failure's
    reproducer is ``suite=<name> key=value ... system=<json>``, showing the
    trial's system unless the fields name another.  A check that raises is
    one failing check, ``trial=<trial> error=<class> message=<json>``, and
    the next trial runs.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not 2 <= n_max <= MAX_EVENTS:
        raise ValueError(f"n_max must be in 2..{MAX_EVENTS}, got {n_max}")
    start = time.perf_counter()
    checks, failures = 0, []

    def reproducer(fields: dict) -> str:
        shown = fields.pop("system", system)
        parts = " ".join(f"{key}={value}" for key, value in {"suite": name, **fields}.items())
        return f"{parts} system={json.dumps(shown.to_payload(), sort_keys=True)}"

    for trial in range(trials):
        rng = random.Random(f"{seed}:{name}:{trial}")
        system = random_system(rng, rng.randint(2, n_max))
        try:
            for made, fields in check(rng, system):
                checks += made
                if fields:
                    failures.append(reproducer(fields))
        except Exception as exc:
            checks += 1
            error = {"trial": trial, "error": type(exc).__name__, "message": json.dumps(str(exc))}
            failures.append(reproducer(error))
    return SuiteReport(
        name=name,
        passed=not failures,
        trials=trials,
        checks=checks,
        failures=tuple(failures[:MAX_REPORTED_FAILURES]),
        elapsed=time.perf_counter() - start,
    )


def _brackets(side: str, bound: Number, truth: Number) -> bool:
    """Whether the bound lies on its side of the truth (:func:`leq`)."""
    return leq(truth, bound) if side == SIDE_UPPER else leq(bound, truth)


def suite_sandwich(trials: int = 1000, n_max: int = 8, seed: int = 42) -> SuiteReport:
    """Clamped lower <= exact <= clamped upper for every applicable request.

    Exact systems are compared with zero tolerance, and the float copy of
    each system within ``DEFAULT_TOLERANCE`` (:func:`leq`).
    """

    def check(rng, base):
        for system in (base, floatize(base)):
            occurrence = exact_occurrence(system)
            for window, request in request_grid(system):
                certificate = evaluate_request(window, request)
                truth = occurrence.probability(request.r, request.target)
                ok = _brackets(request.side, certificate.clamped, truth)
                yield 1, None if ok else dict(
                    r=request.r, d=request.d, ell=request.ell, side=request.side,
                    target=request.target, bound=encode_number(certificate.clamped),
                    exact=encode_number(truth), system=system,
                )

    return _run("sandwich", trials, n_max, seed, check)


def suite_decomposition(
    trials: int = 100, n_max: int = 8, seed: int = 42
) -> SuiteReport:
    """The at-least and exactly probabilities match their sums of joint
    masses over d-tuples, for every 0 <= d <= r <= n."""

    def check(rng, system):
        for d in range(0, system.n + 1):
            for r in range(d, system.n + 1):
                matched = verify_decomposition(system, r, d).matched
                yield 1, None if matched else dict(r=r, d=d)

    return _run("decomposition", trials, n_max, seed, check)


def suite_optimal_m(trials: int = 200, n_max: int = 8, seed: int = 42) -> SuiteReport:
    """Automatic window choices attain the extremum of a full window sweep,
    per index tuple, for every windowed family."""
    windowed = [family for family in FAMILY_TABLE.values() if family.windows]

    def check(rng, system):
        n = system.n
        for d in range(0, n):
            moments = moment_set(system, d, min(3, n - d + 1))
            for family in windowed:
                if family.ell > moments.ell:
                    continue
                extremum = min if family.side == SIDE_UPPER else max
                for r in range(d, n + 1):
                    for target, window in family.windows.items():
                        try:
                            auto = _family_bound(family, moments, r, target)
                        except NotApplicableError:
                            continue
                        lo, hi = window(n, r, d)
                        fixed = [
                            _family_bound(family, moments, r, target, m)
                            for m in range(lo, hi + 1)
                        ]
                        for j, term in enumerate(auto.terms):
                            best = extremum(cert.terms[j].value for cert in fixed)
                            yield 1, None if term.value == best else dict(
                                family=family.name, r=r, d=d, j=j
                            )

    return _run("optimal-m", trials, n_max, seed, check)


def _family_bound(family, moments, r: int, target: str, m: Optional[int] = None):
    """The family's certificate at r for the target, window pinned to m if given."""
    request = BoundRequest(
        r=r, d=moments.d, ell=family.ell, side=family.side, target=target, m=m,
        formula=family.name,
    )
    return evaluate_request(moments, request)


def suite_engine_agreement(
    trials: int = 200, n_max: int = 8, seed: int = 42
) -> SuiteReport:
    """Every closed-form certificate passes :func:`check_certificate`, so each
    row is side-feasible and solves F_I^T a = v_I at its index set I, which
    makes it the engine's solve there; and the index-set search is at least
    as tight as the closed forms."""

    def check(rng, system):
        n = system.n
        d = rng.randint(0, n - 1)
        r = rng.randint(max(d, 1), n)
        moments = moment_set(system, d, min(3, n - d + 1))
        for family in FAMILY_TABLE.values():
            if family.ell > moments.ell:
                continue
            for target in TARGETS:
                try:
                    certificate = _family_bound(family, moments, r, target)
                except NotApplicableError:
                    continue
                problems = check_certificate(certificate, moments)
                yield len(certificate.terms), None if not problems else dict(
                    formula=certificate.formula_id, r=r, d=d, problem=json.dumps(problems[0])
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
                searched = evaluate_request(moments, replace(request, formula="search"))
                # exact systems: leq compares with zero tolerance
                yield 1, None if _brackets(side, closed.value, searched.value) else dict(
                    r=r, d=d, ell=ell, side=side, target=target,
                    search=encode_number(searched.value), closed=encode_number(closed.value),
                )

    return _run("engine-agreement", trials, n_max, seed, check)


def suite_witness_closure(
    trials: int = 200, n_max: int = 8, seed: int = 42
) -> SuiteReport:
    """Witness identities: z* . v always equals the bound value; every
    nonnegative witness induces a distribution that reproduces the moments
    and attains the bound exactly."""

    def check(rng, system):
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
            return
        fmat = moment_matrix(n, d, ell)
        v = target_vector(n, d, r, target)
        for term, vector in zip(certificate.terms, moments):
            witness = sharpness_witness(fmat, term.index_set, vector.values)
            kind = None
            if dot_product(witness.z, v) != term.value:
                kind = "identity"
            elif witness.nonnegative:
                induced = witness_system(witness, vector.j, n, d)
                reproduced = moment_set(induced, d, ell).vector(vector.j)
                if tuple(reproduced.values) != tuple(vector.values):
                    kind = "moments"
                elif sum(
                    exact_joint(induced, u + d - 1, vector.j) / binomial(u + d - 1, d)
                    for u, counts in enumerate(v, start=1) if counts
                ) != term.value:
                    kind = "attained"
            yield 1, None if kind is None else dict(
                kind=kind, r=r, d=d, ell=ell, side=side, target=target, j=tuple(vector.j)
            )

    return _run("witness-closure", trials, n_max, seed, check)


def suite_jordan(trials: int = 100, n_max: int = 8, seed: int = 42) -> SuiteReport:
    """At full moment order the engine reproduces the oracle exactly for
    all r and all d with at least two moment positions, and each
    certificate passes :func:`check_certificate`: its index set is every
    position, so b = F^T a equals v throughout."""

    def check(rng, system):
        n = system.n
        occurrence = exact_occurrence(system)
        for d in range(0, n):
            positions = n - d + 1
            moments = moment_set(system, d, positions)
            for r in range(max(d, 1), n + 1):
                for target in TARGETS:
                    truth = occurrence.probability(r, target)
                    request = BoundRequest(
                        r=r, d=d, ell=positions, side=SIDE_UPPER, target=target, formula="jordan"
                    )
                    certificate = evaluate_request(moments, request)
                    ok = certificate.value == truth and not check_certificate(certificate, moments)
                    yield 1, None if ok else dict(
                        r=r, d=d, target=target, got=encode_number(certificate.value),
                        exact=encode_number(truth),
                    )

    return _run("jordan", trials, n_max, seed, check)


def suite_conditional(trials: int = 200, n_max: int = 8, seed: int = 42) -> SuiteReport:
    """Per-block certificates bracket the block-conditional oracle, the
    weight-averaged bound brackets the unconditional oracle, and it is at
    least as tight as the unconditional bound (``margin`` >= 0, see
    :class:`~eventbounds.conditional.AggregatedBound`)."""

    def check(rng, system):
        n = system.n
        partition = random_partition(rng, n)
        conditioned = dict(block_systems(system, partition))
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
                truth = exact_occurrence(conditioned[block.index]).probability(r, target)
                ok = _brackets(side, block.certificate.clamped, truth)
                yield 1, None if ok else dict(kind="block", block=block.index, **context)
            aggregated = expectation_aggregate(blocks, unconditional)
            ok = _brackets(side, aggregated.clamped, occurrence.probability(r, target))
            yield 1, None if ok else dict(kind="aggregate", **context)
            margin = aggregated.margin
            yield 1, None if leq(0, margin) else dict(
                kind="margin", margin=encode_number(margin), **context
            )

    return _run("conditional", trials, n_max, seed, check)


def suite_classical(trials: int = 100, n_max: int = 8, seed: int = 42) -> SuiteReport:
    """The first-moment upper bound at r=1, d=0 is the sum of the event
    probabilities, and the matching lower bound is that sum over n."""

    def check(rng, system):
        mean = sum(weight * mask.bit_count() for mask, weight in system.weights.items())
        moments = moment_set(system, 0, 2)
        upper = _family_bound(FAMILY_TABLE["u1"], moments, 1, TARGET_AT_LEAST)
        lower = _family_bound(FAMILY_TABLE["l1"], moments, 1, TARGET_AT_LEAST)
        yield 1, None if upper.value == mean else dict(
            kind="union", got=encode_number(upper.value)
        )
        yield 1, None if lower.value * system.n == mean else dict(
            kind="mean", got=encode_number(lower.value)
        )

    return _run("classical", trials, n_max, seed, check)


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
