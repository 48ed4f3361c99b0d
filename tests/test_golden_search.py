"""Golden search certificates: every index-set search shape on fixed inputs.

For each golden system (see ``test_golden``), every d, r, ell from 2 to
min(5, n-d+1), side and target, the fixture stores three outcomes of the
``formula="search"`` request: the sha256 of the certificate's canonical
payload, of each tuple's term as a one-tuple certificate payload with its
``sharpness_witness``, and of the feasible index sets of the shape's
``dual_bases`` table; or the exception class name when the call fails.  Two moment-only
inputs, at ell 4 and 5, cover shapes no small system reaches.  Every search
certificate must also pass ``check_certificate``.

Regenerate the fixture (only when a change of outcome is intended) with

    PYTHONPATH=src python3 tests/test_golden_search.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

from test_golden import _decode, _encode, golden_systems

from eventbounds.certificates import SIDES, TARGETS, BoundCertificate, BoundRequest
from eventbounds.checker import check_certificate
from eventbounds.dispatch import evaluate_request
from eventbounds.engine import dual_bases, sharpness_witness, target_vector
from eventbounds.errors import NotApplicableError
from eventbounds.moments import MomentSet, moment_matrix, moment_set
from eventbounds.numerics import clamp01

FIXTURE = Path(__file__).parent / "fixtures" / "golden_search.json"

MAX_ELL = 5


def _digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def moment_only_inputs() -> dict[str, MomentSet]:
    """Moment files built from seeded nonnegative z vectors, as a user would
    supply them: n = 9 at d = 1 with ell = 4, and n = 8 at d = 0 with ell = 5."""
    inputs = {}
    for name, n, d, ell in (("moments9-d1", 9, 1, 4), ("moments8-d0", 8, 0, 5)):
        rng = random.Random(f"golden-search:{name}")
        positions = n - d + 1
        records = []
        for j in itertools.combinations(range(1, n + 1), d):
            levels = [rng.randint(0, 9) if rng.random() < 0.7 else 0 for _ in range(positions)]
            levels[rng.randrange(positions)] += 1
            total = sum(levels) + (0 if d == 0 else rng.randint(0, 9))
            z = [Fraction(c, comb(i + d - 1, d) * total) for i, c in enumerate(levels, start=1)]
            values = [
                sum((comb(i + d - 1, k + d - 1) * x for i, x in enumerate(z, start=1)), Fraction(0))
                for k in range(1, ell + 1)
            ]
            records.append({"j": list(j), "values": [str(x) for x in values]})
        inputs[name] = MomentSet.from_payload({"n": n, "d": d, "ell": ell, "s": records})
    return inputs


def _outcomes(moments: MomentSet, request: BoundRequest) -> list[str]:
    outcomes = []
    try:
        outcomes.append(_digest(evaluate_request(moments, request).to_payload()))
    except Exception as exc:  # the class name is the recorded outcome
        outcomes.append(type(exc).__name__)
    window = moments.restricted(request.ell)
    fmat = moment_matrix(moments.n, moments.d, request.ell)
    v = target_vector(moments.n, moments.d, request.r, request.target)
    try:
        certificate = evaluate_request(window, request)
        pairs = []
        for t, vector in zip(certificate.terms, window):
            best = BoundCertificate(
                t.value, clamp01(t.value), request.side, request.target, request.r,
                moments.d, request.ell, "search", t.coefficients, t.index_set,
            )
            witness = sharpness_witness(fmat, t.index_set, vector.values)
            pairs.append([best.to_payload(), witness.to_payload()])
        outcomes.append(_digest(pairs))
    except Exception as exc:
        outcomes.append(type(exc).__name__)
    try:
        outcomes.append(_digest(tuple(row.index_set for row in dual_bases(fmat, v, request.side))))
    except Exception as exc:
        outcomes.append(type(exc).__name__)
    return outcomes


def golden_search_requests():
    """Each key "input d r ell side target", its moment set and its search request."""
    sources = []
    for name, system in golden_systems().items():
        n = system.n
        for d in range(n):
            sources.append((name, moment_set(system, d, min(MAX_ELL, n - d + 1))))
    sources += list(moment_only_inputs().items())
    for name, moments in sources:
        n, d = moments.n, moments.d
        for r in range(d, n + 1):
            for ell in range(2, moments.ell + 1):
                for side in SIDES:
                    for target in TARGETS:
                        request = BoundRequest(
                            r=r, d=d, ell=ell, side=side, target=target, formula="search"
                        )
                        yield f"{name} {d} {r} {ell} {side} {target}", moments, request


def golden_search_outcomes() -> dict[str, list[str]]:
    """Map each key to [certificate, witnesses, feasible sets]."""
    return {
        key: _outcomes(moments, request) for key, moments, request in golden_search_requests()
    }


def test_search_matches_the_golden_fixture():
    expected = _decode(json.loads(FIXTURE.read_text()))
    actual = golden_search_outcomes()
    assert sorted(actual) == sorted(expected)
    differing = [
        f"{key} #{position}: {want} -> {got}"
        for key, outcomes in actual.items()
        for position, (want, got) in enumerate(zip(expected[key], outcomes))
        if want != got
    ]
    assert not differing, f"{len(differing)} outcomes differ, first: {differing[:5]}"


def test_every_search_certificate_passes_the_checker():
    checked = {}
    for key, moments, request in golden_search_requests():
        try:
            certificate = evaluate_request(moments, request)
        except NotApplicableError:
            continue
        assert check_certificate(certificate, moments) == [], key
        checked[request.ell] = checked.get(request.ell, 0) + 1
    assert checked == {2: 408, 3: 368, 4: 308, 5: 192}


if __name__ == "__main__":
    FIXTURE.write_text(_encode(golden_search_outcomes()))
