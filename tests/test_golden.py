"""Golden closed-form certificates: every request shape on fixed systems.

For each system, every d, r, ell in {2, 3}, side and target, and every
request form (best-of and each named closed-form family, a windowed
family picking its own windows), the fixture stores the sha256 of the
certificate's canonical payload JSON, or the exception class name when
the request fails, as a group of one in the format ``test_golden_search``
shares.  The test recomputes every entry and names the first keys that
differ, and every certificate of the grid must pass ``check_certificate``.

Regenerate the fixture (only when a change of outcome is intended) with

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from eventbounds.certificates import SIDES, TARGETS, BoundRequest
from eventbounds.checker import check_certificate
from eventbounds.core import EventSystem
from eventbounds.dispatch import evaluate_request
from eventbounds.errors import NotApplicableError
from eventbounds.moments import moment_set
from eventbounds.verification import floatize, random_system

FIXTURE = Path(__file__).parent / "fixtures" / "golden_certificates.json"

NAMED = ("u1", "u2", "l1", "l2", "ub1", "ub2", "ub3", "lb1", "lb2", "lb3")


def golden_systems() -> dict[str, EventSystem]:
    systems = {"fair3": EventSystem(n=3, weights={a: Fraction(1, 8) for a in range(8)})}
    for n in (4, 5, 6):
        systems[f"seeded{n}"] = random_system(random.Random(f"golden:{n}"), n)
    systems["seeded4-float"] = floatize(systems["seeded4"])
    return systems


def _outcome(moments, request: BoundRequest) -> str:
    try:
        certificate = evaluate_request(moments, request)
    except Exception as exc:  # the class name is the recorded outcome
        return type(exc).__name__
    text = json.dumps(certificate.to_payload(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def golden_requests():
    """Each grid key "system d r ell side target formula", its moment set and
    its request."""
    for name, system in golden_systems().items():
        n = system.n
        for d in range(n):
            moments = moment_set(system, d, min(3, n - d + 1))
            for r in range(d, n + 1):
                for ell in (2, 3):
                    for side in SIDES:
                        for target in TARGETS:
                            for formula in (None,) + NAMED:
                                key = f"{name} {d} {r} {ell} {side} {target} {formula or 'best'}"
                                yield key, moments, BoundRequest(
                                    r=r, d=d, ell=ell, side=side, target=target, formula=formula
                                )


def golden_outcomes() -> dict[str, list[str]]:
    """Map each grid key to its outcome, a group of one."""
    return {key: [_outcome(moments, request)] for key, moments, request in golden_requests()}


def _encode(groups: dict[str, list[str]]) -> str:
    """One group per line, outcomes as indices into a sorted outcome table."""
    table = sorted({outcome for outcomes in groups.values() for outcome in outcomes})
    index = {outcome: i for i, outcome in enumerate(table)}
    lines = [f'{{"outcomes": {json.dumps(table)},', '"groups": {']
    lines += [
        f"{json.dumps(key)}: {json.dumps([index[o] for o in outcomes])},"
        for key, outcomes in groups.items()
    ]
    lines[-1] = lines[-1].rstrip(",")
    return "\n".join(lines) + "\n}}\n"


def _decode(payload: dict) -> dict[str, list[str]]:
    table = payload["outcomes"]
    return {key: [table[i] for i in indices] for key, indices in payload["groups"].items()}


def test_certificates_match_the_golden_fixture():
    expected = _decode(json.loads(FIXTURE.read_text()))
    actual = golden_outcomes()
    assert sorted(actual) == sorted(expected)
    differing = [
        f"{key}: {expected[key]} -> {outcomes}"
        for key, outcomes in actual.items()
        if outcomes != expected[key]
    ]
    assert not differing, f"{len(differing)} outcomes differ, first: {differing[:5]}"


def test_every_golden_certificate_passes_the_checker():
    checked = 0
    for key, moments, request in golden_requests():
        try:
            certificate = evaluate_request(moments, request)
        except (NotApplicableError, ValueError):
            continue
        assert check_certificate(certificate, moments) == [], key
        checked += 1
    assert checked == 1359


if __name__ == "__main__":
    FIXTURE.write_text(_encode(golden_outcomes()))
