"""Route bound requests to the closed-form families or the generic engine.

The closed forms cover only the first two or three moment orders; any
other order, or an explicit request, goes through the index-set search.
A request naming a formula gets exactly that family or an error; a
request without one gets the best applicable bound for its moment order.
Each entry checks its request once (:meth:`BoundRequest.check`); the
functions behind it trust the request.
"""

from __future__ import annotations

from typing import Iterator

from . import bounds_l2, bounds_l3
from .certificates import SIDES, TARGETS, BoundCertificate, BoundRequest
from .core import EventSystem
from .engine import dual_bases, target_vector
from .errors import NotApplicableError
from .families import best_certificate, family_certificate, rows_certificate, solved_row
from .moments import MomentSet, moment_matrix, moment_set

#: Every closed-form family by name, in tie-breaking order.
FAMILY_TABLE = {family.name: family for family in bounds_l2.FAMILY_ROWS + bounds_l3.FAMILY_ROWS}

#: The closed-form families of each moment order, and whether best-of
#: requests at that order pick a family per index tuple.
_BEST_OF = {2: (bounds_l2.FAMILY_ROWS, False), 3: (bounds_l3.FAMILY_ROWS, True)}

FORMULAS = tuple(sorted(FAMILY_TABLE)) + ("search", "jordan")


def request_grid(system: EventSystem) -> Iterator[tuple[MomentSet, BoundRequest]]:
    """Every best-of request at ell 2 and 3 for the system, with its moment set.

    Ordered by d, r, ell, target, side; r runs from max(d, 1) to n.
    """
    n = system.n
    for d in range(0, n):
        moments = moment_set(system, d, min(3, n - d + 1))
        for r in range(max(d, 1), n + 1):
            for ell in range(2, moments.ell + 1):
                for target in TARGETS:
                    for side in SIDES:
                        yield moments, BoundRequest(r=r, d=d, ell=ell, side=side, target=target)


def search_bound(moments: MomentSet, request: BoundRequest) -> BoundCertificate:
    """The index-set search's certificate: per tuple, the best row of the
    shape's table of side-feasible index sets."""
    n, d = moments.n, moments.d
    table = dual_bases(
        moment_matrix(n, d, request.ell), target_vector(n, d, request.r, request.target),
        request.side,
    )
    if not table.bases:
        raise NotApplicableError(
            f"no {request.side}-feasible index set at ell={request.ell} "
            f"for target={request.target!r}, r={request.r}, d={d}, n={n}"
        )
    return rows_certificate(table.bases, moments, request, "search")


def _jordan(moments: MomentSet, request: BoundRequest) -> BoundCertificate:
    """The exact value at full order ell = n-d+1: the row solved at every
    position makes b = v, so s . a is the target probability itself."""
    positions = moments.n - moments.d + 1
    if request.ell != positions:
        raise NotApplicableError(
            f"exact evaluation needs ell = n-d+1 = {positions}, got ell={request.ell}"
        )
    row = solved_row(
        moments.n, request.r, moments.d, request.target, tuple(range(1, positions + 1)), None
    )
    return rows_certificate((row,), moments, request, "jordan")


def evaluate_request(moments: MomentSet, request: BoundRequest) -> BoundCertificate:
    """Evaluate a bound request against a moment set.

    Without a formula: the best applicable closed form at ell 2 or 3, the
    index-set search otherwise.  With a formula: that family exactly
    (side and moment order must agree), "search" for the enumeration, or
    "jordan" for the exact full-order evaluation.  A set with more orders
    than the request is read at its first ``request.ell``, with no copy.
    """
    if moments.d != request.d:
        raise ValueError(f"moment set has d={moments.d}, request asks for d={request.d}")
    if request.ell > moments.ell:
        raise ValueError(
            f"request needs ell={request.ell} moment orders, set has {moments.ell}"
        )
    request.check(moments.n)
    formula, m = request.formula, request.m
    if formula in ("search", "jordan"):
        if m is not None:
            raise ValueError(f"formula {formula!r} has no window parameter m")
        if formula == "search":
            return search_bound(moments, request)
        return _jordan(moments, request)
    if formula is None:
        if request.ell not in _BEST_OF:
            if m is not None:
                raise ValueError("m applies only to the closed-form windowed families")
            return search_bound(moments, request)
        families, per_tuple = _BEST_OF[request.ell]
        if per_tuple and m is not None:
            raise ValueError(
                "the combined three-moment bound picks windows per index tuple; "
                "name a formula to pin m"
            )
        return best_certificate(families, moments, request, per_tuple)
    family = FAMILY_TABLE.get(formula)
    if family is None:
        raise ValueError(f"unknown formula {formula!r}; known: {FORMULAS}")
    if request.side != family.side:
        raise ValueError(
            f"formula {formula!r} produces {family.side} bounds, request says {request.side}"
        )
    if request.ell != family.ell:
        raise ValueError(f"formula {formula!r} uses ell={family.ell}, request says {request.ell}")
    return family_certificate(family, moments, request)


def bound_for_system(sys: EventSystem, request: BoundRequest) -> BoundCertificate:
    """Compute the request's moment set from the system, then evaluate it."""
    request.check(sys.n)
    return evaluate_request(moment_set(sys, request.d, request.ell), request)
