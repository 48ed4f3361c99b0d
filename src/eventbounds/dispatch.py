"""Route bound requests: the closed-form families or the index-set search.

The closed forms cover only the first two or three moment orders; any
other order, "search", or "jordan" (full order, where the search's one
set is every position) goes through the search.  A request naming a
family gets exactly that family or an error; a request without one gets
the best applicable bound for its moment order.  Each entry checks its
request once (:meth:`BoundRequest.check`); the functions behind it trust
the request.  Which families serve a closed-form request is decided in
one place, :func:`_plan`, and each windowed family picks its own window;
:func:`evaluate_request` gives the order of the checks and how the
closed-form plans are cached.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from . import bounds_l2, bounds_l3
from .certificates import SIDES, TARGETS, BoundCertificate, BoundRequest
from .core import EventSystem
from .engine import dual_bases, target_vector
from .errors import NotApplicableError
from .families import evaluate, family_source, row_source
from .moments import MomentSet, moment_matrix, moment_set

#: Every closed-form family by name, in tie-breaking order.
FAMILY_TABLE = {family.name: family for family in bounds_l2.FAMILY_ROWS + bounds_l3.FAMILY_ROWS}

#: The closed-form families of each moment order, and whether best-of
#: requests at that order pick a family per index tuple.
_BEST_OF = {2: (bounds_l2.FAMILY_ROWS, False), 3: (bounds_l3.FAMILY_ROWS, True)}

FORMULAS = tuple(sorted(FAMILY_TABLE)) + ("search", "jordan")

#: Closed-form plans kept at once: one verify-small pass makes 1,036 and
#: ``run_all(150, 8, 42)`` makes 1,675, so neither evicts one.
MAX_PLANS = 4096


def request_grid(system: EventSystem) -> Iterator[tuple[MomentSet, BoundRequest]]:
    """Every best-of request at ell 2 and 3 that a family serves for the
    system, with its moment set.

    Ordered by d, r, ell, target, side; r runs from max(d, 1) to n.  Each
    request's plan is resolved here, so a request no family serves is left out.
    """
    n = system.n
    for d in range(0, n):
        moments = moment_set(system, d, min(3, n - d + 1))
        for r in range(max(d, 1), n + 1):
            for ell in range(2, moments.ell + 1):
                for target in TARGETS:
                    for side in SIDES:
                        request = BoundRequest(r=r, d=d, ell=ell, side=side, target=target)
                        try:
                            _plan(n, request)
                        except NotApplicableError:
                            continue
                        yield moments, request


@lru_cache(maxsize=MAX_PLANS)
def _plan(n: int, request: BoundRequest) -> tuple[tuple, tuple, bool]:
    """The sources, labels and ``per_tuple`` of a checked closed-form
    request: the families that serve it, and whether they combine per
    index tuple.  Raises in the order :func:`evaluate_request` states; a
    request that raises is not cached."""
    r, d, side, target = request.r, request.d, request.side, request.target
    formula = request.formula
    if formula is None:
        families, per_tuple = _BEST_OF[request.ell]
        families = tuple(f for f in families if f.side == side and f.applies(n, r, d, target))
        if not families:
            raise NotApplicableError(
                f"no {request.ell}-moment {side} bound applies to target={target!r}, "
                f"r={r}, d={d}, n={n}"
            )
    else:
        family = FAMILY_TABLE.get(formula)
        if family is None:
            raise ValueError(f"unknown formula {formula!r}; known: {FORMULAS}")
        if side != family.side:
            raise ValueError(f"formula {formula!r} produces {family.side} bounds, request says {side}")
        if request.ell != family.ell:
            raise ValueError(f"formula {formula!r} uses ell={family.ell}, request says {request.ell}")
        if not family.applies(n, r, d, target):
            raise NotApplicableError(
                f"formula {formula!r} does not apply to target={target!r} at r={r}, d={d}, n={n}"
            )
        families, per_tuple = (family,), True
    sources = tuple(family_source(family, n, r, d, target) for family in families)
    return sources, tuple(family.name for family in families), per_tuple


def evaluate_request(moments: MomentSet, request: BoundRequest) -> BoundCertificate:
    """Evaluate a bound request against a moment set.

    Without a formula: the best applicable closed form at ell 2 or 3, the
    index-set search otherwise.  With a formula: that family exactly
    (side and moment order must agree), "search" for the enumeration, or
    "jordan", the search at full order, whose label it keeps.  A set with
    more orders than the request is read at its first ``request.ell``,
    with no copy.

    Checks raise in this order (ValueError unless NotApplicableError is
    named): the set's d and orders against the request;
    :meth:`BoundRequest.check`.  Then best-of: no family of the side
    applies (NotApplicableError).  Named: an unknown name, the side, the
    order, applicability (NotApplicableError).  Last, for "jordan" an
    order other than n-d+1, then no side-feasible index set
    (NotApplicableError).  A windowed family takes its sharpest window per
    index tuple; a request pins none.

    A closed-form request's plan is resolved once per (n, request) and
    process; failures are not cached, and the search does not use it.
    """
    if moments.d != request.d:
        raise ValueError(f"moment set has d={moments.d}, request asks for d={request.d}")
    if request.ell > moments.ell:
        raise ValueError(
            f"request needs ell={request.ell} moment orders, set has {moments.ell}"
        )
    n, d, r, target, side = moments.n, moments.d, request.r, request.target, request.side
    request.check(n)
    formula = request.formula
    if formula not in ("search", "jordan") and (formula is not None or request.ell in _BEST_OF):
        sources, labels, per_tuple = _plan(n, request)
    elif formula == "jordan" and request.ell != n - d + 1:
        raise NotApplicableError(
            f"exact evaluation needs ell = n-d+1 = {n - d + 1}, got ell={request.ell}"
        )
    else:
        # At full order the one stored set is every position, so b = v and
        # s . a is the target probability itself (Jordan's formula).
        fmat, v = moment_matrix(n, d, request.ell), target_vector(n, d, r, target)
        table = dual_bases(fmat, v, side)
        if not table.bases:
            raise NotApplicableError(
                f"no {side}-feasible index set at ell={request.ell} "
                f"for target={target!r}, r={r}, d={d}, n={n}"
            )
        sources, labels, per_tuple = [row_source(table.bases, side)], [formula or "search"], True
    return evaluate(sources, labels, moments, request, per_tuple)


def bound_for_system(sys: EventSystem, request: BoundRequest) -> BoundCertificate:
    """Compute the request's moment set from the system, then evaluate it."""
    request.check(sys.n)
    return evaluate_request(moment_set(sys, request.d, request.ell), request)
