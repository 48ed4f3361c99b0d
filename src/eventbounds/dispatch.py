"""Route bound requests to the closed-form families or the generic engine.

The closed forms cover only the first two or three moment orders; any
other order, or an explicit request, goes through the index-set search.
A request naming a formula gets exactly that family or an error; a
request without one gets the best applicable bound for its moment order.
Each entry checks its request once (:meth:`BoundRequest.check`); the
functions behind it trust the request.  Whether the closed forms serve a
request is decided in one place, :func:`_closed_form_route`, and which
families serve it, with every other ``m`` rule and window range, in
:func:`_closed_forms`; :func:`evaluate_request` gives the order of the
checks and how the closed-form plans are cached.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from . import bounds_l2, bounds_l3
from .certificates import SIDES, TARGETS, BoundCertificate, BoundRequest
from .core import EventSystem
from .engine import dual_bases, target_vector
from .errors import NotApplicableError
from .families import evaluate, family_source, row_source, solved_row
from .moments import MomentSet, moment_matrix, moment_set

#: Every closed-form family by name, in tie-breaking order.
FAMILY_TABLE = {family.name: family for family in bounds_l2.FAMILY_ROWS + bounds_l3.FAMILY_ROWS}

#: The closed-form families of each moment order, and whether best-of
#: requests at that order pick a family per index tuple.
_BEST_OF = {2: (bounds_l2.FAMILY_ROWS, False), 3: (bounds_l3.FAMILY_ROWS, True)}

FORMULAS = tuple(sorted(FAMILY_TABLE)) + ("search", "jordan")

#: Closed-form plans kept at once: one verify-small pass makes 1,036 and
#: ``run_all(150, 8, 42)`` makes 2,893, so neither evicts one.
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


def _closed_form_route(request: BoundRequest) -> bool:
    """Whether the closed forms serve a checked request, not the search or
    Jordan route; ``m`` on those two routes raises."""
    formula = request.formula
    if formula in ("search", "jordan") or formula is None and request.ell not in _BEST_OF:
        if request.m is not None:
            raise ValueError(
                f"formula {formula!r} has no window parameter m" if formula
                else "m applies only to the closed-form windowed families"
            )
        return False
    return True


def _closed_forms(n: int, request: BoundRequest) -> tuple[tuple, bool]:
    """The closed-form families that serve a checked closed-form request,
    each with the window ``m`` pins in it (None for a free or fixed window),
    and whether they combine per index tuple.  Raises in the order
    :func:`evaluate_request` states."""
    r, d, side, target = request.r, request.d, request.side, request.target
    formula, m = request.formula, request.m
    if formula is None:
        families, per_tuple = _BEST_OF[request.ell]
        if per_tuple and m is not None:
            raise ValueError(
                "the combined three-moment bound picks windows per index tuple; "
                "name a formula to pin m"
            )
        families = [f for f in families if f.side == side and f.applies(n, r, d, target)]
        if not families:
            raise NotApplicableError(
                f"no {request.ell}-moment {side} bound applies to target={target!r}, "
                f"r={r}, d={d}, n={n}"
            )
        if m is not None and not any(target in family.windows for family in families):
            raise ValueError("m applies only to the closed-form windowed families")
    else:
        family = FAMILY_TABLE.get(formula)
        if family is None:
            raise ValueError(f"unknown formula {formula!r}; known: {FORMULAS}")
        if side != family.side:
            raise ValueError(
                f"formula {formula!r} produces {family.side} bounds, request says {side}"
            )
        if request.ell != family.ell:
            raise ValueError(
                f"formula {formula!r} uses ell={family.ell}, request says {request.ell}"
            )
        if m is not None and not family.windows:
            raise ValueError(f"formula {formula!r} has no window parameter m")
        if not family.applies(n, r, d, target):
            raise NotApplicableError(
                f"formula {formula!r} does not apply to target={target!r} at r={r}, d={d}, n={n}"
            )
        if m is not None and target not in family.windows:
            raise ValueError(f"the {target} target of {formula!r} has a fixed window")
        families, per_tuple = (family,), True
    selected = tuple((family, m if target in family.windows else None) for family in families)
    for family, pin in selected:
        if pin is not None:
            lo, hi = family.windows[target](n, r, d)
            if not lo <= pin <= hi:
                raise ValueError(f"need {lo} <= m <= {hi}, got m={m}")
    return selected, per_tuple


@lru_cache(maxsize=MAX_PLANS)
def _plan(n: int, request: BoundRequest) -> tuple[tuple, tuple, bool]:
    """The sources, labels and ``per_tuple`` of a checked closed-form
    request; a request that raises is not cached."""
    selected, per_tuple = _closed_forms(n, request)
    r, d, target = request.r, request.d, request.target
    sources = tuple(family_source(family, n, r, d, target, pin) for family, pin in selected)
    return sources, tuple(family.name for family, _ in selected), per_tuple


def evaluate_request(moments: MomentSet, request: BoundRequest) -> BoundCertificate:
    """Evaluate a bound request against a moment set.

    Without a formula: the best applicable closed form at ell 2 or 3, the
    index-set search otherwise.  With a formula: that family exactly
    (side and moment order must agree), "search" for the enumeration, or
    "jordan" for the exact full-order evaluation.  A set with more orders
    than the request is read at its first ``request.ell``, with no copy.

    Checks raise in this order (ValueError unless NotApplicableError is
    named): the set's d and orders against the request;
    :meth:`BoundRequest.check`; ``m`` on a route without windows (search,
    Jordan, a best-of beyond ell 3 or at ell 3).  Then best-of: no family
    of the side applies (NotApplicableError), ``m`` with no windowed
    target among those that do.  Named: an unknown name, the side, the
    order, ``m`` on a family without windows, applicability
    (NotApplicableError), ``m`` on a fixed window.  Then a pinned ``m``
    outside its range.  Last, no side-feasible index set for the search,
    or an order other than n-d+1 for Jordan (NotApplicableError).

    A closed-form request's plan is resolved once per (n, request) and
    process; failures are not cached, and search and Jordan do not use it.
    """
    if moments.d != request.d:
        raise ValueError(f"moment set has d={moments.d}, request asks for d={request.d}")
    if request.ell > moments.ell:
        raise ValueError(
            f"request needs ell={request.ell} moment orders, set has {moments.ell}"
        )
    n, d, r, target, side = moments.n, moments.d, request.r, request.target, request.side
    request.check(n)
    if _closed_form_route(request):
        sources, labels, per_tuple = _plan(n, request)
    elif request.formula == "jordan":
        # At full order the row solved at every position makes b = v, so
        # s . a is the target probability itself.
        positions = n - d + 1
        if request.ell != positions:
            raise NotApplicableError(
                f"exact evaluation needs ell = n-d+1 = {positions}, got ell={request.ell}"
            )
        row = solved_row(n, r, d, target, tuple(range(1, positions + 1)), None)
        sources, labels, per_tuple = [row_source((row,), side)], ["jordan"], True
    else:
        fmat, v = moment_matrix(n, d, request.ell), target_vector(n, d, r, target)
        table = dual_bases(fmat, v, side)
        if not table.bases:
            raise NotApplicableError(
                f"no {side}-feasible index set at ell={request.ell} "
                f"for target={target!r}, r={r}, d={d}, n={n}"
            )
        sources, labels, per_tuple = [row_source(table.bases, side)], ["search"], True
    return evaluate(sources, labels, moments, request, per_tuple)


def bound_for_system(sys: EventSystem, request: BoundRequest) -> BoundCertificate:
    """Compute the request's moment set from the system, then evaluate it."""
    request.check(sys.n)
    return evaluate_request(moment_set(sys, request.d, request.ell), request)
