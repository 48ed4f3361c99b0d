"""Per-request cost of best-of closed-form bounds, by moment order and tuple count.

Builds seeded random systems with n = 2..8 events, each followed by its
float copy, and evaluates every best-of request at ell 2 and 3
(``dispatch.request_grid``) that applies, in-process.  Each request is
timed twice, best of ``--repeat`` single calls: *planned*,
with its closed-form plan already cached, and *unplanned*, with the plan
cache cleared before each call, so the plan is resolved again every time
(the row cache stays warm in both).  One line per (ell, tuples) gives the
request count, the median microseconds of each, and the mean net
GC-tracked allocations a planned request leaves alive: the rise of
``gc.get_count()[0]`` over the call, with the collector paused and the
certificate kept, which repeats exactly from run to run.  The last lines
give the least-squares fixed and per-tuple cost per ell, and the plan
cache's ``cache_info()``.  Run from the repository root:

    PYTHONPATH=src python3 scripts/closed_form_times.py --seed 7
"""

from __future__ import annotations

import argparse
import gc
import itertools
import random
import statistics
import time
from collections import defaultdict

from eventbounds import dispatch
from eventbounds.verification import floatize, random_system


def _best_of(call, repeat: int, before=None) -> float:
    """The smallest wall time of ``repeat`` single calls, in microseconds."""
    best = float("inf")
    for _ in range(repeat):
        if before is not None:
            before()
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best * 1e6


def _fit(points: list[tuple[int, float]]) -> tuple[float, float]:
    """Least-squares (fixed, per-tuple) of cost against tuple count."""
    if len({x for x, _ in points}) < 2:
        return statistics.fmean(y for _, y in points), 0.0
    slope, intercept = statistics.linear_regression(*zip(*points))
    return intercept, slope


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--systems", type=int, default=2, help="exact systems per n")
    parser.add_argument("--repeat", type=int, default=5, help="single calls per timing")
    args = parser.parse_args()
    rng = random.Random(args.seed)
    requests = []  # one pass fills the caches
    for _ in range(args.systems):
        for n in range(2, 9):
            system = random_system(rng, n)
            for moments, request in itertools.chain(
                dispatch.request_grid(system), dispatch.request_grid(floatize(system))
            ):
                dispatch.evaluate_request(moments, request)
                requests.append((moments, request))
    kept, allocated = [], defaultdict(list)
    gc.collect()
    gc.disable()
    for moments, request in requests:
        count = gc.get_count()[0]
        kept.append(dispatch.evaluate_request(moments, request))
        allocated[request.ell, len(moments)].append(gc.get_count()[0] - count)
    gc.enable()
    del kept
    costs = defaultdict(list)
    for moments, request in requests:
        call = lambda: dispatch.evaluate_request(moments, request)  # noqa: E731
        planned = _best_of(call, args.repeat)
        unplanned = _best_of(call, args.repeat, dispatch._plan.cache_clear)
        costs[request.ell, len(moments)].append((planned, unplanned))
    dispatch._plan.cache_clear()
    for moments, request in requests:  # leave the cache as one pass leaves it
        dispatch.evaluate_request(moments, request)
    print(
        f"{'ell':>3} {'tuples':>6} {'requests':>8} {'planned_us':>10} {'unplanned_us':>12} "
        f"{'allocs':>6}"
    )
    for (ell, tuples), pairs in sorted(costs.items()):
        planned, unplanned = zip(*pairs)
        print(
            f"{ell:>3} {tuples:>6} {len(pairs):>8} {statistics.median(planned):>10.1f} "
            f"{statistics.median(unplanned):>12.1f} {statistics.fmean(allocated[ell, tuples]):>6.1f}"
        )
    for ell in sorted({ell for ell, _ in costs}):
        for column, name in ((0, "planned"), (1, "unplanned")):
            points = [
                (tuples, pair[column])
                for (e, tuples), pairs in costs.items() if e == ell for pair in pairs
            ]
            fixed, per_tuple = _fit(points)
            print(f"ell={ell} {name}: fixed {fixed:.1f} us + {per_tuple:.2f} us/tuple")
    print(f"plans: {dispatch._plan.cache_info()}")


if __name__ == "__main__":
    main()
