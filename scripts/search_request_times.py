"""Where a search-moments-shaped request spends its time, piece by piece.

Builds moment files shaped like the search-moments benchmark's (d = 1 at
``--tuple-n`` events for ell 4 and 5, d = 0 at ``--single-n`` for ell 4;
each tuple's moments F z from its own seeded z >= 0) and runs each request
in a fresh interpreter, as a CLI call does.  Each request is split into:

  parse      json.loads and MomentSet.from_payload, less the check below
  realize    engine.check_realizable
  candidates engine._Candidates, the candidate DAG's passes
  solves     engine._prefix_solves, including listing the candidates
  checks     the rest of the cold table build: the checks and the rows
  evaluate   evaluate_request less the table build
  payload    BoundCertificate.to_payload
  json       json.dumps of the payload with indent=2

The cyclic collector is paused while a request runs, so no collection
lands in a piece; each piece shows its microseconds and its net
GC-tracked allocations (the rise of ``gc.get_count()[0]``).  Each line is
the median of ``--repeat`` fresh interpreters.  Run from the repository
root:

    PYTHONPATH=src python3 scripts/search_request_times.py --seed 91001 --repeat 5
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from math import comb

PIECES = ("parse", "realize", "candidates", "solves", "checks", "evaluate", "payload", "json")


def moment_file(seed: int, n: int, d: int, ell: int) -> str:
    """A moment file of seeded per-tuple z >= 0 with s_1 <= 1, as strings."""
    rng = random.Random(f"{seed}-{n}-{d}-{ell}")
    positions = n - d + 1
    records = []
    for j in combinations(range(1, n + 1), d):
        levels = [rng.randint(0, 9) if rng.random() < 0.7 else 0 for _ in range(positions)]
        levels[rng.randrange(positions)] += 1
        total = sum(levels) + rng.randint(0, 9)
        z = [Fraction(c, comb(i + d - 1, d) * total) for i, c in enumerate(levels, 1)]
        values = [
            sum((comb(i + d - 1, k + d - 1) * x for i, x in enumerate(z, 1)), Fraction(0))
            for k in range(1, ell + 1)
        ]
        records.append({"j": list(j), "values": [str(x) for x in values]})
    return json.dumps({"n": n, "d": d, "ell": ell, "s": records})


def requests(tuple_n: int, single_n: int) -> list[dict]:
    """The benchmark's one pass: each d = 1 shape on one (side, target)
    pair in turn, the d = 0 shape on both, r at the middle level."""
    pairs = (("upper", "at-least"), ("lower", "exactly"))
    shapes = [(tuple_n, 1, 4, pairs[:1]), (tuple_n, 1, 5, pairs[1:]), (single_n, 0, 4, pairs)]
    return [
        {"n": n, "d": d, "ell": ell, "r": (n + d) // 2, "side": side, "target": target}
        for n, d, ell, shape_pairs in shapes
        for side, target in shape_pairs
    ]


def run_one(spec: dict, seed: int) -> dict:
    """Time one request's pieces in this (fresh) interpreter."""
    from eventbounds import engine
    from eventbounds.certificates import BoundRequest
    from eventbounds.dispatch import evaluate_request
    from eventbounds.moments import MomentSet

    text = moment_file(seed, spec["n"], spec["d"], spec["ell"])
    clock = dict.fromkeys(PIECES, 0.0)
    allocated = dict.fromkeys(PIECES, 0)

    def timed(piece, call, *args):
        count, start = gc.get_count()[0], time.perf_counter()
        try:
            return call(*args)
        finally:
            clock[piece] += time.perf_counter() - start
            allocated[piece] += gc.get_count()[0] - count

    check, candidates, solves = engine.check_realizable, engine._Candidates, engine._prefix_solves

    def timed_solves(*args):
        inner = solves(*args)
        while True:
            try:
                item = timed("solves", next, inner)
            except StopIteration:
                return
            yield item

    engine.check_realizable = lambda moments: timed("realize", check, moments)
    engine._Candidates = lambda *args: timed("candidates", candidates, *args)
    engine._prefix_solves = timed_solves
    build = engine._basis_table
    engine._basis_table = lambda *args: timed("checks", build, *args)
    request = BoundRequest(
        r=spec["r"], d=spec["d"], ell=spec["ell"], side=spec["side"], target=spec["target"]
    )
    gc.collect()
    gc.disable()
    moments = timed("parse", lambda: MomentSet.from_payload(json.loads(text)))
    certificate = timed("evaluate", evaluate_request, moments, request)
    payload = timed("payload", certificate.to_payload)
    timed("json", lambda: json.dumps({"certificate": payload}, indent=2))
    gc.enable()
    # Each outer piece's clock holds the inner pieces timed within it.
    clock["parse"] -= clock["realize"]
    clock["evaluate"] -= clock["checks"]
    allocated["parse"] -= allocated["realize"]
    allocated["evaluate"] -= allocated["checks"]
    for piece in ("candidates", "solves"):
        clock["checks"] -= clock[piece]
        allocated["checks"] -= allocated[piece]
    return {"us": {k: v * 1e6 for k, v in clock.items()}, "allocs": allocated}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=91001)
    parser.add_argument("--repeat", type=int, default=5, help="fresh interpreters per request")
    parser.add_argument("--tuple-n", type=int, default=12, help="n of the d = 1 files")
    parser.add_argument("--single-n", type=int, default=20, help="n of the d = 0 file")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(run_one(json.loads(args.child), args.seed)))
        return
    print(f"{'request':28s}" + "".join(f"{piece:>16s}" for piece in PIECES) + f"{'total':>16s}")
    print(f"{'':28s}" + f"{'us/allocs':>16s}" * (len(PIECES) + 1))
    totals = dict.fromkeys(PIECES, 0.0)
    for spec in requests(args.tuple_n, args.single_n):
        runs = [
            json.loads(subprocess.run(
                [sys.executable, __file__, "--seed", str(args.seed), "--child", json.dumps(spec)],
                env=os.environ, capture_output=True, text=True, check=True,
            ).stdout)
            for _ in range(args.repeat)
        ]
        us = {piece: statistics.median(run["us"][piece] for run in runs) for piece in PIECES}
        allocs = {piece: statistics.median(run["allocs"][piece] for run in runs) for piece in PIECES}
        for piece in PIECES:
            totals[piece] += us[piece]
        name = f"n{spec['n']}-d{spec['d']}-ell{spec['ell']}-{spec['side']}-{spec['target']}"
        cells = [f"{us[p]:9.0f}/{allocs[p]:<6.0f}" for p in PIECES]
        cells.append(f"{sum(us.values()):9.0f}/{sum(allocs.values()):<6.0f}")
        print(f"{name:28s}" + "".join(f"{cell:>16s}" for cell in cells))
    print(f"{'pass (us)':28s}" + "".join(f"{totals[p]:16.0f}" for p in PIECES)
          + f"{sum(totals.values()):16.0f}")


if __name__ == "__main__":
    main()
