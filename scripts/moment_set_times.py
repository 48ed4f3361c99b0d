"""Ingest, ``moment_set`` and conditioning times on one seeded wide exact system.

Builds an n-event system of ``--atoms`` distinct atoms with weights a/b
(a, b in 1..9, seeded) as the text of an event-system file with
``"normalize": true``.  Times its ingest, ``json.loads`` and
``EventSystem.from_payload``, then ``moments.moment_set`` at each d in
``--ds`` and the given ell, then ``MomentSet.from_payload`` on the
system's d = 1 moment payload at the given ell (which includes the
realizability check), then, on the sigma-field of the first k events,
2^k blocks, for k = 1, 4 and 8 up to n: ``json.loads`` and
``PartitionField.from_payload`` of its partition file, and
``conditional_bound`` at d = 1 and the given ell (upper, at least r = 3);
each best of ``--repeat``.  Prints one line for ingest, one per d, one
for the moment file and two per k.
Run from the repository root:

    PYTHONPATH=src python3 scripts/moment_set_times.py --n 20 --atoms 50000
"""

from __future__ import annotations

import argparse
import json
import random
import time

from eventbounds.certificates import BoundRequest
from eventbounds.conditional import PartitionField, conditional_bound
from eventbounds.core import EventSystem
from eventbounds.moments import MomentSet, moment_set


def _best(repeat: int, call) -> tuple[float, object]:
    """The least wall time of ``repeat`` calls, and the last call's result."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    return best, result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=20)
    parser.add_argument("--atoms", type=int, default=50_000)
    parser.add_argument("--ell", type=int, default=3)
    parser.add_argument("--ds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    masks = rng.sample(range(1 << args.n), args.atoms)
    weights = {str(m): f"{rng.randint(1, 9)}/{rng.randint(1, 9)}" for m in masks}
    text = json.dumps({"n": args.n, "normalize": True, "weights": weights})
    label = f"n={args.n} atoms={args.atoms}"
    seconds, system = _best(args.repeat, lambda: EventSystem.from_payload(json.loads(text)))
    print(f"{label} ingest: json.loads + from_payload {seconds:.3f} s (best of {args.repeat})")
    for d in args.ds:
        seconds, _ = _best(args.repeat, lambda: moment_set(system, d, args.ell))
        print(f"{label} d={d} ell={args.ell}: moment_set {seconds:.3f} s (best of {args.repeat})")
    payload = moment_set(system, 1, args.ell).to_payload()
    seconds, _ = _best(args.repeat, lambda: MomentSet.from_payload(payload))
    print(
        f"{label} d=1 ell={args.ell} moment file: MomentSet.from_payload {seconds * 1e3:.2f} ms "
        f"(best of {args.repeat})"
    )
    request = BoundRequest(r=3, d=1, ell=args.ell)
    for k in (k for k in (1, 4, 8) if k <= args.n):
        blocks = [list(range(block, 1 << args.n, 1 << k)) for block in range(1 << k)]
        partition_text = json.dumps({"blocks": blocks})
        loads, raw = _best(args.repeat, lambda: json.loads(partition_text))
        checks, partition = _best(args.repeat, lambda: PartitionField.from_payload(raw, args.n))
        print(
            f"{label} blocks={1 << k} partition file: json.loads {loads:.3f} s, "
            f"PartitionField.from_payload {checks:.3f} s (best of {args.repeat})"
        )
        seconds, _ = _best(args.repeat, lambda: conditional_bound(system, partition, request))
        print(
            f"{label} blocks={1 << k} d=1 ell={args.ell}: conditional_bound {seconds:.3f} s "
            f"(best of {args.repeat})"
        )


if __name__ == "__main__":
    main()
