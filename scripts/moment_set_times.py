"""Build time of ``moment_set`` per order d on one seeded wide exact system.

Builds an n-event system of ``--atoms`` distinct atoms with weights a/b
(a, b in 1..9, seeded, normalized), then times ``moments.moment_set`` at
each d in ``--ds`` and the given ell, best of ``--repeat``, and prints one
line per d.  Run from the repository root:

    PYTHONPATH=src python3 scripts/moment_set_times.py --n 20 --atoms 50000
"""

from __future__ import annotations

import argparse
import random
import time
from fractions import Fraction

from eventbounds.core import normalize
from eventbounds.moments import moment_set


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
    system = normalize(
        args.n, {m: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for m in masks}
    )
    for d in args.ds:
        best = float("inf")
        for _ in range(args.repeat):
            start = time.perf_counter()
            moment_set(system, d, args.ell)
            best = min(best, time.perf_counter() - start)
        print(
            f"n={args.n} atoms={args.atoms} d={d} ell={args.ell}: "
            f"moment_set {best:.3f} s (best of {args.repeat})"
        )


if __name__ == "__main__":
    main()
