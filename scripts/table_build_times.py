"""Cold build time of every dual basis table of one search shape family.

For each r in 0..n, each target and each side, clears the engine's table cache
and times ``engine.dual_bases`` on the moment matrix (n, d, ell), then
prints one line per table (candidates solved, bases stored, milliseconds)
and a summary: the total time, the candidates solved in all tables, the
rejected ones among them (solved but not stored: a table stores each
feasible set it solves, and one set per range, which is not solved), the
microseconds per candidate and the slowest build.  Run from the
repository root:

    PYTHONPATH=src python3 scripts/table_build_times.py --n 60 --d 0 --ell 4
"""

from __future__ import annotations

import argparse
import time

from eventbounds import engine
from eventbounds.certificates import SIDES, TARGETS
from eventbounds.moments import moment_matrix


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=60)
    parser.add_argument("--d", type=int, default=0)
    parser.add_argument("--ell", type=int, default=4)
    parser.add_argument("--quiet", action="store_true", help="print the summary only")
    args = parser.parse_args()
    fmat = moment_matrix(args.n, args.d, args.ell)
    builds = []
    for r in range(args.d, args.n + 1):
        for target in TARGETS:
            v = engine.target_vector(args.n, args.d, r, target)
            for side in SIDES:
                engine._basis_table.cache_clear()
                start = time.perf_counter()
                table = engine.dual_bases(fmat, v, side)
                elapsed = time.perf_counter() - start
                ranges = sum(
                    len(positions) >= args.ell
                    for positions in (table.zero_positions, table.one_positions)
                )
                rejected = table.solved - (len(table.bases) - ranges)
                builds.append((elapsed, r, target, side, table.solved, rejected))
                if not args.quiet:
                    print(
                        f"r={r:3d} {target:8s} {side:5s} solved={table.solved:6d} "
                        f"stored={len(table.bases):6d} {elapsed * 1e3:8.1f} ms"
                    )
    slowest = max(builds)
    seconds = sum(b[0] for b in builds)
    solved = sum(b[4] for b in builds)
    rejected = sum(b[5] for b in builds)
    print(
        f"n={args.n} d={args.d} ell={args.ell}: {len(builds)} tables in {seconds:.2f} s; "
        f"solved={solved} rejected={rejected} at {seconds / max(solved, 1) * 1e6:.1f} us/candidate; "
        f"slowest {slowest[0] * 1e3:.1f} ms (r={slowest[1]}, {slowest[2]}, {slowest[3]})"
    )


if __name__ == "__main__":
    main()
