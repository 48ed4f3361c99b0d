"""Seeded inputs for the three workloads, built without the package under test.

Everything here is plain Python: weights are small integer ratios a/b,
moments are computed from known per-tuple z vectors with this module's own
arithmetic.  A change to ``eventbounds`` therefore cannot change what the
benchmark feeds it, and the same seed always gives the same files.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one benchmark scale (full or smoke)."""

    small_n: tuple[int, ...]  # event counts of the verify-small systems
    small_per_n: int  # systems per event count, each with a float copy
    wide_n: int
    wide_atoms: int
    wide_bound_requests: int  # bound-shaped requests per bound-wide pass
    search_tuple_n: int  # n of the d = 1 search inputs
    search_tuple_ells: tuple[int, ...]
    search_single_n: int  # n of the d = 0 search input
    search_single_ell: int


FULL = Sizes(
    small_n=(2, 3, 4, 5, 6, 7, 8),
    small_per_n=4,
    wide_n=20,
    wide_atoms=50_000,
    wide_bound_requests=1,
    search_tuple_n=12,
    search_tuple_ells=(4, 5),
    search_single_n=20,
    search_single_ell=4,
)

SMOKE = Sizes(
    small_n=(2, 3, 4, 5),
    small_per_n=1,
    wide_n=10,
    wide_atoms=600,
    wide_bound_requests=1,
    search_tuple_n=7,
    search_tuple_ells=(4, 5),
    search_single_n=8,
    search_single_ell=4,
)

SMALL_MAX_ATOMS = 24
SIDES = ("upper", "lower")
TARGETS = ("at-least", "exactly")


def _rng(seed: int, *labels: object) -> random.Random:
    return random.Random(":".join(str(x) for x in (seed, *labels)))


def _ratio_weights(rng: random.Random, masks) -> dict[int, tuple[int, int]]:
    return {mask: (rng.randint(1, 9), rng.randint(1, 9)) for mask in masks}


def system_text(n: int, weights: dict[int, tuple[int, int]], as_float: bool = False) -> str:
    """The event-system file of unnormalized a/b weights, normalized on load."""
    encoded = {
        str(mask): (a / b if as_float else f"{a}/{b}") for mask, (a, b) in sorted(weights.items())
    }
    return json.dumps({"n": n, "normalize": True, "weights": encoded})


def partition_text(blocks: list[list[int]]) -> str:
    return json.dumps({"blocks": blocks})


def occurrence_truth(n: int, weights: dict[int, tuple[int, int]], masks=None) -> list[Fraction]:
    """P(exactly i occur), i = 0..n, of the normalized weights restricted to
    ``masks`` (all atoms when None).  The checker's own oracle."""
    buckets = [Fraction(0)] * (n + 1)
    for mask, (a, b) in weights.items():
        if masks is None or mask in masks:
            buckets[mask.bit_count()] += Fraction(a, b)
    total = sum(buckets)
    return [x / total for x in buckets]


def _block_truths(n: int, weights: dict[int, tuple[int, int]], blocks: list[list[int]]) -> list:
    """Per block, the encoded occurrence distribution, or None without mass."""
    truths = []
    for block in blocks:
        members = set(block)
        carried = any(mask in members for mask in weights)
        truths.append([str(x) for x in occurrence_truth(n, weights, members)] if carried else None)
    return truths


def _bracketed_request(rng: random.Random, n: int, max_d: int) -> tuple[int, int]:
    """(r, d) with d <= min(max_d, n-2) and d < r < n, where every side,
    target and ell in {2, 3} has a closed form or a search basis."""
    d = rng.randint(0, min(max_d, n - 2))
    return rng.randint(d + 1, n - 1), d


def verify_small_plan(seed: int, sizes: Sizes) -> list[dict]:
    """One pass of verify-small requests.

    A fixed number of systems per n, with atom counts spread evenly over
    1..min(2^n, SMALL_MAX_ATOMS), so only masks and weights depend on the seed.
    Requests cycle through n so that every prefix mixes all sizes; each
    system is followed by its float copy.
    """
    plan = []
    for index in range(sizes.small_per_n):
        for n in sizes.small_n:
            rng = _rng(seed, "verify-small", n, index)
            cap = min(1 << n, SMALL_MAX_ATOMS)
            atoms = 1 + (index * (cap - 1)) // max(1, sizes.small_per_n - 1)
            weights = _ratio_weights(rng, rng.sample(range(1 << n), atoms))
            # The search stays at d <= 1, where a tuple count of at most n
            # keeps the engine a small share, as in the verify suites.
            search_r, search_d = _bracketed_request(rng, n, 1)
            cond_r, cond_d = _bracketed_request(rng, n, n)
            groups: list[list[int]] = [[] for _ in range(rng.randint(1, 4))]
            for atom in range(1 << n):
                groups[rng.randrange(len(groups))].append(atom)
            blocks = [g for g in groups if g]
            common = {
                "n": n,
                "search": {"r": search_r, "d": search_d, "target": rng.choice(TARGETS)},
                "conditional": {
                    "r": cond_r,
                    "d": cond_d,
                    "ell": 3,
                    "side": rng.choice(SIDES),
                    "target": rng.choice(TARGETS),
                },
                "partition_text": partition_text(blocks),
                "block_truths": _block_truths(n, weights, blocks),
                "truth": [str(x) for x in occurrence_truth(n, weights)],
            }
            for as_float in (False, True):
                plan.append(
                    dict(
                        common,
                        id=f"n{n}-{index}-{'float' if as_float else 'exact'}",
                        mode="float" if as_float else "exact",
                        system_text=system_text(n, weights, as_float),
                    )
                )
    return plan


def bound_wide_inputs(seed: int, sizes: Sizes) -> tuple[str, str, list[dict]]:
    """The wide system, its one-event partition and one pass of requests.

    The pass starts with the conditional request and continues with
    ``wide_bound_requests`` bound requests at r in 3..n-1, where every
    side and target has a three-moment closed form for d <= 2.
    """
    n = sizes.wide_n
    rng = _rng(seed, "bound-wide")
    weights = _ratio_weights(rng, rng.sample(range(1 << n), sizes.wide_atoms))
    event = rng.randint(1, n)
    bit = 1 << (event - 1)
    blocks = [[a for a in range(1 << n) if a & bit], [a for a in range(1 << n) if not a & bit]]
    truth = [str(x) for x in occurrence_truth(n, weights)]
    requests = [
        {
            "kind": "conditional",
            "id": f"conditional-event{event}",
            "r": rng.randint(2, n - 1),
            "d": 1,
            "ell": 3,
            "side": rng.choice(SIDES),
            "target": rng.choice(TARGETS),
            "truth": truth,
            "block_truths": _block_truths(n, weights, blocks),
        }
    ]
    for index in range(sizes.wide_bound_requests):
        r = rng.randint(3, n - 1)
        requests.append(
            {"kind": "bound", "id": f"bound-{index}-r{r}", "r": r, "ds": [0, 1, 2], "ell": 3, "truth": truth}
        )
    return system_text(n, weights), partition_text(blocks), requests


def moment_rows(n: int, d: int, ell: int) -> list[list[int]]:
    """F[k][i] = C(i+d-1, k+d-1), k = 1..ell, i = 1..n-d+1."""
    return [[comb(i + d - 1, k + d - 1) for i in range(1, n - d + 2)] for k in range(1, ell + 1)]


def _z_vector(rng: random.Random, n: int, d: int) -> list[Fraction]:
    """A nonnegative z with s_1 = sum C(i+d-1, d) z_i in (0, 1]."""
    positions = n - d + 1
    levels = [rng.randint(0, 9) if rng.random() < 0.7 else 0 for _ in range(positions)]
    if not any(levels):
        levels[rng.randrange(positions)] = 1
    total = sum(levels) + rng.randint(0, 9)
    return [Fraction(c, comb(i + d - 1, d) * total) for i, c in enumerate(levels, start=1)]


def _moment_file(rng: random.Random, n: int, d: int, ell: int) -> tuple[str, dict[tuple, list[Fraction]]]:
    rows = moment_rows(n, d, ell)
    records, zs = [], {}
    for j in itertools.combinations(range(1, n + 1), d):
        z = _z_vector(rng, n, d)
        zs[j] = z
        values = [sum((f * x for f, x in zip(row, z)), Fraction(0)) for row in rows]
        records.append({"j": list(j), "values": [str(v) for v in values]})
    return json.dumps({"n": n, "d": d, "ell": ell, "s": records}), zs


def target_value(z: list[Fraction], d: int, r: int, target: str) -> Fraction:
    """z . v for the at-least-r or exactly-r target vector."""
    pivot = r - d + 1
    if target == "at-least":
        return sum(z[pivot - 1:], Fraction(0))
    return z[pivot - 1]


def search_moments_inputs(seed: int, sizes: Sizes) -> tuple[dict[str, str], list[dict]]:
    """Moment files and one pass of requests, each carrying the known z . v
    of every tuple for the checker.

    Inputs: d = 1 at n = search_tuple_n for each ell in search_tuple_ells,
    and d = 0 at n = search_single_n.  The d = 1 inputs take turns at
    (upper, at-least) and (lower, exactly); the d = 0 input gets both.  So
    each of the two kinds covers both sides and both targets.  r is fixed at
    the middle level: the seed changes the moments, not the search's shape.
    """
    files, zs, requests = {}, {}, []
    pairs = (("upper", "at-least"), ("lower", "exactly"))
    shapes = [(f"d1-ell{ell}", sizes.search_tuple_n, 1, ell, [pairs[k % 2]])
              for k, ell in enumerate(sizes.search_tuple_ells)]
    shapes.append((f"d0-ell{sizes.search_single_ell}", sizes.search_single_n, 0, sizes.search_single_ell, pairs))
    for name, n, d, ell, shape_pairs in shapes:
        rng = _rng(seed, "search-moments", name)
        files[name], zs[name] = _moment_file(rng, n, d, ell)
        for side, target in shape_pairs:
            r = (n + d) // 2
            zv = [[list(j), str(target_value(z, d, r, target))] for j, z in zs[name].items()]
            requests.append(
                {"id": f"{name}-{side}-{target}-r{r}", "input": name, "r": r, "d": d,
                 "ell": ell, "side": side, "target": target, "zv": zv}
            )
    return files, requests
