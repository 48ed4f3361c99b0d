"""Digest of the ``exact``, ``sweep``, ``bound`` and ``conditional`` commands' outputs.

Writes seeded inputs to a temporary directory: per seed, one random exact
system of 3 to ``--n-max`` events and its float copy, each as a system
file, as moment files at every d (up to 4 orders) and with one random
partition.  Then runs, in-process, with and without
``--exact-arithmetic`` and in JSON and CSV:

* ``exact --input`` and ``sweep --input`` on each system file;
* ``bound --input`` at every d from 0 to n, r from 0 to n+1, ell 2, 3
  and 4, both sides and targets;
* ``bound --input`` in JSON, with and without ``--exact-arithmetic``, at
  every d, r, side and target as above, ell 2 and 3, and ``--m`` from 0
  to n-d+2, so that every window rule and range check is reached;
* ``bound --moments`` on each moment file at its d and at d+1, over the
  same r, ell, sides and targets;
* ``conditional`` at every d below n, r from 0 to n+1, ell 2 and 3, both
  sides and targets;
* after the seeded calls, a fixed table of invalid files: event systems
  (negative weights, zero mass, a mask out of range, a sum other than
  one, two spellings of one mask, each exact and float; and a float
  file whose first negative weight lies within the float tolerance and
  whose second does not), with and without ``"normalize"``, through
  ``bound --input`` and ``conditional``; moment files (ell 0, a negative
  moment, orders no distribution has, a missing tuple) through ``bound
  --moments``; and partitions with a JSON boolean, a string and a null
  as an atom mask through ``conditional``;
* then a fixed table of event-system files on either side of the bulk
  parse of plain ratios, valid and invalid (``"a/b"``, ``"a"`` and mixed
  weights, signed, spaced and non-ASCII ratios, a zero denominator,
  unusual keys, a float among strings, ``true``, ``null``, a non-bool
  ``"normalize"``, non-finite floats and a float total that overflows),
  through ``bound --input`` and ``conditional``;
* last, a fixed n = 8 exact system with 192 weighted atoms and its float
  copy, through ``conditional`` in JSON on two partitions: 256 singleton
  blocks (more than 255, so block numbers take 4 bytes each) and the 16
  blocks of the sigma-field of events 1..4, at d 0 and 1, r from 1 to n,
  ell 2 and 3, both sides.

Prints one line per call (arguments, exit code, md5 of stdout, stderr;
a call that raises records the exception's class in place of the code),
then the call count, the sha256 of the arguments, exit codes and stdout
digests, and a second sha256 that also covers stderr.  Temporary paths
are left out of both.  Two trees give equal summaries when every call
agrees.  ``--stride K`` runs only every K-th call, for a quick check.
Run from the repository root:

    PYTHONPATH=src python3 scripts/cli_outputs.py --seeds 4 --n-max 5
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

from eventbounds.cli import main as cli_main
from eventbounds.core import normalize
from eventbounds.moments import moment_set
from eventbounds.verification import floatize, random_partition, random_system

SIDES = ("upper", "lower")
TARGETS = ("at-least", "exactly")
FORMATS = ("json", "csv")
FLAGS = ((), ("--exact-arithmetic",))


def _write(path: Path, payload: object) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def _calls(root: Path, seed: int, n_max: int):
    """Every argument list for one seed's inputs."""
    rng = random.Random(seed)
    n = rng.randint(3, n_max)
    exact = random_system(rng, n)
    partition = _write(root / f"partition-{seed}.json", random_partition(rng, n).to_payload())
    for name, system in (("exact", exact), ("float", floatize(exact))):
        source = _write(root / f"system-{seed}-{name}.json", system.to_payload())
        for fmt, flags in itertools.product(FORMATS, FLAGS):
            options = ["--format", fmt, *flags]
            yield ["exact", "--input", source, *options]
            yield ["sweep", "--input", source, *options]
            grid = itertools.product(range(n + 2), SIDES, TARGETS)
            for r, side, target in grid:
                request = ["--r", str(r), "--side", side, "--target", target, *options]
                for d, ell in itertools.product(range(n + 1), (2, 3, 4)):
                    yield ["bound", "--input", source, "--d", str(d), "--ell", str(ell), *request]
                for d, ell in itertools.product(range(n), (2, 3)):
                    yield [
                        "conditional", "--input", source, "--partition", partition,
                        "--d", str(d), "--ell", str(ell), *request,
                    ]
        for flags in FLAGS:
            grid = itertools.product(range(n + 1), range(n + 2), (2, 3), SIDES, TARGETS)
            for d, r, ell, side, target in grid:
                for m in range(n - d + 3):
                    yield [
                        "bound", "--input", source, "--d", str(d), "--r", str(r),
                        "--ell", str(ell), "--side", side, "--target", target, "--m", str(m),
                        *flags,
                    ]
        for d in range(n):
            moments = moment_set(system, d, min(4, n - d + 1))
            path = _write(root / f"moments-{seed}-{name}-d{d}.json", moments.to_payload())
            grid = itertools.product(
                (d, d + 1), range(n + 2), (2, 3, 4), SIDES, TARGETS, FORMATS, FLAGS
            )
            for asked, r, ell, side, target, fmt, flags in grid:
                yield [
                    "bound", "--moments", path, "--d", str(asked), "--r", str(r),
                    "--ell", str(ell), "--side", side, "--target", target, "--format", fmt,
                    *flags,
                ]


#: Invalid event systems over n = 2: exact weights, then their float copies
#: (None where a case has only one of them).
BAD_SYSTEMS = {
    "negative": ({"0": "3/2", "1": "-1/2"}, {"0": 1.5, "1": -0.5}),
    "zero-mass": ({"0": "0", "3": "0"}, {"0": 0.0, "3": 0.0}),
    "mask-out-of-range": ({"0": "1/2", "4": "1/2"}, {"0": 0.5, "4": 0.5}),
    "sum-not-one": ({"0": "1/4", "3": "1/4"}, {"0": 0.25, "3": 0.25}),
    "two-spellings": ({"0": "1/4", "1": "1/4", "01": "1/2"}, {"0": 0.25, "1": 0.25, "01": 0.5}),
    "negative-past-tolerance": (None, {"0": -1e-12, "1": -0.5, "2": 1.5}),
}

#: Invalid moment files, each with the d to ask for.
BAD_MOMENTS = {
    "ell-zero": ({"n": 3, "d": 0, "ell": 0, "s": [{"j": [], "values": []}]}, 0),
    "negative": ({"n": 3, "d": 0, "ell": 2, "s": [{"j": [], "values": ["1", "-1/2"]}]}, 0),
    "infeasible": (
        {"n": 3, "d": 0, "ell": 3, "s": [{"j": [], "values": ["1", "1/10", "9/10"]}]},
        0,
    ),
    "missing-tuple": (
        {"n": 3, "d": 1, "ell": 2, "s": [{"j": [k], "values": ["1/2", "1/4"]} for k in (1, 3)]},
        1,
    ),
}


#: Event-system files on either side of the bulk parse: (n, weights, "normalize").
BOUNDARY_SYSTEMS = {
    "ratios": (2, {"0": "1/4", "3": "3/4"}, False),
    "integers": (2, {"0": "1", "3": "3"}, True),
    "mixed": (2, {"0": "2", "3": "3/1"}, True),
    "zero-over-five": (2, {"0": "0/5", "3": "1"}, False),
    "zero-denominator": (2, {"0": "1/0", "3": "1"}, True),
    "plus-sign": (2, {"0": "+1/2", "3": "1/2"}, False),
    "arabic-indic": (2, {"0": "\u0663/6", "3": "1/2"}, False),
    "space-in-ratio": (2, {"0": "1 /2", "3": "1/2"}, False),
    "key-space": (2, {" 2": "1/2", "1": "1/2"}, False),
    "key-underscore": (4, {"1_0": "1/2", "1": "1/2"}, False),
    "two-spellings": (2, {"1": "1/2", "01": "1/2"}, False),
    "float-and-string": (2, {"0": 0.25, "3": "3/4"}, False),
    "true": (2, {"0": True, "3": "1"}, False),
    "null": (2, {"0": None, "3": "1"}, False),
    "normalize-not-bool": (2, {"0": "1/2", "3": "1/2"}, 1),
    "nan": (2, {"1": float("nan"), "2": 0.5, "3": 0.5}, False),
    "infinity": (2, {"1": float("inf"), "2": 0.5}, True),
    "total-overflows": (2, {"1": 1e308, "2": 1e308, "3": 1e308}, True),
}


def _invalid_calls(root: Path):
    """Every argument list for the fixed table of invalid files."""
    partition = _write(root / "partition-bad.json", {"blocks": [[0, 1], [2, 3]]})
    request = ["--d", "0", "--r", "1", "--ell", "2"]
    for name, systems in BAD_SYSTEMS.items():
        for (kind, weights), normalize in itertools.product(
            zip(("exact", "float"), systems), (False, True)
        ):
            if weights is None:
                continue
            payload = {"n": 2, "weights": weights, "normalize": normalize}
            source = _write(root / f"bad-{name}-{kind}-{normalize}.json", payload)
            for flags in FLAGS:
                yield ["bound", "--input", source, *request, *flags]
                yield ["conditional", "--input", source, "--partition", partition, *request, *flags]
    system = _write(root / "system-n2.json", {"n": 2, "weights": {"0": "1/2", "3": "1/2"}})
    for name, blocks in (
        ("boolean", [[0, True], [2, 3]]),
        ("string", [[0, "x"], [1, 2, 3]]),
        ("null", [[0, None], [1, 2, 3]]),
    ):
        bad = _write(root / f"partition-{name}-atom.json", {"blocks": blocks})
        yield ["conditional", "--input", system, "--partition", bad, *request]
    for name, (payload, d) in BAD_MOMENTS.items():
        path = _write(root / f"bad-moments-{name}.json", payload)
        for flags in FLAGS:
            yield ["bound", "--moments", path, "--d", str(d), "--r", "1", "--ell", "2", *flags]
    for name, (n, weights, normalize) in BOUNDARY_SYSTEMS.items():
        payload = {"n": n, "weights": weights, "normalize": normalize}
        source = _write(root / f"boundary-{name}.json", payload)
        for flags in FLAGS:
            yield ["bound", "--input", source, *request, *flags]
            yield ["conditional", "--input", source, "--partition", partition, *request, *flags]


def _many_block_calls(root: Path):
    """Every argument list for the fixed many-block systems."""
    n = 8
    rng = random.Random("cli_outputs:many-blocks")
    masks = sorted(rng.sample(range(1 << n), 192))
    exact = normalize(n, {m: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for m in masks})
    partitions = {
        "singletons": [[atom] for atom in range(1 << n)],
        "events-1-4": [[atom for atom in range(1 << n) if atom & 15 == low] for low in range(16)],
    }
    for name, system in (("exact", exact), ("float", floatize(exact))):
        source = _write(root / f"many-blocks-{name}.json", system.to_payload())
        for label, blocks in partitions.items():
            partition = _write(root / f"partition-{label}.json", {"blocks": blocks})
            grid = itertools.product((0, 1), range(1, n + 1), (2, 3), SIDES)
            for d, r, ell, side in grid:
                yield [
                    "conditional", "--input", source, "--partition", partition, "--d", str(d),
                    "--r", str(r), "--ell", str(ell), "--side", side, "--format", "json",
                ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=4, help="seeded systems, seeds 0..N-1")
    parser.add_argument("--n-max", type=int, default=5, dest="n_max")
    parser.add_argument("--stride", type=int, default=1, help="run only every K-th call")
    args = parser.parse_args()
    outputs, everything = hashlib.sha256(), hashlib.sha256()
    calls = 0
    with tempfile.TemporaryDirectory() as tmp:
        every = [_calls(Path(tmp), seed, args.n_max) for seed in range(args.seeds)]
        every.append(_invalid_calls(Path(tmp)))
        every.append(_many_block_calls(Path(tmp)))
        for argv in itertools.chain(*(itertools.islice(c, 0, None, args.stride) for c in every)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli_main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # noqa: BLE001 -- a crash is an outcome too
                    code = type(exc).__name__
            key = " ".join(argv).replace(tmp + "/", "")
            stdout_md5 = hashlib.md5(out.getvalue().encode()).hexdigest()
            stderr = err.getvalue().replace(tmp + "/", "")
            print(json.dumps([key, code, stdout_md5, stderr]))
            outputs.update(json.dumps([key, code, stdout_md5]).encode())
            everything.update(json.dumps([key, code, stdout_md5, stderr]).encode())
            calls += 1
    print(
        f"{calls} calls, stdout and exit codes sha256 {outputs.hexdigest()}, "
        f"with stderr {everything.hexdigest()}"
    )


if __name__ == "__main__":
    main()
