"""Digest of the ``witness`` command's stdout and exit codes over a fixed table.

Writes exact and float inputs to a temporary directory: one random system
with n = 5 (as a system file, and as moment files at d = 0 and d = 1 with
up to 6 orders), plus the two moment-only inputs of the golden search
fixture.  Then runs ``witness`` in-process on every r from 0 to n+1, ell
2, 3, 4 and 6, both sides and targets, JSON and CSV, with and without
``--exact-arithmetic``.  Prints one line per call (arguments, exit code,
md5 of stdout, stderr), then the call count and the sha256 of the
arguments, exit codes and stdout digests.  Two trees give equal summaries
when their stdout and exit codes agree on every call.  Run from the
repository root:

    PYTHONPATH=src python3 scripts/witness_outputs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_golden_search import moment_only_inputs  # noqa: E402

from eventbounds.cli import main as cli_main  # noqa: E402
from eventbounds.moments import moment_set  # noqa: E402
from eventbounds.verification import floatize, random_system  # noqa: E402


def _inputs(root: Path) -> list[tuple[str, Path, int, tuple[int, ...]]]:
    """(source flag, file, n, the d values to request) per input file."""
    inputs = []
    system = random_system(random.Random(7), 5)
    for name, version in (("exact", system), ("float", floatize(system))):
        path = root / f"system-{name}.json"
        path.write_text(json.dumps(version.to_payload()))
        inputs.append(("--input", path, version.n, (0, 1)))
        for d in (0, 1):
            moments = moment_set(version, d, min(6, version.n - d + 1))
            path = root / f"moments-{name}-d{d}.json"
            path.write_text(json.dumps(moments.to_payload()))
            inputs.append(("--moments", path, version.n, (d,)))
    for name, moments in moment_only_inputs().items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(moments.to_payload()))
        inputs.append(("--moments", path, moments.n, (moments.d,)))
    return inputs


def main() -> None:
    digest = hashlib.sha256()
    calls = 0
    with tempfile.TemporaryDirectory() as tmp:
        for flag, path, n, ds in _inputs(Path(tmp)):
            grid = itertools.product(
                ds,
                range(n + 2),
                (2, 3, 4, 6),
                ("upper", "lower"),
                ("at-least", "exactly"),
                ("json", "csv"),
                ([], ["--exact-arithmetic"]),
            )
            for d, r, ell, side, target, fmt, extra in grid:
                options = [
                    "--r", str(r), "--d", str(d), "--ell", str(ell),
                    "--side", side, "--target", target, "--format", fmt, *extra,
                ]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli_main(["witness", flag, str(path), *options])
                    except SystemExit as exc:
                        code = exc.code
                key = " ".join(["witness", flag, path.name, *options])
                stdout_md5 = hashlib.md5(out.getvalue().encode()).hexdigest()
                print(json.dumps([key, code, stdout_md5, err.getvalue()]))
                digest.update(json.dumps([key, code, stdout_md5]).encode())
                calls += 1
    print(f"{calls} calls, stdout and exit codes sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
