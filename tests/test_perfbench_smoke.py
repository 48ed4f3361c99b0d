"""The benchmark's smoke run: every workload passes its checks and keeps its certificates.

``python3 perfbench/run.py --smoke`` runs the three benchmark workloads at
tiny sizes, traced and untraced, checks every certificate against the
benchmark's own oracle and prints a digest of the certificates of each
workload.  The digests pinned here were recorded before exact systems moved
to integer numerators, so any change to a certificate's exact value, its
terms or its formula shows up as a digest mismatch.  The run takes about
ten seconds and only reads ``perfbench/``.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "verify-small": "7b8a69431826",
    "bound-wide": "137418f11ab8",
    "search-moments": "579750dfe51e",
}

LINE = re.compile(
    r"^smoke (?P<workload>[\w-]+) trace=(?P<trace>[01]): \d+ metrics, "
    r"failed (?P<failed>\d+)/\d+, digest (?P<digest>[0-9a-f]{12})$"
)


def test_smoke_run_passes_with_the_pinned_digests():
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    lines = [m.groupdict() for m in map(LINE.match, result.stdout.splitlines()) if m]
    assert sorted((line["workload"], line["trace"]) for line in lines) == sorted(
        (workload, trace) for workload in DIGESTS for trace in "01"
    ), result.stdout
    for line in lines:
        assert line["failed"] == "0", result.stdout + result.stderr
        assert line["digest"] == DIGESTS[line["workload"]], line
    assert result.stdout.rstrip().endswith("smoke ok")
